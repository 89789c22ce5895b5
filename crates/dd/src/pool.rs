//! A small, dependency-free work-stealing thread pool.
//!
//! This is the execution substrate for every parallel surface in the
//! workspace: the engine's shot-sampling and noise-trajectory loops, the
//! fuzz harness's config-lattice sweep, and the simulation server's worker
//! lanes. Each of those runs whole independent jobs on a lane; the DD
//! kernels themselves always run sequentially (DESIGN.md §12). The design
//! follows the faer-rs idiom of passing a parallelism *capability* down
//! (see [`Par`]) rather than spawning threads at use sites:
//!
//! * one pool is created per simulator / harness and reused for its whole
//!   lifetime — workers park on a condvar between batches, so an idle pool
//!   costs nothing;
//! * each worker owns a deque; batch submission round-robins tasks across
//!   the deques, workers pop their own front and **steal from the back**
//!   of their peers (plus a shared injector for external submissions), so
//!   imbalanced task sizes rebalance without a central queue bottleneck;
//! * the submitting thread is a full participant: [`ThreadPool::run_batch`]
//!   executes tasks on the caller too, so a pool of parallelism `n` spawns
//!   only `n - 1` OS threads and `n = 1` degenerates to plain inline
//!   execution with no cross-thread traffic at all.
//!
//! Task panics are caught per task, the batch is still drained to
//! completion (so borrowed data cannot escape), and the first panic is
//! re-raised on the submitting thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The parallelism capability a [`DdManager`](crate::DdManager) carries,
/// in the style of faer-rs's `Par` parameter. The multiplication kernels
/// never read it: they run the same sequential code under either variant,
/// so diagrams and statistics do not depend on it. Callers that fan whole
/// jobs over one diagram (the engine's shot sampler) take their pool from
/// here.
#[derive(Clone, Debug, Default)]
pub enum Par {
    /// No pool (the default).
    #[default]
    Seq,
    /// A shared pool for job-level parallelism.
    Threaded(Arc<ThreadPool>),
}

/// A boxed unit of work. Lifetimes are erased by [`ThreadPool::run_batch`],
/// which guarantees the whole batch has finished before it returns.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// Per-worker deques: worker `i` pops the *front* of `queues[i]` and
    /// steals from the *back* of every other queue.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Overflow / external submissions (also stolen from).
    injector: Mutex<VecDeque<Job>>,
    /// Wake-up generation counter; bumped (under the lock) on every
    /// submission so sleeping workers cannot miss work.
    sleep_gen: Mutex<u64>,
    /// Workers park here when every queue is empty.
    wakeup: Condvar,
    /// Latched by `Drop`; workers exit once set and out of work.
    shutdown: AtomicBool,
}

impl Shared {
    /// Takes one job: own queue front first, then the injector, then
    /// steals from peers' backs. `home` is `usize::MAX` for non-worker
    /// (submitting) threads, which scan the injector and steal only.
    fn find_job(&self, home: usize) -> Option<Job> {
        if let Some(q) = self.queues.get(home) {
            if let Some(job) = q.lock().expect("pool queue poisoned").pop_front() {
                return Some(job);
            }
        }
        if let Some(job) = self
            .injector
            .lock()
            .expect("pool injector poisoned")
            .pop_front()
        {
            return Some(job);
        }
        for (i, q) in self.queues.iter().enumerate() {
            if i == home {
                continue;
            }
            if let Some(job) = q.lock().expect("pool queue poisoned").pop_back() {
                return Some(job);
            }
        }
        None
    }

    /// Bumps the wake-up generation and rouses every parked worker.
    fn notify(&self) {
        let mut gen = self.sleep_gen.lock().expect("pool sleep lock poisoned");
        *gen = gen.wrapping_add(1);
        drop(gen);
        self.wakeup.notify_all();
    }
}

/// The worker main loop: run jobs until shutdown.
fn worker_loop(shared: Arc<Shared>, home: usize) {
    loop {
        // Snapshot the generation BEFORE scanning, so a submission that
        // races with an empty scan bumps the generation and the wait
        // below returns immediately instead of sleeping through it.
        let seen = *shared.sleep_gen.lock().expect("pool sleep lock poisoned");
        if let Some(job) = shared.find_job(home) {
            job();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut gen = shared.sleep_gen.lock().expect("pool sleep lock poisoned");
        while *gen == seen && !shared.shutdown.load(Ordering::Acquire) {
            gen = shared.wakeup.wait(gen).expect("pool sleep lock poisoned");
        }
    }
}

/// Completion tracking for one [`ThreadPool::run_batch`] call.
struct Batch {
    /// Tasks not yet finished.
    remaining: AtomicUsize,
    /// First panic payload observed, re-raised on the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Submitter parks here once it runs out of tasks to help with.
    done_lock: Mutex<()>,
    done: Condvar,
}

/// A fixed-size work-stealing thread pool (see the module docs).
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Total parallelism including the submitting thread.
    parallelism: usize,
    /// Round-robin cursor for batch distribution.
    next_queue: AtomicUsize,
}

impl ThreadPool {
    /// Creates a pool with total parallelism `parallelism` (clamped to at
    /// least 1): `parallelism - 1` worker threads are spawned, and the
    /// thread calling [`run_batch`](Self::run_batch) is the final lane.
    pub fn new(parallelism: usize) -> ThreadPool {
        let parallelism = parallelism.max(1);
        let workers = parallelism - 1;
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            sleep_gen: Mutex::new(0),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dd-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            parallelism,
            next_queue: AtomicUsize::new(0),
        }
    }

    /// Total parallelism (worker threads + the submitting thread).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Runs every task to completion, distributing them across the
    /// workers' deques with the calling thread participating. Returns only
    /// after **all** tasks have finished (panicked tasks count as
    /// finished); the first panic is then re-raised on the caller.
    ///
    /// Tasks may borrow from the caller's stack: the completion barrier is
    /// what makes the internal lifetime erasure sound.
    pub fn run_batch<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        // Fast path: nothing to distribute to.
        if self.shared.queues.is_empty() || tasks.len() == 1 {
            let mut first_panic = None;
            for task in tasks {
                if let Err(p) = catch_unwind(AssertUnwindSafe(task)) {
                    first_panic.get_or_insert(p);
                }
            }
            if let Some(p) = first_panic {
                resume_unwind(p);
            }
            return;
        }
        let batch = Arc::new(Batch {
            remaining: AtomicUsize::new(tasks.len()),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
        });
        let start = self.next_queue.fetch_add(tasks.len(), Ordering::Relaxed);
        for (i, task) in tasks.into_iter().enumerate() {
            let batch = Arc::clone(&batch);
            let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                if let Err(p) = catch_unwind(AssertUnwindSafe(task)) {
                    batch
                        .panic
                        .lock()
                        .expect("batch panic slot poisoned")
                        .get_or_insert(p);
                }
                if batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let _guard = batch.done_lock.lock().expect("batch lock poisoned");
                    batch.done.notify_all();
                }
            });
            // SAFETY: `wrapped` borrows data that lives for `'scope`. This
            // function does not return until `batch.remaining` hits zero,
            // i.e. until every wrapped task has run (or been drained on a
            // worker), so no borrow outlives the caller's frame.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(wrapped) };
            let slot = (start + i) % self.shared.queues.len();
            self.shared.queues[slot]
                .lock()
                .expect("pool queue poisoned")
                .push_back(job);
        }
        self.shared.notify();
        // Help: the submitting thread executes queued jobs while the batch
        // drains. It may pick up jobs from an unrelated concurrent batch —
        // harmless, they are self-contained by the same argument.
        while batch.remaining.load(Ordering::Acquire) > 0 {
            if let Some(job) = self.shared.find_job(usize::MAX) {
                job();
                continue;
            }
            let guard = batch.done_lock.lock().expect("batch lock poisoned");
            if batch.remaining.load(Ordering::Acquire) > 0 {
                // Bounded wait: a job stolen by a worker *after* our scan
                // could finish without re-notifying this exact condvar
                // cycle; the timeout keeps the submitter live-checking.
                let _ = batch
                    .done
                    .wait_timeout(guard, std::time::Duration::from_millis(1))
                    .expect("batch lock poisoned");
            }
        }
        let panicked = batch
            .panic
            .lock()
            .expect("batch panic slot poisoned")
            .take();
        if let Some(p) = panicked {
            resume_unwind(p);
        }
    }

    /// Submits one fire-and-forget job to the pool's injector queue and
    /// returns immediately. Unlike [`run_batch`](Self::run_batch) there is
    /// no completion barrier, so the job must own its data (`'static`).
    ///
    /// The job is wrapped in `catch_unwind` *here*: worker threads run
    /// injector jobs bare, and a helping `run_batch` submitter can pick
    /// them up too, so an unwrapped panic would either kill a worker
    /// thread or tear through an unrelated batch. The panic payload is
    /// dropped — callers that need to observe panics (e.g. a supervisor)
    /// must install their own `catch_unwind` inside the job.
    ///
    /// A pool with parallelism 1 has no worker threads and nothing ever
    /// drains the injector between batches; in that case the job runs
    /// inline on the calling thread before `submit` returns.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let wrapped: Job = Box::new(move || {
            let _ = catch_unwind(AssertUnwindSafe(job));
        });
        if self.shared.queues.is_empty() {
            wrapped();
            return;
        }
        self.shared
            .injector
            .lock()
            .expect("pool injector poisoned")
            .push_back(wrapped);
        self.shared.notify();
    }

    /// Applies `f` to every index in `0..n` in parallel: one task per lane
    /// pulls indices from a shared counter, so uneven per-index costs
    /// rebalance automatically. Order of execution is unspecified; `f`
    /// must be safe to call concurrently.
    pub fn par_for_each_index(&self, n: usize, f: impl Fn(usize) + Sync) {
        if n == 0 {
            return;
        }
        let lanes = self.parallelism.min(n);
        if lanes <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        let next = &next;
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..lanes)
            .map(|_| {
                Box::new(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    f(i);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run_batch(tasks);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("parallelism", &self.parallelism)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_runs_every_task_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|i| {
                let slot = &hits[i];
                Box::new(move || {
                    slot.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(tasks);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "task {i} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = ThreadPool::new(3);
        for round in 0..20 {
            let sum = AtomicUsize::new(0);
            pool.par_for_each_index(100, |i| {
                sum.fetch_add(i + round, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 4950 + 100 * round);
        }
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.parallelism(), 1);
        let mut seen = Vec::new();
        let seen_ref = Mutex::new(&mut seen);
        pool.par_for_each_index(5, |i| {
            seen_ref.lock().unwrap().push(i);
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn task_panic_is_reraised_after_the_batch_drains() {
        let pool = ThreadPool::new(4);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
                .map(|i| {
                    let completed = &completed;
                    Box::new(move || {
                        if i == 7 {
                            panic!("boom in task 7");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_batch(tasks);
        }));
        assert!(result.is_err(), "the task panic must propagate");
        // Every non-panicking task still ran: the batch drains fully
        // before the panic is re-raised.
        assert_eq!(completed.load(Ordering::Relaxed), 15);
        // And the pool survives for the next batch.
        let sum = AtomicUsize::new(0);
        pool.par_for_each_index(10, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn borrowed_state_is_visible_after_the_batch() {
        let pool = ThreadPool::new(4);
        let results: Vec<Mutex<u64>> = (0..32).map(|_| Mutex::new(0)).collect();
        pool.par_for_each_index(32, |i| {
            *results[i].lock().unwrap() = (i as u64) * 3;
        });
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r.lock().unwrap(), (i as u64) * 3);
        }
    }

    #[test]
    fn submitted_jobs_run_and_panics_are_contained() {
        let pool = ThreadPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..32 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                if i % 8 == 3 {
                    panic!("boom in submitted job {i}");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        // No barrier on submit: poll until the non-panicking jobs land.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while done.load(Ordering::Relaxed) < 28 {
            assert!(
                std::time::Instant::now() < deadline,
                "submitted jobs did not drain: {}/28",
                done.load(Ordering::Relaxed)
            );
            std::thread::yield_now();
        }
        // The panicking jobs killed no worker: a batch still completes and
        // its own panic protocol is unaffected.
        let sum = AtomicUsize::new(0);
        pool.par_for_each_index(100, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn submit_on_single_lane_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.submit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        // Inline execution: visible immediately, no polling needed.
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        let r = Arc::clone(&ran);
        pool.submit(move || panic!("inline panic must not escape {r:p}"));
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stealing_drains_an_imbalanced_batch() {
        // One long task pins a worker; the remaining short tasks must be
        // stolen and completed by the other lanes.
        let pool = ThreadPool::new(4);
        let done = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..40)
            .map(|i| {
                let done = &done;
                Box::new(move || {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(tasks);
        assert_eq!(done.load(Ordering::Relaxed), 40);
    }
}

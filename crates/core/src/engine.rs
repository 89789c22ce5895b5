//! The simulation engine: streams a [`Circuit`] through the DD package
//! under a configurable combining [`Strategy`].
//!
//! # Resource governance
//!
//! Runs execute under the budgets configured in
//! [`DdConfig`](ddsim_dd::DdConfig) (`max_live_nodes`, `max_table_bytes`),
//! the wall-clock [`SimOptions::deadline`], and an optional cooperative
//! [`CancelToken`]. When a *budget* trips mid-operation the engine walks a
//! degradation ladder before giving up:
//!
//! 1. **Emergency GC** — collect garbage and retry the operation (sound
//!    because DD operations are deterministic and any compute-table entry
//!    written by the aborted attempt is a complete, valid result);
//! 2. **Cache flush** — drop all compute-table entries, collect again (the
//!    GC rebuild shrinks the unique tables toward their floor), retry;
//! 3. **Strategy downgrade** — abandon the accumulated gate product and
//!    replay its recorded gates one at a time through the specialized
//!    apply kernels, then continue the rest of the run sequentially
//!    (matrix products are the memory-hungry part of combining).
//!
//! Each rung taken is counted in [`RunStats`]. Only when rung 3 still
//! cannot fit the state itself does the run end, with a typed
//! [`SimError::BudgetExceeded`] — never a panic, never unbounded memory.
//! Deadline expiry and cancellation skip the ladder and unwind promptly.
//!
//! # Checkpoint / resume
//!
//! [`Simulator::run_from`] can write a versioned binary
//! [`Snapshot`](ddsim_dd::Snapshot) every *N* ops of the flattened
//! instruction stream and [`Simulator::resume_from`] rebuilds a simulator
//! from one, bit-for-bit: the full complex table, the state DD, the
//! classical register, and the RNG stream position all round-trip exactly.
//! A checkpoint acts as a barrier (the pending product is flushed first).

use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ddsim_circuit::{lower_swap, Circuit, GateOp, Operation};
use ddsim_complex::Complex;
use ddsim_dd::snapshot::fnv1a;
use ddsim_dd::{
    CancelToken, DdConfig, DdError, DdManager, FxHashMap, MatEdge, Par, Snapshot, ThreadPool,
    VecEdge,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{widen_dd_error, SimError};
use crate::stats::{RunStats, StepTrace};
use crate::strategy::Strategy;

/// Dynamic variable-reordering policy for a run.
///
/// Reordering exchanges the DD's qubit↔level assignment via adjacent-level
/// swaps ([`DdManager::swap_levels`]) so that strongly correlated qubits
/// sit on neighboring levels, which can shrink the state DD exponentially
/// on order-sensitive circuits. All public accessors stay qubit-indexed —
/// a reorder changes the diagram, never the observable amplitudes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReorderMode {
    /// Keep the circuit's variable order for the whole run.
    #[default]
    None,
    /// Sift the state (Rudell-style) whenever it has grown past twice its
    /// size at the previous sift, and once more before the run seals, so
    /// every successful run reorders at least once.
    Sifting,
}

impl ReorderMode {
    /// Stable CLI label.
    pub fn label(self) -> &'static str {
        match self {
            ReorderMode::None => "none",
            ReorderMode::Sifting => "sifting",
        }
    }

    /// Parses a CLI label back into a mode.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(ReorderMode::None),
            "sifting" => Some(ReorderMode::Sifting),
            _ => None,
        }
    }
}

/// Options controlling a simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// The combining strategy (paper Section IV).
    pub strategy: Strategy,
    /// Seed for measurement sampling (runs are deterministic per seed).
    pub seed: u64,
    /// Record a per-step [`StepTrace`] (costs one DD traversal per applied
    /// multiplication).
    pub collect_trace: bool,
    /// DD-manager configuration (tolerance, GC threshold, table capacities,
    /// cache switch, resource budgets).
    pub dd_config: DdConfig,
    /// Wall-clock budget for one `run`/`run_from` call, measured from its
    /// start. `None` disables the deadline. On expiry the run unwinds with
    /// [`SimError::DeadlineExceeded`]; a resumed run gets a fresh window.
    pub deadline: Option<Duration>,
    /// Worker threads for shot sampling and noise trajectories. `1` (the
    /// default) builds no pool; `0` uses all available cores. At `≥ 2` the
    /// simulator owns a work-stealing pool on which
    /// [`Simulator::sample_counts`] spreads shots across lanes. The DD
    /// operations run sequentially at every setting, so amplitudes and
    /// run statistics do not depend on it (see DESIGN.md §12).
    pub threads: u32,
    /// Dynamic variable-reordering policy (see [`ReorderMode`]).
    /// Independent of this setting, the degradation ladder sifts once
    /// before falling to the strategy downgrade when a state application
    /// exhausts rungs 1–2.
    pub reorder: ReorderMode,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            strategy: Strategy::Sequential,
            seed: 0,
            collect_trace: false,
            dd_config: DdConfig::default(),
            deadline: None,
            threads: 1,
            reorder: ReorderMode::None,
        }
    }
}

/// Resolves a [`SimOptions::threads`] value to a concrete lane count
/// (`0` means all available cores).
pub(crate) fn effective_threads(threads: u32) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        n => n as usize,
    }
}

/// Builds the shared pool for a `threads` setting, or `None` when the
/// setting resolves to sequential execution.
pub(crate) fn build_pool(threads: u32) -> Option<Arc<ThreadPool>> {
    match effective_threads(threads) {
        0 | 1 => None,
        p => Some(Arc::new(ThreadPool::new(p))),
    }
}

impl SimOptions {
    /// Options with a given strategy and defaults elsewhere.
    pub fn with_strategy(strategy: Strategy) -> Self {
        SimOptions {
            strategy,
            ..SimOptions::default()
        }
    }
}

/// Periodic checkpointing plan for [`Simulator::run_from`].
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Write a snapshot after every this many executed ops of the
    /// flattened stream (0 disables periodic checkpoints).
    pub every_ops: u64,
    /// Snapshot destination; overwritten atomically at each checkpoint.
    pub path: std::path::PathBuf,
}

/// Stable fingerprint of a circuit's observable behavior (qubits, classical
/// bits, flattened op stream), used to pair snapshots with their circuit.
pub fn circuit_fingerprint(circuit: &Circuit) -> u64 {
    let flat = circuit.flattened();
    let text = format!("{}|{}|{:?}", flat.qubits(), flat.cbits(), flat.ops());
    fnv1a(text.as_bytes())
}

/// A DD-based quantum-circuit simulator.
///
/// # Examples
///
/// ```
/// use ddsim_circuit::Circuit;
/// use ddsim_core::{SimOptions, Simulator, Strategy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let mut sim = Simulator::with_options(2, SimOptions::with_strategy(Strategy::Sequential));
/// sim.run(&bell)?;
/// assert!((sim.probability_of(0b00) - 0.5).abs() < 1e-10);
/// assert!((sim.probability_of(0b11) - 0.5).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub struct Simulator {
    dd: DdManager,
    n: u32,
    state: VecEdge,
    classical: Vec<bool>,
    rng: StdRng,
    options: SimOptions,
    // Accumulated, not-yet-applied product of combined gate matrices.
    pending: Option<MatEdge>,
    pending_gates: u64,
    // The gate behind `pending` while the group holds exactly one gate, so
    // a single-gate flush can route through the specialized apply kernels.
    pending_single: Option<GateOp>,
    // Every gate folded into `pending`, in application order — the replay
    // script for ladder rung 3 (drop the product, apply gates one by one).
    pending_ops: Vec<GateOp>,
    // State DD size the flush rule reads; `None` once the state changed,
    // recounted only when the rule next reads it.
    cached_state_nodes: Option<usize>,
    // Reference state size for the reorder growth trigger: node count as of
    // the last sift (or the last checkpoint barrier, which resets it the
    // same way on the writer and on resume, keeping the two bitwise in
    // lockstep).
    sift_baseline: usize,
    // Non-zero while a cached repeating-block matrix may be re-applied;
    // reordering is blocked for its duration (the block is a level-space
    // diagram built under the order current at construction).
    reorder_holds: u32,
    // Ladder rung 3 latches this; the rest of the run is sequential.
    degraded: bool,
    // Ops of the flattened stream executed so far (checkpoint cursor).
    ops_executed: u64,
    // Fingerprint of the circuit the current/last run executed.
    active_circuit_hash: u64,
    stats: RunStats,
    // Cooperative suspend request, observed at op boundaries in `run_from`
    // (checkpoint-then-park, see `set_suspend_token`). Kept separate from
    // the manager's cancel token: cancellation unwinds mid-multiply and is
    // terminal, suspension must stop at a resumable barrier.
    suspend: Option<CancelToken>,
}

impl Simulator {
    /// A simulator over `n` qubits in |0…0⟩ with default options.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 63.
    pub fn new(n: u32) -> Self {
        Self::with_options(n, SimOptions::default())
    }

    /// A simulator with explicit options.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 63.
    pub fn with_options(n: u32, options: SimOptions) -> Self {
        let mut dd = DdManager::with_config(options.dd_config);
        if let Some(pool) = build_pool(options.threads) {
            dd.set_par(Par::Threaded(pool));
        }
        let state = dd.vec_zero_state(n);
        dd.inc_ref_vec(state);
        Simulator {
            dd,
            n,
            state,
            classical: Vec::new(),
            rng: StdRng::seed_from_u64(options.seed),
            options,
            pending: None,
            pending_gates: 0,
            pending_single: None,
            pending_ops: Vec::new(),
            cached_state_nodes: Some(1),
            sift_baseline: 1,
            reorder_holds: 0,
            degraded: false,
            ops_executed: 0,
            active_circuit_hash: 0,
            stats: RunStats::default(),
            suspend: None,
        }
    }

    /// Number of qubits.
    pub fn qubits(&self) -> u32 {
        self.n
    }

    /// The classical bits written by measurements so far.
    pub fn classical_bits(&self) -> &[bool] {
        &self.classical
    }

    /// The classical register interpreted as an integer,
    /// `Σ bit_i · 2^i`.
    pub fn classical_value(&self) -> u64 {
        self.classical
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| 1u64 << i)
            .sum()
    }

    /// Immutable access to the DD manager (node counts, exports, …).
    pub fn dd(&self) -> &DdManager {
        &self.dd
    }

    /// The current state-vector edge.
    pub fn state(&self) -> VecEdge {
        self.state
    }

    /// The amplitude of a basis state.
    pub fn amplitude(&self, index: u64) -> Complex {
        self.dd.vec_amplitude(self.state, index)
    }

    /// The probability of observing a full basis state.
    pub fn probability_of(&self, index: u64) -> f64 {
        self.amplitude(index).norm_sqr()
    }

    /// The probability of qubit `q` measuring 1.
    pub fn prob_one(&self, q: u32) -> f64 {
        self.dd.prob_one(self.state, q)
    }

    /// Node count of the current state DD.
    pub fn state_nodes(&self) -> usize {
        self.dd.vec_node_count(self.state)
    }

    /// Ops of the flattened instruction stream executed by the current or
    /// most recent [`run_from`](Self::run_from) call (the checkpoint
    /// cursor).
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Registers (or clears) a cooperative cancellation token. In-flight
    /// DD work unwinds with [`SimError::Cancelled`] shortly after the
    /// token latches; the per-op loop observes it immediately.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.dd.set_cancel_token(token);
    }

    /// Registers (or clears) a cooperative *suspend* token, observed by
    /// [`run_from`](Self::run_from) at every op boundary. When the token
    /// latches, the engine writes a checkpoint (if a
    /// [`CheckpointConfig`] was supplied to `run_from`) and returns
    /// [`SimError::Suspended`]; the checkpoint resumes bitwise-identically
    /// via [`resume_from`](Self::resume_from). Suspension latency is one
    /// op: a latch mid-multiply takes effect before the *next* op starts.
    ///
    /// This is the eviction mechanism for a multi-tenant server shedding
    /// memory pressure — unlike cancellation, no work is lost.
    pub fn set_suspend_token(&mut self, token: Option<CancelToken>) {
        self.suspend = token;
    }

    /// Samples a full measurement (without collapsing).
    pub fn sample(&mut self) -> u64 {
        let rng = &mut self.rng;
        let mut draw = || rng.gen::<f64>();
        self.dd.sample(self.state, &mut draw)
    }

    /// Samples `shots` full measurements and returns outcome counts —
    /// the typical read-out a hardware backend would give.
    ///
    /// At `threads ≤ 1` the shots draw from the simulator's RNG stream one
    /// by one, exactly as before threading existed. With a pool, each shot
    /// gets a deterministic substream derived from one draw of the main
    /// stream, and the shots run across the pool's lanes; the resulting
    /// histogram depends only on the seed (counts merge commutatively),
    /// never on worker scheduling.
    pub fn sample_counts(&mut self, shots: u32) -> FxHashMap<u64, u32> {
        if shots >= 2 {
            if let Par::Threaded(pool) = self.dd.par() {
                let pool = Arc::clone(pool);
                return self.sample_counts_par(shots, &pool);
            }
        }
        let mut counts = FxHashMap::default();
        for _ in 0..shots {
            *counts.entry(self.sample()).or_insert(0) += 1;
        }
        counts
    }

    fn sample_counts_par(&mut self, shots: u32, pool: &Arc<ThreadPool>) -> FxHashMap<u64, u32> {
        // One draw advances the main stream; each shot derives its own
        // substream from it (Weyl-sequence increment, the SplitMix64
        // constant), so outcomes are a pure function of (seed, shot index).
        let base = self.rng.gen::<u64>();
        let lanes = pool.parallelism().min(shots as usize).max(1);
        let slots: Vec<Mutex<FxHashMap<u64, u32>>> = (0..lanes)
            .map(|_| Mutex::new(FxHashMap::default()))
            .collect();
        let dd = &self.dd;
        let state = self.state;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..lanes)
            .map(|lane| {
                let slots = &slots;
                Box::new(move || {
                    let mut local: FxHashMap<u64, u32> = FxHashMap::default();
                    let mut shot = lane as u32;
                    while shot < shots {
                        let mut rng = StdRng::seed_from_u64(
                            base.wrapping_add(u64::from(shot).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                        );
                        let mut draw = || rng.gen::<f64>();
                        *local.entry(dd.sample(state, &mut draw)).or_insert(0) += 1;
                        shot += lanes as u32;
                    }
                    *slots[lane].lock().expect("sample lane poisoned") = local;
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(tasks);
        let mut counts = FxHashMap::default();
        for slot in slots {
            for (outcome, c) in slot.into_inner().expect("sample lane poisoned") {
                *counts.entry(outcome).or_insert(0) += c;
            }
        }
        counts
    }

    /// Runs a circuit to completion under the configured strategy,
    /// returning the run statistics.
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] if the circuit's qubit count differs
    /// from the simulator's; [`SimError::BudgetExceeded`] /
    /// [`SimError::DeadlineExceeded`] / [`SimError::Cancelled`] if the
    /// resource governor ends the run. After any error the simulator is
    /// consistent: the pre-error state survives, pending work is released,
    /// and the run may be retried under relaxed limits.
    pub fn run(&mut self, circuit: &Circuit) -> Result<RunStats, SimError> {
        self.prepare(circuit)?;
        let started = Instant::now();
        let result = self.process_ops(circuit.ops()).and_then(|()| self.flush());
        self.seal(result, started)
    }

    /// Runs `circuit` starting at op `start_op` of its *flattened*
    /// instruction stream, optionally writing periodic checkpoints.
    ///
    /// Repeats are expanded up front so the instruction pointer is stable
    /// across runs (this disables the DD-repeating block reuse; use
    /// [`run`](Self::run) when checkpointing is not needed). `start_op`
    /// is non-zero only for resumed runs — see
    /// [`resume_from`](Self::resume_from).
    ///
    /// # Errors
    ///
    /// Everything [`run`](Self::run) returns, plus
    /// [`SimError::Snapshot`] when a checkpoint cannot be written or
    /// `start_op` lies beyond the circuit, plus [`SimError::Suspended`]
    /// when a registered suspend token
    /// ([`set_suspend_token`](Self::set_suspend_token)) latches — after
    /// writing a final checkpoint if checkpointing is configured.
    pub fn run_from(
        &mut self,
        circuit: &Circuit,
        start_op: u64,
        checkpoint: Option<&CheckpointConfig>,
    ) -> Result<RunStats, SimError> {
        self.prepare(circuit)?;
        let flat = circuit.flattened();
        let total = flat.ops().len() as u64;
        if start_op > total {
            return Err(SimError::Snapshot(format!(
                "resume index {start_op} lies beyond the circuit ({total} ops)"
            )));
        }
        let started = Instant::now();
        self.ops_executed = start_op;
        let result = (|| {
            for (i, op) in flat.ops().iter().enumerate().skip(start_op as usize) {
                // Cooperative suspension: park at this op boundary, after
                // persisting a resume point when checkpointing is on. The
                // cursor (`ops_executed`) already names op `i` as next, so
                // the checkpoint resumes exactly here.
                if self.suspend.as_ref().is_some_and(|t| t.is_cancelled()) {
                    if let Some(cfg) = checkpoint {
                        self.checkpoint(&cfg.path)?;
                    }
                    return Err(SimError::Suspended);
                }
                // Prompt per-op governor check: deadline and cancellation
                // are observed here even if every DD op is cache-served.
                self.dd
                    .check_interrupts()
                    .map_err(|e| widen_dd_error(e, &self.dd))?;
                self.process_ops(std::slice::from_ref(op))?;
                self.ops_executed = i as u64 + 1;
                if let Some(cfg) = checkpoint {
                    let done = self.ops_executed - start_op;
                    if cfg.every_ops > 0
                        && done.is_multiple_of(cfg.every_ops)
                        && self.ops_executed < total
                    {
                        self.checkpoint(&cfg.path)?;
                    }
                }
            }
            self.flush()
        })();
        self.seal(result, started)
    }

    /// Flushes pending work and writes a resumable snapshot to `path`
    /// (atomically: temp file + rename).
    ///
    /// Checkpointing is a barrier: any accumulated gate product is applied
    /// first, so the snapshot captures a definite state between ops. The
    /// simulator then reloads itself from the snapshot it just wrote, so
    /// its own continuation starts from exactly the manager state a future
    /// [`resume_from`](Self::resume_from) will rebuild — compacted unique
    /// tables, replayed value table, cold caches. This is what makes an
    /// interrupted-and-resumed run *bitwise* identical to the
    /// uninterrupted one: without the reload, the writer's warm caches can
    /// intern round-off representatives in a different order than a cold
    /// resumer and drift amplitudes by a few ulps.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] on I/O failure; governor errors if the flush
    /// itself trips a limit.
    pub fn checkpoint(&mut self, path: &Path) -> Result<(), SimError> {
        self.flush()?;
        let snap = Snapshot::capture(
            &self.dd,
            self.state,
            self.n,
            self.ops_executed,
            self.active_circuit_hash,
            self.rng.state(),
            self.classical.clone(),
        )?;
        snap.save(path)?;
        // Reload in place (see above). The governor's deadline and cancel
        // token live on the manager and must carry over unchanged, as must
        // the pool handle (the restored manager defaults to `Seq`).
        let deadline = self.dd.deadline();
        let cancel = self.dd.cancel_token();
        let par = self.dd.par().clone();
        let (dd, state) = snap.restore(self.options.dd_config)?;
        self.dd = dd;
        self.state = state;
        self.dd.set_deadline(deadline);
        self.dd.set_cancel_token(cancel);
        self.dd.set_par(par);
        self.cached_state_nodes = None;
        self.sift_baseline = self.dd.vec_node_count(self.state).max(1);
        self.stats.checkpoints_written += 1;
        Ok(())
    }

    /// Rebuilds a simulator from a snapshot written by
    /// [`checkpoint`](Self::checkpoint), positioned to continue `circuit`.
    ///
    /// Returns the simulator and the op index to pass to
    /// [`run_from`](Self::run_from). The restored run is bit-identical to
    /// an uninterrupted one (modulo the flush barrier the checkpoint
    /// inserted): amplitudes, classical bits, and the measurement RNG
    /// stream all round-trip exactly. The snapshot's tolerance overrides
    /// `options.dd_config.tolerance`; budgets and strategy come from
    /// `options`.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] if the file is unreadable, corrupt, of an
    /// unsupported version, or was taken from a different circuit;
    /// [`SimError::WidthMismatch`] if the snapshot's width differs from
    /// the circuit's.
    pub fn resume_from(
        path: &Path,
        circuit: &Circuit,
        options: SimOptions,
    ) -> Result<(Simulator, u64), SimError> {
        let snap = Snapshot::load(path)?;
        if snap.qubits != circuit.qubits() {
            return Err(SimError::WidthMismatch {
                expected_qubits: snap.qubits,
                found_qubits: circuit.qubits(),
            });
        }
        let hash = circuit_fingerprint(circuit);
        if snap.circuit_hash != hash {
            return Err(SimError::Snapshot(format!(
                "snapshot was taken from a different circuit \
                 (hash {:#018x}, offered {hash:#018x})",
                snap.circuit_hash
            )));
        }
        let (mut dd, state) = snap.restore(options.dd_config)?;
        if let Some(pool) = build_pool(options.threads) {
            dd.set_par(Par::Threaded(pool));
        }
        let sift_baseline = dd.vec_node_count(state).max(1);
        let sim = Simulator {
            dd,
            n: snap.qubits,
            state,
            classical: snap.classical_bits.clone(),
            rng: StdRng::from_state(snap.rng_state),
            options,
            pending: None,
            pending_gates: 0,
            pending_single: None,
            pending_ops: Vec::new(),
            cached_state_nodes: None,
            sift_baseline,
            reorder_holds: 0,
            degraded: false,
            ops_executed: snap.next_op,
            active_circuit_hash: snap.circuit_hash,
            stats: RunStats::default(),
            suspend: None,
        };
        Ok((sim, snap.next_op))
    }

    // ------------------------------------------------------------------
    // Run lifecycle
    // ------------------------------------------------------------------

    fn prepare(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        if circuit.qubits() != self.n {
            return Err(SimError::WidthMismatch {
                expected_qubits: self.n,
                found_qubits: circuit.qubits(),
            });
        }
        if self.classical.len() < circuit.cbits() {
            self.classical.resize(circuit.cbits(), false);
        }
        self.active_circuit_hash = circuit_fingerprint(circuit);
        self.degraded = false;
        self.stats = RunStats::default();
        // Always (re)arm: a stale deadline from a previous run must not
        // leak into this one.
        self.dd
            .set_deadline(self.options.deadline.map(|d| Instant::now() + d));
        Ok(())
    }

    /// Closes the stats window and, on error, releases pending work so the
    /// manager stays consistent and garbage-collectable.
    fn seal(
        &mut self,
        result: Result<(), SimError>,
        started: Instant,
    ) -> Result<RunStats, SimError> {
        if result.is_err() {
            self.abandon_pending();
        } else if self.options.reorder == ReorderMode::Sifting
            && self.stats.reorders == 0
            && self.can_sift()
        {
            // Every successful sifting-mode run reorders at least once, so
            // the policy's effect (and any fault injected into the swap) is
            // observable even on runs that never tripped the growth
            // trigger.
            self.sift_now(false);
        }
        self.stats.wall_time = started.elapsed();
        self.stats.final_state_nodes = self.dd.vec_node_count(self.state);
        if self.stats.peak_state_nodes < self.stats.final_state_nodes {
            self.stats.peak_state_nodes = self.stats.final_state_nodes;
        }
        self.stats.degraded = self.degraded;
        result.map(|()| self.stats.clone())
    }

    /// Drops the accumulated product and its replay script (error unwind).
    fn abandon_pending(&mut self) {
        if let Some(p) = self.pending.take() {
            self.dd.dec_ref_mat(p);
        }
        self.pending_gates = 0;
        self.pending_single = None;
        self.pending_ops.clear();
    }

    // ------------------------------------------------------------------
    // Dynamic variable reordering
    // ------------------------------------------------------------------

    /// State-size floor below which the growth trigger never fires —
    /// sifting a trivially small diagram cannot pay for itself.
    const SIFT_FLOOR_NODES: usize = 32;

    /// Whether the state may be reordered right now. A pending gate
    /// product (or a cached repeating block — released before its
    /// sequential fallback) is a level-space diagram built under the
    /// *current* order; reordering underneath it would silently retarget
    /// its gates, so sifting waits for the product to be applied.
    fn can_sift(&self) -> bool {
        self.n >= 2 && self.pending.is_none() && self.reorder_holds == 0
    }

    /// One sifting pass over the state (the simulator's pin transfers to
    /// the sifted edge). Runs outside the governed recursion: the pass is
    /// node-bounded by construction (never grows the state) and must stay
    /// available exactly when budgets are exhausted.
    fn sift_now(&mut self, ladder: bool) {
        debug_assert!(self.can_sift());
        let budget = 4 * (self.n as usize) * (self.n as usize);
        // `sift_state` moves the pin it is handed onto the sifted edge; hand
        // it a second one so `replace_state` makes the simulator's swap (and
        // collects the displaced old-order nodes).
        self.dd.inc_ref_vec(self.state);
        let (next, rs) = self.dd.sift_state(self.state, budget);
        self.dd.dec_ref_vec(next);
        self.replace_state(next);
        self.sift_baseline = rs.nodes_after.max(1);
        if ladder {
            self.stats.ladder_reorders += 1;
        } else {
            self.stats.reorders += 1;
        }
    }

    /// Growth trigger for the explicit [`ReorderMode::Sifting`] policy:
    /// sift once the state has doubled since the last sift (or past the
    /// floor).
    fn maybe_sift_for_growth(&mut self) {
        if self.options.reorder != ReorderMode::Sifting || !self.can_sift() {
            return;
        }
        let nodes = self.dd.vec_node_count(self.state);
        if nodes > 2 * self.sift_baseline.max(Self::SIFT_FLOOR_NODES) {
            self.sift_now(false);
        }
    }

    // ------------------------------------------------------------------
    // Degradation ladder
    // ------------------------------------------------------------------

    /// Runs `op` under ladder rungs 1–2: on a budget error, emergency-GC
    /// and retry; still over, flush the compute caches (the following GC
    /// rebuild also shrinks the unique tables), and retry once more.
    ///
    /// Retrying is sound because DD operations are deterministic and every
    /// compute-table entry written by an aborted attempt is a complete,
    /// valid result. The caller must keep `op`'s DD operands ref-pinned —
    /// the emergency collections would otherwise reclaim them.
    ///
    /// Deadline and cancellation errors are not resource pressure and pass
    /// straight through.
    fn recover<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, DdError>,
    ) -> Result<T, SimError> {
        match op(self) {
            Ok(v) => return Ok(v),
            Err(e @ (DdError::DeadlineExceeded | DdError::Cancelled)) => {
                return Err(widen_dd_error(e, &self.dd))
            }
            Err(DdError::BudgetExceeded) => {}
        }
        self.stats.ladder_gc_rescues += 1;
        self.dd.collect_garbage();
        match op(self) {
            Ok(v) => return Ok(v),
            Err(e @ (DdError::DeadlineExceeded | DdError::Cancelled)) => {
                return Err(widen_dd_error(e, &self.dd))
            }
            Err(DdError::BudgetExceeded) => {}
        }
        self.stats.ladder_cache_flushes += 1;
        self.dd.clear_caches();
        self.dd.collect_garbage();
        match op(self) {
            Ok(v) => Ok(v),
            Err(e) => Err(widen_dd_error(e, &self.dd)),
        }
    }

    /// Ladder rung 3: abandon the accumulated product and replay its gates
    /// one at a time through the (cheap) specialized kernels; the rest of
    /// the run stays sequential.
    fn degrade_and_replay(&mut self) -> Result<(), SimError> {
        self.stats.ladder_strategy_downgrades += 1;
        self.degraded = true;
        let script = std::mem::take(&mut self.pending_ops);
        self.abandon_pending();
        for g in &script {
            self.apply_gate_now(g)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Operation dispatch
    // ------------------------------------------------------------------

    fn process_ops(&mut self, ops: &[Operation]) -> Result<(), SimError> {
        for op in ops {
            match op {
                Operation::Gate(g) => self.feed_gate(g)?,
                Operation::Swap { a, b, controls } => {
                    for g in lower_swap(*a, *b, controls) {
                        self.feed_gate(&g)?;
                    }
                }
                Operation::Barrier => self.flush()?,
                Operation::Measure { qubit, cbit } => {
                    self.flush()?;
                    let outcome = self.measure(*qubit);
                    self.classical[*cbit] = outcome;
                }
                Operation::Reset { qubit } => {
                    self.flush()?;
                    let outcome = self.measure(*qubit);
                    if outcome {
                        let g = GateOp::new(ddsim_circuit::StandardGate::X, *qubit);
                        self.apply_gate_now(&g)?;
                    }
                }
                Operation::Classical { gate, cbit, value } => {
                    // The condition is already known classically, so the
                    // gate either joins the stream or vanishes.
                    if self.classical[*cbit] == *value {
                        self.feed_gate(gate)?;
                    }
                }
                Operation::Repeat { body, times } => self.process_repeat(body, *times)?,
            }
        }
        Ok(())
    }

    fn process_repeat(&mut self, body: &[Operation], times: u32) -> Result<(), SimError> {
        if self.effective_strategy().reuses_blocks() {
            if let Some(block) = self.combine_unitary_block(body)? {
                // Reordering is blocked while the block may be re-applied —
                // a sift underneath it would silently retarget its gates.
                self.reorder_holds += 1;
                let r = self.run_repeating_block(block, body, times);
                self.reorder_holds -= 1;
                return r;
            }
        }
        // Fallback: expand the block.
        for _ in 0..times {
            self.process_ops(body)?;
        }
        Ok(())
    }

    /// DD-repeating core: one combined matrix, re-applied for every
    /// iteration with zero further matrix-matrix work. The block arrives
    /// holding one reference, released before return on every path.
    fn run_repeating_block(
        &mut self,
        block: MatEdge,
        body: &[Operation],
        times: u32,
    ) -> Result<(), SimError> {
        if let Err(e) = self.flush() {
            self.dd.dec_ref_mat(block);
            return Err(e);
        }
        let block_gates: u64 = body.iter().map(|op| op.elementary_count()).sum();
        for done in 0..times {
            self.stats.elementary_gates += block_gates;
            match self.apply_now(block, block_gates) {
                Ok(()) => {}
                Err(SimError::BudgetExceeded { .. }) => {
                    // Rung 3 for the repeating path: drop the block,
                    // finish this and the remaining iterations gate
                    // by gate (they re-count their own gates).
                    self.stats.elementary_gates -= block_gates;
                    self.stats.ladder_strategy_downgrades += 1;
                    self.degraded = true;
                    self.dd.dec_ref_mat(block);
                    for _ in done..times {
                        self.process_ops(body)?;
                    }
                    return Ok(());
                }
                Err(e) => {
                    self.dd.dec_ref_mat(block);
                    return Err(e);
                }
            }
        }
        self.dd.dec_ref_mat(block);
        Ok(())
    }

    /// Multiplies all gates of a purely unitary block into one matrix DD.
    /// Returns `None` if the block contains non-unitary operations, or if
    /// building the product exhausted ladder rungs 1–2 (the caller then
    /// expands the block sequentially — rung 3 for this path); on success
    /// the returned edge holds one reference the caller must release with
    /// `dec_ref_mat`.
    fn combine_unitary_block(&mut self, ops: &[Operation]) -> Result<Option<MatEdge>, SimError> {
        let (product, outcome) = self.counted(|sim| {
            let mut product = sim.dd.mat_identity(sim.n);
            sim.dd.inc_ref_mat(product);
            let outcome = sim.fold_block(ops, &mut product);
            (product, outcome)
        });
        match outcome {
            Ok(true) => {
                let nodes = self.dd.mat_node_count(product);
                self.note_product(nodes);
                Ok(Some(product))
            }
            // Not unitary, or the product itself does not fit: the caller
            // expands the block.
            Ok(false) | Err(SimError::BudgetExceeded { .. }) => {
                self.dd.dec_ref_mat(product);
                Ok(None)
            }
            Err(e) => {
                self.dd.dec_ref_mat(product);
                Err(e)
            }
        }
    }

    /// Folds `ops` into `product`; `false` when an operation is not unitary.
    fn fold_block(&mut self, ops: &[Operation], product: &mut MatEdge) -> Result<bool, SimError> {
        for op in ops {
            let gates = match op {
                Operation::Gate(g) => vec![g.clone()],
                Operation::Swap { a, b, controls } => lower_swap(*a, *b, controls),
                Operation::Barrier => Vec::new(),
                Operation::Repeat { body, times } => {
                    let Some(inner) = self.combine_unitary_block(body)? else {
                        return Ok(false);
                    };
                    let folded = (0..*times).try_for_each(|_| self.fold(inner, product));
                    self.dd.dec_ref_mat(inner);
                    folded?;
                    continue;
                }
                Operation::Measure { .. }
                | Operation::Reset { .. }
                | Operation::Classical { .. } => return Ok(false),
            };
            for g in &gates {
                let m = self.gate_matrix(g);
                self.fold(m, product)?;
            }
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Combining core
    // ------------------------------------------------------------------

    /// Runs `f` and folds the DD counters it moved into the run's stats.
    fn counted<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let before = self.dd.stats();
        let out = f(self);
        let after = self.dd.stats();
        self.stats.absorb_dd_delta(before, after);
        out
    }

    fn gate_matrix(&mut self, g: &GateOp) -> MatEdge {
        // Gate construction may perform one small matrix addition; its
        // recursions are bookkeeping, not simulation cost, but the counters
        // must stay consistent.
        self.counted(|sim| {
            sim.dd
                .mat_controlled(sim.n, &g.controls, g.target, g.gate.matrix())
        })
    }

    /// `*product ← m · *product` under ladder rungs 1–2, moving the
    /// product's reference to the result; on error `*product` keeps it.
    /// `m` is pinned across the ladder's emergency collections.
    fn fold(&mut self, m: MatEdge, product: &mut MatEdge) -> Result<(), SimError> {
        let prev = *product;
        self.dd.inc_ref_mat(m);
        let next = self.recover(|sim| sim.dd.mat_mat_mul(m, prev));
        self.dd.dec_ref_mat(m);
        let next = next?;
        self.dd.inc_ref_mat(next);
        self.dd.dec_ref_mat(prev);
        *product = next;
        Ok(())
    }

    /// Records the node count of a product the engine measured — by the
    /// flush rule, at a multi-gate flush, for a repeating block, or for the
    /// trace. The only writer of `peak_matrix_nodes`.
    fn note_product(&mut self, nodes: usize) {
        self.stats.peak_matrix_nodes = self.stats.peak_matrix_nodes.max(nodes);
    }

    /// Whether gate application may bypass matrix construction and go
    /// through the specialized apply kernels. Tracing needs the gate
    /// matrix DD for its per-step node counts, so it forces the generic
    /// path.
    fn use_specialized(&self) -> bool {
        self.options.dd_config.identity_skip && !self.options.collect_trace
    }

    /// The configured strategy, unless ladder rung 3 downgraded the run.
    fn effective_strategy(&self) -> Strategy {
        if self.degraded {
            Strategy::Sequential
        } else {
            self.options.strategy
        }
    }

    /// Feeds one elementary gate into the strategy: apply it now, or fold
    /// it into the pending product and ask the flush rule whether to apply
    /// the product.
    fn feed_gate(&mut self, g: &GateOp) -> Result<(), SimError> {
        self.stats.elementary_gates += 1;
        let strategy = self.effective_strategy();
        if strategy.gate_at_a_time() {
            return self.apply_gate_now(g);
        }
        self.accumulate_gate(g)?;
        // Rung 3 inside `accumulate_gate` replays and drops the group.
        let Some(product) = self.pending else {
            return Ok(());
        };
        let mut measured = None;
        let (dd, state, state_nodes) = (&self.dd, self.state, &mut self.cached_state_nodes);
        let flush = strategy.flush_now(
            self.pending_gates,
            || *measured.insert(dd.mat_node_count(product)),
            || *state_nodes.get_or_insert_with(|| dd.vec_node_count(state)),
        );
        if let Some(nodes) = measured {
            self.note_product(nodes);
        }
        if flush {
            self.flush()?;
        }
        Ok(())
    }

    /// Builds the gate's matrix DD and folds it into the pending product,
    /// remembering the gate itself while the group stays at one gate. On
    /// budget exhaustion (rungs 1–2 spent) takes rung 3: the recorded
    /// group — including this gate — replays sequentially.
    fn accumulate_gate(&mut self, g: &GateOp) -> Result<(), SimError> {
        self.pending_single = self.pending.is_none().then(|| g.clone());
        self.pending_ops.push(g.clone());
        let m = self.gate_matrix(g);
        let folded = match self.pending {
            None => {
                self.dd.inc_ref_mat(m);
                Ok(m)
            }
            Some(mut p) => self.counted(|sim| sim.fold(m, &mut p)).map(|()| p),
        };
        match folded {
            Ok(p) => {
                self.pending = Some(p);
                self.pending_gates += 1;
                Ok(())
            }
            Err(SimError::BudgetExceeded { .. }) => self.degrade_and_replay(),
            Err(e) => Err(e),
        }
    }

    /// Applies any accumulated product to the state; on budget exhaustion
    /// takes ladder rung 3 (sequential replay of the recorded gates).
    fn flush(&mut self) -> Result<(), SimError> {
        let single = self.pending_single.take();
        let Some(p) = self.pending.take() else {
            self.pending_ops.clear();
            return Ok(());
        };
        let gates = std::mem::take(&mut self.pending_gates);
        if gates == 1 && self.use_specialized() {
            if let Some(g) = single {
                // A one-gate group gains nothing from the matrix DD:
                // drop it and descend the state directly.
                self.dd.dec_ref_mat(p);
                self.pending_ops.clear();
                return self.apply_gate_now(&g);
            }
        }
        if gates > 1 {
            let nodes = self.dd.mat_node_count(p);
            self.note_product(nodes);
        }
        match self.apply_now(p, gates) {
            Ok(()) => {
                self.dd.dec_ref_mat(p);
                self.pending_ops.clear();
                self.maybe_sift_for_growth();
                Ok(())
            }
            Err(SimError::BudgetExceeded { .. }) => {
                // Rung 3: the product · state multiplication does not fit;
                // replay the recorded gates one at a time instead.
                self.dd.dec_ref_mat(p);
                self.degrade_and_replay()
            }
            Err(e) => {
                self.dd.dec_ref_mat(p);
                self.pending_ops.clear();
                Err(e)
            }
        }
    }

    /// Applies one elementary gate to the state, preferring the specialized
    /// kernels (which never build a matrix DD and never touch levels above
    /// the gate) when [`Self::use_specialized`] allows it. Runs under
    /// ladder rungs 1–2.
    fn apply_gate_now(&mut self, g: &GateOp) -> Result<(), SimError> {
        if !self.use_specialized() {
            let m = self.gate_matrix(g);
            self.dd.inc_ref_mat(m);
            let r = self.apply_now(m, 1);
            self.dd.dec_ref_mat(m);
            if r.is_ok() {
                self.maybe_sift_for_growth();
            }
            return r;
        }
        let u = g.gate.matrix();
        // `state` is ref-pinned by the simulator, so the ladder may collect
        // between retries. The closure re-reads `sim.state` and re-derives
        // the gate's levels from the live variable order on every attempt,
        // which is what makes the sift rung below sound.
        let apply = |sim: &mut Self| {
            if g.controls.is_empty() {
                sim.dd.apply_single_qubit(g.target, u, sim.state)
            } else {
                sim.dd.apply_controlled(&g.controls, g.target, u, sim.state)
            }
        };
        let next = match self.counted(|sim| sim.recover(apply)) {
            Err(SimError::BudgetExceeded { .. }) if self.can_sift() => {
                // Ladder sift rung: rungs 1–2 could not fit the
                // application, so shrink the *state* by reordering and give
                // the full ladder one more try before the caller falls to
                // the strategy downgrade. Sequential replay (rung 3)
                // reaches this rung per replayed gate, so combining runs
                // benefit too.
                self.sift_now(true);
                self.counted(|sim| sim.recover(apply))
            }
            other => other,
        };
        self.replace_state(next?);
        self.maybe_sift_for_growth();
        Ok(())
    }

    /// One matrix-vector application, with bookkeeping. The caller keeps
    /// `m` ref-pinned (the ladder may collect between retries). Runs under
    /// ladder rungs 1–2; rung 3 is the caller's.
    fn apply_now(&mut self, m: MatEdge, combined_gates: u64) -> Result<(), SimError> {
        let next = self.counted(|sim| sim.recover(|sim| sim.dd.mat_vec_mul(m, sim.state)))?;
        self.replace_state(next);
        if self.options.collect_trace {
            let matrix_nodes = self.dd.mat_node_count(m);
            let state_nodes = self.dd.vec_node_count(self.state);
            if state_nodes > self.stats.peak_state_nodes {
                self.stats.peak_state_nodes = state_nodes;
            }
            self.note_product(matrix_nodes);
            self.stats.trace.push(StepTrace {
                gate_index: self.stats.elementary_gates,
                combined_gates,
                matrix_nodes,
                state_nodes,
            });
        }
        Ok(())
    }

    fn measure(&mut self, qubit: u32) -> bool {
        let draw = self.rng.gen::<f64>();
        let (outcome, collapsed) = self.dd.measure_qubit(self.state, qubit, draw);
        self.replace_state(collapsed);
        outcome
    }

    /// Moves the simulator's pin from the state to `next`, marks the flush
    /// rule's state size stale, and gives the collector its chance.
    fn replace_state(&mut self, next: VecEdge) {
        self.dd.inc_ref_vec(next);
        self.dd.dec_ref_vec(self.state);
        self.state = next;
        self.cached_state_nodes = None;
        self.collect_if_needed();
    }

    fn collect_if_needed(&mut self) {
        // `pending` and `state` hold references, so collection is safe here.
        // The collection gets its own stats window: it runs outside the
        // multiply windows, and without this its gc_runs / unique-table
        // rebuild counts would never reach RunStats.
        let before = self.dd.stats();
        if self.dd.maybe_collect() {
            let after = self.dd.stats();
            self.stats.absorb_dd_delta(before, after);
        }
    }
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("qubits", &self.n)
            .field("strategy", &self.options.strategy)
            .field("state_nodes", &self.dd.vec_node_count(self.state))
            .field("classical", &self.classical)
            .finish()
    }
}

/// Convenience one-shot simulation.
///
/// # Errors
///
/// See [`Simulator::run`].
///
/// # Examples
///
/// ```
/// use ddsim_circuit::Circuit;
/// use ddsim_core::{simulate, SimOptions, Strategy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ghz = Circuit::new(3);
/// ghz.h(0).cx(0, 1).cx(1, 2);
/// let (sim, stats) = simulate(&ghz, SimOptions::with_strategy(Strategy::KOperations { k: 3 }))?;
/// assert!((sim.probability_of(0b000) - 0.5).abs() < 1e-10);
/// assert!(stats.mat_vec_mults < 3, "combining must reduce MxV count");
/// # Ok(())
/// # }
/// ```
pub fn simulate(circuit: &Circuit, options: SimOptions) -> Result<(Simulator, RunStats), SimError> {
    let mut sim = Simulator::with_options(circuit.qubits(), options);
    let stats = sim.run(circuit)?;
    Ok((sim, stats))
}

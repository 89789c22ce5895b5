//! The traced replay: an arm's gate stream driven through `ddsim-dd`'s
//! public API with the engine's flush rule, timing every call from outside.
//!
//! The replay mirrors `ddsim_core::Simulator` step for step (gate-DD
//! construction, MxM folding, MxV or specialized application, measurement,
//! garbage collection), so its call counts must equal the engine's own
//! counters; the benchmark checks that before trusting the spans. The
//! engine's degradation ladder and reordering are not mirrored: no resource
//! budget is configured, so neither ever runs.
//!
//! The replay's time budget is the manager's own deadline, so even a single
//! runaway multiplication unwinds on time and the spans up to the cut are
//! still reported. A deadline selects the package's governed kernel
//! instantiation; its cost is part of the tracing overhead the benchmark
//! reports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ddsim_circuit::{lower_swap, Circuit, GateOp, Operation, StandardGate};
use ddsim_complex::Complex;
use ddsim_core::Strategy;
use ddsim_dd::{DdError, DdManager, DdStats, MatEdge, Par, ThreadPool, VecEdge};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A layer boundary the replay times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Gate-DD construction (`mat_controlled`, `mat_identity`).
    Build,
    /// Matrix-matrix multiplication (`mat_mat_mul`).
    Mxm,
    /// Matrix-vector multiplication (`mat_vec_mul`).
    Mxv,
    /// Specialized application (`apply_single_qubit` / `apply_controlled`).
    Apply,
    /// Measurement and collapse (`measure_qubit`).
    Measure,
    /// Garbage collection (`maybe_collect`).
    Gc,
    /// Node counting (`mat_node_count`, `vec_node_count`): the max-size
    /// and adaptive flush rules, plus the replay's own peak tracking.
    Count,
    /// Tearing the manager down.
    Drop,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Build,
        Layer::Mxm,
        Layer::Mxv,
        Layer::Apply,
        Layer::Measure,
        Layer::Gc,
        Layer::Count,
        Layer::Drop,
    ];

    /// Metric-name stem, `<crate>.<layer>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Build => "dd.build",
            Layer::Mxm => "dd.mxm",
            Layer::Mxv => "dd.mxv",
            Layer::Apply => "dd.apply",
            Layer::Measure => "dd.measure",
            Layer::Gc => "dd.gc",
            Layer::Count => "dd.count",
            Layer::Drop => "core.drop",
        }
    }
}

/// One timed call: which layer, when (from the replay's start), how long,
/// and which elementary gate of the stream caused it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Start, from the beginning of the replay.
    pub start: Duration,
    /// Duration of the call.
    pub duration: Duration,
    /// Elementary gates fed when the call was made (0 before the first).
    pub cause: u64,
}

/// Per-layer totals folded from the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    /// Summed duration, seconds.
    pub seconds: f64,
    /// Number of calls.
    pub calls: u64,
}

/// Everything a replay measured.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Whether the replay stopped at its time budget.
    pub censored: bool,
    /// Wall seconds of the whole replay, teardown included.
    pub seconds: f64,
    /// Every span, in call order.
    pub spans: Vec<Span>,
    /// The manager's counters at the end of the replay.
    pub stats: DdStats,
    /// `DdManager::tracked_bytes` at the end of the replay.
    pub tracked_bytes: usize,
    /// `DdManager::distinct_weights` at the end of the replay.
    pub distinct_weights: usize,
    /// Largest accumulated product, measured at every fold and flush.
    pub peak_matrix_nodes: usize,
    /// Node count of the final state.
    pub final_state_nodes: usize,
    /// Final amplitudes, when asked for and the replay completed.
    pub amplitudes: Option<Vec<Complex>>,
    /// The classical register as an integer.
    pub classical: u64,
}

impl ReplayReport {
    /// Sums the spans of one layer.
    pub fn total(&self, layer: Layer) -> LayerTotal {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold(LayerTotal::default(), |acc, s| LayerTotal {
                seconds: acc.seconds + s.duration.as_secs_f64(),
                calls: acc.calls + 1,
            })
    }
}

/// Replays `circuit` under `strategy` with `threads` kernel lanes,
/// stopping once `budget` has elapsed.
pub fn replay(
    circuit: &Circuit,
    strategy: Strategy,
    seed: u64,
    threads: usize,
    budget: Duration,
    keep_amplitudes: bool,
) -> ReplayReport {
    let mut r = Replay::new(circuit, strategy, seed, threads, budget);
    let censored = r.process(circuit.ops()).and_then(|()| r.flush()).is_err();
    // Reading the final state below is the benchmark's work, not the
    // replay's: it is left out of `seconds`.
    let body = r.started.elapsed();
    let final_state_nodes = r.dd.vec_node_count(r.state);
    let stats = r.dd.stats();
    let tracked_bytes = r.dd.tracked_bytes();
    let distinct_weights = r.dd.distinct_weights();
    let amplitudes = (keep_amplitudes && !censored).then(|| r.dd.vec_to_amplitudes(r.state));
    let classical = r
        .classical
        .iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(i, _)| 1u64 << i)
        .sum();
    let Replay {
        dd,
        mut spans,
        started,
        gates,
        peak_matrix_nodes,
        ..
    } = r;
    let dropping = Instant::now();
    drop(dd);
    let duration = dropping.elapsed();
    spans.push(Span {
        layer: Layer::Drop,
        start: dropping - started,
        duration,
        cause: gates,
    });
    ReplayReport {
        censored,
        seconds: (body + duration).as_secs_f64(),
        spans,
        stats,
        tracked_bytes,
        distinct_weights,
        peak_matrix_nodes,
        final_state_nodes,
        amplitudes,
        classical,
    }
}

/// The replay hit its deadline.
struct OutOfBudget;

impl From<DdError> for OutOfBudget {
    fn from(_: DdError) -> OutOfBudget {
        // No resource budget is configured, so the deadline is the only
        // error a call can return.
        OutOfBudget
    }
}

type Step = Result<(), OutOfBudget>;

struct Replay {
    dd: DdManager,
    n: u32,
    strategy: Strategy,
    state: VecEdge,
    classical: Vec<bool>,
    rng: StdRng,
    pending: Option<MatEdge>,
    pending_gates: u64,
    pending_single: Option<GateOp>,
    cached_state_nodes: usize,
    peak_matrix_nodes: usize,
    gates: u64,
    spans: Vec<Span>,
    started: Instant,
}

impl Replay {
    fn new(
        circuit: &Circuit,
        strategy: Strategy,
        seed: u64,
        threads: usize,
        budget: Duration,
    ) -> Replay {
        let started = Instant::now();
        let mut dd = DdManager::new();
        if threads > 1 {
            dd.set_par(Par::Threaded(Arc::new(ThreadPool::new(threads))));
        }
        dd.set_deadline(Some(started + budget));
        let n = circuit.qubits();
        let state = dd.vec_zero_state(n);
        dd.inc_ref_vec(state);
        Replay {
            dd,
            n,
            strategy,
            state,
            classical: vec![false; circuit.cbits()],
            rng: StdRng::seed_from_u64(seed),
            pending: None,
            pending_gates: 0,
            pending_single: None,
            cached_state_nodes: 1,
            peak_matrix_nodes: 0,
            gates: 0,
            spans: Vec::new(),
            started,
        }
    }

    /// Times one call into a layer.
    fn span<T>(&mut self, layer: Layer, call: impl FnOnce(&mut DdManager) -> T) -> T {
        let start = Instant::now();
        let value = call(&mut self.dd);
        self.spans.push(Span {
            layer,
            start: start - self.started,
            duration: start.elapsed(),
            cause: self.gates,
        });
        value
    }

    fn process(&mut self, ops: &[Operation]) -> Step {
        for op in ops {
            // Cache-served calls may never reach the kernels' own deadline
            // check; look once per operation.
            self.dd.check_interrupts()?;
            match op {
                Operation::Gate(g) => self.feed(g)?,
                Operation::Swap { a, b, controls } => {
                    for g in lower_swap(*a, *b, controls) {
                        self.feed(&g)?;
                    }
                }
                Operation::Barrier => self.flush()?,
                Operation::Measure { qubit, cbit } => {
                    self.flush()?;
                    self.classical[*cbit] = self.measure(*qubit);
                }
                Operation::Reset { qubit } => {
                    self.flush()?;
                    if self.measure(*qubit) {
                        self.apply_gate(&GateOp::new(StandardGate::X, *qubit))?;
                    }
                }
                Operation::Classical { gate, cbit, value } => {
                    if self.classical[*cbit] == *value {
                        self.feed(gate)?;
                    }
                }
                Operation::Repeat { body, times } => self.repeat(body, *times)?,
            }
        }
        Ok(())
    }

    /// DD-repeating combines a unitary block once and re-applies it; every
    /// other strategy expands the block.
    fn repeat(&mut self, body: &[Operation], times: u32) -> Step {
        if matches!(self.strategy, Strategy::DdRepeating { .. }) {
            if let Some(block) = self.combine_block(body)? {
                let block_gates: u64 = body.iter().map(Operation::elementary_count).sum();
                let applied = self.flush().and_then(|()| {
                    (0..times).try_for_each(|_| {
                        self.gates += block_gates;
                        self.apply_matrix(block)
                    })
                });
                self.dd.dec_ref_mat(block);
                return applied;
            }
        }
        for _ in 0..times {
            self.process(body)?;
        }
        Ok(())
    }

    /// Folds a purely unitary block into one matrix (holding one
    /// reference), or `None` when the block is not unitary.
    fn combine_block(&mut self, ops: &[Operation]) -> Result<Option<MatEdge>, OutOfBudget> {
        let n = self.n;
        let mut product = self.span(Layer::Build, |dd| dd.mat_identity(n));
        self.dd.inc_ref_mat(product);
        let folded = self.fold_block(ops, &mut product);
        if !matches!(folded, Ok(true)) {
            self.dd.dec_ref_mat(product);
            return folded.map(|_| None);
        }
        let nodes = self.span(Layer::Count, |dd| dd.mat_node_count(product));
        self.peak_matrix_nodes = self.peak_matrix_nodes.max(nodes);
        Ok(Some(product))
    }

    /// Folds `ops` into `product`; `false` when an operation is not unitary.
    fn fold_block(
        &mut self,
        ops: &[Operation],
        product: &mut MatEdge,
    ) -> Result<bool, OutOfBudget> {
        for op in ops {
            let gates = match op {
                Operation::Gate(g) => vec![g.clone()],
                Operation::Swap { a, b, controls } => lower_swap(*a, *b, controls),
                Operation::Barrier => Vec::new(),
                Operation::Repeat { body, times } => {
                    let Some(inner) = self.combine_block(body)? else {
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

    /// `product ← m · product`, moving the product's reference.
    fn fold(&mut self, m: MatEdge, product: &mut MatEdge) -> Step {
        let prev = *product;
        self.dd.inc_ref_mat(m);
        let next = self.span(Layer::Mxm, |dd| dd.mat_mat_mul(m, prev));
        self.dd.dec_ref_mat(m);
        let next = next?;
        self.dd.inc_ref_mat(next);
        self.dd.dec_ref_mat(prev);
        *product = next;
        Ok(())
    }

    fn gate_matrix(&mut self, g: &GateOp) -> MatEdge {
        let n = self.n;
        self.span(Layer::Build, |dd| {
            dd.mat_controlled(n, &g.controls, g.target, g.gate.matrix())
        })
    }

    /// The engine's `feed_gate`: one elementary gate into the strategy.
    fn feed(&mut self, g: &GateOp) -> Step {
        self.gates += 1;
        let flush = match self.strategy {
            Strategy::Sequential => return self.apply_gate(g),
            Strategy::KOperations { k } | Strategy::DdRepeating { k } if k <= 1 => {
                return self.apply_gate(g)
            }
            Strategy::KOperations { k } | Strategy::DdRepeating { k } => {
                self.accumulate(g)?;
                self.pending_gates >= k as u64
            }
            Strategy::MaxSize { s_max } => {
                self.accumulate(g)?;
                self.pending_nodes() > s_max
            }
            Strategy::Adaptive { ratio_millis, cap } => {
                self.accumulate(g)?;
                let nodes = self.pending_nodes();
                let budget =
                    (self.cached_state_nodes as u64).saturating_mul(u64::from(ratio_millis)) / 1000;
                nodes as u64 > budget.max(4) || nodes > cap
            }
        };
        if flush {
            self.flush()?;
        }
        Ok(())
    }

    fn pending_nodes(&mut self) -> usize {
        let Some(p) = self.pending else { return 0 };
        let nodes = self.span(Layer::Count, |dd| dd.mat_node_count(p));
        self.peak_matrix_nodes = self.peak_matrix_nodes.max(nodes);
        nodes
    }

    fn accumulate(&mut self, g: &GateOp) -> Step {
        self.pending_single = self.pending.is_none().then(|| g.clone());
        let m = self.gate_matrix(g);
        if let Some(mut product) = self.pending {
            // `fold` moves the product's reference only when it succeeds.
            let folded = self.fold(m, &mut product);
            self.pending = Some(product);
            folded?;
        } else {
            self.dd.inc_ref_mat(m);
            self.pending = Some(m);
        }
        self.pending_gates += 1;
        Ok(())
    }

    /// The engine's `flush`: applies the pending product, routing a
    /// one-gate group through the specialized kernels.
    fn flush(&mut self) -> Step {
        let single = self.pending_single.take();
        let Some(p) = self.pending.take() else {
            return Ok(());
        };
        let gates = std::mem::take(&mut self.pending_gates);
        if let (1, Some(g)) = (gates, single) {
            self.dd.dec_ref_mat(p);
            return self.apply_gate(&g);
        }
        // The engine records this only under max-size; the replay measures
        // every arm's product.
        let nodes = self.span(Layer::Count, |dd| dd.mat_node_count(p));
        self.peak_matrix_nodes = self.peak_matrix_nodes.max(nodes);
        let applied = self.apply_matrix(p);
        self.dd.dec_ref_mat(p);
        applied
    }

    fn apply_matrix(&mut self, m: MatEdge) -> Step {
        let state = self.state;
        let next = self.span(Layer::Mxv, |dd| dd.mat_vec_mul(m, state))?;
        self.replace_state(next);
        Ok(())
    }

    fn apply_gate(&mut self, g: &GateOp) -> Step {
        let state = self.state;
        let u = g.gate.matrix();
        let next = self.span(Layer::Apply, |dd| {
            if g.controls.is_empty() {
                dd.apply_single_qubit(g.target, u, state)
            } else {
                dd.apply_controlled(&g.controls, g.target, u, state)
            }
        })?;
        self.replace_state(next);
        Ok(())
    }

    fn measure(&mut self, qubit: u32) -> bool {
        let draw = self.rng.gen::<f64>();
        let state = self.state;
        let (outcome, collapsed) =
            self.span(Layer::Measure, |dd| dd.measure_qubit(state, qubit, draw));
        self.replace_state(collapsed);
        outcome
    }

    /// Moves the state reference to `next`, keeps the adaptive rule's
    /// state size fresh, and gives the collector its chance.
    fn replace_state(&mut self, next: VecEdge) {
        self.dd.inc_ref_vec(next);
        self.dd.dec_ref_vec(self.state);
        self.state = next;
        if matches!(self.strategy, Strategy::Adaptive { .. }) {
            self.cached_state_nodes = self.span(Layer::Count, |dd| dd.vec_node_count(next));
        }
        self.span(Layer::Gc, DdManager::maybe_collect);
    }
}

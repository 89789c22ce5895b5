//! The paper's combining strategies ("arms") and their untraced runs
//! through the public engine entry points.

use std::time::Instant;

use ddsim_algorithms::grover::GroverInstance;
use ddsim_core::{
    run_grover_dd_construct, run_shor_dd_construct, simulate, RunStats, SimOptions, Strategy,
};
use ddsim_dd::DdManager;

use crate::clock::process_cpu_seconds;
use crate::workload::{dense_state, Reference, Workload, GROVER_QUBITS};

/// Gates per combined matrix for `kops`, `ddrepeating` and `threads2`.
pub const K: usize = 8;
/// Node bound of the `maxsize` arm.
pub const S_MAX: usize = 256;

/// One combining strategy of the paper, as benchmarked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// One MxV per gate (`Strategy::Sequential`).
    Sequential,
    /// k-operations, k = 8.
    Kops,
    /// max-size, s_max = 256.
    Maxsize,
    /// DD-repeating, k = 8 outside repeat blocks.
    Ddrepeating,
    /// `Strategy::adaptive()`.
    Adaptive,
    /// DD-construct: the result built directly, without the gate stream.
    Construct,
    /// k-operations, k = 8, on a two-lane pool.
    Threads2,
}

impl Arm {
    /// All arms in benchmark order.
    pub const ALL: [Arm; 7] = [
        Arm::Sequential,
        Arm::Kops,
        Arm::Maxsize,
        Arm::Ddrepeating,
        Arm::Adaptive,
        Arm::Construct,
        Arm::Threads2,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Arm::Sequential => "sequential",
            Arm::Kops => "kops",
            Arm::Maxsize => "maxsize",
            Arm::Ddrepeating => "ddrepeating",
            Arm::Adaptive => "adaptive",
            Arm::Construct => "construct",
            Arm::Threads2 => "threads2",
        }
    }

    /// Parses a metric-name prefix.
    pub fn parse(s: &str) -> Option<Arm> {
        Arm::ALL.into_iter().find(|a| a.name() == s)
    }

    /// The engine strategy, or `None` for DD-construct.
    pub fn strategy(self) -> Option<Strategy> {
        match self {
            Arm::Sequential => Some(Strategy::Sequential),
            Arm::Kops | Arm::Threads2 => Some(Strategy::KOperations { k: K }),
            Arm::Maxsize => Some(Strategy::MaxSize { s_max: S_MAX }),
            Arm::Ddrepeating => Some(Strategy::DdRepeating { k: K }),
            Arm::Adaptive => Some(Strategy::adaptive()),
            Arm::Construct => None,
        }
    }

    /// Engine worker threads.
    pub fn threads(self) -> u32 {
        if self == Arm::Threads2 {
            2
        } else {
            1
        }
    }

    /// Engine options for a gate-level arm.
    pub fn options(self, seed: u64) -> Option<SimOptions> {
        Some(SimOptions {
            strategy: self.strategy()?,
            seed,
            threads: self.threads(),
            ..SimOptions::default()
        })
    }
}

/// Outcome of one untraced arm run.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Seconds from the `simulate` call until the simulator was dropped
    /// (the correctness check in between is not counted).
    pub seconds: f64,
    /// Processor seconds of this process over the same span.
    pub cpu_seconds: f64,
    /// The correctness verdict.
    pub check: Result<(), String>,
    /// The engine's own counters.
    pub stats: RunStats,
    /// Final amplitudes, when asked for (gate-level arms only).
    pub amplitudes: Option<Vec<ddsim_complex::Complex>>,
}

/// Runs `arm` on the workload once, untraced.
///
/// # Panics
///
/// Panics if the engine rejects the workload's own circuit, which would be
/// a bug in the generator.
pub fn run_engine(workload: &Workload, arm: Arm, keep_amplitudes: bool) -> EngineRun {
    let Some(options) = arm.options(workload.seed) else {
        return run_construct(workload);
    };
    let (started, cpu_started) = (Instant::now(), process_cpu_seconds());
    let (sim, stats) =
        simulate(&workload.circuit, options).expect("generated circuits match their own width");
    let (sim_s, sim_cpu_s) = (
        started.elapsed().as_secs_f64(),
        process_cpu_seconds() - cpu_started,
    );
    let check = workload
        .reference
        .check_state(|i| sim.amplitude(i), sim.classical_value());
    let amplitudes = keep_amplitudes.then(|| sim.dd().vec_to_amplitudes(sim.state()));
    let (dropped, cpu_dropped) = (Instant::now(), process_cpu_seconds());
    drop(sim);
    EngineRun {
        seconds: sim_s + dropped.elapsed().as_secs_f64(),
        cpu_seconds: sim_cpu_s + process_cpu_seconds() - cpu_dropped,
        check,
        stats,
        amplitudes,
    }
}

/// DD-construct: Grover's iteration and Shor's modular multipliers built
/// directly as DDs; for supremacy, whose random gates offer no structure,
/// the state DD built directly from a dense array simulation.
fn run_construct(workload: &Workload) -> EngineRun {
    let (started, cpu_started) = (Instant::now(), process_cpu_seconds());
    let (check, stats, check_s, check_cpu_s) = match &workload.reference {
        Reference::Grover { instance, .. } => {
            let outcome =
                run_grover_dd_construct(GroverInstance::new(GROVER_QUBITS, instance.marked));
            let check = workload
                .reference
                .check_probability(outcome.probability_of_marked);
            (check, outcome.stats, 0.0, 0.0)
        }
        Reference::Shor { instance, .. } => {
            let outcome = run_shor_dd_construct(*instance, workload.seed);
            let check = workload.reference.check_phase(outcome.measured_phase);
            (check, outcome.stats, 0.0, 0.0)
        }
        Reference::Supremacy { .. } => {
            let dense = dense_state(&workload.circuit);
            let mut dd = DdManager::new();
            let state = dd.vec_from_amplitudes(dense.amplitudes());
            let (checking, cpu_checking) = (Instant::now(), process_cpu_seconds());
            let check = workload
                .reference
                .check_state(|i| dd.vec_amplitude(state, i), 0);
            let stats = RunStats {
                final_state_nodes: dd.vec_node_count(state),
                ..RunStats::default()
            };
            let check_s = checking.elapsed().as_secs_f64();
            let check_cpu_s = process_cpu_seconds() - cpu_checking;
            drop(dd);
            (check, stats, check_s, check_cpu_s)
        }
    };
    EngineRun {
        seconds: started.elapsed().as_secs_f64() - check_s,
        cpu_seconds: process_cpu_seconds() - cpu_started - check_cpu_s,
        check,
        stats,
        amplitudes: None,
    }
}

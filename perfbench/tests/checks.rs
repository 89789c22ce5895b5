//! The benchmark's own checks on small instances: the correctness checks
//! fire on a wrong state, and the traced replay agrees with the engine.

use std::time::Duration;

use ddsim_algorithms::grover::{grover_circuit, GroverInstance};
use ddsim_algorithms::shor::{shor_circuit, ShorInstance};
use ddsim_algorithms::supremacy::{supremacy_circuit, SupremacyInstance};
use ddsim_circuit::{Circuit, Operation};
use ddsim_core::{run_shor_dd_construct, simulate};
use perfbench::arms::{run_engine, Arm};
use perfbench::replay::{replay, Layer};
use perfbench::workload::{dense_state, grover_success_probability, Reference, Workload};

fn grover_workload(circuit: Circuit, instance: GroverInstance) -> Workload {
    Workload {
        seed: 0,
        circuit,
        reference: Reference::Grover {
            instance,
            min_probability: grover_success_probability(instance),
        },
    }
}

fn supremacy_workload(circuit: Circuit, reference_circuit: &Circuit) -> Workload {
    Workload {
        seed: 0,
        circuit,
        reference: Reference::Supremacy {
            amplitudes: dense_state(reference_circuit).amplitudes().to_vec(),
        },
    }
}

fn shor_workload(seed: u64) -> Workload {
    let instance = ShorInstance::new(15, 7);
    Workload {
        seed,
        circuit: shor_circuit(instance),
        reference: Reference::Shor {
            instance,
            phase: run_shor_dd_construct(instance, seed).measured_phase,
        },
    }
}

/// The circuit without its `index`-th top-level gate.
fn drop_gate(circuit: &Circuit, index: usize) -> Circuit {
    let mut out = Circuit::with_cbits(circuit.qubits(), circuit.cbits());
    let gates = circuit
        .ops()
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Operation::Gate(_)))
        .map(|(i, _)| i)
        .nth(index)
        .expect("circuit has that many gates");
    for (i, op) in circuit.ops().iter().enumerate() {
        if i != gates {
            out.push(op.clone());
        }
    }
    out
}

#[test]
fn grover_check_fires_on_a_dropped_gate() {
    let instance = GroverInstance::new(8, 77);
    let circuit = grover_circuit(instance);
    let good = grover_workload(circuit.clone(), instance);
    let bad = grover_workload(drop_gate(&circuit, 0), instance);
    for arm in [Arm::Sequential, Arm::Kops, Arm::Ddrepeating] {
        assert_eq!(run_engine(&good, arm, false).check, Ok(()), "{arm:?}");
        let err = run_engine(&bad, arm, false)
            .check
            .expect_err("dropped gate must be caught");
        assert!(err.contains("marked probability"), "{err}");
    }
}

#[test]
fn supremacy_check_fires_on_a_dropped_gate() {
    let circuit = supremacy_circuit(SupremacyInstance::new(3, 3, 8, 5));
    let good = supremacy_workload(circuit.clone(), &circuit);
    // Gate 9 follows the initial Hadamard layer.
    let bad = supremacy_workload(drop_gate(&circuit, 9), &circuit);
    for arm in [Arm::Sequential, Arm::Maxsize, Arm::Construct] {
        assert_eq!(run_engine(&good, arm, false).check, Ok(()), "{arm:?}");
        let err = run_engine(&bad, arm, false)
            .check
            .expect_err("dropped gate must be caught");
        assert!(err.contains("amplitude"), "{err}");
    }
}

#[test]
fn shor_check_compares_against_dd_construct() {
    let good = shor_workload(3);
    assert_eq!(run_engine(&good, Arm::Kops, false).check, Ok(()));
    assert_eq!(run_engine(&good, Arm::Construct, false).check, Ok(()));
    let Reference::Shor { phase, .. } = good.reference else {
        unreachable!()
    };
    assert!(good.reference.check_phase(phase ^ 1).is_err());
}

/// Replays every gate-level arm and holds it to the engine's counters and
/// final state.
fn assert_replay_matches_engine(circuit: &Circuit, seed: u64) {
    for arm in Arm::ALL {
        let Some(options) = arm.options(seed) else {
            continue;
        };
        let report = replay(
            circuit,
            options.strategy,
            seed,
            arm.threads() as usize,
            Duration::from_secs(600),
            true,
        );
        assert!(!report.censored);
        let (sim, stats) = simulate(circuit, options).expect("width matches");
        let apply = report.total(Layer::Apply).calls;
        if arm.threads() == 1 {
            assert_eq!(
                report.total(Layer::Mxv).calls + apply,
                stats.mat_vec_mults,
                "{arm:?} MxV"
            );
            assert_eq!(
                report.total(Layer::Mxm).calls,
                stats.mat_mat_mults,
                "{arm:?} MxM"
            );
            assert_eq!(apply, stats.specialized_applies, "{arm:?} specialized");
            assert_eq!(
                report.stats.mult_recursions, stats.mult_recursions,
                "{arm:?}"
            );
        }
        assert_eq!(report.classical, sim.classical_value(), "{arm:?} register");
        let amplitudes = report.amplitudes.expect("kept");
        for (i, a) in amplitudes.iter().enumerate() {
            let distance = (*a - sim.amplitude(i as u64)).norm_sqr().sqrt();
            assert!(distance <= 1e-9, "{arm:?} amplitude {i} off by {distance}");
        }
    }
}

#[test]
fn replay_counts_equal_engine_counts_on_grover() {
    assert_replay_matches_engine(&grover_circuit(GroverInstance::new(7, 21)), 0);
}

#[test]
fn replay_counts_equal_engine_counts_on_shor() {
    let workload = shor_workload(1);
    assert_replay_matches_engine(&workload.circuit, workload.seed);
}

#[test]
fn replay_counts_equal_engine_counts_on_supremacy() {
    assert_replay_matches_engine(&supremacy_circuit(SupremacyInstance::new(3, 3, 8, 2)), 0);
}

#[test]
fn replay_stops_at_its_budget() {
    let circuit = grover_circuit(GroverInstance::new(7, 21));
    let strategy = Arm::Kops.strategy().expect("gate-level arm");
    let report = replay(&circuit, strategy, 0, 1, Duration::ZERO, true);
    assert!(report.censored);
    assert!(report.amplitudes.is_none());
    assert_eq!(report.total(Layer::Drop).calls, 1);
}

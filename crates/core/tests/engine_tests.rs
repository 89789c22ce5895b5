//! Engine correctness: every strategy must produce the same final state,
//! and the strategies' multiplication accounting must match the paper's
//! description.

use ddsim_algorithms::grover::{grover_circuit, grover_iteration, GroverInstance};
use ddsim_algorithms::qft::qft_circuit;
use ddsim_algorithms::simple::{bernstein_vazirani_circuit, ghz_circuit, phase_estimation_circuit};
use ddsim_algorithms::supremacy::{supremacy_circuit, SupremacyInstance};
use ddsim_circuit::Circuit;
use ddsim_core::{simulate, SimOptions, Simulator, Strategy};

fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Sequential,
        Strategy::KOperations { k: 2 },
        Strategy::KOperations { k: 4 },
        Strategy::KOperations { k: 16 },
        Strategy::MaxSize { s_max: 32 },
        Strategy::MaxSize { s_max: 256 },
        Strategy::DdRepeating { k: 4 },
        Strategy::adaptive(),
    ]
}

/// All strategies agree with the sequential baseline on final amplitudes.
fn assert_strategies_agree(circuit: &Circuit, probe_indices: &[u64]) {
    let (reference, _) = simulate(circuit, SimOptions::default()).expect("reference run");
    for strategy in all_strategies() {
        let (sim, _) = simulate(circuit, SimOptions::with_strategy(strategy))
            .unwrap_or_else(|e| panic!("{strategy} failed: {e}"));
        for &idx in probe_indices {
            let want = reference.amplitude(idx);
            let got = sim.amplitude(idx);
            assert!(
                got.approx_eq(want, 1e-8),
                "{strategy}: amplitude {idx} is {got}, expected {want}"
            );
        }
    }
}

#[test]
fn bell_state_under_all_strategies() {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1);
    assert_strategies_agree(&c, &[0, 1, 2, 3]);
}

#[test]
fn ghz_under_all_strategies() {
    let c = ghz_circuit(6);
    assert_strategies_agree(&c, &[0, 63, 1, 32]);
}

#[test]
fn qft_under_all_strategies() {
    let c = qft_circuit(5);
    assert_strategies_agree(&c, &(0..32).collect::<Vec<u64>>());
}

#[test]
fn supremacy_under_all_strategies() {
    let c = supremacy_circuit(SupremacyInstance::new(2, 3, 10, 9));
    assert_strategies_agree(&c, &(0..64).collect::<Vec<u64>>());
}

#[test]
fn grover_finds_marked_element_under_every_strategy() {
    let inst = GroverInstance::new(6, 0b10110);
    let circuit = grover_circuit(inst);
    for strategy in all_strategies() {
        let (sim, _) = simulate(&circuit, SimOptions::with_strategy(strategy)).expect("run");
        // Marked element over the search register; the |−⟩ ancilla makes
        // the bottom bit uniform.
        let p = sim.probability_of(0b10110 << 1) + sim.probability_of((0b10110 << 1) | 1);
        assert!(p > 0.9, "{strategy}: marked probability {p}");
    }
}

#[test]
fn bernstein_vazirani_reads_secret() {
    let secret = 0b101101u64;
    let circuit = bernstein_vazirani_circuit(6, secret);
    let (sim, _) = simulate(&circuit, SimOptions::default()).expect("run");
    // Input register holds the secret; ancilla (bottom qubit) is in |−⟩.
    let p = sim.probability_of(secret << 1) + sim.probability_of((secret << 1) | 1);
    assert!(p > 0.999, "secret probability {p}");
}

#[test]
fn phase_estimation_recovers_phase() {
    // φ = 5/16 is exactly representable with 4 counting qubits.
    let circuit = phase_estimation_circuit(4, 5.0 / 16.0);
    let (sim, _) = simulate(&circuit, SimOptions::default()).expect("run");
    // Counting register (qubits 0..4) should read 5; eigenstate qubit is |1⟩.
    let p = sim.probability_of((5 << 1) | 1);
    assert!(p > 0.99, "phase-estimate probability {p}");
}

#[test]
fn sequential_uses_one_mxv_per_gate_and_no_mxm() {
    let c = ghz_circuit(5);
    let (_, stats) = simulate(&c, SimOptions::default()).expect("run");
    assert_eq!(stats.mat_vec_mults, 5);
    assert_eq!(stats.mat_mat_mults, 0);
    assert_eq!(stats.elementary_gates, 5);
}

#[test]
fn k_operations_trades_mxv_for_mxm() {
    let c = qft_circuit(6);
    let gates = c.elementary_count();
    let (_, seq) = simulate(&c, SimOptions::default()).expect("run");
    assert_eq!(seq.mat_vec_mults, gates);

    let (_, combined) = simulate(
        &c,
        SimOptions::with_strategy(Strategy::KOperations { k: 8 }),
    )
    .expect("run");
    // ⌈gates / 8⌉ applications; k−1 combinations per full group.
    assert_eq!(combined.mat_vec_mults, gates.div_ceil(8));
    assert!(combined.mat_mat_mults >= gates - combined.mat_vec_mults);
    assert!(combined.mat_vec_mults < seq.mat_vec_mults);
}

#[test]
fn max_size_bounds_matrix_growth() {
    let c = supremacy_circuit(SupremacyInstance::new(2, 3, 12, 3));
    let bound = 40usize;
    let (_, stats) = simulate(
        &c,
        SimOptions {
            strategy: Strategy::MaxSize { s_max: bound },
            collect_trace: true,
            ..SimOptions::default()
        },
    )
    .expect("run");
    assert!(stats.mat_mat_mults > 0);
    // The accumulated product may exceed the bound by one gate's growth but
    // must never run away.
    assert!(
        stats.peak_matrix_nodes <= bound * 4 + 8,
        "peak matrix nodes {} far exceeds bound {bound}",
        stats.peak_matrix_nodes
    );
}

#[test]
fn dd_repeating_grover_does_mxm_only_once() {
    let inst = GroverInstance::new(5, 7);
    let circuit = grover_circuit(inst);
    let iteration_gates = grover_iteration(inst).elementary_count();

    let (_, repeating) = simulate(
        &circuit,
        SimOptions::with_strategy(Strategy::DdRepeating { k: 4 }),
    )
    .expect("run");
    // One MxV for the cached block per iteration (+ setup applications).
    assert!(
        repeating.mat_vec_mults <= u64::from(inst.iterations) + 8,
        "got {} MxV for {} iterations",
        repeating.mat_vec_mults,
        inst.iterations
    );
    // Matrix-matrix work is bounded by ONE iteration's gates, not all.
    assert!(
        repeating.mat_mat_mults <= iteration_gates + 8,
        "got {} MxM for a {}-gate iteration",
        repeating.mat_mat_mults,
        iteration_gates
    );

    let (_, k_ops) = simulate(
        &circuit,
        SimOptions::with_strategy(Strategy::KOperations { k: 4 }),
    )
    .expect("run");
    assert!(
        repeating.mat_mat_mults < k_ops.mat_mat_mults,
        "repeating ({}) must do less MxM than k-operations ({})",
        repeating.mat_mat_mults,
        k_ops.mat_mat_mults
    );
}

#[test]
fn trace_records_combined_steps() {
    let c = ghz_circuit(4);
    let (_, stats) = simulate(
        &c,
        SimOptions {
            strategy: Strategy::KOperations { k: 2 },
            collect_trace: true,
            ..SimOptions::default()
        },
    )
    .expect("run");
    assert_eq!(stats.trace.len() as u64, stats.mat_vec_mults);
    let total_gates: u64 = stats.trace.iter().map(|t| t.combined_gates).sum();
    assert_eq!(total_gates, 4);
    assert!(stats.trace.iter().all(|t| t.matrix_nodes > 0));
}

#[test]
fn measurement_collapses_and_is_seeded() {
    let mut c = Circuit::with_cbits(2, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    let (sim_a, _) = simulate(
        &c,
        SimOptions {
            seed: 7,
            ..SimOptions::default()
        },
    )
    .expect("run");
    let (sim_b, _) = simulate(
        &c,
        SimOptions {
            seed: 7,
            ..SimOptions::default()
        },
    )
    .expect("run");
    // Bell state: both bits agree; same seed → same outcome.
    assert_eq!(sim_a.classical_bits()[0], sim_a.classical_bits()[1]);
    assert_eq!(sim_a.classical_bits(), sim_b.classical_bits());
}

#[test]
fn reset_forces_zero() {
    let mut c = Circuit::new(1);
    c.h(0).reset(0);
    for seed in 0..10 {
        let (sim, _) = simulate(
            &c,
            SimOptions {
                seed,
                ..SimOptions::default()
            },
        )
        .expect("run");
        assert!(sim.prob_one(0) < 1e-10, "seed {seed}: qubit not reset");
    }
}

#[test]
fn classical_control_fires_on_matching_bit() {
    // Measure |1⟩, then conditionally flip qubit 1.
    let mut c = Circuit::with_cbits(2, 1);
    c.x(0).measure(0, 0);
    c.classical_gate(ddsim_circuit::StandardGate::X, 1, 0, true);
    let (sim, _) = simulate(&c, SimOptions::default()).expect("run");
    assert!(sim.probability_of(0b11) > 0.999);

    // Condition on the opposite value: gate must not fire.
    let mut c2 = Circuit::with_cbits(2, 1);
    c2.x(0).measure(0, 0);
    c2.classical_gate(ddsim_circuit::StandardGate::X, 1, 0, false);
    let (sim2, _) = simulate(&c2, SimOptions::default()).expect("run");
    assert!(sim2.probability_of(0b10) > 0.999);
}

#[test]
fn width_mismatch_is_an_error() {
    let c = ghz_circuit(4);
    let mut sim = Simulator::new(5);
    assert!(sim.run(&c).is_err());
}

#[test]
fn classical_value_assembles_bits() {
    let mut c = Circuit::with_cbits(3, 3);
    c.x(0).x(2).measure(0, 0).measure(1, 1).measure(2, 2);
    let (sim, _) = simulate(&c, SimOptions::default()).expect("run");
    assert_eq!(sim.classical_value(), 0b101);
}

#[test]
fn barrier_splits_combination_groups() {
    let mut c = Circuit::new(2);
    c.h(0).barrier().h(1);
    let (_, stats) = simulate(
        &c,
        SimOptions::with_strategy(Strategy::KOperations { k: 8 }),
    )
    .expect("run");
    // The barrier forces two applications despite k = 8.
    assert_eq!(stats.mat_vec_mults, 2);
}

#[test]
fn adaptive_strategy_combines_and_stays_bounded() {
    let c = supremacy_circuit(SupremacyInstance::new(2, 4, 12, 5));
    let (_, stats) = simulate(&c, SimOptions::with_strategy(Strategy::adaptive())).expect("run");
    assert!(stats.mat_mat_mults > 0, "adaptive must actually combine");
    assert!(
        stats.mat_vec_mults < stats.elementary_gates,
        "adaptive must reduce MxV below one-per-gate"
    );
}

#[test]
fn adaptive_respects_absolute_cap() {
    let c = qft_circuit(8);
    let cap = 16usize;
    let (_, stats) = simulate(
        &c,
        SimOptions::with_strategy(Strategy::Adaptive {
            ratio_millis: 100_000, // effectively no relative bound
            cap,
        }),
    )
    .expect("run");
    assert!(
        stats.peak_matrix_nodes <= cap * 4 + 8,
        "peak product {} far exceeds cap {cap}",
        stats.peak_matrix_nodes
    );
}

#[test]
fn k_operations_report_the_largest_product_they_applied() {
    // Every multi-gate flush notes its product's size, so k-operations
    // reports a peak even though its rule never measures a product. The
    // traced run applies the same products and lists each one's size.
    let c = grover_circuit(GroverInstance::new(10, 3));
    let strategy = Strategy::KOperations { k: 8 };
    let (_, stats) = simulate(&c, SimOptions::with_strategy(strategy)).expect("run");
    let traced = SimOptions {
        collect_trace: true,
        ..SimOptions::with_strategy(strategy)
    };
    let (_, traced) = simulate(&c, traced).expect("traced run");
    let largest = traced
        .trace
        .iter()
        .filter(|t| t.combined_gates > 1)
        .map(|t| t.matrix_nodes)
        .max()
        .expect("k-operations applies multi-gate products");
    assert!(stats.peak_matrix_nodes > 0);
    assert_eq!(stats.peak_matrix_nodes, largest);
}

#[test]
fn nested_repeat_blocks_release_their_products() {
    // DD-repeating combines the inner block, folds it into the outer one
    // and must then release it. With a collection after every state
    // change, a one-gate follow-up run leaves only the pinned identity
    // cache (one node per qubit) among the matrix nodes.
    let n = 3;
    let mut inner = Circuit::new(n);
    inner.h(0).cx(0, 1).t(2);
    let mut outer = Circuit::new(n);
    outer.repeat(&inner, 2).cx(1, 2);
    let mut c = Circuit::new(n);
    c.repeat(&outer, 3);
    let mut options = SimOptions::with_strategy(Strategy::DdRepeating { k: 4 });
    options.dd_config.gc_threshold = 0;
    let mut sim = Simulator::with_options(n, options);
    sim.run(&c).expect("run");
    let mut follow_up = Circuit::new(n);
    follow_up.h(0);
    sim.run(&follow_up).expect("follow-up run");
    assert_eq!(sim.dd().live_mat_nodes(), n as usize);
}

#[test]
fn sample_counts_match_distribution() {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1); // Bell: only 00 and 11
    let (mut sim, _) = simulate(&c, SimOptions::default()).expect("run");
    let counts = sim.sample_counts(400);
    assert_eq!(
        counts
            .keys()
            .copied()
            .collect::<std::collections::HashSet<u64>>(),
        [0u64, 3].into_iter().collect()
    );
    let c00 = counts[&0] as f64;
    assert!((c00 / 400.0 - 0.5).abs() < 0.15, "c00 = {c00}");
}

#[test]
fn dd_repeating_falls_back_on_nonunitary_repeat_bodies() {
    // A repeat block containing a reset cannot be combined into one
    // matrix; DD-repeating must expand it and still produce correct
    // physics (every iteration re-prepares |+>, so qubit 0 ends at p1=0.5).
    let mut body = Circuit::new(2);
    body.reset(0).h(0);
    let mut c = Circuit::new(2);
    c.repeat(&body, 3);
    let (sim, stats) = simulate(
        &c,
        SimOptions::with_strategy(Strategy::DdRepeating { k: 4 }),
    )
    .expect("run");
    assert!((sim.prob_one(0) - 0.5).abs() < 1e-10);
    // All three H gates were applied individually (no combined block);
    // resets are not unitary gates and do not count.
    assert_eq!(stats.elementary_gates, 3);
}

#[test]
fn nested_repeats_are_combined_recursively() {
    // repeat(repeat(T, 2), 2) == S² == Z on qubit 0.
    let mut inner = Circuit::new(1);
    inner.t(0);
    let mut middle = Circuit::new(1);
    middle.repeat(&inner, 2);
    let mut outer = Circuit::new(1);
    outer.h(0); // make the phase observable
    outer.repeat(&middle, 2);
    outer.h(0);
    let (sim, _) = simulate(
        &outer,
        SimOptions::with_strategy(Strategy::DdRepeating { k: 2 }),
    )
    .expect("run");
    // HZH = X: |0> -> |1>.
    assert!(sim.probability_of(1) > 1.0 - 1e-9);
}

#[test]
fn engine_unitary_matches_equivalence_checker() {
    use ddsim_core::equivalence::{check_equivalence, Equivalence};
    // The engine's state after `c` from |0..0> equals the first column of
    // the full unitary that the equivalence checker builds.
    let c = qft_circuit(4);
    let (sim, _) = simulate(&c, SimOptions::default()).expect("run");
    let mut dd = ddsim_dd::DdManager::new();
    let u = ddsim_core::equivalence::circuit_unitary(&mut dd, &c).expect("unitary");
    for row in 0..16u64 {
        let want = dd.mat_entry(u, row, 0);
        let got = sim.amplitude(row);
        assert!(got.approx_eq(want, 1e-9), "row {row}");
    }
    // And the checker agrees a circuit equals itself.
    assert_eq!(check_equivalence(&c, &c), Ok(Equivalence::Equal));
}

// ---------------------------------------------------------------------------
// Identity-skipping and specialized gate application (PR 2)
// ---------------------------------------------------------------------------

#[test]
fn sequential_routes_every_gate_through_specialized_kernels() {
    let c = ghz_circuit(5);
    let (_, stats) = simulate(&c, SimOptions::default()).expect("run");
    assert_eq!(stats.elementary_gates, 5);
    assert_eq!(stats.specialized_applies, 5);
    // The specialized path still counts as one MxV per gate.
    assert_eq!(stats.mat_vec_mults, 5);
    assert_eq!(stats.mat_mat_mults, 0);
}

#[test]
fn identity_skip_off_disables_specialized_kernels() {
    let c = ghz_circuit(5);
    let mut options = SimOptions::default();
    options.dd_config.identity_skip = false;
    let (_, stats) = simulate(&c, options).expect("run");
    assert_eq!(stats.specialized_applies, 0);
    assert_eq!(stats.identity_skips, 0);
    assert_eq!(stats.mat_vec_mults, 5);
}

#[test]
fn tracing_forces_the_generic_matrix_path() {
    let c = ghz_circuit(5);
    let options = SimOptions {
        collect_trace: true,
        ..SimOptions::default()
    };
    let (_, stats) = simulate(&c, options).expect("run");
    assert_eq!(stats.specialized_applies, 0);
    // The trace needs a matrix DD per step, and it must have gotten one.
    assert!(stats.trace.iter().all(|t| t.matrix_nodes > 0));
}

#[test]
fn single_gate_flushes_use_specialized_kernels() {
    // Barriers cut the stream into one-gate groups: each flush should drop
    // its matrix and descend the state directly.
    let mut c = Circuit::new(2);
    c.h(0).barrier().cx(0, 1);
    let (_, stats) = simulate(
        &c,
        SimOptions::with_strategy(Strategy::KOperations { k: 16 }),
    )
    .expect("run");
    assert_eq!(stats.mat_vec_mults, 2);
    assert_eq!(stats.specialized_applies, 2);
    assert_eq!(stats.mat_mat_mults, 0);
}

#[test]
fn combining_strategies_skip_identity_factors() {
    // DD-repeating folds the block starting from the cached identity, so
    // the very first matrix-matrix product is answered by the skip.
    let instance = GroverInstance::new(5, 0b101);
    let c = grover_circuit(instance);
    let (_, stats) = simulate(
        &c,
        SimOptions::with_strategy(Strategy::DdRepeating { k: 4 }),
    )
    .expect("run");
    assert!(stats.identity_skips > 0, "identity start must be skipped");
}

#[test]
fn identity_skip_ablation_agrees_on_amplitudes() {
    let c = qft_circuit(5);
    for strategy in all_strategies() {
        let on = simulate(&c, SimOptions::with_strategy(strategy)).expect("on");
        let mut options = SimOptions::with_strategy(strategy);
        options.dd_config.identity_skip = false;
        let off = simulate(&c, options).expect("off");
        for idx in 0..32u64 {
            let a = on.0.amplitude(idx);
            let b = off.0.amplitude(idx);
            // Different managers intern weights in different encounter
            // orders, so bitwise identity is not expected across the
            // ablation; agreement far below the unification tolerance is.
            assert!(a.approx_eq(b, 1e-10), "{strategy}: amplitude {idx}");
        }
    }
}

#[test]
fn gate_cost_does_not_scale_with_untouched_qubits() {
    // A gate on the top qubit must cost the same number of multiply
    // recursions no matter how many identity levels sit below it.
    let recursions_for = |n: u32| {
        let mut c = Circuit::new(n);
        c.h(0);
        let (_, stats) = simulate(&c, SimOptions::default()).expect("run");
        stats.mult_recursions
    };
    let narrow = recursions_for(4);
    let wide = recursions_for(20);
    assert_eq!(narrow, wide, "apply cost must not scale with width");
}

#[test]
fn thread_count_does_not_change_multiplication_counters() {
    // The pool behind `threads` only parallelizes shot sampling and
    // trajectories; the DD operations run the same sequential code. So a
    // 16-qubit supremacy run under max-size(256) must report the same
    // MxV, MxM and recursion counts at two threads as at one.
    let c = supremacy_circuit(SupremacyInstance::new(4, 4, 12, 1));
    let counters = |threads: u32| {
        let (_, stats) = simulate(
            &c,
            SimOptions {
                strategy: Strategy::MaxSize { s_max: 256 },
                threads,
                ..SimOptions::default()
            },
        )
        .expect("run");
        (
            stats.mat_vec_mults,
            stats.mat_mat_mults,
            stats.mult_recursions,
        )
    };
    assert_eq!(counters(2), counters(1));
}

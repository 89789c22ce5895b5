//! Microbenchmarks of the DD package primitives: the ablation data behind
//! the paper's Section III cost argument (MxM on small gate DDs vs. MxV
//! through a large state DD).

use criterion::{criterion_group, BenchmarkId, Criterion};
use ddsim_algorithms::grover::{grover_circuit, GroverInstance};
use ddsim_algorithms::supremacy::{supremacy_circuit, SupremacyInstance};
use ddsim_complex::Complex;
use ddsim_core::{simulate, DdConfig, SimOptions};
use ddsim_dd::{Control, DdManager, VecEdge};

fn h_gate() -> ddsim_dd::Matrix2 {
    let s = Complex::SQRT2_INV;
    [[s, s], [s, -s]]
}

fn x_gate() -> ddsim_dd::Matrix2 {
    [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]]
}

fn t_gate() -> ddsim_dd::Matrix2 {
    [
        [Complex::ONE, Complex::ZERO],
        [Complex::ZERO, Complex::cis(std::f64::consts::FRAC_PI_4)],
    ]
}

/// Order-sensitive ladder state: H(i); CX(i, i+k); T(i) pairs qubit `i`
/// with qubit `i+k`, so under the circuit (identity) order every pair
/// spans the register's upper half and the state DD holds ~2^k nodes —
/// while the interleaved order sifting finds is linear in `k`.
fn ladder_state(dd: &mut DdManager, k: u32) -> VecEdge {
    let mut state = dd.vec_zero_state(2 * k);
    dd.inc_ref_vec(state);
    let step = |dd: &mut DdManager, state: &mut VecEdge, next: VecEdge| {
        dd.inc_ref_vec(next);
        dd.dec_ref_vec(*state);
        *state = next;
    };
    for i in 0..k {
        let next = dd
            .apply_single_qubit(i, h_gate(), state)
            .expect("ungoverned");
        step(dd, &mut state, next);
        let next = dd
            .apply_controlled(&[Control::pos(i)], i + k, x_gate(), state)
            .expect("ungoverned");
        step(dd, &mut state, next);
        let next = dd
            .apply_single_qubit(i, t_gate(), state)
            .expect("ungoverned");
        step(dd, &mut state, next);
    }
    state
}

/// A "large" state DD: final state of a supremacy-style circuit.
fn dense_state(dd: &mut DdManager, n: u32) -> VecEdge {
    let rows = 2;
    let cols = n / 2;
    let circuit = supremacy_circuit(SupremacyInstance::new(rows, cols, 10, 1));
    let (sim, _) = simulate(&circuit, SimOptions::default()).expect("width matches");
    let amps = sim.dd().vec_to_amplitudes(sim.state());
    dd.vec_from_amplitudes(&amps)
}

fn gate_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("gate_construction");
    for n in [8u32, 12, 16] {
        group.bench_with_input(BenchmarkId::new("single_qubit_h", n), &n, |b, &n| {
            let mut dd = DdManager::new();
            b.iter(|| dd.mat_single_qubit(n, n / 2, h_gate()));
        });
        group.bench_with_input(BenchmarkId::new("toffoli", n), &n, |b, &n| {
            let mut dd = DdManager::new();
            b.iter(|| dd.mat_controlled(n, &[Control::pos(0), Control::pos(1)], n - 1, x_gate()));
        });
    }
    group.finish();
}

fn mxv_vs_mxm(c: &mut Criterion) {
    let mut group = c.benchmark_group("mxv_vs_mxm_section3");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let n = 12u32;

    // MxV of an elementary gate against a large state DD.
    group.bench_function("mxv_gate_times_large_state", |b| {
        let mut dd = DdManager::new();
        let state = dense_state(&mut dd, n);
        dd.inc_ref_vec(state);
        let gate = dd.mat_controlled(n, &[Control::pos(3)], 7, x_gate());
        dd.inc_ref_mat(gate);
        b.iter(|| {
            // GC frees the previous iteration's (unreferenced) result,
            // invalidating its cache entries, so the multiply is re-measured
            // rather than served whole from the compute table.
            dd.collect_garbage();
            dd.mat_vec_mul(gate, state)
        });
    });

    // MxM of two elementary gates (small DDs).
    group.bench_function("mxm_gate_times_gate", |b| {
        let mut dd = DdManager::new();
        let g1 = dd.mat_controlled(n, &[Control::pos(3)], 7, x_gate());
        let g2 = dd.mat_single_qubit(n, 5, h_gate());
        dd.inc_ref_mat(g1);
        dd.inc_ref_mat(g2);
        b.iter(|| {
            dd.collect_garbage();
            dd.mat_mat_mul(g2, g1)
        });
    });

    group.finish();
}

/// A deep circuit on ONE active qubit of an ever-wider register: every
/// level below the target is an untouched identity factor. With identity
/// skipping the run cost must stay (near-)independent of `n`; without it
/// every gate pays for the full register width (gate-matrix construction
/// and descent through the inactive levels).
fn mxv_identity_heavy(c: &mut Criterion) {
    let mut group = c.benchmark_group("mxv_identity_heavy");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let deep_single_qubit = |n: u32| {
        let mut circuit = ddsim_circuit::Circuit::new(n);
        for i in 0..64 {
            if i % 2 == 0 {
                circuit.h(0);
            } else {
                circuit.t(0);
            }
        }
        circuit
    };
    for n in [8u32, 14, 20] {
        for (label, skip) in [("deep_1q_skip_on", true), ("deep_1q_skip_off", false)] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
                let circuit = deep_single_qubit(n);
                // Small tables: each iteration builds a fresh manager, and
                // with the default 2^16-slot compute tables the allocation
                // would dwarf the 64-gate run we are trying to measure.
                let options = SimOptions {
                    dd_config: DdConfig {
                        identity_skip: skip,
                        compute_table_bits: 12,
                        unique_table_bits: 10,
                        ..DdConfig::default()
                    },
                    ..SimOptions::default()
                };
                b.iter(|| simulate(&circuit, options).expect("width matches"));
            });
        }
    }
    group.finish();
}

/// The same controlled gate applied to the same large state through the
/// generic matrix path (skips ablated away) and through the specialized
/// kernel — the head-to-head behind the `--no-identity-skip` flag.
fn specialized_vs_generic(c: &mut Criterion) {
    let mut group = c.benchmark_group("specialized_vs_generic");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let n = 12u32;

    group.bench_function("generic_matrix_apply", |b| {
        let mut dd = DdManager::with_config(DdConfig {
            identity_skip: false,
            ..DdConfig::default()
        });
        let state = dense_state(&mut dd, n);
        dd.inc_ref_vec(state);
        let gate = dd.mat_controlled(n, &[Control::pos(3)], 7, x_gate());
        dd.inc_ref_mat(gate);
        b.iter(|| {
            dd.collect_garbage();
            dd.mat_vec_mul(gate, state)
        });
    });

    group.bench_function("specialized_apply", |b| {
        let mut dd = DdManager::new();
        let state = dense_state(&mut dd, n);
        dd.inc_ref_vec(state);
        b.iter(|| {
            dd.collect_garbage();
            dd.apply_controlled(&[Control::pos(3)], 7, x_gate(), state)
        });
    });

    group.finish();
}

/// The same cross-half CNOT applied to the same ladder state before and
/// after a full sifting pass: identical function, identical multiply —
/// the only difference is the variable order, ~2^k nodes in circuit
/// order vs. ~2k after sifting. This is the reordering payoff the
/// `--reorder sifting` flag buys at whole-run scale.
fn mxv_reordered(c: &mut Criterion) {
    let mut group = c.benchmark_group("mxv_reordered");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let k = 7u32;
    let n = 2 * k;

    group.bench_function("ladder_circuit_order", |b| {
        let mut dd = DdManager::new();
        let state = ladder_state(&mut dd, k);
        let gate = dd.mat_controlled(n, &[Control::pos(0)], k, x_gate());
        dd.inc_ref_mat(gate);
        b.iter(|| {
            dd.collect_garbage();
            dd.mat_vec_mul(gate, state)
        });
    });

    group.bench_function("ladder_sifted_order", |b| {
        let mut dd = DdManager::new();
        let raw = ladder_state(&mut dd, k);
        let (state, stats) = dd.sift_state(raw, usize::MAX);
        assert!(
            stats.nodes_after * 2 <= stats.nodes_before,
            "sifting must at least halve the ladder ({} -> {})",
            stats.nodes_before,
            stats.nodes_after
        );
        // Built AFTER the sift: matrix construction maps external qubits
        // through the live variable order.
        let gate = dd.mat_controlled(n, &[Control::pos(0)], k, x_gate());
        dd.inc_ref_mat(gate);
        b.iter(|| {
            dd.collect_garbage();
            dd.mat_vec_mul(gate, state)
        });
    });
    group.finish();
}

/// Whole-run simulation under frequent garbage collection: many Grover
/// iterations with a tiny `gc_threshold`, so the run's cost is dominated by
/// how much memoized work survives each collection. Before the epoch
/// scheme every GC emptied the compute tables; now entries whose diagrams
/// survive keep their hits, which is exactly what this group measures
/// against the default (rare-GC) configuration.
fn cache_pressure(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_pressure");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let circuit = grover_circuit(GroverInstance::new(9, 5));

    for (label, gc_threshold) in [
        ("gc_rare_default", 250_000usize),
        ("gc_every_2k_nodes", 2_000),
    ] {
        group.bench_function(format!("grover9/{label}"), |b| {
            let options = SimOptions {
                dd_config: DdConfig {
                    gc_threshold,
                    ..DdConfig::default()
                },
                ..SimOptions::default()
            };
            b.iter(|| simulate(&circuit, options).expect("width matches"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    gate_construction,
    mxv_vs_mxm,
    mxv_identity_heavy,
    mxv_reordered,
    specialized_vs_generic,
    cache_pressure
);

/// CI regression gate over the Section-III kernels, run as
/// `cargo bench -p ddsim-bench --bench dd_ops -- --smoke`.
///
/// Measures the `mxv_gate_times_large_state` and `mxm_gate_times_gate`
/// workloads under BOTH kernel instantiations — ungoverned (default
/// config) and governed (a lax budget that never trips) — with
/// interleaved sample batches so thermal drift cancels. Two gates:
///
/// 1. **Relative, machine-independent**: the ungoverned time must not
///    exceed `DDSIM_SMOKE_REL_TOL` (default 1.05) × the governed time
///    from the *same run*. This is the portable check: monomorphization
///    exists precisely so the ungoverned path is at least as fast.
/// 2. **Absolute**: the ungoverned time must stay within
///    `DDSIM_SMOKE_ABS_TOL` (default 0.05, i.e. +5%) of the checked-in
///    baseline `crates/bench/baselines/dd_ops_smoke.json`. Absolute
///    nanoseconds are machine-dependent; CI sets a looser tolerance and
///    treats the relative gate as the authoritative one.
///
/// One gate covers the pool's job-level work (gate 3 is retired; the
/// other gates keep their numbers):
///
/// 4. **Threaded speedup** (4+ hardware threads only, skipped with a
///    note otherwise): shot sampling on a pool as wide as the machine
///    must deliver at least `DDSIM_SMOKE_SPEEDUP` (default 2.0) × over
///    sequential.
///
/// A fifth gate covers dynamic reordering:
///
/// 5. **Reorder leg**: sifting OFF is the shipped default, so the
///    whole-run `simulate` cost of an order-sensitive ladder is held to
///    the checked-in baseline (`sim_ladder_reorder_off`, same
///    `DDSIM_SMOKE_ABS_TOL` drift window); and sifting ON must earn its
///    keep on the same circuit by shrinking the final state DD ≥ 2×.
mod smoke {
    use std::time::{Duration, Instant};

    use ddsim_complex::Complex;
    use ddsim_core::{simulate, DdConfig, ReorderMode, SimOptions};
    use ddsim_dd::{Control, DdManager};

    const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/dd_ops_smoke.json");

    fn env_f64(name: &str, default: f64) -> f64 {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Pulls `"ungoverned_ns": <number>` out of `bench`'s object in the
    /// baseline file. Hand-rolled because the workspace has no JSON
    /// dependency; the file is flat and checked in, so substring scanning
    /// is safe.
    fn baseline_ns(text: &str, bench: &str) -> Option<f64> {
        let rest = &text[text.find(&format!("\"{bench}\""))?..];
        let rest = &rest[rest.find("\"ungoverned_ns\"")?..];
        let rest = rest[rest.find(':')? + 1..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    fn best_ns(mut samples: Vec<f64>) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample times"));
        // Minimum-of-batches: the most repeatable estimator on shared or
        // frequency-scaled machines, where medians absorb scheduler noise
        // that has nothing to do with the code under test.
        samples[0] * 1e9
    }

    /// Interleaved best-of-batches: warm both closures, then alternate
    /// ~50 ms sample batches so neither instantiation monopolizes a
    /// thermal or frequency-scaling regime. Returns per-iteration
    /// minimum-batch means in ns.
    fn measure_pair(a: &mut dyn FnMut(), b: &mut dyn FnMut()) -> (f64, f64) {
        const SAMPLES: usize = 30;
        const WARM_UP: Duration = Duration::from_millis(200);
        const PER_BATCH: f64 = 0.05;
        let estimate = |f: &mut dyn FnMut()| -> f64 {
            let started = Instant::now();
            let mut iters = 0u64;
            while started.elapsed() < WARM_UP || iters == 0 {
                f();
                iters += 1;
            }
            started.elapsed().as_secs_f64() / iters as f64
        };
        let iters_a = ((PER_BATCH / estimate(a).max(1e-9)) as u64).clamp(1, 1_000_000);
        let iters_b = ((PER_BATCH / estimate(b).max(1e-9)) as u64).clamp(1, 1_000_000);
        let mut sa = Vec::with_capacity(SAMPLES);
        let mut sb = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let started = Instant::now();
            for _ in 0..iters_a {
                a();
            }
            sa.push(started.elapsed().as_secs_f64() / iters_a as f64);
            let started = Instant::now();
            for _ in 0..iters_b {
                b();
            }
            sb.push(started.elapsed().as_secs_f64() / iters_b as f64);
        }
        (best_ns(sa), best_ns(sb))
    }

    fn manager(governed: bool) -> DdManager {
        if governed {
            // A budget that can never trip: forces the governed kernel
            // instantiation without ever degrading or erroring.
            DdManager::with_config(DdConfig {
                max_live_nodes: Some(usize::MAX),
                ..DdConfig::default()
            })
        } else {
            DdManager::new()
        }
    }

    fn measure_case(name: &str) -> (f64, f64) {
        let n = 12u32;
        let x = [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]];
        let h = {
            let s = Complex::SQRT2_INV;
            [[s, s], [s, -s]]
        };
        match name {
            "mxv_gate_times_large_state" => {
                let setup = |governed: bool| {
                    let mut dd = manager(governed);
                    let state = super::dense_state(&mut dd, n);
                    dd.inc_ref_vec(state);
                    let gate = dd.mat_controlled(n, &[Control::pos(3)], 7, x);
                    dd.inc_ref_mat(gate);
                    (dd, gate, state)
                };
                let (mut dd_u, gate_u, state_u) = setup(false);
                let (mut dd_g, gate_g, state_g) = setup(true);
                measure_pair(
                    &mut || {
                        dd_u.collect_garbage();
                        std::hint::black_box(
                            dd_u.mat_vec_mul(gate_u, state_u).expect("ungoverned"),
                        );
                    },
                    &mut || {
                        dd_g.collect_garbage();
                        std::hint::black_box(
                            dd_g.mat_vec_mul(gate_g, state_g)
                                .expect("lax budget never trips"),
                        );
                    },
                )
            }
            "mxm_gate_times_gate" => {
                let setup = |governed: bool| {
                    let mut dd = manager(governed);
                    let g1 = dd.mat_controlled(n, &[Control::pos(3)], 7, x);
                    let g2 = dd.mat_single_qubit(n, 5, h);
                    dd.inc_ref_mat(g1);
                    dd.inc_ref_mat(g2);
                    (dd, g1, g2)
                };
                let (mut dd_u, g1_u, g2_u) = setup(false);
                let (mut dd_g, g1_g, g2_g) = setup(true);
                measure_pair(
                    &mut || {
                        dd_u.collect_garbage();
                        std::hint::black_box(dd_u.mat_mat_mul(g2_u, g1_u).expect("ungoverned"));
                    },
                    &mut || {
                        dd_g.collect_garbage();
                        std::hint::black_box(
                            dd_g.mat_mat_mul(g2_g, g1_g)
                                .expect("lax budget never trips"),
                        );
                    },
                )
            }
            other => unreachable!("unknown smoke case {other}"),
        }
    }

    /// Shot sampling on a supremacy-style final state: sequential engine
    /// vs. `threads`-lane engine, interleaved. Returns
    /// `(sequential_ns, threaded_ns)` per `sample_counts` call.
    fn measure_threaded_sampling(threads: u32) -> (f64, f64) {
        let circuit = ddsim_algorithms::supremacy::supremacy_circuit(
            ddsim_algorithms::supremacy::SupremacyInstance::new(2, 6, 10, 1),
        );
        let build = |threads: u32| {
            let options = SimOptions {
                threads,
                ..SimOptions::default()
            };
            simulate(&circuit, options).expect("width matches").0
        };
        let mut sim_s = build(1);
        let mut sim_t = build(threads);
        measure_pair(
            &mut || {
                std::hint::black_box(sim_s.sample_counts(256));
            },
            &mut || {
                std::hint::black_box(sim_t.sample_counts(256));
            },
        )
    }

    /// The order-sensitive ladder circuit behind gate 5 — the same shape
    /// the dd crate's sifting unit tests prove ≥2× on.
    fn ladder_circuit(k: u32) -> ddsim_circuit::Circuit {
        let mut c = ddsim_circuit::Circuit::new(2 * k);
        for i in 0..k {
            c.h(i);
            c.cx(i, i + k);
            c.t(i);
        }
        c
    }

    /// Interleaved whole-run `simulate` of the ladder with sifting off
    /// vs. on. Returns `(off_ns, on_ns, final_nodes_off, final_nodes_on)`.
    fn measure_reorder_sim(k: u32) -> (f64, f64, usize, usize) {
        let circuit = ladder_circuit(k);
        let off = SimOptions::default();
        let on = SimOptions {
            reorder: ReorderMode::Sifting,
            ..SimOptions::default()
        };
        let (_, stats_off) = simulate(&circuit, off).expect("width matches");
        let (_, stats_on) = simulate(&circuit, on).expect("width matches");
        let (off_ns, on_ns) = measure_pair(
            &mut || {
                std::hint::black_box(simulate(&circuit, off).expect("width matches"));
            },
            &mut || {
                std::hint::black_box(simulate(&circuit, on).expect("width matches"));
            },
        );
        (
            off_ns,
            on_ns,
            stats_off.final_state_nodes,
            stats_on.final_state_nodes,
        )
    }

    /// Runs the smoke gate; returns a process exit code.
    pub fn run() -> i32 {
        let rel_tol = env_f64("DDSIM_SMOKE_REL_TOL", 1.05);
        let abs_tol = env_f64("DDSIM_SMOKE_ABS_TOL", 0.05);
        let baseline = std::fs::read_to_string(BASELINE);
        let mut failed = false;
        for case in ["mxv_gate_times_large_state", "mxm_gate_times_gate"] {
            let (ungoverned, governed) = measure_case(case);
            let ratio = ungoverned / governed;
            println!(
                "smoke {case}: ungoverned {ungoverned:.0} ns, governed {governed:.0} ns \
                 (ratio {ratio:.3}, gate <= {rel_tol:.2})"
            );
            if ratio > rel_tol {
                println!(
                    "SMOKE FAIL {case}: ungoverned instantiation is {:.1}% slower than \
                     governed in the same run (monomorphization regression)",
                    (ratio - 1.0) * 100.0
                );
                failed = true;
            }
            match baseline.as_deref().ok().and_then(|t| baseline_ns(t, case)) {
                Some(base) => {
                    let drift = ungoverned / base;
                    println!(
                        "smoke {case}: baseline {base:.0} ns, drift x{drift:.3} \
                         (gate <= {:.2})",
                        1.0 + abs_tol
                    );
                    if drift > 1.0 + abs_tol {
                        println!(
                            "SMOKE FAIL {case}: ungoverned time regressed {:.1}% vs \
                             {BASELINE} (set DDSIM_SMOKE_ABS_TOL to loosen on a \
                             different machine, or re-baseline)",
                            (drift - 1.0) * 100.0
                        );
                        failed = true;
                    }
                }
                None => {
                    println!("SMOKE FAIL {case}: no baseline entry readable from {BASELINE}");
                    failed = true;
                }
            }
        }
        // Gate 4: genuine speedup, only meaningful with real cores.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        if cores >= 4 {
            let speedup_gate = env_f64("DDSIM_SMOKE_SPEEDUP", 2.0);
            let (sequential, threaded) = measure_threaded_sampling(cores as u32);
            let speedup = sequential / threaded;
            println!(
                "smoke shot_sampling_256 threads={cores}: sequential {sequential:.0} ns, \
                 threaded {threaded:.0} ns (speedup x{speedup:.2})"
            );
            if speedup < speedup_gate {
                println!(
                    "SMOKE FAIL threaded-speedup: shot sampling speedup x{speedup:.2} on {cores} \
                     hardware threads is below the x{speedup_gate:.1} gate"
                );
                failed = true;
            }
        } else {
            println!(
                "smoke threaded-speedup: skipped ({cores} hardware thread(s) < 4; the \
                 >=2x gate needs a multi-core host)"
            );
        }
        // Gate 5: the reorder leg (see the module docs).
        {
            let (off_ns, on_ns, nodes_off, nodes_on) = measure_reorder_sim(5);
            println!(
                "smoke sim_ladder_reorder_off: {off_ns:.0} ns (sifting on: {on_ns:.0} ns); \
                 final state nodes {nodes_off} -> {nodes_on}"
            );
            match baseline
                .as_deref()
                .ok()
                .and_then(|t| baseline_ns(t, "sim_ladder_reorder_off"))
            {
                Some(base) => {
                    let drift = off_ns / base;
                    println!(
                        "smoke sim_ladder_reorder_off: baseline {base:.0} ns, drift x{drift:.3} \
                         (gate <= {:.2})",
                        1.0 + abs_tol
                    );
                    if drift > 1.0 + abs_tol {
                        println!(
                            "SMOKE FAIL sim_ladder_reorder_off: the sifting-off run regressed \
                             {:.1}% vs {BASELINE} (the reorder plumbing must be free when off)",
                            (drift - 1.0) * 100.0
                        );
                        failed = true;
                    }
                }
                None => {
                    println!(
                        "SMOKE FAIL sim_ladder_reorder_off: no baseline entry readable \
                         from {BASELINE}"
                    );
                    failed = true;
                }
            }
            if nodes_off < 2 * nodes_on {
                println!(
                    "SMOKE FAIL reorder-effectiveness: sifting shrank the ladder's final DD \
                     only {nodes_off} -> {nodes_on} nodes (< 2x)"
                );
                failed = true;
            }
        }
        if failed {
            1
        } else {
            println!("smoke: all instantiations within tolerance");
            0
        }
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke::run());
    }
    benches();
}

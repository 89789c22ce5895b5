//! Ablation studies of the design choices called out in DESIGN.md:
//!
//! 1. strategy comparison including the `Adaptive` extension (is a
//!    parameter-free rule competitive with hand-tuned k / s_max?),
//! 2. edge-weight unification tolerance (node sharing vs. accuracy),
//! 3. garbage-collection threshold (memory vs. cache-flush cost), and
//! 4. identity skipping (short-circuits + specialized apply kernels,
//!    DESIGN.md §9) on versus off.
//!
//! Usage: `cargo run --release -p ddsim-bench --bin ablation [--full]
//! [--timeout SECS]`

use std::time::Instant;

use ddsim_bench::{maybe_run_child, parse_harness_options, run_measured, sweep_suite};
use ddsim_core::{simulate, SimOptions, Strategy};
use ddsim_dd::DdConfig;

fn main() {
    maybe_run_child();
    let options = parse_harness_options();
    let suite = sweep_suite(options.scale);

    println!("# Ablation 1 — strategy comparison (wall seconds)");
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "sequential", "k=8", "s_max=256", "dd-repeat", "adaptive"
    );
    for w in &suite {
        let cells: Vec<String> = [
            "sequential",
            "kops:8",
            "maxsize:256",
            "ddrepeating:8",
            "adaptive",
        ]
        .iter()
        .map(|token| run_measured(w, token, options.seed, options.timeout).display())
        .collect();
        println!(
            "{:<22} {:>12} {:>12} {:>12} {:>12} {:>12}",
            w.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4]
        );
    }

    println!("\n# Ablation 2 — complex-table tolerance (supremacy_12_16, sequential)");
    println!(
        "{:<12} {:>12} {:>16}",
        "tolerance", "seconds", "final_nodes"
    );
    let workload = &suite[suite.len() - 1];
    let circuit = workload.circuit();
    for tolerance in [1e-6, 1e-8, 1e-10, 1e-12, 1e-14] {
        let started = Instant::now();
        let (sim, _) = simulate(
            &circuit,
            SimOptions {
                dd_config: DdConfig {
                    tolerance,
                    ..DdConfig::default()
                },
                ..SimOptions::default()
            },
        )
        .expect("width matches");
        println!(
            "{:<12.0e} {:>12.3} {:>16}",
            tolerance,
            started.elapsed().as_secs_f64(),
            sim.state_nodes()
        );
    }
    println!("# expected: loose tolerance → smaller DDs but accuracy risk; tight → larger DDs");

    println!("\n# Ablation 3 — GC threshold (grover workload, k-operations)");
    println!("{:<14} {:>12} {:>10}", "gc_threshold", "seconds", "gc_runs");
    let grover = &suite[0];
    let circuit = grover.circuit();
    for threshold in [5_000usize, 20_000, 100_000, 1_000_000] {
        let started = Instant::now();
        let (_, stats) = simulate(
            &circuit,
            SimOptions {
                strategy: Strategy::KOperations { k: 8 },
                dd_config: DdConfig {
                    gc_threshold: threshold,
                    ..DdConfig::default()
                },
                ..SimOptions::default()
            },
        )
        .expect("width matches");
        println!(
            "{:<14} {:>12.3} {:>10}",
            threshold,
            started.elapsed().as_secs_f64(),
            stats.gc_runs
        );
    }
    println!("# expected: aggressive GC costs time (compute-table flushes); lazy GC costs memory");

    println!("\n# Ablation 4 — identity skipping (sequential, per workload)");
    println!(
        "{:<22} {:>12} {:>12} {:>14} {:>14}",
        "benchmark", "skip_on_s", "skip_off_s", "id_skips", "spec_applies"
    );
    for w in &suite {
        let circuit = w.circuit();
        let timed = |identity_skip: bool| {
            let started = Instant::now();
            let (_, stats) = simulate(
                &circuit,
                SimOptions {
                    dd_config: DdConfig {
                        identity_skip,
                        ..DdConfig::default()
                    },
                    ..SimOptions::default()
                },
            )
            .expect("width matches");
            (started.elapsed().as_secs_f64(), stats)
        };
        let (on_secs, on_stats) = timed(true);
        let (off_secs, _) = timed(false);
        println!(
            "{:<22} {:>12.3} {:>12.3} {:>14} {:>14}",
            w.name(),
            on_secs,
            off_secs,
            on_stats.identity_skips,
            on_stats.specialized_applies
        );
    }
    println!("# expected: skip_on ≤ skip_off everywhere; sequential runs are all specialized");
}

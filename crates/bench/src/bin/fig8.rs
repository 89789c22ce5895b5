//! Regenerates Fig. 8: speed-up of the *k-operations* strategy over the
//! sequential baseline, per benchmark and averaged, for k ∈ {1..128}.
//!
//! Usage: `cargo run --release -p ddsim-bench --bin fig8 [--full]
//! [--timeout SECS] [--seed N] [--smoke]`
//!
//! `--smoke` shrinks the sweep to two tiny instances and two k values — a
//! seconds-long end-to-end exercise of the harness for CI.

use ddsim_bench::{
    geometric_mean_speedup, maybe_run_child, parse_harness_options, run_json, run_measured,
    sweep_suite, Measurement, Workload,
};

fn main() {
    maybe_run_child();
    let options = parse_harness_options();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let suite = if smoke {
        vec![
            Workload::Grover {
                qubits: 9,
                marked: 5,
            },
            Workload::Shor {
                modulus: 15,
                base: 7,
            },
        ]
    } else {
        sweep_suite(options.scale)
    };
    let ks: &[usize] = if smoke {
        &[1, 4]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 128]
    };

    println!("# Fig. 8 — speed-up of k-operations vs. sequential (Eq. 1 baseline)");
    println!(
        "# scale: {:?}, timeout per run: {:.0}s, seed: {}",
        options.scale,
        options.timeout.as_secs_f64(),
        options.seed
    );

    // Baselines.
    let mut baselines: Vec<Measurement> = Vec::new();
    for w in &suite {
        let m = run_measured(w, "sequential", options.seed, options.timeout);
        println!("# baseline {:<22} {:>10}s", w.name(), m.display());
        println!("{}", run_json(&w.name(), "sequential", &m));
        baselines.push(m);
    }

    // Header row.
    print!("{:<22}", "benchmark");
    for k in ks {
        print!(" k={k:<8}");
    }
    println!();

    let mut per_k_pairs: Vec<Vec<(Measurement, Measurement)>> = vec![Vec::new(); ks.len()];
    for (w, baseline) in suite.iter().zip(baselines.iter()) {
        print!("{:<22}", w.name());
        let mut json_lines = Vec::new();
        for (ki, &k) in ks.iter().enumerate() {
            let token = format!("kops:{k}");
            let m = run_measured(w, &token, options.seed, options.timeout);
            let cell = match (baseline.seconds(), m.seconds()) {
                (Some(b), Some(c)) => format!("{:.2}x", b / c),
                (_, None) => "t/o".to_string(),
                (None, Some(_)) => "inf".to_string(),
            };
            print!(" {cell:<9}");
            json_lines.push(run_json(&w.name(), &token, &m));
            per_k_pairs[ki].push((baseline.clone(), m));
        }
        println!();
        for line in json_lines {
            println!("{line}");
        }
    }

    print!("{:<22}", "AVERAGE (geo-mean)");
    for pairs in &per_k_pairs {
        match geometric_mean_speedup(pairs) {
            Some(g) => print!(" {:<9}", format!("{g:.2}x")),
            None => print!(" {:<9}", "-"),
        }
    }
    println!();
    println!("# expected shape: rises above 1x for moderate k, falls for large k");
}

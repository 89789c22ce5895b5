//! Regenerates Fig. 9: speed-up of the *max-size* strategy over the
//! sequential baseline, per benchmark and averaged, for a sweep of s_max.
//!
//! Usage: `cargo run --release -p ddsim-bench --bin fig9 [--full]
//! [--timeout SECS] [--seed N]`

use ddsim_bench::{
    geometric_mean_speedup, maybe_run_child, parse_harness_options, run_measured, sweep_suite,
    Measurement,
};

fn main() {
    maybe_run_child();
    let options = parse_harness_options();
    let suite = sweep_suite(options.scale);
    let sizes: &[usize] = &[8, 16, 32, 64, 128, 256, 512, 1024, 4096];

    println!("# Fig. 9 — speed-up of max-size vs. sequential (Eq. 1 baseline)");
    println!(
        "# scale: {:?}, timeout per run: {:.0}s, seed: {}",
        options.scale,
        options.timeout.as_secs_f64(),
        options.seed
    );

    let mut baselines: Vec<Measurement> = Vec::new();
    for w in &suite {
        let m = run_measured(w, "sequential", options.seed, options.timeout);
        println!("# baseline {:<22} {:>10}s", w.name(), m.display());
        baselines.push(m);
    }

    print!("{:<22}", "benchmark");
    for s in sizes {
        print!(" s={s:<8}");
    }
    println!();

    let mut per_s_pairs: Vec<Vec<(Measurement, Measurement)>> = vec![Vec::new(); sizes.len()];
    for (w, baseline) in suite.iter().zip(baselines.iter()) {
        print!("{:<22}", w.name());
        for (si, &s) in sizes.iter().enumerate() {
            let m = run_measured(w, &format!("maxsize:{s}"), options.seed, options.timeout);
            let cell = match (baseline.seconds(), m.seconds()) {
                (Some(b), Some(c)) => format!("{:.2}x", b / c),
                (_, None) => "t/o".to_string(),
                (None, Some(_)) => "inf".to_string(),
            };
            print!(" {cell:<9}");
            per_s_pairs[si].push((baseline.clone(), m));
        }
        println!();
    }

    print!("{:<22}", "AVERAGE (geo-mean)");
    for pairs in &per_s_pairs {
        match geometric_mean_speedup(pairs) {
            Some(g) => print!(" {:<9}", format!("{g:.2}x")),
            None => print!(" {:<9}", "-"),
        }
    }
    println!();
    println!("# expected shape: peaks for moderate s_max, above the best k-operations peak");
}

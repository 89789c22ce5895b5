//! Regenerates Table I: grover benchmarks under the sequential baseline
//! (`t_sota`), the best general strategy (`t_general`, k-operations over a
//! small k sweep), and *DD-repeating* (`t_DD-repeating`).
//!
//! Usage: `cargo run --release -p ddsim-bench --bin table1 [--full]
//! [--timeout SECS] [--seed N]`

use ddsim_bench::{
    grover_suite, maybe_run_child, parse_harness_options, run_measured, Measurement,
};

fn main() {
    maybe_run_child();
    let options = parse_harness_options();
    let suite = grover_suite(options.scale);

    println!("# Table I — grover benchmarks (strategy DD-repeating)");
    println!(
        "# scale: {:?}, timeout per run: {:.0}s, seed: {}",
        options.scale,
        options.timeout.as_secs_f64(),
        options.seed
    );
    println!(
        "{:<14} {:>12} {:>12} {:>18}",
        "Benchmark", "t_sota", "t_general", "t_DD-repeating"
    );

    for w in &suite {
        let sota = run_measured(w, "sequential", options.seed, options.timeout);

        // t_general: best k over a small sweep, as the paper's "best choice
        // of k/s_max".
        let mut general: Option<Measurement> = None;
        for k in [4usize, 8, 16, 32] {
            let m = run_measured(w, &format!("kops:{k}"), options.seed, options.timeout);
            general = Some(match (general, m.seconds()) {
                (None, _) => m,
                (Some(best), Some(c)) => {
                    if best.seconds().is_none_or(|b| c < b) {
                        m
                    } else {
                        best
                    }
                }
                (Some(best), None) => best,
            });
        }
        let general = general.expect("k sweep is non-empty");

        let repeating = run_measured(w, "ddrepeating:8", options.seed, options.timeout);

        println!(
            "{:<14} {:>12} {:>12} {:>18}",
            w.name(),
            sota.display(),
            general.display(),
            repeating.display()
        );
    }
    println!("# paper reference (their machine): grover_23: 13.77 / 4.83 / 2.78 s … grover_29: 169.05 / 67.82 / 30.87 s");
}

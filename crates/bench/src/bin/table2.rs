//! Regenerates Table II: shor benchmarks under the sequential baseline
//! (`t_sota`), the best general strategy (`t_general`), and *DD-construct*
//! (`t_DD-construct`, the n+1-qubit direct-DD simulator).
//!
//! Usage: `cargo run --release -p ddsim-bench --bin table2 [--full]
//! [--timeout SECS] [--seed N]`

use ddsim_bench::{
    maybe_run_child, parse_harness_options, run_json, run_measured, shor_suite, Measurement,
};

fn main() {
    maybe_run_child();
    let options = parse_harness_options();
    let suite = shor_suite(options.scale);

    println!("# Table II — shor benchmarks (strategy DD-construct)");
    println!(
        "# scale: {:?}, timeout per run: {:.0}s, seed: {}",
        options.scale,
        options.timeout.as_secs_f64(),
        options.seed
    );
    println!(
        "{:<22} {:>12} {:>12} {:>18}",
        "Benchmark", "t_sota", "t_general", "t_DD-construct"
    );

    for w in &suite {
        let sota = run_measured(w, "sequential", options.seed, options.timeout);
        println!("{}", run_json(&w.name(), "sequential", &sota));

        let mut general: Option<Measurement> = None;
        for token in ["kops:8", "kops:16", "kops:32", "maxsize:256"] {
            let m = run_measured(w, token, options.seed, options.timeout);
            println!("{}", run_json(&w.name(), token, &m));
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
        let general = general.expect("strategy sweep is non-empty");

        let construct = run_measured(w, "ddconstruct", options.seed, options.timeout);
        println!("{}", run_json(&w.name(), "ddconstruct", &construct));

        println!(
            "{:<22} {:>12} {:>12} {:>18}",
            w.name(),
            sota.display(),
            general.display(),
            construct.display()
        );
    }
    println!("# paper reference (their machine): shor_1007_602_23: 84.74 / 19.72 / 0.12 s … shor_11623_7531_31: >7200 / 1423.56 / 3.05 s");
}

//! Shared harness for regenerating the paper's figures and tables.
//!
//! Each experiment binary (`fig8`, `fig9`, `table1`, `table2`,
//! `example3_trace`) uses this crate to build benchmark circuits, execute
//! runs in a killable subprocess (so the paper's ">2 CPU hours" timeout
//! rows can be reproduced without hanging the harness), and format the
//! speed-up tables.

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ddsim_algorithms::grover::{grover_circuit, GroverInstance};
use ddsim_algorithms::shor::{shor_circuit, ShorInstance};
use ddsim_algorithms::supremacy::{supremacy_circuit, SupremacyInstance};
use ddsim_circuit::Circuit;
use ddsim_core::{run_shor_dd_construct, simulate, CacheStats, RunStats, SimOptions, Strategy};

/// Benchmark scale: CI-friendly defaults versus paper-sized instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small instances, each run well under a minute on a laptop core.
    Quick,
    /// The paper's instance sizes (grover_23…29, shor_1007… etc.). Allow
    /// hours and use a generous `--timeout`.
    Paper,
}

/// A named benchmark workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Grover search with `total_qubits` (= search + ancilla).
    Grover {
        /// Total qubits.
        qubits: u32,
        /// Marked element.
        marked: u64,
    },
    /// Beauregard Shor order finding for `N` with base `a`.
    Shor {
        /// The modulus.
        modulus: u64,
        /// The co-prime base.
        base: u64,
    },
    /// Supremacy-style random grid circuit.
    Supremacy {
        /// Grid rows.
        rows: u32,
        /// Grid columns.
        cols: u32,
        /// Clock cycles.
        depth: u32,
        /// Gate-choice seed.
        seed: u64,
    },
}

impl Workload {
    /// The paper's benchmark name for this workload.
    pub fn name(&self) -> String {
        match self {
            Workload::Grover { qubits, .. } => format!("grover_{qubits}"),
            Workload::Shor { modulus, base } => {
                let inst = ShorInstance::new(*modulus, *base);
                inst.name()
            }
            Workload::Supremacy {
                rows, cols, depth, ..
            } => format!("supremacy_{depth}_{}", rows * cols),
        }
    }

    /// Builds the circuit for this workload.
    pub fn circuit(&self) -> Circuit {
        match self {
            Workload::Grover { qubits, marked } => {
                grover_circuit(GroverInstance::new(*qubits, *marked))
            }
            Workload::Shor { modulus, base } => shor_circuit(ShorInstance::new(*modulus, *base)),
            Workload::Supremacy {
                rows,
                cols,
                depth,
                seed,
            } => supremacy_circuit(SupremacyInstance::new(*rows, *cols, *depth, *seed)),
        }
    }

    /// Serializes to the spec understood by [`parse_workload`].
    pub fn spec(&self) -> String {
        match self {
            Workload::Grover { qubits, marked } => format!("grover;{qubits};{marked}"),
            Workload::Shor { modulus, base } => format!("shor;{modulus};{base}"),
            Workload::Supremacy {
                rows,
                cols,
                depth,
                seed,
            } => format!("supremacy;{rows};{cols};{depth};{seed}"),
        }
    }
}

/// Parses a workload spec produced by [`Workload::spec`].
///
/// # Panics
///
/// Panics on a malformed spec (these only travel harness → child process).
pub fn parse_workload(spec: &str) -> Workload {
    let parts: Vec<&str> = spec.split(';').collect();
    match parts[0] {
        "grover" => Workload::Grover {
            qubits: parts[1].parse().expect("qubits"),
            marked: parts[2].parse().expect("marked"),
        },
        "shor" => Workload::Shor {
            modulus: parts[1].parse().expect("modulus"),
            base: parts[2].parse().expect("base"),
        },
        "supremacy" => Workload::Supremacy {
            rows: parts[1].parse().expect("rows"),
            cols: parts[2].parse().expect("cols"),
            depth: parts[3].parse().expect("depth"),
            seed: parts[4].parse().expect("seed"),
        },
        other => panic!("unknown workload kind `{other}`"),
    }
}

/// The standard benchmark suites for the Fig. 8 / Fig. 9 sweeps.
pub fn sweep_suite(scale: Scale) -> Vec<Workload> {
    match scale {
        Scale::Quick => vec![
            Workload::Grover {
                qubits: 13,
                marked: 5,
            },
            Workload::Grover {
                qubits: 15,
                marked: 5,
            },
            Workload::Shor {
                modulus: 33,
                base: 5,
            },
            Workload::Shor {
                modulus: 55,
                base: 17,
            },
            Workload::Supremacy {
                rows: 4,
                cols: 4,
                depth: 8,
                seed: 42,
            },
            Workload::Supremacy {
                rows: 4,
                cols: 4,
                depth: 12,
                seed: 42,
            },
        ],
        Scale::Paper => vec![
            Workload::Grover {
                qubits: 19,
                marked: 5,
            },
            Workload::Grover {
                qubits: 21,
                marked: 5,
            },
            Workload::Shor {
                modulus: 221,
                base: 4,
            },
            Workload::Shor {
                modulus: 1007,
                base: 602,
            },
            Workload::Supremacy {
                rows: 4,
                cols: 4,
                depth: 16,
                seed: 42,
            },
            Workload::Supremacy {
                rows: 4,
                cols: 5,
                depth: 10,
                seed: 42,
            },
        ],
    }
}

/// The Table I grover instances.
pub fn grover_suite(scale: Scale) -> Vec<Workload> {
    let sizes: &[u32] = match scale {
        Scale::Quick => &[13, 15, 17],
        Scale::Paper => &[23, 25, 27, 29],
    };
    sizes
        .iter()
        .map(|&qubits| Workload::Grover { qubits, marked: 5 })
        .collect()
}

/// The Table II shor instances.
pub fn shor_suite(scale: Scale) -> Vec<Workload> {
    match scale {
        Scale::Quick => vec![
            Workload::Shor {
                modulus: 33,
                base: 5,
            },
            Workload::Shor {
                modulus: 55,
                base: 17,
            },
            Workload::Shor {
                modulus: 221,
                base: 4,
            },
        ],
        Scale::Paper => vec![
            Workload::Shor {
                modulus: 1007,
                base: 602,
            },
            Workload::Shor {
                modulus: 1851,
                base: 17,
            },
            Workload::Shor {
                modulus: 2561,
                base: 2409,
            },
            Workload::Shor {
                modulus: 7361,
                base: 5878,
            },
            Workload::Shor {
                modulus: 5513,
                base: 3591,
            },
            Workload::Shor {
                modulus: 8193,
                base: 1024,
            },
            Workload::Shor {
                modulus: 11623,
                base: 7531,
            },
        ],
    }
}

/// Result of one measured run.
#[derive(Clone, Debug)]
pub enum Measurement {
    /// Completed within the limit.
    Completed {
        /// Wall-clock seconds.
        seconds: f64,
        /// Per-table cache counters as a JSON object (the child's `CACHE`
        /// protocol line), when the run reported them.
        cache_json: Option<String>,
        /// Top-level multiplication counters as a JSON object (the child's
        /// `COUNTERS` protocol line), when the run reported them.
        counters_json: Option<String>,
    },
    /// Exceeded the timeout and was killed (the paper's `>7200.00` rows).
    TimedOut {
        /// The limit that was exceeded, in seconds.
        limit: f64,
    },
}

impl Measurement {
    /// Seconds if completed.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            Measurement::Completed { seconds, .. } => Some(*seconds),
            Measurement::TimedOut { .. } => None,
        }
    }

    /// Formats like the paper's tables (`>7200.00` for timeouts).
    pub fn display(&self) -> String {
        match self {
            Measurement::Completed { seconds, .. } => format!("{seconds:.2}"),
            Measurement::TimedOut { limit } => format!(">{limit:.2}"),
        }
    }
}

/// Serializes per-table cache counters as a JSON object (hand-rolled; the
/// repo deliberately has no serialization dependency).
pub fn cache_json(cache: &CacheStats) -> String {
    let mut parts = Vec::new();
    for (name, t) in cache.named_compute() {
        parts.push(format!(
            "\"{name}\":{{\"lookups\":{},\"hits\":{},\"hit_rate\":{:.4},\"collisions\":{},\"evictions\":{},\"stale\":{}}}",
            t.lookups,
            t.hits,
            t.hit_rate(),
            t.collisions,
            t.evictions,
            t.stale
        ));
    }
    for (name, u) in cache.named_unique() {
        parts.push(format!(
            "\"{name}\":{{\"lookups\":{},\"hits\":{},\"hit_rate\":{:.4},\"probes\":{},\"grows\":{},\"rebuilds\":{}}}",
            u.lookups,
            u.hits,
            u.hit_rate(),
            u.probes,
            u.grows,
            u.rebuilds
        ));
    }
    let c = &cache.complex;
    parts.push(format!(
        "\"complex_table\":{{\"lookups\":{},\"unified\":{},\"unify_rate\":{:.4},\"inserts\":{},\"buckets_probed\":{},\"probe_entries\":{},\"mean_probe_len\":{:.4}}}",
        c.lookups,
        c.unified,
        c.unify_rate(),
        c.inserts,
        c.buckets_probed,
        c.probe_entries,
        c.mean_probe_len()
    ));
    format!("{{{}}}", parts.join(","))
}

/// Serializes the run's top-level multiplication counters as a JSON
/// object — the ablation-relevant numbers next to the wall time.
pub fn counters_json(stats: &RunStats) -> String {
    format!(
        "{{\"mat_vec_mults\":{},\"mat_mat_mults\":{},\"identity_skips\":{},\"specialized_applies\":{}}}",
        stats.mat_vec_mults, stats.mat_mat_mults, stats.identity_skips, stats.specialized_applies
    )
}

/// One run as a self-describing JSON line for downstream tooling:
/// benchmark, strategy, seconds (null on timeout), the per-table
/// `cache` object, and the top-level `counters` object (null when the run
/// did not report them).
pub fn run_json(benchmark: &str, strategy: &str, m: &Measurement) -> String {
    let (seconds, timed_out, cache, counters) = match m {
        Measurement::Completed {
            seconds,
            cache_json,
            counters_json,
        } => (
            format!("{seconds:.6}"),
            false,
            cache_json.clone().unwrap_or_else(|| "null".to_string()),
            counters_json.clone().unwrap_or_else(|| "null".to_string()),
        ),
        Measurement::TimedOut { limit } => (
            format!("{limit:.6}"),
            true,
            "null".to_string(),
            "null".to_string(),
        ),
    };
    format!(
        "{{\"benchmark\":\"{benchmark}\",\"strategy\":\"{strategy}\",\"seconds\":{seconds},\"timed_out\":{timed_out},\"counters\":{counters},\"cache\":{cache}}}"
    )
}

/// Executes one workload/strategy pair in-process and returns the stats.
/// `dd-construct` is spelled as a pseudo-strategy token `ddconstruct`.
///
/// # Panics
///
/// Panics if `ddconstruct` is requested for a non-shor workload.
pub fn execute(workload: &Workload, strategy_token: &str, seed: u64) -> RunStats {
    if strategy_token == "ddconstruct" {
        let Workload::Shor { modulus, base } = workload else {
            panic!("dd-construct only applies to shor workloads");
        };
        let outcome = run_shor_dd_construct(ShorInstance::new(*modulus, *base), seed);
        return outcome.stats;
    }
    let strategy: Strategy = strategy_token.parse().expect("strategy spec");
    let circuit = workload.circuit();
    let (_, stats) = simulate(
        &circuit,
        SimOptions {
            strategy,
            seed,
            ..SimOptions::default()
        },
    )
    .expect("workload circuits always match their own width");
    stats
}

/// Child-process entry: if the argument list matches the hidden
/// `__run-one` protocol, execute and exit. Call this first from every
/// harness binary's `main`.
pub fn maybe_run_child() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 5 && args[1] == "__run-one" {
        let workload = parse_workload(&args[2]);
        let strategy = &args[3];
        let seed: u64 = args[4].parse().expect("seed");
        let started = Instant::now();
        let stats = execute(&workload, strategy, seed);
        println!("mxv={} mxm={}", stats.mat_vec_mults, stats.mat_mat_mults);
        println!("COUNTERS {}", counters_json(&stats));
        println!("CACHE {}", cache_json(&stats.cache));
        println!("RESULT {:.6}", started.elapsed().as_secs_f64());
        let _ = std::io::stdout().flush();
        std::process::exit(0);
    }
}

/// Runs one workload/strategy pair in a killable subprocess with a
/// timeout. Falls back to in-process execution when spawning fails.
///
/// Only valid from a binary whose `main` starts with
/// [`maybe_run_child`] — the subprocess re-invokes the current executable
/// with the hidden `__run-one` protocol.
pub fn run_measured(
    workload: &Workload,
    strategy_token: &str,
    seed: u64,
    timeout: Duration,
) -> Measurement {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(_) => return run_in_process(workload, strategy_token, seed),
    };
    let child = Command::new(exe)
        .arg("__run-one")
        .arg(workload.spec())
        .arg(strategy_token)
        .arg(seed.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(_) => return run_in_process(workload, strategy_token, seed),
    };
    let started = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                let mut output = String::new();
                if let Some(mut stdout) = child.stdout.take() {
                    use std::io::Read as _;
                    let _ = stdout.read_to_string(&mut output);
                }
                if !status.success() {
                    // Treat crashes like timeouts so a table row still prints.
                    return Measurement::TimedOut {
                        limit: started.elapsed().as_secs_f64(),
                    };
                }
                let seconds = output
                    .lines()
                    .rev()
                    .find_map(|l| l.strip_prefix("RESULT "))
                    .and_then(|s| s.trim().parse::<f64>().ok())
                    .unwrap_or_else(|| started.elapsed().as_secs_f64());
                let cache_json = output
                    .lines()
                    .rev()
                    .find_map(|l| l.strip_prefix("CACHE "))
                    .map(|s| s.trim().to_string());
                let counters_json = output
                    .lines()
                    .rev()
                    .find_map(|l| l.strip_prefix("COUNTERS "))
                    .map(|s| s.trim().to_string());
                return Measurement::Completed {
                    seconds,
                    cache_json,
                    counters_json,
                };
            }
            Ok(None) => {
                if started.elapsed() >= timeout {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Measurement::TimedOut {
                        limit: timeout.as_secs_f64(),
                    };
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => {
                return Measurement::TimedOut {
                    limit: timeout.as_secs_f64(),
                };
            }
        }
    }
}

fn run_in_process(workload: &Workload, strategy_token: &str, seed: u64) -> Measurement {
    let started = Instant::now();
    let stats = execute(workload, strategy_token, seed);
    Measurement::Completed {
        seconds: started.elapsed().as_secs_f64(),
        cache_json: Some(cache_json(&stats.cache)),
        counters_json: Some(counters_json(&stats)),
    }
}

/// Common CLI options for the harness binaries.
#[derive(Clone, Copy, Debug)]
pub struct HarnessOptions {
    /// Instance scale.
    pub scale: Scale,
    /// Per-run timeout.
    pub timeout: Duration,
    /// Measurement seed.
    pub seed: u64,
}

/// Parses `--full`, `--timeout <secs>`, and `--seed <n>` from the
/// command line (ignoring the hidden child protocol).
pub fn parse_harness_options() -> HarnessOptions {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let mut timeout = if full { 7200.0 } else { 60.0 };
    let mut seed = 0u64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--timeout" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    timeout = v;
                    i += 1;
                }
            }
            "--seed" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    seed = v;
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    HarnessOptions {
        scale: if full { Scale::Paper } else { Scale::Quick },
        timeout: Duration::from_secs_f64(timeout),
        seed,
    }
}

/// Geometric mean of speed-ups (the paper's average lines in Figs. 8/9),
/// ignoring entries where either side timed out.
pub fn geometric_mean_speedup(pairs: &[(Measurement, Measurement)]) -> Option<f64> {
    let mut log_sum = 0.0f64;
    let mut count = 0usize;
    for (baseline, candidate) in pairs {
        if let (Some(b), Some(c)) = (baseline.seconds(), candidate.seconds()) {
            if b > 0.0 && c > 0.0 {
                log_sum += (b / c).ln();
                count += 1;
            }
        }
    }
    if count == 0 {
        None
    } else {
        Some((log_sum / count as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_spec_roundtrip() {
        for w in [
            Workload::Grover {
                qubits: 15,
                marked: 7,
            },
            Workload::Shor {
                modulus: 33,
                base: 5,
            },
            Workload::Supremacy {
                rows: 3,
                cols: 4,
                depth: 9,
                seed: 1,
            },
        ] {
            assert_eq!(parse_workload(&w.spec()), w);
        }
    }

    #[test]
    fn names_follow_paper_convention() {
        assert_eq!(
            Workload::Grover {
                qubits: 23,
                marked: 0
            }
            .name(),
            "grover_23"
        );
        assert_eq!(
            Workload::Shor {
                modulus: 1007,
                base: 602
            }
            .name(),
            "shor_1007_602_23"
        );
        assert_eq!(
            Workload::Supremacy {
                rows: 4,
                cols: 5,
                depth: 25,
                seed: 0
            }
            .name(),
            "supremacy_25_20"
        );
    }

    #[test]
    fn execute_runs_quick_workloads() {
        let w = Workload::Grover {
            qubits: 5,
            marked: 1,
        };
        let stats = execute(&w, "sequential", 0);
        assert!(stats.mat_vec_mults > 0);
        let stats = execute(&w, "kops:4", 0);
        assert!(stats.mat_mat_mults > 0);
        let shor = Workload::Shor {
            modulus: 15,
            base: 7,
        };
        let stats = execute(&shor, "ddconstruct", 0);
        assert!(stats.mat_vec_mults > 0);
    }

    fn completed(seconds: f64) -> Measurement {
        Measurement::Completed {
            seconds,
            cache_json: None,
            counters_json: None,
        }
    }

    #[test]
    fn geometric_mean_ignores_timeouts() {
        let pairs = vec![
            (completed(4.0), completed(1.0)),
            (completed(1.0), Measurement::TimedOut { limit: 10.0 }),
        ];
        let g = geometric_mean_speedup(&pairs).expect("one valid pair");
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_display_matches_paper_format() {
        assert_eq!(completed(13.77).display(), "13.77");
        assert_eq!(
            Measurement::TimedOut { limit: 7200.0 }.display(),
            ">7200.00"
        );
    }

    #[test]
    fn cache_json_lists_every_table() {
        let stats = execute(
            &Workload::Grover {
                qubits: 5,
                marked: 1,
            },
            "sequential",
            0,
        );
        let json = cache_json(&stats.cache);
        for table in [
            "add_vec",
            "add_mat",
            "mat_vec",
            "mat_mat",
            "conj_transpose",
            "kron_vec",
            "kron_mat",
            "apply_gate",
            "vec_unique",
            "mat_unique",
        ] {
            assert!(json.contains(&format!("\"{table}\":{{")), "missing {table}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Sequential gate application routes through the specialized
        // kernels, so the apply-gate cache must have seen the traffic.
        assert!(stats.cache.apply_gate.lookups > 0);
    }

    #[test]
    fn counters_json_reports_specialized_applies() {
        let stats = execute(
            &Workload::Grover {
                qubits: 5,
                marked: 1,
            },
            "sequential",
            0,
        );
        let json = counters_json(&stats);
        assert!(json.contains(&format!("\"mat_vec_mults\":{}", stats.mat_vec_mults)));
        assert!(json.contains(&format!(
            "\"specialized_applies\":{}",
            stats.specialized_applies
        )));
        assert!(stats.specialized_applies > 0);
        assert!(json.contains("\"identity_skips\":"));
    }

    #[test]
    fn run_json_embeds_the_cache_object() {
        let m = Measurement::Completed {
            seconds: 1.25,
            cache_json: Some("{\"x\":1}".to_string()),
            counters_json: Some("{\"y\":2}".to_string()),
        };
        let line = run_json("grover_5", "sequential", &m);
        assert!(line.contains("\"benchmark\":\"grover_5\""));
        assert!(line.contains("\"seconds\":1.250000"));
        assert!(line.contains("\"timed_out\":false"));
        assert!(line.contains("\"cache\":{\"x\":1}"));
        assert!(line.contains("\"counters\":{\"y\":2}"));
        let t = run_json("g", "s", &Measurement::TimedOut { limit: 60.0 });
        assert!(t.contains("\"timed_out\":true"));
        assert!(t.contains("\"cache\":null"));
        assert!(t.contains("\"counters\":null"));
    }
}

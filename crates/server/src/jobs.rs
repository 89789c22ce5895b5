//! Job options, lifecycle states, and the execution routine a worker
//! lane runs.
//!
//! Execution is **deterministic**: one job = one single-threaded
//! [`Simulator`] seeded from the job's options, so a job resumed from a
//! checkpoint — or re-run from scratch after a crash — produces the
//! byte-identical result text. Parallelism lives *across* jobs (the
//! worker pool), never inside one.

use std::path::Path;
use std::time::Duration;

use ddsim_circuit::qasm::{parse_with_limits, ParseLimits};
use ddsim_core::{
    CancelToken, CheckpointConfig, DdConfig, SimError, SimOptions, Simulator, Strategy,
};

/// Per-job options parsed from the `SUBMIT` header's `key=value` pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOptions {
    /// Measurement seed (determinism anchor).
    pub seed: u64,
    /// Shots for the counts read-out.
    pub shots: u32,
    /// Combining strategy.
    pub strategy: Strategy,
    /// Per-job live-node budget; 0 means the server default applies.
    pub max_nodes: u64,
    /// Wall-clock budget in milliseconds; 0 disables.
    pub deadline_ms: u64,
    /// Checkpoint every N executed ops; 0 disables checkpointing (the
    /// job then restarts from scratch after a crash or eviction — still
    /// correct, just slower).
    pub ckpt_every: u64,
    /// Test-only fault injection (requires `--enable-test-faults`).
    pub fault: Option<FaultSpec>,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            seed: 0,
            shots: 1024,
            strategy: Strategy::Sequential,
            max_nodes: 0,
            deadline_ms: 0,
            ckpt_every: 0,
            fault: None,
        }
    }
}

/// Deterministic fault injection for the supervision tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// Panic at the start of every attempt numbered `< until_attempt`
    /// (attempts count from 0), succeed afterwards. `panic:255` never
    /// stops panicking — the retries-exhausted scenario.
    Panic {
        /// First attempt number that does NOT panic.
        until_attempt: u32,
    },
}

impl JobOptions {
    /// Parses `SUBMIT` option pairs. `allow_faults` gates the test-only
    /// `fault=` key so production servers cannot be panicked to order.
    pub fn parse(pairs: &[(String, String)], allow_faults: bool) -> Result<JobOptions, String> {
        let mut o = JobOptions::default();
        for (k, v) in pairs {
            match k.as_str() {
                "seed" => o.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?,
                "shots" => {
                    o.shots = v.parse().map_err(|_| format!("bad shots `{v}`"))?;
                    if o.shots > 1_000_000 {
                        return Err("shots capped at 1000000".into());
                    }
                }
                "strategy" => o.strategy = v.parse().map_err(|e| format!("{e}"))?,
                "max_nodes" => {
                    o.max_nodes = v.parse().map_err(|_| format!("bad max_nodes `{v}`"))?
                }
                "deadline_ms" => {
                    o.deadline_ms = v.parse().map_err(|_| format!("bad deadline_ms `{v}`"))?
                }
                "ckpt_every" => {
                    o.ckpt_every = v.parse().map_err(|_| format!("bad ckpt_every `{v}`"))?
                }
                "fault" => {
                    if !allow_faults {
                        return Err("fault injection is disabled on this server".into());
                    }
                    o.fault = Some(parse_fault(v)?);
                }
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(o)
    }

    /// The fault spec's journal rendering (`-` when absent).
    pub fn fault_spec(&self) -> String {
        match self.fault {
            None => "-".into(),
            Some(FaultSpec::Panic { until_attempt }) => format!("panic:{until_attempt}"),
        }
    }
}

/// Parses `panic:N`.
pub fn parse_fault(spec: &str) -> Result<FaultSpec, String> {
    match spec.split_once(':') {
        Some(("panic", n)) => n
            .parse()
            .map(|until_attempt| FaultSpec::Panic { until_attempt })
            .map_err(|_| format!("bad fault attempt count `{n}`")),
        _ => Err(format!("unknown fault `{spec}` (expected panic:N)")),
    }
}

/// A job's lifecycle state. `Queued → Running → {Done, Failed,
/// Cancelled}`, with `Running → Queued` edges for eviction (suspend) and
/// retry-with-backoff. Terminal states never transition again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and journaled, waiting for a worker lane.
    Queued,
    /// On a worker lane.
    Running,
    /// Completed; the result is in the journal.
    Done,
    /// Terminal typed failure (retries exhausted or deterministic error).
    Failed,
    /// Cancelled by the client.
    Cancelled,
}

impl JobState {
    /// Journal/protocol rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Result<JobState, String> {
        Ok(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            other => return Err(format!("unknown job state `{other}`")),
        })
    }

    /// Whether the state can never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Maps a [`SimError`] onto the CLI's documented exit-code taxonomy —
/// the `FAILED <code>` responses reuse the same numbers, so one table
/// serves both surfaces.
pub fn error_code(e: &SimError) -> u8 {
    match e {
        SimError::BudgetExceeded { .. } => 2,
        SimError::DeadlineExceeded => 3,
        SimError::Cancelled => 4,
        SimError::WidthMismatch { .. } => 5,
        SimError::Snapshot(_) => 6,
        SimError::Suspended => 7,
        SimError::Internal(_) => 1,
    }
}

/// Whether a failure is worth retrying. Deterministic rejections
/// (budget, deadline, width, cancellation) would fail identically on
/// every attempt; checkpoint I/O and internal errors (including
/// contained panics, which arrive as `Internal`) may be transient.
pub fn retryable(e: &SimError) -> bool {
    matches!(e, SimError::Snapshot(_) | SimError::Internal(_))
}

/// Runs one attempt of a job to completion, suspension, or error.
///
/// * `ckpt_path` — the job's checkpoint file; resumed from when present
///   and valid, written every `ckpt_every` ops (and on suspension).
/// * `suspend` / `cancel` — the supervisor's cooperative tokens.
/// * `effective_max_nodes` — the admission-controlled node budget
///   (option value or server default); 0 disables.
/// * `attempt` — this attempt's number, consumed by fault injection.
///
/// Returns the deterministic result text on success.
pub fn execute(
    qasm: &str,
    opts: &JobOptions,
    ckpt_path: &Path,
    suspend: CancelToken,
    cancel: CancelToken,
    effective_max_nodes: u64,
    attempt: u32,
) -> Result<String, SimError> {
    if let Some(FaultSpec::Panic { until_attempt }) = opts.fault {
        if attempt < until_attempt {
            panic!("injected test fault (attempt {attempt} < {until_attempt})");
        }
    }
    let circuit = parse_with_limits(qasm, &ParseLimits::UNTRUSTED)
        .map_err(|e| SimError::Internal(format!("journaled QASM no longer parses: {e}")))?;
    let sim_options = SimOptions {
        strategy: opts.strategy,
        seed: opts.seed,
        dd_config: DdConfig {
            max_live_nodes: match effective_max_nodes {
                0 => None,
                n => Some(n as usize),
            },
            ..DdConfig::default()
        },
        deadline: match opts.deadline_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        ..SimOptions::default()
    };
    let ckpt_cfg = (opts.ckpt_every > 0).then(|| CheckpointConfig {
        every_ops: opts.ckpt_every,
        path: ckpt_path.to_path_buf(),
    });

    // Resume from a valid checkpoint; a missing, corrupt, or
    // wrong-circuit file falls back to a fresh run (the deterministic
    // engine converges to the same result either way).
    let (mut sim, start_op) = match Simulator::resume_from(ckpt_path, &circuit, sim_options) {
        Ok((sim, at)) => (sim, at),
        Err(_) => (Simulator::with_options(circuit.qubits(), sim_options), 0),
    };
    sim.set_cancel_token(Some(cancel));
    sim.set_suspend_token(Some(suspend));
    sim.run_from(&circuit, start_op, ckpt_cfg.as_ref())?;

    // Deterministic result text: sorted counts, fixed header.
    let mut counts: Vec<(u64, u32)> = sim.sample_counts(opts.shots).into_iter().collect();
    counts.sort_unstable();
    let mut out = format!(
        "counts qubits={} shots={} nodes={}",
        sim.qubits(),
        opts.shots,
        sim.state_nodes()
    );
    for (outcome, count) in counts {
        out.push_str(&format!("\n{outcome} {count}"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BELL: &str = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";

    fn pairs(kv: &[(&str, &str)]) -> Vec<(String, String)> {
        kv.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn options_parse_and_reject() {
        let o = JobOptions::parse(
            &pairs(&[
                ("seed", "7"),
                ("shots", "64"),
                ("strategy", "kops:4"),
                ("max_nodes", "1000"),
                ("deadline_ms", "2000"),
                ("ckpt_every", "3"),
            ]),
            false,
        )
        .unwrap();
        assert_eq!(o.seed, 7);
        assert_eq!(o.shots, 64);
        assert_eq!(o.strategy, Strategy::KOperations { k: 4 });
        assert_eq!(o.max_nodes, 1000);
        assert!(JobOptions::parse(&pairs(&[("bogus", "1")]), false).is_err());
        assert!(JobOptions::parse(&pairs(&[("shots", "2000000")]), false).is_err());
        assert!(
            JobOptions::parse(&pairs(&[("fault", "panic:1")]), false).is_err(),
            "faults must be gated"
        );
        let o = JobOptions::parse(&pairs(&[("fault", "panic:2")]), true).unwrap();
        assert_eq!(o.fault, Some(FaultSpec::Panic { until_attempt: 2 }));
    }

    #[test]
    fn execute_is_deterministic_per_seed() {
        let dir = std::env::temp_dir().join(format!("ddsim-jobs-det-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = JobOptions {
            seed: 5,
            shots: 128,
            ..JobOptions::default()
        };
        let run = || {
            execute(
                BELL,
                &opts,
                &dir.join("never-written.ckpt"),
                CancelToken::new(),
                CancelToken::new(),
                0,
                0,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must give byte-identical results");
        assert!(a.starts_with("counts qubits=2 shots=128"));
        let other = execute(
            BELL,
            &JobOptions {
                seed: 6,
                shots: 128,
                ..JobOptions::default()
            },
            &dir.join("never-written.ckpt"),
            CancelToken::new(),
            CancelToken::new(),
            0,
            0,
        )
        .unwrap();
        assert_ne!(a, other, "different seeds should differ for a Bell pair");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_panics_fire_per_attempt() {
        let opts = JobOptions {
            fault: Some(FaultSpec::Panic { until_attempt: 2 }),
            ..JobOptions::default()
        };
        let tmp = std::env::temp_dir().join("ddsim-jobs-fault.ckpt");
        for attempt in 0..2 {
            let r = std::panic::catch_unwind(|| {
                execute(
                    BELL,
                    &opts,
                    &tmp,
                    CancelToken::new(),
                    CancelToken::new(),
                    0,
                    attempt,
                )
            });
            assert!(r.is_err(), "attempt {attempt} must panic");
        }
        let r = std::panic::catch_unwind(|| {
            execute(
                BELL,
                &opts,
                &tmp,
                CancelToken::new(),
                CancelToken::new(),
                0,
                2,
            )
        });
        assert!(r.unwrap().is_ok(), "attempt 2 must succeed");
    }

    #[test]
    fn budget_and_cancel_surface_typed() {
        // Budget enforcement is amortized *inside* governed ops (the
        // degradation ladder is its rescue path, see DdManager::charge),
        // so the breach circuit must be pseudo-random enough to grow the
        // DD well past the budget and run single ops long enough for a
        // charge point to land mid-op. A Bell pair finishes between
        // charge points — by design, not a leak.
        let mut src = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[12];\n");
        for q in 0..12 {
            src.push_str(&format!("h q[{q}];\n"));
        }
        for layer in 0..16 {
            for q in 0..12 {
                let angle = 0.37 + 0.11 * (layer * 12 + q) as f64;
                src.push_str(&format!("rz({angle}) q[{q}];\n"));
            }
            for q in 0..11 {
                src.push_str(&format!("cx q[{q}],q[{}];\n", q + 1));
            }
            for q in 0..12 {
                src.push_str(&format!("h q[{q}];\n"));
            }
        }
        let e = execute(
            &src,
            &JobOptions::default(),
            Path::new("/nonexistent/x.ckpt"),
            CancelToken::new(),
            CancelToken::new(),
            1,
            0,
        )
        .unwrap_err();
        assert_eq!(error_code(&e), 2, "budget failure, got {e:?}");
        assert!(!retryable(&e), "budget failures are deterministic");

        let cancel = CancelToken::new();
        cancel.cancel();
        let e = execute(
            BELL,
            &JobOptions::default(),
            Path::new("/nonexistent/x.ckpt"),
            CancelToken::new(),
            cancel,
            0,
            0,
        )
        .unwrap_err();
        assert_eq!(e, SimError::Cancelled);
    }
}

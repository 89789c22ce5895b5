//! Worker of the paper-suite benchmark. One invocation does one job and
//! prints one JSON line:
//!
//! ```text
//! perfbench setup  --workload W --repeats R
//! perfbench engine --workload W --arm A
//! perfbench trace  --workload W --arm A --budget SECONDS
//! ```
//!
//! `setup` times circuit generation and reference building; `engine` runs
//! one arm untraced and checks its result (both also report the calibration
//! kernel's time, run before and after them); `trace` replays the arm's gate
//! stream with every DD call timed, then runs the engine once more and
//! compares counts and final states.

use std::process::ExitCode;
use std::time::Duration;

use ddsim_complex::Complex;
use perfbench::arms::{run_engine, Arm};
use perfbench::clock::calibrate;
use perfbench::json::Object;
use perfbench::replay::{replay, Layer, ReplayReport};
use perfbench::workload::{Kind, Workload};

struct Args {
    mode: String,
    kind: Kind,
    arm: Option<Arm>,
    repeats: usize,
    budget: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode (setup, engine or trace)")?;
    let (mut kind, mut arm, mut repeats, mut budget) = (None, None, 5, 60.0);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("workload"))?),
            "--arm" => arm = Some(Arm::parse(&value).ok_or_else(|| bad("arm"))?),
            "--repeats" => repeats = value.parse().map_err(|_| bad("repeat count"))?,
            "--budget" => budget = value.parse().map_err(|_| bad("budget"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let budget: f64 = budget;
    if !(budget > 0.0 && budget.is_finite()) || repeats == 0 {
        return Err("budget and repeats must be positive".to_string());
    }
    Ok(Args {
        mode,
        kind: kind.ok_or("missing --workload")?,
        arm,
        repeats,
        budget: Duration::from_secs_f64(budget),
    })
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so the
/// calibration kernel's table does not count in the peak that follows.
fn reset_peak_rss() {
    // Best effort: without it the peak also covers the kernel.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn hit_rate(t: ddsim_dd::TableStats) -> f64 {
    if t.lookups == 0 {
        f64::NAN
    } else {
        t.hits as f64 / t.lookups as f64
    }
}

/// Set-up times, with the calibration kernel's time around them.
fn setup(args: &Args) -> Object {
    let before = calibrate();
    let (mut total, mut generate, mut flatten) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..args.repeats {
        let (_, t) = Workload::build(args.kind);
        total.push(t.total());
        generate.push(t.generate_s);
        flatten.push(t.flatten_s);
    }
    let mut o = Object::new();
    o.nums("setup_s", &total)
        .nums("generate_s", &generate)
        .nums("flatten_s", &flatten)
        .num("calibration_s", (before + calibrate()) / 2.0);
    o
}

/// One untraced arm run, with the calibration kernel's time around it and
/// the peak resident set of the run alone.
fn engine(args: &Args, arm: Arm) -> Object {
    let before = calibrate();
    reset_peak_rss();
    let (workload, _) = Workload::build(args.kind);
    let run = run_engine(&workload, arm, false);
    let peak = peak_rss_mb();
    let calibration = (before + calibrate()) / 2.0;
    let mut o = Object::new();
    o.num("seconds", run.seconds)
        .num("cpu_seconds", run.cpu_seconds)
        .num("calibration_s", calibration)
        .num("peak_rss_mb", peak)
        .bool("correct", run.check.is_ok())
        .str("error", run.check.as_ref().err().map_or("", String::as_str));
    o
}

fn replay_counters(r: &ReplayReport, rss_mb: f64) -> Object {
    let cache = r.stats.cache;
    let mut o = Object::new();
    o.int("dd.mult_recursions", r.stats.mult_recursions)
        .int("dd.add_recursions", r.stats.add_recursions)
        .num("dd.cache.add_vec.hit_rate", hit_rate(cache.add_vec))
        .num("dd.cache.mat_mat.hit_rate", hit_rate(cache.mat_mat))
        .num("dd.cache.apply_gate.hit_rate", hit_rate(cache.apply_gate))
        .int("complex.distinct_weights", r.distinct_weights as u64)
        .int("dd.tracked_bytes", r.tracked_bytes as u64)
        .num("rss_mb", rss_mb)
        .int("dd.peak_matrix_nodes", r.peak_matrix_nodes as u64)
        .int("dd.final_state_nodes", r.final_state_nodes as u64);
    o
}

fn trace(args: &Args, arm: Arm) -> Object {
    let (workload, _) = Workload::build(args.kind);
    let mut o = Object::new();
    let Some(strategy) = arm.strategy() else {
        // DD-construct has no gate stream to replay: report its own
        // counters and the process peak.
        let run = run_engine(&workload, arm, false);
        let mut counters = Object::new();
        counters
            .num("rss_mb", peak_rss_mb())
            .int("dd.final_state_nodes", run.stats.final_state_nodes as u64);
        o.bool("replayable", false)
            .bool("censored", false)
            .num("engine_s", run.seconds)
            .bool("correct", run.check.is_ok())
            .str("error", run.check.as_ref().err().map_or("", String::as_str))
            .obj("counters", &counters);
        return o;
    };
    let report = replay(
        &workload.circuit,
        strategy,
        workload.seed,
        arm.threads() as usize,
        args.budget,
        true,
    );
    let rss_mb = peak_rss_mb();
    let mut layers = Object::new();
    for layer in Layer::ALL {
        let total = report.total(layer);
        let mut l = Object::new();
        l.num("s", total.seconds).int("calls", total.calls);
        layers.obj(layer.name(), &l);
    }
    o.bool("replayable", true)
        .bool("censored", report.censored)
        .num("replay_s", report.seconds)
        .obj("layers", &layers)
        .obj("counters", &replay_counters(&report, rss_mb));
    if report.censored {
        return o;
    }
    // The engine run the replay must agree with.
    let run = run_engine(&workload, arm, true);
    let replayed = report.amplitudes.as_deref().unwrap_or_default();
    let engine_state = run.amplitudes.as_deref().unwrap_or_default();
    let distance = if replayed.len() == engine_state.len() {
        replayed
            .iter()
            .zip(engine_state)
            .map(|(x, y)| (*x - *y).norm_sqr().sqrt())
            .fold(0.0, f64::max)
    } else {
        f64::INFINITY
    };
    let replay_check = workload.reference.check_state(
        |i| replayed.get(i as usize).copied().unwrap_or(Complex::ZERO),
        report.classical,
    );
    let mut engine = Object::new();
    engine
        .int("mxv", run.stats.mat_vec_mults)
        .int("mxm", run.stats.mat_mat_mults)
        .int("specialized", run.stats.specialized_applies)
        .int("peak_matrix_nodes", run.stats.peak_matrix_nodes as u64);
    o.num("engine_s", run.seconds)
        .obj("engine", &engine)
        .num("state_distance", distance)
        .bool("correct", run.check.is_ok() && replay_check.is_ok())
        .str(
            "error",
            run.check
                .as_ref()
                .err()
                .or(replay_check.as_ref().err())
                .map_or("", String::as_str),
        );
    o
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match (args.mode.as_str(), args.arm) {
        ("setup", _) => setup(&args),
        ("engine", Some(arm)) => engine(&args, arm),
        ("trace", Some(arm)) => trace(&args, arm),
        (mode, _) => {
            eprintln!("perfbench: unknown mode `{mode}` or missing --arm");
            return ExitCode::from(2);
        }
    };
    println!("{}", report.render());
    ExitCode::SUCCESS
}

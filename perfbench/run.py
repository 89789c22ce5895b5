#!/usr/bin/env python3
"""Paper-suite benchmark: per-strategy time to result on `grover`, `shor`
and `supremacy`, with a traced per-layer replay.

Run from the repository root:

    python3 perfbench/run.py --workload grover --seed 1 --seconds 8 --trace 0

The script builds the worker (`perfbench/Cargo.toml`, into
`$CARGO_TARGET_DIR` or `perfbench/target`) and runs every combining
strategy ("arm") of the workload in fresh child processes, one at a time,
each under processor-time, wall-time and address-space caps. `--trace 0`
times the arms untraced (processor time, at a reference host speed; see
`Calibration`) and prints the end-to-end metrics; `--trace 1` replays each arm's
gate stream with every DD call timed and prints the per-layer metrics.
Metric names, units and the workload list come from `BENCHMARK.json`.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The arms timed untraced. `threads2` (k-operations on a two-lane pool) is
# traced only: its work depends on how the scheduler interleaves its two
# lanes (on grover its processor time moved from 2.6 to 2.0 s when two busy
# processes shared the 2-core host, and its wall time spreads by 0.5 run to
# run even on an idle one), so its time measures the host, not the code.
ARMS = ["sequential", "kops", "maxsize", "ddrepeating", "adaptive", "construct"]
TRACED_ARMS = ARMS + ["threads2"]
# Processor-time cap per arm run, in seconds at the reference speed (see
# REFERENCE_CALIBRATION_S); a run past it is killed and censored. Processor
# time, unlike wall time, does not grow when other work shares the host,
# and at the reference speed it does not grow when the host slows down, so
# the same arms hit the cap on every run. The cap sits well above the
# slowest arm that completes (shor's maxsize, 4.6-5.4 s).
CPU_CAP_S = 8.5
# Wall-time backstop for a child that stalls (or waits: the processor-time
# cap does not count waiting), far enough above the cap that a busy host
# does not reach it.
WALL_CAP_S = 6 * CPU_CAP_S
# How often a running child's processor time is checked against its cap.
POLL_S = 0.1
# Address-space cap per child (RLIMIT_AS).
ADDRESS_SPACE_BYTES = 3 << 30
# Times are reported in units of the calibration kernel
# (`perfbench/src/clock.rs`), which every timing child runs right before and
# right after its measurement: processor seconds at the speed at which the
# kernel takes this long. On the 2-core host the benchmark was sized on the
# kernel took 0.037-0.051 s as the host's speed changed.
REFERENCE_CALIBRATION_S = 0.05
# Nominal processor seconds of one repetition of each arm that completes,
# measured on the 2-core host the benchmark was sized on. They only fix how
# many repetitions each arm gets (see `repetitions`); an arm missing here is
# expected to hit the cap.
NOMINAL_CPU_S = {
    "grover": {
        "sequential": 0.20, "kops": 0.14, "ddrepeating": 0.094,
        "adaptive": 0.18, "construct": 0.065,
    },
    "shor": {"kops": 1.95, "maxsize": 2.9, "ddrepeating": 1.95, "construct": 0.014},
    "supremacy": {
        "sequential": 2.4, "kops": 1.65, "maxsize": 0.73, "ddrepeating": 1.65,
        "adaptive": 0.75, "construct": 0.082,
    },
}
# Repetitions an arm that completes gets, at least and at most.
MIN_REPS = 2
MAX_REPS = 20
# Set-up repetitions per benchmark run, spread over several processes
# (the median is reported).
SETUP_PROCESSES = 5
SETUP_REPEATS = 9
# The traced replay's own (wall-time) deadline, and the wall-time cap of a
# traced child, which replays up to that deadline and then runs the engine
# once more, uncapped: on shor, threads2's replay ends near the deadline
# and its engine run takes about 19 s on two lanes. A shor traced run stays
# well within 180 s.
REPLAY_BUDGET_S = 2 * CPU_CAP_S
TRACE_WALL_CAP_S = 80
# Largest amplitude distance between a replay and its engine run.
STATE_TOLERANCE = 1e-9


def log(line=""):
    print(line, flush=True)


# --------------------------------------------------------------------------
# Result line: the contract's last line of output.


def format_result(correct, attempted, failed, metrics):
    """The final JSON line. `metrics` maps name -> (value, unit)."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
        allow_nan=False,
    )


def parse_result(line):
    """Parses and checks a final JSON line; inverse of `format_result`."""
    obj = json.loads(line)
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(obj)}")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            raise ValueError(f"{key} must be a whole number")
    if obj["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    metrics = {}
    for name, m in obj["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError(f"malformed metric {name}")
        metrics[name] = (float(m["value"]), m["unit"])
    return obj["correct"], obj["attempted"], obj["failed"], metrics


def metric_line(name, value, unit, samples):
    return f"metric {name} {value!r} {unit} n={samples}"


# --------------------------------------------------------------------------
# Child processes under caps.


class Child:
    """Outcome of one capped child run."""

    def __init__(self, status, wall_s, cpu_s, rss_mb, stdout, stderr):
        self.status = status  # "ok", "cpu", "timeout" or "crash"
        self.wall_s = wall_s
        self.cpu_s = cpu_s  # the child's own processor time (user + system)
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr

    @property
    def censored(self):
        return self.status != "ok"

    def report(self):
        """The child's one-line JSON report."""
        return json.loads(self.stdout.strip().splitlines()[-1])

    def why(self):
        if self.status == "cpu":
            return "processor-time cap"
        if self.status == "timeout":
            return "wall-time cap"
        tail = self.stderr.strip().splitlines()[-1:] or ["no message"]
        return f"crash ({tail[0][:120]})"


def child_cpu_seconds(pid):
    """Processor time (user + system) a running child has used so far, in
    clock ticks' resolution; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def spawn(argv, wall_cap_s, cpu_cap_s=None, address_space=ADDRESS_SPACE_BYTES):
    """Runs `argv` under a wall-time cap, an optional processor-time cap and
    an address-space cap, and returns its output with its own processor time
    and peak resident set (from `wait4`). The processor-time cap is checked
    every POLL_S from here rather than set as RLIMIT_CPU: with that limit
    armed, the kernel reads the child's own process clock at tick
    resolution only."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    started = time.monotonic()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=limit
    )
    out, err, reaped = [], [], []
    readers = [
        threading.Thread(target=lambda: out.append(proc.stdout.read())),
        threading.Thread(target=lambda: err.append(proc.stderr.read())),
    ]
    # Only this thread reaps the child, so its pid stays valid for `kill`.
    reaper = threading.Thread(target=lambda: reaped.append(os.wait4(proc.pid, 0)))
    for t in readers + [reaper]:
        t.start()
    killed = None
    while True:
        reaper.join(POLL_S)
        if not reaper.is_alive():
            break
        if time.monotonic() - started >= wall_cap_s:
            killed = "timeout"
        elif cpu_cap_s is not None and child_cpu_seconds(proc.pid) >= cpu_cap_s:
            killed = "cpu"
        if killed:
            os.kill(proc.pid, signal.SIGKILL)
            break
    for t in readers + [reaper]:
        t.join()
    wall_s = time.monotonic() - started
    _, status, usage = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    cpu_s = usage.ru_utime + usage.ru_stime
    if killed:
        state = killed
    elif proc.returncode != 0:
        state = "crash"
    else:
        state = "ok"
    return Child(
        state,
        wall_s,
        cpu_s,
        usage.ru_maxrss / 1024.0,
        out[0].decode(errors="replace"),
        err[0].decode(errors="replace"),
    )


# --------------------------------------------------------------------------
# Build and run record.


def build():
    """Builds the worker and returns its path; exits 2 when it cannot."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        sys.stderr.write("perfbench: building the worker failed\n")
        sys.exit(2)
    return os.path.join(target, "release", "perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds, so runs of the same
    code can be matched where no git metadata exists."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), HERE]
    files = [os.path.join(ROOT, "Cargo.toml")]
    for top in roots:
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in names if n.endswith((".rs", ".toml", ".lock", ".py", ".json"))]
    for f in sorted(files):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the repository the benchmark sits in, or None outside git."""
    try:
        r = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for index in sorted(os.listdir(base)):
            d = os.path.join(base, index)
            if not index.startswith("index"):
                continue
            read = lambda n: open(os.path.join(d, n)).read().strip()  # noqa: E731
            kind = {"Data": "d", "Instruction": "i", "Unified": ""}.get(read("type"), "?")
            sizes[f"L{read('level')}{kind}"] = read("size")
    except OSError:
        pass
    return sizes


def run_record(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "cpu_cap_s": CPU_CAP_S,
        "wall_cap_s": WALL_CAP_S,
        "address_space_gib": ADDRESS_SPACE_BYTES / (1 << 30),
    }


# --------------------------------------------------------------------------
# Runs.


def worker(binary, mode, args, *extra):
    return [binary, mode, "--workload", args.workload, *extra]


def arm_order(seed, arms):
    """The order arms are first run in. The instances are fixed (see
    README.md), so the seed shuffles the schedule instead."""
    return random.Random(seed).sample(arms, len(arms))


def at_reference_speed(seconds, calibration_s):
    """Processor seconds measured beside a calibration run of
    `calibration_s`, at the reference speed."""
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def setup(binary, args):
    """Median set-up processor times, at the reference speed, over several
    children that each set up several times, and the calibration times the
    children measured. One process runs all its set-ups at one speed (memory
    placement, clock), so the samples come from more than one."""
    pooled, calibrations = {}, []
    for _ in range(SETUP_PROCESSES):
        child = spawn(
            worker(binary, "setup", args, "--repeats", str(SETUP_REPEATS)),
            WALL_CAP_S,
            CPU_CAP_S,
        )
        if child.censored:
            sys.stderr.write(f"perfbench: set-up failed: {child.why()}\n")
            sys.exit(1)
        report = child.report()
        calibration = report.pop("calibration_s")
        calibrations.append(calibration)
        for k, v in report.items():
            pooled.setdefault(k, []).extend(at_reference_speed(x, calibration) for x in v)
    return {k: statistics.median(v) for k, v in pooled.items()}, calibrations


def repetitions(workload, seconds):
    """Repetitions per arm: an equal share of `seconds` of processor time
    over the arm's nominal cost, within MIN_REPS..MAX_REPS. They depend on
    the workload and `--seconds` only, so every run attempts the same
    operations."""
    share = seconds / len(ARMS)
    nominal = NOMINAL_CPU_S[workload]
    return {
        arm: min(MAX_REPS, max(MIN_REPS, round(share / nominal.get(arm, CPU_CAP_S))))
        for arm in ARMS
    }


def untraced(binary, args, calibrations):
    """Runs every arm its fixed number of repetitions (`repetitions`),
    always the arm furthest behind its count next, so each arm's
    repetitions spread over the whole run and one burst of load on the host
    moves few of them. An arm that hits a cap is not repeated. An arm's
    sample is the processor time of its `simulate` call and teardown, at
    the reference speed of the calibration runs around it. The cap is set,
    and a censored arm's time read, at the median speed of the run so far
    (`calibrations`, which grows)."""
    reps = repetitions(args.workload, args.seconds)
    order = arm_order(args.seed, ARMS)
    samples = {arm: [] for arm in order}
    raw = {arm: [] for arm in order}
    walls = {arm: [] for arm in order}
    rss = dict.fromkeys(order, 0.0)
    good = dict.fromkeys(order, 0)
    censored = set()
    attempted = failed = 0
    wrong = []
    while True:
        behind = [a for a in order if a not in censored and len(samples[a]) < reps[a]]
        if not behind:
            break
        arm = min(behind, key=lambda a: len(samples[a]) / reps[a])
        speed = statistics.median(calibrations)
        child = spawn(
            worker(binary, "engine", args, "--arm", arm),
            WALL_CAP_S,
            CPU_CAP_S * speed / REFERENCE_CALIBRATION_S,
        )
        attempted += 1
        if child.censored:
            failed += 1
            censored.add(arm)
            raw[arm].append(child.cpu_s)
            samples[arm].append(at_reference_speed(child.cpu_s, speed))
            walls[arm].append(child.wall_s)
            log(f"  {arm}: censored at {child.cpu_s:.3f} s of processor time ({child.why()})")
            continue
        # A killed child's peak only says where the cap cut it. The worker
        # measures its own, without the calibration kernel's table.
        report = child.report()
        rss[arm] = max(rss[arm], report["peak_rss_mb"])
        calibrations.append(report["calibration_s"])
        raw[arm].append(report["cpu_seconds"])
        samples[arm].append(at_reference_speed(report["cpu_seconds"], report["calibration_s"]))
        walls[arm].append(report["seconds"])
        if report["correct"]:
            good[arm] += 1
        else:
            failed += 1
            wrong.append(f"{arm}: {report['error']}")
            log(f"  {arm}: WRONG RESULT: {report['error']}")

    log(f"calibration kernel median {statistics.median(calibrations):.5f} s over {len(calibrations)} runs")
    log(f"{'arm':<12} {'ref_cpu_s':>10} {'cpu_s':>10} {'wall_s':>10} {'n':>3} {'peak_rss_mb':>12}  note")
    for arm in ARMS:
        note = "censored (cap)" if arm in censored else ""
        log(
            f"{arm:<12} {statistics.median(samples[arm]):>10.4f} "
            f"{statistics.median(raw[arm]):>10.4f} "
            f"{statistics.median(walls[arm]):>10.4f} {len(samples[arm]):>3} "
            f"{rss[arm]:>12.1f}  {note}"
        )
    values = {
        f"{arm}_cpu_s": (statistics.median(samples[arm]), len(samples[arm])) for arm in ARMS
    }
    values["peak_rss_mb"] = (max(rss.values()), attempted - len(censored))
    # Per arm, so the fraction does not depend on the repetition counts.
    values["completed_frac"] = (
        statistics.mean(good[a] / len(samples[a]) for a in ARMS),
        len(ARMS),
    )
    return values, attempted, failed, not wrong


def layer_value(report, rest):
    """A per-layer metric of one arm from its trace report, or None."""
    if rest.endswith("_s") and rest[:-2] in report.get("layers", {}):
        return report["layers"][rest[:-2]]["s"]
    if rest.endswith(".calls") and rest[: -len(".calls")] in report.get("layers", {}):
        return report["layers"][rest[: -len(".calls")]]["calls"]
    return report.get("counters", {}).get(rest)


def validate(arm, report, reports):
    """Replay-versus-engine agreement: a list of problems (empty if valid)."""
    layers, engine = report["layers"], report["engine"]
    mxv = layers["dd.mxv"]["calls"] + layers["dd.apply"]["calls"]
    mxm = layers["dd.mxm"]["calls"]
    apply_calls = layers["dd.apply"]["calls"]
    if arm == "threads2":
        # Threaded engine counters absorb every worker task's work, so the
        # replay is held to the one-thread engine counts of `kops`.
        kops = reports.get("kops")
        if not kops or "engine" not in kops:
            return ["no completed kops run to compare against"]
        engine = kops["engine"]
    problems = []
    for what, got, want in (
        ("MxV", mxv, engine["mxv"]),
        ("MxM", mxm, engine["mxm"]),
        ("specialized", apply_calls, engine["specialized"]),
    ):
        if got != want:
            problems.append(f"{what} replay {got} != engine {want}")
    if not report["state_distance"] <= STATE_TOLERANCE:
        problems.append(f"final state off by {report['state_distance']}")
    return problems


def traced(binary, args, spec, setup_times):
    attempted = failed = 0
    correct = True
    reports = {}
    overhead = 0.0
    for arm in arm_order(args.seed, TRACED_ARMS):
        child = spawn(
            worker(binary, "trace", args, "--arm", arm, "--budget", str(REPLAY_BUDGET_S)),
            TRACE_WALL_CAP_S,
        )
        attempted += 1
        if child.censored:
            failed += 1
            log(f"  {arm}: trace child failed ({child.why()})")
            continue
        report = reports[arm] = child.report()
        if not report.get("correct", True):
            failed += 1
            correct = False
            log(f"  {arm}: WRONG RESULT: {report['error']}")
        if report["censored"]:
            failed += 1
            log(f"  {arm}: replay censored at its {REPLAY_BUDGET_S:g} s deadline (spans up to the cut)")
    for arm in TRACED_ARMS:
        report = reports.get(arm)
        if not report or not report["replayable"] or report["censored"]:
            continue
        problems = validate(arm, report, reports)
        if problems:
            failed += 1
            correct = False
            log(f"  {arm}: replay INVALID: {'; '.join(problems)}")
        else:
            log(f"  {arm}: replay valid (counts equal, state within {STATE_TOLERANCE:g})")
        engine = report["engine"]
        log(
            f"  {arm}: peak_matrix_nodes engine={engine['peak_matrix_nodes']} "
            f"replay={report['counters']['dd.peak_matrix_nodes']}; "
            f"traced {report['replay_s']:.4f} s vs untraced {report['engine_s']:.4f} s"
        )
        overhead += report["replay_s"] - report["engine_s"]
    if "threads2" in reports and "engine" in reports["threads2"] and "engine" in reports.get("kops", {}):
        t2, k = reports["threads2"]["engine"], reports["kops"]["engine"]
        log(
            f"  threads2 engine counts MxV={t2['mxv']} MxM={t2['mxm']} "
            f"vs one thread (kops) MxV={k['mxv']} MxM={k['mxm']}"
        )
    workload_values = {
        "algorithms.generate_s": setup_times["generate_s"],
        "circuit.flatten_s": setup_times["flatten_s"],
        "trace.overhead_s": overhead,
    }
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        arm, _, rest = name.partition(".")
        if name in workload_values:
            value = workload_values[name]
        elif arm in reports:
            value = layer_value(reports[arm], rest)
        else:
            value = None
        if value is None:
            log(f"  missing per-layer metric {name}")
            continue
        values[name] = (value, 1)
    return values, attempted, failed, correct


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        p.error(f"unknown workload {args.workload}")
    binary = build()
    log("run-record " + json.dumps(run_record(args), sort_keys=True))
    setup_times, calibrations = setup(binary, args)
    if args.trace:
        values, attempted, failed, correct = traced(binary, args, spec, setup_times)
        listed = spec["per_layer"]
    else:
        values, attempted, failed, correct = untraced(binary, args, calibrations)
        values["setup_s"] = (setup_times["setup_s"], SETUP_PROCESSES * SETUP_REPEATS)
        listed = spec["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] in values:
            value, samples = values[m["name"]]
            metrics[m["name"]] = (value, m["unit"])
            log(metric_line(m["name"], value, m["unit"], samples))
    log(f"attempted {attempted} failed {failed} correct {str(correct).lower()}")
    line = format_result(correct, attempted, failed, metrics)
    parse_result(line)
    log(line)


if __name__ == "__main__":
    main()

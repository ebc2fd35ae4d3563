#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Spider simulator.

    python3 spiderbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds `spiderbench` (the Rust
half, in this directory) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the short same-program check, then repeats whole
reps of the workload for about S seconds (each experiment of a rep runs
in a process of its own):

* `--trace 0`: untraced runs only; prints the end-to-end metrics.
* `--trace 1`: untraced and traced runs alternate; prints the per-layer
  metrics, including what the tracing itself cost.

Every run of one workload and seed must give the same report. Each
workload prints two stdout lines: its provenance (git rev, source digest,
seed, rep counts, CPU counts), then its result as one JSON object.
`--workload all` runs every workload in turn. See README.md in this
directory for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("spiderbench", "Cargo.toml")
# The workloads and metrics, named and given units in one place.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

# Hook-count pins of the wrapper fidelity check: where the engine must
# elide `on_unit_outcome` (the scheme declares it a no-op), and which
# workloads run a prewarming scheme.
OUTCOME_HOOK_ELIDED = {"isp-lockstep-waterfilling"}
PREWARMS = set(WORKLOADS)

MIN_PLAIN_REPS = 3
MIN_TRACED_PAIRS = 2
REP_TIMEOUT_S = 150
# A rep during which the hypervisor stole more than this share of a CPU
# measures the host, not the program: timings come from the other reps.
MAX_STEAL = 0.03

# The layers a traced run's wall time is made of; what they leave over is
# `trace.unattributed_s`.
LAYERS = [
    "topology.build_s",
    "workload.generate_s",
    "core.scheme_build_s",
    "sim.new_s",
    "sim.run_s",
    "sim.conservation_check_s",
]


class BenchError(Exception):
    pass


def build():
    """Builds the Rust half and returns the path of its binary."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release", "spiderbench")


def call(binary, *args):
    """Runs the binary once and returns its last stdout line as JSON."""
    try:
        done = subprocess.run(
            [binary, *args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"spiderbench {' '.join(args)}: timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"spiderbench {' '.join(args)}: exit {done.returncode}")
    return json.loads(lines[-1])


def git_rev():
    """The commit of the checkout, when it is a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def source_digest():
    """sha256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "spiderbench"]
    paths = []
    for r in roots:
        full = os.path.join(ROOT, r)
        if os.path.isfile(full):
            paths.append(r)
        for d, dirs, files in os.walk(full):
            dirs[:] = sorted(x for x in dirs if x != "target" and not x.startswith("."))
            paths.extend(os.path.relpath(os.path.join(d, f), ROOT) for f in files)
    for p in sorted(paths):
        h.update(p.encode() + b"\0")
        with open(os.path.join(ROOT, p), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def median(reps, key):
    return statistics.median(r[key] for r in reps)


# How one experiment's fields combine into a rep's.
TAKE_MAX = {"peak_rss_mb", "sim.peak_live_events", "sim.peak_live_units"}
TAKE_MEDIAN = {"batch", "oracle_workers", "trace.clock_ns"}


def steal_ticks():
    """CPU time the hypervisor has stolen so far, summed over CPUs, in
    clock ticks (0 where the kernel does not report it). An idle CPU
    accrues next to none, so over a rep this is about what the rep lost."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def rep(binary, workload, seed, mode):
    """One rep: every experiment of the workload instance, each in a
    process of its own, combined into totals and ratios."""
    t0, s0 = time.monotonic(), steal_ticks()
    parts = [call(binary, "rep", workload, str(seed), "0", mode)]
    for i in range(1, parts[0]["batch"]):
        parts.append(call(binary, "rep", workload, str(seed), str(i), mode))
    ticks = (time.monotonic() - t0) * os.sysconf("SC_CLK_TCK")
    r = {"steal": (steal_ticks() - s0) / ticks}
    for k, v in parts[0].items():
        vals = [p[k] for p in parts]
        if isinstance(v, bool):
            r[k] = all(vals) if k == "wants_prewarm" else any(vals)
        elif isinstance(v, str):
            r[k] = "; ".join(vals)
        elif k in TAKE_MAX:
            r[k] = max(vals)
        elif k in TAKE_MEDIAN:
            r[k] = statistics.median(vals)
        else:
            r[k] = sum(vals)
    per = lambda num, den, scale=1.0: num / den * scale if den else 0.0
    r["success_ratio"] = per(r["completed"], r["attempted"])
    r["success_volume"] = per(r["delivered_drops"], r["attempted_drops"])
    r["sim.lock_success_ratio"] = per(r["units_locked"], r["units_locked"] + r["units_failed"])
    r["sim.retries_per_payment"] = per(r["retries"], r["attempted"])
    if mode == "traced":
        r["routing.route_ns_per_call"] = per(r["routing.route_s"], r["routing.route_calls"], 1e9)
        r["routing.prewarm_pairs_per_s"] = per(r["routing.prewarm_pairs"], r["routing.prewarm_s"])
        r["protocol.feedback_s"] = r["protocol.outcome_s"] + r["protocol.ack_s"]
        r["sim.ns_per_event"] = per(r["sim.engine_self_s"], r["sim.events"], 1e9)
        r["trace.wall_s"] = r["wall_s"]
        r["trace.unattributed_s"] = r["wall_s"] - sum(r[k] for k in LAYERS)
    return r


def clean(reps):
    """The reps timings are taken from: those the hypervisor left alone, or
    at least the less disturbed half."""
    ranked = sorted(reps, key=lambda r: r["steal"])
    keep = [r for r in ranked if r["steal"] <= MAX_STEAL]
    return keep if len(keep) >= (len(ranked) + 1) // 2 else ranked[: (len(ranked) + 1) // 2]


def measure(binary, workload, seed, seconds, traced):
    """Repeats whole reps for about `seconds`; returns (plain, traced) reps.

    Untraced only, or alternating untraced/traced. Stops once the minimum
    rep counts are met and the next rep would end past the budget."""
    plain, with_trace = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain.append(rep(binary, workload, seed, "plain"))
        if traced:
            with_trace.append(rep(binary, workload, seed, "traced"))
        step = time.monotonic() - t0
        enough = len(plain) >= (MIN_TRACED_PAIRS if traced else MIN_PLAIN_REPS)
        if enough and time.monotonic() - start + step > seconds:
            return plain, with_trace


def verify(workload, reps, traced_reps):
    """The determinism, fidelity and hook-count checks; returns failures."""
    problems = []
    first = reps[0]
    for r in reps + traced_reps:
        if (r["digest"], r["report_hash"]) != (first["digest"], first["report_hash"]):
            problems.append(f"report differs between reps: {r['digest']} vs {first['digest']}")
    for r in traced_reps:
        if workload in OUTCOME_HOOK_ELIDED and (
            r["observes_outcomes"] or r["protocol.outcome_calls"] != 0
        ):
            problems.append("on_unit_outcome was not elided: a performance hint was dropped")
    for r in reps + traced_reps:
        if workload in PREWARMS and not (r["wants_prewarm"] and r["routing.prewarm_pairs"] > 0):
            problems.append("the scheme was not prewarmed: a performance hint was dropped")
    return sorted(set(problems))


def bench(binary, workload, args):
    """Checks and measures one workload, prints its meta and result lines,
    and returns whether it was correct."""
    check = call(binary, "check", workload, str(args.seed))
    plain, traced = measure(binary, workload, args.seed, args.seconds, args.trace == 1)
    problems = verify(workload, plain, traced)
    if not check["ok"]:
        problems.append("same-program check failed")
    for p in problems:
        print(f"spiderbench: {workload}: {p}", file=sys.stderr)

    attempted = sum(r["attempted"] for r in plain + traced)
    timed = clean(plain)
    wall = median(timed, "wall_s")
    if args.trace == 0:
        values = {
            "wall_s": wall,
            "setup_s": median(timed, "setup_s"),
            "payments_per_s": plain[0]["attempted"] / wall,
            "peak_rss_mb": median(plain, "peak_rss_mb"),
            "success_ratio": plain[0]["success_ratio"],
            "success_volume": plain[0]["success_volume"],
        }
        units = END_TO_END
    else:
        layers = clean(traced)
        values = {n: median(layers, n) for n, _ in PER_LAYER if n != "trace.overhead_s"}
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
        units = PER_LAYER

    meta = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "plain_reps": len(plain),
        "traced_reps": len(traced),
        "timed_reps": len(timed) if args.trace == 0 else len(clean(traced)),
        "steal_share_median": median(plain + traced, "steal"),
        "experiments_per_rep": plain[0]["batch"],
        "nproc": os.cpu_count(),
        "oracle_workers": plain[0]["oracle_workers"],
        "attempted_payments": plain[0]["attempted"],
        "completed_payments": plain[0]["completed"],
        "digest_sha256": hashlib.sha256(plain[0]["digest"].encode()).hexdigest(),
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": 0 if not problems else attempted,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result), flush=True)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        binary = build()
        correct = [bench(binary, w, args) for w in workloads]
    except BenchError as e:
        print(f"spiderbench: {e}", file=sys.stderr)
        return 1
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())

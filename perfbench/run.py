"""Run one benchmark workload of logmut and print its metrics.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 15 --trace 0

Workloads: survey, walls, cli (see BENCHMARK.json for why each was
chosen).  The load is closed-loop: one client, one call at a time.  The run
repeats whole passes over the workload's seeded inputs until --seconds have
passed, checks every output, and prints a summary followed by one JSON line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Throughput and latency take each operation at its fastest repetition in the
run (see fastest_repetitions); setup_s is the median of several processes.
A run whose checks fail reports "correct": false; a checkout without the
logmut sources exits 2 without a result.
"""
from __future__ import annotations

import argparse
import compileall
import importlib
import inspect
import json
import re
import statistics
import subprocess
import sys
import time

import harness

WORKLOADS = {"survey": "survey", "walls": "walls", "cli": "clirun"}
SETUP_SAMPLES = 5  # separate processes timed for setup_s
IMPORT_SAMPLES = 5  # interpreter and import timings for the cli.*_ms metrics

# Spans whose self time is reported, per traced pass.
SELF_TIMES = (
    "decider.is_zero_mutable",
    "decider.verify_certificate",
    "decider.canonical_tuple",
    "logdatum.validate",
    "logdatum.apply_to_datum",
    "logdatum.is_irreducible",
    "logdatum.fan_presentation",
    "logdatum.component_types",
    "mutation.legal_mutations",
    "mutation.mutate",
    "wallfn.generic_wall_assignment",
    "wallfn.is_generic",
    "wallfn.joint_compatible",
    "render.render_svg",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def time_setups(args, n: int) -> list[float]:
    """Wall time of n fresh processes from their start to the end of the
    workload's set-up: interpreter, `import logmut`, input generation and one
    untimed warm-up call."""
    samples = []
    cmd = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--setup-probe",
    ]
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=harness.ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(elapsed)
    return samples


def run_passes(wl, state, seconds: float, check, tracer=None):
    """Whole passes while the next one, as long as the last, still ends
    within `seconds` (at least one pass, two with a tracer, where passes
    alternate between untraced and traced).  Returns per-pass records."""
    plain = harness.Calls(wl.CALLS, None)
    traced = harness.Calls(wl.CALLS, tracer) if tracer is not None else None
    segmented = "segments" in inspect.signature(wl.run_pass).parameters
    passes = []
    t_end = time.perf_counter() + seconds
    while True:
        use_trace = traced is not None and len(passes) % 2 == 1
        counters: dict = {}
        segments: list[float] = []
        t0 = time.perf_counter()
        latencies = wl.run_pass(
            state, traced if use_trace else plain, check, counters,
            **({"segments": segments} if segmented else {}))
        passes.append(
            {"traced": use_trace, "seconds": time.perf_counter() - t0,
             "latencies": latencies, "segments": segments, "counters": counters}
        )
        if time.perf_counter() + passes[-1]["seconds"] > t_end and len(passes) >= (1 if tracer is None else 2):
            return passes


def import_breakdown() -> dict:
    """Median interpreter start, `import logmut` and `import sympy` times, from
    a bare `python -c pass` and `-X importtime`, run outside any timed pass."""
    env = harness.program_env()
    bare, logmut_us, sympy_us = [], [], []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import logmut"],
            env=env, check=True, stderr=subprocess.PIPE, text=True,
        )
        # lines: "import time: self [us] | cumulative | imported package"
        cumulative = {}
        for m in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", proc.stderr, re.M):
            cumulative.setdefault(m.group(2), int(m.group(1)))
        logmut_us.append(cumulative["logmut"])
        sympy_us.append(cumulative["sympy"])
    return {
        "cli.interpreter_ms": statistics.median(bare) * 1e3,
        "cli.import_logmut_ms": statistics.median(logmut_us) / 1e3,
        "cli.import_sympy_ms": statistics.median(sympy_us) / 1e3,
    }


def fastest_repetitions(passes) -> tuple[list[float], float]:
    """Each operation's fastest time over the run's passes, in pass order,
    and the summed fastest times of the rest of a pass: the timed segments of
    work that is not an operation (see survey), then whatever is left over.

    Every pass repeats the same operations on the same inputs, so the
    repetitions of one operation differ only by what the host does beside
    the program.  On a shared host that interference only ever adds time,
    in bursts from under a second to minutes long.  On a 2-vCPU shared VM,
    25 s windows of one long survey or walls run gave medians that spread
    0.19 and 0.32 (quartile distance over median), and fastest repetitions
    that spread 0.10 and 0.15.  A change to the program moves every
    repetition, the fastest too."""
    ops = [min(times) for times in zip(*(p["latencies"] for p in passes))]
    segments = [min(times) for times in zip(*(p["segments"] for p in passes))]
    left = min(p["seconds"] - sum(p["latencies"]) - sum(p["segments"]) for p in passes)
    return ops, sum(segments) + max(left, 0.0)


def end_to_end_metrics(passes, setups, check) -> dict:
    ops, rest = fastest_repetitions(passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (passes[0]["counters"]["work"] / (sum(ops) + rest), "1/s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "peak_rss_mb": (max(harness.peak_rss_mb(), harness.peak_rss_mb(children=True)), "MB"),
        "ok_ratio": ((check.attempted - check.failed) / check.attempted, "ratio"),
    }


def per_layer_metrics(args, wl, state, passes, tracer) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    n = len(traced)
    selfs = {name: (total / n, calls / n) for name, (total, calls) in tracer.self_times().items()}
    counters: dict = {}
    for p in traced:
        for key, value in p["counters"].items():
            counters[key] = counters.get(key, 0) + value / n

    def self_s(name):
        return selfs.get(name, (0.0, 0))[0]

    def calls(name):
        return selfs.get(name, (0.0, 0))[1]

    def per_call(name, scale, count=None):
        count = calls(name) if count is None else count
        return self_s(name) * scale / count if count else 0.0

    out = {f"{name}.self_s": (self_s(name), "s") for name in SELF_TIMES}
    out.update({
        "decider.is_zero_mutable.us_per_call": (per_call("decider.is_zero_mutable", 1e6), "us"),
        "decider.us_per_class": (
            per_call("decider.is_zero_mutable", 1e6, counters.get("decider.explored", 0)), "us"),
        "decider.explored": (counters.get("decider.explored", 0), "count"),
        "decider.bytes_per_class": (
            wl.bytes_per_class(state) if hasattr(wl, "bytes_per_class") else 0.0, "bytes"),
        "decider.canonical_tuple.calls": (calls("decider.canonical_tuple"), "count"),
        "decider.verdicts.yes": (counters.get("decider.verdicts.yes", 0), "count"),
        "decider.verdicts.no": (counters.get("decider.verdicts.no", 0), "count"),
        "decider.verdicts.unknown": (counters.get("decider.verdicts.unknown", 0), "count"),
        "logdatum.validate.calls": (calls("logdatum.validate"), "count"),
        "logdatum.validate.us_per_call": (per_call("logdatum.validate", 1e6), "us"),
        "mutation.mutate.calls": (calls("mutation.mutate"), "count"),
        "mutation.mutate.us_per_call": (per_call("mutation.mutate", 1e6), "us"),
        "wallfn.is_subordinate.ms_per_factor": (
            per_call("wallfn.is_subordinate", 1e3, counters.get("wallfn.factors_checked", 0)), "ms"),
        "wallfn.is_smooth_curve.ms_per_call": (per_call("wallfn.is_smooth_curve", 1e3), "ms"),
        "wallfn.controls_rejected": (counters.get("wallfn.controls_rejected", 0), "count"),
        "render.svg_bytes": (counters.get("render.svg_bytes", 0), "bytes"),
        "trace.overhead_ratio": (
            statistics.median(p["seconds"] for p in traced) / statistics.median(p["seconds"] for p in untraced),
            "ratio"),
    })
    imports = import_breakdown()
    out.update({name: (value, "ms") for name, value in imports.items()})
    command_ms = 0.0
    if args.workload == "cli":
        cold_ms = statistics.median(t for p in untraced for t in p["latencies"]) * 1e3
        command_ms = cold_ms - imports["cli.interpreter_ms"] - imports["cli.import_logmut_ms"]
    out["cli.command_ms"] = (command_ms, "ms")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = importlib.import_module(WORKLOADS[args.workload])
    try:
        harness.import_program()
    except harness.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    teardown = getattr(wl, "teardown", lambda state: None)
    if args.setup_probe:
        state = wl.setup(args.seed)
        print("ready", flush=True)
        teardown(state)
        return 0

    compileall.compile_dir(str(harness.SRC), quiet=1)  # later imports read bytecode
    setups = time_setups(args, SETUP_SAMPLES) if not args.trace else []
    state = wl.setup(args.seed)
    try:
        check = harness.Checker()
        tracer = harness.Tracer() if args.trace else None
        passes = run_passes(wl, state, args.seconds, check, tracer)
        if args.trace:
            metrics = per_layer_metrics(args, wl, state, passes, tracer)
            tracer.dump(harness.WORK_DIR / f"spans-{args.workload}-{args.seed}.tsv")
        else:
            metrics = end_to_end_metrics(passes, setups, check)
    finally:
        teardown(state)

    work = [p["counters"]["work"] for p in passes]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{work[0]} {wl.UNIT} each, {sum(len(p['latencies']) for p in passes)} operations timed"
          + (f", set-up timed in {len(setups)} processes" if setups else ""))
    for message in check.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": check.failed == 0 and len(set(work)) == 1,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/record.py --workloads survey --seeds 1-5

Each run is a fresh process, one after another.  For every workload and
end-to-end metric the summary gives the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), and their distance as a
share of the median next to the metric's bound from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from harness import ROOT


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["summary"] = lines[-2] if len(lines) > 1 else ""
    return result


def summarize(spec: dict, runs: list[dict]) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bound,
            "values": values,
        }
    return out


def machine() -> dict:
    import sympy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    p.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary here as JSON")
    p.add_argument("--label", default="", help="names the code measured, e.g. a commit")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    report = {"label": args.label, "run_seconds": spec["run_seconds"], "seeds": seeds, "machine": machine(), "workloads": {}}
    for workload in workloads:
        runs = [run_once(spec, workload, seed, args.trace) for seed in seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "samples": [r["summary"] for r in runs],
        }
        if args.trace:
            entry["metrics"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in runs)
                for name in runs[0]["metrics"]
            }
        else:
            entry["metrics"] = summarize(spec, runs)
            for name, m in entry["metrics"].items():
                flag = "" if m["spread"] < m["bound"] / 3 else "  (spread not below a third of the bound)"
                print(f"{workload:7s} {name:12s} median {m['median']:.6g} {m['unit']}, "
                      f"spread {m['spread']:.3f}, bound {m['bound']}{flag}", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""cli: fresh `python -m logmut.cli` processes, one after another, over a
fixed mix of subcommands on seeded input files.

Interpreter start and the import (sympy most of all) dominate each
invocation; no other workload runs cli.py, and `report --gen-walls` is the
one subcommand here a lazy sympy import cannot help.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

from harness import WORK_DIR, ROOT, program_env, random_map, start_preserving_map

UNIT = "logmut invocations"
CALLS: list[str] = []
# Invariant under every lattice map (the decide input keeps its start edge).
TOM_CLASS = "(((1, 0), (1,)), ((3, 6), (2, 1)), ((-4, -6), (1, 1)))"
# At depth 4 two of the six partition assignments over Tom's edge vectors are
# Yes, the others Unknown.
TOM_YES = (
    {(3, 0): (2, 1), (0, 2): (1, 1), (-3, -2): (1,)},
    {(3, 0): (1, 1, 1), (0, 2): (2,), (-3, -2): (1,)},
)
AN5_EXPLORED = 304


def _write(path, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def setup(seed: int) -> dict:
    from logmut import an_datum, apply_to_datum, datum_to_obj, tom_datum

    rng = random.Random(seed)
    A = random_map(rng)
    B = start_preserving_map(rng, [an_datum(5)])
    work = WORK_DIR / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tom = tom_datum()
    # Raw edges in the order they were written, not counterclockwise, so the
    # program sorts them itself.
    tom_raw = {"edges": [{"e": list(A.apply(e.e)), "nu": list(e.nu)} for e in reversed(tom.edges)]}
    tom_file = _write(work / "tom.json", tom_raw)
    an5_file = _write(work / "an5.json", datum_to_obj(apply_to_datum(B, an_datum(5))))
    edges_file = _write(work / "edges.json", [list(A.apply(e.e)) for e in tom.edges])
    ccw_edges = [e.e for e in apply_to_datum(A, tom).edges]
    # The mutation at the image of edge (3, 0), removing one part 1: legal,
    # and it gives four edges.
    edge = 1 + ccw_edges.index(A.apply((3, 0)))
    invocations = [
        (["validate", tom_file, "--json"], _check_validate),
        (["mutate", tom_file, "--edge", str(edge), "--part-value", "1", "--trace"], _check_mutate),
        (["decide", an5_file, "--json"], _check_decide),
        (["enumerate", "--edges", edges_file, "--max-depth", "4", "--json"],
         lambda out: _check_enumerate(out, A, ccw_edges)),
        (["render", tom_file, "--svg", "-"], _check_render),
        (["report", tom_file, "--json"], _check_report),
        (["report", tom_file, "--gen-walls", "1"], _check_gen_walls),
    ]
    state = {"work": work, "invocations": invocations, "env": program_env()}
    code, out = invoke(state, invocations[0][0])  # warm-up, untimed
    if code != 0:
        raise RuntimeError(f"warm-up invocation exited {code}")
    return state


def teardown(state: dict) -> None:
    shutil.rmtree(state["work"], ignore_errors=True)


def invoke(state: dict, args: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "logmut.cli", *args],
        cwd=ROOT,
        env=state["env"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def _check_validate(out: str) -> bool:
    doc = json.loads(out)
    return doc["ok"] and doc["total_length"] == 6 and doc["canonical_class"] == TOM_CLASS


def _check_mutate(out: str) -> bool:
    lines = out.splitlines()
    branches = {line.split()[1] for line in lines if line.startswith("# (")}
    return branches == {"(1)", "(2a)", "(3b)"} and "mutated datum (4 edges, counterclockwise):" in lines


def _check_decide(out: str) -> bool:
    doc = json.loads(out)
    return (
        doc["verdict"] == "Yes"
        and doc["explored"] == AN5_EXPLORED
        and len(doc["certificate"]["steps"]) == 6
    )


def _check_enumerate(out: str, A, ccw_edges) -> bool:
    """Each result lists one partition per edge in counterclockwise order
    (the "edges" field echoes the input order), and the results come in an
    order that depends on that cycle, so compare them as a set."""
    doc = json.loads(out)
    yes = {
        frozenset(zip(ccw_edges, map(tuple, r["partitions"])))
        for r in doc["results"] if r["verdict"] == "Yes"
    }
    verdicts = sorted(r["verdict"] for r in doc["results"])
    expected = {frozenset((A.apply(e), nu) for e, nu in assignment.items()) for assignment in TOM_YES}
    return verdicts == ["Unknown"] * 4 + ["Yes"] * 2 and yes == expected


def _check_render(out: str) -> bool:
    return out.startswith("<?xml") and out.count("<circle") == 3


def _check_report(out: str) -> bool:
    doc = json.loads(out)
    return sorted(c["index"] for c in doc["components"]) == [1, 2, 3] and sorted(doc["kinks"]) == [1, 2, 3]


def _check_gen_walls(out: str) -> bool:
    return "  subordinate: yes" in out and "  generic: yes" in out and "  joint compatible: yes" in out


def run_pass(state: dict, calls, check, counters: dict) -> list[float]:
    """Run every invocation once; returns one wall time per process."""
    latencies = []
    for args, verify in state["invocations"]:
        run = calls.wrap(f"cli.{args[0]}", invoke)
        t0 = time.perf_counter()
        code, out = check.guard(" ".join(args), run, state, args) or (None, "")
        latencies.append(time.perf_counter() - t0)
        ok = code == 0 and check.guard(f"checking {args[0]} output", verify, out)
        check.op(bool(ok), lambda: f"logmut {' '.join(args)}: exit {code}, output {out[:200]!r}")
        counters["work"] = counters.get("work", 0) + 1
    return latencies

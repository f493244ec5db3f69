"""Shared pieces of the benchmark: locating the program, seeded lattice maps,
span tracing, output checking and peak memory.

Nothing here imports logmut at module level: the import belongs to the
workload's timed set-up.
"""
from __future__ import annotations

import os
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Inputs written for subprocesses and span dumps; listed in .gitignore.
WORK_DIR = ROOT / ".perfbench_run"


class ProgramMissing(RuntimeError):
    """The checkout holds no logmut sources to benchmark."""


def program_env() -> dict:
    """Environment for a child interpreter that must import the checkout's logmut."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program():
    """Import logmut from this checkout's src/ and nowhere else."""
    if not (SRC / "logmut" / "__init__.py").is_file():
        raise ProgramMissing(f"no logmut sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import logmut

    if Path(logmut.__file__).resolve().parent != (SRC / "logmut").resolve():
        raise ProgramMissing(f"imported logmut from {logmut.__file__}, not {SRC}")


# --- seeded lattice maps -------------------------------------------------------


def random_map(rng: random.Random):
    """A random SL(2, Z) element other than the identity: three shears,
    alternately upper and lower, each by a nonzero amount in [-2, 2], so
    that coordinates change but stay small."""
    from logmut import UnimodularMap, shear_map

    upper = rng.random() < 0.5
    A = UnimodularMap(1, 0, 0, 1)
    for _ in range(3):
        m = rng.choice((-2, -1, 1, 2))
        A = (shear_map(m) if upper else UnimodularMap(1, 0, m, 1)).compose(A)
        upper = not upper
    return A


def start_preserving_map(rng: random.Random, data):
    """A random map under which every datum keeps its counterclockwise start
    edge: the image of each datum's first edge is still the first edge.

    The decider's explored count depends on where the cyclic edge order is
    cut (An(9) visits 28,177, 73,725 or 119,273 classes for the three cuts),
    so a map that moved the cut would change the work, not only the
    coordinates.
    """
    from logmut import apply_to_datum

    while True:
        A = random_map(rng)
        if all(apply_to_datum(A, S).edges[0].e == A.apply(S.edges[0].e) for S in data):
            return A


# --- tracing -------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: (name, start, end, parent index)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (summed self time in seconds, number of spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - inner, calls + 1)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{'' if parent is None else parent}\n")


class Calls:
    """The public functions a workload calls, optionally wrapped in spans.

    Attribute `decider_is_zero_mutable` is logmut.decider.is_zero_mutable, and
    so on; the span is named `decider.is_zero_mutable`.
    """

    def __init__(self, names: list[str], tracer: Tracer | None) -> None:
        import importlib

        self.tracer = tracer
        for dotted in names:
            module, fn_name = dotted.split(".")
            fn = getattr(importlib.import_module(f"logmut.{module}"), fn_name)
            setattr(self, f"{module}_{fn_name}", self.wrap(dotted, fn))

    def wrap(self, name: str, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)


# --- checking ------------------------------------------------------------------


class Checker:
    """Counts operations and the ones whose output failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what) -> bool:
        """Count one operation; `what` (a string, or a callable building one
        only on failure) describes it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what() if callable(what) else what)
        return ok

    def guard(self, what: str, fn, *args, **kwargs):
        """Run fn and return its result, or None after an unexpected
        exception, which the caller then counts through op()."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - any exception is a failure here
            if len(self.messages) < 20:
                self.messages.append(f"{what}{args!r}: {type(exc).__name__}: {exc}")
            return None


# --- memory --------------------------------------------------------------------


def peak_rss_mb(children: bool = False) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB

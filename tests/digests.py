"""Equivalence digests: a sha256 over the output of fixed runs, pinned in
Tier-1, so that a change that keeps the output byte-identical shows it and
one that does not names the reason for its new value.

    PYTHONPATH=src python tests/digests.py

prints each digest.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

from logmut.cli import main

# Wall documents for `report --walls`, each with the datum it is read
# against: restrictions that fail (a coefficient, a constant term, a zero
# restriction, a product that is u^l only jointly, a missing factor),
# singular factors (one shared across walls, as triples and as text),
# proportional pairs, a resultant that is not a monomial, zero and constant
# factors, and documents refused for their shape or their numbers.
WALL_DOCUMENTS = (
    ("Tom", [["2*u^2 + x", "u + x"], ["u + x", "u - x"], ["u"]]),
    ("Tom", {"walls": [["u^2 + 1", "1 + x"], ["x", "u - x"], ["u + x^2"]]}),
    ("Tom", [["2*u^2 + x", "1/2*u"], ["u + x", "u - x"], ["u"]]),
    ("Tom", [["2*u^2 + x", "u"], ["u + x", "u - x"], ["u"]]),
    ("Tom", [["u^3 + x"], ["u + x", "u - x"], ["u"]]),
    ("Tom", [[[[0, 2, "1"], [3, 0, "-1"]], "u + x"], ["u^2 - x^3"], ["u - x^2"]]),
    ("Tom", [["u^2 - x^2", "u + 3*x"], ["u + x", "u - x"], ["u - x"]]),
    ("Tom", [["u^2 + x", "u + x"], ["u + x", [[1, 0, "1"], [0, 1, "1"]]], ["u"]]),
    ("Tom", [["u^2 + 3*x", "u + 5*x"], ["u + x", "u + x + x^2"], ["u - 2/3*x"]]),
    ("Tom", [["0", "1"], ["u + x", "u - x"], []]),
    ("An(2)", {"walls": [["u + x"], ["u + x", "u + 2*x", "u + x"], ["u - x"]]}),
    ("An(2)", [["u + x"], ["u + x", "u + 2*x", "u - 7*x"], ["u - x"]]),
    ("Jerry", [["u + x", "u + 2*x", "u + 3*x"], ["u^2 + x"], ["u"]]),
    ("Jerry", [["u + x", "u + 2*x"], ["u^2 + x"]]),
    ("Jerry", [["u + x", "u + 2*x", [[0, 1, 0.5]]], ["u^2 + x"], ["u"]]),
    ("Jerry", [["u + x", "u + 2*x", "u + x*y"], ["u^2 + x"], ["u"]]),
)


def report_digest() -> str:
    """(argv, exit code, stdout, stderr) of in-process `report` runs, as
    text and as --json: `--gen-walls S` (S = 1..3) for Tom, Jerry and
    An(2), and `--walls` for each of WALL_DOCUMENTS, read from a file named
    by its position in a scratch working directory."""
    runs = [["report", name, "--gen-walls", str(seed)]
            for name in ("Tom", "Jerry", "An(2)") for seed in (1, 2, 3)]
    digest = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for n, (name, walls) in enumerate(WALL_DOCUMENTS, start=1):
                with open(f"walls-{n}.json", "w") as fh:
                    json.dump(walls, fh)
                runs.append(["report", name, "--walls", f"walls-{n}.json"])
            for argv in (run + form for run in runs for form in ([], ["--json"])):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n")
        finally:
            os.chdir(cwd)
    return digest.hexdigest()


if __name__ == "__main__":
    print("report", report_digest())

"""Tests of the benchmark itself: its pinned counts do not depend on the
seed, its checker is not vacuous, its output follows BENCHMARK.json, and it
refuses to run without the program.

    python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
import time

import pytest

import harness
import run
import survey

RUN = harness.ROOT / "perfbench" / "run.py"


def survey_pass(seed, expected=survey.EXPECTED):
    state = survey.setup(seed)
    check, counters = harness.Checker(), {}
    survey.run_pass(state, harness.Calls(survey.CALLS, None), check, counters, expected)
    return state, check, counters


def test_survey_counts_do_not_depend_on_the_seed():
    state_a, check_a, counters_a = survey_pass(1)
    state_b, check_b, counters_b = survey_pass(2)
    assert state_a["raw"] != state_b["raw"]
    assert check_a.failed == check_b.failed == 0
    assert check_a.attempted == check_b.attempted
    assert counters_a["work"] == counters_b["work"] == survey.EXPECTED["data"]
    for kind in ("yes", "no", "unknown"):
        name = f"decider.verdicts.{kind}"
        assert counters_a[name] == counters_b[name] == survey.EXPECTED[f"verdicts.{kind}"]


def test_survey_checker_reports_a_wrong_expected_count():
    wrong = dict(survey.EXPECTED, moves=survey.EXPECTED["moves"] - 1)
    _, check, _ = survey_pass(1, wrong)
    assert check.failed == 1
    assert check.messages == [f"survey moves: 14338, expected {wrong['moves']}"]


def test_self_time_subtracts_child_spans():
    tracer = harness.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", outer_body)()
    selfs = tracer.self_times()
    assert selfs["inner"][1] == selfs["outer"][1] == 1
    assert 0.02 <= selfs["inner"][0] < 0.03
    assert 0.01 <= selfs["outer"][0] < 0.02


def test_fastest_repetitions_takes_each_part_of_a_pass_at_its_fastest():
    passes = [
        {"seconds": 1.0, "latencies": [0.2, 0.5], "segments": [0.1]},
        {"seconds": 0.9, "latencies": [0.3, 0.4], "segments": [0.05]},
    ]
    ops, rest = run.fastest_repetitions(passes)
    assert ops == [0.2, 0.4]
    # fastest segment 0.05, plus the smaller leftover: 0.2 and 0.15 s
    assert rest == pytest.approx(0.05 + 0.15)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_lists_every_declared_metric(trace, key):
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(harness.ROOT, "--workload", "walls", "--seed", "5", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""

"""walls: the `report --gen-walls` flow, in process, on 30 rank-two data.

Every partition below admits a dominant tower, so a generic wall assignment
exists; the list includes the heavy walls (1^8), (4,2,1,1) and (8).  sympy's
groebner and resultant calls do almost all of the work; the decider and the
mutation calculus are never called, so a search-kernel change must read as
no change here.

Each datum gets its own lattice map, drawn from the benchmark's seed, which
changes every coordinate.  The sympy calls cost more on larger coordinates,
so one map shared by all 30 data made whole seeds up to 40% heavier than
others; 30 independent maps average that out.  The synthesis seed of each
datum is its position in the list, the same for every benchmark seed,
because the cost of the sympy calls also depends on the coefficients drawn.
"""
from __future__ import annotations

import random
import time

from harness import random_map

UNIT = "wall factors synthesized and checked"
CALLS = [
    "logdatum.fan_presentation",
    "logdatum.component_types",
    "wallfn.kinks",
    "wallfn.generic_wall_assignment",
    "wallfn.joint_compatible",
    "wallfn.is_subordinate",
    "wallfn.is_generic",
    "wallfn.is_smooth_curve",
    "render.render_svg",
]
DATA = (
    (((3, 0), (2, 1)), ((0, 2), (1, 1)), ((-3, -2), (1,))),
    (((1, 0), (1,)), ((0, 8), (1,) * 8), ((-1, -8), (1,))),
    (((8, 0), (8,)), ((0, 1), (1,)), ((-8, -1), (1,))),
    (((8, 0), (4, 2, 1, 1)), ((0, 3), (3,)), ((-8, -3), (1,))),
    (((2, 4), (2,)), ((-2, 2), (1, 1)), ((-4, -3), (1,)), ((4, -3), (1,))),
    (((2, 2), (2,)), ((-3, -1), (1,)), ((1, -1), (1,))),
    (((0, 4), (1, 1, 1, 1)), ((-2, -3), (1,)), ((2, -1), (1,))),
    (((0, 4), (2, 2)), ((-4, -1), (1,)), ((4, -3), (1,))),
    (((3, 1), (1,)), ((-1, 1), (1,)), ((-2, -1), (1,)), ((0, -1), (1,))),
    (((3, 2), (1,)), ((1, 1), (1,)), ((-4, -3), (1,))),
    (((2, 2), (1, 1)), ((-3, 2), (1,)), ((-2, -1), (1,)), ((3, -3), (2, 1))),
    (((4, 1), (1,)), ((-2, 2), (1, 1)), ((-2, 1), (1,)), ((0, -4), (1, 1, 1, 1))),
    (((0, 4), (1, 1, 1, 1)), ((-1, 3), (1,)), ((-1, -3), (1,)), ((2, -4), (2,))),
    (((5, 0), (2, 2, 1)), ((-2, 4), (1, 1)), ((-3, -4), (1,))),
    (((1, 3), (1,)), ((-3, -1), (1,)), ((2, -2), (1, 1))),
    (((1, 1), (1,)), ((1, 3), (1,)), ((-2, -4), (2,))),
    (((-4, 2), (1, 1)), ((1, -1), (1,)), ((3, -1), (1,))),
    (((-1, 3), (1,)), ((-2, 2), (1, 1)), ((-3, 2), (1,)), ((1, -3), (1,)), ((5, -4), (1,))),
    (((0, 4), (2, 2)), ((-1, 1), (1,)), ((1, -5), (1,))),
    (((4, 2), (2,)), ((1, 3), (1,)), ((-5, -5), (2, 2, 1))),
    (((-3, 5), (1,)), ((-1, -1), (1,)), ((4, -4), (2, 2))),
    (((3, 1), (1,)), ((-2, 2), (2,)), ((-3, 2), (1,)), ((2, -5), (1,))),
    (((2, 2), (2,)), ((-2, 1), (1,)), ((0, -3), (3,))),
    (((1, 1), (1,)), ((2, 3), (1,)), ((-2, -1), (1,)), ((-1, -3), (1,))),
    (((2, 0), (1, 1)), ((2, 4), (1, 1)), ((-4, -2), (1, 1)), ((0, -2), (2,))),
    (((2, 2), (2,)), ((-2, 2), (1, 1)), ((0, -4), (4,))),
    (((2, 0), (2,)), ((1, 4), (1,)), ((-3, -4), (1,))),
    (((2, 1), (1,)), ((3, 3), (2, 1)), ((-4, -2), (1, 1)), ((-1, -2), (1,))),
    (((2, 4), (2,)), ((-4, -3), (1,)), ((2, -1), (1,))),
    (((1, 4), (1,)), ((-4, 0), (3, 1)), ((2, -3), (1,)), ((1, -1), (1,))),
)


def setup(seed: int) -> dict:
    from logmut import component_types, generic_wall_assignment, validate

    rng = random.Random(seed)
    base = [validate(raw) for raw in DATA]
    data = []
    for raw in DATA:
        A = random_map(rng)
        data.append(validate([(A.apply(e), nu) for e, nu in raw]))
    generic_wall_assignment(base[2], 0)  # warm-up, untimed
    expected = [
        (sorted(component_types(S).components), sorted(S.lengths)) for S in base
    ]
    return {"data": data, "expected": expected}


def _controls(S, W):
    """Two assignments the checks must reject: one factor with a wrong
    restriction (for is_subordinate), and, where a wall repeats a part value,
    that wall's two equal-value factors made identical (for is_generic)."""
    from logmut import BiPoly, WallAssignment

    walls = [list(w) for w in W.factors]
    walls[0][0] = walls[0][0] * BiPoly.u_power(1)
    wrong_restriction = WallAssignment(tuple(map(tuple, walls)))
    duplicate = None
    for i, edge in enumerate(S.edges):
        for k in range(1, len(edge.nu)):
            if edge.nu[k] == edge.nu[k - 1]:
                walls = [list(w) for w in W.factors]
                walls[i][k] = walls[i][k - 1]
                duplicate = WallAssignment(tuple(map(tuple, walls)))
                break
        if duplicate is not None:
            break
    return wrong_restriction, duplicate


def run_pass(state: dict, calls, check, counters: dict) -> list[float]:
    """Report, synthesize walls for and check every datum once; returns one
    latency per datum."""
    latencies = []
    for wall_seed, (S, (components, kinks)) in enumerate(zip(state["data"], state["expected"]), 1):
        t0 = time.perf_counter()
        fan = calls.logdatum_fan_presentation(S)
        report = calls.logdatum_component_types(S)
        kink_values = calls.wallfn_kinks(S)
        W = check.guard("generic_wall_assignment", calls.wallfn_generic_wall_assignment, S, wall_seed)
        if not check.op(W is not None, lambda: f"no wall assignment for {S}"):
            continue
        factors = [f for wall in W.factors for f in wall]
        passed = (
            calls.wallfn_joint_compatible(S, W)
            and calls.wallfn_is_subordinate(S, W).ok
            and calls.wallfn_is_generic(S, W).ok
        )
        smooth = all([calls.wallfn_is_smooth_curve(f) for f in factors])
        svg = calls.render_render_svg(S)
        wrong_restriction, duplicate = _controls(S, W)
        rejected = [not calls.wallfn_is_subordinate(S, wrong_restriction).ok]
        if duplicate is not None:
            rejected.append(not calls.wallfn_is_generic(S, duplicate).ok)
        latencies.append(time.perf_counter() - t0)

        check.op(
            len(fan.maximal_cones) == len(S)
            and sorted(report.components) == components
            and sorted(kink_values) == kinks,
            lambda: f"fan, components or kinks of {S}",
        )
        check.op(passed and smooth, lambda: f"synthesized walls of {S} failed a check")
        check.op(svg.startswith("<?xml") and svg.count("<circle") == len(S), lambda: f"svg of {S}")
        check.op(all(rejected), lambda: f"a control assignment for {S} was accepted")
        counters["work"] = counters.get("work", 0) + len(factors)
        counters["wallfn.factors_checked"] = counters.get("wallfn.factors_checked", 0) + 2 * len(factors)
        counters["wallfn.controls_rejected"] = counters.get("wallfn.controls_rejected", 0) + sum(rejected)
        counters["render.svg_bytes"] = counters.get("render.svg_bytes", 0) + len(svg.encode())
    return latencies

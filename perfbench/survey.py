"""survey: every valid datum in a small box, under seeded lattice maps.

The box holds every datum with coordinates in [-3, 3] and total length at
most 6.  Each datum is validated and grouped by canonical class; each class
is then checked for irreducibility, recognised again after a second map,
mutated along every legal move and decided at depth 2, and each Yes
certificate is verified.  The object path (validate, mutate,
legal_mutations) carries a large share of the work here, and the decider
runs thousands of shallow searches, so its per-call overhead shows here
rather than its per-state cost.  This is the only workload that calls the
decider in process; the traced run adds one deep decide, An(8) under
tracemalloc, outside the timed passes for decider.bytes_per_class.
"""
from __future__ import annotations

import random
import time
from itertools import product
from math import gcd

from harness import random_map

UNIT = "box data processed"
CALLS = [
    "logdatum.validate",
    "logdatum.apply_to_datum",
    "logdatum.is_irreducible",
    "decider.canonical_tuple",
    "decider.is_zero_mutable",
    "decider.verify_certificate",
    "mutation.legal_mutations",
    "mutation.mutate",
]
COORD_BOUND = 3
LENGTH_BOUND = 6
SWEEP_DEPTH = 2
CHUNK = 500  # data validated and grouped per timed segment
MAP_POOL = 64
# Invariant under every lattice map, so exact for every seed.
EXPECTED = {
    "data": 16996,
    "classes": 2686,
    "irreducible": 1500,
    "moves": 14338,
    "verdicts.yes": 24,
    "verdicts.no": 8,
    "verdicts.unknown": 2654,
}


def box_data() -> list[list[tuple[tuple[int, int], tuple[int, ...]]]]:
    """Raw (edge, partition) lists: closed edge sets with pairwise distinct
    primitive directions inside the box, times every partition assignment."""
    from logmut import partitions_of

    vecs = [
        (x, y)
        for x in range(-COORD_BOUND, COORD_BOUND + 1)
        for y in range(-COORD_BOUND, COORD_BOUND + 1)
        if (x, y) != (0, 0)
    ]
    length = {v: gcd(*v) for v in vecs}
    direction = {v: (v[0] // length[v], v[1] // length[v]) for v in vecs}
    edge_sets = []

    def grow(start, chosen, used, sx, sy, budget):
        if len(chosen) >= 2 and sx == 0 and sy == 0:
            edge_sets.append(tuple(chosen))
        for i in range(start, len(vecs)):
            v = vecs[i]
            rest = budget - length[v]
            if rest < 0 or direction[v] in used:
                continue
            nx, ny = sx + v[0], sy + v[1]
            # each remaining unit of length moves the sum by at most the bound
            if abs(nx) > COORD_BOUND * rest or abs(ny) > COORD_BOUND * rest:
                continue
            used.add(direction[v])
            grow(i + 1, chosen + [v], used, nx, ny, rest)
            used.discard(direction[v])

    grow(0, [], set(), 0, 0, LENGTH_BOUND)
    data = []
    for edges in edge_sets:
        for parts in product(*(partitions_of(length[v]) for v in edges)):
            data.append(list(zip(edges, parts)))
    return data


def setup(seed: int) -> dict:
    """Each datum gets a map drawn from a pool of MAP_POOL seeded maps, so
    that no seed's coordinates run larger than another's across the whole
    box; a pool keeps set-up short."""
    from logmut import is_zero_mutable, validate

    rng = random.Random(seed)
    B = random_map(rng)
    pool = [random_map(rng) for _ in range(MAP_POOL)]
    raw = []
    for datum in box_data():
        A = rng.choice(pool)
        raw.append([(A.apply(e), nu) for e, nu in datum])
    is_zero_mutable(validate(raw[0]), max_depth=SWEEP_DEPTH)  # warm-up, untimed
    return {"raw": raw, "second_map": B}


def run_pass(state: dict, calls, check, counters: dict, expected=EXPECTED, segments=None) -> list[float]:
    """One survey of the box; returns one latency per canonical class, and
    appends to `segments` the time of each CHUNK data validated and grouped."""
    classes = {}
    tally_data = 0
    t0 = time.perf_counter()
    for i, raw in enumerate(state["raw"], 1):
        if segments is not None and i % CHUNK == 0:
            t1 = time.perf_counter()
            segments.append(t1 - t0)
            t0 = t1
        S = check.guard("validate", calls.logdatum_validate, raw)
        if not check.op(S is not None, "validate"):
            continue
        tally_data += 1
        key = calls.decider_canonical_tuple(S)
        classes.setdefault(key, S)

    B = state["second_map"]
    tally = dict.fromkeys(expected, 0)
    tally["data"] = tally_data
    tally["classes"] = len(classes)
    latencies = []
    for key, S in classes.items():
        t0 = time.perf_counter()
        tally["irreducible"] += calls.logdatum_is_irreducible(S)
        copy = calls.logdatum_apply_to_datum(B, S)
        same_class = calls.decider_canonical_tuple(copy) == key
        if len(S) > 2:
            moves = calls.mutation_legal_mutations(S)
            tally["moves"] += len(moves)
            for j, k in moves:
                T = check.guard("mutate", calls.mutation_mutate, S, j, k)
                check.op(T is not None, "mutate")
        verdict = calls.decider_is_zero_mutable(S, max_depth=SWEEP_DEPTH)
        tally["verdicts." + verdict.kind] += 1
        certified = not verdict.is_yes or check.guard(
            "verify_certificate", calls.decider_verify_certificate, S, verdict.certificate)
        latencies.append(time.perf_counter() - t0)
        check.op(bool(certified), lambda: f"class {key}: Yes without a valid certificate")
        check.op(same_class, lambda: f"class {key} not recognised after a second map")
        counters["decider.explored"] = counters.get("decider.explored", 0) + verdict.explored

    for name, want in expected.items():
        check.op(tally[name] == want, f"survey {name}: {tally[name]}, expected {want}")
    counters["work"] = counters.get("work", 0) + tally["data"]
    for name in ("verdicts.yes", "verdicts.no", "verdicts.unknown"):
        counters["decider." + name] = counters.get("decider." + name, 0) + tally[name]
    return latencies


def bytes_per_class(state: dict, n: int = 8) -> float:
    """Peak traced allocation of one deep decide, An(n) under the second map,
    divided by the classes it visits.  tracemalloc slows the search about
    15x, so this never runs inside a timed pass."""
    import tracemalloc

    from logmut import an_datum, apply_to_datum, is_zero_mutable

    S = apply_to_datum(state["second_map"], an_datum(n))
    tracemalloc.start()
    try:
        verdict = is_zero_mutable(S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / verdict.explored

"""Shared test helpers: seeded random data, random lattice maps, and the
exhaustive small-box survey reused by the cross-validation and acceptance
tests."""
from __future__ import annotations

import random
import sys
import time
from functools import lru_cache
from itertools import product as iter_product
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from logmut import (
    LogDatum,
    UnimodularMap,
    canonical_tuple,
    is_irreducible,
    is_zero_mutable,
    partitions_of,
    shear_map,
    validate,
)
from logmut.errors import InvalidDatum
from oracles import iddfs_zero_mutable, irreducible_oracle


def random_datum(
    rng: random.Random,
    *,
    max_edges: int = 5,
    coord_bound: int = 20,
    max_total_length: int = 10,
) -> LogDatum:
    """A random valid datum: random edges plus the closing edge, retried
    until validation passes and the bounds hold."""
    while True:
        m = rng.randint(2, max_edges)
        edges = []
        for _ in range(m - 1):
            edges.append(
                (rng.randint(-coord_bound, coord_bound),
                 rng.randint(-coord_bound, coord_bound))
            )
        closing = (-sum(x for x, _ in edges), -sum(y for _, y in edges))
        edges.append(closing)
        try:
            lengths = []
            for x, y in edges:
                l = gcd(abs(x), abs(y))
                if l == 0 or abs(x) > coord_bound or abs(y) > coord_bound:
                    raise InvalidDatum("resample")
                lengths.append(l)
            if sum(lengths) > max_total_length:
                continue
            assignment = [
                rng.choice(partitions_of(l)) for l in lengths
            ]
            return validate(list(zip(edges, assignment)))
        except InvalidDatum:
            continue


def random_unimodular(rng: random.Random, shears: int = 4) -> UnimodularMap:
    """A random orientation-preserving lattice map: a short product of upper
    and lower triangular shears with small entries."""
    A = UnimodularMap(1, 0, 0, 1)
    for _ in range(rng.randint(1, shears)):
        m = rng.randint(-3, 3)
        if rng.random() < 0.5:
            A = shear_map(m).compose(A)
        else:
            A = UnimodularMap(1, 0, m, 1).compose(A)
    return A


# --- exhaustive small-box survey ----------------------------------------------
#
# Every valid datum with total length <= BOX_LENGTH_BOUND and coordinates in
# [-BOX_COORD_BOUND, BOX_COORD_BOUND], deduplicated into canonical classes,
# then decided by both searches at SWEEP_DEPTH and checked for irreducibility
# against the subset-sum oracle.

BOX_COORD_BOUND = 4
BOX_LENGTH_BOUND = 6
SWEEP_DEPTH = 2


def _box_edge_sets(
    bound: int = BOX_COORD_BOUND, length_bound: int = BOX_LENGTH_BOUND
) -> list[tuple[tuple[int, int], ...]]:
    """Closed edge sets with pairwise distinct directions inside the box."""
    vecs = sorted(
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if (x, y) != (0, 0)
    )
    length = {v: gcd(abs(v[0]), abs(v[1])) for v in vecs}
    prim = {v: (v[0] // length[v], v[1] // length[v]) for v in vecs}
    found: list[tuple[tuple[int, int], ...]] = []

    def extend(start: int, chosen: list, dirs: set, sx: int, sy: int, budget: int):
        if len(chosen) >= 2 and sx == 0 and sy == 0:
            found.append(tuple(chosen))
        for i in range(start, len(vecs)):
            v = vecs[i]
            l = length[v]
            rem = budget - l
            if rem < 0 or prim[v] in dirs:
                continue
            nx, ny = sx + v[0], sy + v[1]
            # a primitive coordinate is at most `bound`, so each remaining
            # unit of length moves the partial sum by at most `bound`
            if abs(nx) > bound * rem or abs(ny) > bound * rem:
                continue
            chosen.append(v)
            dirs.add(prim[v])
            extend(i + 1, chosen, dirs, nx, ny, rem)
            dirs.discard(prim[v])
            chosen.pop()

    extend(0, [], set(), 0, 0, length_bound)
    return found


@lru_cache(maxsize=1)
def box_survey() -> dict:
    """Run the full small-box survey once per process and cache the outcome.

    Both searches run with identical limits on every canonical class
    representative; any disagreement is recorded rather than raised so the
    consuming tests can report all of it.
    """
    t0 = time.monotonic()
    classes: dict[tuple, LogDatum] = {}
    data_count = 0
    for edge_set in _box_edge_sets():
        options = [partitions_of(gcd(abs(x), abs(y))) for x, y in edge_set]
        for assignment in iter_product(*options):
            S = validate(list(zip(edge_set, assignment)))
            data_count += 1
            key = canonical_tuple(S)
            if key not in classes:
                classes[key] = S

    verdicts = {"yes": 0, "no": 0, "unknown": 0}
    verdict_mismatches = []
    length_mismatches = []
    irreducibility_mismatches = []
    irreducible_count = 0
    for key, S in classes.items():
        fast = is_zero_mutable(S, max_depth=SWEEP_DEPTH)
        kind, shortest = iddfs_zero_mutable(S, max_depth=SWEEP_DEPTH)
        verdicts[fast.kind] += 1
        if fast.kind != kind:
            verdict_mismatches.append((key, fast.kind, kind))
        elif fast.is_yes and len(fast.certificate.steps) != shortest:
            length_mismatches.append((key, len(fast.certificate.steps), shortest))
        lib = is_irreducible(S)
        if lib != irreducible_oracle(S):
            irreducibility_mismatches.append(key)
        irreducible_count += lib

    return {
        "elapsed": time.monotonic() - t0,
        "data_count": data_count,
        "class_count": len(classes),
        "verdicts": verdicts,
        "verdict_mismatches": tuple(verdict_mismatches),
        "length_mismatches": tuple(length_mismatches),
        "irreducibility_mismatches": tuple(irreducibility_mismatches),
        "irreducible_count": irreducible_count,
    }

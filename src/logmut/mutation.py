"""The mutation operator on rank-two log data.

A mutation is addressed by (j, k): the 1-based counterclockwise position j of
an edge and the 1-based index k of a part of its partition (partitions are
stored weakly decreasing).  Writing u_j for the primitive direction of edge j,
l = nu_j[k] for the chosen part, and h for the sum of {u_j, e_i}_+ over all
edges, the mutation is legal when h >= l and then:

(1)  every edge not on the line R*u_j is sheared: e -> e + {u_j, e}_+ * u_j;
(2a) if nu_j has other parts, edge j shrinks to (l_j - l) * u_j and loses one
     part equal to l;
(2b) otherwise edge j is removed;
(3a) if an edge with direction -u_j exists, it grows by (h - l) * (-u_j) and
     its partition gains a part h - l (nothing is inserted when h == l);
(3b) otherwise, if d = h - l > 0, a new edge (-d * u_j, (d)) appears.

Edges are counted in the east-first order of lattice.sort_ccw, by angle in
[0, 2pi) from (1, 0).  A closed cycle has edges in both half-planes [0, pi)
and [pi, 2pi) and passes from the lower into the upper one once: the first
edge is the one where it does.

The rules are implemented once, by _edge_moves on flat states; the search
calls it on states, legal_mutations lists its moves, and mutate() wraps it
for LogDatum objects, whose result is re-validated and re-sorted
counterclockwise.  The kernel formats nothing: mutate_with_trace reads the
branch lines off the height and sides that it returns.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import IllegalMutation
from .lattice import _upper
from .logdatum import LogDatum, _require_rank_two, validate


class MutationIndex(NamedTuple):
    j: int  # 1-based edge position in counterclockwise order
    k: int  # 1-based part index into the (weakly decreasing) partition


def legal_mutations(S: LogDatum) -> list[MutationIndex]:
    """All legal (j, k), one k per distinct part value of each edge: the
    kernel's moves, each value given by the index of its first part."""
    _require_rank_two(S)
    return [MutationIndex(j, S.edges[j - 1].nu.index(part) + 1)
            for j, part, _, _ in _expand_state(_state(S))]


# A state is a datum as one flat tuple (l, nu, dx, dy, l, nu, dx, dy, ...):
# lattice length, partition and primitive direction of each edge, in the
# counterclockwise order of the datum (east-first cut).  Mutation moves
# directions by unimodular shears, which keep lengths, so the kernel never
# takes a gcd, and validate() stores the lengths and directions a state is
# built from.


def _state(S: LogDatum) -> tuple:
    """The state of a validated datum."""
    out = []
    for l, edge, (dx, dy) in zip(S.lengths, S.edges, S.directions):
        out += (l, edge.nu, dx, dy)
    return tuple(out)


def _edge_moves(state: tuple, j: int, parts: tuple, out: list) -> tuple:
    """Append to `out` the children of the edge at flat index j, one
    (1-based edge, part value, child, child's back move) per distinct value
    l <= h in `parts` (parts of that edge, in descending order), and return
    (h, positive, opposite): the height h along u_j, the sheared positive
    side (flat, in cycle order from edge j) and the -u_j edge or None.

    No comparison sort is needed: walking the cycle from edge j, the
    positive side of u_j comes first (the shear fixes u_j and keeps that
    open half-plane, so it preserves the arc's internal order), then the
    -u_j slot, then the untouched negative side.  That is the
    counterclockwise cycle, rotated to the east-first cut that mutation
    indices address: the edge where the cycle passes from the lower
    half-plane into the upper one (lattice._upper, as in sort_ccw).  The
    sides do not depend on the part removed, so they are built once per edge.

    The back move of a child with d = h - part > 0 removes the part d just
    added to its -u_j edge; it is given as (0-based flat index of that
    edge, d).  Its height along -u_j is again h (the sform(u_j, .) of a
    closed datum sums to zero), so it puts the part back on u_j and shears
    the other side by the same shear as the first move: the result is that
    shear applied to the whole parent, a datum of the parent's class.
    """
    edge = j // 4 + 1
    lj, nuj, ux, uy = state[j : j + 4]
    rest = state[j + 4 :] + state[:j]
    # The positive side is a prefix of the rest; it alone adds to the
    # height h, and its shear image is the same for every part.
    h = 0
    positive = []
    k = 0
    it = iter(rest)
    for l, nu, dx, dy in zip(it, it, it, it):
        c = ux * dy - uy * dx  # sform(u_j, u)
        if c <= 0:
            break
        h += l * c
        dx += c * ux
        dy += c * uy
        positive += (l, nu, dx, dy)
        k += 4
    if c:
        opposite = None
        negative = rest[k:]
    else:  # directions are distinct: this is -u_j
        opposite = rest[k : k + 4]
        negative = rest[k + 4 :]

    last = None
    for part in parts:  # descending, so equal values are adjacent
        if part == last or part > h:
            continue  # duplicate value, or illegal
        last = part
        if len(nuj) > 1:
            remaining = list(nuj)
            remaining.remove(part)  # stays sorted descending
            child = [lj - part, tuple(remaining), ux, uy]
        else:
            child = []
        child += positive
        d = h - part
        if opposite is None:
            if d:
                child += (d, (d,), -ux, -uy)
        elif d:
            lo, nuo, ox, oy = opposite
            grown = tuple(sorted(nuo + (d,), reverse=True))
            child += (lo + d, grown, ox, oy)
        else:
            child += opposite
        tail = len(child)
        child += negative

        cut = 0  # the east-first cut: the upper-half edge after a lower-half one
        while _upper(child[cut - 2], child[cut - 1]) or not _upper(
            child[cut + 2], child[cut + 3]
        ):
            cut += 4
        child = child[cut:] + child[:cut]
        child_back = ((tail - 4 - cut) % len(child), d) if d else None
        out.append((edge, part, tuple(child), child_back))
    return h, positive, opposite


def _expand_state(state: tuple, back: Optional[tuple] = None) -> list:
    """Children of one state in deterministic move order (edge asc, part
    index asc, one move per distinct part value), as in _edge_moves,
    leaving out the state's own back move `back`.

    A back move leads to a datum of the parent's class (see _edge_moves);
    the search has visited that class already, so it loses nothing by
    leaving the move out.
    """
    skip_j, skip_part = back or (-1, 0)
    out = []
    for j in range(0, len(state), 4):
        parts = state[j + 1]
        if j == skip_j:
            parts = tuple(p for p in parts if p != skip_part)
        _edge_moves(state, j, parts, out)
    return out


def _partition_at(S: LogDatum, j: int) -> tuple:
    """The partition of edge j, after the rank check and then the edge
    index check."""
    _require_rank_two(S)
    if not 1 <= j <= len(S):
        raise IllegalMutation(f"edge index {j} out of range 1..{len(S)}")
    return S.edges[j - 1].nu


def _part_at(S: LogDatum, j: int, k: int) -> int:
    """The value of part k of edge j, after the rank and index checks."""
    nu = _partition_at(S, j)
    if not 1 <= k <= len(nu):
        raise IllegalMutation(f"part index {k} out of range 1..{len(nu)} for edge {j}")
    return nu[k - 1]


def _mutate_part(S: LogDatum, j: int, part: int) -> tuple[LogDatum, tuple]:
    """The mutation at edge j removing one part of value `part`, through the
    kernel and re-validated, and the kernel's (h, positive, opposite)."""
    children: list = []
    sides = _edge_moves(_state(S), 4 * (j - 1), (part,), children)
    if not children:
        raise IllegalMutation(
            f"mutation at edge {j}, part {part} is illegal: height h = {sides[0]} < {part}"
        )
    it = iter(children[0][2])
    T = validate([((l * dx, l * dy), nu) for l, nu, dx, dy in zip(it, it, it, it)])
    return T, sides


def _trace(S: LogDatum, j: int, part: int, h: int, positive: list, opposite) -> list[str]:
    """The branch lines of the mutation at edge j removing `part`, in rule
    order and rule (1) in edge order, read off the kernel's sides."""
    n, u, lj, d = len(S), S.directions[j - 1], S.lengths[j - 1], h - part
    it = iter(positive)  # its t-th edge has 0-based index j + t, cyclically
    new = {(j + t) % n: (l * dx, l * dy)
           for t, (l, _, dx, dy) in enumerate(zip(it, it, it, it))}
    lines = [f"(1) edge {i + 1} sheared: {S.edges[i].e} -> {new[i]}" for i in sorted(new)]
    if len(S.edges[j - 1].nu) > 1:
        shrunk = ((lj - part) * u[0], (lj - part) * u[1])
        lines.append(f"(2a) edge {j} shrinks to {shrunk}, partition loses one part {part}")
    else:
        lines.append(f"(2b) edge {j} removed")
    if opposite is not None:
        i, (lo, _, ox, oy) = (j + len(positive) // 4) % n, opposite
        lines.append(f"(3a) opposite edge {i + 1} grows: {S.edges[i].e} ->"
                     f" {((lo + d) * ox, (lo + d) * oy)}, partition gains {d or 'nothing'}")
    elif d:
        lines.append(f"(3b) new edge {(-d * u[0], -d * u[1])} with partition ({d},)")
    return lines


def mutate_with_trace(S: LogDatum, j: int, k: int) -> tuple[LogDatum, list[str]]:
    """Apply the mutation at edge j, part index k; also report branches taken."""
    part = _part_at(S, j, k)
    T, sides = _mutate_part(S, j, part)
    return T, _trace(S, j, part, *sides)


def mutate(S: LogDatum, j: int, k: int) -> LogDatum:
    """The mutation at edge j (1-based CCW position), part index k (1-based)."""
    return _mutate_part(S, j, _part_at(S, j, k))[0]


def part_index(S: LogDatum, j: int, value: int) -> int:
    """The 1-based index of the first part of edge j equal to value."""
    nu = _partition_at(S, j)
    try:
        return nu.index(value) + 1
    except ValueError:
        raise IllegalMutation(
            f"edge {j} has no part of value {value}; partition is {nu}"
        ) from None


def mutate_by_value(S: LogDatum, j: int, value: int) -> LogDatum:
    """Mutate at the first part of edge j equal to the given value.

    Certificates address parts by value, which survives partition re-sorting.
    """
    part_index(S, j, value)  # raises unless edge j has a part of this value
    return _mutate_part(S, j, value)[0]

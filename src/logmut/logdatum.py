"""Log data: edge lists with partitions, validation, and derived geometry.

A log datum is a finite list of edges (e_i, nu_i) where e_i is a nonzero
lattice vector, nu_i is a weakly decreasing partition of the integral length
of e_i, the primitive directions are pairwise distinct, and the edges sum to
zero.  Edges are stored in counterclockwise angular order starting from the
direction of smallest angle to (1, 0), which makes serialization
deterministic.  The empty datum is valid (vacuous closure) but has no rank.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from math import gcd
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    ClosureViolation,
    DuplicateDirection,
    InvalidDatum,
    NotRankOne,
    NotRankTwo,
    PartitionSumMismatch,
    TooFewEdges,
)
from .lattice import (
    Vec,
    UnimodularMap,
    primitive_split,
    sform,
    sort_ccw,
    to_east,
    vadd,
)

Partition = tuple[int, ...]


class Edge(NamedTuple):
    e: Vec
    nu: Partition


@dataclass(frozen=True)
class LogDatum:
    """A validated log datum; construct via validate(), which also stores
    the length and primitive direction of each edge.  Equality and hashing
    use only `edges`."""

    edges: tuple[Edge, ...]
    lengths: tuple[int, ...] = field(compare=False, repr=False)
    directions: tuple[Vec, ...] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def total_length(self) -> int:
        return sum(self.lengths)


class Rank(Enum):
    RANK_ONE = "rank one"
    RANK_TWO = "rank two"


def lattice_vector(v) -> Vec:
    """v as a pair of ints; InvalidDatum for anything else, bools and floats
    included (no coercion)."""
    if type(v) in (list, tuple) and len(v) == 2:
        x, y = v
        if type(x) is int and type(y) is int:
            return (x, y)
    raise InvalidDatum(f"edge vector {v!r} is not a pair of integers")


def normalize_partition(parts: Iterable[int]) -> Partition:
    """Sort weakly decreasing and drop zero parts; reject negatives."""
    cleaned = []
    for p in parts:
        if type(p) is not int:
            raise InvalidDatum(f"partition part {p!r} is not an integer")
        if p < 0:
            raise InvalidDatum(f"partition part {p} is negative")
        if p > 0:
            cleaned.append(p)
    return tuple(sorted(cleaned, reverse=True))


def validate(raw_edges: Sequence[tuple[Vec, Iterable[int]]]) -> LogDatum:
    """Check the log-datum invariants and return the CCW-sorted datum.

    Raises InvalidDatum on a coordinate or part that is not an int (bools
    and floats included), then ZeroVector, PartitionSumMismatch,
    DuplicateDirection, or ClosureViolation (all subclasses of InvalidDatum)
    on the first violated invariant, in that order.
    """
    records = []  # (edge, length, direction)
    sx = sy = 0
    for e_raw, nu_raw in raw_edges:
        e = lattice_vector(e_raw)
        nu = normalize_partition(nu_raw)
        length, u = primitive_split(e)  # raises ZeroVector on (0,0)
        if sum(nu) != length:
            raise PartitionSumMismatch(
                f"partition {nu} sums to {sum(nu)}, edge {e} has length {length}"
            )
        records.append((Edge(e, nu), length, u))
        sx += e[0]
        sy += e[1]

    seen: set[Vec] = set()
    for _, _, u in records:
        if u in seen:
            raise DuplicateDirection(f"direction {u} appears more than once")
        seen.add(u)

    if sx or sy:
        raise ClosureViolation(f"edges sum to {(sx, sy)}, not (0, 0)")

    columns = tuple(zip(*sort_ccw(records, itemgetter(2))))  # () if no edges
    return LogDatum(*(columns or ((), (), ())))


def rank(S: LogDatum) -> Rank:
    if len(S) < 2:
        raise TooFewEdges(f"rank needs at least two edges, got {len(S)}")
    return Rank.RANK_ONE if len(S) == 2 else Rank.RANK_TWO


def is_zero_mutable_rank_one(S: LogDatum) -> bool:
    """For a rank-one datum: do the two partitions agree (as multisets)?"""
    if len(S) != 2:
        raise NotRankOne(f"expected exactly two edges, got {len(S)}")
    return S.edges[0].nu == S.edges[1].nu


def is_irreducible(S: LogDatum) -> bool:
    """gcd of the lengths is 1 and no proper nonempty edge subset sums to zero.

    If a proper subset sums to zero, so does its complement, and one of the
    two leaves out the last edge: so it is enough that no nonempty subset of
    the first m - 1 edges sums to zero.  Those subset sums are built edge by
    edge as a set, so the work grows with the number of distinct partial
    sums rather than with 2^m (not a hard bound for large coordinates).
    """
    if gcd(*S.lengths) != 1:
        return False
    sums: set[Vec] = set()
    for (x, y), _ in S.edges[:-1]:
        step = {(x + sx, y + sy) for sx, sy in sums}
        step.add((x, y))
        if (0, 0) in step:
            return False
        sums |= step
    return True


def polygon(S: LogDatum) -> list[Vec]:
    """Vertices of the polygon with edge vectors e_i, based at (0,0).

    Counterclockwise; rank-one data give a degenerate 2-gon (a segment); the
    closing vertex is not repeated.
    """
    vertices = [(0, 0)]
    for edge in S.edges[:-1]:
        vertices.append(vadd(vertices[-1], edge.e))
    return vertices


def dual_polygon(S: LogDatum) -> list[Vec]:
    """The polygon whose edges are the 90-degree clockwise rotations of the e_i.

    Each rotated edge (e.y, -e.x) then has inner normal u_i and integral
    length l_i; closure carries over from S.  Its vertices are those of
    polygon(S), turned by the same quarter turn.
    """
    return [(y, -x) for x, y in polygon(S)]


_AN_RE = re.compile(r"An\(([0-9]+)\)")
AN_MAX = 10**6  # the largest n of An(n): its middle edge holds n + 1 parts


def an_datum(n: int) -> LogDatum:
    """The A_n datum: {((1,0),(1)), ((0,n+1),(1,...,1)), ((-1,-n-1),(1))}.

    n is capped at AN_MAX; a larger n raises InvalidDatum, as the partition
    it asks for is too long to build."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > AN_MAX:
        raise InvalidDatum(f"An(n) takes n <= {AN_MAX}")
    return validate(
        [
            ((1, 0), (1,)),
            ((0, n + 1), (1,) * (n + 1)),
            ((-1, -n - 1), (1,)),
        ]
    )


def tom_datum() -> LogDatum:
    return validate([((3, 0), (2, 1)), ((0, 2), (1, 1)), ((-3, -2), (1,))])


def jerry_datum() -> LogDatum:
    return validate([((3, 0), (1, 1, 1)), ((0, 2), (2,)), ((-3, -2), (1,))])


def named(name: str) -> LogDatum:
    """Resolve a built-in datum name: 'Tom', 'Jerry', or 'An(n)'."""
    if name == "Tom":
        return tom_datum()
    if name == "Jerry":
        return jerry_datum()
    m = _AN_RE.fullmatch(name)
    if m:
        # An n with more digits than AN_MAX is over the cap, which
        # an_datum reports; int() would refuse one over 4,300 digits.
        digits = m.group(1).lstrip("0")
        if len(digits) > len(str(AN_MAX)):
            return an_datum(AN_MAX + 1)
        return an_datum(int(digits or "0"))
    raise KeyError(f"unknown datum name {name!r}; expected Tom, Jerry, or An(n)")


Vec3 = tuple[int, int, int]


@dataclass(frozen=True)
class FanPresentation:
    """Generators of the fan in M = L + Z: one maximal cone per consecutive
    direction pair, the walls they share, and the unique joint ray."""

    maximal_cones: tuple[tuple[Vec3, Vec3, Vec3], ...]
    walls: tuple[tuple[Vec3, Vec3], ...]
    joint: Vec3


class ComponentType(NamedTuple):
    index: int  # sform(u_i, u_{i+1}) >= 1
    label: str  # "smooth" or "1/r(1,q,0)"


@dataclass(frozen=True)
class ComponentReport:
    components: tuple[ComponentType, ...]

    @property
    def indices(self) -> list[int]:
        return [c.index for c in self.components]

    @property
    def labels(self) -> list[str]:
        return [c.label for c in self.components]


def _require_rank_two(S: LogDatum) -> None:
    if len(S) <= 2:
        raise NotRankTwo(f"rank-two data need more than two edges; got {len(S)}")


def fan_presentation(S: LogDatum) -> FanPresentation:
    """Maximal cones <u_i, u_{i+1}, u>, walls <u_i, u>, joint <u> with u = (0,0,1)."""
    _require_rank_two(S)
    dirs = S.directions
    joint: Vec3 = (0, 0, 1)
    lifted = [(u[0], u[1], 0) for u in dirs]
    cones = tuple(
        (lifted[i], lifted[(i + 1) % len(dirs)], joint) for i in range(len(dirs))
    )
    walls = tuple((w, joint) for w in lifted)
    return FanPresentation(cones, walls, joint)


def cone_normal_form(v: Vec, w: Vec) -> tuple[int, int]:
    """Bring the cone <v, w> (primitive rays, sform(v,w) = r >= 1) to
    <(1,0), (p, r)> with 0 <= p < r via SL(2,Z); returns (r, p).

    r = 1 means the cone is unimodular (smooth chart).
    """
    r = sform(v, w)
    if r < 1:
        raise ValueError(f"cone rays must be positively oriented, got sform {r}")
    p, r_image = to_east(v).apply(w)
    if r_image != r:
        raise RuntimeError(f"to_east({v}) changed the sform {r} of <{v}, {w}>")
    return r, p % r


def _quotient_label(r: int, p: int) -> str:
    """Label the 2-d cone <(1,0),(p,r)> as a cyclic quotient 1/r(1,q,0).

    q = min(p, p^{-1} mod r) normalizes the coordinate swap identifying
    1/r(1,q) with 1/r(1,q^{-1}); the trailing 0 is the smooth transverse
    factor of the 3-d cone.
    """
    if r == 1:
        return "smooth"
    q = min(p % r, pow(p % r, -1, r))
    return f"1/{r}(1,{q},0)"


def component_types(S: LogDatum) -> ComponentReport:
    """Index and singularity label of each maximal cone of the fan.

    The index of cone i is sform(u_i, u_{i+1}) (positive: counterclockwise
    consecutive directions of a rank-two datum are less than a half turn
    apart); the label comes from the 2-d cone normal form, with index 1
    exactly for 'smooth'.
    """
    _require_rank_two(S)
    dirs = S.directions
    out = []
    for i in range(len(dirs)):
        r, p = cone_normal_form(dirs[i], dirs[(i + 1) % len(dirs)])
        out.append(ComponentType(r, _quotient_label(r, p)))
    return ComponentReport(tuple(out))


def apply_to_datum(A: UnimodularMap, S: LogDatum) -> LogDatum:
    """Transform every edge by A and re-sort; partitions ride along."""
    return validate([(A.apply(edge.e), edge.nu) for edge in S.edges])


# --- JSON serialization -----------------------------------------------------

def datum_to_obj(S: LogDatum) -> dict:
    return {"edges": [{"e": list(edge.e), "nu": list(edge.nu)} for edge in S.edges]}


def datum_from_obj(obj: dict) -> LogDatum:
    """Parse {"edges":[{"e":[x,y],"nu":[...]}], "name"?: str} into a datum.

    A "name" key alone resolves a built-in datum; explicit edges win.
    """
    if not isinstance(obj, dict):
        raise InvalidDatum("datum document must be a JSON object")
    if not isinstance(obj.get("name", ""), str):
        raise InvalidDatum(f'datum name {obj["name"]!r} is not a string')
    if "edges" not in obj:
        if "name" in obj:
            return named(obj["name"])
        raise InvalidDatum('datum document needs an "edges" array')
    if not isinstance(obj["edges"], list):
        raise InvalidDatum(f'edges {obj["edges"]!r} is not an array')
    raw = []
    for item in obj["edges"]:
        if not isinstance(item, dict) or "e" not in item or "nu" not in item:
            raise InvalidDatum('each edge needs "e": [x, y] and "nu": [parts...]')
        if not isinstance(item["nu"], list):
            raise InvalidDatum(f'partition {item["nu"]!r} is not an array')
        raw.append((item["e"], item["nu"]))
    return validate(raw)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, weakly decreasing, in descending lexicographic order.

    partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]; partitions_of(0) == [()].
    """
    result: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return result

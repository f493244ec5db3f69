"""Canonical forms, the zero-mutability search, and certificates.

Two data are considered the same state when an orientation-preserving lattice
isomorphism (plus the induced cyclic relabeling) carries one to the other.
The canonical key realizes this: for each edge i there is a unique SL(2,Z)
map sending u_i to (1,0) whose shear part normalizes the next
counterclockwise direction, and the key is the lexicographic minimum of the
transformed serializations over all choices of i.

The search is a layer-synchronized breadth-first search over canonical
classes.  Yes verdicts carry a certificate whose steps address (1-based
counterclockwise edge position, part value) in each successive intermediate
datum; replaying never re-canonicalizes, so the terminal is the literal fold
of mutations.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product
from typing import NamedTuple, Optional, Sequence

from .errors import IllegalMutation, InvalidDatum, LogMutError, NotRankTwo
from .lattice import Vec, primitive_split
from .logdatum import (
    LogDatum,
    Partition,
    datum_from_obj,
    datum_to_obj,
    is_zero_mutable_rank_one,
    lattice_vector,
    partitions_of,
    validate,
)
from .mutation import _expand_state, _state, mutate_by_value

MAX_DEPTH = 32  # the search's default limits, also the CLI's
MAX_STATES = 10**6


def check_limits(max_depth, max_states, names=("max_depth", "max_states")) -> None:
    """Each search limit is an int, not a bool, at least 0; LogMutError otherwise."""
    for name, value in zip(names, (max_depth, max_states)):
        if type(value) is not int:
            raise LogMutError(f"{name} must be an int, got {value!r}")
        if value < 0:
            raise LogMutError(f"{name} must be non-negative, got {value}")


# The search works on the flat states of mutation.py.  A key is a flat
# (x, y, nu, x, y, nu, ...) tuple; it orders like the nested ((e, nu), ...)
# serialization.  Flat tuples keep the objects a visited class holds to its
# key alone, and a frontier class to its state.  LogDatum objects are
# rebuilt only for the final certificate (by replaying through mutate).


def _canonical_key(state: tuple) -> tuple:
    """The minimum over base edges i of the state rotated to start at i and
    transformed by the SL(2,Z) map normalizing u_i and the next direction,
    in key form; the state may start at any edge.

    Candidate i starts with (l_i, 0, nu_i), so only edges minimizing
    (l_i, nu_i) can realize the minimum.  Among those, the next triple
    (l_{i+1} * x', l_{i+1} * r_i, nu_{i+1}) decides first, where
    r_i = sform(u_i, u_{i+1}) and x' is the x-coordinate of the image of
    u_{i+1}, sheared into [0, r_i) when r_i > 0.  Full candidates are built
    only for the bases minimizing it, which is nearly always one.
    Arithmetic stays inlined: this is the search's hottest function.
    """
    n = len(state)
    if n == 0:
        return ()
    lengths = state[::4]
    l0 = min(lengths)
    if lengths.count(l0) == 1:
        bases = [4 * lengths.index(l0)]
    else:
        bases = [i for i in range(0, n, 4) if state[i] == l0]
        nu0 = min([state[i + 1] for i in bases])
        bases = [i for i in bases if state[i + 1] == nu0]
    least = None
    for i in bases:
        # Rows [[a, b], [-q, p]] with a*p + b*q == 1 send u_i to (1, 0).
        p, q = state[i + 2], state[i + 3]
        if q:
            a = pow(p, -1, q)
            b = (1 - a * p) // q
        else:
            a, b = p, 0
        j = i + 4 if i + 4 < n else 0  # the next edge
        l, nu, nx, ny = state[j : j + 4]
        r = p * ny - q * nx
        x = a * nx + b * ny
        if r > 0:  # shear the image (x, r) of the next direction
            shift = x // r
            a, b, x = a + shift * q, b - shift * p, x - shift * r
        second = (l * x, l * r, nu)
        if least is None or second < least:
            least = second
            maps = [(i, a, b, p, q)]
        elif second == least:
            maps.append((i, a, b, p, q))
    # Every kept base shares the first two triples; the rest starts at i + 8.
    head = (l0, 0, state[maps[0][0] + 1]) + least
    best = None
    for i, a, b, p, q in maps:
        cand = list(head)
        it = iter(state[i + 8 :] + state[:i] if i + 8 <= n else state[i + 8 - n : i])
        for l, nu, dx, dy in zip(it, it, it, it):
            cand += (l * (a * dx + b * dy), l * (p * dy - q * dx), nu)
        cand = tuple(cand)
        if best is None or cand < best:
            best = cand
    return best


def canonical_tuple(S: LogDatum) -> tuple:
    """Hashable canonical key: nested tuples ((e, nu), ...)."""
    key = _canonical_key(_state(S))
    return tuple(zip(zip(key[0::3], key[1::3]), key[2::3]))


def canonicalize(S: LogDatum) -> str:
    """Canonical key as a string; equal strings == isomorphic data."""
    return repr(canonical_tuple(S))


def canonical_rep(S: LogDatum) -> LogDatum:
    """The distinguished concrete datum of S's isomorphism class."""
    return validate(canonical_tuple(S))  # the key is east-first already


class CertStep(NamedTuple):
    edge: int  # 1-based counterclockwise position in the intermediate datum
    part: int  # part *value* (stable under partition re-sorting)


@dataclass(frozen=True)
class Certificate:
    steps: tuple[CertStep, ...]
    terminal: LogDatum

    def to_obj(self) -> dict:
        return {
            "steps": [{"edge": s.edge, "part": s.part} for s in self.steps],
            "terminal": datum_to_obj(self.terminal),
        }

    @staticmethod
    def from_obj(obj: dict) -> "Certificate":
        """Inverse of to_obj; InvalidDatum for a document of another shape."""
        if not isinstance(obj, dict) or not isinstance(obj.get("steps"), list):
            raise InvalidDatum('a certificate needs a "steps" array')
        if "terminal" not in obj:
            raise InvalidDatum('a certificate needs a "terminal" datum')
        steps = []
        for s in obj["steps"]:
            step = s if isinstance(s, dict) else {}
            edge, part = step.get("edge"), step.get("part")
            if type(edge) is not int or type(part) is not int:
                raise InvalidDatum(f"certificate step {s!r} is not a pair of integers")
            steps.append(CertStep(edge, part))
        return Certificate(tuple(steps), datum_from_obj(obj["terminal"]))


@dataclass(frozen=True)
class Verdict:
    """Yes (with certificate) / No / Unknown, plus search statistics."""

    kind: str  # "yes" | "no" | "unknown"
    certificate: Optional[Certificate]
    explored: int  # distinct canonical classes visited
    depth: int  # layers expanded (yes: certificate length)

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    @property
    def is_no(self) -> bool:
        return self.kind == "no"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def __str__(self) -> str:
        return {"yes": "Yes", "no": "No", "unknown": "Unknown"}[self.kind]

    def to_obj(self) -> dict:
        cert = self.certificate
        return {"verdict": str(self), "explored": self.explored, "depth": self.depth,
                "certificate": cert.to_obj() if cert else None}

    @staticmethod
    def yes(cert: Certificate, explored: int) -> "Verdict":
        return Verdict("yes", cert, explored, len(cert.steps))

    @staticmethod
    def no(explored: int, depth: int) -> "Verdict":
        return Verdict("no", None, explored, depth)

    @staticmethod
    def unknown(explored: int, depth: int) -> "Verdict":
        return Verdict("unknown", None, explored, depth)


def is_zero_mutable(
    S: LogDatum, *, max_depth: int = MAX_DEPTH, max_states: int = MAX_STATES
) -> Verdict:
    """Breadth-first search for a mutation path to a rank-one datum with
    equal partitions.

    Yes carries a shortest certificate.  No is returned only when the
    reachable class set was exhausted within the limits.  Unknown reports a
    hit limit.  `explored` counts the classes visited when the verdict is
    reached: on Yes, up to the layer's first success or to max_states,
    whichever comes first; in the layer at max_depth without a success, up
    to its first new class with three or more edges, which settles Unknown.
    The root's class always counts, so explored <= max(max_states, 1).
    Limits that break check_limits' rule raise LogMutError.
    """
    if not isinstance(S, LogDatum):
        raise InvalidDatum("is_zero_mutable expects a validated LogDatum")
    check_limits(max_depth, max_states)
    if len(S) == 2 and is_zero_mutable_rank_one(S):
        return Verdict.yes(Certificate((), S), explored=1)

    root = _state(S)
    visited = {_canonical_key(root)}
    # Only the frontier keeps its states.  A class once on a frontier keeps,
    # flat by index (0 is the root), its parent's index and the move that
    # reached it; the current frontier holds the last len(frontier) indices.
    links = [0, 0, 0]
    frontier, backs = [root], [None]
    depth = 0
    while frontier:
        # Reached only when max_depth is 0: the layer at max_depth keeps none.
        if depth >= max_depth:
            return Verdict.unknown(len(visited), depth)
        depth += 1
        layer = _layer(frontier, backs, visited, links, depth, max_states,
                       keep=depth < max_depth)
        if isinstance(layer, Verdict):
            return layer
        successes, frontier, backs = layer
        if successes:
            return Verdict.yes(_certificate(S, successes, links), len(visited))
    return Verdict.no(len(visited), depth)


def _layer(frontier: list, backs: list, visited: set, links: list,
           depth: int, max_states: int, keep: bool):
    """Expand one layer: (successes, next frontier, next backs), or the
    Unknown verdict that stopped it.

    The successes are the rank-one children with equal partitions of the
    three-edge parents (a mutation removes at most one edge), parents in
    discovery order and moves in expansion order.  The pass that adds new
    classes to `visited` stops at the first of them, or where it would pass
    `max_states`: Unknown only in a layer with no success, so the verdict
    does not depend on the order of expansion.  The keep rule: with `keep`,
    each new class with three or more edges joins the next frontier;
    without it (at max_depth) none does, and in a layer with no success
    the first one settles Unknown, as it rules out No.
    """
    first = len(links) // 3 - len(frontier)  # index of frontier[0]
    successes = [
        (node, edge, part, child)
        for node, state, back in zip(count(first), frontier, backs)
        if len(state) == 12
        for edge, part, child, _ in _expand_state(state, back)
        if len(child) == 8 and child[1] == child[5]
    ]
    stop = successes[0][3] if successes else ()
    last = not keep and not successes
    next_frontier, next_backs = [], []
    done = successes, next_frontier, next_backs
    for node, state, parent_back in zip(count(first), frontier, backs):
        for edge, part, child, back in _expand_state(state, parent_back):
            if child == stop:  # an equal earlier child would be a success too
                return done
            key = _canonical_key(child)
            if key in visited:
                continue
            if len(visited) >= max_states:  # a listed success still settles Yes
                return done if successes else Verdict.unknown(len(visited), depth)
            visited.add(key)
            if len(child) > 8:
                if last:
                    return Verdict.unknown(len(visited), depth)
                next_frontier.append(child)
                next_backs.append(back)
                links += (node, edge, part)
    return done


def _certificate(S: LogDatum, successes: list, links: list) -> Certificate:
    """The chosen success's path from the parent links, replayed from S."""
    # The first success whose terminal is its own canonical representative,
    # else the first one.  A rank-one (l*u, nu), (-l*u, nu) has the key
    # (l, 0, nu, -l, 0, nu), so it is its own exactly when u = (1, 0).
    node, edge, part, final_state = next(
        (s for s in successes if s[3][3] == 0), successes[0]
    )
    steps = [CertStep(edge, part)]
    while node:
        node, edge, part = links[3 * node : 3 * node + 3]
        steps.append(CertStep(edge, part))
    steps.reverse()
    # Replaying the path through mutate re-validates every intermediate:
    # this checks the kernel's east-first cut against validate's sort.
    terminal = replay(S, Certificate(tuple(steps), S))
    if _state(terminal) != final_state:
        raise RuntimeError("the search's states diverged from the validated data")
    return Certificate(tuple(steps), terminal)


def replay(S: LogDatum, cert: Certificate) -> LogDatum:
    """Fold the certificate's mutations over S; equals cert.terminal when valid.

    Raises IllegalMutation naming the failing step index.
    """
    current = S
    for idx, step in enumerate(cert.steps, start=1):
        try:
            current = mutate_by_value(current, step.edge, step.part)
        except (IllegalMutation, NotRankTwo) as exc:
            raise IllegalMutation(f"certificate step {idx}: {exc}") from exc
    return current


def verify_certificate(S: LogDatum, cert: Certificate) -> bool:
    """True iff the certificate replays from S to its own terminal, which is
    rank one with equal partitions."""
    try:
        result = replay(S, cert)
    except IllegalMutation:
        return False
    return (
        result == cert.terminal
        and len(result) == 2
        and is_zero_mutable_rank_one(result)
    )


def enumerate_zero_mutable(
    edge_vectors: Sequence[Vec],
    *,
    max_depth: int = MAX_DEPTH,
    max_states: int = MAX_STATES,
) -> list[tuple[tuple[Partition, ...], Verdict]]:
    """Decide every partition assignment over a fixed closed edge list.

    Edge vectors must be integer pairs, closed, with pairwise distinct
    directions (checked by validation with the trivial one-part
    partitions).  Assignments iterate in descending lexicographic partition
    order per edge, edges taken in counterclockwise order; returns
    (assignment, verdict) pairs.  Each runs its own search under both
    limits, and their number is the product of the partition counts of the
    edge lengths (6 for [(0, 2), (-3, -2), (3, 0)], 20 for [(4, 0), (0, 2),
    (-4, -2)]), so at the default limits a sweep can run for minutes.
    """
    check_limits(max_depth, max_states)
    edge_vectors = [lattice_vector(e) for e in edge_vectors]
    trial = validate([(e, (primitive_split(e)[0],)) for e in edge_vectors])
    vectors = [edge.e for edge in trial.edges]
    lengths = trial.lengths
    results = []
    for assignment in product(*(partitions_of(l) for l in lengths)):
        S = validate(list(zip(vectors, assignment)))
        verdict = is_zero_mutable(S, max_depth=max_depth, max_states=max_states)
        results.append((assignment, verdict))
    return results

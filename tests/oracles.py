"""Independent reference implementations used to cross-check the library.

These deliberately take different routes than the package code: the
counterclockwise order as a sort by an exact Fraction slope key per quarter
turn instead of the package's half-plane insertion sort, validation in
separate passes with its own parsing and gcd split, the legal moves and the
mutation rules on LogDatum objects from the height's definition instead of
the package's flat-state kernel, canonical keys from their own Bezout pairs
and shears on every base edge instead of pruned bases, iterative deepening
over those keys and these mutation rules instead of breadth-first search,
subset enumeration by sizes instead of partial sums, numeric sampling with
its own derivatives next to Groebner bases, and the wall checks on sympy
expressions instead of sympy's polynomial rings.  One reference shares the
package's kernel on purpose: full_layer_search checks only where the decider
stops.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd

import sympy
from sympy.polys.matrices import DomainMatrix
from sympy.polys.subresultants_qq_zz import sylvester

from logmut import (
    BiPoly,
    CertStep,
    Certificate,
    Edge,
    LogDatum,
    Verdict,
    WallAssignment,
    replay,
    sform,
    Vec,
)
from logmut.decider import _canonical_key
from logmut.errors import (
    ClosureViolation,
    DuplicateDirection,
    IllegalMutation,
    InvalidDatum,
    NotRankTwo,
    PartitionSumMismatch,
    ZeroVector,
)
from logmut.mutation import _expand_state, _state


def ccw_key(v: Vec) -> tuple:
    """Reference sort key for the counterclockwise order of sort_ccw.

    The quarter turn [k*pi/2, (k+1)*pi/2) holding v comes first; within it
    the angle increases strictly with the slope y/x, compared as an exact
    Fraction, and the vertical directions opening quarter turns 1 and 3
    come first.  Positive multiples of a vector get equal keys.
    """
    x, y = v
    if x == 0 and y == 0:
        raise ZeroVector("the zero vector has no angle")
    if x > 0 and y >= 0:
        q = 0
    elif y > 0:
        q = 1
    elif x < 0:
        q = 2
    else:
        q = 3
    if x == 0:
        return (q, float("-inf"))
    return (q, Fraction(y, x))


def _edge_vector(v) -> Vec:
    """v as a pair of exact ints (bools and floats rejected)."""
    if type(v) not in (list, tuple) or len(v) != 2 or {type(c) for c in v} != {int}:
        raise InvalidDatum(f"edge vector {v!r} is not a pair of integers")
    return tuple(v)


def _partition(parts) -> tuple:
    """The nonzero parts, largest first, after checking every part is a
    nonnegative exact int."""
    parts = list(parts)
    for p in parts:
        if type(p) is not int:
            raise InvalidDatum(f"partition part {p!r} is not an integer")
        if p < 0:
            raise InvalidDatum(f"partition part {p} is negative")
    return tuple(sorted(filter(None, parts), reverse=True))


def _split(e: Vec) -> tuple[int, Vec]:
    """(lattice length, primitive direction) of e, by one gcd."""
    g = gcd(*e)  # nonnegative, and 0 only for (0, 0)
    if not g:
        raise ZeroVector("the zero vector has no primitive direction")
    return g, (e[0] // g, e[1] // g)


def validate_reference(raw_edges) -> LogDatum:
    """validate() as a sequence of separate passes: the edge checks, then
    duplicate directions, then closure, then a sort by ccw_key.  Lengths and
    directions come from one split per edge.  Parsing, split and sort are
    the oracle's own, so no check here shares code with validate."""
    edges = []
    for e_raw, nu_raw in raw_edges:
        e = _edge_vector(e_raw)
        nu = _partition(nu_raw)
        length, u = _split(e)
        if sum(nu) != length:
            raise PartitionSumMismatch(
                f"partition {nu} sums to {sum(nu)}, edge {e} has length {length}"
            )
        edges.append((Edge(e, nu), length, u))
    seen = set()
    for _, _, u in edges:
        if u in seen:
            raise DuplicateDirection(f"direction {u} appears more than once")
        seen.add(u)
    vectors = [edge.e for edge, _, _ in edges]
    total = (sum(x for x, _ in vectors), sum(y for _, y in vectors))
    if total != (0, 0):
        raise ClosureViolation(f"edges sum to {total}, not (0, 0)")
    edges.sort(key=lambda item: ccw_key(item[0].e))
    return LogDatum(
        tuple(edge for edge, _, _ in edges),
        tuple(length for _, length, _ in edges),
        tuple(u for _, _, u in edges),
    )


def u_height(S: LogDatum, u: Vec) -> int:
    """The height of S along u: the sum over all edges e of {u, e}_+."""
    x, y = u
    return sum(c for c in (x * ey - y * ex for (ex, ey), _ in S.edges) if c > 0)


def legal_moves(S: LogDatum) -> list[tuple[int, int]]:
    """Every (j, k) with part k of edge j at most the height along u_j,
    keeping only the first index k of each part value."""
    if len(S) <= 2:
        raise NotRankTwo(f"mutation is defined for rank-two data; got {len(S)} edges")
    moves = []
    for j, ((x, y), nu) in enumerate(S.edges, start=1):
        g = gcd(abs(x), abs(y))
        h = u_height(S, (x // g, y // g))
        for k, part in enumerate(nu, start=1):
            if part <= h and part not in nu[: k - 1]:
                moves.append((j, k))
    return moves


def mutate(S: LogDatum, j: int, k: int) -> LogDatum:
    """The mutation at edge j, part index k, literally from rules (1)-(3b)
    of logmut.mutation, on LogDatum objects."""
    if len(S) <= 2:
        raise NotRankTwo(f"mutation is defined for rank-two data; got {len(S)} edges")
    if not 1 <= j <= len(S):
        raise IllegalMutation(f"edge index {j} out of range 1..{len(S)}")
    edge_j = S.edges[j - 1]
    if not 1 <= k <= len(edge_j.nu):
        raise IllegalMutation(
            f"part index {k} out of range 1..{len(edge_j.nu)} for edge {j}"
        )
    dirs = S.directions
    u = dirs[j - 1]
    part = edge_j.nu[k - 1]
    h = u_height(S, u)
    if h < part:
        raise IllegalMutation(
            f"mutation at edge {j}, part {part} is illegal: height h = {h} < {part}"
        )

    minus_u = (-u[0], -u[1])
    new_edges = []
    opposite_index = None
    for i, edge in enumerate(S.edges):
        if i == j - 1:
            continue
        if dirs[i] == minus_u:
            opposite_index = i
            continue  # handled in branch (3a); the shear fixes R*u_j anyway
        pairing = sform(u, edge.e)
        if pairing > 0:  # (1)
            x, y = edge.e
            new_edges.append(((x + pairing * u[0], y + pairing * u[1]), edge.nu))
        else:
            new_edges.append((edge.e, edge.nu))

    if len(edge_j.nu) > 1:  # (2a); otherwise (2b) drops edge j
        remaining = list(edge_j.nu)
        remaining.pop(k - 1)
        shrunk = S.lengths[j - 1] - part
        new_edges.append(((shrunk * u[0], shrunk * u[1]), tuple(remaining)))

    d = h - part
    if opposite_index is not None:  # (3a)
        opp = S.edges[opposite_index]
        grown = (opp.e[0] - d * u[0], opp.e[1] - d * u[1])
        new_edges.append((grown, opp.nu + (d,) if d > 0 else opp.nu))
    elif d > 0:  # (3b)
        new_edges.append(((-d * u[0], -d * u[1]), (d,)))

    return validate_reference(new_edges)


def _bezout(p: int, q: int) -> tuple[int, int]:
    """(a, b) with a*p + b*q == 1 for coprime p and q, by the extended
    Euclidean algorithm."""
    r0, r1, a0, a1, b0, b1 = p, q, 1, 0, 0, 1
    while r1:
        t = r0 // r1
        r0, r1 = r1, r0 - t * r1
        a0, a1 = a1, a0 - t * a1
        b0, b1 = b1, b0 - t * b1
    return (a0, b0) if r0 == 1 else (-a0, -b0)


def _candidates(S: LogDatum):
    """Reference construction of the transformed serializations, one per
    choice of base edge i.

    The rows [[a, b], [-q, p]], with (a, b) a Bezout pair of u_i = (p, q),
    send u_i to (1, 0); adding a multiple of the second row to the first
    (a shear fixing (1, 0)) brings the image (x, r) of the next direction
    to 0 <= x < r.  For rank-one data the next direction maps to (-1, 0),
    which every shear fixes, so none is applied.  An orientation-preserving
    map keeps the counterclockwise cyclic order and sends u_i to the angle
    the sort starts from, so the image, rotated to start at edge i, needs
    no re-sort.  The package computes the same minimum with pruned, inlined
    arithmetic in logmut.decider._canonical_key; tests pin the two against
    each other.
    """
    edges = S.edges
    dirs = S.directions
    m = len(edges)
    for i in range(m):
        p, q = dirs[i]
        a, b = _bezout(p, q)
        nx, ny = dirs[(i + 1) % m]
        r = p * ny - q * nx
        if r > 0:
            k = (a * nx + b * ny) // r
            a, b = a + k * q, b - k * p
        images = [((a * x + b * y, p * y - q * x), nu) for (x, y), nu in edges]
        yield tuple(images[i:] + images[:i])


def yes_walk_corpus(starts, *, seed: int, walks: int, max_steps: int):
    """Yes data with a depth bound that no search computed, from seeded
    random walks over this module's legal_moves, u_height and mutate.

    `starts` pairs Yes data with their depths.  A step takes a legal move
    (j, k) with d = h - part > 0, h the height along u_j, whose child has
    more than two edges.  By logmut.mutation._edge_moves such a child has a
    move back into its parent's class (each step checks it with this
    module's keys), so a datum w steps from a start of depth k is Yes at
    depth <= k + w.  Returns one (datum, bound) per class reached, with the
    least bound found, in discovery order.
    """
    rng = random.Random(seed)
    found: dict = {}
    for _ in range(walks):
        S, bound = rng.choice(starts)
        for _ in range(rng.randint(1, max_steps)):
            moves = [(j, k) for j, k in legal_moves(S)
                     if S.edges[j - 1].nu[k - 1] < u_height(S, S.directions[j - 1])]
            rng.shuffle(moves)
            T = next((T for T in (mutate(S, j, k) for j, k in moves) if len(T) > 2), None)
            if T is None:
                break
            home = min(_candidates(S))
            if not any(min(_candidates(mutate(T, j, k))) == home for j, k in legal_moves(T)):
                raise AssertionError(f"no move of {T} returns to the class of {S}")
            S, bound = T, bound + 1
            key = min(_candidates(S))
            if key not in found or found[key][1] > bound:
                found[key] = (S, bound)
    return list(found.values())


def _is_success(S: LogDatum) -> bool:
    return len(S) == 2 and S.edges[0].nu == S.edges[1].nu


def iddfs_zero_mutable(
    S: LogDatum, *, max_depth: int, max_states: int = 10**6, prune: bool = True
) -> tuple[str, int | None]:
    """Iterative-deepening search; returns ("yes", shortest length),
    ("no", None) on exhaustion, or ("unknown", None) at the limits.

    Each iteration runs a depth-cutoff DFS over canonical classes,
    re-expanding a class only when reached at a strictly smaller depth.  The
    first cutoff producing a success equals the shortest certificate length,
    because every shallower success would have appeared in an earlier
    iteration.  An iteration that never hits the cutoff on an expandable
    state has seen the entire reachable set, proving No.  An iteration that
    the pruned pass (see _iddfs_pass) cannot settle within max_states runs
    again unpruned, so `prune` changes no outcome, only the work.
    """
    if _is_success(S):
        return ("yes", 0)
    for cutoff in range(1, max_depth + 1):
        outcome = _iddfs_pass(S, cutoff, max_states, prune)
        if outcome is None:  # only a pruned pass returns None
            outcome = _iddfs_pass(S, cutoff, max_states, prune=False)
        if outcome != "deeper":
            return outcome
    return ("unknown", None)


def _iddfs_pass(S: LogDatum, cutoff: int, max_states: int, prune: bool):
    """One depth-cutoff DFS of iddfs_zero_mutable: ("yes", cutoff),
    ("no", None), ("unknown", None) at max_states, or "deeper" when the
    cutoff was hit on an expandable state.

    With `prune`, once the cutoff has been hit (so No is ruled out), a datum
    at depth cutoff - 1 with more than three edges is not expanded: a
    mutation removes at most one edge, as checked on every mutation here,
    so none of its children is a success.  Its children would only have
    been stored, at depth cutoff; their number is at most its move count,
    summed in `skipped`.  While fewer than max_states classes are stored
    with those counted in, the unpruned pass could not have stopped at
    max_states either; when that no longer holds the pass returns None.
    """
    best_depth = {min(_candidates(S)): 0}
    hit_cutoff = False
    skipped = 0
    stack: list[tuple[LogDatum, int]] = [(S, 0)]
    while stack:
        datum, depth = stack.pop()
        if len(datum) <= 2:
            continue  # rank-one dead end: no moves from here
        moves = legal_moves(datum)
        if depth == cutoff:
            hit_cutoff = hit_cutoff or bool(moves)
            continue
        if prune and hit_cutoff and depth == cutoff - 1 and len(datum) > 3:
            skipped += len(moves)
            if len(best_depth) + skipped >= max_states:
                return None
            continue
        for j, k in moves:
            child = mutate(datum, j, k)
            if len(child) < len(datum) - 1:
                raise AssertionError(f"mutation {(j, k)} of {datum} removed two edges")
            if _is_success(child):
                return ("yes", cutoff)
            key = min(_candidates(child))
            prev = best_depth.get(key)
            if prev is not None and prev <= depth + 1:
                continue
            if len(best_depth) + skipped >= max_states:
                return None if skipped else ("unknown", None)
            best_depth[key] = depth + 1
            stack.append((child, depth + 1))
    return "deeper" if hit_cutoff else ("no", None)


def full_layer_search(S: LogDatum, *, max_depth: int, max_states: int) -> Verdict:
    """is_zero_mutable as a plain breadth-first search that stores every
    layer in full, the last one included, and reads Unknown at max_depth
    only once that layer is stored.  When max_states stops the storing, the
    rest of the layer is still scanned for successes: a layer with a
    success is Yes whatever the budget.

    Unlike the other references here, it runs the package's own kernel and
    keys (_expand_state, _canonical_key) and the package's tie-break (the
    first success whose terminal is horizontal, else the first success):
    it checks the decider's stopping rule, not its mutations.  Each
    frontier entry carries its whole path instead of a parent index.
    """
    if len(S) == 2 and S.edges[0].nu == S.edges[1].nu:
        return Verdict.yes(Certificate((), S), explored=1)
    visited = {_canonical_key(_state(S))}
    frontier = [(_state(S), None, ())]
    depth = 0
    while frontier:
        if depth >= max_depth:
            return Verdict.unknown(len(visited), depth)
        depth += 1
        success = None
        full = False  # the budget tripped: scan on for successes only
        layer = []
        for state, back, path in frontier:
            for edge, part, child, child_back in _expand_state(state, back):
                steps = path + (CertStep(edge, part),)
                if len(child) == 8 and child[1] == child[5]:
                    if success is None or child[3] == 0:
                        success = steps
                    if child[3] == 0:
                        break
                elif success is None and not full:
                    key = _canonical_key(child)
                    if key in visited:
                        continue
                    if len(visited) >= max_states:
                        full = True
                        continue
                    visited.add(key)
                    if len(child) > 8:
                        layer.append((child, child_back, steps))
            else:
                continue
            break
        if success is not None:
            terminal = replay(S, Certificate(success, S))
            return Verdict.yes(Certificate(success, terminal), len(visited))
        if full:
            return Verdict.unknown(len(visited), depth)
        frontier = layer
    return Verdict.no(len(visited), depth)


def irreducible_oracle(S: LogDatum) -> bool:
    """Content is 1 and no proper nonempty sub-collection of edges closes up,
    enumerated by subset size."""
    edges = [edge.e for edge in S.edges]
    content = reduce(gcd, (gcd(abs(x), abs(y)) for x, y in edges), 0)
    if content != 1:
        return False
    for size in range(1, len(edges)):
        for subset in combinations(edges, size):
            if sum(x for x, _ in subset) == 0 and sum(y for _, y in subset) == 0:
                return False
    return True


def derivatives(terms: dict) -> tuple[dict, dict]:
    """d/dx and d/du of a {(x_degree, u_degree): coefficient} polynomial."""
    fx = {(a - 1, b): c * a for (a, b), c in terms.items() if a}
    fu = {(a, b - 1): c * b for (a, b), c in terms.items() if b}
    return fx, fu


def value(terms: dict, x0, u0) -> Fraction:
    """The polynomial {(x_degree, u_degree): coefficient} at x = x0, u = u0."""
    x0, u0 = Fraction(x0), Fraction(u0)
    return sum((c * x0**a * u0**b for (a, b), c in terms.items()), Fraction(0))


def singular_point_search(f, box: int = 6, denominators=(1, 2, 3)):
    """Search a rational grid for a common zero of f, df/dx, df/du.

    Finding one refutes smoothness; finding none proves nothing (the
    singular locus can be irrational), so tests use this only on curves
    whose singularities are known to be rational, and as a necessary
    condition on smooth verdicts.
    """
    terms = dict(f.terms)
    system = (terms, *derivatives(terms))
    points = []
    for qd in denominators:
        for a in range(-box, box + 1):
            points.append(Fraction(a, qd))
    for x0 in points:
        for u0 in points:
            if all(value(p, x0, u0) == 0 for p in system):
                return (x0, u0)
    return None


# --- wall checks on sympy expressions ------------------------------------------

_X, _U = sympy.symbols("x u")


def to_sympy(f: BiPoly):
    """f as a sympy expression in x and u."""
    return sympy.Add(
        *[
            sympy.Rational(c.numerator, c.denominator) * _X**dx * _U**du
            for (dx, du), c in f.terms
        ]
    )


def is_smooth_curve(f: BiPoly) -> bool:
    """The reduced Groebner basis of (f, df/dx, df/du) is [1], by
    sympy.groebner on expressions."""
    expr = to_sympy(f)
    gb = sympy.groebner(
        [expr, expr.diff(_X), expr.diff(_U)], _X, _U, order="grevlex"
    )
    return list(gb.exprs) == [sympy.Integer(1)]


def resultant_u(f: BiPoly, g: BiPoly):
    """Res_u(f, g) as a sympy expression in x: the determinant of the
    Sylvester matrix of f and g in u, in that argument order, taken over
    Q[x].  It is 0 when f or g is zero, and 1 (an empty matrix) for two
    nonzero polynomials free of u.  sympy.resultant is not the reference:
    it puts the argument of higher u-degree first, so its sign is that of
    Res_u(g, f) when deg_u f < deg_u g."""
    if f.is_zero() or g.is_zero():
        return sympy.Integer(0)
    matrix = sylvester(to_sympy(f), to_sympy(g), _U)
    return DomainMatrix.from_Matrix(matrix).convert_to(sympy.QQ[_X]).det().as_expr()


def joint_compatible(S: LogDatum, W: WallAssignment) -> bool:
    """Each wall's product, expanded as a sympy expression, is u**l at
    x = 0, where l is the gcd of the edge vector's coordinates."""
    return all(
        sympy.expand(sympy.Mul(*map(to_sympy, wall))).subs(_X, 0)
        == _U ** gcd(abs(edge.e[0]), abs(edge.e[1]))
        for edge, wall in zip(S.edges, W.factors)
    )


def wall_problems(
    S: LogDatum, W: WallAssignment
) -> tuple[tuple[str, ...], tuple[str, ...] | None]:
    """The problems is_subordinate reports and, for a subordinate assignment,
    those is_generic reports (else None), decided on sympy expressions:
    restriction by substituting x = 0, proportionality by cancelling the
    quotient, and the resultant's shape by sympy.Poly."""
    problems = []
    for i, (edge, wall) in enumerate(zip(S.edges, W.factors), start=1):
        if len(wall) != len(edge.nu):
            problems.append(
                f"wall {i}: {len(wall)} factors for partition {edge.nu} "
                f"({len(edge.nu)} parts expected)"
            )
            continue
        for k, (factor, part) in enumerate(zip(wall, edge.nu), start=1):
            if to_sympy(factor).subs(_X, 0) != _U**part:
                restriction = BiPoly(tuple(t for t in factor.terms if t[0][0] == 0))
                problems.append(
                    f"wall {i} factor {k}: restriction {restriction} != u^{part}"
                )
            elif not is_smooth_curve(factor):
                problems.append(f"wall {i} factor {k}: zero curve is singular")
    if problems:
        return tuple(problems), None
    generic = []
    for i, wall in enumerate(W.factors, start=1):
        for a, b in combinations(range(len(wall)), 2):
            quotient = sympy.cancel(to_sympy(wall[b]) / to_sympy(wall[a]))
            if not quotient.free_symbols:
                generic.append(f"wall {i}: factors {a + 1} and {b + 1} are proportional")
                continue
            res = resultant_u(wall[a], wall[b])
            poly = sympy.Poly(res, _X)
            if poly.is_zero or len(poly.terms()) != 1:
                generic.append(
                    f"wall {i}: Res_u(factor {a + 1}, factor {b + 1}) = {res} "
                    "is not a nonzero constant times a power of x"
                )
    return (), tuple(generic)

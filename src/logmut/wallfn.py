"""Wall functions: factored bivariate polynomials over Q, one list per wall.

Each wall surface carries coordinates (x, u) — the wall direction u_i is
primitive, so together with the joint direction u it spans the wall monoid
freely.  A wall function for edge i is a product of factors f_{i,k}, one per
part of nu_i.  Every factor of a WallAssignment is capped at total degree
MAX_GROEBNER_DEGREE, and the checks here are exact:

* joint_compatible: the product of each wall's factors restricts to u^{l_i}
  at x = 0 (the sufficient form of the compatibility condition along the
  joint; see README for the scope of this reading).
* is_subordinate: each factor restricts to u^{l_{i,k}} and cuts out a smooth
  curve (no common zero of f, df/dx, df/du over the algebraic closure,
  decided by Groebner-basis triviality over Q).
* is_generic: runs is_subordinate first; then, within each wall, factors are
  pairwise non-proportional and each pairwise resultant in u (kept on the
  first factor, keyed by the second's ring element) is a nonzero constant
  times a power of x: the curves meet only on the joint, at the origin.
"""
from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping

import sympy
from sympy.polys.groebnertools import groebner

from .errors import (
    FactorTooLarge,
    InvalidDatum,
    ShapeMismatch,
    SubordinationRequired,
    WallSynthesisError,
)
from .logdatum import LogDatum

# The checks run on one sparse polynomial ring of sympy's, Q[u, x] in grevlex
# order: whether a reduced Groebner basis is [1] does not depend on the
# monomial order, and resultant() eliminates the first generator u.
_QQ = sympy.QQ
_UX = sympy.ring("u,x", _QQ, sympy.grevlex)[0]

# Every WallAssignment refuses a factor above this total degree, which bounds
# its Groebner basis and resultants (README, Wall-function checks).
MAX_GROEBNER_DEGREE = 10


@dataclass(frozen=True)
class BiPoly:
    """Sparse exact polynomial in Q[x, u]: {(x_degree, u_degree): coefficient}.
    The text and JSON exchange format; arithmetic runs on the ring _UX.  Its
    _UX element (kept if it was built from one, as * and synthesis build),
    smoothness verdict and verdicts against later factors of a wall (_pairs,
    keyed by their _UX elements) are computed once per object, on first use;
    ==, hash, repr and pickle see `terms` only."""

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    @cached_property
    def _ux(self):
        return _in_ux(self)

    @cached_property
    def _smooth(self) -> bool:
        return _decide_smooth(self._ux)

    @cached_property
    def _pairs(self) -> dict:
        return {}

    def __reduce__(self):  # sympy cannot pickle _UX elements; rebuild them
        return BiPoly, (self.terms,)

    @staticmethod
    def from_terms(terms: Mapping[tuple[int, int], Fraction | int]) -> "BiPoly":
        cleaned = {}
        for (dx, du), c in terms.items():
            c = Fraction(c)
            if c != 0:
                if dx < 0 or du < 0:
                    raise ValueError(f"negative exponent in term {(dx, du)}")
                cleaned[(dx, du)] = c
        return BiPoly(tuple(sorted(cleaned.items())))

    @staticmethod
    def u_power(n: int) -> "BiPoly":
        return BiPoly.from_terms({(0, n): 1})

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        return _from_ux(self._ux * other._ux)

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return format_bipoly(self)


# --- text and JSON formats ---------------------------------------------------

_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_RATIONAL_RE = re.compile(_RATIONAL)
_FACTOR_RE = re.compile(rf"({_RATIONAL})|([xzu])(?:\^([0-9]+))?")


def _rational(text: str) -> Fraction:
    """A coefficient written "p" or "p/q"; ValueError for other text (no
    decimals or exponents) and for q = 0."""
    if _RATIONAL_RE.fullmatch(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            pass
    raise ValueError(f"coefficient {text!r} is not an integer or p/q with q > 0")


def parse_bipoly(text: str) -> BiPoly:
    """Parse 'c*x^a*u^b + ...' with rational c; 'z' is accepted for 'x'."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial text")
    terms: dict[tuple[int, int], Fraction] = {}
    for token in re.split(r"(?!^)(?=[+-])", compact):  # before every non-leading sign
        sign = Fraction(1)
        body = token
        if body[0] in "+-":
            if body[0] == "-":
                sign = Fraction(-1)
            body = body[1:]
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coef, dx, du = sign, 0, 0
        for factor in body.split("*"):
            m = _FACTOR_RE.fullmatch(factor)
            if not m:
                raise ValueError(f"cannot parse term factor {factor!r} in {text!r}")
            num, var, exp = m.groups()
            if num is not None:
                coef *= _rational(num)
            else:
                e = int(exp) if exp else 1
                if var == "u":
                    du += e
                else:  # x or its synonym z
                    dx += e
        key = (dx, du)
        terms[key] = terms.get(key, Fraction(0)) + coef
    return BiPoly.from_terms(terms)


def format_bipoly(f: BiPoly) -> str:
    if f.is_zero():
        return "0"
    pieces = []
    for (dx, du), c in sorted(f.terms, key=lambda t: (-t[0][1], -t[0][0])):
        factors = []
        if abs(c) != 1 or (dx == 0 and du == 0):
            factors.append(str(abs(c)))
        if du:
            factors.append("u" if du == 1 else f"u^{du}")
        if dx:
            factors.append("x" if dx == 1 else f"x^{dx}")
        body = "*".join(factors)
        pieces.append((" - " if c < 0 else " + ") + body)
    first = pieces[0]
    head = first[3:] if first.startswith(" + ") else "-" + first[3:]
    return head + "".join(pieces[1:])


def bipoly_to_obj(f: BiPoly) -> list:
    """JSON mirror: list of [x_degree, u_degree, "p/q"] triples."""
    return [[dx, du, str(c)] for (dx, du), c in f.terms]


def bipoly_from_obj(obj) -> BiPoly:
    """Inverse of bipoly_to_obj; polynomial text is accepted too.  Degrees
    must be non-negative ints and coefficients ints or "p/q" strings: a
    bool, float or negative degree raises InvalidDatum, anything not a list
    of triples ShapeMismatch."""
    if isinstance(obj, str):
        return parse_bipoly(obj)
    if type(obj) not in (list, tuple):
        raise ShapeMismatch(f"polynomial {obj!r} is neither text nor a list of terms")
    terms: dict[tuple[int, int], Fraction] = {}
    for term in obj:
        if type(term) not in (list, tuple) or len(term) != 3:
            raise ShapeMismatch(
                f"polynomial term {term!r} is not an "
                "[x_degree, u_degree, coefficient] triple"
            )
        a, b, c = term
        exact = type(a) is int and type(b) is int and type(c) in (int, str, Fraction)
        if not exact:
            raise InvalidDatum(
                f"polynomial term {term!r} has an inexact degree or coefficient"
            )
        if a < 0 or b < 0:
            raise InvalidDatum(f"polynomial term {term!r} has a negative degree")
        c = _rational(c) if type(c) is str else Fraction(c)
        terms[(a, b)] = terms.get((a, b), Fraction(0)) + c
    return BiPoly.from_terms(terms)


@dataclass(frozen=True)
class WallAssignment:
    """One list of factors per edge, in the datum's counterclockwise order;
    FactorTooLarge for a factor above total degree MAX_GROEBNER_DEGREE."""

    factors: tuple[tuple[BiPoly, ...], ...]

    def __post_init__(self):
        for wall in self.factors:
            for f in wall:
                degree = max((dx + du for (dx, du), _ in f.terms), default=0)
                if degree > MAX_GROEBNER_DEGREE:
                    raise FactorTooLarge(
                        f"a wall factor of total degree {degree} is too large to "
                        f"check; the cap is {MAX_GROEBNER_DEGREE}")

    def to_obj(self) -> dict:
        return {"walls": [[bipoly_to_obj(f) for f in wall] for wall in self.factors]}

    @staticmethod
    def from_obj(obj) -> "WallAssignment":
        """From to_obj's {"walls": [...]} or the bare list of walls; each wall
        is a list of bipoly_from_obj factors (ShapeMismatch otherwise)."""
        walls = obj.get("walls") if isinstance(obj, dict) else obj
        if type(walls) not in (list, tuple) or any(
            type(wall) not in (list, tuple) for wall in walls
        ):
            raise ShapeMismatch(
                "a wall assignment is a list of walls, each a list of factors"
            )
        seen: dict[BiPoly, BiPoly] = {}  # one object, one decision, per factor
        return WallAssignment(tuple(
            tuple(seen.setdefault(f, f) for f in map(bipoly_from_obj, wall))
            for wall in walls
        ))


def _check_shape(S: LogDatum, W: WallAssignment) -> None:
    if len(W.factors) != len(S):
        raise ShapeMismatch(
            f"assignment has {len(W.factors)} walls, datum has {len(S)} edges"
        )


def _at_joint(f: BiPoly):
    """f at x = 0, on _UX (a _UX monomial is (u_degree, x_degree))."""
    return _UX.from_dict({m: c for m, c in f._ux.items() if not m[1]})


def joint_compatible(S: LogDatum, W: WallAssignment) -> bool:
    """Each wall's full function restricts to u^{l_i} on the joint (x = 0):
    x = 0 is a ring map, so the product of the factors' restrictions."""
    _check_shape(S, W)
    return all(math.prod(map(_at_joint, wall), start=_UX.one) == _UX.gens[0] ** length
               for length, wall in zip(S.lengths, W.factors))


@dataclass(frozen=True)
class CheckReport:
    """Boolean verdict plus human-readable per-check diagnostics."""

    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_smooth_curve(f: BiPoly) -> bool:
    """No common zero of f, df/dx, df/du over the algebraic closure.

    Equivalent (Nullstellensatz) to the ideal they generate being all of
    Q[x, u], i.e. the reduced Groebner basis being [1]; Groebner bases over Q
    do not change under field extension, so this is exact.
    """
    return f._smooth


def _decide_smooth(p) -> bool:
    """is_smooth_curve for the _UX element p.  No basis is computed when a
    nonzero constant among f, df/dx, df/du (df/dx of u^v + gamma*x) generates
    Q[x, u] by itself, or when p = A(u) + B(u)*x with A one nonzero term c*u^k
    and B(0) != 0: a singular point needs B(u0) = 0, then A(u0) = 0, so
    u0 = 0, against B(0) != 0."""
    # groebner() divides by its generators, so zeros are left out (f = 0
    # leaves none, and the empty basis is not [1]).  df/dx goes before
    # df/du: small bases come out sooner.  A _UX monomial is (du, dx).
    gens = [g for g in (p, p.diff(1), p.diff(0)) if g]
    return (any(g.is_ground for g in gens)
            or p.degree(1) == 1 and (0, 1) in p and sum(not dx for _, dx in p) == 1
            or groebner(gens, _UX) == [_UX.one])


def _in_ux(f: BiPoly):
    return _UX.from_dict(
        {(du, dx): _QQ(c.numerator, c.denominator) for (dx, du), c in f.terms}
    )


def _from_ux(p) -> BiPoly:
    f = BiPoly(tuple(sorted(((dx, du), Fraction(c.numerator, c.denominator))
                            for (du, dx), c in p.items())))
    vars(f)["_ux"] = p  # the _ux cached_property's value, kept
    return f


def _resultant_u(f, g):
    """Res_u(f, g) of two _UX elements: the Sylvester determinant of f and g
    in u, in that order.  For m = deg_u f < n = deg_u g it is (-1)^(mn) *
    Res_u(g, f), so the rules below, like sympy's resultant, see m >= n.

    Two closed forms come from the reduction Res_u(f, g) = lc_u(f)^(deg_u g -
    deg_u r) * Res_u(f, r) for g = q*f + r, and Res_u(f, r) = r^(deg_u f) for
    r free of u (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 3
    §6).  Equal part values: when d = g - f is free of u and m >= 1,
    Res_u(f, g) = (lc_u(f) * d)^m.  Towers: when m > n >= 1 and g's leading
    monomial is u^n, lc_u(g) is a constant c and f.rem(g) is the remainder
    r of division in u; if r is free of u, Res_u(f, g) = (-1)^(mn) * c^m *
    r^n.  Every other pair goes to sympy's resultant.
    """
    m, n = f.degree(0), g.degree(0)
    if 0 <= m < n:  # a zero f, of degree -inf, goes to sympy
        return (-1) ** (m * n) * _resultant_u(g, f)
    d = g - f
    if m >= 1 and d.degree(0) <= 0:
        lc = _UX.from_dict({(0, dx): c for (du, dx), c in f.items() if du == m})
        return (lc * d) ** m
    if 1 <= n < m and g.LM == (n, 0) and (r := f.rem(g)).degree(0) <= 0:
        return (-1) ** (m * n) * r ** n * g.LC ** m
    return f.resultant(g)


def is_subordinate(S: LogDatum, W: WallAssignment) -> CheckReport:
    """One factor per part, each restricting to u^{l_{i,k}} with a smooth
    zero curve.  Factor-count mismatches are reported as failures (not
    exceptions); ShapeMismatch is raised only for a wall-count mismatch."""
    _check_shape(S, W)
    problems = []
    for i, (edge, wall) in enumerate(zip(S.edges, W.factors), start=1):
        if len(wall) != len(edge.nu):
            problems.append(
                f"wall {i}: {len(wall)} factors for partition {edge.nu} "
                f"({len(edge.nu)} parts expected)"
            )
            continue
        for k, (factor, part) in enumerate(zip(wall, edge.nu), start=1):
            if (r := _at_joint(factor)) != _UX.gens[0] ** part:
                problems.append(
                    f"wall {i} factor {k}: restriction {_from_ux(r)} != u^{part}")
            elif not factor._smooth:
                problems.append(f"wall {i} factor {k}: zero curve is singular")
    return CheckReport(not problems, tuple(problems))


def is_generic(S: LogDatum, W: WallAssignment) -> CheckReport:
    """Within each wall: factors pairwise non-proportional, and every pairwise
    resultant Res_u is a nonzero constant times a power of x.

    Runs is_subordinate first and raises SubordinationRequired if it fails;
    curves on different walls live on different surfaces and are not
    compared.
    """
    sub = is_subordinate(S, W)
    if not sub:
        raise SubordinationRequired(
            "genericity needs a subordinate assignment; problems: "
            + "; ".join(sub.problems)
        )
    problems = []
    for i, wall in enumerate(W.factors, start=1):
        for a, b in itertools.combinations(range(len(wall)), 2):
            p, q, pairs = wall[a]._ux, wall[b]._ux, wall[a]._pairs
            if q not in pairs:  # None: proportional, or both zero
                pairs[q] = None if p.monic() == q.monic() else _resultant_u(p, q)
            res = pairs[q]  # else Res_u(p, q), an element of Q[x]
            if res is None:
                problems.append(
                    f"wall {i}: factors {a + 1} and {b + 1} are proportional"
                )
            elif len(res) != 1:  # zero, or more than one term
                problems.append(
                    f"wall {i}: Res_u(factor {a + 1}, factor {b + 1}) = "
                    f"{res.as_expr()} is not a nonzero constant times a power of x"
                )
    return CheckReport(not problems, tuple(problems))


def kinks(S: LogDatum) -> tuple[int, ...]:
    """The kink along each wall is the integral length l_i of its edge."""
    return S.lengths


def generic_wall_assignment(S: LogDatum, seed: int) -> WallAssignment:
    """Synthesize an assignment passing is_subordinate and is_generic,
    deterministically per seed.

    Parts of equal value v share the core u^v (factors u^v + gamma*x with
    distinct gamma); across distinct values v_1 < v_2 < ... the factors form
    a dominant tower: each value-v_q factor is
    u^{v_q - D_q} * (product of all lower-value factors) + gamma*x with
    D_q = sum of all lower-value parts, which makes every within-wall
    resultant a nonzero constant times a power of x.  Walls whose partition
    violates v_q >= D_q for some q (smallest example: (2,1,1,1)) admit no
    such tower and raise WallSynthesisError, as do walls with more than
    _GAMMA_DRAWS parts of one value; see README.  Each attempt draws every
    wall, so WallAssignment refuses a part above MAX_GROEBNER_DEGREE (its
    factor has total degree v) before any check; an attempt that is_generic
    rejects, or that has a singular factor, is drawn again, up to 50 times.
    """
    rng = random.Random(seed)
    for _ in range(50):
        W = WallAssignment(tuple(_synthesize_wall(edge, rng) for edge in S.edges))
        try:  # each factor restricts to u^v: only a singular one fails is_subordinate
            if is_generic(S, W):
                return W
        except SubordinationRequired:
            pass
    raise WallSynthesisError("could not draw a generic assignment in 50 attempts")


# How many distinct gammas +-a/b (1 <= a <= 9, 1 <= b <= 3) a wall can draw.
_GAMMA_DRAWS = 40


def _synthesize_wall(edge, rng: random.Random) -> tuple[BiPoly, ...]:
    """Factors for one wall, returned in the partition's (descending) order;
    WallSynthesisError when no dominant tower or too few distinct gammas exist.
    Smoothness is left to is_subordinate."""
    u, x = _UX.gens
    nu = edge.nu
    by_value: dict[int, list[BiPoly]] = {}
    core = _UX.one  # product of all factors of strictly smaller values
    below = 0
    for v in sorted(set(nu)):
        if v < below:
            raise WallSynthesisError(
                f"partition {nu} of edge {edge.e}: value {v} is smaller "
                f"than the sum {below} of all smaller parts; no dominant-tower "
                "assignment exists"
            )
        count = nu.count(v)
        if count > _GAMMA_DRAWS:
            raise WallSynthesisError(
                f"partition {nu} of edge {edge.e}: {count} parts of value {v}, "
                f"but only {_GAMMA_DRAWS} distinct gammas can be drawn")
        gammas: list[Fraction] = []
        while len(gammas) < count:
            g = Fraction(rng.randint(1, 9), rng.randint(1, 3)) * rng.choice((1, -1))
            if g not in gammas:
                gammas.append(g)
        head = u ** (v - below) * core
        group = [_from_ux(head + _QQ(g.numerator, g.denominator) * x) for g in gammas]
        by_value[v] = group
        if v < nu[0]:  # a larger value follows: its factors need this group
            for f in group:
                core *= f._ux
        below += v * count
    return tuple(by_value[part].pop(0) for part in nu)

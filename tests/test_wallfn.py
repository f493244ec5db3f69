import copy
import json
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
import sympy
from sympy.polys.rings import PolyElement

import oracles
from logmut import (
    BiPoly,
    CheckReport,
    WallAssignment,
    an_datum,
    bipoly_from_obj,
    bipoly_to_obj,
    format_bipoly,
    generic_wall_assignment,
    is_generic,
    is_smooth_curve,
    is_subordinate,
    jerry_datum,
    joint_compatible,
    kinks,
    parse_bipoly,
    tom_datum,
    validate,
)
from logmut import wallfn
from logmut.cli import _wall_checks, main
from logmut.errors import (
    FactorTooLarge,
    InvalidDatum,
    ShapeMismatch,
    SubordinationRequired,
    WallSynthesisError,
)

from oracles import singular_point_search

U = parse_bipoly("u")


def P(text: str) -> BiPoly:
    return parse_bipoly(text)


# --- BiPoly arithmetic --------------------------------------------------------


def test_arithmetic_identities():
    f = P("u^2 + 3*x")
    g = P("u + 5*x")
    assert f * g == P("u^3 + 5*u^2*x + 3*u*x + 15*x^2")
    assert BiPoly.u_power(0) * f == f


def test_construction_and_degrees():
    f = BiPoly.from_terms({(1, 0): 3, (0, 2): 1, (2, 2): 0})
    assert f == P("u^2 + 3*x")
    assert f.terms == (((0, 2), Fraction(1)), ((1, 0), Fraction(3)))
    assert BiPoly.u_power(4) == P("u^4")
    with pytest.raises(ValueError):
        BiPoly.from_terms({(-1, 0): 1})


def test_derivatives_and_evaluation():
    """The reference calculus of singular_point_search, on term dicts."""
    f = dict(P("u^3 + 2*u*x + 7").terms)
    fx, fu = oracles.derivatives(f)
    assert fu == dict(P("3*u^2 + 2*x").terms)
    assert fx == dict(P("2*u").terms)
    assert oracles.value(f, 2, 3) == 27 + 12 + 7
    assert oracles.value(f, Fraction(1, 2), 0) == 7
    assert oracles.value(f, Fraction(1, 2), Fraction(1, 2)) == Fraction(61, 8)
    assert oracles.derivatives({}) == ({}, {}) and oracles.value({}, 1, 1) == 0


def test_restriction_and_u_power_shape():
    """is_subordinate keeps a factor whose value at x = 0 is exactly
    u^part and prints that value otherwise, as the sympy reference does."""
    S = tom_datum()  # wall 1 has parts (2, 1)
    cases = [
        (["u^2 + 3*x + x*u^5", "u + x"], ()),  # x-terms leave at x = 0
        (["2*u^2 + x", "u + x"],  # the coefficient must be exactly 1
         ("wall 1 factor 1: restriction 2*u^2 != u^2",)),
        (["u^2 + 1", "1 + x"],  # a constant term stays; 1 is u^0, not u^1
         ("wall 1 factor 1: restriction u^2 + 1 != u^2",
          "wall 1 factor 2: restriction 1 != u^1")),
        (["u^2 + x", "x"], ("wall 1 factor 2: restriction 0 != u^1",)),
    ]
    for wall, problems in cases:
        W = WallAssignment((tuple(map(P, wall)), (P("u + x"), P("u - x")), (U,)))
        assert is_subordinate(S, W) == CheckReport(not problems, problems), wall
        assert oracles.wall_problems(S, W)[0] == problems, wall
    assert wallfn._at_joint(P("1 + x")) == wallfn._UX.one == wallfn._UX.gens[0] ** 0


# --- text and JSON formats ----------------------------------------------------


def test_parse_accepts_z_and_spaces():
    assert P("u^2+3*z") == P("u^2 + 3*x")
    assert P("-u") == BiPoly.from_terms({(0, 1): -1})
    assert P("1/2*x^2*u - u + 2") == BiPoly.from_terms(
        {(2, 1): Fraction(1, 2), (0, 1): -1, (0, 0): 2}
    )
    assert P("u - u") == P("0") == BiPoly.from_terms({})


def test_parse_rejects_garbage():
    for bad in ("", "u^", "u**2", "y + 1", "3x", "u + 1/0*x", "u - 2/00"):
        with pytest.raises(ValueError):
            parse_bipoly(bad)
    # A sign with no term after it, a trailing newline, a non-ASCII digit.
    for bad in ("u--x", "u+", "u-", "+", "-", "--u", "u+-x", "u++x",
                "u + x\n", "u^\u0663", "\u0663*u"):
        with pytest.raises(ValueError):
            parse_bipoly(bad)
    for coefficient in ("1/0", "1.5", "1e999999999", "", " 1", "1/-2", "\u0663"):
        with pytest.raises(ValueError):
            bipoly_from_obj([[0, 1, coefficient]])


def _drawn_assignments():
    """The assignment generic_wall_assignment draws for each TOWER_DATA datum."""
    return [generic_wall_assignment(validate(raw), seed)
            for seed, raw in enumerate(TOWER_DATA, start=1)]


def _exchange_inputs():
    """SPECIAL, seeded random factors and every synthesized tower factor."""
    rng = random.Random(17)
    drawn = [f for W in _drawn_assignments() for wall in W.factors for f in wall]
    return [*SPECIAL, *(random_bipoly(rng) for _ in range(60)), *drawn]


def test_format_round_trips():
    """Text, the terms and pickle each give back an equal factor with an
    equal hash."""
    for text in ("u^2 - 6*u*x + x", "-u + 5", "0", "1/3*u^4*x^2 + x", "7"):
        f = parse_bipoly(text)
        assert format_bipoly(f) == text
        assert parse_bipoly(format_bipoly(f)) == f
    for f in _exchange_inputs():
        text = format_bipoly(f)
        for g in (parse_bipoly(text), BiPoly.from_terms(dict(f.terms)),
                  pickle.loads(pickle.dumps(f))):
            assert g == f and hash(g) == hash(f) and format_bipoly(g) == text, f


def test_json_round_trips():
    f = P("u^2 - 1/2*x")
    obj = json.loads(json.dumps(bipoly_to_obj(f)))
    assert bipoly_from_obj(obj) == f
    assert bipoly_from_obj("u^2 - 1/2*x") == f  # strings accepted too
    for f in _exchange_inputs():
        g = bipoly_from_obj(json.loads(json.dumps(bipoly_to_obj(f))))
        assert g == f and hash(g) == hash(f) and g.terms == f.terms, f
    for W in _drawn_assignments():
        assert WallAssignment.from_obj(json.loads(json.dumps(W.to_obj()))) == W
    W = WallAssignment(((U, P("u + x")), (P("u^2 + x"),)))
    assert WallAssignment.from_obj(json.loads(json.dumps(W.to_obj()))) == W
    assert bipoly_from_obj([[0, 1, 1], [1, 0, "1/2"], [1, 0, "1/2"]]) == P("u + x")


def test_json_rejects_inexact_terms():
    for obj in (
        [[1.9, True, "1"], [0, 1, "1"]],
        [[1, 0, 1.5]],
        [[1, 0, True]],
        [[1.0, 0, "1"]],
        [[1, None, "1"]],
    ):
        with pytest.raises(InvalidDatum):
            bipoly_from_obj(obj)


def test_json_rejects_negative_degrees():
    for obj in ([[0, -2, "1"]], [[-1, 0, 3]], [[0, 1, 1], [-1, -1, "0"]]):
        with pytest.raises(InvalidDatum, match="negative degree"):
            bipoly_from_obj(obj)


def test_json_rejects_ill_shaped_assignments():
    for obj in ({"walls": 5}, {}, 5, {"walls": ["u"]}, {"walls": [[5]]}, {"walls": [[[[0, 1]]]]}):
        with pytest.raises(ShapeMismatch):
            WallAssignment.from_obj(obj)


# --- smoothness ---------------------------------------------------------------


def test_smoothness_known_answers():
    assert is_smooth_curve(P("u^2 + x"))
    assert is_smooth_curve(P("u + 5*x"))
    assert is_smooth_curve(U)
    assert not is_smooth_curve(P("u^2"))  # double line
    assert not is_smooth_curve(P("u^2 - x^2"))  # node at the origin
    assert not is_smooth_curve(P("u^2 - x^3"))  # cusp at the origin
    # smooth even though the singular system has solutions over C off the curve
    assert is_smooth_curve(P("u^2 + x^2 - 1"))


def test_smoothness_agrees_with_rational_point_search():
    for f in (P("u^2 - x^2"), P("u^2 - x^3"), P("u^2")):
        point = singular_point_search(f)
        assert point is not None
        terms = dict(f.terms)
        for p in (terms, *oracles.derivatives(terms)):
            assert oracles.value(p, *point) == 0
    assert singular_point_search(P("u^2 + x")) is None


# --- compatibility checks -----------------------------------------------------


def an_assignment(n: int) -> WallAssignment:
    middle = tuple(P(f"u + {k}*z") for k in range(1, n + 2))
    return WallAssignment(((U,), middle, (U,)))


def jerry_assignment() -> WallAssignment:
    return WallAssignment(
        ((P("u + x"), P("u - x"), P("u + 2*x")), (P("u^2 + 5*x"),), (U,))
    )


def test_joint_compatibility():
    S = an_datum(2)
    assert joint_compatible(S, an_assignment(2))
    # product restricting correctly does not require factor-by-factor shape
    lumped = WallAssignment(((U,), (P("u^3 + 2*x"),), (U,)))
    assert joint_compatible(S, lumped)
    bad = WallAssignment(((U,), (P("u^3 + 2*x + 1"),), (U,)))
    assert not joint_compatible(S, bad)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeMismatch):
        joint_compatible(an_datum(2), WallAssignment(((U,), (U,))))
    with pytest.raises(ShapeMismatch):
        is_subordinate(an_datum(2), WallAssignment(((U,),)))


def test_subordinate_accepts_factored_assignments():
    assert is_subordinate(an_datum(2), an_assignment(2))
    assert is_subordinate(jerry_datum(), jerry_assignment())
    report = is_subordinate(jerry_datum(), jerry_assignment())
    assert isinstance(report, CheckReport)
    assert report.ok and report.problems == ()


def test_subordinate_rejects_lumped_factor():
    report = is_subordinate(an_datum(2), WallAssignment(((U,), (P("u^3 + 2*x"),), (U,))))
    assert not report
    assert report.problems == (
        "wall 2: 1 factors for partition (1, 1, 1) (3 parts expected)",
    )


def test_subordinate_rejects_wrong_restriction_and_singular_factor():
    S = validate([((2, 0), (2,)), ((0, 1), (1,)), ((-2, -1), (1,))])
    wrong = WallAssignment(((P("u^2 + u"),), (U,), (U,)))
    report = is_subordinate(S, wrong)
    assert not report and "!= u^2" in report.problems[0]
    singular = WallAssignment(((P("u^2 - x^2"),), (U,), (U,)))
    report = is_subordinate(S, singular)
    assert not report and report.problems == ("wall 1 factor 1: zero curve is singular",)


def test_generic_accepts_known_assignments():
    assert is_generic(an_datum(2), an_assignment(2))
    assert is_generic(jerry_datum(), jerry_assignment())


def test_generic_rejects_repeated_factor():
    S = validate([((2, 0), (1, 1)), ((0, 1), (1,)), ((-2, -1), (1,))])
    W = WallAssignment(((P("u + x"), P("u + x")), (U,), (U,)))
    assert is_subordinate(S, W)
    report = is_generic(S, W)
    assert not report
    assert "proportional" in report.problems[0]


def test_generic_rejects_non_monomial_resultant():
    # Res_u(u^2 + 3x, u + 5x) = 25x^2 + 3x: both factors restrict correctly
    # and are smooth, yet their curves meet off the joint.
    S = validate([((3, 0), (2, 1)), ((0, 1), (1,)), ((-3, -1), (1,))])
    W = WallAssignment(((P("u^2 + 3*x"), P("u + 5*x")), (U,), (U,)))
    assert is_subordinate(S, W)
    report = is_generic(S, W)
    assert not report
    assert "25*x**2 + 3*x" in report.problems[0].replace("3*x + 25*x**2", "25*x**2 + 3*x")


def test_resultant_sign_follows_the_argument_order():
    # Res_u(u + x, g) = g(-x) for g = u + u^3*x + 9*x.  Swapping arguments of
    # u-degrees 1 and 3 flips the sign; both orders are the Sylvester
    # determinant, as is the problem string is_generic prints.
    f, g = P("u + x"), P("u + u^3*x + 9*x")
    S = validate([((2, 0), (1, 1)), ((0, 1), (1,)), ((-2, -1), (1,))])
    for a, b, want in ((f, g, "-x**4 + 8*x"), (g, f, "x**4 - 8*x")):
        res = wallfn._resultant_u(a._ux, b._ux)
        assert str(res.as_expr()) == str(oracles.resultant_u(a, b)) == want
        report = is_generic(S, WallAssignment(((a, b), (U,), (U,))))
        assert report.problems == (
            f"wall 1: Res_u(factor 1, factor 2) = {want} is not a nonzero "
            "constant times a power of x",
        )


def test_generic_requires_subordination():
    with pytest.raises(SubordinationRequired):
        is_generic(an_datum(2), WallAssignment(((U,), (P("u^3 + 2*x"),), (U,))))


def test_kinks_are_the_edge_lengths():
    assert kinks(tom_datum()) == (3, 2, 1)
    assert kinks(an_datum(4)) == (1, 5, 1)


# --- synthesis ----------------------------------------------------------------


def test_synthesis_is_deterministic_and_passes_checks():
    S = tom_datum()
    W1 = generic_wall_assignment(S, seed=7)
    W2 = generic_wall_assignment(S, seed=7)
    assert W1 == W2
    assert joint_compatible(S, W1)
    assert is_subordinate(S, W1)
    assert is_generic(S, W1)
    rendered = [[format_bipoly(f) for f in wall] for wall in W1.factors]
    assert rendered == [
        ["u^2 - 6*u*x + x", "u - 6*x"],
        ["u + 2*x", "u + 9*x"],
        ["u - x"],
    ]
    assert generic_wall_assignment(S, seed=8) != W1


def test_synthesis_handles_repeated_values_and_towers():
    flat = validate([((3, 0), (1, 1, 1)), ((0, 1), (1,)), ((-3, -1), (1,))])
    W = generic_wall_assignment(flat, seed=1)
    assert is_generic(flat, W)
    x, u = sympy.symbols("x u")
    assert all(oracles.to_sympy(f).subs(x, 0) == u for f in W.factors[0])

    tower = validate([((8, 0), (4, 3, 1)), ((0, 1), (1,)), ((-8, -1), (1,))])
    W = generic_wall_assignment(tower, seed=1)
    assert is_generic(tower, W)
    f4, f3, f1 = W.factors[0]
    assert [max(du for (_, du), _ in f.terms) for f in (f4, f3)] == [4, 3]
    assert oracles.to_sympy(f4).subs(x, 0) == u**4


def test_synthesis_refuses_partition_without_dominant_tower():
    S = validate([((5, 0), (2, 1, 1, 1)), ((0, 1), (1,)), ((-5, -1), (1,))])
    with pytest.raises(WallSynthesisError) as err:
        generic_wall_assignment(S, seed=1)
    assert "(2, 1, 1, 1)" in str(err.value)
    assert "no dominant-tower assignment exists" in str(err.value)


def _singular_for(monkeypatch, calls: int | None) -> list:
    """Make _decide_smooth answer singular on its first `calls` calls (all
    calls when None), then decide for real; returns the decided elements."""
    real = wallfn._decide_smooth
    seen = []

    def decision(p):
        seen.append(p)
        return False if calls is None or len(seen) <= calls else real(p)

    monkeypatch.setattr(wallfn, "_decide_smooth", decision)
    return seen


def test_synthesis_redraws_after_a_singular_factor(monkeypatch):
    """The synthesizer decides no smoothness: an attempt draws every wall,
    the checks reject it for a singular factor, and the next attempt draws on
    from the same random stream."""
    S = tom_datum()
    redrawn = []
    for _ in range(2):
        with monkeypatch.context() as m:
            _singular_for(m, 1)
            redrawn.append(generic_wall_assignment(S, seed=1))
    rng = random.Random(1)
    with monkeypatch.context() as m:
        decided = _singular_for(m, None)
        first = WallAssignment(tuple(wallfn._synthesize_wall(e, rng) for e in S.edges))
        assert decided == []
    W = WallAssignment(tuple(wallfn._synthesize_wall(e, rng) for e in S.edges))
    assert first == generic_wall_assignment(S, seed=1) != W
    assert redrawn == [W, W] and is_subordinate(S, W) and is_generic(S, W)


def test_synthesis_redraws_after_a_non_generic_attempt(monkeypatch):
    S = tom_datum()
    rng = random.Random(1)
    first, second = [
        WallAssignment(tuple(wallfn._synthesize_wall(e, rng) for e in S.edges))
        for _ in range(2)
    ]
    real = wallfn._resultant_u
    two_terms = []

    def resultant(f, g):
        if two_terms:
            return real(f, g)
        two_terms.append(wallfn._UX.gens[1] + 1)  # x + 1: not c * x^k
        return two_terms[0]

    monkeypatch.setattr(wallfn, "_resultant_u", resultant)
    assert generic_wall_assignment(S, seed=1) == second != first
    assert two_terms and first == generic_wall_assignment(S, seed=1)


def test_synthesis_gives_up_after_50_attempts(monkeypatch, capsys):
    decided = _singular_for(monkeypatch, None)
    with pytest.raises(
        WallSynthesisError,
        match="^could not draw a generic assignment in 50 attempts$",
    ):
        generic_wall_assignment(tom_datum(), seed=1)
    assert len(decided) == 50 * 5  # is_subordinate decides all 5 factors of each attempt
    assert main(["report", "Tom", "--gen-walls", "1"]) == 2
    assert "could not draw a generic assignment" in capsys.readouterr().err


def test_gamma_draws_counts_the_distinct_draws():
    """_synthesize_wall draws gamma = +-a/b with 1 <= a <= 9, 1 <= b <= 3."""
    gammas = {s * Fraction(a, b) for a in range(1, 10) for b in range(1, 4) for s in (1, -1)}
    assert wallfn._GAMMA_DRAWS == len(gammas) == 40


def test_synthesis_refuses_more_equal_parts_than_gammas(capsys):
    """An(40) has 41 parts of 1 on one wall, one more than the distinct gammas
    the synthesizer can draw: refused at once, exit 2; An(39) still draws."""
    start = time.perf_counter()
    with pytest.raises(
        WallSynthesisError, match=r"^partition \(1, 1, .*1\) of edge \(0, 41\): 41 parts "
        r"of value 1, but only 40 distinct gammas can be drawn$",
    ):
        generic_wall_assignment(an_datum(40), 1)
    assert main(["report", "An(40)", "--gen-walls", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "41 parts of value 1" in capsys.readouterr().err
    W = generic_wall_assignment(an_datum(39), 1)
    assert len(set(W.factors[1])) == 40 and is_generic(an_datum(39), W)


# --- the ring-level checks against the expression-level reference --------------

# The 30 data of the benchmark's walls workload: every partition admits a
# dominant tower, and (1^8), (4,2,1,1) and (8) give the heaviest walls.
TOWER_DATA = (
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

# Zero, constants, and curves with known singularities: double lines, a
# node, a cusp, a tacnode, and a smooth conic whose singular system has
# solutions off the curve.
SPECIAL = tuple(
    P(text)
    for text in (
        "0", "1", "-3/2", "x", "u", "u^2", "u^2 - 2*u*x + x^2", "x^2",
        "u^2 - x^2", "u^2 - x^3", "u^2 - x^4", "u^2 + x^2 - 1", "u^3 - x^2*u + x",
        "u^2 - 6*u*x + x", "u*x", "x^2 + 1",
    )
)


def random_bipoly(rng: random.Random) -> BiPoly:
    """Up to four terms of x-degree <= 2 and u-degree <= 3 with small
    rational coefficients; every fourth one squared or multiplied by a
    second, which makes most of those singular."""
    def draw():
        return BiPoly.from_terms({
            (rng.randint(0, 2), rng.randint(0, 3)): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        })

    f = draw()
    if rng.random() < 0.25:
        f = f * (f if rng.random() < 0.5 else draw())
    return f


def test_smoothness_and_resultants_match_the_expr_reference():
    rng = random.Random(61)
    polys = list(SPECIAL) + [random_bipoly(rng) for _ in range(100)]
    verdicts = [is_smooth_curve(f) for f in polys]
    assert verdicts == [oracles.is_smooth_curve(f) for f in polys]
    assert 20 < sum(verdicts) < len(polys) - 20  # both verdicts well represented
    pairs = [(f, g) for f in SPECIAL for g in SPECIAL[:6]]
    pairs += [tuple(rng.sample(polys, 2)) for _ in range(150)]
    for f, g in pairs:
        res = wallfn._resultant_u(f._ux, g._ux)
        assert str(res.as_expr()) == str(oracles.resultant_u(f, g)), (f, g)


@pytest.fixture
def bases(monkeypatch):
    """The generator lists wallfn passes to groebner, one per call."""
    calls = []
    real = wallfn.groebner

    def counting_groebner(gens, ring):
        calls.append(gens)
        return real(gens, ring)

    monkeypatch.setattr(wallfn, "groebner", counting_groebner)
    return calls


def random_linear_in_x(rng: random.Random):
    """Pairs (kind, A(u) + B(u)*x) with B non-constant, so that none of f,
    df/dx, df/du is a nonzero constant.  Kind "settled": A one nonzero term
    c*u^k and B(0) != 0.  The others miss one condition: B(0) = 0, A = 0, or
    A of two terms."""
    def coefficient():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))

    kinds = (("settled", 1, 1.0), ("B(0) = 0", 1, 0.0), ("A = 0", 0, 0.8), ("two-term A", 2, 0.8))
    for _ in range(40):
        for kind, a_terms, b0_odds in kinds:
            A = {(0, k): coefficient() for k in rng.sample(range(6), a_terms)}
            B = {(1, j): coefficient() for j in rng.sample(range(1, 5), rng.randint(1, 2))}
            if rng.random() < b0_odds:
                B[(1, 0)] = coefficient()
            yield kind, BiPoly.from_terms({**A, **B})


def test_smoothness_edge_cases_match_the_expr_reference(bases):
    """A nonzero constant among f, df/dx, df/du settles smoothness without a
    Groebner basis, and so does A(u) + B(u)*x with A one nonzero term and
    B(0) != 0; the zero polynomial, the cusp and linear factors that miss a
    condition of that rule still compute one."""
    cases = {"0": False, "3": True, "x": True, "u + x^2": True,
             "u^3 + 2*x": True, "u^2 - x^3": False, "u^3 + 2*u^2*x - 3*x": True,
             "u^3 + 2*u^2*x": False, "u*x - 3*x": False, "u^2 - u + u*x - x": False}
    settled = ("3", "x", "u + x^2", "u^3 + 2*x", "u^3 + 2*u^2*x - 3*x")
    for text, smooth in cases.items():
        bases.clear()
        assert is_smooth_curve(P(text)) is smooth, text
        assert oracles.is_smooth_curve(P(text)) is smooth, text
        assert len(bases) == (text not in settled), text
    rng = random.Random(41)
    verdicts = {}
    for kind, f in random_linear_in_x(rng):
        bases.clear()
        assert is_smooth_curve(f) is oracles.is_smooth_curve(f), f
        assert len(bases) == (kind != "settled"), (kind, f)
        verdicts.setdefault(kind, set()).add(is_smooth_curve(f))
    assert verdicts["settled"] == {True} and verdicts["A = 0"] == {False}
    assert verdicts["B(0) = 0"] == verdicts["two-term A"] == {True, False}, verdicts


def random_u_free_pairs(rng: random.Random):
    """Triples (f, f + d, d) with d in Q[x]: u-degree m in 1..5 (odd m
    included), a leading coefficient lc_u(f) in Q[x] that is rarely 1, and d
    a nonzero constant, zero, or a polynomial with x-terms."""
    def coefficient():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))

    for _ in range(120):
        m = rng.randint(1, 5)
        f = {(rng.randint(0, 2), rng.randint(0, m - 1)): coefficient()
             for _ in range(rng.randint(0, 3))}
        f.update({(a, m): coefficient() for a in range(rng.randint(0, 2) + 1)})
        d = rng.choice(({}, {(0, 0): coefficient()},
                        {(a, 0): coefficient() for a in range(1, rng.randint(1, 3) + 1)}))
        g = {k: f.get(k, 0) + d.get(k, 0) for k in f.keys() | d.keys()}
        yield BiPoly.from_terms(f), BiPoly.from_terms(g), BiPoly.from_terms(d)


def random_tower_pairs(rng: random.Random):
    """Triples (f, g, r) with f = q*g + r: g = c*u^n plus terms of lower
    u-degree and total degree at most n (so u^n leads g in grevlex), with n in
    1..4 and c a constant that is rarely 1; q of u-degree 1..3, so deg_u f >
    n; and r in Q[x] zero, a nonzero constant, or several x-terms."""
    def coefficient():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))

    for _ in range(120):
        n = rng.randint(1, 4)
        lower = [(a, b) for a in range(n + 1) for b in range(n) if a + b <= n]
        g = {k: coefficient() for k in rng.sample(lower, rng.randint(1, min(3, len(lower))))}
        g[(0, n)] = coefficient()
        q = {(rng.randint(0, 2), rng.randint(0, 3)): coefficient() for _ in range(rng.randint(0, 2))}
        q[(rng.randint(0, 1), rng.randint(1, 3))] = coefficient()
        r = rng.choice(({}, {(0, 0): coefficient()},
                        {(a, 0): coefficient() for a in rng.sample(range(4), rng.randint(2, 3))}))
        qg = dict((BiPoly.from_terms(q) * BiPoly.from_terms(g)).terms)
        f = {k: qg.get(k, 0) + r.get(k, 0) for k in qg.keys() | r.keys()}
        yield BiPoly.from_terms(f), BiPoly.from_terms(g), BiPoly.from_terms(r)


@pytest.fixture
def sympy_resultants(monkeypatch):
    """The ring element pairs sympy's resultant is called on, one per call."""
    calls = []
    real = PolyElement.resultant

    def counting_resultant(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(PolyElement, "resultant", counting_resultant)
    return calls


def test_resultant_closed_form_matches_sympy(sympy_resultants):
    """_resultant_u against the Sylvester determinant and against sympy's
    ring resultant, whose sign is that of Res_u(q, p) when p has the lower
    u-degree: u-free differences and tower pairs in both argument orders,
    which take no sympy resultant, and the fallbacks (pairs with a common
    factor, some of which the tower rule settles, and a u-free f)."""
    rng = random.Random(13)
    closed = []
    shapes = {"lc_u not 1": 0, "odd m": 0, "constant d": 0, "d with x": 0}
    for f, g, d in random_u_free_pairs(rng):
        m = max(du for (_, du), _ in f.terms)
        shapes["lc_u not 1"] += [t for t in f.terms if t[0][1] == m] != [((0, m), 1)]
        shapes["odd m"] += m % 2
        shapes["constant d"] += [k for k, _ in d.terms] == [(0, 0)]
        shapes["d with x"] += any(dx for (dx, _), _ in d.terms)
        closed += [(f, g), (g, f)]
    assert min(shapes.values()) >= 15, shapes
    shapes = {"odd m*n": 0, "c not 1": 0, "zero r": 0, "r with x-terms": 0}
    for f, g, r in random_tower_pairs(rng):
        m, n = (max(du for (_, du), _ in h.terms) for h in (f, g))
        shapes["odd m*n"] += m * n % 2
        shapes["c not 1"] += dict(g.terms)[(0, n)] != 1
        shapes["zero r"] += r.is_zero()
        shapes["r with x-terms"] += sum(dx > 0 for (dx, _), _ in r.terms) >= 2
        closed += [(f, g), (g, f)]
    assert min(shapes.values()) >= 15, shapes
    fallbacks = [(f, f * P("u + x")) for f, _, _ in random_u_free_pairs(rng)][:40]
    fallbacks += [(P("x^2 - 3"), P("u^2 + x")), (P("2*x"), P("u^3 - x")), (P("5"), P("u + 1"))]
    fallbacks += [(g, f) for f, g in fallbacks]
    fell_back = 0
    for k, (f, g) in enumerate(closed + fallbacks):
        p, q = f._ux, g._ux
        sympy_resultants.clear()
        res = wallfn._resultant_u(p, q)
        assert k >= len(closed) or sympy_resultants == [], (f, g)
        fell_back += len(sympy_resultants)
        ring = p.resultant(q)  # Res_u(q, p) when deg_u p < deg_u q
        m, n = p.degree(0), q.degree(0)
        ring = -ring if m < n and m * n % 2 else ring
        assert str(res.as_expr()) == str(ring.as_expr()) == str(oracles.resultant_u(f, g)), (f, g)
        assert len(res) == len(ring), (f, g)
    assert fell_back >= 40, fell_back


def _controls(S, W, rng):
    """Assignments to reject or to report on: a wrong restriction, two equal
    factors, and factors u^part + x*(random rational terms) whose resultants
    are rarely monomials."""
    walls = [list(w) for w in W.factors]
    walls[0][0] = walls[0][0] * U
    yield WallAssignment(tuple(map(tuple, walls)))
    for i, edge in enumerate(S.edges):
        for k in range(1, len(edge.nu)):
            if edge.nu[k] == edge.nu[k - 1]:
                walls = [list(w) for w in W.factors]
                walls[i][k] = walls[i][k - 1]
                yield WallAssignment(tuple(map(tuple, walls)))
                break
    yield WallAssignment(tuple(
        tuple(
            BiPoly.from_terms({(0, part): 1, **{
                (rng.randint(0, 1) + 1, rng.randint(0, 1)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(2)
            }})
            for part in edge.nu
        )
        for edge in S.edges
    ))


def _fresh(f: BiPoly) -> BiPoly:
    """An equal factor rebuilt from its terms, with no verdict cached."""
    return BiPoly.from_terms(dict(f.terms))


def _fresh_copies(W: WallAssignment) -> WallAssignment:
    return WallAssignment(tuple(tuple(map(_fresh, wall)) for wall in W.factors))


def test_tower_assignments_match_the_expr_reference():
    rng = random.Random(7)
    seen = {"subordinate": 0, "generic": 0, "problems": 0}
    for seed, raw in enumerate(TOWER_DATA, start=1):
        S = validate(raw)
        W = generic_wall_assignment(S, seed)
        for V in (W, *_controls(S, W, rng)):
            sub, gen = oracles.wall_problems(S, V)
            assert is_subordinate(S, V).problems == sub
            if gen is None:
                with pytest.raises(SubordinationRequired):
                    is_generic(S, V)
            else:
                assert is_generic(S, V).problems == gen
                seen["subordinate"] += 1
                seen["generic"] += not gen
            seen["problems"] += len(sub) + len(gen or ())
    assert seen["generic"] >= 30 and seen["subordinate"] > seen["generic"]
    assert seen["problems"] > 60


def random_walls(S, rng: random.Random) -> WallAssignment:
    """Mostly walls whose factors restrict to u^l only jointly: 2*u + x and
    1/2*u (or the constant 1/2), then factors u + c*x^k; otherwise up to three
    factors drawn from SPECIAL (zero and constants included) and a few
    others.  Factor order is shuffled."""
    others = SPECIAL + tuple(map(P, ("2*u + x", "1/2*u", "-u", "u + x^2", "3*u^2 - x")))
    walls = []
    for length in S.lengths:
        if rng.random() < 0.8:
            wall = [P("2*u + x"), P("1/2*u") if length >= 2 else P("1/2")]
            wall += [BiPoly.from_terms({(0, 1): 1, (rng.randint(1, 2), 0): rng.randint(-3, 3)})
                     for _ in range(length - 2)]
        else:
            wall = [rng.choice(others) for _ in range(rng.randint(0, 3))]
        rng.shuffle(wall)
        walls.append(tuple(wall))
    return WallAssignment(tuple(walls))


def test_joint_compatibility_matches_the_expr_reference():
    """joint_compatible multiplies the factors' restrictions on the ring; the
    reference expands the product and substitutes x = 0."""
    rng = random.Random(23)
    verdicts = {True: 0, False: 0}
    zero_or_constant = 0
    for seed, raw in enumerate(TOWER_DATA, start=1):
        S = validate(raw)
        W = generic_wall_assignment(S, seed)
        for V in (W, *_controls(S, W, rng), *(random_walls(S, rng) for _ in range(8))):
            verdict = joint_compatible(S, V)
            assert verdict is oracles.joint_compatible(S, V), (raw, V)
            verdicts[verdict] += 1
            zero_or_constant += any(
                all(k == (0, 0) for k, _ in f.terms) for wall in V.factors for f in wall
            )
    assert min(verdicts.values()) > 60 and zero_or_constant > 20, (verdicts, zero_or_constant)


def test_products_match_the_expr_reference():
    """BiPoly * runs on the ring; the reference multiplies sympy expressions."""
    rng = random.Random(17)
    polys = list(SPECIAL) + [random_bipoly(rng) for _ in range(60)]
    for _ in range(200):
        f, g = rng.choice(polys), rng.choice(polys)
        expected = sympy.expand(oracles.to_sympy(f) * oracles.to_sympy(g))
        assert sympy.expand(oracles.to_sympy(f * g) - expected) == 0, (f, g)
        assert f * g == g * f


@pytest.fixture
def decided(monkeypatch):
    """The _UX elements wallfn decides the smoothness of, one per decision."""
    calls = []
    real = wallfn._decide_smooth

    def counting_decision(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(wallfn, "_decide_smooth", counting_decision)
    return calls


def test_each_factor_object_is_decided_once(decided):
    """Synthesis and every check after it share one decision per factor
    object; a second synthesis draws new objects and decides them again."""
    for seed, raw in enumerate(TOWER_DATA, start=1):
        S = validate(raw)
        decided.clear()
        W = generic_wall_assignment(S, seed)
        for check in (is_subordinate, is_generic, _wall_checks):
            check(S, W)
        objects = {id(f): f for wall in W.factors for f in wall}
        assert sorted(BiPoly(p).terms for p in decided) == sorted(
            f.terms for f in objects.values()
        ), raw
        decided.clear()
        again = generic_wall_assignment(S, seed)
        assert again == W and len(decided) == len(objects), raw
        assert not {id(f) for wall in again.factors for f in wall} & objects.keys()


@pytest.fixture
def resultants(monkeypatch):
    """The _UX element pairs wallfn takes Res_u of, one per call."""
    calls = []
    real = wallfn._resultant_u

    def counting_resultant(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(wallfn, "_resultant_u", counting_resultant)
    return calls


def test_each_factor_pair_is_decided_once(resultants):
    """After synthesis, the checks and the controls that share its factor
    objects, or hold equal copies of each wall's last factor, take no
    resultant again; fresh copies of all the factors take one per pair."""
    rng = random.Random(3)
    duplicates = 0
    for seed, raw in enumerate(TOWER_DATA, start=1):
        S = validate(raw)
        W = generic_wall_assignment(S, seed)
        resultants.clear()
        for check in (is_subordinate, is_generic, _wall_checks, joint_compatible):
            check(S, W)
        for V in list(_controls(S, W, rng))[:-1]:  # the last draws new factors
            duplicates += bool(_wall_checks(S, V)["generic"])
        assert resultants == [], raw
        # A verdict is keyed by the second factor's value, not its object.
        last_copied = tuple((*wall[:-1], _fresh(wall[-1])) for wall in W.factors)
        assert is_generic(S, WallAssignment(last_copied)) and resultants == [], raw
        assert is_generic(S, _fresh_copies(W))
        assert len(resultants) == sum(math.comb(len(wall), 2) for wall in W.factors), raw
    assert duplicates >= 10


def test_tower_walls_take_no_sympy_resultant(sympy_resultants):
    """The closed forms settle every pair of a synthesized wall, of equal or
    of unequal part values: synthesis and is_generic after it never call
    sympy's resultant."""
    unequal = 0
    for seed, raw in enumerate(TOWER_DATA, start=1):
        S = validate(raw)
        W = generic_wall_assignment(S, seed)
        assert is_generic(S, W) and sympy_resultants == [], raw
        unequal += sum(len(set(nu)) > 1 for _, nu in raw)
    assert unequal >= 5


def test_is_subordinate_takes_no_resultant(resultants):
    """is_subordinate alone decides no factor pair, even on fresh copies whose
    pair verdicts are not kept yet; is_generic checks subordination before
    it takes any Res_u."""
    rng = random.Random(5)
    for seed, raw in enumerate(TOWER_DATA, start=1):
        S = validate(raw)
        W = generic_wall_assignment(S, seed)
        copies = _fresh_copies(W)
        resultants.clear()
        assert is_subordinate(S, copies) and resultants == [], raw
        wrong_restriction = next(_controls(S, copies, rng))
        with pytest.raises(SubordinationRequired, match="^genericity needs a subordinate "
                           "assignment; problems: wall 1 factor 1: restriction "):
            is_generic(S, wrong_restriction)
        assert resultants == [], raw


def test_wall_documents_share_one_object_per_distinct_factor(bases):
    """A factor repeated within and across walls, as text and as triples, is
    one object after from_obj, so its Groebner basis is computed once; the
    problem strings are those of separate objects."""
    S = validate([((4, 0), (2, 2)), ((0, 2), (2,)), ((-4, -2), (1, 1))])
    cusp = [[0, 2, "1"], [3, 0, "-1"]]
    doc = {"walls": [["u^2 - x^3", cusp], ["u^2 - x^3"], ["u + x", "u - 2*x"]]}
    W = WallAssignment.from_obj(doc)
    assert W.factors[0][0] is W.factors[0][1] is W.factors[1][0]
    checks = _wall_checks(S, W)
    assert len(bases) == 1
    expected = [
        "wall 1 factor 1: zero curve is singular",
        "wall 1 factor 2: zero curve is singular",
        "wall 2 factor 1: zero curve is singular",
    ]
    assert checks["subordinate"] == {"ok": False, "problems": expected}
    assert checks["generic"] is None
    assert list(oracles.wall_problems(S, W)[0]) == expected
    bases.clear()
    assert _wall_checks(S, _fresh_copies(W)) == checks and len(bases) == 3


def test_cached_derived_data_keeps_value_semantics():
    """A factor is its ring element: a fresh object holds that alone, and
    ==, hash, repr, str, copy and pickle agree whether or not `terms`, the
    smoothness verdict and the pair verdicts are cached.  A product is
    equal to the factor rebuilt from its terms, and a fresh equal object
    gets the reference verdict."""
    rng = random.Random(29)
    for f in list(SPECIAL) + [random_bipoly(rng) for _ in range(60)]:
        empty, filled = _fresh(f), _fresh(f)
        smooth = is_smooth_curve(filled)
        filled._pairs[U._ux] = wallfn._resultant_u(filled._ux, U._ux)  # as is_generic does
        filled.terms  # noqa: B018 - cache the exchange form
        assert vars(empty).keys() == {"_ux"}
        assert vars(filled).keys() == {"_ux", "terms", "_smooth", "_pairs"}
        # ==, hash and repr read the element alone: empty builds no terms.
        assert empty == filled == f and hash(empty) == hash(filled) == hash(f)
        assert repr(empty) == repr(filled) == repr(f) and vars(empty).keys() == {"_ux"}
        assert pickle.dumps(filled) == pickle.dumps(empty)
        unpickled = [pickle.loads(pickle.dumps(g, protocol))
                     for g in (empty, filled) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for g in (empty, filled, copy.copy(empty), copy.copy(filled), *unpickled):
            assert g == f and hash(g) == hash(f), f
            assert repr(g) == repr(f) and str(g) == str(f), f
        product, plain = f * U, _fresh(f * U)
        assert vars(product).keys() == {"_ux"}
        assert product == plain and hash(product) == hash(plain) and repr(product) == repr(plain)
        assert pickle.dumps(product) == pickle.dumps(plain)
        fresh = _fresh(f)
        assert is_smooth_curve(fresh) is smooth is oracles.is_smooth_curve(fresh), f


def _has_constant_generator(f: BiPoly) -> bool:
    terms = dict(f.terms)
    return any(p and set(p) == {(0, 0)} for p in (terms, *oracles.derivatives(terms)))


def _linear_rule_settles(f: BiPoly) -> bool:
    """f = A(u) + B(u)*x with A one nonzero term and B(0) != 0."""
    terms = dict(f.terms)
    return (max((dx for dx, _ in terms), default=0) == 1 and (1, 0) in terms
            and sum(dx == 0 for dx, _ in terms) == 1)


def test_groebner_runs_only_where_no_closed_form_settles_smoothness(bases):
    """Synthesis computes one basis for each factor that neither a constant
    generator nor the linear rule settles, and for no other factor."""
    skipped = linear = hard_total = 0
    for seed, raw in enumerate(TOWER_DATA, start=1):
        S = validate(raw)
        bases.clear()
        W = generic_wall_assignment(S, seed)
        distinct = {f for wall in W.factors for f in wall}
        hard = [f for f in distinct
                if not (_has_constant_generator(f) or _linear_rule_settles(f))]
        assert sorted(str(gens[0]) for gens in bases) == sorted(str(f._ux) for f in hard), raw
        skipped += len(distinct) - len(hard)
        linear += sum(not _has_constant_generator(f) for f in distinct) - len(hard)
        hard_total += len(hard)
    # Most factors are u^v + gamma*x, with df/dx = gamma; the second level of
    # a tower is u^v + (gamma'*u^w + gamma)*x; (4, 2, 1, 1) goes higher.
    assert skipped > 100 and linear >= 8 and hard_total >= 2, (skipped, linear, hard_total)


def test_wall_documents_bound_the_groebner_degree(bases):
    """Every wall assignment refuses a factor above total degree 10 before
    any basis is computed, also when a constant generator would settle its
    smoothness: a document's factor as text or triples, a synthesized tower
    factor, and a factor passed to WallAssignment directly.  Degree 10, and
    the zero factor, are still taken (a synthesized part of 10 is read back
    below).  is_smooth_curve on a single factor is not bounded."""
    assert wallfn.MAX_GROEBNER_DEGREE == 10
    cusp = P("u^2 - x^3")
    for f in (P("u^11 + u^9*x^2 + x"), P("u^2*x^9 + u + x^2*u"), cusp * cusp * cusp * cusp,
              P("u^12 + x"), P("x^20 + u")):
        degree = max(dx + du for (dx, du), _ in f.terms)
        cap = f"^a wall factor of total degree {degree} is too large to check; the cap is 10$"
        for doc in ({"walls": [["u"], [format_bipoly(f)]]}, [[bipoly_to_obj(f), "u"]]):
            with pytest.raises(FactorTooLarge, match=cap):
                WallAssignment.from_obj(doc)
        with pytest.raises(FactorTooLarge, match=cap):
            WallAssignment(((U,), (P("u + x"), _fresh(f))))
    tower = validate([((12, 0), (11, 1)), ((0, 1), (1,)), ((-12, -1), (1,))])
    with pytest.raises(FactorTooLarge, match="total degree 11 .* the cap is 10$"):
        generic_wall_assignment(tower, seed=1)
    WallAssignment.from_obj([["u^10 + u^9*x + x", "x^10 + u"]])
    WallAssignment(((P("u^10 + u^9*x + x"), P("x^10 + u")), (BiPoly.from_terms({}),)))
    assert bases == []
    assert is_smooth_curve(P("u^11 + u^9*x^2 + x")) and len(bases) == 1


def test_gen_walls_documents_read_back_with_the_same_checks(capsys, tmp_path):
    """Every `report --gen-walls --json` document that exits 0 reads back
    through `--walls` with the same wall checks: the tower data, and a wall
    with a part of 10, at the cap.  A part of 11 is refused by synthesis as
    it is by the reader, so it writes no document."""
    at_cap = (((11, 0), (10, 1)), ((0, 1), (1,)), ((-11, -1), (1,)))
    over_cap = (((12, 0), (11, 1)), ((0, 1), (1,)), ((-12, -1), (1,)))
    datum, walls = tmp_path / "datum.json", tmp_path / "walls.json"
    refused = []
    for seed, raw in enumerate((*TOWER_DATA, at_cap, over_cap), start=1):
        datum.write_text(json.dumps({"edges": [{"e": e, "nu": nu} for e, nu in raw]}))
        if main(["report", str(datum), "--gen-walls", str(seed), "--json"]):
            refused.append(raw)
            continue
        written = json.loads(capsys.readouterr().out)
        walls.write_text(json.dumps(written["walls_input"]))
        assert main(["report", str(datum), "--walls", str(walls), "--json"]) == 0, raw
        read = json.loads(capsys.readouterr().out)
        assert read == written, raw
        assert written["wall_checks"]["generic"]["ok"], raw
    assert refused == [over_cap]
    assert "total degree 11 is too large to check" in capsys.readouterr().err
    degrees = [dx + du for dx, du, _ in written["walls_input"]["walls"][0][0]]
    assert max(degrees) == 10

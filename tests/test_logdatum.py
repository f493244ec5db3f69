import json
import random
from math import gcd

import pytest

from logmut import (
    LogDatum,
    Rank,
    UnimodularMap,
    an_datum,
    apply_to_datum,
    component_types,
    datum_from_obj,
    datum_to_obj,
    dual_polygon,
    fan_presentation,
    is_irreducible,
    is_zero_mutable_rank_one,
    jerry_datum,
    named,
    partitions_of,
    polygon,
    rank,
    tom_datum,
    validate,
)
from logmut.errors import (
    ClosureViolation,
    DuplicateDirection,
    InvalidDatum,
    NotRankOne,
    NotRankTwo,
    PartitionSumMismatch,
    TooFewEdges,
    ZeroVector,
)
from logmut.lattice import primitive_split
from logmut.logdatum import AN_MAX

import oracles
from conftest import random_datum


def test_validate_sorts_counterclockwise_and_normalizes_partitions():
    S = validate([((3, -3), (1, 2)), ((-2, 0), (2,)), ((2, 1), (1,)), ((-3, 2), (1,))])
    assert S.edges == (
        ((2, 1), (1,)),
        ((-3, 2), (1,)),
        ((-2, 0), (2,)),
        ((3, -3), (2, 1)),
    )


def test_validate_drops_zero_parts():
    S = validate([((2, 0), (1, 1, 0)), ((-2, 0), (2, 0))])
    assert S.edges[0].nu == (1, 1)
    assert S.edges[1].nu == (2,)


def test_validate_rejections():
    with pytest.raises(ZeroVector):
        validate([((0, 0), ()), ((1, 0), (1,))])
    with pytest.raises(PartitionSumMismatch):
        validate([((2, 0), (1,)), ((-2, 0), (2,))])
    with pytest.raises(DuplicateDirection):
        validate([((1, 0), (1,)), ((2, 0), (2,)), ((-3, 0), (3,))])
    with pytest.raises(ClosureViolation):
        validate([((1, 0), (1,)), ((0, 1), (1,))])
    with pytest.raises(InvalidDatum):
        validate([((2, 0), (3, -1)), ((-2, 0), (2,))])


def _outcome(fn, raw):
    try:
        return fn(raw).edges
    except InvalidDatum as exc:
        return type(exc), str(exc)


def _corrupt(rng: random.Random, raw: list) -> list:
    """raw with one or two faults of the kinds validate reports."""
    bad = [list(pair) for pair in raw]
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(bad))
        (x, y), nu = bad[i]
        kind = rng.randrange(6)
        if kind == 0:
            bad[i] = [(0, 0), ()]
        elif kind == 1:
            bad[i][1] = tuple(nu) + (1,)
        elif kind == 2:  # a positive multiple of an edge: a repeated direction
            bad.insert(rng.randrange(len(bad) + 1), [(2 * x, 2 * y), (2 * sum(nu),)])
        elif kind == 3:  # off by one: open, or a new length
            bad[i] = [(int(x) + 1, y), (gcd(int(x) + 1, y),)]
        elif kind == 4:
            bad[i][0] = (float(x), y)
        else:
            bad[i][1] = tuple(nu) + (rng.choice((-1, True)),)
    return bad


def test_validate_matches_the_reference_on_shuffled_and_corrupted_input():
    """validate splits each edge once and orders with integers only: on
    shuffled input its order must increase strictly in the reference key
    and equal the reference's Fraction sort, with the stored lengths and
    directions those of its edges; a corrupted input must raise the
    reference's exception with the same message."""
    rng = random.Random(712)
    raised = set()
    for _ in range(600):
        S = random_datum(rng, max_edges=6, coord_bound=rng.choice((2, 20)))
        raw = list(S.edges)
        rng.shuffle(raw)
        T = validate(raw)
        assert T == S and hash(T) == hash(S)
        assert T.edges == _outcome(oracles.validate_reference, raw)
        dirs = T.directions
        for i in range(len(dirs)):
            for j in range(len(dirs)):
                assert (oracles.ccw_key(dirs[i]) < oracles.ccw_key(dirs[j])) == (i < j)
        assert tuple(primitive_split(edge.e) for edge in T.edges) == tuple(
            zip(T.lengths, dirs)
        )
        bad = _corrupt(rng, raw)
        outcome = _outcome(validate, bad)
        assert outcome == _outcome(oracles.validate_reference, bad), bad
        raised.add(outcome[0])
    assert raised >= {
        InvalidDatum, ZeroVector, PartitionSumMismatch, DuplicateDirection, ClosureViolation
    }


def test_empty_datum_is_valid_but_rankless():
    S = validate([])
    assert len(S) == 0
    with pytest.raises(TooFewEdges):
        rank(S)


def test_rank():
    assert rank(validate([((2, 1), (1,)), ((-2, -1), (1,))])) is Rank.RANK_ONE
    assert rank(tom_datum()) is Rank.RANK_TWO


def test_rank_one_zero_mutability_is_partition_equality():
    eq = validate([((2, 2), (1, 1)), ((-2, -2), (1, 1))])
    ne = validate([((2, 2), (2,)), ((-2, -2), (1, 1))])
    assert is_zero_mutable_rank_one(eq)
    assert not is_zero_mutable_rank_one(ne)
    with pytest.raises(NotRankOne):
        is_zero_mutable_rank_one(tom_datum())


def test_u_height():
    S = tom_datum()
    # {(1,0), e}_+ over edges (3,0), (0,2), (-3,-2): 0 + 2 + 0
    assert oracles.u_height(S, (1, 0)) == 2
    assert oracles.u_height(S, (0, 1)) == 3
    assert oracles.u_height(S, (-1, 0)) == 2
    assert oracles.u_height(S, (0, -1)) == 3


def test_polygon_closes():
    S = tom_datum()
    verts = polygon(S)
    assert len(verts) == 3
    assert verts[0] == (0, 0)
    closing = (verts[-1][0] + S.edges[-1].e[0], verts[-1][1] + S.edges[-1].e[1])
    assert closing == (0, 0)


def test_dual_polygon_rotates_edges_clockwise():
    S = tom_datum()
    assert polygon(S) == [(0, 0), (3, 0), (3, 2)]
    assert dual_polygon(S) == [(0, 0), (0, -3), (2, -3)]


def test_named_data():
    assert named("Tom") == tom_datum()
    assert named("Jerry") == jerry_datum()
    assert named("An(3)") == an_datum(3)
    for name in ("Spike", "An(3)\n", "An(\u0663)", " An(3)"):
        with pytest.raises(KeyError):
            named(name)


def test_an_datum_is_capped():
    S = an_datum(AN_MAX)
    assert AN_MAX == 10**6
    assert S.edges[1] == ((0, AN_MAX + 1), (1,) * (AN_MAX + 1))
    for n in (AN_MAX + 1, 10**20):
        with pytest.raises(InvalidDatum, match=f"n <= {AN_MAX}"):
            an_datum(n)
    with pytest.raises(InvalidDatum, match=f"n <= {AN_MAX}"):
        named("An(100000000000000000000)")
    with pytest.raises(InvalidDatum, match=f"n <= {AN_MAX}"):
        datum_from_obj({"name": f"An({AN_MAX + 1})"})


def test_an_datum_shape():
    for n in range(5):
        S = an_datum(n)
        assert S.edges == (
            ((1, 0), (1,)),
            ((0, n + 1), tuple([1] * (n + 1))),
            ((-1, -n - 1), (1,)),
        )


def test_irreducibility():
    assert is_irreducible(tom_datum())
    # content 2: every coordinate is even
    assert not is_irreducible(validate([((2, 0), (1, 1)), ((-2, 0), (2,))]))
    # the two horizontal edges cancel on their own
    S = validate([((1, 0), (1,)), ((0, 1), (1,)), ((-1, 0), (1,)), ((0, -1), (1,))])
    assert not is_irreducible(S)
    # 24 edges, far beyond listing 2^24 subsets: every edge but the closing
    # one has a positive x-coordinate, so no proper subset closes up
    fan = [((1, k), (1,)) for k in range(23)] + [((-23, -253), (23,))]
    assert is_irreducible(validate(fan))
    # two closed 12-edge polygons side by side
    first = [((1, k), (1,)) for k in range(11)] + [((-11, -55), (11,))]
    second = [((k, 1), (1,)) for k in range(2, 13)] + [((-77, -11), (11,))]
    S = validate(first + second)
    assert len(S) == 24 and not is_irreducible(S)


def test_fan_presentation_tom():
    fan = fan_presentation(tom_datum())
    assert fan.joint == (0, 0, 1)
    assert fan.maximal_cones == (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (-3, -2, 0), (0, 0, 1)),
        ((-3, -2, 0), (1, 0, 0), (0, 0, 1)),
    )
    assert fan.walls == (
        ((1, 0, 0), (0, 0, 1)),
        ((0, 1, 0), (0, 0, 1)),
        ((-3, -2, 0), (0, 0, 1)),
    )


def test_component_types_tom_jerry():
    for S in (tom_datum(), jerry_datum()):
        report = component_types(S)
        assert report.indices == [1, 3, 2]
        assert report.labels == ["smooth", "1/3(1,1,0)", "1/2(1,1,0)"]


def test_component_types_an():
    for n in range(7):
        report = component_types(an_datum(n))
        assert report.indices == [1, 1, n + 1]
        if n == 0:
            assert report.labels[2] == "smooth"
        else:
            assert report.labels[2] == f"1/{n + 1}(1,{n},0)"


def test_component_types_need_rank_two():
    with pytest.raises(NotRankTwo):
        component_types(validate([((1, 0), (1,)), ((-1, 0), (1,))]))


def test_quotient_label_uses_smaller_inverse():
    # cone <(1,0),(2,5)>: index 5, 2^-1 mod 5 = 3, so the label keeps q=2
    report = component_types(
        validate([((1, 0), (1,)), ((2, 5), (1,)), ((-3, -5), (1,))])
    )
    assert report.indices[0] == 5
    assert report.labels[0] == "1/5(1,2,0)"


def test_apply_to_datum_relabels_ccw():
    S = tom_datum()
    A = UnimodularMap(1, 1, 0, 1)
    T = apply_to_datum(A, S)
    assert sorted(edge.nu for edge in T.edges) == sorted(edge.nu for edge in S.edges)
    assert {A.apply(edge.e) for edge in S.edges} == {edge.e for edge in T.edges}


def test_json_round_trip():
    S = jerry_datum()
    obj = datum_to_obj(S)
    assert obj == {
        "edges": [
            {"e": [3, 0], "nu": [1, 1, 1]},
            {"e": [0, 2], "nu": [2]},
            {"e": [-3, -2], "nu": [1]},
        ]
    }
    assert datum_from_obj(json.loads(json.dumps(obj))) == S
    assert datum_from_obj({"name": "An(2)"}) == an_datum(2)


def test_datum_from_obj_rejects_garbage():
    with pytest.raises(InvalidDatum):
        datum_from_obj({"edges": [{"e": [1, 0]}]})
    with pytest.raises(InvalidDatum):
        datum_from_obj({"edges": "nope"})
    for obj in (
        {"edges": 5},
        {"edges": None},
        {"edges": {"e": [1, 0], "nu": [1]}},
        {"name": "Tom", "edges": 5},
        {"name": 5},
        {"name": ["Tom"], "edges": []},
    ):
        with pytest.raises(InvalidDatum):
            datum_from_obj(obj)
    for name in ("Spike", "An(3)\n"):
        with pytest.raises(KeyError):
            datum_from_obj({"name": name})


def test_inexact_input_is_rejected_not_coerced():
    with pytest.raises(InvalidDatum):
        datum_from_obj(
            {"edges": [{"e": [1.7, 0], "nu": [1.9]}, {"e": [-1, 0], "nu": [True]}]}
        )
    for nu in ("1", 1, None):
        with pytest.raises(InvalidDatum):
            datum_from_obj(
                {"edges": [{"e": [1, 0], "nu": nu}, {"e": [-1, 0], "nu": [1]}]}
            )
    for edges in (
        [((True, 0), (1,)), ((-1.0, 0), (1,))],
        [((1.0, 0), (1,)), ((-1, 0), (1,))],
        [(("1", 0), (1,)), ((-1, 0), (1,))],
        [((1, 0, 0), (1,)), ((-1, 0), (1,))],
        [((1, 0), (1.0,)), ((-1, 0), (1,))],
        [((1, 0), (True,)), ((-1, 0), (1,))],
    ):
        with pytest.raises(InvalidDatum):
            validate(edges)


def test_partitions_of_descending_lexicographic():
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0) == [()]
    for p in partitions_of(6):
        assert sum(p) == 6
        assert tuple(sorted(p, reverse=True)) == p

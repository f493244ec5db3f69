import json
import random
from math import gcd

import pytest

from logmut import (
    CertStep,
    Certificate,
    UnimodularMap,
    an_datum,
    apply_to_datum,
    canonical_rep,
    canonical_tuple,
    canonicalize,
    datum_to_obj,
    enumerate_zero_mutable,
    is_zero_mutable,
    jerry_datum,
    legal_mutations,
    mutate,
    partitions_of,
    replay,
    tom_datum,
    validate,
    verify_certificate,
)
from logmut.errors import ClosureViolation, IllegalMutation, InvalidDatum, LogMutError
from conftest import _box_edge_sets, random_datum, random_unimodular
from oracles import _candidates, full_layer_search


def test_canonical_tuple_matches_reference_candidates():
    for S in (tom_datum(), jerry_datum(), an_datum(0), an_datum(4)):
        assert canonical_tuple(S) == min(_candidates(S))


def test_canonical_tuple_matches_reference_candidates_on_ties():
    """The key prunes its bases on the triple after (l, 0, nu); it must
    still be the least candidate where many edges tie on (l, nu): every
    class of the coordinate-3 box with all parts 1, and symmetric data,
    where several bases tie on the next triple too; each under a random
    lattice map."""
    rng = random.Random(711)
    data = {}
    for edge_set in _box_edge_sets(bound=3):
        S = validate([(e, (1,) * gcd(*e)) for e in edge_set])
        data.setdefault(canonical_tuple(S), S)
    hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    square = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    triangle = [(1, 0), (0, 1), (-1, -1)]
    symmetric = [
        validate([((c * x, c * y), nu) for x, y in edges])
        for edges in (hexagon, square, triangle, [(1, 0), (-1, 0)])
        for c, nu in ((1, (1,)), (2, (1, 1)), (2, (2,)), (3, (2, 1)))
    ]
    assert len(data) > 2000
    for S in list(data.values()) + symmetric:
        T = apply_to_datum(random_unimodular(rng), S)
        candidates = list(_candidates(T))
        least = min(candidates)
        assert canonical_tuple(T) == least == canonical_tuple(S), S
        if S in symmetric:  # several bases realize the key
            assert candidates.count(least) > 1, S


def test_canonicalize_identifies_isomorphic_data():
    S = tom_datum()
    A = UnimodularMap(2, 1, 1, 1)
    assert canonicalize(apply_to_datum(A, S)) == canonicalize(S)
    assert canonicalize(S) != canonicalize(jerry_datum())


def test_canonical_rep_is_idempotent_member_of_class():
    for S in (tom_datum(), jerry_datum(), an_datum(2)):
        rep = canonical_rep(S)
        assert canonical_tuple(rep) == canonical_tuple(S)
        assert canonical_rep(rep) == rep
        assert rep.edges == canonical_tuple(S)


def test_canonical_of_empty_and_rank_one():
    assert canonical_tuple(validate([])) == ()
    assert canonical_rep(validate([])) == validate([])
    minimal = validate([((1, 0), (1,)), ((-1, 0), (1,))])
    assert canonical_rep(minimal) == minimal  # the minimal rank-one class rep
    # A rank-one datum with equal partitions (a search terminal) is its own
    # canonical representative exactly when it is horizontal, the rule the
    # search's tie-break reads off a state.
    rng = random.Random(88)
    seen = set()
    for _ in range(300):
        x, y = rng.choice(((1, 0), (-1, 0), (rng.randint(-6, 6), rng.randint(-6, 6))))
        if gcd(x, y) != 1:
            continue
        l = rng.randint(1, 4)
        nu = rng.choice(partitions_of(l))
        T = validate([((l * x, l * y), nu), ((-l * x, -l * y), nu)])
        canonical = canonical_rep(T) == T
        assert canonical == (T.directions[0] == (1, 0)), T
        seen.add(canonical)
    assert seen == {True, False}


def test_decide_immediate_success():
    S = validate([((4, 2), (1, 1)), ((-4, -2), (1, 1))])
    v = is_zero_mutable(S)
    assert v.is_yes and v.certificate.steps == ()
    assert v.certificate.terminal == S


def test_decide_rank_one_failure_is_no():
    S = validate([((2, 0), (2,)), ((-2, 0), (1, 1))])
    v = is_zero_mutable(S)
    assert v.is_no


def test_decide_empty_datum_is_no():
    assert is_zero_mutable(validate([])).is_no


def test_decide_requires_datum():
    with pytest.raises(InvalidDatum):
        is_zero_mutable([((1, 0), (1,))])


def test_mutation_fixed_class_exhausts_to_no():
    # Every mutation of this datum lands back in its own canonical class,
    # so the reachable set is a single class and the verdict is No.
    S = validate([((1, 0), (1,)), ((0, 2), (2,)), ((-1, -2), (1,))])
    v = is_zero_mutable(S, max_depth=12)
    assert v.is_no
    assert v.explored == 1
    moves = legal_mutations(S)
    assert moves
    for j, k in moves:
        assert canonical_tuple(mutate(S, j, k)) == canonical_tuple(S)


def test_tom_and_jerry_decide_yes():
    vt = is_zero_mutable(tom_datum())
    vj = is_zero_mutable(jerry_datum())
    assert vt.is_yes and len(vt.certificate.steps) == 3
    assert vj.is_yes and len(vj.certificate.steps) == 4
    assert verify_certificate(tom_datum(), vt.certificate)
    assert verify_certificate(jerry_datum(), vj.certificate)


def test_an_certificates_walk_the_chain():
    for n in range(5):
        v = is_zero_mutable(an_datum(n))
        assert v.is_yes
        assert v.certificate.steps == tuple([CertStep(2, 1)] * (n + 1))
        assert v.certificate.terminal == validate(
            [((1, 0), (1,)), ((-1, 0), (1,))]
        )


def test_an_search_visits_the_pinned_class_counts():
    # The number of canonical classes a search visits is a machine-independent
    # count: a faster search must still visit exactly these classes.
    explored = [1, 2, 12, 38, 106, 304, 952, 3331, 12999]
    for n, count in enumerate(explored):
        v = is_zero_mutable(an_datum(n))
        assert v.is_yes
        assert (v.explored, v.depth) == (count, n + 1)


def budget_example():
    """A datum that is Yes at depth 4 within 200 states, and its image under
    [[1, 0], [-1, 1]].  The image expands the success layer in another
    order, and at max_states=200 the budget trips there before the first
    success."""
    S = validate([((5, 0), (3, 1, 1)), ((-3, 3), (2, 1)), ((-2, -3), (1,))])
    return [S, apply_to_datum(UnimodularMap(1, 0, -1, 1), S)]


def test_last_layer_stop_matches_the_full_layer_search():
    """At max_depth the search stops at the first new rank-two class
    (Unknown) unless a three-edge parent has a success child.  Against a
    search that stores the last layer in full, verdict, depth, certificate
    and terminal agree; explored agrees on Yes and No and can only shrink
    on Unknown.  The grid reaches max_states in the last layer too, and
    caps 1, 2 and 3 reach it at the root's first, second and third new
    child.  The root's class always counts, so explored is at most
    max(max_states, 1): cap 0 stops where cap 1 does."""
    rng = random.Random(1212)
    data = [random_datum(rng, max_edges=6) for _ in range(200)]
    data += [tom_datum(), jerry_datum(), an_datum(3)] + budget_example()
    limits = [(d, s) for d in (0, 1, 2, 3, 4) for s in (0, 1, 2, 3, 5, 10, 40, 10**6)]
    limits.append((6, 200))
    seen = set()
    tripped_at_root = set()
    for S in data:
        for max_depth, max_states in limits:
            v = is_zero_mutable(S, max_depth=max_depth, max_states=max_states)
            ref = full_layer_search(S, max_depth=max_depth, max_states=max_states)
            case = (S, max_depth, max_states)
            assert (v.kind, v.depth, v.certificate) == (
                ref.kind, ref.depth, ref.certificate
            ), case
            assert v.explored <= max(max_states, 1), case
            if max_states == 0:
                assert v == is_zero_mutable(S, max_depth=max_depth, max_states=1), case
            if v.is_unknown:
                assert v.explored <= ref.explored, case
            else:
                assert v.explored == ref.explored, case
            states_in_last_layer = (
                ref.is_unknown
                and ref.depth == max_depth > 0
                and ref.explored == max_states
            )
            seen.add((v.kind, v.explored < ref.explored, states_in_last_layer))
            if v.is_unknown and v.depth == 1 and v.explored == max(max_states, 1):
                tripped_at_root.add(max_states)
    assert {("yes", False, False), ("no", False, False)} <= seen
    assert {("unknown", True, False), ("unknown", True, True)} <= seen
    assert {0, 1, 2, 3} <= tripped_at_root


def test_verdict_and_depth_are_invariant_under_lattice_maps():
    """Verdict and depth are functions of the class and the limits, also at
    tight max_states: a layer with a success is Yes wherever the budget
    trips in it, and other layers trip where the class count passes the
    budget.  2,000 (datum, map, limits) cases, the budget example's map
    among them."""
    rng = random.Random(609)
    S, _ = budget_example()
    maps = [UnimodularMap(1, 0, -1, 1)] + [random_unimodular(rng) for _ in range(4)]
    data = [(S, maps)]
    for _ in range(49):
        maps = [random_unimodular(rng) for _ in range(5)]
        data.append((random_datum(rng, max_edges=6), maps))
    cases = 0
    for S, maps in data:
        for max_depth in (3, 7):
            for max_states in (1, 5, 20, 200):
                v = is_zero_mutable(S, max_depth=max_depth, max_states=max_states)
                for A in maps:
                    w = is_zero_mutable(apply_to_datum(A, S), max_depth=max_depth,
                                        max_states=max_states)
                    assert (w.kind, w.depth) == (v.kind, v.depth), (S, A, max_depth, max_states)
                    assert w.explored <= max_states
                    cases += 1
    assert cases == 2000


def test_last_layer_stop_pins():
    v = is_zero_mutable(jerry_datum(), max_depth=3)
    assert (v.kind, v.explored, v.depth) == ("unknown", 11, 3)
    results = enumerate_zero_mutable([(3, 0), (0, 2), (-3, -2)], max_depth=4)
    assert [str(v) for _, v in results] == [
        "Unknown", "Unknown", "Unknown", "Yes", "Yes", "Unknown"
    ]
    assert [v.explored for _, v in results] == [12, 18, 24, 15, 24, 33]


def test_unknown_on_depth_limit():
    v = is_zero_mutable(an_datum(3), max_depth=2)
    assert v.is_unknown and v.depth == 2


def test_unknown_on_state_limit():
    v = is_zero_mutable(an_datum(8), max_states=50)
    assert v.is_unknown


def test_search_limits_are_non_negative_ints(monkeypatch):
    """Each search limit is an int, not a bool, at least 0, checked before
    any search: no coercion of 2.5 or True, no Unknown for a negative limit,
    no TypeError from inside the search."""
    import logmut.decider

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(logmut.decider, "_layer", no_search)
    cases = [
        ({"max_depth": 2.5}, "max_depth must be an int, got 2.5"),
        ({"max_depth": True}, "max_depth must be an int, got True"),
        ({"max_states": False}, "max_states must be an int, got False"),
        ({"max_depth": -1}, "max_depth must be non-negative, got -1"),
        ({"max_states": -5}, "max_states must be non-negative, got -5"),
        ({"max_states": None}, "max_states must be an int, got None"),
        ({"max_depth": "3"}, "max_depth must be an int, got '3'"),
    ]
    segment = [(1, 0), (-1, 0)]  # rank one: Yes without a search
    for limits, message in cases:
        for decide in (
            lambda: is_zero_mutable(tom_datum(), **limits),
            lambda: is_zero_mutable(validate([(v, (1,)) for v in segment]), **limits),
            lambda: enumerate_zero_mutable([(3, 0), (0, 2), (-3, -2)], **limits),
            lambda: enumerate_zero_mutable(segment, **limits),
        ):
            with pytest.raises(LogMutError) as err:
                decide()
            assert str(err.value) == message, limits
    monkeypatch.undo()
    assert is_zero_mutable(tom_datum(), max_depth=0, max_states=0).is_unknown
    assert is_zero_mutable(validate([(v, (1,)) for v in segment]), max_depth=0).is_yes


def test_replay_and_verify():
    S = tom_datum()
    cert = is_zero_mutable(S).certificate
    assert replay(S, cert) == cert.terminal
    bad = Certificate(cert.steps + (CertStep(1, 99),), cert.terminal)
    with pytest.raises(IllegalMutation) as err:
        replay(S, bad)
    assert "step 4" in str(err.value)
    assert not verify_certificate(S, bad)
    assert not verify_certificate(S, Certificate(cert.steps, an_datum(0)))


def test_certificate_json_round_trip():
    cert = is_zero_mutable(jerry_datum()).certificate
    obj = json.loads(json.dumps(cert.to_obj()))
    assert Certificate.from_obj(obj) == cert
    assert obj["terminal"] == datum_to_obj(cert.terminal)
    assert all(set(step) == {"edge", "part"} for step in obj["steps"])


def test_certificate_json_rejects_inexact_steps():
    terminal = datum_to_obj(an_datum(0))
    for step in ({"edge": 1.7, "part": True}, {"edge": 1, "part": 1.0}, {"edge": "1", "part": 1}):
        with pytest.raises(InvalidDatum):
            Certificate.from_obj({"steps": [step], "terminal": terminal})


def test_certificate_json_rejects_ill_shaped_documents():
    terminal = datum_to_obj(an_datum(0))
    for obj in (
        5,
        [],
        {},
        {"steps": 5},
        {"steps": [5], "terminal": terminal},
        {"steps": [[1, 1]], "terminal": terminal},
        {"steps": [{"edge": 1}], "terminal": terminal},
        {"steps": [{"edge": 1, "part": 1}]},
        {"steps": [], "terminal": 5},
    ):
        with pytest.raises(InvalidDatum):
            Certificate.from_obj(obj)


def test_certificate_part_is_a_value_not_an_index():
    # Tom's first certificate step removes the part of value 2 from edge 1,
    # which sits at index 1; a later datum could have it at another index.
    cert = is_zero_mutable(tom_datum()).certificate
    assert cert.steps[0] == CertStep(1, 2)


def test_enumerate_tom_jerry_polygon():
    results = enumerate_zero_mutable(
        [(3, 0), (0, 2), (-3, -2)], max_depth=6, max_states=5000
    )
    assignments = [a for a, _ in results]
    assert assignments == [
        ((3,), (2,), (1,)),
        ((3,), (1, 1), (1,)),
        ((2, 1), (2,), (1,)),
        ((2, 1), (1, 1), (1,)),
        ((1, 1, 1), (2,), (1,)),
        ((1, 1, 1), (1, 1), (1,)),
    ]
    verdicts = {a: v for a, v in results}
    assert verdicts[((2, 1), (1, 1), (1,))].is_yes  # Tom
    assert verdicts[((1, 1, 1), (2,), (1,))].is_yes  # Jerry


def test_enumerate_trivial_segment():
    results = enumerate_zero_mutable([(1, 0), (-1, 0)])
    assert len(results) == 1
    assert results[0][0] == ((1,), (1,))
    assert results[0][1].is_yes


def test_enumerate_rejects_non_closed_edges():
    with pytest.raises(ClosureViolation):
        enumerate_zero_mutable([(1, 0), (0, 1)])


def test_enumerate_rejects_inexact_vectors():
    for vectors in ([(1.0, 0), (-1, 0)], [(True, 0), (-1, 0)], [(1, 0, 0), (-1, 0)]):
        with pytest.raises(InvalidDatum):
            enumerate_zero_mutable(vectors)

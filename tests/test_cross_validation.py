"""Exhaustive agreement checks on a small box of data.

The survey in conftest enumerates every valid datum with total length <= 6
and coordinates in [-4, 4] (110,100 data in 17,419 canonical classes), then
decides each class representative twice: with the breadth-first decider and
with the independent iterative-deepening oracle, both at depth 2.  The two
searches take different routes (tuple kernels vs. datum objects), so any
disagreement points at a real defect in one of them.  A depth-6 pass over the
reference data and a corpus of Yes data from the oracle's own walks cover
deeper certificates than the uniform sweep can afford.
"""
import random

from logmut import (
    an_datum,
    is_zero_mutable,
    jerry_datum,
    tom_datum,
    validate,
    verify_certificate,
)

from conftest import (
    BOX_COORD_BOUND,
    BOX_LENGTH_BOUND,
    SWEEP_DEPTH,
    box_survey,
    random_datum,
)
from oracles import _iddfs_pass, iddfs_zero_mutable, yes_walk_corpus

FIXED_POINT = validate([((1, 0), (1,)), ((0, 2), (2,)), ((-1, -2), (1,))])


def test_survey_parameters_are_the_advertised_ones():
    assert (BOX_COORD_BOUND, BOX_LENGTH_BOUND, SWEEP_DEPTH) == (4, 6, 2)


def test_enumeration_covers_the_expected_population():
    survey = box_survey()
    assert survey["data_count"] == 110100
    assert survey["class_count"] == 17419


def test_searches_agree_on_every_class():
    survey = box_survey()
    assert survey["verdict_mismatches"] == ()
    assert survey["length_mismatches"] == ()
    assert survey["verdicts"] == {"yes": 29, "no": 8, "unknown": 17382}


def test_irreducibility_agrees_with_subset_sum_oracle():
    survey = box_survey()
    assert survey["irreducibility_mismatches"] == ()
    assert survey["irreducible_count"] == 11613


def test_deeper_agreement_on_reference_data():
    cases = [tom_datum(), jerry_datum(), FIXED_POINT]
    cases += [an_datum(n) for n in range(5)]
    partitions = [(3,), (2, 1), (1, 1, 1)]
    for nu1 in partitions:
        for nu2 in [(2,), (1, 1)]:
            cases.append(validate([((3, 0), nu1), ((0, 2), nu2), ((-3, -2), (1,))]))
    for S in cases:
        fast = is_zero_mutable(S, max_depth=6)
        kind, shortest = iddfs_zero_mutable(S, max_depth=6)
        assert fast.kind == kind
        if fast.is_yes:
            assert len(fast.certificate.steps) == shortest


def test_deep_yes_corpus_agrees_with_the_oracle():
    """Past depth 2: Yes data from the oracle's own walks (see
    oracles.yes_walk_corpus) at walk bounds up to 7.  On each, the decider
    and the oracle say Yes at one depth, within the walk bound, and the
    decider's certificate replays."""
    starts = [
        (S, iddfs_zero_mutable(S, max_depth=4)[1])
        for S in (tom_datum(), jerry_datum(), an_datum(1), an_datum(2), an_datum(3))
    ]
    corpus = yes_walk_corpus(starts, seed=1, walks=700, max_steps=4)
    depths = []
    for S, bound in corpus:
        if bound > 7:
            continue
        fast = is_zero_mutable(S, max_depth=bound)
        assert fast.is_yes and iddfs_zero_mutable(S, max_depth=bound) == ("yes", fast.depth), S
        assert fast.depth <= bound and verify_certificate(S, fast.certificate), S
        depths.append(fast.depth)
    assert sum(depth >= 3 for depth in depths) >= 60


def test_the_oracle_prune_changes_no_outcome():
    """The pruned oracle gives the unpruned outcome at every max_states.  On
    the first datum the pruned pass at cutoff 2 cannot tell for max_states 8
    to 15, where the unpruned pass returns Unknown up to 13 and Yes from 14:
    it must run again unpruned."""
    S = validate([((3, 0), (3,)), ((-1, 3), (1,)), ((-1, -1), (1,)), ((-1, -2), (1,))])
    assert _iddfs_pass(S, 2, 8, prune=True) is None
    rng = random.Random(7)
    cases = [S] + [random_datum(rng, max_edges=6, coord_bound=3) for _ in range(30)]
    for T in cases:
        for max_depth in (2, 3):
            for max_states in (*range(1, 16), 30, 10**6):
                limits = {"max_depth": max_depth, "max_states": max_states}
                assert iddfs_zero_mutable(T, **limits) == iddfs_zero_mutable(
                    T, **limits, prune=False
                ), (T, limits)


def test_survey_fits_the_time_budget():
    assert box_survey()["elapsed"] < 300

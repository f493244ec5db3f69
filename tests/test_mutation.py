import random

import pytest

from logmut import (
    MutationIndex,
    an_datum,
    component_types,
    fan_presentation,
    jerry_datum,
    legal_mutations,
    mutate,
    mutate_by_value,
    mutate_with_trace,
    tom_datum,
    validate,
)
from logmut.errors import IllegalMutation, NotRankTwo
from logmut.mutation import part_index

from conftest import random_datum
from oracles import legal_moves, u_height


def fig_datum():
    return validate(
        [((2, 1), (1,)), ((-3, 2), (1,)), ((-2, 0), (2,)), ((3, -3), (1, 2))]
    )


def test_golden_mutation_result_and_branches():
    S = fig_datum()
    T, trace = mutate_with_trace(S, 3, 1)  # edge (-2,0), part value 2
    assert T == validate(
        [((1, 0), (1,)), ((2, 1), (1,)), ((-3, 2), (1,)), ((0, -3), (1, 2))]
    )
    assert trace == [
        "(1) edge 4 sheared: (3, -3) -> (0, -3)",
        "(2b) edge 3 removed",
        "(3b) new edge (1, 0) with partition (1,)",
    ]


def test_mutate_by_value_matches_index():
    S = fig_datum()
    assert mutate_by_value(S, 3, 2) == mutate(S, 3, 1)
    # edge 4 has parts (2, 1): value 1 sits at index 2
    assert mutate_by_value(S, 4, 1) == mutate(S, 4, 2)
    with pytest.raises(IllegalMutation):
        mutate_by_value(S, 3, 7)
    # The checks come in order: rank, edge index, part value, then height.
    with pytest.raises(IllegalMutation, match="no part of value 1"):
        mutate_by_value(S, 3, 1)  # 1 <= h = 3, but edge 3 is (-2, 0) with (2,)
    for j in (0, 5):
        with pytest.raises(IllegalMutation, match=f"edge index {j} out of range"):
            mutate_by_value(S, j, 1)
    rank_one = validate([((2, 0), (2,)), ((-2, 0), (2,))])
    with pytest.raises(NotRankTwo):
        mutate_by_value(rank_one, 9, 5)
    with pytest.raises(NotRankTwo):
        part_index(rank_one, 1, 5)


def test_multi_part_edge_shrinks():
    tom = tom_datum()
    T = mutate(tom, 1, 1)  # part value 2 of nu=(2,1)
    assert T.edges == (
        ((1, 0), (1,)),
        ((2, 2), (1, 1)),
        ((-3, -2), (1,)),
    )


def test_opposite_edge_present_no_growth():
    # u_2 = (0,1) with opposite direction (0,-1) present; h = part, so d = 0
    S = validate([((1, 0), (1,)), ((0, 2), (1, 1)), ((-1, 0), (1,)), ((0, -2), (2,))])
    assert u_height(S, (0, 1)) == 1
    T = mutate(S, 2, 2)  # removes a part of value 1; only edge 3 shears
    assert T.edges == (
        ((1, 0), (1,)),
        ((0, 1), (1,)),
        ((-1, 1), (1,)),
        ((0, -2), (2,)),
    )


def test_opposite_edge_gains_part():
    S = validate([((2, 0), (1, 1)), ((0, 1), (1,)), ((-2, 0), (2,)), ((0, -1), (1,))])
    assert u_height(S, (0, 1)) == 2  # {(0,1),(-2,0)}_+ alone
    T = mutate(S, 2, 1)  # single part 1, edge removed; opposite grows by d=1
    assert T.edges == (
        ((2, 0), (1, 1)),
        ((-2, 2), (2,)),
        ((0, -2), (1, 1)),
    )


def test_total_length_bookkeeping():
    # sum of lengths changes by h - 2*part
    for S, j, k in [(tom_datum(), 1, 1), (jerry_datum(), 2, 1), (fig_datum(), 3, 1)]:
        part = S.edges[j - 1].nu[k - 1]
        h = u_height(S, S.directions[j - 1])
        T = mutate(S, j, k)
        assert T.total_length == S.total_length + h - 2 * part


def test_height_in_mutation_direction_is_invariant():
    for S, j, k in [(tom_datum(), 1, 1), (jerry_datum(), 2, 1), (fig_datum(), 3, 1)]:
        u = S.directions[j - 1]
        assert u_height(mutate(S, j, k), u) == u_height(S, u)


def test_illegal_when_height_smaller_than_part():
    S = validate([((0, 3), (3,)), ((2, -3), (1,)), ((-2, 0), (2,))])
    # h_{(0,1)}(S) = {(0,1),(2,-3)}_+ + {(0,1),(-2,0)}_+ = 0 + 2 < 3
    with pytest.raises(IllegalMutation) as err:
        mutate(S, 1, 1)
    assert "height" in str(err.value)


def test_index_range_errors():
    S = tom_datum()
    with pytest.raises(IllegalMutation):
        mutate(S, 0, 1)
    with pytest.raises(IllegalMutation):
        mutate(S, 4, 1)
    with pytest.raises(IllegalMutation):
        mutate(S, 1, 3)


def test_rank_one_is_not_mutable():
    S = validate([((2, 0), (1, 1)), ((-2, 0), (1, 1))])
    with pytest.raises(NotRankTwo):
        mutate(S, 1, 1)
    with pytest.raises(NotRankTwo):
        legal_mutations(S)


def test_one_rank_two_check_with_one_message():
    S = validate([((2, 0), (1, 1)), ((-2, 0), (1, 1))])
    messages = set()
    for call in (fan_presentation, component_types, legal_mutations, lambda S: mutate(S, 9, 9)):
        with pytest.raises(NotRankTwo) as info:
            call(S)
        messages.add(str(info.value))
    assert messages == {"rank-two data need more than two edges; got 2"}


def test_legal_mutations_one_per_distinct_value():
    S = jerry_datum()  # nu_1 = (1,1,1)
    moves = legal_mutations(S)
    assert moves.count(MutationIndex(1, 1)) == 1
    assert MutationIndex(1, 2) not in moves
    assert MutationIndex(1, 3) not in moves


def test_legal_mutations_match_legality():
    for S in (tom_datum(), jerry_datum(), an_datum(3), fig_datum()):
        moves = set(legal_mutations(S))
        for j, (edge, u) in enumerate(zip(S.edges, S.directions), start=1):
            h = u_height(S, u)
            first_of_value = {}
            for k, part in enumerate(edge.nu, start=1):
                first_of_value.setdefault(part, k)
            for k, part in enumerate(edge.nu, start=1):
                if h >= part and first_of_value[part] == k:
                    assert MutationIndex(j, k) in moves
                    mutate(S, j, k)  # must not raise
                else:
                    assert MutationIndex(j, k) not in moves
                    if h < part:
                        with pytest.raises(IllegalMutation):
                            mutate(S, j, k)
    # The kernel's heights against the height's definition on 1,200 seeded
    # random rank-two data; coordinate bound 2 makes -u_j edges common.
    rng = random.Random(130)
    compared = opposite = 0
    while compared < 1200:
        S = random_datum(rng, coord_bound=rng.choice((2, 20)))
        if len(S) < 3:
            continue
        assert legal_mutations(S) == legal_moves(S), S
        dirs = set(S.directions)
        opposite += any((-x, -y) in dirs for x, y in dirs)
        compared += 1
    assert opposite >= 200


def test_mutation_output_is_at_least_rank_one():
    # An(0) mutated at any edge stays a valid datum with >= 2 edges
    S = an_datum(0)
    for j, k in legal_mutations(S):
        T = mutate(S, j, k)
        assert len(T) >= 2

import random

import pytest

from logmut.errors import ZeroVector
from logmut.lattice import (
    UnimodularMap,
    primitive_split,
    sform,
    shear_map,
    sort_ccw,
    to_east,
    vadd,
)

from oracles import ccw_key


def test_sform_orientation_and_bilinearity():
    assert sform((1, 0), (0, 1)) == 1
    assert sform((0, 1), (1, 0)) == -1
    assert sform((2, 3), (2, 3)) == 0
    a, b, c = (3, -1), (2, 5), (-4, 7)
    assert sform(vadd(a, b), c) == sform(a, c) + sform(b, c)
    assert sform((4 * a[0], 4 * a[1]), b) == 4 * sform(a, b)


def test_primitive_split():
    assert primitive_split((6, -4)) == (2, (3, -2))
    assert primitive_split((0, 5)) == (5, (0, 1))
    assert primitive_split((-3, 0)) == (3, (-1, 0))
    assert primitive_split((2, 3)) == (1, (2, 3))
    with pytest.raises(ZeroVector):
        primitive_split((0, 0))


def test_unimodular_map_determinant_enforced():
    with pytest.raises(ValueError):
        UnimodularMap(1, 0, 0, -1)  # determinant -1: orientation-reversing
    with pytest.raises(ValueError):
        UnimodularMap(2, 0, 0, 2)


def test_unimodular_compose_apply_inverse():
    A = UnimodularMap(2, 1, 1, 1)
    B = shear_map(-3)
    v = (5, -7)
    assert A.compose(B).apply(v) == A.apply(B.apply(v))
    assert A.inverse().apply(A.apply(v)) == v
    assert A.compose(A.inverse()) == UnimodularMap(1, 0, 0, 1)


def test_to_east_sends_primitive_to_east():
    for u in [(1, 0), (0, 1), (-1, 0), (0, -1), (3, 2), (-3, -2), (5, -7), (-2, 9)]:
        A = to_east(u)
        assert A.apply(u) == (1, 0)
    with pytest.raises(ValueError):
        to_east((2, 4))  # not primitive


def test_ccw_order_full_circle():
    ring = [
        (1, 0), (3, 1), (1, 1), (1, 3), (0, 1), (-1, 3), (-1, 1), (-3, 1),
        (-1, 0), (-3, -1), (-1, -1), (-1, -3), (0, -1), (1, -3), (1, -1), (3, -1),
    ]
    for i in range(len(ring)):
        for j in range(len(ring)):
            assert (ccw_key(ring[i]) < ccw_key(ring[j])) == (i < j)
    shuffled = ring[5:] + ring[:5]
    assert sort_ccw(shuffled, lambda v: v) == ring


def test_sort_ccw_matches_the_reference_key():
    """The integer insertion sort equals a stable sort by the Fraction key,
    positive multiples of one direction kept in input order."""
    rng = random.Random(713)
    for _ in range(300):
        vectors = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(0, 12))]
        items = list(enumerate(v for v in vectors if v != (0, 0)))
        reference = sorted(items, key=lambda item: ccw_key(item[1]))
        assert sort_ccw(items, lambda item: item[1]) == reference
    with pytest.raises(ZeroVector):
        sort_ccw([(1, 0), (0, 0)], lambda v: v)


def test_ccw_key_scale_invariant():
    for v in [(2, 3), (-1, 4), (0, 2), (5, 0), (-3, 0), (0, -7), (-2, -2)]:
        assert ccw_key(v) == ccw_key((3 * v[0], 3 * v[1]))
    # and only positive multiples share a key
    rng = random.Random(11)
    vectors = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(60)]
    vectors = [v for v in vectors if v != (0, 0)]
    for a in vectors:
        for b in vectors:
            if ccw_key(a) == ccw_key(b):
                assert sform(a, b) == 0 and a[0] * b[0] >= 0 and a[1] * b[1] >= 0


def test_zero_vector_has_no_angle():
    with pytest.raises(ZeroVector):
        ccw_key((0, 0))

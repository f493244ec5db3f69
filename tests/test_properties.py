"""Randomized invariants of the mutation calculus.

Each suite draws at least 500 seeded cases with coordinates bounded by 20 and
total length bounded by 10, so failures are reproducible.
"""
import random
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from logmut import (
    UnimodularMap,
    apply_to_datum,
    canonical_rep,
    canonical_tuple,
    is_zero_mutable,
    legal_mutations,
    mutate,
    mutate_with_trace,
    sform,
    validate,
    verify_certificate,
)
from logmut.decider import _canonical_key
from logmut.errors import InvalidDatum
from logmut.lattice import primitive_split
from logmut.mutation import _expand_state, _state

from conftest import random_datum, random_unimodular
import oracles

CASES = 500


def small_entry_map(rng: random.Random) -> UnimodularMap:
    while True:
        A = random_unimodular(rng)
        if max(abs(A.a), abs(A.b), abs(A.c), abs(A.d)) <= 5:
            return A


def mutable_case(rng: random.Random):
    """A random datum together with one of its legal moves."""
    while True:
        S = random_datum(rng)
        if len(S) < 3:
            continue  # mutation is defined for rank-two data only
        moves = legal_mutations(S)
        if moves:
            j, k = rng.choice(moves)
            return S, j, k


def test_mutation_results_are_valid_data():
    rng = random.Random(601)
    for _ in range(CASES):
        S, j, k = mutable_case(rng)
        T = mutate(S, j, k)
        assert validate(list(T.edges)) == T  # closed, CCW, normalized


def test_mutation_preserves_height_along_its_direction():
    rng = random.Random(602)
    for _ in range(CASES):
        S, j, k = mutable_case(rng)
        u = S.directions[j - 1]
        assert oracles.u_height(mutate(S, j, k), u) == oracles.u_height(S, u)


def test_total_length_bookkeeping():
    rng = random.Random(603)
    for _ in range(CASES):
        S, j, k = mutable_case(rng)
        h = oracles.u_height(S, S.directions[j - 1])
        part = S.edges[j - 1].nu[k - 1]
        assert mutate(S, j, k).total_length == S.total_length + h - 2 * part


def test_mutation_commutes_with_lattice_maps():
    rng = random.Random(604)
    for _ in range(CASES):
        S, j, k = mutable_case(rng)
        A = small_entry_map(rng)
        AS = apply_to_datum(A, S)
        image_dir = None
        for idx, edge in enumerate(AS.edges, start=1):
            if edge.e == A.apply(S.edges[j - 1].e):
                image_dir = idx
                break
        assert image_dir is not None  # A permutes the edges
        assert apply_to_datum(A, mutate(S, j, k)) == mutate(AS, image_dir, k)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception type is compared
        return type(exc)


def literal_trace(S, j: int, k: int) -> list[str]:
    """mutate_with_trace's lines for a legal (j, k), from the rules on the
    datum's own edges: (1) each sheared edge in edge order, then (2a) or
    (2b), then (3a) or (3b)."""
    u = S.directions[j - 1]
    part, nu = S.edges[j - 1].nu[k - 1], S.edges[j - 1].nu
    d = oracles.u_height(S, u) - part
    lines = [
        f"(1) edge {i} sheared: {e} -> "
        f"{(e[0] + sform(u, e) * u[0], e[1] + sform(u, e) * u[1])}"
        for i, (e, _) in enumerate(S.edges, start=1)
        if sform(u, e) > 0
    ]
    if len(nu) > 1:
        shrunk = (S.lengths[j - 1] - part) * u[0], (S.lengths[j - 1] - part) * u[1]
        lines.append(f"(2a) edge {j} shrinks to {shrunk}, partition loses one part {part}")
    else:
        lines.append(f"(2b) edge {j} removed")
    opposite = [i for i, v in enumerate(S.directions, start=1) if v == (-u[0], -u[1])]
    if opposite:
        e = S.edges[opposite[0] - 1].e
        gains = d if d > 0 else "nothing"
        lines.append(
            f"(3a) opposite edge {opposite[0]} grows: {e} -> "
            f"{(e[0] - d * u[0], e[1] - d * u[1])}, partition gains {gains}"
        )
    elif d > 0:
        lines.append(f"(3b) new edge {(-d * u[0], -d * u[1])} with partition ({d},)")
    return lines


def test_kernel_mutate_matches_the_literal_rules():
    """mutate runs the flat-state kernel; oracles.mutate applies the rules
    to objects.  Every (j, k), in range or not, of CASES data with few
    distinct directions (so -u_j edges occur) and of CASES general data
    must give equal data or the same exception type, and every legal move's
    whole trace must equal the lines built from the rules."""
    rng = random.Random(607)
    branches = set()
    legal = 0
    for bound in (2, 20):
        for _ in range(CASES):
            S = random_datum(rng, max_edges=6, coord_bound=bound)
            for j in range(len(S) + 2):
                parts = len(S.edges[j - 1].nu) if 1 <= j <= len(S) else 1
                for k in range(parts + 2):
                    T = _outcome(mutate, S, j, k)
                    assert T == _outcome(oracles.mutate, S, j, k), (S, j, k)
                    if isinstance(T, type):
                        continue
                    legal += 1
                    T_traced, trace = mutate_with_trace(S, j, k)
                    assert T_traced == T
                    assert trace == literal_trace(S, j, k), (S, j, k)
                    branches.update(line[: line.index(")") + 1] for line in trace)
    assert legal >= CASES
    assert branches == {"(1)", "(2a)", "(2b)", "(3a)", "(3b)"}


def test_search_children_are_the_validated_mutations():
    """The search takes the kernel's children as they are, with no
    validate: each must already be the state of the validated datum, cut
    east-first with sorted partitions, or certificates would address the
    wrong edges.  Each child also has at most one edge fewer than its
    parent, the lemma by which the search takes successes only from
    three-edge parents."""
    rng = random.Random(608)
    for bound in (2, 20):
        for _ in range(CASES):
            S = random_datum(rng, max_edges=6, coord_bound=bound)
            state = _state(S)
            for edge, part, child, _ in _expand_state(state):
                k = S.edges[edge - 1].nu.index(part) + 1
                assert child == _state(oracles.mutate(S, edge, k))
                assert len(child) >= len(state) - 4


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_an_oracle_mutation_removes_at_most_one_edge(data):
    """The lemma behind the IDDFS oracle's prune, on the oracle's own
    validate_reference and mutate: no child of a datum with more than three
    edges is a success (two edges)."""
    coords = st.integers(-4, 4)
    vectors = data.draw(st.lists(st.tuples(coords, coords), min_size=2, max_size=5))
    vectors.append((-sum(x for x, _ in vectors), -sum(y for _, y in vectors)))
    raw = []
    for x, y in vectors:
        parts, rest = [], gcd(x, y)
        while rest:
            parts.append(data.draw(st.integers(1, rest)))
            rest -= parts[-1]
        raw.append(((x, y), parts))
    try:
        S = oracles.validate_reference(raw)
    except InvalidDatum:
        assume(False)
    assume(len(S) > 2)
    for j, k in oracles.legal_moves(S):
        assert len(oracles.mutate(S, j, k)) >= len(S) - 1, (S, j, k)


def test_canonical_form_is_idempotent_and_invariant():
    rng = random.Random(605)
    maps = [small_entry_map(rng) for _ in range(100)]
    for _ in range(200):
        S = random_datum(rng)
        key = canonical_tuple(S)
        rep = canonical_rep(S)
        assert canonical_tuple(rep) == key and canonical_rep(rep) == rep
        assert tuple(primitive_split(edge.e) for edge in rep.edges) == tuple(
            zip(rep.lengths, rep.directions)
        )
        for A in maps:
            assert canonical_tuple(apply_to_datum(A, S)) == key
        state = _state(S)
        flat_key = tuple(x for (e, nu) in key for x in (*e, nu))
        for r in range(0, len(state), 4):
            rotated = state[r:] + state[:r]
            assert _canonical_key(rotated) == flat_key


def test_certificates_replay_to_their_terminals():
    rng = random.Random(606)
    yes_count = 0
    for _ in range(CASES):
        S = random_datum(rng)
        verdict = is_zero_mutable(S, max_depth=3, max_states=300)
        if verdict.is_yes:
            yes_count += 1
            assert verify_certificate(S, verdict.certificate)
            terminal = verdict.certificate.terminal
            assert len(terminal) == 2
            assert terminal.edges[0].nu == terminal.edges[1].nu
    assert yes_count >= 10  # the sample really exercises the Yes path

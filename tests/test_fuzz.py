"""Fuzzing of the input boundary: every document or polynomial text, however
ill-shaped, is either accepted or rejected with a LogMutError or (for text
that does not parse) a ValueError, which the CLI maps to a documented exit
code, never with a traceback.

Name strings come from a short fixed list: a name such as An(10**6) is
valid and builds a partition of over a million parts (An(n) with n > 10**6
is refused, exit 2), a cost bounded separately.
"""
from hypothesis import HealthCheck, given, settings, strategies as st

from logmut import (
    Certificate,
    LogMutError,
    WallAssignment,
    datum_from_obj,
    datum_to_obj,
    legal_mutations,
    mutate,
    named,
    parse_bipoly,
)

KEYS = ("edges", "e", "nu", "name", "steps", "edge", "part", "terminal")
NAMES = ("Tom", "Jerry", "An(0)", "An(2)", "An(-1)", "Spike", "", "1")

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(NAMES)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=16,
)
# Documents close to the real shapes, so that the checks past the first
# type test are reached too.
small = st.integers(-3, 3) | json_values
edge = st.fixed_dictionaries(
    {"e": st.lists(small, min_size=2, max_size=2) | json_values,
     "nu": st.lists(small, max_size=3) | json_values},
)
datum = st.fixed_dictionaries(
    {"edges": st.lists(edge | json_values, max_size=4)},
    optional={"name": json_values},
)
certificate = st.fixed_dictionaries(
    {"steps": st.lists(
        st.fixed_dictionaries({"edge": small, "part": small}) | json_values,
        max_size=3,
    ),
     "terminal": datum | json_values},
)
documents = json_values | datum | certificate


@settings(
    derandomize=True,
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(documents)
def test_documents_parse_or_raise_a_logmut_error(doc):
    for parse in (datum_from_obj, Certificate.from_obj):
        try:
            parse(doc)
        except LogMutError:
            pass
        except KeyError as exc:  # an unknown name string, exit 1 in the CLI
            assert "unknown datum name" in str(exc), (parse.__name__, doc)


# Valid datum documents: named data by name and by their edges, every datum
# one legal mutation away from Tom, an empty and a rank-one datum.
TOM = named("Tom")
VALID_DATA = (
    [{"name": name} for name in ("Tom", "Jerry", "An(0)", "An(2)")]
    + [datum_to_obj(S) for S in (TOM, named("Jerry"), named("An(3)"))]
    + [datum_to_obj(mutate(TOM, j, k)) for j, k in legal_mutations(TOM)]
    + [{"edges": []}, {"edges": [{"e": [2, 0], "nu": [1, 1]}, {"e": [-2, 0], "nu": [2]}]}]
)
# The keys that validate --json and mutate --json print beside "edges".
PRINTED_KEYS = ("ok", "rank", "total_length", "canonical_class", "trace")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.sampled_from(VALID_DATA),
    st.dictionaries(st.sampled_from(PRINTED_KEYS), json_values, min_size=1),
)
def test_other_keys_leave_a_datum_document_unchanged(doc, extra):
    """So every datum document the CLI prints reads back as its datum."""
    assert datum_from_obj({**doc, **extra}) == datum_from_obj(doc)


# Polynomial text over the grammar's own characters, and any text at all.
grammar = st.sampled_from("xzu0123456789+-*/^ .")
poly_texts = st.text(grammar, max_size=24) | st.text(max_size=12)
coefficients = st.integers(-3, 3) | st.sampled_from(("1", "-2/3", "1/0", "1.5", "u"))
term = st.lists(coefficients | json_values, min_size=3, max_size=3) | json_values
polynomial = poly_texts | st.lists(term, max_size=3) | json_values
walls = st.lists(st.lists(polynomial, max_size=3) | json_values, max_size=3)
wall_documents = walls | st.fixed_dictionaries({"walls": walls}) | json_values


@settings(derandomize=True, deadline=None, max_examples=300)
@given(poly_texts)
def test_polynomial_text_parses_or_raises_a_value_error(text):
    try:
        parse_bipoly(text)
    except ValueError:
        pass


@settings(
    derandomize=True,
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(wall_documents)
def test_wall_documents_parse_or_raise(doc):
    try:
        WallAssignment.from_obj(doc)
    except (ValueError, LogMutError):
        pass

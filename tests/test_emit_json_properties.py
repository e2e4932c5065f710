"""Property test: the one-pass JSON writer of the CLI against the standard
library's encoder with sorted keys and indent 2
(``oracles.reference_emit_json``), byte for byte."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_emit_json

from toristack.cli import emit_json


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SAFE = 2 ** 53 - 1

integers = st.one_of(
    st.integers(-SAFE - 3, -SAFE + 3),
    st.integers(SAFE - 3, SAFE + 3),
    st.integers(-1000, 1000),
    st.integers(-10 ** 30, 10 ** 30),
)
fractions = st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 20))
texts = st.one_of(
    st.text(st.sampled_from('a1 "\\/\n\t\r\b\f\x00\x1f\x7f\x80é²  😀'), max_size=8),
    st.text(max_size=8),
)
scalars = st.one_of(integers, st.booleans(), st.none(), fractions, texts)
keys = st.one_of(texts, st.integers(-3, 12), st.booleans())
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(integers, max_size=5),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=30,
)


@PROPERTY
@given(values)
@example([])
@example({})
@example([[], {}, ()])
@example({1: "a", "1": "b", 10: [SAFE, SAFE + 1, -SAFE, -SAFE - 1]})
@example({"é": Fraction(-3, 4), "a b": [True, False, None, 0]})
@example([1, 2, True])
@example((1, (2, 3), [Fraction(1, 2)]))
def test_emit_json_matches_the_reference_encoder(value):
    assert emit_json(value) == reference_emit_json(value)


def test_emit_json_refuses_floats_and_sets():
    for value in (1.5, [1, 2.0], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            reference_emit_json(value)
        with pytest.raises(TypeError):
            emit_json(value)

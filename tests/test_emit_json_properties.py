"""Property test: the one-pass JSON writer of the CLI against the standard
library's encoder with sorted keys and indent 2
(``oracles.reference_emit_json``), byte for byte, on any value and on lists
of rows, which the writer writes element by element."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import built, json_text
from oracles import reference_emit_json

import toristack.cli
from toristack.cli import emit_json
from toristack.linalg import FiniteAbelianGroup


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SAFE = 2 ** 53 - 1

integers = st.one_of(
    st.integers(-SAFE - 3, -SAFE + 3),
    st.integers(SAFE - 3, SAFE + 3),
    st.integers(-1000, 1000),
    st.integers(-10 ** 30, 10 ** 30),
)
safe_integers = st.one_of(
    st.integers(-SAFE, -SAFE + 3),
    st.integers(SAFE - 3, SAFE),
    st.integers(-1000, 1000),
)
fractions = st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 20))
texts = st.one_of(
    st.text(st.sampled_from('a1 "\\/\n\t\r\b\f\x00\x1f\x7f\x80é²  😀'), max_size=8),
    st.text(max_size=8),
)
scalars = st.one_of(integers, st.booleans(), st.none(), fractions, texts)
keys = st.one_of(texts, st.integers(-3, 12), st.booleans())


def rows_of(entries, max_width=4):
    """Lists of rows of one width, a row each a list or a tuple."""
    return st.integers(0, max_width).flatmap(lambda width: st.lists(
        st.one_of(st.lists(entries, min_size=width, max_size=width),
                  st.lists(entries, min_size=width, max_size=width).map(tuple)),
        max_size=5))


# equal-length rows of ints inside the bound, of ints near it, of ints and
# bools, of Fractions, of Fractions and ints; ragged rows, empty ones
# included, as lists and as tuples of tuples
rows = st.one_of(
    rows_of(safe_integers),
    rows_of(integers),
    rows_of(st.one_of(integers, st.integers(-2, 2), st.booleans())),
    rows_of(fractions),
    rows_of(st.one_of(fractions, st.integers(-2, 2))),
    st.lists(st.lists(integers, max_size=4), max_size=5),
    st.lists(st.lists(integers, max_size=4).map(tuple), max_size=5).map(tuple),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(integers, max_size=5),
        rows,
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
    assert json_text(value) == reference_emit_json(value)


@PROPERTY
@given(st.one_of(rows, st.dictionaries(keys, rows, max_size=3), st.lists(rows, max_size=3)))
@example([[1, 2], [3, 4], [-5, 0]])                                  # equal length
@example([[1, 2], [3], []])                                          # ragged
@example([[], []])                                                   # empty rows
@example([[1, True], [0, 1]])                                        # a bool in an int row
@example([[True, False], [False, True]])
@example([[SAFE, -SAFE], [SAFE - 3, -SAFE + 3]])                     # at the bound
@example([[SAFE + 1, 0], [1, 2]])                                    # past it
@example([[0, -SAFE - 3], [SAFE + 3, 1]])
@example(((1, 2), (3, 4)))                                           # tuples of tuples
@example(([1, 2], (3, 4)))
@example([[Fraction(1, 2), Fraction(-3)], [Fraction(0), Fraction(5, 7)]])  # Fractions
@example([[Fraction(1, 2), 1], [2, Fraction(3, 4)]])
@example({"a": [[1, 2], [3, 4]], "b": {"c": ((SAFE, 1), (2, -SAFE))}})  # indented rows
def test_rows_match_the_reference_encoder(value):
    assert json_text(value) == reference_emit_json(value)


def written_with_calls(value, monkeypatch):
    """(text, the values _append_json was called on) of one emit_json."""
    calls = []
    write = toristack.cli._append_json
    monkeypatch.setattr(toristack.cli, "_append_json",
                        lambda v, out, nl: calls.append(v) or write(v, out, nl))
    return json_text(value), calls


@pytest.mark.parametrize("value", [[SAFE, -SAFE, 0], (-SAFE, 0, SAFE)])
def test_a_list_of_safe_ints_is_written_in_one_call(value, monkeypatch):
    # the one join reaches the bound itself
    text, calls = written_with_calls(value, monkeypatch)
    assert text == reference_emit_json(value)
    assert calls == [value]


@pytest.mark.parametrize("value", [
    [SAFE + 1, 0],
    [[-SAFE - 1, 0], [0, 1]],
    [[1, True], [0, 1]],
    [[1, 2], [3]],
    [[Fraction(1, 2), 1], [2, 3]],
])
def test_rows_past_the_bound_or_mixed_fall_back_to_the_recursion(value, monkeypatch):
    text, calls = written_with_calls(value, monkeypatch)
    assert text == reference_emit_json(value)
    assert len(calls) > 1


def test_emit_json_refuses_floats_and_sets():
    # refused before any byte is written: a value without _Entries is one write
    chunks = []
    for value in (1.5, [1, 2.0], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            reference_emit_json(value)
        with pytest.raises(TypeError, match="cannot serialize"):
            emit_json(value, chunks.append)
    # the writer dispatches on exact types: a named tuple passed by mistake,
    # such as a group, is refused rather than written as a list
    for value in (FiniteAbelianGroup((2,)), {"group": FiniteAbelianGroup(())}):
        with pytest.raises(TypeError, match="FiniteAbelianGroup"):
            emit_json(value, chunks.append)
    assert chunks == []


@pytest.mark.parametrize("size", [0, 3, toristack.cli._CHUNK + 1, 3 * toristack.cli._CHUNK])
def test_emit_json_writes_entries_as_their_built_list(size):
    # an _Entries is the JSON list of its entries, alone, in a dict and in a
    # list, below and past the pieces that flush a chunk: the short lists
    # are one write, and every chunk of a long one but the last ends with
    # one of its entries
    entries = toristack.cli._Entries(lambda: ({"i": i, "row": [i, -i]} for i in range(size)))
    listed = built(entries)
    assert len(listed) == size
    for value, expected in ((entries, listed), ({"list": entries}, {"list": listed}),
                            ([entries], [listed])):
        chunks = []
        emit_json(value, chunks.append)
        assert "".join(chunks) == json_text(expected) == reference_emit_json(expected)
        assert (len(chunks) == 1) == (size <= 3)
        assert all(chunk.endswith("}") for chunk in chunks[:-1])

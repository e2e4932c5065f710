"""Property tests: the Smith normal form with its transforms against sympy's
Smith normal form, and the Hermite normal form with its transform and its
uniqueness on the row lattice."""

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from oracles import det

from toristack.linalg import IntegerMatrix, hermite_normal_form, smith_normal_form


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw, bound=9):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.integers(-bound, bound)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))


@st.composite
def unimodular(draw, n):
    """A product of random row swaps, sign changes and row additions."""
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["swap", "negate", "add"]))
        if kind == "swap":
            w[i], w[j] = w[j], w[i]
        elif kind == "negate":
            w[i] = [-x for x in w[i]]
        elif i != j:
            k = draw(st.integers(-3, 3))
            w[i] = [a + k * b for a, b in zip(w[i], w[j])]
    return w


def product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@PROPERTY
@given(matrices())
@example([[0, 0], [0, 0]])
@example([[2, 4], [6, 8]])
@example([[0, 0, 0], [0, 0, 3]])
def test_smith_normal_form_against_sympy(rows):
    a = IntegerMatrix.from_rows(rows)
    s, u, v = smith_normal_form(a)
    m, n = a.rows, a.cols
    assert product(product(u.row_list(), rows), v.row_list()) == s.row_list()
    assert all(s.entry(i, j) == 0 for i in range(m) for j in range(n) if i != j)
    diag = [s.entry(i, i) for i in range(min(m, n))]
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    assert abs(det(u.row_list())) == 1 and abs(det(v.row_list())) == 1
    expected = sympy_smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    assert diag == [abs(int(expected[i, i])) for i in range(min(m, n))]


@PROPERTY
@given(st.data())
def test_hermite_normal_form_is_unique_on_the_row_lattice(data):
    rows = data.draw(matrices())
    a = IntegerMatrix.from_rows(rows)
    h, u = hermite_normal_form(a)
    assert product(u.row_list(), rows) == h.row_list()
    assert abs(det(u.row_list())) == 1
    # echelon form: positive pivots, entries above each pivot in [0, pivot)
    pivots = [next((j for j, x in enumerate(h.row(i)) if x), None) for i in range(h.rows)]
    nonzero = [p for p in pivots if p is not None]
    assert pivots[:len(nonzero)] == nonzero and nonzero == sorted(set(nonzero))
    for i, p in enumerate(nonzero):
        assert h.entry(i, p) > 0
        assert all(0 <= h.entry(k, p) < h.entry(i, p) for k in range(i))
    w = data.draw(unimodular(a.rows))
    assert hermite_normal_form(IntegerMatrix.from_rows(product(w, rows)))[0] == h

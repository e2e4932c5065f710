"""Property tests: the Smith normal form with its transforms against sympy's
Smith normal form (and the diagonal-only elimination and cokernel with it),
the Hermite normal form with its transform and its uniqueness on the row
lattice (and the elimination without U with it), the fraction-free
unimodular inverse against sympy's inverse, the normal-form-free
splitting of a full-dimensional cone against the generic one, and
coordinates in a saturated Hermite basis read by substitution."""

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from oracles import det, rank

from toristack.charts import split_cone
from toristack.linalg import (
    complete_to_basis,
    echelon_coordinates,
    hermite_elimination,
    hermite_normal_form,
    invert_unimodular,
    primitive_vector,
    quotient_invariants,
    saturate,
    smith_elimination,
    smith_normal_form,
)


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
    s, u, v = smith_normal_form(rows)
    m, n = len(rows), len(rows[0])
    assert product(product(u, rows), v) == s
    assert all(s[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [s[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    expected = sympy_smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    assert diag == [abs(int(expected[i, i])) for i in range(min(m, n))]
    # without transforms: the same diagonal, on the matrix and its transpose
    assert smith_elimination([list(r) for r in rows]) == diag
    assert smith_elimination([list(c) for c in zip(*rows)]) == diag
    group = quotient_invariants(list(zip(*rows)), m)
    assert group.invariant_factors == tuple(x for x in diag if x > 1)
    assert group.free_rank == m - sum(1 for x in diag if x)


@PROPERTY
@given(st.data())
def test_hermite_normal_form_is_unique_on_the_row_lattice(data):
    rows = data.draw(matrices())
    h, u = hermite_normal_form(rows)
    assert product(u, rows) == h
    assert abs(det(u)) == 1
    # echelon form: positive pivots, entries above each pivot in [0, pivot)
    pivots = [next((j for j, x in enumerate(row) if x), None) for row in h]
    nonzero = [p for p in pivots if p is not None]
    assert pivots[:len(nonzero)] == nonzero and nonzero == sorted(set(nonzero))
    for i, p in enumerate(nonzero):
        assert h[i][p] > 0
        assert all(0 <= h[k][p] < h[i][p] for k in range(i))
    w = data.draw(unimodular(len(rows)))
    assert hermite_normal_form(product(w, rows))[0] == h
    # without U: the same H
    without_u = [list(r) for r in rows]
    hermite_elimination(without_u)
    assert without_u == h


@PROPERTY
@given(st.data())
def test_unimodular_inverse_against_sympy(data):
    n = data.draw(st.integers(1, 6))
    w = data.draw(unimodular(n))
    inverse = invert_unimodular(w)
    assert product(inverse, w) == [[int(i == j) for j in range(n)] for i in range(n)]
    assert inverse == sympy.Matrix(w).inv().tolist()


@PROPERTY
@given(st.data())
def test_unimodular_inverse_refuses_every_other_matrix(data):
    kind = data.draw(st.sampled_from(["non-square", "singular", "det 2"]))
    if kind == "non-square":
        rows = data.draw(matrices())
        assume(len(rows) != len(rows[0]))
    else:
        n = data.draw(st.integers(1, 6))
        rows = data.draw(unimodular(n))
        if kind == "singular":
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            k = data.draw(st.integers(-3, 3))
            rows[i] = [k * x for x in rows[j]] if i != j else [0] * n
        else:
            rows = product(rows, [[(2 if i == j == 0 else int(i == j)) for j in range(n)]
                                  for i in range(n)])
    with pytest.raises(ValueError, match="^matrix is not unimodular$"):
        invert_unimodular(rows)


@PROPERTY
@given(st.data())
def test_full_dimensional_split_matches_the_generic_splitting(data):
    d = data.draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    rays = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d).filter(any),
                              min_size=d, max_size=d))
    assume(det(rays) != 0)
    rays = [primitive_vector(r) for r in rays]
    n_prime = saturate(rays)
    assert split_cone(rays, d) == (n_prime, complete_to_basis(n_prime, d))


@PROPERTY
@given(matrices(), st.data())
def test_echelon_coordinates_rebuild_or_raise(rows, data):
    # a combination of the saturated basis has its coefficients as
    # coordinates; a unit vector outside the span raises
    assume(any(map(any, rows)))
    basis = saturate(rows)
    d = len(rows[0])
    coefficients = data.draw(st.lists(st.integers(-5, 5), min_size=len(basis),
                                      max_size=len(basis)))
    v = [sum(c * row[j] for c, row in zip(coefficients, basis)) for j in range(d)]
    assert echelon_coordinates([v], basis) == [tuple(coefficients)]
    for j in range(d):
        e = [int(i == j) for i in range(d)]
        if rank(basis + [e]) == len(basis):
            [x] = echelon_coordinates([e], basis)
            assert [sum(c * row[i] for c, row in zip(x, basis)) for i in range(d)] == e
        else:
            with pytest.raises(AssertionError, match="ray escapes the saturated span"):
                echelon_coordinates([e], basis)

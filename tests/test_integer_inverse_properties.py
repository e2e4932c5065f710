"""Property tests: the fraction-free integer inverse against sympy's exact
inverse, and the Hilbert basis built on it against the box oracle."""

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import box_hilbert_basis

from toristack.cones import Cone, dual_cone
from toristack.linalg import integer_inverse, integer_solve
from toristack.monoids import hilbert_basis


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def square_matrices(draw, bound):
    n = draw(st.integers(1, 6))
    entry = st.integers(-bound, bound)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@pytest.mark.parametrize("bound", [7, 10**6])
@PROPERTY
@given(data=st.data())
def test_integer_inverse_matches_sympy(bound, data):
    rows = data.draw(square_matrices(bound))
    a = sympy.Matrix(rows)
    det = a.det()
    assume(det != 0)
    m, q = integer_inverse(rows)
    assert q == abs(det)
    assert sympy.Matrix(m) / q == a.inv()
    # the solve helper: integral exactly where A^-1 b is
    b = [sum(row) for row in rows]  # A (1, ..., 1)
    assert integer_solve((m, q), b) == (1,) * len(rows)
    e = [int(i == 0) for i in range(len(rows))]
    column = a.inv()[:, 0]
    expected = tuple(int(x) for x in column) if all(x.is_integer for x in column) else None
    assert integer_solve((m, q), e) == expected


@PROPERTY
@given(rows=square_matrices(7), coeffs=st.lists(st.integers(-3, 3), min_size=5, max_size=5))
@example(rows=[[0]], coeffs=[0] * 5)
def test_integer_inverse_rejects_singular(rows, coeffs):
    # the last row becomes an integer combination of the others
    rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows[:-1])) for j in range(len(rows))]
    with pytest.raises(ValueError, match="singular"):
        integer_inverse(rows)


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 30))
@example(m=1)
@example(m=30)
def test_hilbert_basis_of_dual_matches_box_oracle(m):
    # sigma = <e1, e2, (1, 1, m)>; its dual has m^2 parallelepiped points
    dual = dual_cone(Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, m)], 3))
    assert hilbert_basis(dual) == box_hilbert_basis(dual.rays, 3)

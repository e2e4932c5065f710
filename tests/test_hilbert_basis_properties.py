"""Property tests against box enumeration: the Hirzebruch-Jung Hilbert
basis of a 2-cone, for cones in the plane (both ray orders, both
orientations) and for 2-cones inside rank 3-4, which reach it through the
lower-dimensional branch of ``hilbert_basis``; and the parallelepiped walk
of full-dimensional cones in rank 3-5, in any order of the rays."""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import basis_coordinates, box_hilbert_basis

from toristack.cones import Cone
from toristack.linalg import saturate
from toristack.monoids import _hilbert_basis_full, hilbert_basis


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def det2(u, w):
    return u[0] * w[1] - u[1] * w[0]


@st.composite
def primitive_pairs(draw, bound=20, max_det=300):
    """Primitive u, w in Z^2 with 0 < |det(u, w)| <= max_det."""
    entry = st.integers(-bound, bound)
    u = draw(st.tuples(entry, entry))
    w = draw(st.tuples(entry, entry))
    assume(math.gcd(*u) == 1 and math.gcd(*w) == 1)
    assume(0 < abs(det2(u, w)) <= max_det)
    return u, w


@st.composite
def plane_cones_in_space(draw, bound=6):
    """Two independent primitive vectors in Z^3 or Z^4."""
    d = draw(st.integers(3, 4))
    entry = st.integers(-bound, bound)
    gens = [tuple(draw(st.lists(entry, min_size=d, max_size=d))) for _ in range(2)]
    assume(all(math.gcd(*g) == 1 for g in gens))
    assume(any(gens[0][i] * gens[1][j] != gens[0][j] * gens[1][i]
               for i in range(d) for j in range(i + 1, d)))
    return gens, d


@st.composite
def full_cones(draw, max_box=8000):
    """d primitive rays spanning Z^d up to finite index, d = 3-5: the rows of
    a lower triangular matrix with diagonal 1-5, made primitive, under a
    signed permutation of the coordinates, so that box enumeration sweeps at
    most ``max_box`` points."""
    d = draw(st.integers(3, 5))
    rows = [[draw(st.sampled_from((0, 0, 1, -1, 2, -3))) for _ in range(i)]
            + [draw(st.integers(1, 5))] + [0] * (d - 1 - i) for i in range(d)]
    rows = [[x // math.gcd(*row) for x in row] for row in rows]
    order = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    rays = [tuple(s * row[k] for s, k in zip(signs, order)) for row in rows]
    assume(math.prod(sum(abs(r[j]) for r in rays) + 1 for j in range(d)) <= max_box)
    return draw(st.permutations(rays)), d


@PROPERTY
@given(full_cones())
@example(([(1, 0, 0), (1, 2, 0), (1, 0, 2)], 3))  # Z/2 x Z/2, three residues of degree 4
@example(([(1, 0, 0), (0, 1, 0), (2, 3, 6)], 3))  # two residues of degree 8, one reducible
# taken in the order built, the reversed rays keep (2, 1, 1) = (1, 0, 1) + (1, 1, 0)
@example(([(1, 0, 0), (1, 3, 0), (1, -3, 2)], 3))
@example(([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 6)], 4))
@example(([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 2, 0, 0), (0, 1, 0, 2, 0),
           (1, 0, 1, 1, 2)], 5))  # Z/2 x Z/4
def test_full_hilbert_basis_matches_box_oracle(case):
    rays, d = case
    expected = box_hilbert_basis(rays, d)
    assert _hilbert_basis_full(rays, d) == expected
    assert _hilbert_basis_full(rays[::-1], d) == expected


def mirror(v):
    return (-v[0], v[1])


@PROPERTY
@given(primitive_pairs())
@example(((1, 0), (1, 300)))
@example(((0, 1), (300, -1)))
@example(((1, 0), (17, 18)))
@example(((1, 0), (0, 1)))
@example(((3, -2), (-1, 1)))
def test_plane_hilbert_basis_matches_box_oracle(pair):
    u, w = pair
    expected = box_hilbert_basis([u, w], 2)
    mirrored = sorted(mirror(h) for h in expected)
    assert _hilbert_basis_full([u, w], 2) == expected
    assert _hilbert_basis_full([w, u], 2) == expected
    assert _hilbert_basis_full([mirror(u), mirror(w)], 2) == mirrored
    assert _hilbert_basis_full([mirror(w), mirror(u)], 2) == mirrored


@PROPERTY
@given(plane_cones_in_space())
@example(([(1, 0, 0), (1, 2, 0)], 3))
@example(([(1, 1, 0, 0), (1, -1, 0, 2)], 4))
def test_plane_cone_in_higher_rank_matches_lifted_oracle(case):
    gens, d = case
    c = Cone.from_generators(gens, d)
    assert c.dim == 2
    span = saturate(list(c.rays))
    local = [basis_coordinates(span, v) for v in c.rays]
    expected = sorted(tuple(sum(x * b[j] for x, b in zip(h, span)) for j in range(d))
                      for h in box_hilbert_basis(local, 2))
    assert hilbert_basis(c) == expected


def test_non_primitive_ray_is_a_tripwire():
    with pytest.raises(AssertionError, match="not primitive"):
        _hilbert_basis_full([(1, 0), (2, 4)], 2)
    with pytest.raises(AssertionError, match="not primitive"):
        _hilbert_basis_full([(0, 3), (1, 1)], 2)
    # in rank 3 no reduction would drop (2, 0, 0): nothing lies below a ray
    with pytest.raises(AssertionError, match="not primitive"):
        _hilbert_basis_full([(2, 0, 0), (0, 1, 0), (1, 1, 3)], 3)
    with pytest.raises(AssertionError, match="not primitive"):
        _hilbert_basis_full([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (2, 2, 2, 4)], 4)

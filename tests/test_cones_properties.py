"""Property tests: the one-pass simplicial path and the pairwise check
(separating certificate, then circuit sign test) against the generic
two-pass construction and the exact intersection."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toristack.cones import (
    Cone,
    _hcone_generators,
    dual_cone,
    intersect,
)
from toristack.linalg import IntegerMatrix, primitive_vector, smith_normal_form
from toristack.stackyfan import IntersectionNotFace, validate_fan


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def independent_generators(draw, max_rank=5, bound=6):
    """Linearly independent primitive vectors: r of them in Z^d, 1 <= r <= d."""
    d = draw(st.integers(1, max_rank))
    r = draw(st.integers(1, d))
    entry = st.integers(-bound, bound)
    gens = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=r, max_size=r))
    assume(all(any(g) for g in gens))
    gens = [primitive_vector(g) for g in gens]
    s, _, _ = smith_normal_form(IntegerMatrix.from_rows(gens))
    assume(all(s.entry(i, i) != 0 for i in range(r)))
    return gens, d


def generic_record(gens, d):
    """(rays, lineality, dim, dual_rays, dual_lineality) by two tight-subset passes."""
    dual_p, dual_l = _hcone_generators(gens, d)
    ineqs = list(dual_p) + list(dual_l) + [tuple(-x for x in v) for v in dual_l]
    rays_, lin = _hcone_generators(ineqs, d)
    return tuple(rays_), tuple(lin), d - len(dual_l), tuple(dual_p), tuple(dual_l)


def record(c):
    return c.rays, c.lineality, c.dim, c.dual_rays, c.dual_lineality


@PROPERTY
@given(independent_generators())
@example(([(1, 0), (1, 2)], 2))
@example(([(1, 1, 0), (1, -1, 0)], 3))
def test_simplicial_path_matches_double_description(drawn):
    gens, d = drawn
    c = Cone.from_generators(gens, d)
    assert record(c) == generic_record(gens, d)
    assert c.rays == tuple(sorted(set(gens))) and c.dim == len(gens)
    dual_generators = list(c.dual_rays) + list(c.dual_lineality) + [
        tuple(-x for x in v) for v in c.dual_lineality]
    assert record(dual_cone(c)) == generic_record(dual_generators, d)


@st.composite
def simplicial_pairs(draw, bound=3):
    """Two simplicial cones, neither inside the other, on a shared pool of rays."""
    d = draw(st.integers(2, 5))
    pool = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=d, max_size=d)
                         .filter(any).map(primitive_vector),
                         min_size=d, max_size=d + 3, unique=True))
    index = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=d, unique=True)
    c1, c2 = sorted(draw(index)), sorted(draw(index))
    assume(not set(c1) <= set(c2) and not set(c2) <= set(c1))
    for c in (c1, c2):
        s, _, _ = smith_normal_form(IntegerMatrix.from_rows([pool[i] for i in c]))
        assume(all(s.entry(i, i) != 0 for i in range(len(c))))
    return pool, c1, c2


@PROPERTY
@given(simplicial_pairs())
@example(([(1, 0), (0, 1), (1, 2)], [0, 1], [0, 2]))  # overlapping along (1, 0)
@example(([(1, 0), (0, 1), (-1, 0)], [0, 1], [1, 2]))  # meeting in a wall
@example(([(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 1, -1)], [0, 1], [2, 3]))  # crossing
# relation spaces of the union of rays of dimension 2, 3 and 4, each overlapping and not
@example(([(1, 0), (0, 1), (1, 1), (-1, 2)], [0, 1], [2, 3]))
@example(([(1, 0), (0, 1), (-1, 1), (-1, -1)], [0, 1], [2, 3]))
@example(([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (-1, 1, 1), (1, -1, 1)],
          [0, 1, 2], [3, 4, 5]))
@example(([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)],
          [0, 1, 2], [3, 4, 5]))
@example(([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1), (-1, 1, 1, 1)],
          [0, 1, 2, 3], [4, 5, 6, 7]))
@example(([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)],
          [0, 1, 2, 3], [4, 5, 6, 7]))
def test_pairwise_verdict_matches_exact_intersection(drawn):
    pool, c1, c2 = drawn
    d = len(pool[0])
    shared = [pool[i] for i in sorted(set(c1) & set(c2))]
    exact = intersect(Cone.from_generators([pool[i] for i in c1], d),
                      Cone.from_generators([pool[i] for i in c2], d)) == \
        Cone.from_generators(shared, d)
    try:
        validate_fan(pool, [c1, c2], d)
        verdict = True
    except IntersectionNotFace as e:
        assert set(e.cone_pair) == {tuple(c1), tuple(c2)}
        verdict = False
    assert verdict == exact

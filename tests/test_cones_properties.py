"""Property tests: the simplicial cone against a tight-subset oracle, the
pairing of each cone's dual rays with its rays, and the pairwise check
(separating certificate, then circuit sign test) and ``intersect`` against
the pairwise fan-validation oracle."""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import paired_by_position, pairwise_validate_fan, rank, tight_subset_rays
from test_validate_properties import drawn_stacky_fans

from toristack.charts import local_chart
from toristack.cones import Cone, dual_cone, intersect
from toristack.linalg import primitive_vector, smith_normal_form
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
    s, _, _ = smith_normal_form(gens)
    assume(all(s[i][i] != 0 for i in range(r)))
    return gens, d


def pairing(u, v):
    return sum(a * b for a, b in zip(u, v))


@PROPERTY
@given(independent_generators())
@example(([(1, 0), (1, 2)], 2))
@example(([(1, 1, 0), (1, -1, 0)], 3))
def test_simplicial_path_matches_double_description(drawn):
    gens, d = drawn
    c = Cone.from_generators(gens, d)
    assert c.rays == tuple(sorted(set(gens))) and c.dim == len(gens)
    assert c.lineality == ()
    assert dual_cone(dual_cone(c)) == c
    if len(gens) == d:
        # both descriptions are canonical: the double description of the oracle
        dual_rays = tight_subset_rays(gens, d)
        assert sorted(c.dual_rays) == dual_rays and c.dual_lineality == ()
        assert list(c.rays) == tight_subset_rays(dual_rays, d)
        return
    # below full dimension the dual rays are fixed up to the dual lineality:
    # check what defines them
    positive_on = []
    for m in c.dual_rays:
        assert math.gcd(*m) == 1
        signs = [pairing(m, g) for g in gens]
        assert all(s >= 0 for s in signs)
        [j] = [j for j, s in enumerate(signs) if s]
        positive_on.append(j)
    assert sorted(positive_on) == list(range(len(gens)))
    assert rank(c.dual_lineality) == len(c.dual_lineality) == d - len(gens)
    assert all(pairing(v, g) == 0 for v in c.dual_lineality for g in gens)
    # the representatives are the ones in the span of the generators
    assert all(pairing(m, v) == 0 for m in c.dual_rays for v in c.dual_lineality)


@PROPERTY
@given(independent_generators())
@example(([(1, 2), (1, 0)], 2))
@example(([(1, 1, 0), (1, -1, 0)], 3))
def test_every_cone_pairs_each_dual_ray_with_its_ray(drawn):
    gens, d = drawn
    c = Cone.from_generators(gens, d)
    assert paired_by_position(c)
    assert paired_by_position(dual_cone(c))


def test_fan_and_chart_cones_pair_each_dual_ray_with_its_ray():
    # each maximal cone and the face without its first ray, in ranks 2-5:
    # the cone ``Fan.build_cone`` stores from the fan's dual rows, its dual,
    # and the chart's C(P), whose dual rays are the cone's rays in N'
    drawn = drawn_stacky_fans(40)
    assert {doc.rank for doc, _ in drawn} == {2, 3, 4, 5}
    for _, sf in drawn:
        for m in sf.fan.maximal_cones:
            for key in {m, m[1:] or m}:
                c = sf.fan.build_cone(key)
                assert paired_by_position(c)
                assert paired_by_position(dual_cone(c))
                assert paired_by_position(local_chart(sf, key).defining_cone)


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
        s, _, _ = smith_normal_form([pool[i] for i in c])
        assume(all(s[i][i] != 0 for i in range(len(c))))
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
    error, detail = pairwise_validate_fan(pool, [c1, c2], d)
    assert error in (None, "IntersectionNotFace")
    try:
        validate_fan(pool, [c1, c2], d)
        verdict = True
    except IntersectionNotFace as e:
        assert set(e.cone_pair) == {tuple(c1), tuple(c2)} == set(detail)
        verdict = False
    assert verdict == (error is None)
    cone1, cone2 = (Cone.from_generators([pool[i] for i in c], d) for c in (c1, c2))
    if verdict:
        shared = [pool[i] for i in sorted(set(c1) & set(c2))]
        assert intersect(cone1, cone2) == Cone.from_generators(shared, d)
    else:
        with pytest.raises(ValueError):
            intersect(cone1, cone2)

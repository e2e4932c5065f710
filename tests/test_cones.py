import random
from fractions import Fraction

from oracles import fm_cone_contains, rank

from toristack.cones import (
    Cone,
    contains,
    dual_cone,
    intersect,
    is_simplicial,
    ray_star,
)
from toristack.charts import local_chart
from toristack.linalg import smith_normal_form
from toristack.stackyfan import StackyFan, validate_fan

import pytest


def cone(*gens, rank=None):
    rank = rank if rank is not None else len(gens[0])
    return Cone.from_generators(gens, rank)


def test_rays_first_orthant():
    assert cone((1, 0), (0, 1)).rays == ((0, 1), (1, 0))


def test_rays_drops_interior_generators():
    # (2,0) and (0,4) rescale to the axes and a repeated multiple counts once ...
    assert cone((2, 0), (0, 4), (0, 1)).rays == ((0, 1), (1, 0))
    # ... but an interior generator, (1,2) = (1,0) + 2*(0,1), is refused
    # rather than dropped: the generators of a Cone are its rays
    with pytest.raises(ValueError, match="linearly dependent"):
        cone((2, 0), (1, 2), (0, 4))


def test_rays_single_generator():
    assert cone((1, 2)).rays == ((1, 2),)


@pytest.mark.parametrize("rational, integral", [
    # independent generators: they are the rays
    ([(Fraction(1, 2), Fraction(1, 3)), (Fraction(-2, 5), 1)], [(3, 2), (-2, 5)]),
    ([(0, Fraction(7, 3), Fraction(-7, 2))], [(0, 2, -3)]),
    ([(Fraction(1, 2), 0, 0), (Fraction(1, 4), Fraction(1, 4), 0), (0, 0, Fraction(-5, 3))],
     [(1, 0, 0), (1, 1, 0), (0, 0, -1)]),
])
def test_fraction_generators_match_integer_multiples(rational, integral):
    rank = len(integral[0])
    a, b = Cone.from_generators(rational, rank), Cone.from_generators(integral, rank)
    assert a == b
    assert (a.dim, a.dual_rays, a.dual_lineality) == (b.dim, b.dual_rays, b.dual_lineality)


def test_dual_first_orthant_self_dual():
    assert dual_cone(cone((1, 0), (0, 1))).rays == ((0, 1), (1, 0))


def test_dual_spec_example():
    c = cone((1, 0), (1, 2))
    d = dual_cone(c)
    assert d.rays == ((0, 1), (2, -1))
    for m in d.rays:
        for u in c.rays:
            assert m[0] * u[0] + m[1] * u[1] >= 0
    assert dual_cone(d).rays == c.rays


def test_dual_of_ray_is_flagged_halfplane():
    d = dual_cone(cone((1, 0), rank=2))
    assert not d.strictly_convex
    assert (d.rays, d.lineality) == (((1, 0),), ((0, 1),))


def test_is_simplicial():
    assert is_simplicial(cone((1, 0), (1, 2)))
    assert is_simplicial(cone((1, 1, 0), (1, -1, 0)))
    # the dual of a ray is a half-plane: not strictly convex
    assert not is_simplicial(dual_cone(cone((1, 0), rank=2)))


def test_dependent_generators_raise():
    # zero generators are dropped and positive multiples count once ...
    assert cone((2, 0), (0, 0), (0, 4), (0, 1)).rays == ((0, 1), (1, 0))
    # ... but what is left must be linearly independent
    dependent = [
        [(1, 0), (0, 1), (1, 1)],
        [(2, 0), (1, 2), (0, 4)],  # (1,2) = (1,0) + 2*(0,1) is interior
        [(Fraction(1, 2), 0), (Fraction(1, 4), Fraction(1, 4)), (0, Fraction(-5, 3))],
        [(1, 0), (-1, 0)],  # a line
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],  # the cone over a square
        [(1, 0, 0), (0, 1, 0), (1, 1, 0)],  # dependent, below full dimension
    ]
    for gens in dependent:
        with pytest.raises(ValueError, match="linearly dependent"):
            Cone.from_generators(gens, len(gens[0]))


def test_more_rays_than_the_rank_are_rejected_before_any_inverse(monkeypatch):
    # d + 1 rays are dependent whatever they are: no Gram matrix is built,
    # not even for thousands of listed rays
    import toristack.cones as cones_mod

    def fail(rows):
        raise AssertionError("integer_inverse called")

    monkeypatch.setattr(cones_mod, "integer_inverse", fail)
    for gens, d in [([(1,), (-1,)], 1), ([(1, 0), (0, 1), (1, 1)], 2),
                    ([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], 3),
                    ([(1, k) for k in range(3000)], 2)]:
        with pytest.raises(ValueError, match="linearly dependent"):
            cones_mod.dual_rows(gens, d)


def test_contains_solves_exactly():
    c = cone((1, 0), (1, 2))
    assert contains(c, (1, 1))  # = 1/2 (1,0) + 1/2 (1,2)
    assert not contains(c, (-1, 0))
    with pytest.raises(ValueError):
        contains(c, (1, 0, 0))


def test_intersect_shared_face():
    i = intersect(cone((1, 0), (0, 1)), cone((0, 1), (-1, 0)))
    assert i.rays == ((0, 1),)
    orthant = cone((1, 0), (0, 1))
    assert intersect(orthant, cone((1, 0), rank=2)) == cone((1, 0), rank=2)
    assert intersect(cone((1, 0), rank=2), cone((-1, 0), rank=2)).is_zero
    with pytest.raises(ValueError, match="overlap"):
        intersect(orthant, cone((1, 0), (1, 2)))
    with pytest.raises(ValueError, match="overlap"):
        intersect(orthant, cone((1, 1), rank=2))


def chart_multiplicity(rays):
    """The multiplicity of the cone on primitive rays, read off its chart."""
    sf = StackyFan.build(validate_fan(rays, [range(len(rays))]), {})
    return local_chart(sf, range(len(rays))).multiplicity


def test_multiplicity_examples():
    assert chart_multiplicity([(1, 0), (0, 1)]) == 1
    assert chart_multiplicity([(1, 0), (1, 2)]) == 2
    assert chart_multiplicity([(1, 1, 0), (1, -1, 0)]) == 2


def test_ray_star_standard_basis():
    c = cone((1, 0), (0, 1))
    assert ray_star(c, (1, 0)) == (1, 0)
    assert ray_star(c, (0, 1)) == (0, 1)


def test_ray_star_spec_example():
    c = cone((1, 0), (1, 2))
    assert ray_star(c, (1, 0)) == (2, -1)
    assert ray_star(c, (1, 2)) == (0, 1)
    with pytest.raises(ValueError):
        ray_star(c, (1, 1))
    with pytest.raises(ValueError):
        ray_star(cone((1, 1, 0), (1, -1, 0)), (1, 1, 0))


def independent_generators(rng, d, n, bound):
    """n linearly independent integer vectors in Z^d, by rejection."""
    while True:
        gens = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(n)]
        if rank(gens) == n:
            return gens


def test_double_dual_random():
    rng = random.Random(101)
    for _ in range(120):
        d = rng.randint(1, 3)
        c = Cone.from_generators(independent_generators(rng, d, rng.randint(1, d), 5), d)
        assert dual_cone(dual_cone(c)).rays == c.rays


def test_contains_matches_fm_oracle():
    rng = random.Random(303)
    checked = 0
    for _ in range(80):
        d = rng.randint(1, 3)
        gens = independent_generators(rng, d, rng.randint(1, d), 4)
        c = Cone.from_generators(gens, d)
        for _ in range(6):
            v = [rng.randint(-6, 6) for _ in range(d)]
            assert contains(c, v) == fm_cone_contains(gens, v), (gens, v)
            checked += 1
    assert checked > 100


def test_ray_star_is_bijection_random():
    rng = random.Random(77)
    from conftest import random_full_cone_rays
    for _ in range(60):
        d = rng.randint(1, 3)
        c = Cone.from_generators(random_full_cone_rays(rng, d), d)
        stars = [ray_star(c, r) for r in c.rays]
        assert len(set(stars)) == len(c.rays)
        assert set(stars) == set(dual_cone(c).rays)


def test_multiplicity_one_iff_unimodular_extension():
    # mult = 1 exactly when the primitive rays extend to a lattice basis of
    # the saturated span, i.e. their SNF diagonal is all ones
    rng = random.Random(55)
    from conftest import random_full_cone_rays
    for _ in range(60):
        d = rng.randint(1, 3)
        ray_list = random_full_cone_rays(rng, d)
        c = Cone.from_generators(ray_list, d)
        s, _, _ = smith_normal_form(c.rays)
        ones = all(s[i][i] == 1 for i in range(len(c.rays)))
        assert (chart_multiplicity(c.rays) == 1) == ones

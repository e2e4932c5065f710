import math
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, permutations

from conftest import random_full_cone_rays
from oracles import (
    box_hilbert_basis,
    box_quotient_verdict,
    box_saturation_check,
    generator_coordinates,
    irreducible_elements,
    multiplicity,
    solve_square,
)

from toristack.cones import Cone, contains, dual_cone
from toristack.linalg import FiniteAbelianGroup
from toristack.monoids import (
    AffineMonoid,
    FreeResolution,
    NotCloseError,
    NotSaturatedError,
    admissible_resolution,
    hilbert_basis,
    irreducible_ray_correspondence,
    minimal_free_resolution,
    quotient_group,
    resolution_cokernel,
    restrict_resolution,
    saturation_intersection_check,
)

import pytest


def sigma(*gens):
    return Cone.from_generators(gens, len(gens[0]))


def monoid_of(c):
    """The monoid of the dual cone of c: its lattice points in M."""
    return AffineMonoid.from_dual_cone(dual_cone(c))


def frac(a, b=1):
    return Fraction(a, b)


# -- monoids of dual cones / hilbert_basis -------------------------------

def test_monoid_first_orthant():
    p = monoid_of(sigma((1, 0), (0, 1)))
    assert p.hilbert_basis == ((0, 1), (1, 0))
    assert p.sharp


def test_monoid_a1_cone():
    p = monoid_of(sigma((1, 0), (1, 2)))
    assert p.hilbert_basis == ((0, 1), (1, 0), (2, -1))


def test_monoid_1_3_cone_matches_oracle():
    # frozen from the box-enumeration oracle; (2,-1) pairs to -1 against
    # (1,3), so the dual cone{(0,1),(3,-1)} has basis {(0,1),(1,0),(3,-1)}
    p = monoid_of(sigma((1, 0), (1, 3)))
    assert p.defining_cone.rays == ((0, 1), (3, -1))
    oracle = box_hilbert_basis([(0, 1), (3, -1)], 2)
    assert list(p.hilbert_basis) == oracle == [(0, 1), (1, 0), (3, -1)]


def test_monoid_rejects_non_simplicial():
    # the half-plane dual to a ray is a Cone that is not strictly convex
    half_plane = dual_cone(Cone.from_generators([(1, 0)], 2))
    with pytest.raises(ValueError, match="simplicial"):
        hilbert_basis(half_plane)
    # the cone over a square cannot be built at all
    with pytest.raises(ValueError, match="linearly dependent"):
        Cone.from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)


def test_hilbert_basis_examples():
    assert hilbert_basis(sigma((1, 0), (0, 1))) == [(0, 1), (1, 0)]
    assert hilbert_basis(sigma((0, 1), (2, -1))) == [(0, 1), (1, 0), (2, -1)]
    assert hilbert_basis(sigma((1, 1), (1, -1))) == [(1, -1), (1, 0), (1, 1)]


def test_hilbert_basis_lower_dimensional():
    got = hilbert_basis(sigma((1, 1, 0), (1, -1, 0)))
    assert got == [(1, -1, 0), (1, 0, 0), (1, 1, 0)]


def test_hilbert_basis_matches_oracle_random():
    rng = random.Random(2024)
    cases = []
    for _ in range(25):
        cases.append(random_full_cone_rays(rng, rng.randint(1, 2), bound=5))
    for _ in range(8):
        cases.append(random_full_cone_rays(rng, 3, bound=3))
    for ray_list in cases:
        d = len(ray_list[0])
        c = Cone.from_generators(ray_list, d)
        assert hilbert_basis(c) == box_hilbert_basis(c.rays, d)


def det2(u, w):
    return u[0] * w[1] - u[1] * w[0]


def test_plane_hilbert_basis_long_continued_fraction():
    # a 2-dimensional Hilbert basis, in order along the cone, is u_0, ...,
    # u_(s+1) from ray to ray with det(u_i, u_(i+1)) = 1 (up to orientation)
    # and u_(i-1) + u_(i+1) = a_i u_i, a_i >= 2
    m = 10 ** 4
    c = dual_cone(sigma((1, 0), (m, m + 1)))
    u, w = c.rays
    sign = 1 if det2(u, w) > 0 else -1
    basis = sorted(hilbert_basis(c), key=cmp_to_key(lambda a, b: -sign * det2(a, b)))
    assert len(basis) == m + 2
    assert (basis[0], basis[-1]) == (u, w)
    assert all(det2(a, b) == sign for a, b in zip(basis, basis[1:]))
    for before, h, after in zip(basis, basis[1:], basis[2:]):
        total = (before[0] + after[0], before[1] + after[1])
        j = 0 if h[0] else 1
        a, rem = divmod(total[j], h[j])
        assert rem == 0 and a >= 2 and total == (a * h[0], a * h[1])


def test_plane_hilbert_basis_runs_no_normal_form_or_inverse(monkeypatch):
    import toristack.linalg as linalg_mod
    import toristack.monoids as monoids_mod

    c = dual_cone(sigma((1, 0), (1, 10 ** 6)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the rank-2 Hilbert basis ran a normal form or an inverse")

    for module in (monoids_mod, linalg_mod):
        for name in ("smith_elimination", "canonical_basis", "integer_inverse",
                     "invert_unimodular"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert hilbert_basis(c) == [(0, 1), (1, 0), (10 ** 6, -1)]


def test_hilbert_basis_of_rank_3_and_up_takes_one_smith_form_and_no_inverse(monkeypatch):
    # the volume, the residue generators and their coordinates in the rays
    # all come from one Smith elimination U A V = S of the ray matrix
    import toristack.linalg as linalg_mod
    import toristack.monoids as monoids_mod

    smith_elimination = linalg_mod.smith_elimination
    calls = []

    def counting_smith(s, u=None, v=None):
        calls.append((len(s), u is None, v is None))
        return smith_elimination(s, u, v)

    def forbidden(*args, **kwargs):
        raise AssertionError("the Hilbert basis inverted a matrix")

    monkeypatch.setattr(monoids_mod, "smith_elimination", counting_smith)
    for module in (monoids_mod, linalg_mod):
        for name in ("integer_inverse", "invert_unimodular"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    cases = [[(1, 0, 0), (0, 1, 0), (1, 1, 2)],
             [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 6)],
             [(2, 1, 0), (0, 3, 1), (1, 0, 5)]]
    for ray_list in cases:
        d = len(ray_list)
        calls.clear()
        basis = monoids_mod._hilbert_basis_full(ray_list, d)
        assert calls == [(d, True, False)]
        assert basis == box_hilbert_basis(ray_list, d)


# -- minimal free resolution -------------------------------------------------

def test_mfr_smooth_is_identity():
    p = monoid_of(sigma((1, 0), (0, 1)))
    res = minimal_free_resolution(p)
    assert res.denominators == (1, 1)
    assert res.generators == ((frac(0), frac(1)), (frac(1), frac(0)))
    assert resolution_cokernel(res) == FiniteAbelianGroup()


def test_mfr_a1():
    p = monoid_of(sigma((1, 0), (1, 2)))
    res = minimal_free_resolution(p)
    assert p.defining_cone.rays == ((0, 1), (2, -1))
    assert res.denominators == (2, 2)
    assert res.generators == ((frac(0), frac(1, 2)), (frac(1), frac(-1, 2)))
    # (1,0) = f_1 + f_2 inside the free monoid; 2 f_i lies in P
    assert generator_coordinates(res.realized_generators, (1, 0)) == (frac(1), frac(1))
    for f in res.generators:
        doubled = tuple(2 * x for x in f)
        assert all(x.denominator == 1 for x in doubled)
        assert p.contains(tuple(int(x) for x in doubled))


def test_mfr_rank_one():
    p = monoid_of(Cone.from_generators([(1,)], 1))
    res = minimal_free_resolution(p)
    assert res.denominators == (1,)
    assert res.generators == ((frac(1),),)


def test_mfr_requires_sharp_simplicial():
    non_sharp = AffineMonoid.from_dual_cone(dual_cone(Cone.from_generators([(1, 0)], 2)))
    with pytest.raises(ValueError):
        minimal_free_resolution(non_sharp)


# -- admissible resolutions ---------------------------------------------------

def test_admissible_rank_one_level_two():
    p = monoid_of(Cone.from_generators([(1,)], 1))
    res = admissible_resolution(p, {(1,): 2})
    assert res.realized_generators == ((frac(1, 2),),)
    # cross-check via the multiplicity formula: mult * prod(levels) = 1 * 2
    assert resolution_cokernel(res).order == 2


def test_admissible_all_ones_is_minimal():
    p = monoid_of(sigma((1, 0), (1, 2)))
    res = admissible_resolution(p, {})
    assert res == minimal_free_resolution(p)


def test_admissible_a1_levels_one():
    p = monoid_of(sigma((1, 0), (1, 2)))
    res = admissible_resolution(p, {(0, 1): 1, (2, -1): 1})
    group = resolution_cokernel(res)
    assert group.order == 2 == multiplicity(sigma((1, 0), (1, 2)).rays)


def test_admissible_rejects_bad_levels():
    p = monoid_of(sigma((1, 0), (1, 2)))
    with pytest.raises(ValueError):
        admissible_resolution(p, {(1, 1): 2})
    with pytest.raises(ValueError):
        admissible_resolution(p, {(0, 1): 0})


def test_resolution_cokernel_examples():
    p = monoid_of(sigma((1, 0), (0, 1)))
    assert resolution_cokernel(minimal_free_resolution(p)) == FiniteAbelianGroup()
    a1 = monoid_of(sigma((1, 0), (1, 2)))
    assert resolution_cokernel(minimal_free_resolution(a1)).invariant_factors == (2,)
    res23 = admissible_resolution(p, {(0, 1): 2, (1, 0): 3})
    assert resolution_cokernel(res23).invariant_factors == (6,)


def test_irreducible_ray_correspondence():
    p = monoid_of(sigma((1, 0), (0, 1)))
    table = irreducible_ray_correspondence(minimal_free_resolution(p))
    assert [line.ray for line in table] == [(0, 1), (1, 0)]
    assert [line.generator for line in table] == [(frac(0), frac(1)), (frac(1), frac(0))]

    a1 = monoid_of(sigma((1, 0), (1, 2)))
    table = irreducible_ray_correspondence(minimal_free_resolution(a1))
    assert table[0].generator == (frac(0), frac(1, 2))
    assert table[0].ray == (0, 1)
    assert table[0].facet_rays == ((2, -1),)
    # all three sets in the correspondence have the same cardinality d
    assert len(table) == len(a1.defining_cone.rays) == 2


# -- quotients -----------------------------------------------------------------

def test_quotient_by_self_is_trivial():
    p = monoid_of(sigma((1, 0), (0, 1)))
    assert quotient_group(p, [(1, 0), (0, 1)]) == FiniteAbelianGroup()


def test_quotient_2_3_sublattice():
    p = monoid_of(sigma((1, 0), (0, 1)))
    g = quotient_group(p, [(2, 0), (0, 3)])
    assert g.invariant_factors == (6,)


def test_quotient_cyclic():
    p = monoid_of(Cone.from_generators([(1,)], 1))
    assert quotient_group(p, [(3,)]).invariant_factors == (3,)


def test_quotient_rejects_sparse_submonoid():
    p = monoid_of(sigma((1, 0), (0, 1)))
    with pytest.raises(NotCloseError):
        quotient_group(p, [(2, 0)])  # rank deficient: not close
    with pytest.raises(NotCloseError):
        quotient_group(p, [(0, 0)])  # the trivial submonoid


def test_quotient_rejects_non_saturated():
    p = monoid_of(Cone.from_generators([(1,)], 1))
    # <2,3> generates a finite-index submonoid that misses 1
    with pytest.raises(NotSaturatedError):
        quotient_group(p, [(2,), (3,)])


def test_quotient_rejects_close_submonoid_missing_a_lattice_point():
    # Q^gp = Z^2 and every ray has a multiple in Q, but (0, 1) is not in Q
    p = monoid_of(sigma((1, 0), (0, 1)))
    with pytest.raises(NotSaturatedError, match=r"\(0, 1\)"):
        quotient_group(p, [(2, 0), (0, 2), (1, 1), (3, 0)])


def test_quotient_rank_3_is_decided_without_a_search():
    # a close, saturated Q of index 36 * 180 = 6480; in a basis of Q^gp its
    # cone is unimodular, so the Hilbert basis is the three generators
    p = AffineMonoid.from_dual_cone(Cone.from_generators(
        [(-9, -3, 8), (0, -3, 2), (9, 3, 7)], 3))
    g = quotient_group(p, [(-36, -12, 32), (0, -3, 2), (36, 12, 28)])
    assert g.invariant_factors == (36, 180)


def test_quotient_names_the_ray_without_a_multiple():
    p = monoid_of(sigma((1, 0), (0, 1)))
    # finite index, but cone((1, 0), (1, 2)) misses the ray (0, 1)
    with pytest.raises(NotCloseError, match=r"ray \(0, 1\)"):
        quotient_group(p, [(1, 0), (1, 1), (1, 2)])


def random_submonoid(rng):
    """A random P of rank 1-3 with small rays, and generators of a submonoid:
    a multiple of each ray (dropped with probability 1/10) and up to three
    sums of one or two Hilbert-basis elements."""
    d = rng.randint(1, 3)
    p = AffineMonoid.from_dual_cone(Cone.from_generators(random_full_cone_rays(rng, d, 2), d))
    gens = []
    for v in p.defining_cone.rays:
        k = rng.randint(1, 3)
        if rng.random() > 0.1:
            gens.append(tuple(k * x for x in v))
    for _ in range(rng.randint(0, 3)):
        terms = [rng.choice(p.hilbert_basis) for _ in range(rng.randint(1, 2))]
        gens.append(tuple(map(sum, zip(*terms))))
    return p, gens


def test_quotient_matches_box_oracle():
    rng = random.Random(1515)
    seen = set()
    for _ in range(150):
        p, gens = random_submonoid(rng)
        expected = box_quotient_verdict(p.defining_cone.rays, gens)
        try:
            got = quotient_group(p, gens).order
        except NotCloseError:
            got = "not close"
        except NotSaturatedError:
            got = "not saturated"
        assert got == expected, (p.defining_cone.rays, gens)
        seen.add(got if isinstance(got, str) else "accepted")
    assert seen == {"not close", "not saturated", "accepted"}


def test_quotient_of_embedded_image_matches_resolution_cokernel():
    # F modulo the embedded image of P is the resolution cokernel; random
    # instances exercise the group-quotient reduction on both sides
    rng = random.Random(909)
    for _ in range(12):
        d = rng.randint(1, 3)
        p = monoid_of(Cone.from_generators(random_full_cone_rays(rng, d, 4), d))
        levels = {r: rng.randint(1, 3) for r in p.defining_cone.rays}
        res = admissible_resolution(p, levels)
        free = monoid_of(Cone.from_generators(
            [tuple(int(i == j) for j in range(d)) for i in range(d)], d))
        image = [tuple(int(x) for x in generator_coordinates(res.realized_generators, h))
                 for h in p.hilbert_basis]
        got = quotient_group(free, image)
        assert got == resolution_cokernel(res)


# -- projections ---------------------------------------------------------------

def test_restrict_full_subset_is_identity():
    p = monoid_of(sigma((1, 0), (1, 2)))
    res = minimal_free_resolution(p)
    q, res_q = restrict_resolution(p, res, [0, 1])
    assert q is p and res_q is res


def test_restrict_a1_to_first_coordinate():
    p = monoid_of(sigma((1, 0), (1, 2)))
    res = minimal_free_resolution(p)
    q, res_q = restrict_resolution(p, res, [0])
    assert q.hilbert_basis == ((1,),)
    assert res_q.denominators == (1,)


def test_restrict_orthant_to_second_coordinate():
    p = monoid_of(sigma((1, 0), (0, 1)))
    res = minimal_free_resolution(p)
    q, _ = restrict_resolution(p, res, [1])
    assert q.hilbert_basis == ((1,),)


def test_restrict_roundtrip_all_subsets_random():
    rng = random.Random(313)
    for _ in range(10):
        d = rng.randint(2, 3)
        p = monoid_of(Cone.from_generators(random_full_cone_rays(rng, d, 4), d))
        res = minimal_free_resolution(p)
        for size in range(1, d + 1):
            for subset in combinations(range(d), size):
                q, res_q = restrict_resolution(p, res, subset)
                # the assertion inside restrict_resolution is the check; also
                # confirm the recomputed resolution belongs to q
                assert res_q.source is q


def test_restrict_resolution_matches_the_projected_monoid_oracle():
    # projection stability (acceptance criterion 5) against an oracle. In
    # the free coordinates of P's minimal resolution P's Hilbert basis lies
    # in the orthant; its projections to a subset S of the coordinates
    # generate a monoid whose irreducible elements, found by the oracle's
    # own search, are Q's Hilbert basis written in the free generators of
    # Q's minimal resolution, up to the order of those generators
    rng = random.Random(4242)
    checked = 0
    while checked < 50:
        d = rng.randint(2, 4)
        p = monoid_of(Cone.from_generators(random_full_cone_rays(rng, d, 3 if d < 4 else 2), d))
        if len(p.hilbert_basis) > 40:
            continue
        checked += 1
        res = minimal_free_resolution(p)
        free = [generator_coordinates(res.generators, h) for h in p.hilbert_basis]
        assert all(x.denominator == 1 and x >= 0 for c in free for x in c)
        for size in range(1, d):
            for subset in combinations(range(d), size):
                q, res_q = restrict_resolution(p, res, subset)
                expected = irreducible_elements([[int(c[i]) for i in subset] for c in free])
                got = [generator_coordinates(res_q.realized_generators, h) for h in q.hilbert_basis]
                assert all(x.denominator == 1 for c in got for x in c)
                assert any(sorted(tuple(int(c[k]) for k in order) for c in got) == expected
                           for order in permutations(range(size))), (p.defining_cone.rays, subset)


# -- saturation of the embedding -----------------------------------------------

def test_saturation_check_examples():
    p = monoid_of(sigma((1, 0), (0, 1)))
    assert saturation_intersection_check(minimal_free_resolution(p))
    a1 = monoid_of(sigma((1, 0), (1, 2)))
    assert saturation_intersection_check(minimal_free_resolution(a1))
    n1 = monoid_of(Cone.from_generators([(1,)], 1))
    assert saturation_intersection_check(admissible_resolution(n1, {(1,): 2}))


# -- tripwires on broken resolution data ------------------------------------------

def orthant_resolution(*realized):
    """A FreeResolution of the first-orthant monoid of Z^2 with the given generators."""
    gens = tuple(tuple(frac(x) for x in g) for g in realized)
    return FreeResolution(source=monoid_of(sigma((1, 0), (0, 1))), rank=2,
                          denominators=(1, 1), levels=(1, 1),
                          generators=gens, realized_generators=gens)


def test_resolution_rejects_negative_coordinate():
    # (0, 1) = (1, 1) - (1, 0) is not in the free monoid
    with pytest.raises(AssertionError, match="not a lattice point of the free monoid"):
        orthant_resolution((1, 0), (1, 1))


def test_resolution_rejects_non_integral_coordinate():
    # (1, 0) = (2, 0) / 2 is not in the free monoid
    with pytest.raises(AssertionError, match="not a lattice point of the free monoid"):
        orthant_resolution((2, 0), (0, 1))


def test_resolution_checks_the_minimal_free_monoid_under_levels():
    # the level 2 makes (1, 0) a realized generator, but P must lie in the
    # free monoid on the minimal generators, which misses (1, 0) = (2, 0) / 2
    p = monoid_of(sigma((1, 0), (0, 1)))
    minimal = ((frac(2), frac(0)), (frac(0), frac(1)))
    realized = ((frac(1), frac(0)), (frac(0), frac(1)))
    with pytest.raises(AssertionError, match="not a lattice point of the free monoid"):
        FreeResolution(source=p, rank=2, denominators=(1, 1), levels=(2, 1),
                       generators=minimal, realized_generators=realized)


def test_saturation_check_finds_lattice_point_outside_monoid():
    # P <= F holds, since (0, 1) = (1, 0) + (-1, 1); but the generator (-1, 1)
    # is a lattice point of F outside P
    res = orthant_resolution((1, 0), (-1, 1))
    assert res.coordinate_matrix() == [[1, 1], [0, 1]]
    assert not saturation_intersection_check(res)


def inverse_resolution(c_rows):
    """A resolution of the orthant monoid whose generators are the columns of C^-1.

    C is nonnegative, so every unit vector has nonnegative integral
    coordinates C e_i and P <= F; P^gp intersect F = P exactly when C^-1
    has no negative entry.
    """
    d = len(c_rows)
    p = monoid_of(Cone.from_generators(
        [tuple(int(i == j) for j in range(d)) for i in range(d)], d))
    columns = [solve_square(c_rows, [int(i == j) for i in range(d)]) for j in range(d)]
    gens = tuple(tuple(col) for col in columns)
    return FreeResolution(source=p, rank=d, denominators=(1,) * d, levels=(1,) * d,
                          generators=gens, realized_generators=gens)


def test_saturation_check_agrees_with_box_walk():
    rng = random.Random(909)
    resolutions = [orthant_resolution((1, 0), (-1, 1))]
    for _ in range(16):
        d = rng.randint(1, 4)
        p = monoid_of(Cone.from_generators(random_full_cone_rays(rng, d, bound=3), d))
        resolutions.append(admissible_resolution(
            p, {r: rng.randint(1, 3) for r in p.defining_cone.rays}))
    while len(resolutions) < 40:
        d = rng.randint(1, 4)
        c_rows = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(d)] for _ in range(d)]
        if solve_square(c_rows, [0] * d) is not None:
            resolutions.append(inverse_resolution(c_rows))
    outcomes = set()
    for res in resolutions:
        # past the degree of the smallest lattice multiple of each generator
        # outside C(P), where the exact check finds its witness
        bound = max([6 - res.rank] + [math.lcm(*(x.denominator for x in g))
                                      for g in res.realized_generators
                                      if not contains(res.source.defining_cone, g)])
        got = saturation_intersection_check(res)
        assert got == box_saturation_check(res, bound), (res.realized_generators, bound)
        outcomes.add(got)
    assert outcomes == {True, False}


# -- headline properties ---------------------------------------------------------

def test_cokernel_order_equals_multiplicity_random():
    rng = random.Random(515)
    for _ in range(40):
        d = rng.randint(1, 3)
        rays = random_full_cone_rays(rng, d)
        c = Cone.from_generators(rays, d)
        p = monoid_of(c)
        order = resolution_cokernel(minimal_free_resolution(p)).order
        assert order == multiplicity(c.rays), rays


def test_universal_property_random_levels():
    rng = random.Random(616)
    for _ in range(30):
        d = rng.randint(1, 3)
        c = Cone.from_generators(random_full_cone_rays(rng, d), d)
        p = monoid_of(c)
        res_min = minimal_free_resolution(p)
        levels = {r: rng.randint(1, 4) for r in p.defining_cone.rays}
        res = admissible_resolution(p, levels)
        for f, g, n in zip(res_min.generators, res.realized_generators, res.levels):
            assert n >= 1
            assert f == tuple(n * x for x in g)
        for h in p.hilbert_basis:
            coords = generator_coordinates(res.realized_generators, h)
            assert all(x.denominator == 1 and x >= 0 for x in coords)

"""``mfr`` on every nonzero cone of random stacky fans, against oracles.

The fans have rank 2-5: the zoo of rank 2 and up, and fans on d random
independent rays v_1..v_d and the primitive v_0 on -(v_1 + ... + v_d),
whose cones on d of these d + 1 rays form a complete simplicial fan (a
random nonempty subset of them is kept). Ray indices are shuffled and levels
drawn from 1-4. Entries stay small, and a fan is drawn again when the box
oracle of one of its maximal cones would sweep more than ``BOX_POINTS``
points, so the whole test takes a few seconds.

For each cone, the oracle reads the rays of C(P) off ``coordinate_rays`` in
the printed N' basis (itself checked to be a basis of the saturated span of
the rays), the denominators from the image of Z^r under each coordinate in
the basis of those rays, the Hilbert basis from ``box_hilbert_basis`` and
the stacky multiplicity from the gcd of the maximal minors of the rays,
and the invariant factors of the cokernel F^gp / P^gp from the
determinantal divisors of the matrix of Z^r in the basis of the oracle's
realized generators.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from conftest import fan_faces, random_stacky, shuffled, zoo_fans
from oracles import (box_hilbert_basis, cokernel_invariant_factors, coordinate_rays, det,
                     solve_square)

from toristack import validate_fan
from toristack.cli import mfr_data

BOX_POINTS = 15000


def box_points(ray_vectors):
    # the number of points box_hilbert_basis sweeps for these rays
    return math.prod(sum(max(0, v[j]) for v in ray_vectors)
                     - sum(min(0, v[j]) for v in ray_vectors) + 1
                     for j in range(len(ray_vectors[0])))


def max_minor_gcd(vectors):
    r, d = len(vectors), len(vectors[0])
    return math.gcd(*(int(det([[v[j] for j in cols] for v in vectors]))
                      for cols in combinations(range(d), r)))


def denominator_of_coordinate(ws, i):
    # the image of Z^r under the i-th coordinate in the basis ws is (1/b) Z
    r = len(ws)
    columns = [[w[row] for w in ws] for row in range(r)]
    values = [solve_square(columns, [int(k == e) for k in range(r)])[i] for e in range(r)]
    scale = math.lcm(*(x.denominator for x in values))
    generator = Fraction(math.gcd(*(int(x * scale) for x in values)), scale)
    assert generator.numerator == 1, (ws, i, generator)
    return generator.denominator


def random_complete_fan(rng, d):
    bound = 2 if d <= 3 else 1
    while True:
        rays = [tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(d)]
        if det(rays) == 0 or any(math.gcd(*v) != 1 for v in rays):
            continue
        total = [-sum(v[j] for v in rays) for j in range(d)]
        g = math.gcd(*total)
        rays.append(tuple(x // g for x in total))
        cones = [list(c) for c in combinations(range(d + 1), d)]
        kept = [c for c in cones if rng.random() < 0.7] or [rng.choice(cones)]
        return validate_fan(rays, kept, d)


def expected_mfr(sf, cone, basis):
    fan = sf.fan
    rays = [fan.rays[i] for i in cone]
    r = len(cone)
    # basis spans the saturated span of the rays: it holds every ray
    # (checked by coordinate_rays) and its maximal minors are coprime
    assert len(basis) == r and max_minor_gcd(basis) == 1
    stars, _ = coordinate_rays(basis, rays)
    ws = [w for w, _ in stars]
    denominators = [denominator_of_coordinate(ws, i) for i in range(r)]
    fan_rays = [cone[j] for _, j in stars]
    free = [[Fraction(x, b) for x in w] for w, b in zip(ws, denominators)]
    realized = [[x / sf.levels[rho] for x in f] for f, rho in zip(free, fan_rays)]
    return {
        "cp_rays": [list(w) for w in ws],
        "denominators": denominators,
        "free_generators": free,
        "realized_generators": realized,
        "hilbert_basis": [list(h) for h in box_hilbert_basis(ws, r)],
        "fan_rays": fan_rays,
        "stacky_multiplicity": max_minor_gcd(rays) * math.prod(sf.levels[i] for i in cone),
        "cokernel_invariant_factors": cokernel_invariant_factors(realized),
    }


def random_stacky_fans():
    rng = random.Random(1729)
    out = [random_stacky(rng, shuffled(rng, fan)) for fan in zoo_fans() if fan.ambient_rank >= 2]
    for d in (2, 3, 4, 5) * 3:
        identity = [[int(i == j) for j in range(d)] for i in range(d)]
        while True:
            fan = random_complete_fan(rng, d)
            if all(box_points([w for w, _ in coordinate_rays(identity, [fan.rays[i] for i in c])[0]])
                   <= BOX_POINTS for c in fan.maximal_cones):
                break
        out.append(random_stacky(rng, shuffled(rng, fan)))
    return out


def test_mfr_matches_oracles_on_every_cone_of_random_stacky_fans():
    ranks, cones_seen = set(), 0
    for sf in random_stacky_fans():
        ranks.add(sf.fan.ambient_rank)
        for cone in fan_faces(sf.fan)[1:]:
            data = mfr_data(sf, list(cone))
            expected = expected_mfr(sf, cone, data["splitting_basis"][:len(cone)])
            context = (sf.fan.rays, cone, sf.levels)
            for field in ("cp_rays", "denominators", "free_generators",
                          "realized_generators", "hilbert_basis"):
                assert data[field] == expected[field], (field,) + context
            assert [line["fan_ray"] for line in data["correspondence"]] == expected["fan_rays"]
            assert data["cokernel"]["order"] == expected["stacky_multiplicity"], context
            assert tuple(data["cokernel"]["invariant_factors"]) \
                == expected["cokernel_invariant_factors"], context
            assert data["saturation_check"] is True
            cones_seen += 1
    assert ranks == {2, 3, 4, 5}
    assert cones_seen > 300

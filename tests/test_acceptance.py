"""Acceptance suite: one test per criterion, exact (tolerance-zero) checks.

Each test prints a `[acceptance] criterion N ... PASS/FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to see them as they complete.
"""

import random
import subprocess
import sys
import time
from itertools import combinations, product

from conftest import (
    FIXTURES,
    a2_fan,
    a3_fan,
    hirzebruch_fan,
    p1_fan,
    p2_fan,
    random_full_cone_rays,
    random_stacky,
    zoo_fans,
)
from oracles import (
    box_hilbert_basis,
    generator_coordinates,
    is_tame,
    multiplicity,
    stacky_multiplicity,
)

import pytest

from toristack.charts import is_kummer_etale_chart, local_chart, stabilizer
from toristack.cones import Cone, dual_cone
from toristack.linalg import FiniteAbelianGroup, primitive_vector
from toristack.monoids import (
    AffineMonoid,
    admissible_resolution,
    hilbert_basis,
    irreducible_ray_correspondence,
    minimal_free_resolution,
    resolution_cokernel,
    restrict_resolution,
)
from toristack.stackyfan import StackyFan, is_complete, validate_fan


def announce(number: int, name: str, violations: list) -> None:
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    print(f"[acceptance] criterion {number} ({name}): {status}")
    assert not violations, violations[:5]


@pytest.fixture(scope="module")
def cone_corpus():
    """200 random full-dimensional simplicial cones, d in {1,2,3}, entries in [-5,5]."""
    rng = random.Random(20240801)
    corpus = []
    for i in range(200):
        d = 1 + i % 3
        corpus.append(random_full_cone_rays(rng, d, bound=5))
    return corpus


def monoid_of(sigma):
    """The monoid of the dual cone of sigma: its lattice points in M."""
    return AffineMonoid.from_dual_cone(dual_cone(sigma))


def single_cone_stacky(rays, levels):
    prim = [primitive_vector(r) for r in rays]
    fan = validate_fan(prim, [list(range(len(prim)))])
    return StackyFan.build(fan, {i: n for i, n in enumerate(levels)})


def test_criterion_1_multiplicity_coincidence(cone_corpus):
    started = time.monotonic()
    violations = []
    for rays in cone_corpus:
        d = len(rays[0])
        c = Cone.from_generators(rays, d)
        p = monoid_of(c)
        order = resolution_cokernel(minimal_free_resolution(p)).order
        if order != multiplicity(c.rays):
            violations.append((rays, order, multiplicity(c.rays)))
    elapsed = time.monotonic() - started
    if elapsed >= 30:
        violations.append(("runtime", elapsed))
    print(f"[acceptance] criterion 1 runtime: {elapsed:.2f}s for 200 cones")
    announce(1, "multiplicity coincidence", violations)


def test_criterion_2_stabilizer_formula(cone_corpus):
    rng = random.Random(77001)
    started = time.monotonic()
    violations = []
    for rays in cone_corpus:
        levels = [rng.randint(1, 4) for _ in rays]
        sf = single_cone_stacky(rays, levels)
        top = sf.fan.maximal_cones[0]
        group = stabilizer(sf, top)
        expected = stacky_multiplicity([sf.fan.rays[i] for i in top], levels)
        if group.order != expected:
            violations.append((rays, levels, group.order, expected))
    elapsed = time.monotonic() - started
    if elapsed >= 30:
        violations.append(("runtime", elapsed))
    print(f"[acceptance] criterion 2 runtime: {elapsed:.2f}s for 200 cones")
    announce(2, "stabilizer formula", violations)


def _monoid_member(target, generators):
    stack = [tuple(target)]
    seen = set()
    while stack:
        rest = stack.pop()
        if all(x == 0 for x in rest):
            return True
        if rest in seen:
            continue
        seen.add(rest)
        for g in generators:
            nxt = tuple(a - b for a, b in zip(rest, g))
            if all(x >= 0 for x in nxt):
                stack.append(nxt)
    return False


def test_criterion_3_invariant_ring():
    rng = random.Random(5150)
    degree = 6
    violations = []
    charts_checked = 0
    while charts_checked < 50:
        d = rng.choice((1, 1, 2, 2, 2, 3))
        bound = 4 if d < 3 else 2
        rays = random_full_cone_rays(rng, d, bound)
        sf = single_cone_stacky(rays, [rng.randint(1, 3) for _ in rays])
        top = sf.fan.maximal_cones[0]
        chart = local_chart(sf, top)
        charts_checked += 1
        p = monoid_of(sf.fan.cone_geometry(top))
        res = admissible_resolution(p, dict(zip(p.defining_cone.rays, chart.levels)))
        image = {tuple(int(x) for x in generator_coordinates(res.realized_generators, h))
                 for h in p.hilbert_basis}
        factors = chart.group.invariant_factors
        for monomial in product(range(degree + 1), repeat=chart.r):
            if sum(monomial) > degree:
                continue
            fixed = all(
                sum(w[k] * monomial[i] for i, w in enumerate(chart.action_weights))
                % factors[k] == 0
                for k in range(len(factors)))
            if fixed != _monoid_member(monomial, image):
                violations.append((rays, chart.levels, monomial))
    announce(3, "invariant ring R[P] = R[F]^G up to degree 6", violations)


def test_criterion_4_universal_property():
    rng = random.Random(616161)
    violations = []
    for _ in range(100):
        d = rng.randint(1, 3)
        c = Cone.from_generators(random_full_cone_rays(rng, d), d)
        p = monoid_of(c)
        res_min = minimal_free_resolution(p)
        levels = {r: rng.randint(1, 4) for r in p.defining_cone.rays}
        res = admissible_resolution(p, levels)
        for f, g, n in zip(res_min.generators, res.realized_generators, res.levels):
            if not (isinstance(n, int) and n >= 1 and f == tuple(n * x for x in g)):
                violations.append((c.rays, f, g, n))
    announce(4, "universal property of the minimal resolution", violations)


def test_criterion_5_projection_stability(cone_corpus):
    violations = []
    for rays in cone_corpus[:60]:
        d = len(rays[0])
        p = monoid_of(Cone.from_generators(rays, d))
        res = minimal_free_resolution(p)
        for size in range(1, d + 1):
            for subset in combinations(range(d), size):
                try:
                    q, res_q = restrict_resolution(p, res, subset)
                except AssertionError as exc:  # the stability assertion itself
                    violations.append((rays, subset, str(exc)))
                    continue
                if res_q.source is not q:
                    violations.append((rays, subset, "resolution detached from monoid"))
    announce(5, "projection stability of minimal resolutions", violations)


def test_criterion_6_hilbert_basis_oracle():
    rng = random.Random(4096)
    cases = [
        [(1, 0), (0, 1)],
        [(0, 1), (2, -1)],
        [(0, 1), (3, -1)],
        [(1, 1), (1, -1)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 2)],
    ]
    for _ in range(30):
        cases.append(random_full_cone_rays(rng, rng.randint(1, 2), bound=5))
    for _ in range(10):
        cases.append(random_full_cone_rays(rng, 3, bound=3))
    for _ in range(3):
        cases.append(random_full_cone_rays(rng, 3, bound=5))
    violations = []
    for rays in cases:
        d = len(rays[0])
        c = Cone.from_generators(rays, d)
        got = hilbert_basis(c)
        expected = box_hilbert_basis(c.rays, d)
        if got != expected:
            violations.append((rays, got, expected))
    announce(6, "Hilbert basis equals box-enumeration oracle", violations)


def test_criterion_7_completeness_fixtures():
    violations = []
    complete_fixtures = [p1_fan(), p2_fan(),
                         hirzebruch_fan(0), hirzebruch_fan(1), hirzebruch_fan(2)]
    for fan in complete_fixtures:
        if not is_complete(fan):
            violations.append(("expected complete", fan.rays))
        for drop in range(len(fan.maximal_cones)):
            kept = [list(c) for i, c in enumerate(fan.maximal_cones) if i != drop]
            if is_complete(validate_fan(fan.rays, kept)):
                violations.append(("deletion still complete", fan.rays, drop))
    affine = [validate_fan([(1,)], [[0]]), a2_fan(), a3_fan()]
    for fan in affine:
        if is_complete(fan):
            violations.append(("affine fan reported complete", fan.rays))
    announce(7, "completeness fixtures", violations)


def test_criterion_8_smooth_canonical_collapse():
    violations = []
    from conftest import p1xp1_fan, p3_fan, mixed_dim_fan
    smooth_fans = [p1_fan(), p2_fan(), hirzebruch_fan(0), hirzebruch_fan(1),
                   hirzebruch_fan(2), a2_fan(), a3_fan(), p1xp1_fan(), p3_fan(),
                   mixed_dim_fan()]
    for fan in smooth_fans:
        sf = StackyFan.build(fan, {})
        for c in fan.cones:
            chart = local_chart(sf, c)
            if chart.group != FiniteAbelianGroup():
                violations.append((fan.rays, c, chart.group))
            if stabilizer(sf, c).order != 1:
                violations.append((fan.rays, c, "nontrivial stabilizer"))
    announce(8, "smooth level-1 fans collapse to toric varieties", violations)


def test_criterion_9_dm_tame_tripwire():
    rng = random.Random(112233)
    violations = []
    fans = zoo_fans()
    for i in range(100):
        fan = fans[i % len(fans)]
        sf = random_stacky(rng, fan)
        chars = rng.sample([0, 2, 3, 5, 7, 11], k=rng.randint(1, 4))
        deligne_mumford = all(is_kummer_etale_chart(local_chart(sf, c), chars)
                              for c in fan.maximal_cones)
        if deligne_mumford != is_tame(fan.rays, sf.levels, fan.maximal_cones, chars):
            violations.append((fan.rays, sf.levels, chars))
    announce(9, "Deligne-Mumford iff tame", violations)


def test_criterion_10_correspondence_cardinalities():
    rng = random.Random(445566)
    from toristack.charts import chart_resolution
    violations = []
    for fan in zoo_fans():
        sf = random_stacky(rng, fan)
        for cidx in fan.maximal_cones:
            if not cidx:
                continue
            p_local, res = chart_resolution(local_chart(sf, cidx))
            table = irreducible_ray_correspondence(res)
            counts = {
                "irreducible": len(res.realized_generators),
                "rays": len(p_local.defining_cone.rays),
                "primes": len({line.facet_rays for line in table}),
                "dim": fan.cone_geometry(cidx).dim,
            }
            if len(set(counts.values())) != 1:
                violations.append((fan.rays, cidx, counts))
    announce(10, "generator/ray/prime correspondence cardinalities", violations)


def test_criterion_11_report_determinism():
    violations = []
    fixtures = sorted(FIXTURES.glob("*.json"))
    assert fixtures
    for path in fixtures:
        outputs = set()
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "toristack.cli", "report", str(path)],
                capture_output=True)
            if proc.returncode != 0:
                violations.append((path.name, proc.returncode, proc.stderr[:200]))
                break
            outputs.add(proc.stdout)
        if len(outputs) > 1:
            violations.append((path.name, "nondeterministic bytes"))
    announce(11, "byte-deterministic reports", violations)

import inspect
import json
import os
import random
import re
import subprocess
import sys
from itertools import combinations

from conftest import (
    FIXTURES,
    a1_singularity_fan,
    a2_fan,
    a3_fan,
    built,
    fan_faces,
    hirzebruch_fan,
    mixed_dim_fan,
    overlapping_polygon,
    p1_fan,
    p1xp1_fan,
    p2_fan,
    p3_fan,
    quotient_3d_fan,
    random_stacky,
    report_of,
    weighted_p2_fan,
    zoo_fans,
)

from oracles import pairwise_validate_fan

from toristack import cones as conelib
from toristack.charts import face_group, is_kummer_etale_chart, local_chart
from toristack.cli import FanDocument, check_document, cone_id, report_data
from toristack.linalg import dot
from toristack.stackyfan import (
    ConeNotInFan,
    DuplicateRay,
    Fan,
    FanError,
    IntersectionNotFace,
    InvalidLevel,
    NonPrimitiveRay,
    NonSimplicial,
    StackyFan,
    is_complete,
    is_residue_characteristic,
    stacky_fan_violations,
    validate_fan,
)

import pytest


def canonical(sf_levels, fan):
    return StackyFan.build(fan, sf_levels)


# -- validation ----------------------------------------------------------------

def report_cones(fan):
    """The faces a report lists, in its order."""
    return [tuple(row["ray_indices"]) for row in report_of(StackyFan.build(fan))["cones"]]


def test_p1_fan_valid():
    fan = p1_fan()
    assert report_cones(fan) == [(), (0,), (1,)]
    assert fan.maximal_cones == ((0,), (1,))


def test_p2_fan_valid():
    fan = p2_fan()
    assert len(report_cones(fan)) == 1 + 3 + 3
    assert fan.maximal_cones == ((0, 1), (0, 2), (1, 2))


def test_interior_ray_is_rejected():
    # (1,1) lies inside cone{(1,0),(1,2)}, so the pair cannot both be cones
    with pytest.raises(IntersectionNotFace):
        validate_fan([(1, 0), (1, 2), (1, 1)], [[0, 1], [2]])


def test_overlapping_cones_rejected():
    with pytest.raises(IntersectionNotFace):
        validate_fan([(1, 0), (0, 1), (1, 2)], [[0, 1], [1, 2], [0, 2]])


def test_overlap_without_certificate_is_refused_without_intersection(monkeypatch):
    # no dual row of (0, 1) certifies its pair with (0, 2): both lie above
    # the shared ray (1, 0). Ray (1, 2) lies inside the cone (0, 1), so no
    # row of it is negative there and the pair is refused on that alone,
    # without computing an intersection
    import toristack.cones as cones_mod

    def no_intersect(c1, c2):
        raise AssertionError("validate_fan computed an intersection")

    monkeypatch.setattr(cones_mod, "intersect", no_intersect)
    with pytest.raises(IntersectionNotFace) as info:
        validate_fan([(1, 0), (0, 1), (1, 2)], [[0, 1], [1, 2], [0, 2]])
    assert info.value.cone_pair == ((0, 1), (0, 2))


def test_one_dual_row_certifies_a_pair_that_no_row_sum_does(monkeypatch):
    # the rows of (0, 1) are (-1, -1) and (1, 2): their sum (0, 1) is positive
    # on rays 2 and 3, the first row negative on both. The sum (-1, 0) of the
    # rows of (2, 3) is positive on rays 0 and 1.
    import toristack.stackyfan as fan_mod

    def no_circuits(columns):
        raise AssertionError("validate_fan enumerated circuits")

    monkeypatch.setattr(fan_mod, "circuit_vectors", no_circuits)
    rays = [(-2, 1), (-1, 1), (-1, 2), (-1, 3)]
    fan = validate_fan(rays, [(0, 1), (2, 3)], 2)
    assert fan.maximal_cones == ((0, 1), (2, 3))
    assert pairwise_validate_fan(rays, [(0, 1), (2, 3)], 2)[0] is None


def test_validation_never_runs_the_double_description(monkeypatch):
    import toristack.cones as cones_mod

    # intersect asks validate_fan, so a call back would also loop
    def forbidden(*args):
        raise AssertionError("validate_fan called cones.intersect")

    monkeypatch.setattr(cones_mod, "intersect", forbidden)
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        validate_fan(doc["rays"], doc["max_cones"], doc["rank"])
    refused = sorted((FIXTURES.parent / "golden" / "refused").glob("*.json"))
    assert len(refused) == 6
    for path in refused:
        # validate_fan runs on each document whose rays and indices are sound
        doc = json.loads(path.read_text())
        found, sf = stacky_fan_violations(
            doc["rank"], doc["rays"], doc["max_cones"],
            {int(k): v for k, v in doc.get("levels", {}).items()}, doc.get("characteristics", [0]))
        assert found and sf is None
    rng = random.Random(7)
    for n in range(8, 17):
        rays, cones, pair = overlapping_polygon(rng, n)
        with pytest.raises(IntersectionNotFace) as info:
            validate_fan(rays, cones, 2)
        assert set(info.value.cone_pair) == pair


def test_incomplete_fan_is_refused_without_its_walls(monkeypatch):
    # in an overlap polygon, the ray between the overlapping cones lies in
    # one maximal cone, fewer than a complete fan of rank 2 puts on a ray, so
    # the pairs are compared with no table of walls built
    reads = []
    walls = Fan._walls

    def counted(fan):
        reads.append(fan)
        return walls.func(fan)

    monkeypatch.setattr(Fan, "_walls", property(counted))
    rng = random.Random(7)
    for n in range(8, 17):
        rays, cones, pair = overlapping_polygon(rng, n)
        with pytest.raises(IntersectionNotFace) as info:
            validate_fan(rays, cones, 2)
        assert set(info.value.cone_pair) == pair
        assert pairwise_validate_fan(rays, cones, 2) == ("IntersectionNotFace",
                                                         info.value.cone_pair)
    assert reads == []
    # a complete fan is still validated from its walls
    validate_fan([(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [1, 2], [2, 3], [0, 3]], 2)
    assert reads


def test_non_primitive_ray_rejected():
    with pytest.raises(NonPrimitiveRay) as info:
        validate_fan([(2, 4)], [[0]])
    assert "[1, 2]" in str(info.value)


def test_zero_ray_rejected():
    with pytest.raises(NonPrimitiveRay):
        validate_fan([(0, 0)], [[0]])


def test_duplicate_ray_rejected():
    with pytest.raises(DuplicateRay):
        validate_fan([(1, 0), (1, 0)], [[0], [1]])


@pytest.mark.parametrize("rays, cones, named", [
    # the Gram matrix of coplanar rays below full dimension is singular
    pytest.param([(1, 0, 0), (0, 1, 0), (1, 1, 0)], [[2, 0, 1]], (0, 1, 2), id="coplanar"),
    # so is the ray matrix of d dependent rays
    pytest.param([(1, 0), (-1, 0)], [[1, 0]], (0, 1), id="opposite-rank2"),
    # more rays than the rank
    pytest.param([(1,), (-1,)], [[1, 0]], (0, 1), id="opposite-rank1"),
    pytest.param([(1, 0), (0, 1), (1, 1)], [[0, 1, 2]], (0, 1, 2), id="three-in-rank2"),
    pytest.param([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (-1, -1, -1)],
                 [[0, 1, 2, 3], [0, 1, 4]], (0, 1, 2, 3), id="four-in-rank3"),
    # the first listed cone with dependent rays is named
    pytest.param([(1, 0), (0, 1), (-1, 0)], [[0, 1], [2, 0]], (0, 2), id="second-listed"),
    # also when it is listed again, before another dependent cone
    pytest.param([(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [2, 0], [1, 0], [0, 2], [1, 3]],
                 (0, 2), id="listed-twice"),
])
def test_non_simplicial_cone_rejected(rays, cones, named):
    with pytest.raises(NonSimplicial) as err:
        validate_fan(rays, cones)
    assert err.value.cone_indices == named
    assert pairwise_validate_fan(rays, cones, len(rays[0])) == ("NonSimplicial", named)


@pytest.mark.parametrize("rays, cones", [
    ([(1, 0, 0), (0, 1, 0), (1, 1, 2)], [[2, 0, 1]]),
    ([(1, 0, 0), (0, 1, 0), (0, 0, -1)], [[0, 1], [2]]),  # mixed_dim
    ([(1, 0), (0, 1)], [[0, 1], [1]]),  # a listed face
])
def test_validation_fills_the_dual_rows_of_every_listed_cone(rays, cones):
    fan = validate_fan(rays, cones)
    listed = {tuple(sorted(c)) for c in cones}
    assert set(fan.dual_rows) == listed  # read with no lookup
    for c in listed:
        assert dict.__getitem__(fan.dual_rows, c) == conelib.dual_rows(
            [fan.rays[i] for i in c], fan.ambient_rank)


def test_each_distinct_listed_cone_is_dualized_once(monkeypatch):
    dualized, dual_rows = [], conelib.dual_rows
    monkeypatch.setattr(conelib, "dual_rows",
                        lambda rays, d: dualized.append(rays) or dual_rows(rays, d))
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [(0, 1), (1, 2), (0, 2), (1, 0), (2, 1), (0, 2), (0, 1)]
    found, sf = stacky_fan_violations(2, rays, cones, {}, [0])
    assert found == [] and sf.fan.maximal_cones == ((0, 1), (0, 2), (1, 2))
    assert sorted(dualized) == sorted([rays[i] for i in c] for c in sf.fan.maximal_cones)


@pytest.mark.parametrize("cones", [[(0, 1), (1, 0, 1)], [(0, 1), (0, 1), (0, 0, 1)]])
def test_a_repeated_listing_that_repeats_a_ray_index_is_refused(cones):
    with pytest.raises(FanError, match=re.escape(f"cone {cones[-1]} repeats a ray index")):
        validate_fan([(1, 0), (0, 1)], cones)
    assert pairwise_validate_fan([(1, 0), (0, 1)], cones, 2) == ("FanError", cones[-1])


def test_build_reads_the_validated_rows_and_keeps_its_tripwire(monkeypatch):
    # a validated fan's maximal cones need no linear algebra to be built;
    # a hand-built fan with a dependent maximal cone still trips the check
    import toristack.linalg as linalg_mod

    fan = mixed_dim_fan()
    functions = {id(v) for v in vars(linalg_mod).values()
                 if inspect.isfunction(v) and v.__module__ == linalg_mod.__name__}

    def forbidden(*args, **kwargs):
        raise AssertionError("StackyFan.build called toristack.linalg")

    for name, module in list(sys.modules.items()):
        if name == "toristack" or name.startswith("toristack."):
            for attr, value in list(vars(module).items()):
                if id(value) in functions:
                    monkeypatch.setattr(module, attr, forbidden)
    assert StackyFan.build(fan, {0: 2, 2: 3}).levels == (2, 1, 3)
    monkeypatch.undo()
    # d dependent rays; test_dependent_cone_tripwire_survives_optimize_flag
    # covers more rays than the rank
    with pytest.raises(AssertionError, match=re.escape(
            "maximal cone (0, 1) has linearly dependent rays")):
        StackyFan.build(Fan(2, ((1, 0), (-1, 0)), ((0, 1),)))


def test_closure_is_idempotent_and_intersections_stored():
    for fan in zoo_fans():
        listed = report_cones(fan)
        cone_set = set(listed)
        assert len(cone_set) == len(listed) and listed == fan_faces(fan)
        for c in listed:
            for k in range(len(c)):
                for sub in combinations(c, k):
                    assert sub in cone_set
        for c1 in fan.maximal_cones:
            for c2 in fan.maximal_cones:
                shared = tuple(sorted(set(c1) & set(c2)))
                assert shared in cone_set


def test_level_validation():
    fan = p1_fan()
    with pytest.raises(InvalidLevel):
        StackyFan.build(fan, {0: 0})
    with pytest.raises(InvalidLevel):
        StackyFan.build(fan, {5: 2})
    with pytest.raises(InvalidLevel):
        StackyFan.build(fan, {0: True})


def test_violations_listed_in_order_and_validate_fan_raises_the_first():
    rays = [(2, 4), (1, 0), (1, 0)]
    found, sf = stacky_fan_violations(2, rays, [(0, 5)], {0: 0, 9: 2}, [-1])
    assert sf is None
    assert [type(e).__name__ for e in found] == [
        "NonPrimitiveRay", "DuplicateRay", "RayIndexOutOfRange",
        "InvalidLevel", "InvalidLevel", "InvalidCharacteristic"]
    assert [(e.ray_index, e.value) for e in found[3:5]] == [(0, 0), (9, 2)]
    with pytest.raises(NonPrimitiveRay) as info:
        validate_fan(rays, [(0, 5)], ambient_rank=2)
    assert info.value.ray_index == 0


def test_violations_stop_at_first_geometric_failure():
    rays = [(1, 0), (1, 2), (1, 1), (0, 1)]
    # two pairs overlap: (0, 1) with (2, 3), and (1, 3) with (2, 3)
    found, sf = stacky_fan_violations(2, rays, [(0, 1), (2, 3), (1, 3)], {}, [])
    assert sf is None
    assert [e.cone_pair for e in found] == [((0, 1), (2, 3))]


def test_valid_document_gives_its_stacky_fan():
    found, sf = stacky_fan_violations(1, [(1,), (-1,)], [(0,), (1,)], {1: 3}, [0, 2])
    assert found == []
    assert sf == StackyFan.build(p1_fan(), {1: 3})


def test_dependent_cone_tripwire_survives_optimize_flag():
    # a Fan built without validation, holding a cone on dependent rays
    code = (
        "from toristack.stackyfan import Fan, StackyFan\n"
        "fan = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1, 2),))\n"
        "try:\n"
        "    StackyFan.build(fan, {})\n"
        "except AssertionError as e:\n"
        "    print('tripwire:', e)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("tripwire: maximal cone (0, 1, 2)")


def test_residue_characteristics():
    primes = [p for p in range(200) if p > 1 and all(p % k for k in range(2, p))]
    assert [p for p in range(200) if is_residue_characteristic(p)] == [0] + primes
    # strong pseudoprimes to the bases 2-7 and 2-23, and the largest prime below 2^64
    assert not is_residue_characteristic(3215031751)
    assert not is_residue_characteristic(3825123056546413051)
    assert is_residue_characteristic(2 ** 64 - 59)
    assert not is_residue_characteristic(2 ** 64 + 13)  # prime, but beyond the limit
    assert not is_residue_characteristic(-3)


def test_each_distinct_characteristic_is_tested_once(monkeypatch):
    import toristack.stackyfan as fan_mod

    tested, test = [], fan_mod.is_residue_characteristic
    monkeypatch.setattr(fan_mod, "is_residue_characteristic", lambda p: tested.append(p) or test(p))
    chars = [2 ** 61 - 1, 91, 0, 2 ** 61 - 1, 91, -1, 2 ** 64, 91, 0, 2 ** 64]
    found, sf = stacky_fan_violations(1, [(1,), (-1,)], [(0,), (1,)], {}, chars)
    assert sorted(tested) == sorted(set(chars))
    # each refused entry is named, in listing order
    assert sf is None and [e.value for e in found] == [91, 91, -1, 2 ** 64, 91, 2 ** 64]
    tested.clear()
    found, sf = stacky_fan_violations(1, [(1,), (-1,)], [(0,), (1,)], {}, [3, 3, 0, 3])
    assert found == [] and sorted(tested) == [0, 3]


# -- free nets -------------------------------------------------------------------
# a chart's group is N' modulo the free-net points n_rho * v_rho of its cone

def chart_levels_and_group(sf, cone):
    chart = local_chart(sf, cone)
    return dict(zip(chart.fan_rays, chart.levels)), chart.group.invariant_factors


def test_free_net_canonical():
    sf = StackyFan.build(p1_fan(), {})
    assert [chart_levels_and_group(sf, [i]) for i in (0, 1)] == [({0: 1}, ()), ({1: 1}, ())]


def test_free_net_p1_levels():
    sf = StackyFan.build(p1_fan(), {0: 2, 1: 3})
    assert [chart_levels_and_group(sf, [i]) for i in (0, 1)] == [({0: 2}, (2,)), ({1: 3}, (3,))]


def test_free_net_a1():
    # the free-net points (1, 0) and (2, 4) span a sublattice of index 4
    sf = StackyFan.build(a1_singularity_fan(), {1: 2})
    assert chart_levels_and_group(sf, [0, 1]) == ({0: 1, 1: 2}, (4,))


# -- completeness -----------------------------------------------------------------

def test_complete_fixtures():
    assert is_complete(p1_fan())
    assert is_complete(p2_fan())
    for a in (0, 1, 2):
        assert is_complete(hirzebruch_fan(a))
    assert is_complete(p1xp1_fan())
    assert is_complete(p3_fan())
    assert is_complete(weighted_p2_fan())


def test_affine_fans_incomplete():
    assert not is_complete(a2_fan())
    assert not is_complete(a3_fan())
    assert not is_complete(a1_singularity_fan())
    assert not is_complete(quotient_3d_fan())


def test_deleting_any_maximal_cone_breaks_completeness():
    for build in (p1_fan, p2_fan, lambda: hirzebruch_fan(1), p3_fan):
        fan = build()
        for drop in range(len(fan.maximal_cones)):
            kept = [list(c) for i, c in enumerate(fan.maximal_cones) if i != drop]
            smaller = validate_fan(fan.rays, kept)
            assert not is_complete(smaller)


# -- multiplicities and tameness ---------------------------------------------------

def stacky_multiplicity(sf, maximal_cone, face=None):
    """The stacky multiplicity of a maximal cone off its chart, or of a face
    of it off the chart's ``face_group``."""
    chart = local_chart(sf, maximal_cone)
    return chart.stacky_multiplicity if face is None else face_group(chart, face)[0].order


def is_tame(sf, chars):
    """Tameness as the report reads it: every maximal chart Kummer log etale."""
    return all(is_kummer_etale_chart(local_chart(sf, c), chars) for c in sf.fan.maximal_cones)


def test_stacky_multiplicity_examples():
    sf = StackyFan.build(a2_fan(), {})
    assert stacky_multiplicity(sf, [0, 1]) == 1
    sfa1 = StackyFan.build(a1_singularity_fan(), {})
    assert stacky_multiplicity(sfa1, [0, 1]) == 2
    sfr = StackyFan.build(validate_fan([(1,)], [[0]]), {0: 3})
    assert stacky_multiplicity(sfr, [0]) == 3
    assert stacky_multiplicity(sfr, [0], ()) == 1
    with pytest.raises(ConeNotInFan):
        stacky_multiplicity(sfa1, [0, 5])


def test_stacky_multiplicity_mixed():
    sf = StackyFan.build(a1_singularity_fan(), {0: 3, 1: 2})
    assert stacky_multiplicity(sf, [0, 1]) == 2 * 3 * 2
    assert stacky_multiplicity(sf, [0, 1], (0,)) == 3
    assert stacky_multiplicity(sf, [0, 1], (1,)) == 2


def test_tame_examples():
    smooth = StackyFan.build(a2_fan(), {})
    assert is_tame(smooth, [2, 3, 5])
    sfa1 = StackyFan.build(a1_singularity_fan(), {})
    assert not is_tame(sfa1, [2])
    assert is_tame(sfa1, [3])
    sf23 = StackyFan.build(p1_fan(), {0: 2, 1: 3})
    assert is_tame(sf23, [0])
    assert not is_tame(sf23, [2])
    assert not is_tame(sf23, [3])
    assert is_tame(sf23, [5])


def test_multiplicity_monotone_under_faces():
    rng = random.Random(808)
    for fan in zoo_fans():
        sf = random_stacky(rng, fan)
        for m in fan.maximal_cones:
            faces = [f for k in range(len(m) + 1) for f in combinations(m, k)]
            for c in faces:
                m_c = stacky_multiplicity(sf, m, c)
                for tau in faces:
                    if set(tau) <= set(c):
                        assert m_c % stacky_multiplicity(sf, m, tau) == 0


# -- cycle ideals ------------------------------------------------------------------

def cycle_ideals(fan, chart_cone):
    """The report's cycle ideals in the chart over a maximal cone: face id ->
    coarse generators."""
    doc = FanDocument(fan.ambient_rank, list(fan.rays), list(fan.maximal_cones))
    found, sf = check_document(doc)
    assert not found
    chart = next(ch for ch in built(report_data(doc, sf))["charts"] if ch["cone"] == cone_id(chart_cone))
    return {ci["cone"]: [tuple(h) for h in ci["coarse_generators"]] for ci in chart["cycle_ideals"]}


def test_cycle_ideal_axis():
    assert cycle_ideals(a2_fan(), [0, 1])["0"] == [(1, 0)]


def test_cycle_ideal_origin():
    assert cycle_ideals(a2_fan(), [0, 1])["0,1"] == [(0, 1), (1, 0)]


def test_cycle_ideal_a1():
    ideals = cycle_ideals(a1_singularity_fan(), [0, 1])
    assert ideals["0"] == [(1, 0), (2, -1)]
    assert ideals["1"] == [(0, 1), (1, 0)]


def test_cycle_ideal_zero_cone_is_empty():
    assert cycle_ideals(a2_fan(), [0, 1])[""] == []


def test_cycle_ideal_requires_face():
    # a chart lists the cycle ideals of the faces of its own cone only
    assert set(cycle_ideals(p2_fan(), [0, 1])) == {"", "0", "1", "0,1"}


def test_cycle_ideal_containment_under_faces():
    # tau1 a face of tau2 means V(tau2) <= V(tau1), so the tau1-ideal sits
    # inside the tau2-ideal: each tau1 generator is a tau2 generator plus a
    # monoid element. Each ideal holds exactly the generators of the chart
    # monoid positive on the relative interior point of its face, the sum
    # of the face's rays.
    from toristack.cones import dual_cone, contains
    from toristack.monoids import monoid_generators
    for fan in zoo_fans():
        for chart in fan.maximal_cones:
            ideals = cycle_ideals(fan, chart)
            dual = dual_cone(fan.cone_geometry(chart))
            generators = sorted(monoid_generators(dual))
            faces = [f for k in range(len(chart) + 1) for f in combinations(chart, k)]
            assert sorted(ideals) == sorted(map(cone_id, faces))
            for t1 in faces:
                gens1 = ideals[cone_id(t1)]
                relint = [sum(x) for x in zip(*(fan.rays[i] for i in t1))] or [0] * fan.ambient_rank
                assert gens1 == [h for h in generators if dot(h, relint) > 0], (chart, t1)
                if not t1:
                    continue
                for t2 in faces:
                    if set(t1) <= set(t2) and t1 != t2:
                        gens2 = ideals[cone_id(t2)]
                        for h in gens1:
                            ok = any(
                                contains(dual, tuple(a - b for a, b in zip(h, g)))
                                for g in gens2)
                            assert ok, (chart, t1, t2, h)

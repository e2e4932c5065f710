"""Work that must not grow faster than the fan, counted in calls rather than
timed: a lower-dimensional chart's multiplicity takes no sweep over maximal
minors, validating a complete fan compares no pair of cones and builds at
most one ``Cone`` per maximal cone, an incomplete fan enumerates circuits
only for a pair that no dual row certifies and no ray inside a cone
refuses, and sends to the exact pair test only the pairs that no single row
of either cone certifies (which sums rows, side by side), ``mfr`` takes its
cokernel from the chart's one Smith elimination, a command normalizes its
document and checks its rays once, only a report lists the faces of a cone,
and each boundary divisor reads only the cones on its own ray. One bound is
on memory: a Hilbert basis walk holds one integer per residue and forms
lattice points only for its basis."""

import json
import math
import tracemalloc
from itertools import product

import pytest

from conftest import FIXTURES, built

from toristack import charts as charts_mod
from toristack import cli as cli_mod
from toristack import cones as cones_mod
from toristack import linalg as linalg_mod
from toristack import monoids as monoids_mod
from toristack import stackyfan as fan_mod
from toristack.charts import local_chart
from toristack.cli import FanDocument, cone_id, main, report_data
from toristack.cones import Cone, dual_cone
from toristack.stackyfan import (ConeNotInFan, Fan, IntersectionNotFace, StackyFan, is_complete,
                                 validate_fan)

# the fan of the octagon: eight rays, eight 2-cones on consecutive rays
OCTAGON_RAYS = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
OCTAGON_CONES = [[i, (i + 1) % 8] for i in range(8)]


def counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_nine_ray_chart_in_rank_18_sweeps_no_minors(monkeypatch):
    # C(18, 9) = 48,620 maximal minors would give the multiplicity; one Smith
    # diagonal of the rays does. The chart's group comes from one more, of
    # the free-net matrix in its coordinates.
    d, r = 18, 9
    rays = [tuple(int(j == i) + int(j == i + r) * (i + 2) for j in range(d)) for i in range(r)]
    sf = StackyFan.build(validate_fan(rays, [list(range(r))], d), {0: 3})
    calls = []
    for name in ("determinant", "smith_elimination"):
        counting(monkeypatch, charts_mod, name, calls)
    chart = local_chart(sf, range(r))
    assert calls == ["smith_elimination"] * 2
    assert (chart.r, chart.torus_rank, chart.multiplicity) == (9, 9, 1)
    assert chart.group.invariant_factors == (3,)


@pytest.mark.parametrize("fixture, cone, eliminations", [("quotient_3d.json", "0,1,2", 2),
                                                         ("a1_cone.json", "0,1", 1)],
                         ids=["rank-3", "rank-2"])
def test_mfr_computes_the_cokernel_once(monkeypatch, capsys, fixture, cone, eliminations):
    # the cokernel mfr prints is the chart's group, from the chart's one
    # Smith elimination; a Hilbert basis takes one more from rank 3 on and
    # none in rank 2 (Hirzebruch-Jung)
    calls = []
    for module in (linalg_mod, charts_mod, monoids_mod):
        counting(monkeypatch, module, "smith_elimination", calls)
    assert main(["mfr", str(FIXTURES / fixture), "--cone", cone]) == 0
    capsys.readouterr()
    assert len(calls) == eliminations
    assert not hasattr(Fan, "cones")


def test_hilbert_basis_walk_holds_one_integer_per_residue():
    # the dual of <e1, e2, (1, 1, 150)> has 22,500 residues and a basis of
    # 154: about 1.1 MB at peak, against 9 MB for a point and a tuple per
    # residue
    c = dual_cone(Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 150)], 3))
    tracemalloc.start()
    try:
        basis = monoids_mod.hilbert_basis(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) == 154
    assert peak < 3 * 10 ** 6, peak


def test_full_dimensional_chart_takes_one_determinant(monkeypatch):
    sf = StackyFan.build(validate_fan([(1, 0, 0), (0, 1, 0), (1, 1, 2)], [[0, 1, 2]]))
    calls = []
    for name in ("determinant", "smith_elimination"):
        counting(monkeypatch, charts_mod, name, calls)
    assert local_chart(sf, (0, 1, 2)).multiplicity == 2
    assert sorted(calls) == ["determinant", "smith_elimination"]


def test_validating_p1_to_the_sixth_compares_no_pair(tmp_path, monkeypatch, capsys):
    # 64 maximal cones and 2,016 pairs of them: the walls settle the fan
    d = 6
    rays = [e for i in range(d) for e in ([int(j == i) for j in range(d)],
                                          [-int(j == i) for j in range(d)])]
    cones = [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=d)]
    path = tmp_path / "p1_sixth.json"
    path.write_text(json.dumps({"rank": d, "rays": rays, "max_cones": cones}), encoding="utf-8")
    pairs, built = [], []
    counting(monkeypatch, fan_mod, "_meet_in_shared_face", pairs)
    from_generators = cones_mod.Cone.from_generators.__func__

    def counting_from_generators(cls, generators, ambient_rank):
        built.append(frozenset(tuple(g) for g in generators))
        return from_generators(cls, generators, ambient_rank)

    monkeypatch.setattr(cones_mod.Cone, "from_generators", classmethod(counting_from_generators))
    assert main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "errors": []}
    assert pairs == []
    assert len(built) <= len(cones) and len(set(built)) == len(built)


# sixteen rays in counterclockwise order and the cones on consecutive rays,
# with {13, 14} replaced by {13, 15}: that cone contains {14, 15}, and the
# two sort last, so theirs is the last of the 120 pairs compared
POLYGON_RAYS = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1),
                (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -2), (1, -1), (2, -1)]
POLYGON_CONES = [[k, (k + 1) % 16] for k in range(16) if k != 13]
OVERLAP_CONE = [13, 15]


def evenly_spaced_rays(n):
    """n evenly spaced of the primitive vectors with entries in [-13, 13], in
    angular order."""
    pool = sorted({(a // math.gcd(a, b), b // math.gcd(a, b))
                   for a in range(-13, 14) for b in range(-13, 14) if a or b},
                  key=lambda v: math.atan2(v[1], v[0]))
    return [pool[k * len(pool) // n] for k in range(n)]


def test_no_pair_of_the_polygon_enumerates_circuits(monkeypatch):
    # every pair, disjoint or sharing a ray, is certified by one dual row or
    # by the sum of the rows off the shared ray, from either side, except
    # the overlapping one: ray 14 lies inside the cone {13, 15}, which refuses it
    calls = []
    counting(monkeypatch, fan_mod, "circuit_vectors", calls)
    with pytest.raises(IntersectionNotFace) as info:
        validate_fan(POLYGON_RAYS, POLYGON_CONES + [OVERLAP_CONE], 2)
    assert info.value.cone_pair == ((13, 15), (14, 15))
    assert calls == []
    calls.clear()
    fan = validate_fan(POLYGON_RAYS, POLYGON_CONES, 2)  # valid, with a hole at {13, 14}
    assert len(fan.maximal_cones) == 15 and not is_complete(fan)
    assert calls == []


def test_sign_masks_leave_few_pairs_to_the_exact_test(monkeypatch):
    # the masks certify in bulk what one dual row of either cone certifies;
    # only the pairs left reach _meet_in_shared_face. On the polygon these
    # are the seven pairs of cones whose rays no single row separates
    # (each row vanishes on one ray of the other cone); the overlap is
    # refused before it, as ray 14 lies inside the cone {13, 15}.
    pairs, circuits = [], []
    counting(monkeypatch, fan_mod, "circuit_vectors", circuits)
    meet = fan_mod._meet_in_shared_face

    def recording_meet(fan, c1, c2):
        pairs.append((c1, c2))
        return meet(fan, c1, c2)

    monkeypatch.setattr(fan_mod, "_meet_in_shared_face", recording_meet)
    with pytest.raises(IntersectionNotFace) as info:
        validate_fan(POLYGON_RAYS, POLYGON_CONES + [OVERLAP_CONE], 2)
    assert info.value.cone_pair == ((13, 15), (14, 15))
    assert circuits == []
    assert pairs == [((0, 1), (8, 9)), ((0, 15), (7, 8)), ((1, 2), (9, 10)), ((2, 3), (10, 11)),
                     ((3, 4), (11, 12)), ((4, 5), (12, 13)), ((6, 7), (14, 15))]
    # 300 evenly spaced rays and the cones on consecutive rays but the last:
    # 44,551 pairs. Ray k + 150 is -(ray k), so the cones {k, k + 1} and
    # {k + 150, k + 151} are the only pairs no single row separates.
    rays = evenly_spaced_rays(300)
    cones = [[k, k + 1] for k in range(299)]
    pairs.clear()
    circuits.clear()
    fan = validate_fan(rays, cones, 2)
    assert len(fan.maximal_cones) == 299 and not is_complete(fan)
    assert pairs == [((k, k + 1), (k + 150, k + 151)) for k in range(149)] and circuits == []


def test_the_exact_pair_test_sums_rows_from_both_sides(monkeypatch):
    # the masks ran the single-row tests of both cones, so a pair left to
    # _meet_in_shared_face tries the sum of the first cone's rows off the
    # shared rays, then the second cone's, then its circuits
    pairs, sums, circuits = [], [], []
    counting(monkeypatch, fan_mod, "circuit_vectors", circuits)
    meet, separates = fan_mod._meet_in_shared_face, fan_mod._separates

    def recording_meet(fan, c1, c2):
        pairs.append((c1, c2))
        return meet(fan, c1, c2)

    def recording_separates(fan, c1, c2, shared):
        sums.append((c1, c2))
        return separates(fan, c1, c2, shared)

    monkeypatch.setattr(fan_mod, "_meet_in_shared_face", recording_meet)
    monkeypatch.setattr(fan_mod, "_separates", recording_separates)
    with pytest.raises(IntersectionNotFace) as info:
        validate_fan(POLYGON_RAYS, POLYGON_CONES + [OVERLAP_CONE], 2)
    assert info.value.cone_pair == ((13, 15), (14, 15))
    # the first cone's row sum certifies each of the seven pairs left; the
    # overlapping pair never reaches the exact test
    assert len(pairs) == 7 and sums == pairs and circuits == []
    # the two triangles of a star of David in the plane z = 1: no vertex of
    # one lies inside the other, and neither cone's row sum separates them
    pairs.clear()
    sums.clear()
    with pytest.raises(IntersectionNotFace) as info:
        validate_fan([(0, 2, 1), (-2, -1, 1), (2, -1, 1), (0, -2, 1), (2, 1, 1), (-2, 1, 1)],
                     [[0, 1, 2], [3, 4, 5]])
    assert info.value.cone_pair == ((0, 1, 2), (3, 4, 5))
    assert pairs == [((0, 1, 2), (3, 4, 5))]
    assert sums == pairs + [((3, 4, 5), (0, 1, 2))] and len(circuits) == 1


@pytest.mark.parametrize("command", [["validate"], ["stabilizer", "--cone", "0,2,4"],
                                     ["mfr", "--cone", "0,2,4"]],
                         ids=["validate", "stabilizer", "mfr"])
def test_commands_other_than_report_list_no_face(tmp_path, monkeypatch, capsys, command):
    d = 3
    rays = [e for i in range(d) for e in ([int(j == i) for j in range(d)],
                                          [-int(j == i) for j in range(d)])]
    cones = [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=d)]
    path = tmp_path / "p1_cubed.json"
    path.write_text(json.dumps({"rank": d, "rays": rays, "max_cones": cones}), encoding="utf-8")
    fans, listed, validated, ray_checks = [], [], [], []
    checked_fan = fan_mod._checked_fan

    def keeping_checked_fan(*args):
        fans.append(checked_fan(*args))
        return fans[-1]

    monkeypatch.setattr(fan_mod, "_checked_fan", keeping_checked_fan)
    # the document is normalized and its rays checked once, by
    # stacky_fan_violations; the public validate_fan is not called
    counting(monkeypatch, fan_mod, "validate_fan", validated)
    counting(monkeypatch, fan_mod, "_ray_violations", ray_checks)
    # a report walks the faces of each maximal cone, and nothing else lists one
    counting(monkeypatch, cli_mod, "combinations", listed)
    assert not hasattr(Fan, "cones")
    assert main([command[0], str(path), *command[1:]]) == 0
    capsys.readouterr()
    assert len(fans) == 1 and listed == []
    assert validated == [] and len(ray_checks) == 1
    assert main(["report", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["fan"]["num_cones"] == 27  # 3^3 faces
    # combinations(c, k), k = 0..3, per maximal cone, and once per k the
    # faces' bit masks over the positions of a cone of 3 rays
    assert len(listed) == 8 * 4 + 4
    assert len(fans) == 2 and validated == [] and len(ray_checks) == 2


class Watched(tuple):
    """A cone key that counts the membership tests and walks made on it."""

    reads = 0

    def __contains__(self, item):
        Watched.reads += 1
        return super().__contains__(item)

    def __iter__(self):
        Watched.reads += 1
        return super().__iter__()


def test_boundary_divisors_read_only_the_cones_on_each_ray():
    # each chart writes the divisor coordinates of its own rays, so the
    # report's reads of its cones grow with the fan: doubling a polygon
    # doubles them, where a sweep of every maximal cone for every ray would
    # add n^2 membership tests (4,096 on 64 rays, against about 1,100)
    reads = []
    for n in (32, 64):
        rays = evenly_spaced_rays(n)
        sf = StackyFan.build(validate_fan(rays, [[k, (k + 1) % n] for k in range(n)], 2))
        fan = sf.fan
        watched = StackyFan(Fan(2, fan.rays, tuple(map(Watched, fan.maximal_cones))), sf.levels)
        doc = FanDocument(2, rays, list(fan.maximal_cones))
        Watched.reads = 0
        divisors = built(report_data(doc, watched))["boundary_divisors"]
        reads.append(Watched.reads)
        assert divisors == built(report_data(doc, sf))["boundary_divisors"]
        assert [set(d["chart_coordinates"]) for d in divisors] \
            == [{cone_id(c) for c in fan.maximal_cones if k in c} for k in range(n)]
    assert reads[1] <= 2 * reads[0] + 8, reads


def test_normalize_accepts_exactly_the_faces_of_maximal_cones():
    fan = validate_fan(OCTAGON_RAYS, OCTAGON_CONES)
    assert fan.normalize([]) == ()
    assert fan.normalize([1, 0, 1]) == (0, 1)
    assert fan.normalize([7]) == (7,)
    assert fan.normalize([0, 7]) == (0, 7)
    for key in ([0, 2], [0, 1, 2], [3, 7], [-1], [8], [0, 8]):
        with pytest.raises(ConeNotInFan):
            fan.normalize(key)
    assert "cones" not in fan.__dict__
    # a listed zero cone or face is no maximal cone
    listed = validate_fan(OCTAGON_RAYS, [[]] + OCTAGON_CONES + [[3]])
    assert listed.maximal_cones == fan.maximal_cones
    unused = validate_fan([(1, 0), (0, 1), (-1, -1)], [[0, 1]])
    assert unused.normalize([1]) == (1,)
    with pytest.raises(ConeNotInFan):
        unused.normalize([2])  # a ray that lies in no cone

"""Work that must not grow faster than the fan, counted in calls rather than
timed: a lower-dimensional chart's multiplicity takes no sweep over maximal
minors, validating a complete fan compares no pair of cones and builds at
most one ``Cone`` per maximal cone, an incomplete fan enumerates circuits
only for a pair that no dual row certifies and sends fewer pairs than cones
to the exact pair test when one row of the first cone certifies most of
them, only a report lists the faces
of a cone, and each boundary divisor reads only the cones on its own ray."""

import json
import math
from itertools import product

import pytest

from toristack import charts as charts_mod
from toristack import cones as cones_mod
from toristack import stackyfan as fan_mod
from toristack.charts import boundary_divisors_from_charts, local_chart
from toristack.cli import main
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


def test_only_the_overlapping_pair_enumerates_circuits(monkeypatch):
    # every other pair, disjoint or sharing a ray, is certified by one dual
    # row or by the sum of the rows off the shared ray, from either side
    calls = []
    counting(monkeypatch, fan_mod, "circuit_vectors", calls)
    with pytest.raises(IntersectionNotFace) as info:
        validate_fan(POLYGON_RAYS, POLYGON_CONES + [OVERLAP_CONE], 2)
    assert info.value.cone_pair == ((13, 15), (14, 15))
    assert len(calls) == 1
    calls.clear()
    fan = validate_fan(POLYGON_RAYS, POLYGON_CONES, 2)  # valid, with a hole at {13, 14}
    assert len(fan.maximal_cones) == 15 and not is_complete(fan)
    assert calls == []


def test_sign_masks_leave_few_pairs_to_the_exact_test(monkeypatch):
    # the masks certify in bulk what one dual row of the first cone
    # certifies; only the pairs left reach _meet_in_shared_face
    pairs, circuits = [], []
    counting(monkeypatch, fan_mod, "_meet_in_shared_face", pairs)
    counting(monkeypatch, fan_mod, "circuit_vectors", circuits)
    with pytest.raises(IntersectionNotFace) as info:
        validate_fan(POLYGON_RAYS, POLYGON_CONES + [OVERLAP_CONE], 2)
    assert info.value.cone_pair == ((13, 15), (14, 15))
    assert len(circuits) == 1 and len(pairs) < 16
    # 300 evenly spaced of the primitive vectors with entries in [-13, 13],
    # in angular order, and the cones on consecutive rays but the last: 44,551 pairs
    pool = sorted({(a // math.gcd(a, b), b // math.gcd(a, b))
                   for a in range(-13, 14) for b in range(-13, 14) if a or b},
                  key=lambda v: math.atan2(v[1], v[0]))
    rays = [pool[k * len(pool) // 300] for k in range(300)]
    cones = [[k, k + 1] for k in range(299)]
    pairs.clear()
    circuits.clear()
    fan = validate_fan(rays, cones, 2)
    assert len(fan.maximal_cones) == 299 and not is_complete(fan)
    assert 0 < len(pairs) < len(fan.maximal_cones) and circuits == []


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
    fans = []
    validate = fan_mod.validate_fan

    def keeping_validate_fan(*args):
        fans.append(validate(*args))
        return fans[-1]

    monkeypatch.setattr(fan_mod, "validate_fan", keeping_validate_fan)
    assert main([command[0], str(path), *command[1:]]) == 0
    capsys.readouterr()
    assert len(fans) == 1 and "cones" not in fans[0].__dict__
    assert len(fans[0].cones) == 27  # listed on first read: (P^1)^3 has 3^3 cones


class Watched(tuple):
    """A cone key that counts the membership tests and walks made on it."""

    reads = 0

    def __contains__(self, item):
        Watched.reads += 1
        return super().__contains__(item)

    def __iter__(self):
        Watched.reads += 1
        return super().__iter__()


class CountingCharts(dict):
    def __getitem__(self, key):
        Watched.reads += 1
        return super().__getitem__(key)


def test_boundary_divisors_read_only_the_cones_on_each_ray():
    sf = StackyFan.build(validate_fan(OCTAGON_RAYS, OCTAGON_CONES))
    charts = CountingCharts({c: local_chart(sf, c) for c in sf.fan.maximal_cones})
    fan = sf.fan
    watched = StackyFan(Fan(fan.ambient_rank, fan.rays, tuple(map(Watched, fan.maximal_cones))),
                        sf.levels)
    watched.fan.cones_by_ray  # the fan's index, built once per fan
    Watched.reads = 0
    divisors = boundary_divisors_from_charts(watched, charts)
    # one read per ray of each maximal cone: 16, where a sweep of every
    # maximal cone for every ray makes 64 membership tests
    assert Watched.reads == sum(map(len, fan.maximal_cones)) == 16
    assert divisors == boundary_divisors_from_charts(sf, dict(charts))


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

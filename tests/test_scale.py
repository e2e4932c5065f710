"""Work that must not grow faster than the fan, counted in calls rather than
timed: a lower-dimensional chart's multiplicity takes no sweep over maximal
minors, and validating a complete fan compares no pair of cones and builds
at most one ``Cone`` per maximal cone."""

import json
from itertools import product

from toristack import charts as charts_mod
from toristack import cones as cones_mod
from toristack import stackyfan as fan_mod
from toristack.charts import local_chart
from toristack.cli import main
from toristack.stackyfan import StackyFan, validate_fan


def counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_nine_ray_chart_in_rank_18_sweeps_no_minors(monkeypatch):
    # C(18, 9) = 48,620 maximal minors would give the multiplicity; one Smith
    # diagonal of the rays does, and a second one gives the group
    d, r = 18, 9
    rays = [tuple(int(j == i) + int(j == i + r) * (i + 2) for j in range(d)) for i in range(r)]
    sf = StackyFan.build(validate_fan(rays, [list(range(r))], d), {0: 3})
    calls = []
    for name in ("determinant", "smith_elimination"):
        counting(monkeypatch, charts_mod, name, calls)
    chart = local_chart(sf, range(r))
    assert calls.count("determinant") == 0
    assert calls.count("smith_elimination") == 2
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

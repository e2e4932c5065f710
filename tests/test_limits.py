"""Lattice walks over ``monoids.MAX_LATTICE_POINTS`` and reports over
``cli.MAX_REPORT_FACES`` fail fast with exit 4, and a rank over
``cli.MAX_RANK`` or a ray entry or level at ``cli.ENTRY_LIMIT`` with exit 2.

Each case that could run away runs in its own process with a timeout, so a
walk that ignored the limit fails the test instead of hanging the suite.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from toristack import cli, monoids
from toristack.cli import ENTRY_LIMIT, MAX_RANK, MAX_REPORT_FACES, DocumentParseError, main
from toristack.cones import Cone, dual_cone
from toristack.monoids import LatticeWalkTooLarge, hilbert_basis
from toristack.stackyfan import FanError

ROOT = Path(__file__).resolve().parent.parent


def one_cone_doc(tmp_path, last_ray):
    d = len(last_ray)
    rays = [[int(i == j) for j in range(d)] for i in range(d - 1)] + [list(last_ray)]
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rank": d, "rays": rays, "max_cones": [list(range(d))]}),
                    encoding="utf-8")
    return path


def run_toristack(*args, timeout=60):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "toristack", *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=timeout)


@pytest.mark.parametrize("command", [["mfr", "--cone", "0,1,2,3"], ["report"]])
def test_rank_four_m300_cone_exits_4(tmp_path, command):
    # the dual cone has 300^3 = 2.7e7 parallelepiped points
    path = one_cone_doc(tmp_path, (1, 1, 1, 300))
    proc = run_toristack(command[0], path, *command[1:], timeout=30)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("limit exceeded: Hilbert basis over cone [0,1,2,3] would visit "
                           "27000000 lattice points, above the limit of 1000000\n")


def test_rank_two_basis_over_the_limit_exits_4(tmp_path):
    # the dual of <e1, (m, m+1)> has m + 2 basis elements, counted before
    # any is built
    path = one_cone_doc(tmp_path, (10 ** 7, 10 ** 7 + 1))
    proc = run_toristack("mfr", path, "--cone", "0,1", timeout=30)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == ("limit exceeded: Hilbert basis over cone [0,1] would visit "
                           "10000002 lattice points, above the limit of 1000000\n")


def test_rank_three_m500_cone_still_succeeds(tmp_path):
    # 500^2 = 250,000 points: under the limit
    path = one_cone_doc(tmp_path, (1, 1, 500))
    proc = run_toristack("mfr", path, "--cone", "0,1,2", timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["saturation_check"] is True
    assert len(data["hilbert_basis"]) == 504


@pytest.mark.parametrize("rank", [27, 64])
@pytest.mark.parametrize("command", ["validate", "stabilizer", "mfr"])
def test_unimodular_cone_of_high_rank_succeeds(tmp_path, command, rank):
    # no face of the cone is built, and the saturation check reads each of
    # the r generators once
    path = one_cone_doc(tmp_path, [int(j == rank - 1) for j in range(rank)])
    cone = [] if command == "validate" else ["--cone", ",".join(map(str, range(rank)))]
    proc = run_toristack(command, path, *cone, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    if command == "mfr":
        assert data["saturation_check"] is True and data["denominators"] == [1] * rank
    elif command == "stabilizer":
        assert data["stabilizer"]["order"] == 1


@pytest.mark.parametrize("rank", [27, 64])
def test_report_on_a_cone_of_high_rank_exits_4(tmp_path, rank):
    path = one_cone_doc(tmp_path, [int(j == rank - 1) for j in range(rank)])
    proc = run_toristack("report", path, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (f"limit exceeded: report would list {2 ** rank} cycle ideals, "
                           f"above the limit of {MAX_REPORT_FACES}\n")


def test_report_budget_is_checked_against_the_face_count(monkeypatch, capsys):
    # P^2: three maximal 2-cones, four faces each
    path = str(ROOT / "tests" / "fixtures" / "p2.json")
    monkeypatch.setattr(cli, "MAX_REPORT_FACES", 12)
    assert main(["report", path]) == 0
    charts = json.loads(capsys.readouterr().out)["charts"]
    assert sum(len(chart["cycle_ideals"]) for chart in charts) == 12
    monkeypatch.setattr(cli, "MAX_REPORT_FACES", 11)
    assert main(["report", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("limit exceeded: report would list 12 cycle ideals, "
                            "above the limit of 11\n")


def test_rank_above_the_limit_exits_2(tmp_path):
    # a torus fan takes seconds to report at rank 200, and longer than the
    # timeout at rank 3000; the limit refuses it before any work
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"rank": 3000, "rays": [], "max_cones": []}), encoding="utf-8")
    proc = run_toristack("report", path, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"parse error: 'rank' 3000 is above the limit of {MAX_RANK}\n"


def test_rank_at_the_limit_reports(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"rank": MAX_RANK, "rays": [], "max_cones": []}),
                    encoding="utf-8")
    proc = run_toristack("report", path, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["fan"]["rank"] == MAX_RANK


@pytest.mark.parametrize("command", [["validate"], ["stabilizer", "--cone", "0,1"], ["report"]],
                         ids=["validate", "stabilizer", "report"])
def test_ray_entries_of_3000_digits_exit_2(tmp_path, capsys, command):
    # their multiplicity, the stabilizer's order, would have 6,000 digits:
    # more than Python writes as a decimal string
    path = tmp_path / "long.json"
    rays = [[int("7" * 3000), 1], [1, int("3" * 3000)]]
    path.write_text(json.dumps({"rank": 2, "rays": rays, "max_cones": [[0, 1]]}),
                    encoding="utf-8")
    assert main([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr().err == ("parse error: ray 0 has an entry of absolute value "
                                       "2^64 or more\n")


@pytest.mark.parametrize("ray, level", [((ENTRY_LIMIT, 1), 1), ((1, -ENTRY_LIMIT), 1),
                                        ((1, 1), ENTRY_LIMIT), ((1, 1), -ENTRY_LIMIT)],
                         ids=["entry", "negative-entry", "level", "negative-level"])
def test_entry_or_level_at_the_limit_exits_2(tmp_path, capsys, ray, level):
    path = tmp_path / "limit.json"
    path.write_text(json.dumps({"rank": 2, "rays": [[1, 0], list(ray)], "max_cones": [[0, 1]],
                                "levels": {"1": level}}), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.endswith("absolute value 2^64 or more\n")


BOUND = ENTRY_LIMIT - 1


def unitriangular(d):
    """d rays with every entry above the diagonal at the bound: a smooth cone."""
    return [[0] * i + [1] + [BOUND] * (d - i - 1) for i in range(d)]


def two_rays(d):
    """Two rays that differ by BOUND e_1: a cone of multiplicity BOUND."""
    return [[1, 0] + [BOUND] * (d - 2), [1] + [BOUND] * (d - 1)]


@pytest.mark.parametrize("rank, rays", [(d, unitriangular(d)) for d in (2, 3, 4, 6)]
                         + [(d, two_rays(d)) for d in (3, 5, 8)],
                         ids=["full-2", "full-3", "full-4", "full-6",
                              "two-rays-3", "two-rays-5", "two-rays-8"])
def test_entries_and_levels_below_the_limit_succeed(tmp_path, capsys, rank, rays):
    path = tmp_path / "bound.json"
    path.write_text(json.dumps({"rank": rank, "rays": rays, "max_cones": [list(range(len(rays)))],
                                "levels": {str(i): BOUND for i in range(len(rays))}}),
                    encoding="utf-8")
    cone = ",".join(map(str, range(len(rays))))
    for command in (["validate"], ["stabilizer", "--cone", cone], ["mfr", "--cone", cone],
                    ["report"]):
        assert main([command[0], str(path), *command[1:]]) == 0, capsys.readouterr().err
    capsys.readouterr()


def test_refusal_allocates_no_points(tmp_path, capsys):
    path = one_cone_doc(tmp_path, (1, 1, 1, 300))
    tracemalloc.start()
    try:
        code = main(["mfr", str(path), "--cone", "0,1,2,3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert "cone [0,1,2,3]" in capsys.readouterr().err
    assert peak < 2 * 10 ** 6


def test_limit_is_checked_against_the_point_count(monkeypatch):
    c = dual_cone(Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 10)], 3))
    monkeypatch.setattr(monoids, "MAX_LATTICE_POINTS", 99)
    with pytest.raises(LatticeWalkTooLarge) as info:
        hilbert_basis(c)
    assert info.value.points == 100 and info.value.cone is None
    assert str(info.value) == ("Hilbert basis would visit 100 lattice points, "
                               "above the limit of 99")
    monkeypatch.setattr(monoids, "MAX_LATTICE_POINTS", 100)
    assert len(hilbert_basis(c)) == 14


def test_limit_error_is_no_fan_or_parse_error():
    assert not issubclass(LatticeWalkTooLarge, (FanError, DocumentParseError))


def test_walk_over_the_limit_is_refused_before_any_chart(tmp_path, monkeypatch, capsys):
    # one cone of 12 random rays with 62-bit entries validates at once; its
    # dual's parallelepiped is far over the limit, and the report refuses it
    # before it builds any chart or face group, wherever a module binds them
    import random

    from toristack import charts
    from toristack.linalg import primitive_vector

    rng = random.Random(12)
    rays = [list(primitive_vector([rng.randrange(-2 ** 62, 2 ** 62) for _ in range(12)]))
            for _ in range(12)]
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rank": 12, "rays": rays, "max_cones": [list(range(12))]}),
                    encoding="utf-8")
    calls = []
    for name in ("local_chart", "face_group"):
        original = getattr(charts, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("toristack") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    assert main(["report", str(path)]) == 4
    assert capsys.readouterr().err.startswith(
        "limit exceeded: Hilbert basis over cone [0,1,2,3,4,5,6,7,8,9,10,11] would visit ")
    assert calls == []

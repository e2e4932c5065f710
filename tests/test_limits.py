"""Lattice walks over ``monoids.MAX_LATTICE_POINTS`` fail fast with exit 4,
and a rank over ``cli.MAX_RANK`` with exit 2.

Each CLI case runs in its own process with a timeout, so a walk that ignored
the limit fails the test instead of hanging the suite.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from toristack import monoids
from toristack.cli import MAX_RANK, DocumentParseError, main
from toristack.cones import Cone, dual_cone
from toristack.monoids import (
    LatticeWalkTooLarge,
    hilbert_basis,
    minimal_free_resolution,
    monoid_from_cone,
    saturation_intersection_check,
)
from toristack.stackyfan import FanError

ROOT = Path(__file__).resolve().parent.parent


def one_cone_doc(tmp_path, last_ray):
    d = len(last_ray)
    rays = [[int(i == j) for j in range(d)] for i in range(d - 1)] + [list(last_ray)]
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rank": d, "rays": rays, "max_cones": [list(range(d))]}),
                    encoding="utf-8")
    return path


def run_toristack(*args, env_extra=None, timeout=60):
    env = {k: v for k, v in os.environ.items() if k != "TORISTACK_DEGREE_BOUND"}
    env.update(PYTHONPATH=str(ROOT / "src"), **(env_extra or {}))
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


def test_degree_bound_100000_exits_4():
    proc = run_toristack("mfr", "tests/fixtures/p2.json", "--cone", "0,1",
                         env_extra={"TORISTACK_DEGREE_BOUND": "100000"}, timeout=30)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    # C(100002, 2) - 1 nonzero elements of coordinate sum <= 100000
    assert proc.stderr == ("limit exceeded: saturation check over cone [0,1] would visit "
                           "5000150000 lattice points, above the limit of 1000000\n")


def test_rank_three_m500_cone_still_succeeds(tmp_path):
    # 500^2 = 250,000 points: under the limit
    path = one_cone_doc(tmp_path, (1, 1, 500))
    proc = run_toristack("mfr", path, "--cone", "0,1,2", timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["saturation_check"] is True
    assert len(data["hilbert_basis"]) == 504


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
    res = minimal_free_resolution(monoid_from_cone(Cone.from_generators([(1, 0), (0, 1)], 2)))
    # C(6 + 2, 2) - 1 = 27 nonzero elements of degree <= 6
    monkeypatch.setattr(monoids, "MAX_LATTICE_POINTS", 26)
    with pytest.raises(LatticeWalkTooLarge, match="would visit 27 lattice points"):
        saturation_intersection_check(res, 6)
    monkeypatch.setattr(monoids, "MAX_LATTICE_POINTS", 27)
    assert saturation_intersection_check(res, 6)


def test_limit_error_is_no_fan_or_parse_error():
    assert not issubclass(LatticeWalkTooLarge, (FanError, DocumentParseError))

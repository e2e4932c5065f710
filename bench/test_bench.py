"""Fast tests of the benchmark itself: ``python3 -m pytest -q bench``.

They check that the documents are a pure function of the seed, that the
changes of coordinates are unimodular, that no document repeats within a
run, and that every checker rejects a corrupted answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import checks  # noqa: E402
import docs  # noqa: E402
import kernel  # noqa: E402
import lattice  # noqa: E402
import oracles  # noqa: E402
from toristack import cli  # noqa: E402

WORKLOADS = ("fans", "cones", "rejects")


def run_cli(tmp_path, op):
    path = tmp_path / "doc.json"
    path.write_text(op.text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op.argv + [str(path)])
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_documents(workload):
    first = [(op.argv, op.text) for op in docs.run_ops(workload, 7, 2)]
    again = [(op.argv, op.text) for op in docs.run_ops(workload, 7, 2)]
    other = [(op.argv, op.text) for op in docs.run_ops(workload, 8, 2)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_document_repeats(workload):
    for seed in range(3):
        keys = [op.key() for op in docs.run_ops(workload, seed, 3)]
        assert len(keys) == len(set(keys))


def test_changes_of_coordinates_are_unimodular():
    rng = random.Random(1)
    for _ in range(500):
        d = rng.randint(2, 4)
        assert abs(lattice.determinant(docs.random_unimodular(rng, d))) == 1


def test_rounds_have_a_fixed_make_up():
    for workload in WORKLOADS:
        shapes = {tuple((op.kind, tuple(op.argv), op.expect_rc, op.known_fault)
                        for op in docs.run_ops(workload, seed, 1)) for seed in range(4)}
        assert len(shapes) == 1


def test_continued_fraction_matches_box_oracle():
    rng = random.Random(3)
    for _ in range(200):
        rays = [lattice.primitive([rng.randint(-7, 7) for _ in range(2)]) for _ in range(2)]
        if lattice.determinant(rays) == 0:
            continue
        u, w = lattice.dual_rays(rays)
        assert lattice.hj_hilbert_basis(u, w) == set(map(tuple, oracles.box_hilbert_basis([u, w], 2)))


def test_index_of_rays():
    assert lattice.index_of_rays([[1, 0, 0], [0, 1, 0], [1, 1, 5]]) == 5
    assert lattice.index_of_rays([[1, 1, 0], [1, -1, 0]]) == 2
    assert lattice.index_of_rays([[2, 4, 6]]) == 2


def test_kernel_sampler_times_the_work_it_interrupts():
    assert kernel.reference_kernel() == kernel.CHECKSUM
    with kernel.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        end = time.perf_counter()
    assert len(sampler.durations) >= 5
    assert 0 < sampler.busy(start, end) < end - start
    assert sampler.scale(start, end) > 0
    assert sampler.scale(end + 10, end + 11) > 0  # widens its window when empty


def first_op(workload, command, seed=0):
    return next(op for op in docs.run_ops(workload, seed, 1) if op.argv[0] == command)


def test_hilbert_basis_with_one_element_dropped_is_rejected(tmp_path):
    corrupted = 0
    for op in docs.run_ops("cones", 0, 1):
        if op.argv[0] != "mfr":
            continue
        rc, out, err = run_cli(tmp_path, op)
        assert rc == 0
        data = json.loads(out)
        assert checks.check("cones", op, rc, out, err, oracles) == []
        # drop an element that is not a dual ray, so only an independent
        # basis can notice
        dual = {tuple(r) for r in lattice.dual_rays(op.doc["rays"])}
        inverse = lattice.unimodular_inverse(data["splitting_basis"])
        inner = [h for h in data["hilbert_basis"] if tuple(lattice.apply(inverse, h)) not in dual]
        if not inner or checks.expected_hilbert_basis(op, oracles) is None:
            continue
        data["hilbert_basis"].remove(inner[0])
        assert checks.check("cones", op, rc, json.dumps(data), err, oracles)
        corrupted += 1
    assert corrupted >= 2


def test_stabilizer_off_by_a_factor_is_rejected(tmp_path):
    op = first_op("cones", "stabilizer")
    rc, out, err = run_cli(tmp_path, op)
    assert rc == 0 and checks.check("cones", op, rc, out, err, oracles) == []
    data = json.loads(out)
    data["stabilizer"]["order"] *= 2
    data["stabilizer"]["invariant_factors"][-1] *= 2
    assert checks.check("cones", op, rc, json.dumps(data), err, oracles)


def test_report_with_a_wrong_multiplicity_is_rejected(tmp_path):
    op = first_op("fans", "report")
    rc, out, err = run_cli(tmp_path, op)
    assert rc == 0 and checks.check("fans", op, rc, out, err, oracles) == []
    data = json.loads(out)
    data["cones"][-1]["multiplicity"] += 1
    assert checks.check("fans", op, rc, json.dumps(data), err, oracles)
    data = json.loads(out)
    data["fan"]["tame"] = not data["fan"]["tame"]
    assert checks.check("fans", op, rc, json.dumps(data), err, oracles)


def test_wrong_exit_code_and_error_code_are_rejected(tmp_path):
    ops = docs.run_ops("rejects", 0, 1)
    parse = next(op for op in ops if op.expect_rc == 2 and not op.known_fault)
    overlap = next(op for op in ops if op.kind == "overlap" and op.argv[0] == "validate")
    for op in (parse, overlap):
        rc, out, err = run_cli(tmp_path, op)
        assert rc == op.expect_rc and checks.check("rejects", op, rc, out, err, oracles) == []
    # a validation failure where a parse error is documented
    assert checks.check("rejects", parse, 1, "", "validation error: bad\n", oracles)
    assert checks.check("rejects", parse, 2, "", "validation error: bad\n", oracles)
    # a different error code than the one the document was built to raise
    wrong = json.dumps({"ok": False, "errors": [{"code": "NonSimplicial", "message": ""}]})
    assert checks.check("rejects", overlap, 1, wrong, "", oracles)


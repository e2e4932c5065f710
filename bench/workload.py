"""One workload run in its own process: ``python3 bench/workload.py ...``.

Started by ``run.py`` with a fixed ``PYTHONHASHSEED`` and ``PYTHONPATH=src``.
It builds the run's fixed list of operations from the seed, writes each
document to a file of its own, and calls ``toristack.cli.main`` in-process
once per operation, the reference kernel timed before and after each one.
With ``--trace 1`` every listed toristack function records spans. Outputs
are checked after the timed phase; one JSON object goes to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import docs  # noqa: E402
import kernel  # noqa: E402
import oracles  # noqa: E402
import toristack  # noqa: E402
from toristack import cli  # noqa: E402
from tracing import Tracer  # noqa: E402

# Scaled seconds one round of each workload takes on the reference host. A
# run is a fixed list of whole rounds, as many as fill --seconds at that
# speed, so its operations, counts and memory depend only on the arguments.
ROUND_SCALED_S = {"fans": 8.0, "cones": 1.8, "rejects": 0.22}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SCALED_S[workload]))


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten operations above it."""
    return max(50, math.floor(100 * (count - 10) / count)) if count >= 40 else 50


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def call_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as e:  # a crash is a failed operation, not a harness error
            rc = None
            err.write(f"uncaught {type(e).__name__}: {e}\n")
    return rc, out.getvalue(), err.getvalue()


def warm_up(workdir: Path) -> None:
    """Run each command once on a document no listed operation uses."""
    path = workdir / "warmup.json"
    path.write_text('{"rank":1,"rays":[[1],[-1]],"max_cones":[[0],[1]]}', encoding="utf-8")
    for argv in (["validate"], ["report"], ["report", "--format", "text"],
                 ["mfr", "--cone", "0"], ["stabilizer", "--cone", "0"]):
        call_cli(argv + [str(path)])
    for _ in range(5):
        kernel.reference_kernel()


def timed_phase(ops, paths, tracer):
    """Run every operation; returns (rc, stdout, stderr, seconds, scale) each.

    ``seconds`` excludes the kernel samples taken during the operation and
    ``scale`` comes from the samples around it.
    """
    spans = []
    with kernel.Sampler() as sampler:
        for i, (op, path) in enumerate(zip(ops, paths)):
            # collect what the previous operation left, then move every live
            # object out of the collector's sight, so that each operation's
            # collections see only its own objects, as in a fresh CLI process
            gc.collect()
            gc.freeze()
            root = tracer.begin(i) if tracer else None
            start = time.perf_counter()
            rc, out, err = call_cli(op.argv + [path])
            end = time.perf_counter()
            if tracer:
                tracer.end(root, start, end)
            spans.append((rc, out, err, start, end))
    results = [(rc, out, err, end - start - sampler.busy(start, end), sampler.scale(start, end))
               for rc, out, err, start, end in spans]
    return results, sampler


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = docs.run_ops(workload, seed, rounds_for(workload, seconds))
    workdir = ROOT / ".bench_run" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        paths = []
        for i, op in enumerate(ops):
            path = workdir / f"{i}.json"
            path.write_text(op.text, encoding="utf-8")
            paths.append(str(path))
        warm_up(workdir)
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install(toristack)
        wall_start = time.perf_counter()
        results, sampler = timed_phase(ops, paths, tracer)
        wall = time.perf_counter() - wall_start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()

    failed, problems, cones_reported = 0, [], 0
    scaled_ok = []
    for op, (rc, out, err, seconds_taken, scale) in zip(ops, results):
        if rc != op.expect_rc:
            failed += 1
            if not op.known_fault:
                problems.append(f"{op.kind} {op.argv}: exit {rc}, documented {op.expect_rc}: "
                                f"{err.strip()[:300]}")
            continue
        for problem in checks.check(workload, op, rc, out, err, oracles):
            problems.append(f"{op.kind} {op.argv}: {problem}")
        scaled_ok.append(seconds_taken * scale)
        if rc == 0 and op.argv[0] == "report":
            cones_reported += docs.face_count(op.doc["max_cones"])
        elif rc == 0 and op.argv[0] == "stabilizer":
            cones_reported += 1

    scaled_total = sum(r[3] * r[4] for r in results)
    raw_total = sum(r[3] for r in results)
    tail = tail_percentile(len(scaled_ok))
    summary = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": len(ops), "failed": failed, "problems": problems,
        "raw_op_s": raw_total, "scaled_op_s": scaled_total, "wall_s": wall,
        "scale": sampler.run_scale(), "kernel_samples": len(sampler.durations),
        "tail_percentile": tail, "timed_ops": len(scaled_ok),
    }
    if trace:
        summary["metrics"] = tracer.layer_metrics([r[4] for r in results], cones_reported)
    else:
        summary["metrics"] = {
            "ops_per_s": (len(ops) - failed) / scaled_total,
            "op_p50_ms": statistics.median(scaled_ok) * 1000.0,
            "op_tail_ms": percentile(scaled_ok, tail) * 1000.0,
            "peak_mb": peak_mb,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SCALED_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""toristack benchmark: ``python3 bench/run.py --workload fans --seed 1``.

Measures the set-up time of the CLI in fresh interpreters, then runs the
workload in a process of its own (``workload.py``) and prints, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics - the end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``. Every time is scaled to the reference kernel's nominal speed
(see ``kernel.py`` and README.md).

``--repeat K`` runs the workload K times with seeds seed .. seed + K - 1
and prints each metric's median, quartiles and spread instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import kernel  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_mb": "MB",
    "setup_s": "s",
}
WORKLOADS = ("fans", "cones", "rejects")
SETUP_RUNS = 9
TIMEOUT_S = 170

# Fixed so that set and dict orders inside toristack repeat from run to run.
CHILD_ENV = {"PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")}

# A fresh interpreter imports the CLI and builds its parser, then times the
# reference kernel a few times so that its own speed scales its own figure
# (the first two calls warm the kernel up).
SETUP_CODE = """
import time
t0 = time.perf_counter()
import toristack.cli
toristack.cli.build_parser()
elapsed = time.perf_counter() - t0
import sys, statistics
sys.path.insert(0, {here!r})
import kernel
times = []
for _ in range(10):
    k0 = time.perf_counter()
    kernel.reference_kernel()
    times.append(time.perf_counter() - k0)
print(elapsed, statistics.mean(times[2:]))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def measure_setup() -> float:
    """Median scaled set-up time over several fresh interpreters, in seconds."""
    code = SETUP_CODE.format(here=str(HERE))
    scaled = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, kernel_s = map(float, done.stdout.split())
        if i:  # the first one may compile bytecode
            scaled.append(elapsed * kernel.NOMINAL_S / kernel_s)
    return statistics.median(scaled)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"workload process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the result object the benchmark prints as its last line."""
    summary = run_workload(workload, seed, seconds, trace)
    if trace:
        metrics = {name: {"value": summary["metrics"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values = dict(summary["metrics"], setup_s=measure_setup())
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for problem in summary["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    print(f"# {workload} seed {seed} trace {int(trace)}: {summary['attempted']} operations, "
          f"{summary['failed']} failed; raw op time {summary['raw_op_s']:.3f} s, "
          f"scaled {summary['scaled_op_s']:.3f} s, scale factor {summary['scale']:.4f} "
          f"from {summary['kernel_samples']} kernel samples, "
          f"timed wall {summary['wall_s']:.3f} s, tail percentile p{summary['tail_percentile']} "
          f"of {summary['timed_ops']}")
    return {"correct": not summary["problems"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def repeat(workload: str, seed: int, seconds: float, trace: bool, k: int) -> None:
    """Run k seeds and print each metric's median, quartiles and relative spread."""
    runs = [measure(workload, seed + i, seconds, trace) for i in range(k)]
    print(f"{workload}, seeds {seed}..{seed + k - 1}, trace {int(trace)}")
    print(f"  correct {all(r['correct'] for r in runs)}, failed/attempted "
          f"{sorted({(r['failed'], r['attempted']) for r in runs})}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if k > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:34s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {spread:7.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds and print medians and quartiles")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/toristack/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"run from a toristack checkout; missing {', '.join(missing)}\n")
        return 2
    if args.repeat:
        repeat(args.workload, args.seed, args.seconds, bool(args.trace), args.repeat)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

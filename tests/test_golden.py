"""CLI outputs on the fixtures and on refused documents match the golden files,
and the byte-identity sweep (``golden/sweep.py``) prints its pinned digest."""

import os
import subprocess
import sys

import pytest

from golden.regenerate import HERE, cases, render

# the sweep's line for the current outputs; a change meant to keep every
# output keeps it, and one that changes an output on purpose updates it
SWEEP_LINE = ("5380 commands, sha256 "
              "13887609ff721f502411a5a3352f44df2ea5af23aaf19c62e41a74eaec587144")


def test_golden_files_cover_every_case():
    assert sorted(p.name for p in HERE.glob("*.golden")) == sorted(n for n, _ in cases())


@pytest.mark.parametrize("name,argv", cases(), ids=[n for n, _ in cases()])
def test_golden_output(name, argv):
    assert render(argv).encode() == (HERE / name).read_bytes()


def test_sweep_prints_the_pinned_digest():
    # about 5,000 in-process commands, 7-10 s; the digest does not depend
    # on the hash seed
    root = HERE.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, str(HERE / "sweep.py")], cwd=root, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split(" (exit ")[0] == SWEEP_LINE

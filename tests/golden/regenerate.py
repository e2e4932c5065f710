"""Golden CLI outputs: ``PYTHONPATH=src python tests/golden/regenerate.py``.

Each ``*.golden`` file next to this script holds the exit code, stdout and
stderr of one ``toristack`` command; no environment variable changes
them. The commands are: for every fixture in ``tests/fixtures``, the JSON
and text reports, ``stabilizer`` on its first listed maximal cone and
``mfr`` on every listed maximal cone (the first as ``<fixture>.mfr.golden``,
the cone ``i,j`` as ``<fixture>.mfr-i-j.golden``); for every refused
document in ``refused/``, ``validate`` (JSON and text) and ``report``.
``tests/test_golden.py`` compares the files byte for byte. Only a change
meant to alter output regenerates them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def cases() -> list[tuple[str, list[str]]]:
    """(golden file name, argv with paths relative to the repository root)."""
    out = []
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.json")):
        rel = str(path.relative_to(ROOT))
        first, *others = [[str(i) for i in c] for c in json.loads(path.read_text())["max_cones"]]
        cone = ",".join(first)
        out += [
            (f"{path.stem}.report.golden", ["report", rel]),
            (f"{path.stem}.report-text.golden", ["report", rel, "--format", "text"]),
            (f"{path.stem}.mfr.golden", ["mfr", rel, "--cone", cone]),
            (f"{path.stem}.stabilizer.golden", ["stabilizer", rel, "--cone", cone]),
        ]
        out += [(f"{path.stem}.mfr-{'-'.join(c)}.golden", ["mfr", rel, "--cone", ",".join(c)])
                for c in others]
    for path in sorted((HERE / "refused").glob("*.json")):
        rel = str(path.relative_to(ROOT))
        out += [
            (f"refused-{path.stem}.validate.golden", ["validate", rel]),
            (f"refused-{path.stem}.validate-text.golden", ["validate", rel, "--format", "text"]),
            (f"refused-{path.stem}.report.golden", ["report", rel]),
        ]
    return out


def render(argv: list[str]) -> str:
    """Run one command in-process; its exit code, stdout and stderr as text.

    An argparse usage error reads as its exit code 2, as in a CLI process.
    """
    from toristack.cli import main

    absolute = [str(ROOT / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(absolute)
        except SystemExit as e:
            code = e.code
    stdout, stderr = out.getvalue(), err.getvalue()
    return (f"$ toristack {' '.join(argv)}\n"
            f"exit code: {code}\n"
            f"--- stdout ({len(stdout.encode())} bytes)\n{stdout}"
            f"--- stderr ({len(stderr.encode())} bytes)\n{stderr}")


def main() -> int:
    for name, argv in cases():
        (HERE / name).write_bytes(render(argv).encode())
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())

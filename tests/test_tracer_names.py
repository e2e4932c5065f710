"""The benchmark's tracer (``bench/tracing.py``) finds every function it
wraps by name; each name it reads must still exist on the package, and the
traced run of every workload must still finish with correct results.

``Tracer.install`` is not called in this process: it rebinds the package's
functions for the rest of the process. The traced runs each take their own.
"""

import argparse
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import toristack
import toristack.cli  # noqa: F401  (the tracer wraps functions of the CLI too)
from conftest import FIXTURES

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # tracing imports the bench's lattice module
    fresh = [name for name in ("tracing", "lattice") if name not in sys.modules]
    yield importlib.import_module("tracing")
    for name in fresh:
        sys.modules.pop(name, None)


def test_every_traced_name_exists(tracing):
    for name in tracing.MODULES:
        assert hasattr(toristack, name), name
    for layer, targets in tracing.LAYERS.items():
        for module, attr in targets:
            assert callable(getattr(getattr(toristack, module), attr, None)), (layer, module, attr)
    assert isinstance(toristack.cones.Cone.__dict__["from_generators"], classmethod)
    info = toristack.stackyfan.Fan.cone_geometry.cache_info()
    assert {"hits", "misses"} <= set(info._fields)


def test_some_command_calls_every_traced_cli_name(tracing, monkeypatch, capsys):
    # a stage of the CLI the tracer times but no command calls reads 0 in
    # every traced run; each name is counted where the tracer would wrap it
    cli = toristack.cli
    names = {attr for targets in tracing.LAYERS.values() for module, attr in targets
             if module == "cli"}
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    path = str(FIXTURES / "a1_cone.json")
    for argv in (["validate", path], ["report", path], ["report", path, "--format", "text"],
                 ["mfr", path, "--cone", "0,1"], ["mfr", path, "--cone", "0,1", "--format", "text"],
                 ["stabilizer", path, "--cone", "0,1"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert names and sorted(name for name, n in calls.items() if not n) == []


def test_build_parser_takes_no_arguments():
    # the benchmark's set-up time imports the CLI and calls build_parser()
    assert inspect.signature(toristack.cli.build_parser).parameters == {}
    assert isinstance(toristack.cli.build_parser(), argparse.ArgumentParser)


@pytest.mark.parametrize("workload", ["fans", "cones", "rejects"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr

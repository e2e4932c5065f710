"""Every name the package defines has a caller.

Each top-level function and class of ``src/toristack``, and each name in
``toristack.__all__``, is used somewhere in ``src/toristack`` outside its
own definition and ``__init__.py``, or a row of ``KEPT`` says why it
stays: the benchmark's tracer wraps it (``bench/tracing.py``'s
``LAYERS``), or it states a result of the paper that no command prints and
the named test checks it against an oracle. So a helper that loses its
last caller fails here, exported or not. README's import block takes
exported names only.

The value types are immutable named tuples: no field of one can be
assigned, and the CLI starts without importing ``dataclasses`` or
``inspect``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import toristack
from conftest import FIXTURES
from toristack.charts import chart_resolution, local_chart
from toristack.cli import check_document, document_from_json

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toristack"

BENCH = "wrapped by bench/tracing.py"
# module.name -> (reason, the test that checks it, or None)
KEPT = {
    "linalg.hermite_normal_form": (BENCH, None),
    "linalg.smith_normal_form": (BENCH, None),
    "cones.intersect": (BENCH, None),
    "monoids.quotient_group": ("P/Q for a close saturated submonoid",
                               "test_monoids.py::test_quotient_matches_box_oracle"),
    "monoids.restrict_resolution": ("projection stability of the minimal resolution",
                                    "test_monoids.py::"
                                    "test_restrict_resolution_matches_the_projected_monoid_oracle"),
}


def defined_and_used():
    """(name -> module that defines it at top level, the names of the
    top-level functions and classes, the names used in the package outside
    their own top-level definition), without ``__init__.py``."""
    defined, units, used = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # a name counts as a Name, or as an attribute of a sibling module
        # (``from . import cones as conelib``), never as an object's attribute
        modules = {a.asname or a.name for node in tree.body
                   if isinstance(node, ast.ImportFrom) and node.module is None for a in node.names}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = {node.name}
                units.add(node.name)
            elif isinstance(node, ast.Assign):
                owner = {t.id for t in node.targets if isinstance(t, ast.Name)}
            else:
                owner = set()
            defined.update(dict.fromkeys(owner, path.stem))
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    name = n.id
                elif isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in modules:
                    name = n.attr
                else:
                    continue
                if name not in owner:
                    used.add(name)
    return defined, units, used


def test_every_export_has_a_caller_or_a_recorded_reason():
    defined, _, used = defined_and_used()
    for name in toristack.__all__:
        assert name in defined, name
    unused = sorted(f"{defined[name]}.{name}" for name in toristack.__all__ if name not in used)
    assert unused == sorted(k for k in KEPT if k.split(".")[1] in toristack.__all__)


def test_every_top_level_function_and_class_has_a_caller_or_a_recorded_reason():
    defined, units, used = defined_and_used()
    unused = sorted(f"{defined[name]}.{name}" for name in units if name not in used)
    assert unused == sorted(KEPT)


def test_every_kept_name_has_its_reason():
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tracing.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS")
    wrapped = {f"{module}.{attr}" for targets in layers.values() for module, attr in targets}
    for key, (reason, test) in KEPT.items():
        module, name = key.split(".")
        assert reason != BENCH or key in wrapped, key
        if test is None:
            continue
        path, function = test.split("::")
        tree = ast.parse((ROOT / "tests" / path).read_text(encoding="utf-8"))
        tests = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert function in tests, test
        # a result of the paper names the test that checks it
        assert reason == BENCH or function in getattr(getattr(toristack, module), name).__doc__, key


def test_readme_imports_only_exported_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^from toristack import \((.*?)\)", text, re.MULTILINE | re.DOTALL)
    names = {name.strip() for name in block.group(1).split(",") if name.strip()}
    assert names and names <= set(toristack.__all__), names - set(toristack.__all__)


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    # every command starts a fresh interpreter; the value types are named
    # tuples, so start-up pays for neither module (-S: no site hook imports them)
    code = ("import sys, toristack.cli\n"
            "toristack.cli.build_parser()\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_value_type_is_immutable():
    # assigning to any field of a value the pipeline builds raises, also for
    # the types that keep computed values in an instance __dict__
    doc = document_from_json((FIXTURES / "p1_levels23.json").read_text(encoding="utf-8"))
    sf = check_document(doc)[1]
    chart = local_chart(sf, sf.fan.maximal_cones[0])
    values = [doc, sf, sf.fan, chart, chart.group, chart.defining_cone, *chart_resolution(chart)]
    assert sorted(type(v).__name__ for v in values) == [
        "AffineMonoid", "Cone", "Fan", "FanDocument", "FiniteAbelianGroup", "FreeResolution",
        "LocalChart", "StackyFan"]
    for value in values:
        for field in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))

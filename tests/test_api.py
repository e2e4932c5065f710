"""Every name the package exports has a caller.

Each name in ``toristack.__all__`` is used somewhere in ``src/toristack``
outside its own definition and ``__init__.py``, or a row of ``KEPT`` says
why it stays: the benchmark's tracer wraps it (``bench/tracing.py``'s
``LAYERS``), or it states a result of the paper that no command prints and
the named test checks it against an oracle. README's import block takes
exported names only.
"""

import ast
import re
from pathlib import Path

import toristack

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toristack"

BENCH = "wrapped by bench/tracing.py"
KEPT = {
    "hermite_normal_form": (BENCH, None),
    "smith_normal_form": (BENCH, None),
    "intersect": (BENCH, None),
    "quotient_group": ("P/Q for a close saturated submonoid",
                       "test_monoids.py::test_quotient_matches_box_oracle"),
    "restrict_resolution": ("projection stability of the minimal resolution",
                            "test_monoids.py::"
                            "test_restrict_resolution_matches_the_projected_monoid_oracle"),
}


def defined_and_used():
    """(name -> module that defines it at top level, the names used in the
    package outside their own top-level definition), without ``__init__.py``."""
    defined, used = {}, set()
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
    return defined, used


def test_every_export_has_a_caller_or_a_recorded_reason():
    defined, used = defined_and_used()
    unused = sorted(name for name in toristack.__all__ if name not in used)
    assert unused == sorted(KEPT)
    for name in toristack.__all__:
        assert name in defined, name


def test_every_kept_name_has_its_reason():
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tracing.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS")
    wrapped = {attr for targets in layers.values() for _, attr in targets}
    for name, (reason, test) in KEPT.items():
        assert name in toristack.__all__, name
        if reason == BENCH:
            assert name in wrapped, name
            continue
        module, function = test.split("::")
        tree = ast.parse((ROOT / "tests" / module).read_text(encoding="utf-8"))
        tests = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert function in tests, test
        assert function in getattr(toristack, name).__doc__, name


def test_readme_imports_only_exported_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^from toristack import \((.*?)\)", text, re.MULTILINE | re.DOTALL)
    names = {name.strip() for name in block.group(1).split(",") if name.strip()}
    assert names and names <= set(toristack.__all__), names - set(toristack.__all__)

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

from conftest import FIXTURES, random_stacky, shuffled, zoo_fans
from oracles import coordinate_rays

from toristack.cli import (
    DocumentParseError,
    FanDocument,
    check_document,
    document_from_json,
    document_to_dict,
    emit_json,
    main,
    mfr_data,
    report_data,
    stabilizer_data,
    validation_errors,
)

import pytest


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "toristack.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def stacky_fan(doc):
    found, sf = check_document(doc)
    assert found == []
    return sf


def write_doc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# -- parsing -------------------------------------------------------------------

def test_document_roundtrip():
    doc = FanDocument(rank=2, rays=[(1, 0), (1, 2)], max_cones=[(0, 1)],
                      levels={1: 4}, characteristics=[0, 5])
    again = document_from_json(emit_json(document_to_dict(doc)))
    assert again == doc


def test_parse_rejects_malformed_json():
    with pytest.raises(DocumentParseError) as info:
        document_from_json("{not json")
    assert info.value.line == 1


def test_parse_rejects_bad_schema():
    with pytest.raises(DocumentParseError):
        document_from_json('{"rank": 2, "rays": [[1, 0]], "max_cones": [[0]], "nope": 1}')
    with pytest.raises(DocumentParseError):
        document_from_json('{"rank": 2, "rays": [[1]], "max_cones": []}')
    for key in ("x", "--1", "\u00b2"):
        with pytest.raises(DocumentParseError):
            document_from_json('{"rank": 1, "rays": [[1]], "max_cones": [[0]], '
                               '"levels": {"%s": 2}}' % key)


@pytest.mark.parametrize("key", ["--1", "\u00b2", pytest.param("1" * 5000, id="5000-digits")])
def test_cli_level_key_not_decimal_exits_2(tmp_path, key):
    path = write_doc(tmp_path, "key.json",
                     {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]],
                      "levels": {key: 2}})
    code, _, err = run_cli("validate", path)
    assert code == 2
    assert err.startswith("parse error: level key")


def test_validation_error_listing():
    doc = FanDocument(rank=2, rays=[(2, 4), (1, 0), (1, 0)], max_cones=[(0, 5)],
                      levels={0: 0, 9: 2}, characteristics=[-1])
    errors = validation_errors(doc)
    codes = sorted(e["code"] for e in errors)
    assert codes == ["DuplicateRay", "InvalidCharacteristic", "InvalidLevel",
                     "InvalidLevel", "NonPrimitiveRay", "RayIndexOutOfRange"]
    bad_ray = next(e for e in errors if e["code"] == "NonPrimitiveRay")
    assert "[1, 2]" in bad_ray["message"]


def test_validation_catches_interior_ray():
    doc = FanDocument(rank=2, rays=[(1, 0), (1, 2), (1, 1)],
                      max_cones=[(0, 1), (2,)])
    errors = validation_errors(doc)
    assert [e["code"] for e in errors] == ["IntersectionNotFace"]


# -- exit codes ------------------------------------------------------------------

def test_cli_validate_ok(tmp_path):
    path = write_doc(tmp_path, "p2.json",
                     {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                      "max_cones": [[0, 1], [1, 2], [0, 2]]})
    code, out, _ = run_cli("validate", path, "--format", "text")
    assert code == 0
    assert out.strip() == "OK"


def test_cli_validate_failure_exit_1(tmp_path):
    path = write_doc(tmp_path, "bad.json",
                     {"rank": 2, "rays": [[2, 4]], "max_cones": [[0]]})
    code, out, _ = run_cli("validate", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["errors"][0]["code"] == "NonPrimitiveRay"


def test_cli_parse_failure_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = run_cli("validate", str(path))
    assert code == 2
    assert "parse error" in err


def test_cli_missing_file_exit_2():
    code, _, err = run_cli("report", "/nonexistent/x.json")
    assert code == 2


P1_DOC = {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}


@pytest.mark.parametrize("levels", [[1], 5, "ab"])
def test_cli_levels_not_an_object_exit_2(tmp_path, capsys, levels):
    path = write_doc(tmp_path, "levels.json", {**P1_DOC, "levels": levels})
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err == "parse error: 'levels' must be an object keyed by ray index\n"


def test_cli_null_levels_mean_no_levels(tmp_path, capsys):
    path = write_doc(tmp_path, "levels.json", {**P1_DOC, "levels": None})
    assert main(["validate", path, "--format", "text"]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_cli_document_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(json.dumps(P1_DOC).encode() + b"\xff")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: {path} is not UTF-8 text: ")


def test_cli_document_nested_past_recursion_limit_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "parse error: invalid JSON: nested too deeply\n"


P1_TEXT = '"rays": [[1], [-1]], "max_cones": [[0], [1]]'


@pytest.mark.parametrize("text, message", [
    ('{"rank": 1, "rank": 1, %s}' % P1_TEXT, "invalid JSON: key 'rank' is repeated in one object"),
    ('{"rank": 1, %s, "levels": {"1": 2, "1": 3}}' % P1_TEXT,
     "invalid JSON: key '1' is repeated in one object"),
    ('{"rank": 1, %s, "levels": {"1": 2, "01": 3}}' % P1_TEXT,
     "level keys '1' and '01' name ray 1"),
    ('{"rank": 1, %s, "levels": {"-0": 2, "0": 3}}' % P1_TEXT,
     "level keys '-0' and '0' name ray 0"),
])
def test_a_repeated_key_or_ray_is_a_parse_error(tmp_path, capsys, text, message):
    # neither JSON object keys nor level keys resolve a repeat, last one wins
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    for command in (["validate"], ["stabilizer", "--cone", "1"]):
        assert main([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"


def test_a_byte_order_mark_is_refused_as_json_does(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_text("\ufeff" + json.dumps(P1_DOC), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == ("parse error: invalid JSON: Unexpected UTF-8 BOM "
                                       "(decode using utf-8-sig) (line 1, column 1)\n")


def test_python_dash_m_toristack_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "toristack", "report", "tests/fixtures/p1.json"],
                          capture_output=True, cwd=root, env=env)
    golden = (root / "tests" / "golden" / "p1.report.golden").read_bytes()
    size, rest = golden.split(b"--- stdout (", 1)[1].split(b" bytes)\n", 1)
    assert proc.returncode == 0
    assert proc.stdout == rest[:int(size)]


def test_package_imports_without_site_packages():
    # -S leaves site-packages off the path: an import of a test-only
    # dependency (sympy, hypothesis) anywhere in the package fails here
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", "import toristack, toristack.cli"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("doc", ['{"rank": 1, "rays": [[%s]], "max_cones": [[0]]}' % ("1" * 5000),
                                 '{"rank": %s, "rays": [], "max_cones": []}' % ("9" * 5000)],
                         ids=["ray-entry", "rank"])
def test_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "long.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == ("parse error: invalid JSON: an integer literal has more "
                                       f"than {sys.get_int_max_str_digits()} digits\n")


@pytest.mark.parametrize("selector", ["1_0", "\u0660,\u0661", "+1", "0,x", "0.0", "1" * 5000],
                         ids=["underscore", "arabic-indic", "plus", "letter", "point", "long"])
def test_cone_selector_not_ascii_decimal_exits_2(capsys, selector):
    # p2 has rays 0, 1 and 2: int() would read "1_0" as ray 10 and the
    # Arabic-Indic digits as rays 0 and 1
    assert main(["stabilizer", str(FIXTURES / "p2.json"), "--cone", selector]) == 2
    assert capsys.readouterr().err == (f"parse error: bad cone selector {selector!r}; "
                                       "expected i,j,...\n")


def test_cone_selector_strips_spaces_and_skips_empty_items(capsys):
    assert main(["stabilizer", str(FIXTURES / "p2.json"), "--cone", " 0 , 1 ,,"]) == 0
    spaced = capsys.readouterr().out
    assert main(["stabilizer", str(FIXTURES / "p2.json"), "--cone", "0,1"]) == 0
    assert capsys.readouterr().out == spaced
    assert main(["stabilizer", str(FIXTURES / "p2.json"), "--cone", "-1"]) == 1
    assert capsys.readouterr().err == "validation error: cone (-1,) is not in the fan\n"


def test_cli_level_zero_is_invalid(tmp_path):
    path = write_doc(tmp_path, "lvl.json",
                     {"rank": 1, "rays": [[1]], "max_cones": [[0]],
                      "levels": {"0": 0}})
    code, out, _ = run_cli("validate", path)
    assert code == 1
    assert json.loads(out)["errors"][0]["code"] == "InvalidLevel"


def test_cli_report_on_invalid_document_exits_1(tmp_path):
    path = write_doc(tmp_path, "bad.json",
                     {"rank": 2, "rays": [[1, 0], [1, 2], [1, 1]],
                      "max_cones": [[0, 1], [2]]})
    code, _, err = run_cli("report", path)
    assert code == 1
    assert "IntersectionNotFace" in err


def test_cli_unknown_cone_exits_1(tmp_path):
    path = write_doc(tmp_path, "a2.json",
                     {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]})
    code, _, err = run_cli("stabilizer", path, "--cone", "7")
    assert code == 1


@pytest.mark.parametrize("command", ["stabilizer", "mfr"])
def test_unknown_cone_is_a_validation_error(command, capsys):
    rc = main([command, str(FIXTURES / "p2.json"), "--cone", "0,1,2"])
    assert rc == 1
    assert capsys.readouterr().err == "validation error: cone (0, 1, 2) is not in the fan\n"


@pytest.mark.parametrize("command", ["validate", "report"])
def test_characteristic_neither_zero_nor_prime_is_refused(tmp_path, command):
    path = write_doc(tmp_path, "chars.json",
                     {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]],
                      "characteristics": [4, 1]})
    code, out, err = run_cli(command, path)
    assert code == 1
    messages = ["characteristic 4 is neither 0 nor a prime",
                "characteristic 1 is neither 0 nor a prime"]
    if command == "validate":
        assert [(e["code"], e["message"]) for e in json.loads(out)["errors"]] == [
            ("InvalidCharacteristic", m) for m in messages]
    else:
        assert out == "" and err == "".join(f"InvalidCharacteristic: {m}\n" for m in messages)


# -- fixtures and determinism -------------------------------------------------------

def fixture_files():
    return sorted(FIXTURES.glob("*.json"))


def test_fixture_corpus_is_nonempty():
    assert len(fixture_files()) >= 5


def test_report_runs_on_all_fixtures():
    for path in fixture_files():
        code, out, err = run_cli("report", str(path))
        assert code == 0, (path, err)
        payload = json.loads(out)
        assert {"document", "fan", "cones", "charts", "boundary_divisors"} <= set(payload)


def test_report_byte_deterministic_on_fixtures():
    for path in fixture_files():
        runs = [run_cli("report", str(path)) for _ in range(2)]
        assert runs[0] == runs[1]
        text_runs = [run_cli("report", str(path), "--format", "text") for _ in range(2)]
        assert text_runs[0] == text_runs[1]


def test_report_values_p1_levels23():
    doc = document_from_json((FIXTURES / "p1_levels23.json").read_text())
    data = report_data(doc, stacky_fan(doc))
    assert data["fan"]["complete"] is True
    assert data["fan"]["tame"] is True
    assert data["fan"]["deligne_mumford"] is True
    stabs = {c["id"]: c["stabilizer"]["cartier_dual"] for c in data["cones"]}
    assert stabs == {"": "trivial", "0": "mu_2", "1": "mu_3"}


def test_report_a1_char2_not_tame():
    doc = document_from_json((FIXTURES / "a1_cone.json").read_text())
    data = report_data(doc, stacky_fan(doc))
    assert data["fan"]["tame"] is False
    assert data["fan"]["deligne_mumford"] is False
    assert data["fan"]["complete"] is False


def test_report_smooth_fan_notes_toric_variety():
    doc = document_from_json((FIXTURES / "p2.json").read_text())
    data = report_data(doc, stacky_fan(doc))
    assert data["fan"]["smooth_canonical"] is True
    assert "toric variety" in data["fan"]["note"]
    for cone in data["cones"]:
        assert cone["stabilizer"]["cartier_dual"] == "trivial"


def test_report_cycle_coordinates_carry_their_coarse_generators():
    # a coordinate listed for a cycle sits on a ray of C(P) that is one of
    # the cycle's coarse generators, restricted to N'
    docs = [document_from_json(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
    rng = random.Random(1414)
    for fan in zoo_fans():
        sf = random_stacky(rng, shuffled(rng, fan))
        docs.append(FanDocument(rank=fan.ambient_rank, rays=list(sf.fan.rays),
                                max_cones=list(sf.fan.maximal_cones),
                                levels=dict(enumerate(sf.levels))))
    for doc in docs:
        data = report_data(doc, stacky_fan(doc))
        for chart in data["charts"]:
            cone = [int(i) for i in chart["cone"].split(",") if i]
            basis = chart["splitting"]["n_prime_basis"]
            stars, _ = coordinate_rays(basis, [doc.rays[i] for i in cone])
            for ci in chart["cycle_ideals"]:
                restricted = {tuple(sum(a * b for a, b in zip(h, v)) for v in basis)
                              for h in ci["coarse_generators"]}
                for i in ci["chart_coordinates"]:
                    assert stars[i][0] in restricted, (doc.rays, chart["cone"], ci)


def test_mfr_data_a1():
    doc = document_from_json((FIXTURES / "a1_cone.json").read_text())
    data = mfr_data(stacky_fan(doc), [0, 1])
    assert data["denominators"] == [2, 2]
    assert data["cp_rays"] == [[0, 1], [2, -1]]
    assert data["cokernel"]["invariant_factors"] == [2]
    assert data["saturation_check"] is True
    assert len(data["correspondence"]) == 2


def test_mfr_smooth_cone_identity():
    doc = document_from_json((FIXTURES / "a2.json").read_text())
    data = mfr_data(stacky_fan(doc), [0, 1])
    assert data["denominators"] == [1, 1]
    assert data["cokernel"]["invariant_factors"] == []


def test_mfr_one_three_cone():
    doc = FanDocument(rank=2, rays=[(1, 0), (1, 3)], max_cones=[(0, 1)])
    data = mfr_data(stacky_fan(doc), [0, 1])
    assert data["cokernel"]["invariant_factors"] == [3]


def test_mfr_zero_cone_exits_1():
    code, out, err = run_cli("mfr", str(FIXTURES / "p2.json"), "--cone", "")
    assert code == 1 and out == ""
    assert "the zero cone has a trivial monoid; pick a nonzero cone" in err


def test_stabilizer_data_matches_report():
    doc = document_from_json((FIXTURES / "p1_levels23.json").read_text())
    data = stabilizer_data(stacky_fan(doc), [1])
    assert data["stabilizer"]["invariant_factors"] == [3]
    assert data["stacky_multiplicity"] == 3


def test_stabilizer_computes_no_hilbert_basis_or_resolution(monkeypatch):
    import toristack.monoids as monoids_mod

    calls = []
    hilbert_basis_full = monoids_mod._hilbert_basis_full
    post_init = monoids_mod.FreeResolution.__post_init__

    def counting_hilbert_basis(ray_list, d):
        calls.append("hilbert basis")
        return hilbert_basis_full(ray_list, d)

    def counting_resolution(res):
        calls.append("free resolution")
        post_init(res)

    monkeypatch.setattr(monoids_mod, "_hilbert_basis_full", counting_hilbert_basis)
    monkeypatch.setattr(monoids_mod.FreeResolution, "__post_init__", counting_resolution)
    for name, cone in [("weighted_p2_levels", "1,2"), ("quotient_3d", "0,2"), ("mixed_dim", "0,1")]:
        assert main(["stabilizer", str(FIXTURES / f"{name}.json"), "--cone", cone]) == 0
    assert calls == []
    assert main(["mfr", str(FIXTURES / "a1_cone.json"), "--cone", "0,1"]) == 0
    assert calls == ["hilbert basis", "free resolution"]


def test_mfr_inverts_a_full_dimensional_cone_at_most_twice(monkeypatch, tmp_path, capsys):
    # one inverse gives the chart coordinates and C(P) with its dual rays, the
    # Hilbert basis is one Smith form and the denominators are pairings with
    # the stored dual rays; the resolution's own P <= F check is the other
    import toristack.linalg as linalg_mod

    calls = []
    original = linalg_mod.integer_inverse

    def counting_inverse(rows):
        calls.append(len(rows))
        return original(rows)

    for name, module in list(sys.modules.items()):
        if name == "toristack" or name.startswith("toristack."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting_inverse)
    rank = 5
    rays = [[int(i == j) for j in range(rank)] for i in range(rank - 1)] + [[1, 2, 3, 4, 6]]
    path = write_doc(tmp_path, "rank5.json", {"rank": rank, "rays": rays,
                                               "max_cones": [list(range(rank))]})
    for argv in (["mfr", str(FIXTURES / "a1_cone.json"), "--cone", "0,1"],
                 ["mfr", str(FIXTURES / "quotient_3d.json"), "--cone", "0,1,2"],
                 ["mfr", path, "--cone", "0,1,2,3,4"]):
        calls.clear()
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["saturation_check"] is True
        assert 0 < len(calls) <= 2, (argv, calls)


def test_commands_call_no_public_normal_form(monkeypatch, capsys):
    # the pipeline runs its normal forms through the in-place eliminations;
    # the benchmark's traced run reads `.entries` from every input of
    # smith_normal_form and hermite_normal_form, so no command may call them
    import toristack.linalg as linalg_mod

    called = []
    modules = [m for name, m in sys.modules.items()
               if name == "toristack" or name.startswith("toristack.")]
    for attr in ("smith_normal_form", "hermite_normal_form"):
        original = getattr(linalg_mod, attr)

        def record(*args, _attr=attr, _original=original, **kwargs):
            called.append(_attr)
            return _original(*args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, record)
    for path in sorted(FIXTURES.glob("*.json")):
        cone = ",".join(map(str, json.loads(path.read_text())["max_cones"][0]))
        for argv in (["validate", str(path)],
                     ["report", str(path)], ["report", str(path), "--format", "text"],
                     ["mfr", str(path), "--cone", cone],
                     ["stabilizer", str(path), "--cone", cone]):
            assert main(argv) == 0, argv
    capsys.readouterr()
    assert called == []
    linalg_mod.smith_normal_form([[2]])
    assert called == ["smith_normal_form"]


def test_cli_complete_command(tmp_path):
    code, out, _ = run_cli("complete", str(FIXTURES / "p1.json"))
    assert code == 0 and json.loads(out)["complete"] is True
    path = write_doc(tmp_path, "a2.json",
                     {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]})
    code, out, _ = run_cli("complete", path)
    assert code == 0 and json.loads(out)["complete"] is False


def test_degree_bound_env_var(monkeypatch, capsys):
    # the saturation check is exact: the variable that bounded its walk is ignored
    argv = ["mfr", str(FIXTURES / "a1_cone.json"), "--cone", "0,1"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("TORISTACK_DEGREE_BOUND", "abc")
    assert main(argv) == 0
    assert capsys.readouterr().out == plain
    assert json.loads(plain)["saturation_check"] is True


# -- serialization -------------------------------------------------------------------

def test_big_integers_serialize_as_strings():
    big = 2 ** 70
    out = json.loads(emit_json({"x": big, "small": 12}))
    assert out["x"] == str(big)
    assert out["small"] == 12


def test_fractions_serialize_as_ratio_strings():
    from fractions import Fraction
    out = json.loads(emit_json({"f": Fraction(-1, 2)}))
    assert out["f"] == "-1/2"


def test_main_entry_point_in_process(capsys):
    rc = main(["validate", str(FIXTURES / "p2.json"), "--format", "text"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_main_builds_its_parser_once():
    # repeated in-process calls share one parser and nothing else: each
    # prints what a fresh run prints (its golden file, or a run on a newly
    # built parser), whatever call came before it
    import toristack.cli as cli_mod
    from golden.regenerate import HERE as GOLDEN, cases, render

    p1, p2, a1 = (f"tests/fixtures/{name}.json" for name in ("p1", "p2", "a1_cone"))
    sequence = [
        ["validate", p2, "--format", "text"], ["validate", p2],
        ["report", p1, "--format", "text"], ["report", p1],
        ["mfr", a1, "--cone", "0,1"], ["validate", a1],
        ["stabilizer", a1, "--cone", "0,1"], ["complete", p1],
        ["mfr", a1],  # no --cone: an argparse usage error, exit 2
        ["report", p2], ["validate", "tests/golden/refused/interior_ray.json"],
    ]
    golden = {tuple(argv): name for name, argv in cases()}
    expected = []
    for argv in sequence:
        if tuple(argv) in golden:
            expected.append((GOLDEN / golden[tuple(argv)]).read_text(encoding="utf-8"))
        else:
            cli_mod.build_parser.cache_clear()
            expected.append(render(argv))
    assert sum(tuple(argv) in golden for argv in sequence) == 6
    assert "exit code: 2\n" in expected[8] and "required: --cone" in expected[8]

    cli_mod.build_parser.cache_clear()
    for argv, text in zip(sequence, expected):
        assert render(argv) == text, argv
    assert cli_mod.build_parser.cache_info().misses == 1


def test_internal_assertion_exits_3(monkeypatch, capsys):
    # consistency tripwires surface as exit code 3, never as a validation error
    import toristack.cli as cli_mod

    def boom(doc, sf):
        raise AssertionError("tripwire")

    monkeypatch.setattr(cli_mod, "report_data", boom)
    rc = main(["report", str(FIXTURES / "p2.json")])
    assert rc == 3
    assert "tripwire" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ValueError("bad value"), KeyError("missing")])
def test_library_bug_exits_3(monkeypatch, capsys, error):
    # an exception that is not a FanError is a bug, never a validation error
    import toristack.cli as cli_mod

    def boom(doc, sf):
        raise error

    monkeypatch.setattr(cli_mod, "report_data", boom)
    rc = main(["report", str(FIXTURES / "p2.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error ({type(error).__name__}): ")
    assert "validation error" not in err


def test_report_computes_each_chart_and_pairwise_check_once(tmp_path, monkeypatch, capsys):
    # (P^1)^3: 27 cones and 8 maximal cones. The fan is complete and its
    # walls settle it, so no pair of maximal cones is compared; one chart per
    # maximal cone, one face group per other face (the maximal cones read
    # their charts'), no exact intersection, and one Hilbert basis per maximal cone
    # (its printed coarse generators) and none in the charts. The
    # non-complete mixed_dim fixture compares each pair of maximal cones once.
    import toristack.charts as charts_mod
    import toristack.cones as cones_mod
    import toristack.monoids as monoids_mod
    import toristack.stackyfan as fan_mod
    from itertools import combinations, product

    charts, groups, pairs, intersections, hilbert_bases = [], [], [], [], []
    local_chart, meet = charts_mod.local_chart, fan_mod._meet_in_shared_face
    face_group = charts_mod.face_group
    intersect = cones_mod.intersect
    hilbert_basis_full = monoids_mod._hilbert_basis_full

    def counting_chart(sf, sigma):
        charts.append(tuple(sigma))
        return local_chart(sf, sigma)

    def counting_group(chart, face):
        groups.append(face)
        return face_group(chart, face)

    def counting_meet(fan, c1, c2, *args, **kwargs):
        pairs.append(frozenset((c1, c2)))
        return meet(fan, c1, c2, *args, **kwargs)

    def counting_intersect(c1, c2):
        intersections.append((c1, c2))
        return intersect(c1, c2)

    def counting_hilbert_basis(ray_list, d):
        hilbert_bases.append(tuple(ray_list))
        return hilbert_basis_full(ray_list, d)

    monkeypatch.setattr(charts_mod, "local_chart", counting_chart)
    monkeypatch.setattr(charts_mod, "face_group", counting_group)
    monkeypatch.setattr(fan_mod, "_meet_in_shared_face", counting_meet)
    monkeypatch.setattr(cones_mod, "intersect", counting_intersect)
    monkeypatch.setattr(monoids_mod, "_hilbert_basis_full", counting_hilbert_basis)
    rays = [e for i in range(3) for e in ([int(j == i) for j in range(3)],
                                          [-int(j == i) for j in range(3)])]
    cones = [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=3)]
    path = write_doc(tmp_path, "p1_cubed.json", {"rank": 3, "rays": rays, "max_cones": cones})
    assert main(["report", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fan"]["num_cones"] == 27
    assert data["fan"]["complete"] is True
    assert sorted(charts) == sorted(tuple(c) for c in cones)
    assert sorted(groups) == sorted(tuple(c["ray_indices"]) for c in data["cones"]
                                    if len(c["ray_indices"]) < 3)
    assert pairs == []
    assert intersections == []
    assert len(hilbert_bases) == 8

    assert main(["report", str(FIXTURES / "mixed_dim.json")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fan"]["complete"] is False
    maximal = [tuple(int(i) for i in c.split(",")) for c in data["fan"]["maximal_cones"]]
    assert len(maximal) == 2
    assert pairs == [frozenset(pair) for pair in combinations(maximal, 2)]
    assert intersections == []


def test_face_rows_eliminate_no_ray_coordinates(tmp_path, monkeypatch, capsys):
    # (P^1)^3 with levels: the only Smith eliminations of 3 columns are the
    # 8 charts' free-net matrices and the 8 Hilbert bases' ray matrices.
    # Every other input is a face group's, in the invariant-factor
    # coordinates of its chart's group: one column here, for Z/2, Z/3 or Z/6
    import toristack.linalg as linalg_mod
    from itertools import product

    widths, original = [], linalg_mod.smith_elimination

    def recording(s, *args, **kwargs):
        widths.append(len(s[0]) if s else 0)
        return original(s, *args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("toristack") and vars(module).get("smith_elimination") is original:
            monkeypatch.setattr(module, "smith_elimination", recording)
    rays = [e for i in range(3) for e in ([int(j == i) for j in range(3)],
                                          [-int(j == i) for j in range(3)])]
    cones = [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=3)]
    path = write_doc(tmp_path, "p1_cubed.json", {"rank": 3, "rays": rays, "max_cones": cones,
                                                 "levels": {"0": 2, "3": 3}})
    assert main(["report", path]) == 0
    data = json.loads(capsys.readouterr().out)
    factors = max(len(chart["group"]["invariant_factors"]) for chart in data["charts"])
    assert factors == 1
    assert widths.count(3) == 16
    faces = [w for w in widths if w != 3]
    assert faces and max(faces) <= factors


def test_report_inverts_each_maximal_cone_once(monkeypatch, tmp_path, capsys):
    # (P^1)^3: validation, the charts and the printed Hilbert bases of its 8
    # maximal cones all read the one inverse in Fan.dual_rows
    import toristack.linalg as linalg_mod
    from itertools import product

    calls = []
    original = linalg_mod.integer_inverse

    def counting_inverse(rows):
        calls.append(len(rows))
        return original(rows)

    for name, module in list(sys.modules.items()):
        if name == "toristack" or name.startswith("toristack."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting_inverse)
    rays = [e for i in range(3) for e in ([int(j == i) for j in range(3)],
                                          [-int(j == i) for j in range(3)])]
    cones = [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=3)]
    path = write_doc(tmp_path, "p1_cubed.json", {"rank": 3, "rays": rays, "max_cones": cones})
    assert main(["report", path]) == 0
    assert json.loads(capsys.readouterr().out)["fan"]["num_cones"] == 27
    assert calls == [3] * 8


def test_report_builds_cones_only_for_maximal_cones(tmp_path, monkeypatch, capsys):
    # (P^1)^3 with a nonzero characteristic: 27 cones, of which only the 8
    # maximal ones become a Cone, twice each: the fan's (the printed coarse
    # Hilbert bases) and the chart's C(P), on the same rays since each cone
    # is unimodular and its dual rows are its rays (every Cone is stored by
    # Cone.on_rays); tameness is read from the maximal charts. Its cones are full-dimensional, so it inverts no
    # unimodular matrix; the splittings of mixed_dim do, each by one
    # fraction-free inverse, never a Hermite form
    import toristack.cones as cones_mod
    import toristack.linalg as linalg_mod
    import toristack.stackyfan as fan_mod
    from itertools import product

    built, inverses, hnf_in_inverse, depth = [], [], [], [0]
    on_rays = cones_mod.Cone.on_rays.__func__
    invert_unimodular = linalg_mod.invert_unimodular
    hermite_elimination = linalg_mod.hermite_elimination

    def counting_on_rays(cls, ray_list, rows, ambient_rank):
        built.append(frozenset(tuple(v) for v in ray_list))
        return on_rays(cls, ray_list, rows, ambient_rank)

    def tracked_inverse(u):
        inverses.append(u)
        depth[0] += 1
        try:
            return invert_unimodular(u)
        finally:
            depth[0] -= 1

    def tracked_hnf(h, u=None):
        if depth[0]:
            hnf_in_inverse.append(h)
        return hermite_elimination(h, u)

    fan_mod.Fan.cone_geometry.cache_clear()
    monkeypatch.setattr(cones_mod.Cone, "on_rays", classmethod(counting_on_rays))
    for name, module in list(sys.modules.items()):
        if name.startswith("toristack") and vars(module).get("invert_unimodular") is invert_unimodular:
            monkeypatch.setattr(module, "invert_unimodular", tracked_inverse)
    monkeypatch.setattr(linalg_mod, "hermite_elimination", tracked_hnf)
    rays = [e for i in range(3) for e in ([int(j == i) for j in range(3)],
                                          [-int(j == i) for j in range(3)])]
    cones = [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=3)]
    path = write_doc(tmp_path, "p1_cubed.json", {"rank": 3, "rays": rays, "max_cones": cones,
                                                 "characteristics": [0, 5]})
    assert main(["report", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fan"]["num_cones"] == 27
    assert data["fan"]["tame"] is True and data["fan"]["deligne_mumford"] is True
    assert Counter(built) == {frozenset(tuple(rays[i]) for i in c): 2 for c in cones}
    assert inverses == [] and hnf_in_inverse == []
    # the lower-dimensional cones of mixed_dim do split their lattice
    assert main(["report", str(FIXTURES / "mixed_dim.json")]) == 0
    capsys.readouterr()
    assert inverses and hnf_in_inverse == []


def test_mfr_computes_one_chart(monkeypatch, capsys):
    # mfr reads the splitting, the fan rays and C(P) from one full chart
    import toristack.charts as charts_mod

    calls = []
    for name in ("_coordinates", "local_chart"):
        original = getattr(charts_mod, name)
        monkeypatch.setattr(charts_mod, name,
                            lambda *args, name=name, original=original:
                            calls.append(name) or original(*args))
    for path in sorted(FIXTURES.glob("*.json")):
        for cone in json.loads(path.read_text())["max_cones"]:
            calls.clear()
            assert main(["mfr", str(path), "--cone", ",".join(map(str, cone))]) == 0
            assert sorted(calls) == ["_coordinates", "local_chart"], (path.name, cone)
    capsys.readouterr()


# what computes a splitting or a chart's coordinates, and nothing else
SPLITTING = ("_coordinates", "split_cone", "saturate", "complete_to_basis",
             "hermite_elimination", "integer_inverse")


def record_splitting(monkeypatch, module, name):
    """Wrap ``module.name``; return the list of the ``SPLITTING`` functions
    that its calls run, wherever a toristack module binds them."""
    from toristack import charts, linalg

    seen, depth = [], [0]

    def recording(fn_name, original):
        def record(*args, **kwargs):
            if depth[0]:
                seen.append(fn_name)
            return original(*args, **kwargs)
        return record

    for fn_name in SPLITTING:
        original = getattr(charts, fn_name, None) or getattr(linalg, fn_name)
        for module_name, bound in list(sys.modules.items()):
            if module_name.startswith("toristack") and vars(bound).get(fn_name) is original:
                monkeypatch.setattr(bound, fn_name, recording(fn_name, original))
    watched = getattr(module, name)

    def scoped(*args, **kwargs):
        depth[0] += 1
        try:
            return watched(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(module, name, scoped)
    return seen


def test_stabilizer_and_face_rows_split_only_maximal_cones(monkeypatch, capsys):
    # stabilizer splits one maximal cone, the first that holds the selected
    # cone, and reads the group off its chart; the report's rows for faces
    # that are no maximal cone read the maximal cones' charts: face_group
    # computes no coordinates, splitting, Hermite form or inverse.
    # mixed_dim has lower-dimensional maximal cones and faces.
    import toristack.charts as charts_mod

    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        maximal = check_document(document_from_json(path.read_text()))[1].fan.maximal_cones
        with monkeypatch.context() as m:
            split, coordinates = [], charts_mod._coordinates
            m.setattr(charts_mod, "_coordinates",
                      lambda fan, key: split.append(key) or coordinates(fan, key))
            for cone in doc["max_cones"]:
                for k in range(len(cone) + 1):
                    split.clear()
                    selector = ",".join(map(str, cone[:k]))
                    assert main(["stabilizer", str(path), "--cone", selector]) == 0
                    home = next(c for c in maximal if set(cone[:k]) <= set(c))
                    assert split == [home], (path.name, selector)
        with monkeypatch.context() as m:
            seen, split = record_splitting(m, charts_mod, "face_group"), []
            coordinates = charts_mod._coordinates
            m.setattr(charts_mod, "_coordinates",
                      lambda fan, key: split.append(key) or coordinates(fan, key))
            assert main(["report", str(path)]) == 0
            assert seen == [], path.name
            assert sorted(split) == sorted(maximal)
    capsys.readouterr()

"""``toristack report`` writes its output entry by entry.

The streamed bytes are those of the report built as one dict
(``built(report_data(...))``, written by ``emit_json`` and by the
independent ``oracles.reference_emit_json``, and for text by
``oracles.reference_report_text``), they are written in chunks of bounded
size, the memory a report needs does not grow with its output, nothing is
written before a refusal or tripwire, and no reported ``Fan`` outlives its
command.
"""

import gc
import json
import sys
import tracemalloc
from itertools import product

import pytest

from conftest import FIXTURES, built, json_text

from oracles import reference_emit_json, reference_report_text

from test_limits import BOUND, two_rays, unitriangular

from toristack import charts, cli
from toristack.cli import (
    check_document,
    document_from_json,
    document_to_dict,
    main,
    report_data,
)
from toristack.stackyfan import Fan


class Chunks:
    """A stdout that keeps each chunk written to it, or only their lengths."""

    def __init__(self, keep=True):
        self.chunks, self.keep, self.sizes = [], keep, []

    def write(self, text):
        self.sizes.append(len(text))
        if self.keep:
            self.chunks.append(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


def streamed(monkeypatch, path, fmt, keep=True):
    sink = Chunks(keep)
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", sink)
        rc = main(["report", str(path), "--format", fmt])
    assert rc == 0
    return sink


def p1_power(tmp_path, d):
    rays = [e for i in range(d) for e in ([int(j == i) for j in range(d)],
                                          [-int(j == i) for j in range(d)])]
    cones = [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=d)]
    path = tmp_path / f"p1_power_{d}.json"
    path.write_text(json.dumps({"rank": d, "rays": rays, "max_cones": cones}), encoding="utf-8")
    return path


def check_stream(monkeypatch, path, doc, sf):
    data = built(report_data(doc, sf))
    text = "".join(streamed(monkeypatch, path, "json").chunks)
    assert text == json_text(data), path
    assert text == reference_emit_json(data), path
    text = "".join(streamed(monkeypatch, path, "text").chunks)
    assert text == reference_report_text(data), path


def test_streamed_report_matches_the_built_dict_on_the_fixtures(monkeypatch):
    for path in sorted(FIXTURES.glob("*.json")):
        doc = document_from_json(path.read_text(encoding="utf-8"))
        found, sf = check_document(doc)
        assert found == [], path
        check_stream(monkeypatch, path, doc, sf)


def test_streamed_report_matches_the_built_dict_on_drawn_fans(monkeypatch, tmp_path):
    pytest.importorskip("hypothesis")
    from test_validate_properties import drawn_stacky_fans

    drawn = drawn_stacky_fans(120)
    assert {doc.rank for doc, _ in drawn} == {2, 3, 4, 5}
    path = tmp_path / "drawn.json"
    for doc, sf in drawn:
        path.write_text(json.dumps(document_to_dict(doc)), encoding="utf-8")
        check_stream(monkeypatch, path, doc, sf)


@pytest.mark.parametrize("rays", [unitriangular(2), unitriangular(4), two_rays(3), two_rays(5)],
                         ids=["full-2", "full-4", "two-rays-3", "two-rays-5"])
def test_streamed_report_quotes_large_integers(monkeypatch, tmp_path, rays):
    # every level at 2^64 - 1: coarse generators, stacky multiplicities and
    # the multiplicity of two rays leave the range a JSON reader holds
    # exactly, and the entries written from their text quote them as the
    # generic writer does
    rank = len(rays[0])
    doc = document_from_json(json.dumps({
        "rank": rank, "rays": rays, "max_cones": [list(range(len(rays)))],
        "levels": {str(i): BOUND for i in range(len(rays))}}))
    found, sf = check_document(doc)
    assert found == []
    data = built(report_data(doc, sf))
    cones, (chart,) = data["cones"], data["charts"]
    safe = 2 ** 53 - 1
    assert max(abs(x) for ci in chart["cycle_ideals"] for h in ci["coarse_generators"]
               for x in h) > safe
    assert max(c["stacky_multiplicity"] for c in cones) > safe
    assert (max(c["multiplicity"] for c in cones) > safe) == (len(rays) < rank)
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(document_to_dict(doc)), encoding="utf-8")
    check_stream(monkeypatch, path, doc, sf)


def test_cycle_ideals_and_cone_rows_are_written_from_their_text(monkeypatch, tmp_path):
    cycle_ideal = {"chart_coordinates", "coarse_generators", "cone"}
    cone_row = {"dim", "id", "multiplicity", "ray_indices", "stabilizer", "stacky_multiplicity"}
    written, append_json = [], cli._append_json

    def spy(value, out, newline):
        written.append(set(value) if type(value) is dict else None)
        append_json(value, out, newline)

    monkeypatch.setattr(cli, "_append_json", spy)
    for path in (p1_power(tmp_path, 3), FIXTURES / "quotient_3d.json"):
        written.clear()
        streamed(monkeypatch, path, "json", keep=False)
        # the spy sees the charts, which the generic writer still walks, and
        # at most the one template of each list's keys, but no entry
        assert any(keys and "cycle_ideals" in keys for keys in written), path
        assert written.count(cycle_ideal) <= 1 and written.count(cone_row) <= 1, path


def test_text_and_json_reports_build_each_stabilizer_once(monkeypatch, tmp_path):
    # (P^1)^3 with level 2 on rays 0 and 1: every chart's G is Z/2, and its
    # 27 cones rows have 2 distinct stabilizers. Either report builds a
    # group dict per chart and one per distinct stabilizer, none per row
    doc = json.loads(p1_power(tmp_path, 3).read_text(encoding="utf-8"))
    path = tmp_path / "levels.json"
    path.write_text(json.dumps({**doc, "levels": {"0": 2, "1": 2}}), encoding="utf-8")
    calls, group_dict = [], cli._group_dict
    monkeypatch.setattr(cli, "_group_dict", lambda group: calls.append(group) or group_dict(group))
    counts = {}
    for fmt in ("json", "text"):
        calls.clear()
        streamed(monkeypatch, path, fmt, keep=False)
        counts[fmt] = len(calls)
    assert counts == {"json": 8 + 2, "text": 8 + 2}


def test_small_json_reports_are_written_in_few_chunks(monkeypatch, tmp_path):
    # an entry written from its text counts as cli._TEXT_PIECES pieces against
    # the one bound cli._CHUNK, beside what the charts before it left
    # pending: every fixture's report is one chunk (2 to 4 when a list
    # written from text flushed once 64 pieces of any kind were pending), and
    # (P^1)^3's, 35 KB with 64 cycle ideals, two
    for path in sorted(FIXTURES.glob("*.json")):
        assert len(streamed(monkeypatch, path, "json", keep=False).sizes) == 1, path
    assert len(streamed(monkeypatch, p1_power(tmp_path, 3), "json", keep=False).sizes) == 2


@pytest.mark.parametrize("fmt,output", [("json", 2717558), ("text", 514245)])
def test_report_memory_does_not_grow_with_its_output(monkeypatch, tmp_path, fmt, output):
    # (P^1)^6 lists 4,096 cycle ideals. Built as one dict and one string,
    # its JSON report peaked at 11.6 MB under tracemalloc, the text one at
    # 4.5 MB; streamed, the report keeps only its charts and face groups,
    # and writes its 2.7 MB of JSON or 0.5 MB of text in chunks of at most
    # 64 KiB
    path = p1_power(tmp_path, 6)
    streamed(monkeypatch, p1_power(tmp_path, 1), fmt, keep=False)  # builds the parser
    tracemalloc.start()
    try:
        sink = streamed(monkeypatch, path, fmt, keep=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(sink.sizes) == output
    assert len(sink.sizes) > output // 2 ** 16 and max(sink.sizes) < 2 ** 16
    assert peak < 2 * 10 ** 6


def live_fans():
    gc.collect()
    return sum(type(o) is Fan for o in gc.get_objects())


def test_no_reported_fan_outlives_its_command(monkeypatch, tmp_path):
    before = live_fans()
    for fmt in ("json", "text"):
        streamed(monkeypatch, p1_power(tmp_path, 3), fmt, keep=False)
        streamed(monkeypatch, FIXTURES / "mixed_dim.json", fmt, keep=False)
    assert Fan.cone_geometry.cache_info().currsize == 0
    assert live_fans() == before


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_nothing_is_written_before_the_last_face_group(monkeypatch, capsys, fmt):
    # every face group, and so every tripwire in one, comes before the first
    # chunk: a report whose last relation step or last face group fails
    # writes nothing
    path = str(FIXTURES / "quotient_3d.json")
    for name in ("add_relation", "face_quotient"):
        calls, original = [], getattr(charts, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        def failing_last(*args):
            calls.append(args)
            if len(calls) == last:
                raise AssertionError("tripwire in the last face group")
            return original(*args)

        with monkeypatch.context() as m:
            m.setattr(charts, name, counting)
            assert main(["report", path, "--format", fmt]) == 0
            capsys.readouterr()
            last = len(calls)
            assert last > 1, name
            calls.clear()
            m.setattr(charts, name, failing_last)
            assert main(["report", path, "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert captured.err == "internal error (AssertionError): tripwire in the last face group\n"

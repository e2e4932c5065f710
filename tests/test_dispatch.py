"""``main`` parses argv with the named command's own parser and reads each
document as bytes. Both are checked against what they replace: the
top-level ``build_parser().parse_args(argv)`` (its namespace, or its exit
code, stdout and stderr) and a text-mode read of the file followed by
``document_from_json`` (its document, or its message, line and column)."""

import json

import pytest

from conftest import FIXTURES

from toristack import cli as cli_mod
from toristack.cli import DocumentParseError, build_parser, document_from_json, main

DOC = "f.json"
ARGV_CORPUS = [
    # every command, with options before and after the file
    ["validate", DOC], ["validate", "--format", "text", DOC],
    ["validate", DOC, "--format", "text"],
    ["report", DOC], ["report", "--format", "json", DOC], ["report", DOC, "--format", "text"],
    ["mfr", DOC, "--cone", "0,1"], ["mfr", "--cone", "0", DOC, "--format", "text"],
    ["stabilizer", "--cone", "1", DOC], ["stabilizer", DOC, "--format", "text", "--cone", ""],
    ["complete", DOC], ["complete", "--format", "text", DOC],
    # --opt=value, abbreviated options, a repeated option, a bad choice
    ["validate", "--format=text", DOC], ["report", DOC, "--form", "text"],
    ["mfr", "--co", "0,1", DOC], ["stabilizer", DOC, "--co=0", "--form=text"],
    ["report", DOC, "--format", "text", "--format", "json"], ["report", DOC, "--format", "xml"],
    ["mfr", DOC, "--c", "0"], ["validate", DOC, "--format"],
    # --, which ends the options
    ["validate", "--", DOC], ["validate", "--", "--format"], ["mfr", "--cone", "0", "--", "-1"],
    ["complete", DOC, "--"], ["report", "--", DOC, "--format", "text"],
    # help after a command, abbreviated too
    ["validate", "-h"], ["report", "--help"], ["mfr", DOC, "-h"], ["stabilizer", "--he"],
    ["complete", DOC, "--format", "text", "--help"],
    # usage errors: a missing --cone or file, an unknown option, an extra positional
    ["mfr", DOC], ["stabilizer", DOC, "--cone"], ["validate"], ["mfr", "--cone", "0"],
    ["validate", DOC, "--bogus"], ["report", "--bogus=1", DOC], ["complete", "-x", DOC],
    ["validate", DOC, "g.json"], ["mfr", DOC, "--cone", "0", "extra", "--more"],
    # argv that names no command
    [], ["frobnicate", DOC], ["Validate", DOC], ["--format", "text", "validate", DOC],
    ["-h"], ["--help"], ["--", "validate", DOC], ["-x"],
]


def outcome(parse, argv, capsys):
    try:
        args = parse(list(argv))
    except SystemExit as e:
        captured = capsys.readouterr()
        return "exit", e.code, captured.out, captured.err
    assert capsys.readouterr() == ("", "")
    return "parsed", vars(args)


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=map(" ".join, ARGV_CORPUS))
def test_dispatch_parses_as_the_top_level_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage lines wrap at the same width
    expected = outcome(build_parser().parse_args, argv, capsys)
    assert outcome(cli_mod._parse_argv, argv, capsys) == expected


def test_a_command_line_that_parses_skips_the_top_level_parser(monkeypatch, tmp_path, capsys):
    path = tmp_path / "p1.json"
    path.write_bytes((FIXTURES / "p1.json").read_bytes())

    def refused(*args, **kwargs):
        raise AssertionError("the top-level parser parsed argv")

    parser = build_parser()
    monkeypatch.setattr(parser, "parse_args", refused)
    monkeypatch.setattr(parser, "parse_known_args", refused)
    assert main(["stabilizer", str(path), "--cone", "0"]) == 0
    monkeypatch.setattr("sys.argv", ["toristack", "validate", "--format", "text", str(path)])
    assert main() == 0
    assert capsys.readouterr().out.endswith("OK\n")


def text_mode_load(path):
    """The document as a text-mode read of the file gives it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DocumentParseError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise DocumentParseError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from e
    return document_from_json(text)


def loaded(load, path):
    try:
        return "document", load(path)
    except DocumentParseError as e:
        return "refused", str(e), e.line, e.column


P1 = json.dumps({"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]], "levels": {"1": 2}},
                indent=1).encode()
# the rank-1 fan padded past one 8 KiB buffer, with a CR LF across its edge
PADDED = b"{" + b" " * 8190 + b"\r\n" + P1[1:].replace(b"\n", b"\r\n") + b" " * 8000
BYTES_CORPUS = {
    "lf": P1,
    "crlf": P1.replace(b"\n", b"\r\n"),
    "cr": P1.replace(b"\n", b"\r"),
    "cr cr lf": P1.replace(b"\n", b"\r\r\n"),
    "crlf past a buffer": PADDED,
    "crlf before a json error": b'{\r\n "rank": 1,\r\n "rays": [[1],,\r\n',
    "lone cr before a json error": b'{"rank": 1,\r"rays":\r\r [[1]\r,, ]}',
    "cr inside a string": b'{"rank": 1,\r\n "ra\rys": []}',
    "cr at the end": b'{"rank": 1,\r',
    "bom": b"\xef\xbb\xbf" + P1,
    "bom with crlf": b"\xef\xbb\xbf" + P1.replace(b"\n", b"\r\n"),
    "non-ascii level key": b'{"rank": 1, "rays": [[1]], "max_cones": [[0]],\r\n'
                           b' "levels": {"\xc2\xb2": 2}}',
    "invalid byte in the middle": P1[:20] + b"\xff" + P1[20:],
    "invalid byte after crlf": P1.replace(b"\n", b"\r\n")[:30] + b"\xc3(" + P1[30:],
    "invalid byte past a buffer": PADDED[:12000] + b"\x80" + PADDED[12000:],
    "multibyte cut at the end": P1 + b"\xe2\x82",
    "empty": b"",
    "only crlf": b"\r\n\r\n",
}


@pytest.mark.parametrize("name", BYTES_CORPUS)
def test_byte_read_matches_text_mode(name, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(BYTES_CORPUS[name])
    expected = loaded(text_mode_load, str(path))
    assert loaded(cli_mod._load_document, str(path)) == expected


def test_byte_read_refuses_what_text_mode_cannot_open(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        expected = loaded(text_mode_load, str(path))
        assert expected[0] == "refused" and expected[1].startswith(f"cannot read {path}: ")
        assert loaded(cli_mod._load_document, str(path)) == expected

"""Command-line interface: file ingestion, dispatch and reports.

Documents are JSON: {"rank", "rays", "max_cones", "levels", "characteristics"}
with levels keyed by ray index (decimal string, JSON object keys) defaulting
to 1, and characteristics defaulting to [0]. Reports are byte-deterministic:
canonical orderings everywhere, sorted keys, exact integers and rationals
(large integers as decimal strings, rationals as "p/q").

Exit codes: 0 success, 1 validation failure (every ``FanError``, including
a cone selector naming no cone of the fan, or the zero cone for ``mfr``),
2 parse failure (including a file that is not UTF-8, JSON nested past
the recursion limit, an integer literal longer than Python converts, a
JSON object that repeats a key, two level keys naming one ray, a rank
above ``MAX_RANK``, and a ray entry or level whose absolute value is
``ENTRY_LIMIT`` = 2^64 or more), 3 internal error (a consistency tripwire
or any other exception; indicates a bug, never expected), 4 limit exceeded
(a Hilbert basis walk over ``monoids.MAX_LATTICE_POINTS`` points, or a
report listing over ``MAX_REPORT_FACES`` cycle ideals, refused
before it starts, and in a report before any chart or face lattice; the
message names the count, the limit and a walk's cone).

A report is streamed. ``report_data`` runs every refusal and tripwire
(the face limit, the Hilbert-basis walks, the charts and every face group,
each from its parent's by one relation) before its first byte, so exits 3
and 4 write nothing to stdout; its lists are ``_Entries``, and
``emit_json`` or ``render_report_text`` builds each entry (a chart, a
cycle ideal, a ``cones`` row, a boundary divisor) just before it writes
it. The walk builds each face's id once, as JSON quotes it. Each list that
grows with the faces, a chart's cycle ideals (over its faces' bit masks)
and the ``cones`` rows (over the face layers), is one walk that three
renderings read: entry dicts, which a list yields when iterated; JSON
text, filled into a template of the entry's keys; and the text report's
lines and table cells. Each forms each coordinate index and coarse
generator once per chart, and each distinct stabilizer once. Output goes
out in chunks, at the end of an entry once 512 pieces of JSON text (an
entry written from text, one piece, counting as eight within its list) or
512 lines of text are pending.

``main`` may be called any number of times in one process; the argument
parser is built once, on the first call, and each call parses its arguments
with the parser of the command they name.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from itertools import chain, combinations, compress, islice
from json.encoder import encode_basestring
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from . import charts as chartlib
from . import cones as conelib
from . import monoids as monoidlib
from . import stackyfan as fanlib
from .linalg import FiniteAbelianGroup, dot
from .stackyfan import FanError, StackyFan

_JSON_SAFE_INT = 2 ** 53 - 1
# a larger rank is a parse error: with ``ENTRY_LIMIT`` it keeps every integer
# a command writes below Python's int-to-decimal limit (see below)
MAX_RANK = 64
# a ray entry or level x with |x| >= 2^64 is a parse error, so that every
# integer a report writes stays inside Python's int-to-decimal limit (4,300
# digits): with rank <= 64, Hadamard's bound gives |det| <= (8 * 2^64)^64 =
# 2^4288 for the rays of a cone, and their levels multiply to less than
# 2^4096, so a stacky multiplicity has fewer than about 2,524 digits
ENTRY_LIMIT = 2 ** 64
# most cycle ideals a report may list, one per face of a maximal cone ((P^1)^8 lists 65,536)
MAX_REPORT_FACES = 2 ** 17


class ReportTooLarge(Exception):
    """A report would list more than ``MAX_REPORT_FACES`` cycle ideals."""


class DocumentParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class FanDocument(NamedTuple):
    """Parsed input file describing a stacky fan over chosen characteristics."""

    rank: int
    rays: list[tuple[int, ...]]
    max_cones: list[tuple[int, ...]]
    levels: Mapping[int, int] = MappingProxyType({})
    characteristics: Sequence[int] = (0,)


def _expect(condition, template, *args):
    """Raise ``DocumentParseError`` unless condition; the message is
    ``template.format(*args)``, formatted only then."""
    if not condition:
        raise DocumentParseError(template.format(*args))


def _decimal(text: str, template: str, *args) -> int:
    """The integer an ASCII decimal string (``-?[0-9]+``, but not ``-0``,
    ``-00``, ...) spells, else ``DocumentParseError`` with the message
    ``template.format(*args)``, also for more digits than ``int()`` converts."""
    if _DECIMAL(text):
        try:
            return int(text)
        except ValueError:  # past int()'s digit limit
            pass
    raise DocumentParseError(template.format(*args))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object of one JSON ``{...}``; a repeated key is a parse error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise DocumentParseError(f"invalid JSON: key {key!r} is repeated in one object")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # built once, not per document
_DECIMAL = re.compile("[0-9]+|-0*[1-9][0-9]*").fullmatch  # a decimal, as ``_decimal`` reads it
_FIELDS = frozenset({"rank", "rays", "max_cones", "levels", "characteristics"})


def document_from_json(text: str) -> FanDocument:
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raw = _DECODER.decode(text)
    except DocumentParseError:
        raise
    except json.JSONDecodeError as e:
        raise DocumentParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno) from e
    except RecursionError as e:
        raise DocumentParseError("invalid JSON: nested too deeply") from e
    except ValueError as e:  # an integer literal past int()'s digit limit
        raise DocumentParseError("invalid JSON: an integer literal has more than "
                                 f"{sys.get_int_max_str_digits()} digits") from e
    _expect(isinstance(raw, dict), "document must be a JSON object")
    unknown = raw.keys() - _FIELDS
    _expect(not unknown, "unknown fields: {}", sorted(unknown))
    _expect("rank" in raw and "rays" in raw and "max_cones" in raw,
            "document requires 'rank', 'rays' and 'max_cones'")
    # JSON gives no list or dict subclass, and no int subclass but bool, so
    # a type of exactly int is an integer
    rank = raw["rank"]
    _expect(type(rank) is int and rank >= 1, "'rank' must be a positive integer")
    _expect(rank <= MAX_RANK, "'rank' {} is above the limit of {}", rank, MAX_RANK)
    rays = raw["rays"]
    _expect(isinstance(rays, list), "'rays' must be a list")
    for i, r in enumerate(rays):
        if type(r) is not list or len(r) != rank or not _INT.issuperset(map(type, r)):
            raise DocumentParseError(f"ray {r!r} must be a list of {rank} integers")
        if min(r) <= -ENTRY_LIMIT or max(r) >= ENTRY_LIMIT:
            raise DocumentParseError(f"ray {i} has an entry of absolute value 2^64 or more")
    cones = raw["max_cones"]
    _expect(isinstance(cones, list), "'max_cones' must be a list")
    for c in cones:
        if type(c) is not list or not _INT.issuperset(map(type, c)):
            raise DocumentParseError(f"cone {c!r} must be a list of ray indices")
    levels_raw = raw.get("levels")
    _expect(levels_raw is None or type(levels_raw) is dict,
            "'levels' must be an object keyed by ray index")
    levels, named = {}, {}
    for key, value in (levels_raw or {}).items():
        index = _decimal(key, "level key {!r} must be a decimal ray index", key)
        if index in named:
            raise DocumentParseError(f"level keys {named[index]!r} and {key!r} name ray {index}")
        named[index] = key
        if type(value) is not int:
            raise DocumentParseError(f"level for ray {key} must be an integer")
        if abs(value) >= ENTRY_LIMIT:
            raise DocumentParseError(f"level for ray {key} has absolute value 2^64 or more")
        levels[index] = value
    chars = raw.get("characteristics", [0])
    _expect(type(chars) is list and _INT.issuperset(map(type, chars)),
            "'characteristics' must be a list of integers")
    return FanDocument(rank=rank, rays=list(map(tuple, rays)), max_cones=list(map(tuple, cones)),
                       levels=levels, characteristics=list(chars))


def document_to_dict(doc: FanDocument) -> dict:
    return {
        "rank": doc.rank,
        "rays": [list(r) for r in doc.rays],
        "max_cones": [list(c) for c in doc.max_cones],
        "levels": {str(k): v for k, v in sorted(doc.levels.items())},
        "characteristics": list(doc.characteristics),
    }


def check_document(doc: FanDocument) -> tuple[list[FanError], StackyFan | None]:
    """Every rule the document breaks, and its stacky fan if none."""
    return fanlib.stacky_fan_violations(doc.rank, doc.rays, doc.max_cones,
                                        doc.levels, doc.characteristics)


def validation_errors(doc: FanDocument) -> list[dict]:
    """Every document/axiom violation, as structured entries."""
    errors = []
    for e in check_document(doc)[0]:
        entry = {"code": type(e).__name__, "message": str(e)}
        if isinstance(e, (fanlib.NonPrimitiveRay, fanlib.DuplicateRay, fanlib.InvalidLevel)):
            entry["ray"] = e.ray_index
        elif isinstance(e, (fanlib.RayIndexOutOfRange, fanlib.NonSimplicial)):
            entry["cone"] = list(e.cone_indices)
        elif isinstance(e, fanlib.IntersectionNotFace):
            entry["cones"] = [list(c) for c in e.cone_pair]
        errors.append(entry)
    return errors


# ---------------------------------------------------------------------------
# serialization

class _Entries:
    """A list whose entries are built one at a time, anew on each pass:
    iterating it calls ``entries()``. ``emit_json`` writes it as the JSON
    list of its entries, and may flush after each. ``texts``, if given,
    maps an indent (a newline and spaces) to an iterator over the entries'
    JSON text at that indent, byte for byte what ``_append_json`` writes of
    each entry; ``emit_json`` then writes those texts and builds no entry.
    ``lines``, if given, iterates what ``render_report_text`` writes of
    each entry: a line, or the string cells of a row."""

    __slots__ = ("entries", "texts", "lines")

    def __init__(self, entries, texts=None, lines=None):
        self.entries = entries
        self.texts = texts
        self.lines = lines

    def __iter__(self):
        return self.entries()


class _Stream(list):
    """Pieces of text; ``flush`` writes them out as one chunk and drops them."""

    __slots__ = ("write",)

    def __init__(self, write):
        self.write = write

    def flush(self) -> None:
        self.write("".join(self))
        self.clear()


# a streamed report writes a chunk once this many pieces of JSON text (at
# the end of an entry) or lines of text are pending; a text table reads
# this many rows at a time for its column widths
_CHUNK = 512
# an entry written from its text is one piece, about as much text as the
# eight or so pieces the recursion appends for a cycle ideal, and counts as
# that many against _CHUNK within its list
_TEXT_PIECES = 8
# the sets of element types that the document checks and the writer compare against
_INT, _STR = {int}, {str}
# a value "\0key" of a dict as the writer quotes it; ``_json_parts`` splits there
_FIELD = re.compile(r'"\\u0000(\w+)"')


def _int_text(value: int) -> str:
    """The JSON text of an exact int: a decimal string beyond 2^53-1."""
    return encode_basestring(str(value)) if abs(value) > _JSON_SAFE_INT else int.__repr__(value)


def _json_text(value, newline: str) -> str:
    """The text ``_append_json`` writes of value, which holds no ``_Entries``."""
    out = []
    _append_json(value, out, newline)
    return "".join(out)


@functools.cache
def _json_parts(keys: tuple[str, ...], newline: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The text ``_append_json`` writes at newline of a dict with these keys,
    split into pieces, and the position among them of each key's value: in
    a list of the pieces with each position set to the JSON text of that
    value, the pieces join to the text of the dict."""
    parts = _FIELD.split(_json_text({key: "\0" + key for key in keys}, newline))
    return tuple(parts), tuple(map(parts.index, keys))


def _append_json(value, out: _Stream, newline: str) -> None:
    """Append the JSON text of value to out, a ``_Stream`` if value holds an
    ``_Entries``; newline ends a line and indents the next. Dispatch is on
    the exact type of value; any other type raises ``TypeError``. A list of
    exact ints within 2^53-1 is one ``join``. After each entry of an
    ``_Entries``, out is flushed once it holds ``_CHUNK`` pieces, a text
    entry counting as ``_TEXT_PIECES``."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        items = value if set(map(type, value)) == _STR else {str(k): v for k, v in value.items()}
        sep = "{" + inner
        for key, x in sorted(items.items()):
            out.append(sep + encode_basestring(key) + ": ")
            _append_json(x, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if (set(map(type, value)) == _INT
                and -_JSON_SAFE_INT <= min(value) and max(value) <= _JSON_SAFE_INT):
            out.append("[" + inner + ("," + inner).join(map(str, value)) + newline + "]")
            return
        sep = "[" + inner
        for x in value:
            out.append(sep)
            _append_json(x, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is str:
        out.append(encode_basestring(value))
    elif kind is int:
        out.append(_int_text(value))
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is Fraction:
        out.append(f'"{value.numerator}/{value.denominator}"')
    elif kind is _Entries:
        inner = newline + "  "
        sep = "[" + inner
        texts = value.texts
        weight = 0  # what each text since the last flush counts beyond its one piece
        for x in texts(inner) if texts else value:
            if texts:
                out.append(sep + x)
                weight += _TEXT_PIECES - 1
            else:
                out.append(sep)
                _append_json(x, out, inner)
            if len(out) + weight >= _CHUNK:
                out.flush()
                weight = 0
            sep = "," + inner
        out.append("[]" if sep[0] == "[" else newline + "]")
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")


def emit_json(obj, write) -> None:
    """Write the canonical JSON text of obj through write: the bytes of
    ``json.dumps(..., sort_keys=True, indent=2, ensure_ascii=False)`` plus a
    final newline, after keys become strings, tuples lists, integers beyond
    2^53-1 in absolute value decimal strings, ``Fraction``s ``"p/q"``
    strings and each ``_Entries`` the list of its entries. Output goes out
    in chunks that end with an entry of an ``_Entries`` in obj, and then
    the rest, so obj with none is one write. Any other type, a subclass
    such as a named tuple included, raises ``TypeError``."""
    out = _Stream(write)
    _append_json(obj, out, "\n")
    out.append("\n")
    out.flush()


def cone_id(indices: Sequence[int]) -> str:
    return ",".join(map(str, indices))


def _ray_indices(face: str) -> list[int]:
    """The ray indices of a face, from its id as JSON quotes it."""
    return [*map(int, face[1:-1].split(","))] if len(face) > 2 else []


def _group_dict(g: FiniteAbelianGroup) -> dict:
    return {
        "invariant_factors": list(g.invariant_factors),
        "order": g.order,
        "cartier_dual": " x ".join(map("mu_{}".format, g.invariant_factors)) or "trivial",
    }


# ---------------------------------------------------------------------------
# reports

def _on_cone(key: tuple[int, ...], compute):
    """compute(), naming the cone ``key`` on a lattice walk over the limit."""
    try:
        return compute()
    except monoidlib.LatticeWalkTooLarge as e:
        e.cone = key
        raise


def report_data(doc: FanDocument, sf: StackyFan) -> dict:
    """The report, with each list that grows with the output (its charts,
    their cycle ideals, its cones and boundary divisors) an ``_Entries``
    that builds its entries anew each time it is read: ``emit_json`` and
    ``render_report_text`` write it as they build it.

    Every refusal and tripwire runs here, before any entry: the face limit,
    each maximal cone's Hilbert-basis walk, the charts, the group of every
    face and the chart-coordinate check. What the entries read is one id
    and the position of one distinct group per face, and one id and bit
    mask per cycle ideal, not the output.
    """
    fan = sf.fan
    faces = sum(2 ** len(c) for c in fan.maximal_cones)  # a cycle ideal per chart face
    if faces > MAX_REPORT_FACES:
        raise ReportTooLarge(f"report would list {faces} cycle ideals, "
                             f"above the limit of {MAX_REPORT_FACES}")
    # every maximal cone's coarse generators come first, so that a Hilbert
    # basis walk over the limit is refused before any chart or face lattice;
    # no cache keeps the cones (or the fan) once the report is written
    generators = {c: _on_cone(c, lambda: monoidlib.monoid_generators(
        conelib.dual_cone(fan.build_cone(c)))) for c in fan.maximal_cones}
    chars = set(doc.characteristics)  # each distinct one decides tameness once
    charts = {c: chartlib.local_chart(sf, c) for c in fan.maximal_cones}
    smooth_canonical = (all(n == 1 for n in sf.levels)
                        and all(charts[c].multiplicity == 1 for c in fan.maximal_cones))
    # |G| of each chart is its cone's stacky multiplicity (asserted by
    # local_chart): the fan is tame, and the stack Deligne-Mumford, exactly
    # when every chart is Kummer log etale. The group of a face embeds in
    # that of its cone, so the maximal cones' charts decide it
    etale = {c: chartlib.is_kummer_etale_chart(charts[c], chars) for c in fan.maximal_cones}
    tame = all(etale.values())
    # per ray, the one coordinate of each chart on it that cuts its divisor
    divisor_coordinates = [{} for _ in fan.rays]
    # per dimension, each face's id, as JSON quotes it, -> the position in
    # distinct of its (group, multiplicity) (the zero face's, trivial, at 0),
    # from the chart of the first maximal cone that has the face
    groups = [{} for _ in range(max(map(len, fan.maximal_cones)) + 1)]
    distinct, shared = {(FiniteAbelianGroup(), 1): 0}, {}
    # per maximal cone, its faces' ids in walk order (by size, then lex), one
    # cycle ideal each; per cone size, the faces' bit masks in that order
    walks, masks = {}, {}
    for c in fan.maximal_cones:
        chart, r, key = charts[c], len(c), cone_id(c)
        if sorted(chart.fan_rays) != list(c):
            raise AssertionError("a ray must be cut by exactly one chart coordinate")
        for i, rho in enumerate(chart.fan_rays):
            divisor_coordinates[rho][key] = i
        groups[r]['"' + key + '"'] = distinct.setdefault((chart.group, chart.multiplicity),
                                                         len(distinct))
        if r not in masks:
            masks[r] = [list(map(sum, combinations([1 << i for i in range(r)], k)))
                        for k in range(r + 1)]
        # a trivial G has levels 1 (asserted by local_chart): its faces' groups
        # are trivial; any other G's faces come with their parents' lattices
        lattice = chartlib.face_lattices(chart) if chart.group.invariant_factors else None
        names = list(map(str, c))
        walk = walks[c] = []
        for k, layer in enumerate(groups[:r + 1]):
            for f, mask in zip(combinations(names, k), masks[r][k]):
                face = '"' + ",".join(f) + '"'
                if face not in layer:
                    layer[face] = 0 if lattice is None else distinct.setdefault(
                        chartlib.face_quotient(*lattice(mask), f), len(distinct))
                else:  # a face of an earlier cone: its walks share one id
                    face = shared.setdefault(face, face)
                walk.append(face)
    if len(walks) > 1:  # one cone's walk is in the cones' order already
        groups = [dict(sorted(layer.items(), key=lambda item: _ray_indices(item[0])))
                  for layer in groups]

    def chart_entry(c):
        chart = charts[c]
        # restricted to N' (M modulo the units sigma^perp is M'), they are the
        # Hilbert basis of the chart monoid P, and the units restrict to 0
        coarse = sorted({tuple(dot(h, v) for v in chart.n_prime_basis)
                         for h in generators[c]} - {(0,) * chart.r})
        # a face of c is a bit mask over c's positions; each generator (>= 0
        # on c) cuts a face's cycle when it is positive on one of its rays,
        # and each chart coordinate lies in a face when its fan ray does
        position = {rho: 1 << k for k, rho in enumerate(c)}
        basis = sorted(generators[c])
        hits = [sum(bit for rho, bit in position.items() if dot(h, fan.rays[rho]) > 0)
                for h in basis]
        coordinate_bits = [position[rho] for rho in chart.fan_rays]

        def cycle_ideals(index, generator, entry):
            # every rendering's one walk: entry of each face's id and of the
            # indices and generators it selects, each formed once per pass
            indices = [*map(index, range(len(coordinate_bits)))]
            rows = [generator(list(h)) for h in basis]
            for face, mask in zip(walks[c], chain.from_iterable(masks[len(c)])):
                yield entry(face, compress(indices, map(mask.__and__, coordinate_bits)),
                            compress(rows, map(mask.__and__, hits)))

        def cycle_ideal_texts(newline):
            # each index and generator with its line break, at its list's depth
            inner = newline + "  "
            depth = inner + "  "
            parts, (at_cone, at_coordinates, at_generators) = _json_parts(
                ("cone", "chart_coordinates", "coarse_generators"), newline)
            text = list(parts)

            def entry(face, coordinates, generators):
                text[at_cone] = face
                elements = ",".join(coordinates)
                text[at_coordinates] = "[" + elements + inner + "]" if elements else "[]"
                elements = ",".join(generators)
                text[at_generators] = "[" + elements + inner + "]" if elements else "[]"
                return "".join(text)

            return cycle_ideals((depth + "{}").format, lambda h: depth + _json_text(h, depth), entry)

        return {
            "cone": cone_id(c),
            "r": chart.r,
            "torus_rank": chart.torus_rank,
            "group": _group_dict(chart.group),
            "action_weights": [list(w) for w in chart.action_weights],
            "coordinate_levels": list(chart.levels),
            "coordinate_fan_rays": list(chart.fan_rays),
            "kummer_log_etale": etale[c],
            "coarse_hilbert_basis": [list(v) for v in coarse],
            "splitting": {
                "n_prime_basis": [list(v) for v in chart.n_prime_basis],
                "n_doubleprime_basis": [list(v) for v in chart.n_doubleprime_basis],
            },
            "cycle_ideals": _Entries(
                lambda: cycle_ideals(int, list, lambda face, coordinates, generators: {
                    "cone": face[1:-1], "chart_coordinates": [*coordinates],
                    "coarse_generators": [*generators]}),
                cycle_ideal_texts,
                lambda: cycle_ideals(str, str, lambda face, coordinates, generators: (
                    f"  cycle [{face[1:-1] or 'zero'}]: coordinates [{', '.join(coordinates)}]"
                    f" coarse [{', '.join(generators)}]"))),
        }

    def cone_rows(dimension, stabilizer, row):
        # every rendering's one pass over the face layers: row of each face's
        # dimension, id and (group, multiplicity), each formed once per pass
        fields = [stabilizer(q, group.order, _group_dict(group)) for group, q in distinct]
        for k, layer in zip(map(dimension, range(len(groups))), groups):
            for face, at in layer.items():
                yield row(k, face, fields[at])

    def cone_row_texts(newline):
        inner = newline + "  "
        depth = "," + inner + "  "
        parts, (at_id, at_rays, at_dim, at_q, at_order, at_stabilizer) = _json_parts(
            ("id", "ray_indices", "dim", "multiplicity", "stacky_multiplicity", "stabilizer"),
            newline)
        text = list(parts)

        def row(k, face, fields):
            text[at_dim] = k
            text[at_id] = face
            text[at_q], text[at_order], text[at_stabilizer] = fields
            text[at_rays] = ("[" + depth[1:] + face[1:-1].replace(",", depth) + inner + "]"
                             if len(face) > 2 else "[]")
            return "".join(text)

        return cone_rows(str, lambda q, order, group: (_int_text(q), _int_text(order),
                                                       _json_text(group, inner)), row)

    out = {
        # the generic stabilizer along a boundary divisor is cyclic of order its level
        "boundary_divisors": _Entries(lambda: ({
            "ray": rho,
            "level": level,
            "generic_stabilizer": f"mu_{level}" if level > 1 else "trivial",
            "chart_coordinates": divisor_coordinates[rho],
        } for rho, level in enumerate(sf.levels))),
        "charts": _Entries(lambda: map(chart_entry, fan.maximal_cones)),
        "cones": _Entries(
            lambda: cone_rows(int, lambda q, order, group: {
                "multiplicity": q, "stacky_multiplicity": order, "stabilizer": group},
                lambda k, face, fields: {"id": face[1:-1], "ray_indices": _ray_indices(face),
                                         "dim": k, **fields}),
            cone_row_texts,
            lambda: cone_rows(str, lambda q, order, group: (str(q), str(order),
                                                            group["cartier_dual"]),
                              lambda k, face, fields: (face[1:-1] or "(zero)", k, *fields))),
        "document": document_to_dict(doc),
        "fan": {
            "rank": fan.ambient_rank,
            "num_rays": len(fan.rays),
            "num_cones": sum(map(len, groups)),
            "maximal_cones": [cone_id(c) for c in fan.maximal_cones],
            "complete": fanlib.is_complete(fan),
            "tame": tame,
            "deligne_mumford": tame,
            "smooth_canonical": smooth_canonical,
            "characteristics": list(doc.characteristics),
        },
    }
    if smooth_canonical:
        out["fan"]["note"] = ("all levels are 1 and every cone is nonsingular: "
                              "the stack coincides with the toric variety of the fan")
    return out


def mfr_data(sf: StackyFan, cone_selector: Sequence[int]) -> dict:
    key = sf.fan.normalize(cone_selector)
    chart = chartlib.local_chart(sf, key)
    local, res = _on_cone(key, lambda: chartlib.chart_resolution(chart))
    correspondence = [{
        "index": line.index,
        "free_generator": list(line.generator),
        "ray": list(line.ray),
        "prime_facet_rays": [list(r) for r in line.facet_rays],
        "fan_ray": chart.fan_rays[line.index],
    } for line in monoidlib.irreducible_ray_correspondence(res)]
    return {
        "cone": cone_id(key),
        "r": len(key),
        "splitting_basis": [list(v) for v in chart.n_prime_basis + chart.n_doubleprime_basis],
        "hilbert_basis": [list(v) for v in local.hilbert_basis],
        "cp_rays": [list(v) for v in local.defining_cone.rays],
        "denominators": list(res.denominators),
        "levels": list(res.levels),
        "free_generators": [[x for x in f] for f in res.generators],
        "realized_generators": [[x for x in g] for g in res.realized_generators],
        # F^gp / P^gp: the matrix of P^gp -> F^gp in the realized basis is
        # the chart's free-net matrix, so its cokernel is the chart's group
        "cokernel": _group_dict(chart.group),
        "saturation_check": monoidlib.saturation_intersection_check(res),
        "correspondence": correspondence,
    }


def stabilizer_data(sf: StackyFan, cone_selector: Sequence[int]) -> dict:
    key = sf.fan.normalize(cone_selector)
    group = chartlib.stabilizer(sf, key)
    return {
        "cone": cone_id(key),
        "stacky_multiplicity": group.order,
        "stabilizer": _group_dict(group),
    }


# ---------------------------------------------------------------------------
# text rendering

def _render_table(rows, header: list[str]):
    """The lines of a table of string cells. Its column widths are read
    ``_CHUNK`` rows at a time; a table of more rows than that is read a
    second time for its lines."""
    widths = list(map(len, header))
    rows_left = iter(rows)
    batch = first = list(islice(rows_left, _CHUNK))
    while batch:
        widths = [max(w, *map(len, column)) for w, column in zip(widths, zip(*batch))]
        batch = list(islice(rows_left, _CHUNK))
    fmt = "  ".join("{:<%d}" % w for w in widths).format
    yield fmt(*header)
    yield fmt(*["-" * w for w in widths])
    for r in first if len(first) < _CHUNK else rows:
        yield fmt(*r)


def _report_lines(sections: dict):
    """The lines of the text report of ``report_data``' output, each as it
    is formatted, the cycle ideals and ``cones`` rows from their ``lines``."""
    fan = sections["fan"]
    yield (f"stacky fan report (rank {fan['rank']}, {fan['num_rays']} rays, "
           f"{fan['num_cones']} cones)")
    yield f"characteristics: {fan['characteristics']}"
    yield (f"complete: {fan['complete']}   tame: {fan['tame']}   "
           f"Deligne-Mumford: {fan['deligne_mumford']}")
    if fan.get("note"):
        yield fan["note"]
    yield ""
    yield from _render_table(_Entries(sections["cones"].lines),
                             ["cone", "dim", "mult", "stacky mult", "stabilizer"])
    yield ""
    for chart in sections["charts"]:
        yield (f"chart over cone [{chart['cone']}]: "
               f"[A^{chart['r']}/{chart['group']['cartier_dual']}]"
               f" x T^{chart['torus_rank']}"
               f"   Kummer-log-etale: {chart['kummer_log_etale']}")
        yield (f"  action weights: {chart['action_weights']}"
               f"   coordinate levels: {chart['coordinate_levels']}"
               f"   coordinate rays: {chart['coordinate_fan_rays']}")
        yield f"  coarse Hilbert basis: {chart['coarse_hilbert_basis']}"
        yield from chart["cycle_ideals"].lines()
        yield ""
    rows = [[str(b["ray"]), str(b["level"]), b["generic_stabilizer"],
             json.dumps(b["chart_coordinates"], sort_keys=True)]
            for b in sections["boundary_divisors"]]
    yield from _render_table(rows, ["ray", "level", "generic stab", "chart coordinate"])


def render_report_text(sections: dict, write) -> None:
    """Write the text report of ``report_data``' output through write, each
    line ended by a newline, in chunks of up to ``_CHUNK`` lines."""
    lines = _report_lines(sections)
    while chunk := list(islice(lines, _CHUNK)):
        write("\n".join(chunk) + "\n")


def render_mfr_text(data: dict) -> str:
    lines = [
        f"minimal/admissible free resolution over cone [{data['cone']}]",
        f"Hilbert basis of P: {data['hilbert_basis']}",
        f"rays of C(P): {data['cp_rays']}",
        f"denominators b: {data['denominators']}   levels n: {data['levels']}",
        f"free generators: {[[str(x) for x in f] for f in data['free_generators']]}",
        f"realized generators: {[[str(x) for x in g] for g in data['realized_generators']]}",
        f"cokernel: {data['cokernel']['cartier_dual']} "
        f"(invariant factors {data['cokernel']['invariant_factors']})",
        f"saturation check: {data['saturation_check']}",
    ]
    rows = [[str(c["index"]), str([str(x) for x in c["free_generator"]]), str(c["ray"]),
             str(c["fan_ray"]), str(c["prime_facet_rays"])] for c in data["correspondence"]]
    lines.extend(_render_table(rows, ["i", "generator", "ray of C(P)",
                                      "fan ray", "prime (facet rays)"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command dispatch

def _load_document(path: str) -> FanDocument:
    """The document at path, decoded as text mode decodes UTF-8 (CR LF or CR to LF)."""
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode()
    except OSError as e:
        raise DocumentParseError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise DocumentParseError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from e
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return document_from_json(text)


def _parse_cone_flag(value: str) -> list[int]:
    return [_decimal(x, "bad cone selector {!r}; expected i,j,...", value)
            for x in map(str.strip, value.split(",")) if x]


def cmd_validate(doc: FanDocument, args) -> int:
    errors = validation_errors(doc)
    if args.format == "json":
        emit_json({"ok": not errors, "errors": errors}, sys.stdout.write)
    else:
        sys.stdout.write("".join(f"{e['code']}: {e['message']}\n" for e in errors) or "OK\n")
    return 0 if not errors else 1


def _checked(doc: FanDocument) -> StackyFan | None:
    """The document's stacky fan, or None once its violations are on stderr."""
    found, sf = check_document(doc)
    sys.stderr.writelines(f"{type(e).__name__}: {e}\n" for e in found)
    return sf


def _guarded(doc: FanDocument, compute, args):
    sf = _checked(doc)
    if sf is None:
        return 1
    data = compute(sf)
    if args.format == "json":
        emit_json(data, sys.stdout.write)
    else:
        sys.stdout.write(args.render(data))
    return 0


def cmd_report(doc: FanDocument, args) -> int:
    sf = _checked(doc)
    if sf is None:
        return 1
    # every refusal and tripwire runs before the first chunk is written
    sections = report_data(doc, sf)
    (emit_json if args.format == "json" else render_report_text)(sections, sys.stdout.write)
    return 0


def cmd_mfr(doc: FanDocument, args) -> int:
    args.render = render_mfr_text
    selector = _parse_cone_flag(args.cone)
    return _guarded(doc, lambda sf: mfr_data(sf, selector), args)


def cmd_stabilizer(doc: FanDocument, args) -> int:
    args.render = lambda d: (
        f"cone [{d['cone']}]: stabilizer {d['stabilizer']['cartier_dual']} "
        f"of order {d['stabilizer']['order']} "
        f"(stacky multiplicity {d['stacky_multiplicity']})\n")
    selector = _parse_cone_flag(args.cone)
    return _guarded(doc, lambda sf: stabilizer_data(sf, selector), args)


def cmd_complete(doc: FanDocument, args) -> int:
    args.render = lambda d: f"complete: {d['complete']}\n"
    return _guarded(doc, lambda sf: {"complete": fanlib.is_complete(sf.fan)}, args)


# one parser per process: parse_args leaves it as it was, and each command
# writes only to the Namespace of its own call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toristack",
        description="Exact invariants of toric algebraic stacks from stacky-fan files.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's name -> its parser
    for name, fn, text in (
            ("validate", cmd_validate, "check the document against every axiom"),
            ("report", cmd_report, "full invariant report"),
            ("mfr", cmd_mfr, "minimal/admissible free resolution of a cone monoid"),
            ("stabilizer", cmd_stabilizer, "stabilizer group over a cone"),
            ("complete", cmd_complete, "completeness of the fan")):
        p = sub.add_parser(name, help=text)
        p.add_argument("file", help="path to a stacky-fan JSON document")
        p.add_argument("--format", choices=["json", "text"], default="json")
        if name in ("mfr", "stabilizer"):
            p.add_argument("--cone", required=True, help="comma-separated ray indices")
        p.set_defaults(fn=fn)
    return parser


def _parse_argv(argv: Sequence[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` gives, parsed as it parses it:
    the arguments after a command by that command's parser. The top-level
    parser parses argv itself only when argv names no command or leaves
    arguments over, so that its help, usage and exit code stay argparse's."""
    parser = build_parser()
    if argv and argv[0] in parser.commands:
        args, rest = parser.commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(_load_document(args.file), args)
    except DocumentParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return 2
    except FanError as e:
        sys.stderr.write(f"validation error: {e}\n")
        return 1
    except (monoidlib.LatticeWalkTooLarge, ReportTooLarge) as e:
        sys.stderr.write(f"limit exceeded: {e}\n")
        return 4
    except Exception as e:  # a consistency tripwire or any other bug
        sys.stderr.write(f"internal error ({type(e).__name__}): {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())

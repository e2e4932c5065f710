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
before it starts, and in a report before any chart or face group; the
message names the count, the limit and a walk's cone).

``main`` may be called any number of times in one process; the argument
parser is built on the first call and reused.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from json.encoder import encode_basestring
from typing import Sequence

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


@dataclass
class FanDocument:
    """Parsed input file describing a stacky fan over chosen characteristics."""

    rank: int
    rays: list[tuple[int, ...]]
    max_cones: list[tuple[int, ...]]
    levels: dict[int, int] = field(default_factory=dict)
    characteristics: list[int] = field(default_factory=lambda: [0])


def _expect(condition, message):
    if not condition:
        raise DocumentParseError(message)


def _int_like(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _decimal(text: str, message: str) -> int:
    """The integer an ASCII decimal string (``-?[0-9]+``) spells, else
    ``DocumentParseError`` with the message, also for more digits than
    ``int()`` converts."""
    if re.fullmatch("-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # past int()'s digit limit
            pass
    raise DocumentParseError(message)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object of one JSON ``{...}``; a repeated key is a parse error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise DocumentParseError(f"invalid JSON: key {key!r} is repeated in one object")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # built once, not per document


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
    unknown = set(raw) - {"rank", "rays", "max_cones", "levels", "characteristics"}
    _expect(not unknown, f"unknown fields: {sorted(unknown)}")
    _expect("rank" in raw and "rays" in raw and "max_cones" in raw,
            "document requires 'rank', 'rays' and 'max_cones'")
    rank = raw["rank"]
    _expect(_int_like(rank) and rank >= 1, "'rank' must be a positive integer")
    _expect(rank <= MAX_RANK, f"'rank' {rank} is above the limit of {MAX_RANK}")
    rays_raw = raw["rays"]
    _expect(isinstance(rays_raw, list), "'rays' must be a list")
    rays = []
    for i, r in enumerate(rays_raw):
        _expect(isinstance(r, list) and len(r) == rank and all(_int_like(x) for x in r),
                f"ray {r!r} must be a list of {rank} integers")
        _expect(all(abs(x) < ENTRY_LIMIT for x in r),
                f"ray {i} has an entry of absolute value 2^64 or more")
        rays.append(tuple(r))
    cones_raw = raw["max_cones"]
    _expect(isinstance(cones_raw, list), "'max_cones' must be a list")
    max_cones = []
    for c in cones_raw:
        _expect(isinstance(c, list) and all(_int_like(i) for i in c),
                f"cone {c!r} must be a list of ray indices")
        max_cones.append(tuple(c))
    levels_raw = raw.get("levels")
    _expect(levels_raw is None or isinstance(levels_raw, dict),
            "'levels' must be an object keyed by ray index")
    levels, named = {}, {}
    for key, value in (levels_raw or {}).items():
        index = _decimal(key, f"level key {key!r} must be a decimal ray index")
        _expect(index not in named, f"level keys {named.get(index)!r} and {key!r} name ray {index}")
        named[index] = key
        _expect(_int_like(value), f"level for ray {key} must be an integer")
        _expect(abs(value) < ENTRY_LIMIT, f"level for ray {key} has absolute value 2^64 or more")
        levels[index] = value
    chars = raw.get("characteristics", [0])
    _expect(isinstance(chars, list) and all(_int_like(p) for p in chars),
            "'characteristics' must be a list of integers")
    return FanDocument(rank=rank, rays=rays, max_cones=max_cones,
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

def _write_json(value, out: list[str], newline: str) -> None:
    """Append the JSON text of value to out; newline ends a line and indents the next."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(encode_basestring(str(value)) if abs(value) > _JSON_SAFE_INT
                   else int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(x) is int and -_JSON_SAFE_INT <= x <= _JSON_SAFE_INT for x in value):
            out.append("[" + inner + ("," + inner).join(map(str, value)) + newline + "]")
            return
        sep = "[" + inner
        for x in value:
            out.append(sep)
            _write_json(x, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        items = {str(k): v for k, v in value.items()}
        sep = "{" + inner
        for key in sorted(items):
            out.append(sep + encode_basestring(key) + ": ")
            _write_json(items[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, Fraction):
        out.append(f'"{value.numerator}/{value.denominator}"')
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def emit_json(obj) -> str:
    """Canonical JSON text of obj, in one pass.

    The bytes are those of ``json.dumps(..., sort_keys=True, indent=2,
    ensure_ascii=False)`` plus a final newline, after keys become strings,
    tuples lists, integers beyond 2^53-1 in absolute value decimal strings
    and ``Fraction``s ``"p/q"`` strings; other types raise ``TypeError``.
    """
    out: list[str] = []
    _write_json(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def cone_id(indices: Sequence[int]) -> str:
    return ",".join(str(i) for i in indices)


def _group_dict(g: FiniteAbelianGroup) -> dict:
    return {
        "invariant_factors": list(g.invariant_factors),
        "order": g.order,
        "cartier_dual": " x ".join(f"mu_{d}" for d in g.invariant_factors) or "trivial",
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
    fan = sf.fan
    faces = sum(2 ** len(c) for c in fan.maximal_cones)  # a cycle ideal per chart face
    if faces > MAX_REPORT_FACES:
        raise ReportTooLarge(f"report would list {faces} cycle ideals, "
                             f"above the limit of {MAX_REPORT_FACES}")
    # every maximal cone's coarse generators come first, so that a Hilbert
    # basis walk over the limit is refused before any chart or face group
    generators = {c: _on_cone(c, lambda: monoidlib.monoid_generators(
        conelib.dual_cone(fan.cone_geometry(c)))) for c in fan.maximal_cones}
    chars = doc.characteristics
    charts = {c: chartlib.local_chart(sf, c) for c in fan.maximal_cones}
    smooth_canonical = (all(n == 1 for n in sf.levels)
                        and all(charts[c].multiplicity == 1 for c in fan.maximal_cones))
    # |G| of each chart is its cone's stacky multiplicity (asserted by
    # local_chart): the fan is tame, and the stack Deligne-Mumford, exactly
    # when every chart is Kummer log etale. The group of a face embeds in
    # that of its cone, so the maximal cones' charts decide it
    etale = {c: chartlib.is_kummer_etale_chart(charts[c], chars) for c in fan.maximal_cones}
    tame = all(etale.values())
    # a maximal cone reads its group and multiplicity from its chart, and
    # every other face from the chart of the first maximal cone that has it
    groups = {c: (charts[c].group, charts[c].multiplicity) for c in fan.maximal_cones}
    charts_out = []
    for c in fan.maximal_cones:
        chart = charts[c]
        # restricted to N' (M modulo the units sigma^perp is M'), they are the
        # Hilbert basis of the chart monoid P, and the units restrict to 0
        coarse = sorted({tuple(dot(h, v) for v in chart.n_prime_basis)
                         for h in generators[c]} - {(0,) * chart.r})
        # a face of c is a bit mask over c's positions; each generator (>= 0
        # on c) cuts a face's cycle when it is positive on one of its rays
        # (``stackyfan.cycle_generators``), and each chart coordinate lies in
        # a face when its fan ray does (``LocalChart.cycle_coordinates``)
        position = {rho: 1 << k for k, rho in enumerate(c)}
        positive = [(list(h), sum(bit for rho, bit in position.items()
                                  if dot(h, fan.rays[rho]) > 0))
                    for h in sorted(generators[c])]
        coordinate_bits = [position[rho] for rho in chart.fan_rays]
        cycle_ideals = []
        for k in range(len(c) + 1):
            for f in combinations(c, k):
                if f not in groups:
                    groups[f] = chartlib.face_group(chart, f)
                mask = sum(position[rho] for rho in f)
                cycle_ideals.append({
                    "cone": cone_id(f),
                    "chart_coordinates": [i for i, bit in enumerate(coordinate_bits) if bit & mask],
                    "coarse_generators": [h for h, hit in positive if hit & mask],
                })
        charts_out.append({
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
            "cycle_ideals": cycle_ideals,
        })
    cones_out = [{
        "id": cone_id(c),
        "ray_indices": list(c),
        "dim": len(c),
        "multiplicity": groups[c][1],
        "stacky_multiplicity": groups[c][0].order,
        "stabilizer": _group_dict(groups[c][0]),
    } for c in fan.cones]
    boundary = [{
        "ray": entry["ray"],
        "level": entry["level"],
        "generic_stabilizer": f"mu_{entry['level']}" if entry["level"] > 1 else "trivial",
        "chart_coordinates": {cone_id(c): i for c, i in sorted(entry["chart_coordinates"].items())},
    } for entry in chartlib.boundary_divisors_from_charts(sf, charts)]
    out = {
        "document": document_to_dict(doc),
        "fan": {
            "rank": fan.ambient_rank,
            "num_rays": len(fan.rays),
            "num_cones": len(fan.cones),
            "maximal_cones": [cone_id(c) for c in fan.maximal_cones],
            "complete": fanlib.is_complete(fan),
            "tame": tame,
            "deligne_mumford": tame,
            "smooth_canonical": smooth_canonical,
            "characteristics": list(chars),
        },
        "cones": cones_out,
        "charts": charts_out,
        "boundary_divisors": boundary,
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
        "cokernel": _group_dict(monoidlib.resolution_cokernel(res)),
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

def _render_table(rows: list[list[str]], header: list[str]) -> list[str]:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    fmt = "  ".join("{:<%d}" % w for w in widths)
    lines = [fmt.format(*header), fmt.format(*["-" * w for w in widths])]
    lines.extend(fmt.format(*[str(x) for x in r]) for r in rows)
    return lines


def render_report_text(data: dict) -> str:
    fan = data["fan"]
    lines = [
        f"stacky fan report (rank {fan['rank']}, {fan['num_rays']} rays, "
        f"{fan['num_cones']} cones)",
        f"characteristics: {fan['characteristics']}",
        f"complete: {fan['complete']}   tame: {fan['tame']}   "
        f"Deligne-Mumford: {fan['deligne_mumford']}",
    ]
    if fan.get("note"):
        lines.append(fan["note"])
    lines.append("")
    rows = [[c["id"] or "(zero)", c["dim"], c["multiplicity"],
             c["stacky_multiplicity"], c["stabilizer"]["cartier_dual"]]
            for c in data["cones"]]
    lines.extend(_render_table(rows, ["cone", "dim", "mult", "stacky mult", "stabilizer"]))
    lines.append("")
    for chart in data["charts"]:
        lines.append(f"chart over cone [{chart['cone']}]: "
                     f"[A^{chart['r']}/{chart['group']['cartier_dual']}]"
                     f" x T^{chart['torus_rank']}"
                     f"   Kummer-log-etale: {chart['kummer_log_etale']}")
        lines.append(f"  action weights: {chart['action_weights']}"
                     f"   coordinate levels: {chart['coordinate_levels']}"
                     f"   coordinate rays: {chart['coordinate_fan_rays']}")
        lines.append(f"  coarse Hilbert basis: {chart['coarse_hilbert_basis']}")
        for ci in chart["cycle_ideals"]:
            lines.append(f"  cycle [{ci['cone'] or 'zero'}]: coordinates "
                         f"{ci['chart_coordinates']} coarse {ci['coarse_generators']}")
        lines.append("")
    rows = [[b["ray"], b["level"], b["generic_stabilizer"],
             json.dumps(b["chart_coordinates"], sort_keys=True)]
            for b in data["boundary_divisors"]]
    lines.extend(_render_table(rows, ["ray", "level", "generic stab", "chart coordinate"]))
    return "\n".join(lines) + "\n"


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
    rows = [[c["index"], [str(x) for x in c["free_generator"]], c["ray"],
             c["fan_ray"], c["prime_facet_rays"]] for c in data["correspondence"]]
    lines.extend(_render_table(rows, ["i", "generator", "ray of C(P)",
                                      "fan ray", "prime (facet rays)"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command dispatch

def _load_document(path: str) -> FanDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DocumentParseError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise DocumentParseError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from e
    return document_from_json(text)


def _parse_cone_flag(value: str) -> list[int]:
    message = f"bad cone selector {value!r}; expected i,j,..."
    return [_decimal(x, message) for x in map(str.strip, value.split(",")) if x]


def cmd_validate(args) -> int:
    doc = _load_document(args.file)
    errors = validation_errors(doc)
    if args.format == "json":
        sys.stdout.write(emit_json({"ok": not errors, "errors": errors}))
    else:
        sys.stdout.write("".join(f"{e['code']}: {e['message']}\n" for e in errors) or "OK\n")
    return 0 if not errors else 1


def _guarded(doc: FanDocument, compute, args):
    found, sf = check_document(doc)
    sys.stderr.writelines(f"{type(e).__name__}: {e}\n" for e in found)
    if found:
        return 1
    data = compute(sf)
    sys.stdout.write(emit_json(data) if args.format == "json" else args.render(data))
    return 0


def cmd_report(args) -> int:
    doc = _load_document(args.file)
    args.render = render_report_text
    return _guarded(doc, lambda sf: report_data(doc, sf), args)


def cmd_mfr(args) -> int:
    doc = _load_document(args.file)
    args.render = render_mfr_text
    selector = _parse_cone_flag(args.cone)
    return _guarded(doc, lambda sf: mfr_data(sf, selector), args)


def cmd_stabilizer(args) -> int:
    doc = _load_document(args.file)
    args.render = lambda d: (
        f"cone [{d['cone']}]: stabilizer {d['stabilizer']['cartier_dual']} "
        f"of order {d['stabilizer']['order']} "
        f"(stacky multiplicity {d['stacky_multiplicity']})\n")
    selector = _parse_cone_flag(args.cone)
    return _guarded(doc, lambda sf: stabilizer_data(sf, selector), args)


def cmd_complete(args) -> int:
    doc = _load_document(args.file)
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

    def common(p):
        p.add_argument("file", help="path to a stacky-fan JSON document")
        p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("validate", help="check the document against every axiom")
    common(p)
    p.set_defaults(fn=cmd_validate)
    p = sub.add_parser("report", help="full invariant report")
    common(p)
    p.set_defaults(fn=cmd_report)
    p = sub.add_parser("mfr", help="minimal/admissible free resolution of a cone monoid")
    common(p)
    p.add_argument("--cone", required=True, help="comma-separated ray indices")
    p.set_defaults(fn=cmd_mfr)
    p = sub.add_parser("stabilizer", help="stabilizer group over a cone")
    common(p)
    p.add_argument("--cone", required=True, help="comma-separated ray indices")
    p.set_defaults(fn=cmd_stabilizer)
    p = sub.add_parser("complete", help="completeness of the fan")
    common(p)
    p.set_defaults(fn=cmd_complete)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
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

"""Checks of toristack's answers, run after the timed phase.

Every expected value comes from the document itself through the benchmark's
own lattice arithmetic (``lattice.py``), from the Hirzebruch-Jung continued
fraction in rank 2, or from the box-enumeration oracle in
``tests/oracles.py``; or it is a property the method must have. Each
checker returns a list of problems, empty when the answer is right.
"""

from __future__ import annotations

import json
import math
import re

from docs import Op, face_count
from lattice import (
    apply,
    determinant,
    dual_rays,
    hj_hilbert_basis,
    index_of_rays,
    transpose,
    unimodular_inverse,
)


def _levels(doc) -> list[int]:
    table = [1] * len(doc["rays"])
    for key, value in (doc.get("levels") or {}).items():
        table[int(key)] = value
    return table


def _chars(doc) -> list[int]:
    return [p for p in doc.get("characteristics", [0]) if p]


def stacky_multiplicity(doc, indices) -> tuple[int, int]:
    """(multiplicity, multiplicity times the levels) of the cone on ``indices``."""
    if not indices:
        return 1, 1
    mult = index_of_rays([doc["rays"][i] for i in indices])
    levels = _levels(doc)
    return mult, mult * math.prod(levels[i] for i in indices)


def check_group(factors, order, expected, where) -> list[str]:
    """Invariant factors form a divisibility chain and multiply to the order."""
    problems = []
    if any(a < 2 for a in factors) or any(b % a for a, b in zip(factors, factors[1:])):
        problems.append(f"{where}: invariant factors {factors} are not a divisibility chain")
    if math.prod(factors) != order or order != expected:
        problems.append(f"{where}: group order {order} (factors {factors}), expected {expected}")
    return problems


def _label_factors(label: str) -> list[int]:
    return [] if label == "trivial" else [int(x) for x in re.findall(r"mu_(\d+)", label)]


def _expected_tame(doc, cones) -> bool:
    chars = _chars(doc)
    return all(math.gcd(stacky_multiplicity(doc, c)[1], p) == 1 for c in cones for p in chars)


def check_report_json(doc, data, complete: bool) -> list[str]:
    problems = []
    fan = data["fan"]
    faces = face_count(doc["max_cones"])
    if fan["complete"] is not complete:
        problems.append(f"complete is {fan['complete']}, expected {complete}")
    if fan["num_cones"] != faces or len(data["cones"]) != faces:
        problems.append(f"{fan['num_cones']} cones reported, the maximal cones have {faces} faces")
    for cone in data["cones"]:
        mult, smult = stacky_multiplicity(doc, cone["ray_indices"])
        where = f"cone [{cone['id']}]"
        if cone["multiplicity"] != mult:
            problems.append(f"{where}: multiplicity {cone['multiplicity']}, expected {mult}")
        if cone["stacky_multiplicity"] != smult:
            problems.append(f"{where}: stacky multiplicity {cone['stacky_multiplicity']}, "
                            f"expected {smult}")
        group = cone["stabilizer"]
        problems += check_group(group["invariant_factors"], group["order"], smult, where)
    tame = _expected_tame(doc, [c["ray_indices"] for c in data["cones"]])
    if fan["tame"] is not tame or fan["deligne_mumford"] is not tame:
        problems.append(f"tame {fan['tame']} / Deligne-Mumford {fan['deligne_mumford']}, "
                        f"gcd test says {tame}")
    if len(data["charts"]) != len(doc["max_cones"]):
        problems.append(f"{len(data['charts'])} charts for {len(doc['max_cones'])} maximal cones")
    return problems


_HEADER = re.compile(r"stacky fan report \(rank (\d+), (\d+) rays, (\d+) cones\)")
_FLAGS = re.compile(r"complete: (True|False)   tame: (True|False)   Deligne-Mumford: (True|False)")
_ROW = re.compile(r"(\S+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\S.*?)\s*$")


def check_report_text(doc, text, complete: bool) -> list[str]:
    lines = text.splitlines()
    header, flags = _HEADER.fullmatch(lines[0]), _FLAGS.fullmatch(lines[2])
    if not header or not flags:
        return ["report text has no header or flag line"]
    faces = face_count(doc["max_cones"])
    problems = []
    if int(header.group(3)) != faces:
        problems.append(f"{header.group(3)} cones reported, the maximal cones have {faces} faces")
    if (flags.group(1) == "True") is not complete:
        problems.append(f"complete is {flags.group(1)}, expected {complete}")
    start = lines.index("", 2) + 3  # blank line, table header, dashes
    cones = []
    for line in lines[start:start + faces]:
        row = _ROW.fullmatch(line)
        if not row:
            problems.append(f"unreadable cone row {line!r}")
            continue
        indices = [] if row.group(1) == "(zero)" else [int(i) for i in row.group(1).split(",")]
        cones.append(indices)
        mult, smult = stacky_multiplicity(doc, indices)
        if (int(row.group(3)), int(row.group(4))) != (mult, smult):
            problems.append(f"cone {indices}: multiplicities {row.group(3)}, {row.group(4)}, "
                            f"expected {mult}, {smult}")
        factors = _label_factors(row.group(5))
        problems += check_group(factors, math.prod(factors), smult, f"cone {indices}")
    tame = _expected_tame(doc, cones)
    if (flags.group(2) == "True") is not tame or (flags.group(3) == "True") is not tame:
        problems.append(f"tame {flags.group(2)} / Deligne-Mumford {flags.group(3)}, "
                        f"gcd test says {tame}")
    return problems


def expected_hilbert_basis(op: Op, oracles) -> set | None:
    """Independent Hilbert basis of the dual cone in document coordinates.

    Rank 2 uses the continued fraction; in ranks 3-4 the operations that
    carry ``oracle_rays`` run the box oracle on the cone before its change of
    coordinates g and carry the result over by the inverse transpose of g,
    since <g^-T m, g v> = <m, v>. Other operations return None.
    """
    rays = op.doc["rays"]
    if len(rays) == 2:
        u, w = dual_rays(rays)
        return hj_hilbert_basis(u, w)
    if "oracle_rays" not in op.expect:
        return None
    original = op.expect["oracle_rays"]
    basis = oracles.box_hilbert_basis(dual_rays(original), len(original))
    g_inv_t = transpose(unimodular_inverse(op.expect["g"]))
    return {tuple(apply(g_inv_t, m)) for m in basis}


def check_mfr(op: Op, data, oracles) -> list[str]:
    doc = op.doc
    d = len(doc["rays"])
    mult, smult = stacky_multiplicity(doc, list(range(d)))
    problems = []
    if data["saturation_check"] is not True:
        problems.append("saturation check failed")
    group = data["cokernel"]
    problems += check_group(group["invariant_factors"], group["order"], smult, "cokernel")
    if sorted(data["levels"]) != sorted(_levels(doc)):
        problems.append(f"resolution levels {data['levels']}, document has {_levels(doc)}")
    split = data["splitting_basis"]
    if abs(determinant(split)) != 1:
        return problems + [f"splitting basis {split} is not a lattice basis"]
    # m_local = B m with the basis vectors as rows of B
    found = {tuple(apply(unimodular_inverse(split), h)) for h in data["hilbert_basis"]}
    for m in found:
        if any(sum(a * b for a, b in zip(m, v)) < 0 for v in doc["rays"]):
            problems.append(f"Hilbert basis element {m} is not in the dual cone")
    missing_rays = {tuple(r) for r in dual_rays(doc["rays"])} - found
    if missing_rays:
        problems.append(f"Hilbert basis misses the dual rays {sorted(missing_rays)}")
    expected = expected_hilbert_basis(op, oracles)
    if expected is not None and expected != found:
        problems.append(f"Hilbert basis {sorted(found)}, independent basis {sorted(expected)}")
    return problems


def check_stabilizer(doc, data) -> list[str]:
    d = len(doc["rays"])
    _, smult = stacky_multiplicity(doc, list(range(d)))
    problems = []
    if data["stacky_multiplicity"] != smult:
        problems.append(f"stacky multiplicity {data['stacky_multiplicity']}, expected {smult}")
    group = data["stabilizer"]
    return problems + check_group(group["invariant_factors"], group["order"], smult, "stabilizer")


def check_refusal(op: Op, stdout: str, stderr: str) -> list[str]:
    """A refused document names the error code known when it was built."""
    if op.expect_rc == 2:
        return [] if stderr.startswith("parse error: ") else [f"not a parse error: {stderr!r}"]
    if op.argv[0] == "validate":
        codes = {e["code"] for e in json.loads(stdout)["errors"]}
    else:
        codes = {line.split(":", 1)[0] for line in stderr.splitlines()}
    if codes != {op.expect["code"]}:
        return [f"error codes {sorted(codes)}, expected {op.expect['code']}"]
    return []


def check(workload: str, op: Op, rc, stdout: str, stderr: str, oracles) -> list[str]:
    """Problems with one operation's exit code and answer."""
    if rc != op.expect_rc:
        return [f"exit code {rc}, documented {op.expect_rc}"]
    if op.expect_rc != 0:
        return check_refusal(op, stdout, stderr)
    command = op.argv[0]
    complete = workload == "fans"
    if command == "validate":
        data = json.loads(stdout)
        return [] if data == {"ok": True, "errors": []} else [f"validate said {data}"]
    if command == "report" and "text" in op.argv:
        return check_report_text(op.doc, stdout, complete)
    data = json.loads(stdout)
    if command == "report":
        return check_report_json(op.doc, data, complete)
    if command == "mfr":
        return check_mfr(op, data, oracles)
    if command == "stabilizer":
        return check_stabilizer(op.doc, data)
    raise ValueError(f"no check for {command}")

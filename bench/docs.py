"""Seeded documents for the three workloads.

Every document is built here from the seed alone, with no toristack code,
so that the checks can compare the program's answers with values known when
the document was made. One round of a workload is a fixed list of
operations; round ``r`` of seed ``s`` draws from ``random.Random`` seeded by
``(workload, s, r)``, so the same seed always gives the same documents and
no round repeats another.

Fans and cones pass through a random GL_d(Z) change of coordinates and the
ray order is shuffled. That leaves every invariant the checks compare
(multiplicities, stabilizers, completeness, face counts, exit codes)
unchanged, while making every ``Fan`` value distinct, so the process-global
``Fan.cone_geometry`` cache never serves one operation with the work of
another. A CLI user runs each command in a fresh process and never gets
that speed-up either.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations, product

from lattice import apply, determinant, dual_rays, primitive

CHARACTERISTICS = ([0], [0, 2], [0, 3], [0, 5], [0, 2, 3], [0, 7])


@dataclass
class Op:
    """One CLI command on one document, with what the checks must see."""

    argv: list[str]          # CLI arguments without the document path
    text: str                # document as written to disk
    kind: str                # family label, for reports and self-tests
    expect_rc: int           # documented exit code
    doc: dict | None = None  # parsed document, for valid and geometric rejects
    expect: dict = field(default_factory=dict)
    known_fault: bool = False  # fails every time until the program is fixed

    def key(self):
        """What ``toristack.Fan`` equality sees, or the text if no fan is built."""
        if self.doc is None:
            return ("text", self.text)
        return fan_key(self.doc["rays"], self.doc["max_cones"])


# ---------------------------------------------------------------------------
# changes of coordinates

def random_unimodular(rng: random.Random, d: int):
    """A d x d integer matrix of determinant +-1 with small entries.

    A signed permutation followed by a few elementary row additions with
    multipliers +-1 or +-2; entry size, and so the cost of the normal forms
    the program runs, stays comparable across seeds.
    """
    perm = list(range(d))
    rng.shuffle(perm)
    g = [[(rng.choice((1, -1)) if perm[i] == j else 0) for j in range(d)] for i in range(d)]
    for _ in range(d + 1):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((1, -1, 2, -2))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return g


def fan_key(rays, cones):
    return (tuple(map(tuple, rays)), tuple(sorted(tuple(sorted(c)) for c in cones)))


def transform(rng: random.Random, rays, cones, seen: set, last=()):
    """Change coordinates by a random unimodular matrix and shuffle ray order.

    The rays listed in ``last`` keep the highest indices, in that order.
    Draws again until the result is not in ``seen``, then adds it there.
    Returns the new rays, the new cones and the matrix g (v -> g v).
    """
    d = len(rays[0])
    while True:
        g = random_unimodular(rng, d)
        order = [i for i in range(len(rays)) if i not in last]
        rng.shuffle(order)
        order += last
        new_index = {old: new for new, old in enumerate(order)}
        new_rays = [apply(g, rays[old]) for old in order]
        new_cones = sorted(sorted(new_index[i] for i in c) for c in cones)
        key = fan_key(new_rays, new_cones)
        if key not in seen:
            seen.add(key)
            return new_rays, new_cones, g


def face_count(max_cones) -> int:
    """Number of cones of the face closure, the zero cone included."""
    faces = {()}
    for c in max_cones:
        c = sorted(c)
        for k in range(len(c) + 1):
            faces.update(combinations(c, k))
    return len(faces)


def document(rank, rays, cones, levels=None, chars=None) -> dict:
    doc = {"rank": rank, "rays": [list(r) for r in rays], "max_cones": [list(c) for c in cones]}
    if levels:
        doc["levels"] = {str(k): v for k, v in sorted(levels.items())}
    if chars is not None:
        doc["characteristics"] = list(chars)
    return doc


def dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def random_levels(rng: random.Random, n_rays: int) -> dict[int, int]:
    return {i: rng.randint(2, 3) for i in range(n_rays) if rng.random() < 0.4}


# ---------------------------------------------------------------------------
# complete fans

def p1_power(d):
    rays = [[s * int(i == j) for j in range(d)] for i in range(d) for s in (1, -1)]
    cones = [[2 * i + b[i] for i in range(d)] for b in product((0, 1), repeat=d)]
    return rays, cones


def projective_space(d):
    rays = [[int(i == j) for j in range(d)] for i in range(d)] + [[-1] * d]
    return rays, [list(c) for c in combinations(range(d + 1), d)]


def hirzebruch(a):
    return [[1, 0], [0, 1], [-1, a], [0, -1]], [[0, 1], [1, 2], [2, 3], [0, 3]]


def weighted_p2(a, b):
    """Rays e1, e2, (-a, -b): the fan of P(a, b, 1), gcd(a, b) = 1."""
    return [[1, 0], [0, 1], [-a, -b]], [[0, 1], [1, 2], [0, 2]]


# One round of `fans`: each family once with each command, every command on
# its own change of coordinates. Hirzebruch and weighted P^2 enter several
# times so that cheap charts outnumber the heavy (P^1)^4 report.
FAN_FAMILIES = (
    [("P1^%d" % d, lambda d=d: p1_power(d)) for d in (2, 3, 4)]
    + [("P^%d" % d, lambda d=d: projective_space(d)) for d in (2, 3, 4)]
    + [("F_%d" % a, lambda a=a: hirzebruch(a)) for a in (0, 1, 2, 3, 5)]
    + [("P(%d,%d,1)" % ab, lambda ab=ab: weighted_p2(*ab)) for ab in ((1, 2), (2, 3), (3, 5))]
)
FAN_COMMANDS = (["validate"], ["report"], ["report", "--format", "text"])
# (P^1)^4 takes 3 s per report, more than half of a round; its text report
# would add as much again while rendering only what smaller fans render too.
HEAVY_FANS = {"P1^4"}


def fans_round(rng: random.Random, seen: set) -> list[Op]:
    ops = []
    for name, build in FAN_FAMILIES:
        rays, cones = build()
        for argv in FAN_COMMANDS[:2] if name in HEAVY_FANS else FAN_COMMANDS:
            new_rays, new_cones, _ = transform(rng, rays, cones, seen)
            levels = random_levels(rng, len(new_rays))
            chars = rng.choice(CHARACTERISTICS)
            doc = document(len(rays[0]), new_rays, new_cones, levels, chars)
            ops.append(Op(argv=list(argv), text=dumps(doc), kind=name, expect_rc=0, doc=doc))
    return ops


# ---------------------------------------------------------------------------
# one-cone documents of high multiplicity

# Per slot, the m of round r is M[r % 3]: the same in every run, so that
# only the change of coordinates, the levels and the random cones vary with
# the seed, and the cost of a run with it as little as possible.
CONE_M = {2: ((30, 40, 50), (80, 95, 110)), 3: ((5, 7, 9), (11, 13, 15)),
          4: ((2, 3, 4), (4, 5, 6))}
# Random cones are drawn until their dual has this many parallelepiped
# points, which sets the cost of its Hilbert basis.
RANDOM_DUAL_INDEX = (140, 160)


def special_cone(d: int, m: int):
    """<e_1, ..., e_(d-1), (1, ..., 1, m)>, or <e_1, (m, m + 1)> in rank 2."""
    if d == 2:
        return [[1, 0], [m, m + 1]]
    return [[int(i == j) for j in range(d)] for i in range(d - 1)] + [[1] * (d - 1) + [m]]


def cone_families(rng: random.Random, round_index: int):
    """(label, rays) of one full-dimensional simplicial cone per entry."""
    out = []
    for d, slots in CONE_M.items():
        for ms in slots:
            out.append((f"rank{d}", special_cone(d, ms[round_index % len(ms)])))
    for d in (3, 3, 4):
        out.append(("random%d" % d, random_cone(rng, d)))
    return out


def dual_index(rays) -> int:
    """Parallelepiped points of the dual cone: the index of its rays."""
    return abs(determinant(dual_rays(rays)))


def random_cone(rng: random.Random, d: int):
    lo, hi = RANDOM_DUAL_INDEX
    while True:
        rays = [primitive([rng.randint(-5, 5) for _ in range(d)]) for _ in range(d)]
        if determinant(rays) != 0 and lo <= dual_index(rays) <= hi:
            return rays


CONE_COMMANDS = ("mfr", "stabilizer", "report")
# Levels are a seeded order of a fixed multiset, so that the cost of the
# resolutions, which grows with the levels, does not vary with the seed.
CONE_LEVELS = {2: (2, 3), 3: (1, 2, 3), 4: (1, 2, 3, 2)}


def box_points(rays) -> int:
    """Lattice points of the bounding box the box-enumeration oracle sweeps."""
    total = 1
    for coord in zip(*rays):
        total *= sum(max(0, x) for x in coord) - sum(min(0, x) for x in coord) + 1
    return total


# The box oracle sweeps the bounding box of the dual parallelepiped in the
# cone's own coordinates (before the change of coordinates); it runs on a
# seeded half of the rank-3/4 operations whose box is at most this size.
MAX_ORACLE_BOX = 20000


def cones_round(rng: random.Random, seen: set, round_index: int) -> list[Op]:
    ops = []
    for label, rays in cone_families(rng, round_index):
        d = len(rays)
        for cmd in CONE_COMMANDS:
            new_rays, new_cones, g = transform(rng, rays, [list(range(d))], seen)
            levels = dict(enumerate(rng.sample(CONE_LEVELS[d], d)))
            chars = rng.choice(CHARACTERISTICS)
            doc = document(d, new_rays, new_cones, levels, chars)
            argv = [cmd] if cmd == "report" else [cmd, "--cone", ",".join(map(str, range(d)))]
            expect = {}
            if cmd == "mfr" and d > 2 and rng.random() < 0.5 \
                    and box_points(dual_rays(rays)) <= MAX_ORACLE_BOX:
                expect = {"oracle_rays": rays, "g": g}
            ops.append(Op(argv=argv, text=dumps(doc), kind=label, expect_rc=0, doc=doc,
                          expect=expect))
    return ops


# ---------------------------------------------------------------------------
# documents that must be refused

def polygon_fan(rng: random.Random, n: int):
    """A complete rank-2 fan with n rays sorted by angle, gaps below pi."""
    while True:
        seen = {}
        while len(seen) < n:
            v = primitive([rng.randint(-6, 6), rng.randint(-6, 6)])
            if v != [0, 0]:
                seen[math.atan2(v[1], v[0])] = v
        angles = sorted(seen)
        gaps = [(angles[(i + 1) % n] - angles[i]) % (2 * math.pi) for i in range(n)]
        if max(gaps) < math.pi * 0.9:
            rays = [seen[a] for a in angles]
            return rays, [sorted([i, (i + 1) % n]) for i in range(n)]


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def overlapping_polygon(rng: random.Random, n: int):
    """n cones in rank 2 with exactly one pair overlapping.

    Cone {i, i+1} becomes {i, i+2}, which contains the neighbouring cone
    {i+1, i+2}: their intersection is that whole cone, not a common face.
    Also returns (i, i+1, i+2): given the highest indices in that order,
    they make the overlapping pair the last pair ``validate_fan`` compares,
    so the cost of refusing the fan depends on n only.
    """
    while True:
        rays, cones = polygon_fan(rng, n)
        i = rng.randrange(n)
        if cross(rays[i], rays[(i + 2) % n]) > 0:  # angle from ray i to ray i + 2 below pi
            break
    cones = [cc for cc in cones if cc != sorted([i, (i + 1) % n])]
    cones.append(sorted([i, (i + 2) % n]))
    return rays, sorted(cones), (i, (i + 1) % n, (i + 2) % n)


def non_simplicial():
    """A rank-3 fan whose first cone has four rays."""
    rays = [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1], [-1, -1, -1]]
    return rays, [[0, 1, 2, 3], [0, 1, 4]]


def reject_geometric(rng: random.Random, kind: str, n: int):
    """(rays, cones, expected error code, rays to index last)."""
    if kind == "overlap":
        rays, cones, last = overlapping_polygon(rng, n)
        return rays, cones, "IntersectionNotFace", last
    if kind == "nonsimplicial":
        rays, cones = non_simplicial()
        return rays, cones, "NonSimplicial", ()
    rays, cones = projective_space(rng.choice((2, 3)))
    if kind == "nonprimitive":
        i = rng.randrange(len(rays))
        rays = [list(r) for r in rays]
        k = rng.randint(2, 5)
        rays[i] = [k * x for x in rays[i]]
        return rays, cones, "NonPrimitiveRay", ()
    if kind == "duplicate":
        rays = [list(r) for r in rays] + [list(rays[rng.randrange(len(rays))])]
        cones = cones + [[len(rays) - 1]]
        return rays, cones, "DuplicateRay", ()
    raise ValueError(kind)


def malformed(rng: random.Random, kind: str, base: dict) -> str:
    """Documents the parser must refuse with exit code 2."""
    text = dumps(base)
    if kind == "truncated":
        # cut after the rays, so that distinct documents stay distinct
        return text[: rng.randrange(text.index('"max_cones"'), len(text) - 1)]
    doc = json.loads(text)
    if kind == "missing":
        del doc[rng.choice(("rank", "max_cones"))]  # the rays keep it distinct
    elif kind == "badray":
        doc["rays"][rng.randrange(len(doc["rays"]))].append(rng.randint(1, 9))
    elif kind == "unknown":
        doc["weights"] = [rng.randint(1, 9)]
    elif kind == "badrank":
        doc["rank"] = str(doc["rank"])
    else:
        raise ValueError(kind)
    return dumps(doc)


# Level keys that pass `key.lstrip("-").isdigit()` and then make int() raise:
# the CLI exits 1 with a raw Python message where a parse error (2) is
# documented. They do not depend on the seed, so every run counts the same
# share of failed operations until the parser is fixed.
FAULTY_LEVEL_KEYS = ("--1", "²")

# With 10 malformed documents below them and 6 overlap operations above them,
# the 10 cheap geometric refusals hold the median operation of a round.
REJECT_GEOMETRIC = ("overlap", "overlap", "overlap", "nonsimplicial",
                    "nonprimitive", "nonprimitive", "duplicate", "duplicate")
REJECT_MALFORMED = ("truncated", "missing", "badray", "unknown", "badrank")


def rejects_round(rng: random.Random, seen: set, round_index: int) -> list[Op]:
    ops = []
    for k, (kind, argv) in enumerate(product(REJECT_GEOMETRIC, (["validate"], ["report"]))):
        # overlap fans of every size 8..16 in turn, the same in every run
        n = 8 + (len(REJECT_GEOMETRIC) * 2 * round_index + k) % 9
        rays, cones, code, last = reject_geometric(rng, kind, n)
        # a coordinate change keeps non-primitive rays non-primitive,
        # equal rays equal and overlapping cones overlapping
        rays, cones, _ = transform(rng, rays, cones, seen, last)
        doc = document(len(rays[0]), rays, cones, random_levels(rng, len(rays)),
                       rng.choice(CHARACTERISTICS))
        ops.append(Op(argv=argv, text=dumps(doc), kind=kind, expect_rc=1, doc=doc,
                      expect={"code": code}))
    for kind in REJECT_MALFORMED:
        for argv in (["validate"], ["report"]):
            rays, cones = hirzebruch(rng.randint(0, 40))
            rays, cones, _ = transform(rng, rays, cones, seen)
            text = malformed(rng, kind, document(2, rays, cones))
            ops.append(Op(argv=argv, text=text, kind=kind, expect_rc=2))
    for key in FAULTY_LEVEL_KEYS:
        for j, argv in enumerate((["validate"], ["report"])):
            # the round index, not the seed, keeps these documents distinct
            doc = {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]],
                   "levels": {key: 2 + 2 * round_index + j}}
            ops.append(Op(argv=argv, text=json.dumps(doc, ensure_ascii=False),
                          kind="levelkey", expect_rc=2, known_fault=True))
    return ops


ROUNDS = {
    "fans": lambda rng, seen, r: fans_round(rng, seen),
    "cones": cones_round,
    "rejects": rejects_round,
}


def run_ops(workload: str, seed: int, rounds: int) -> list[Op]:
    """The whole fixed list of one run; no document appears twice."""
    ops, seen = [], set()
    for r in range(rounds):
        ops.extend(ROUNDS[workload](random.Random(f"{workload}/{seed}/{r}"), seen, r))
    keys = [op.key() for op in ops]
    if len(set(keys)) != len(keys):
        raise AssertionError("a document repeats within the run")
    return ops

"""Byte-identity sweep of the CLI: ``PYTHONPATH=src python tests/golden/sweep.py``.

Runs ``toristack`` in-process over a corpus it builds itself and prints the
number of commands run and one SHA-256 digest of their (argv, exit code,
stdout, stderr). A refactor meant to keep every output prints the same
line before and after it. The corpus:

- every fixture in ``tests/fixtures`` and every refused document in
  ``tests/golden/refused``;
- seeded (P^1)^d, P^d, Hirzebruch and weighted P^2 documents, each a random
  GL_d(Z) image with its rays shuffled, random levels and characteristics;
- random one-cone documents of rank 1-4, full- and lower-dimensional;
- documents that reach each way a pair of cones is settled or refused
  (``certificate_documents``), and each kind of refused characteristic;
- cones with 62-bit ray entries (``big_entry_documents``), whose reports and
  resolutions hold integers beyond 2^53-1, written as strings, inside rows;
- repeated characteristics and cone listings (``repetition_documents``);
- a cone whose text ``cones`` table has more than 512 rows
  (``long_table_documents``), which the text writer reads twice.

Each document runs ``validate``, ``report`` and ``complete`` (JSON and
text), and ``mfr`` and ``stabilizer`` (JSON and text) on every prefix of
every listed maximal cone, the empty prefix included. After them come the
refusals (``refusals``): commands that must exit 1 with ``ConeNotInFan``,
2 on a parse error, or 4 on a limit, each in both formats. Documents are
written to a temporary directory and named by their position in the corpus,
so no path enters the digest. Beside the digest the sweep prints how many
commands ended with each exit code. Standard library only; not a pytest
test itself, but ``tests/test_golden.py`` runs it and pins its line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from collections import Counter
from itertools import combinations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SEEDS = range(1, 4)


def projective(d):
    rays = [[int(i == j) for j in range(d)] for i in range(d)] + [[-1] * d]
    return rays, [list(c) for c in combinations(range(d + 1), d)]


def p1_power(d):
    rays = [e for i in range(d) for e in ([int(j == i) for j in range(d)],
                                          [-int(j == i) for j in range(d)])]
    return rays, [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=d)]


def hirzebruch(a):
    return [[1, 0], [0, 1], [-1, a], [0, -1]], [[0, 1], [1, 2], [2, 3], [0, 3]]


def weighted_p2(a, b):
    return [[1, 0], [0, 1], [-a, -b]], [[0, 1], [1, 2], [0, 2]]


def disguise(rng, rays, cones):
    """A GL_d(Z) image of the fan, rays listed in random order."""
    d = len(rays[0])
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(d + 1) if d > 1 else ():
        i, j = rng.sample(range(d), 2)
        f = rng.choice((-2, -1, 1, 2))
        u[i] = [x + f * y for x, y in zip(u[i], u[j])]
    image = [[sum(u[i][j] * v[j] for j in range(d)) for i in range(d)] for v in rays]
    order = list(range(len(rays)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    return [image[old] for old in order], [sorted(new_index[i] for i in c) for c in cones]


def document(rng, rays, cones):
    return {
        "rank": len(rays[0]),
        "rays": rays,
        "max_cones": cones,
        "levels": {str(i): rng.randint(1, 6) for i in range(len(rays)) if rng.random() < 0.6},
        "characteristics": rng.sample([0, 2, 3, 5, 7], rng.randint(1, 2)),
    }


def seeded_documents(seed):
    rng = random.Random(f"sweep/{seed}")
    fans = [p1_power(d) for d in (1, 2, 3)] + [projective(d) for d in (1, 2, 3, 4)]
    fans += [hirzebruch(rng.randint(0, 4)), weighted_p2(rng.randint(1, 4), rng.randint(1, 4))]
    return [document(rng, *disguise(rng, rays, cones)) for rays, cones in fans]


def one_cone_documents(seed, count=50):
    """Random cones on r independent rays in rank d, 1 <= r <= d <= 4."""
    rng = random.Random(f"sweep-cone/{seed}")
    out = []
    while len(out) < count:
        d = rng.randint(1, 4)
        r = rng.randint(1, d)
        rays = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(r)]
        if any(not any(v) for v in rays):
            continue
        rays = [[x // math.gcd(*v) for x in v] for v in rays]
        if len({tuple(v) for v in rays}) < r or _rank(rays) < r:
            continue
        out.append(document(rng, rays, [list(range(r))]))
    return out


def _rank(rows):
    """Rank over Q, by fraction-free elimination."""
    m = [list(v) for v in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            m[i] = [m[rank][col] * x - m[i][col] * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def commands(doc):
    """Every argv the sweep runs on a document, with ``FILE`` for its path."""
    out = []
    for fmt in ("json", "text"):
        out += [[cmd, "FILE", "--format", fmt] for cmd in ("validate", "report", "complete")]
    cones = doc.get("max_cones") if isinstance(doc, dict) else None
    for cone in cones if isinstance(cones, list) else ():
        if not isinstance(cone, list):
            continue
        for k in range(len(cone) + 1):
            selector = ",".join(str(i) for i in cone[:k])
            out += [[cmd, "FILE", "--cone", selector, "--format", fmt]
                    for cmd in ("mfr", "stabilizer") for fmt in ("json", "text")]
    return out


P1 = '"rays": [[1], [-1]], "max_cones": [[0], [1]]'
OCTAGON = [[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]]


def certificate_documents():
    """(name, document) pairs that reach each certificate of fan validation
    and each refusal of a characteristic."""
    def doc(rays, cones, characteristics=(0,)):
        return {"rank": len(rays[0]), "rays": rays, "max_cones": cones,
                "characteristics": list(characteristics)}

    return [
        # incomplete: most pairs certified by one dual row's sign mask. Two
        # primes run every Miller-Rabin round, the second (5 mod 8) squaring
        ("octagon-one-cone-dropped",
         doc(OCTAGON, [[k, k + 1] for k in range(7)], [0, 2 ** 61 - 1, 2 ** 64 - 59])),
        # no single dual row separates the pair: the sum of the first cone's
        # rows does, or only a row of the second cone
        ("by-the-row-sum", doc([[1, 0], [0, 1], [-2, 1], [1, -2]], [[0, 1], [2, 3]])),
        ("from-the-second-side", doc([[1, 0], [0, 1], [-1, 2], [1, -3]], [[0, 1], [2, 3]])),
        # two 3-cones that meet only at 0, which no dual row or row sum of
        # either certifies: only their circuits do
        ("by-circuits-only", doc([[1, 0, 0], [-1, -1, 1], [-1, 1, 1], [0, 0, -1], [1, -1, -1],
                                  [1, 1, 0]], [[0, 1, 2], [3, 4, 5]])),
        # each ray on two cones, but the cones on ray 0 lie on one side of it
        ("wall-sign", doc([[1, 0], [0, 1], [1, 1]], [[0, 1], [0, 2], [1, 2]])),
        # a strong pseudoprime to the bases 2, 3, 5 and 7, a multiple of a
        # base, and 2^64
        ("composite-characteristic", doc([[1], [-1]], [[0], [1]], [3215031751, 91])),
        ("characteristic-2^64", doc([[1], [-1]], [[0], [1]], [2 ** 64])),
    ]


def big_entry_documents():
    """(name, document) pairs of small-index cones with 62-bit ray entries."""
    n = 2 ** 62 - 1
    return [
        # index 3, a level on one ray
        ("62-bit-plane-cone", {"rank": 2, "rays": [[n, 1], [n - 3, 1]], "max_cones": [[0, 1]],
                               "levels": {"1": 2}}),
        # unimodular, and the plane of the first two rays as a face
        ("62-bit-space-cone", {"rank": 3, "rays": [[n, 1, 0], [n - 1, 1, 0], [0, 5, 1]],
                               "max_cones": [[0, 1, 2]], "levels": {"2": 3},
                               "characteristics": [0, 3]}),
    ]


def repetition_documents():
    """(name, document) pairs that repeat characteristics or cone listings,
    each decided once but named at every refused entry."""
    p2 = projective(2)[0]
    rays, cones = hirzebruch(2)
    square = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    return [
        ("repeated-valid-characteristics",
         {"rank": 2, "rays": p2, "max_cones": [[0, 1], [1, 2], [0, 2]], "levels": {"2": 3},
          "characteristics": [3, 0, 3, 2 ** 61 - 1, 0, 2 ** 61 - 1, 3]}),
        ("repeated-refused-characteristics",
         {"rank": 2, "rays": p2, "max_cones": [[0, 1], [1, 2], [0, 2]],
          "characteristics": [0, 91, 2 ** 61 - 1, 91, -1, 2 ** 64, 0, -1, 91]}),
        # the second listing of each cone in another order of its indices
        ("every-cone-listed-twice", {"rank": 2, "rays": rays, "levels": {"1": 2, "3": 4},
                                     "max_cones": cones + [c[::-1] for c in cones]}),
        # named at its first listing, before the later dependent cone (1, 3)
        ("dependent-cone-listed-twice",
         {"rank": 2, "rays": square, "max_cones": [[0, 1], [2, 0], [1, 2], [0, 2], [1, 3]]}),
        ("repeated-listing-repeats-an-index",
         {"rank": 2, "rays": p2, "max_cones": [[0, 1], [1, 2], [0, 2], [1, 0, 1]]}),
    ]


def long_table_documents():
    """(name, document) pairs whose text report lists more than 512 ``cones``
    rows: a rank-10 unimodular cone, 1,024 faces, with level 2 on rays 0-2
    (G = (Z/2)^3)."""
    rays = [[int(i == j) for j in range(10)] for i in range(10)]
    return [("rank-10-cone-levels-2", {"rank": 10, "rays": rays, "max_cones": [list(range(10))],
                                       "levels": {"0": 2, "1": 2, "2": 2}})]


def refusals():
    """(name, document text, argvs) of the commands that must be refused."""
    p2 = (ROOT / "tests" / "fixtures" / "p2.json").read_text(encoding="utf-8")
    walk = json.dumps({"rank": 2, "rays": [[1, 0], [10 ** 7, 10 ** 7 + 1]], "max_cones": [[0, 1]]})
    faces = json.dumps({"rank": 18, "rays": [[int(i == j) for j in range(18)] for i in range(18)],
                        "max_cones": [list(range(18))]})
    whole = [["validate"], ["report"], ["stabilizer", "--cone", "0"]]
    cases = [
        # exit 1: a selector naming no cone of the fan (ConeNotInFan)
        ("p2-not-a-cone", p2, [[cmd, "--cone", cone] for cmd in ("mfr", "stabilizer")
                               for cone in ("0,1,2", "-1", "3", "0,-01")]),
        # exit 2: malformed JSON, a repeated key or ray, -0, the rank and entry limits
        ("truncated-json", '{"rank": 1, %s' % P1, whole),
        ("missing-comma", '{"rank": 1 %s}' % P1, whole),
        ("repeated-key", '{"rank": 1, "rank": 1, %s}' % P1, whole),
        ("repeated-level-ray", '{"rank": 1, %s, "levels": {"1": 2, "01": 3}}' % P1, whole),
        ("minus-zero-level", '{"rank": 1, %s, "levels": {"-0": 2}}' % P1, whole),
        ("minus-zero-cone", '{"rank": 1, %s}' % P1,
         [[cmd, "--cone", cone] for cmd in ("mfr", "stabilizer") for cone in ("-0", "-00")]),
        ("rank-65", '{"rank": 65, "rays": [], "max_cones": []}', whole),
        ("entry-2^64", '{"rank": 1, "rays": [[%d], [-1]], "max_cones": [[0], [1]]}' % 2 ** 64,
         whole),
        ("level-2^64", '{"rank": 1, %s, "levels": {"0": %d}}' % (P1, 2 ** 64), whole),
        # exit 4: a Hilbert basis walk over MAX_LATTICE_POINTS, a report over MAX_REPORT_FACES
        ("walk-over-limit", walk, [["mfr", "--cone", "0,1"], ["report"]]),
        ("faces-over-limit", faces, [["report"]]),
    ]
    return [(name, text, [[argv[0], "FILE", *argv[1:], "--format", fmt]
                          for argv in argvs for fmt in ("json", "text")])
            for name, text, argvs in cases]


def run(argv):
    """Exit code, stdout and stderr of one in-process command."""
    from toristack.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def corpus():
    """(name, document text) pairs, in a fixed order."""
    out = [(str(p.relative_to(ROOT)), p.read_text(encoding="utf-8"))
           for p in sorted((ROOT / "tests" / "fixtures").glob("*.json"))
           + sorted((HERE / "refused").glob("*.json"))]
    for seed in SEEDS:
        docs = seeded_documents(seed) + one_cone_documents(seed)
        out += [(f"seed-{seed}-{i}", json.dumps(doc)) for i, doc in enumerate(docs)]
    return out + [(name, json.dumps(doc))
                  for name, doc in (certificate_documents() + big_entry_documents()
                                    + repetition_documents() + long_table_documents())]


def main() -> int:
    digest, codes = hashlib.sha256(), Counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        for name, text, argvs in ([(name, text, commands(json.loads(text)))
                                   for name, text in corpus()] + refusals()):
            path.write_text(text, encoding="utf-8")
            for argv in argvs:
                code, stdout, stderr = run([str(path) if a == "FILE" else a for a in argv])
                record = [name, argv, code, stdout, stderr]
                digest.update(json.dumps(record).encode() + b"\n")
                codes[code] += 1
    by_code = ", ".join(f"exit {code}: {n}" for code, n in sorted(codes.items()))
    print(f"{sum(codes.values())} commands, sha256 {digest.hexdigest()} ({by_code})")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())

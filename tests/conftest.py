import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import det  # noqa: E402

from toristack import StackyFan, validate_fan  # noqa: E402
from toristack.cli import FanDocument, _Entries, emit_json, report_data  # noqa: E402
from toristack.linalg import primitive_vector  # noqa: E402
from toristack.stackyfan import Fan  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def fresh_cone_geometry_cache():
    """Every test starts with an empty ``Fan.cone_geometry`` cache, so none
    passes on cones that another test happened to build."""
    Fan.cone_geometry.cache_clear()


def random_full_cone_rays(rng: random.Random, d: int, bound: int = 5):
    """d linearly independent integer vectors with entries in [-bound, bound]."""
    while True:
        vecs = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
        if det(vecs) != 0:
            return [tuple(v) for v in vecs]


def p1_fan():
    return validate_fan([(1,), (-1,)], [[0], [1]])


def p2_fan():
    return validate_fan([(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]])


def a2_fan():
    return validate_fan([(1, 0), (0, 1)], [[0, 1]])


def a3_fan():
    return validate_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])


def a1_singularity_fan():
    return validate_fan([(1, 0), (1, 2)], [[0, 1]])


def hirzebruch_fan(a: int):
    return validate_fan([(1, 0), (0, 1), (-1, a), (0, -1)],
                        [[0, 1], [1, 2], [2, 3], [0, 3]])


def p1xp1_fan():
    return validate_fan([(1, 0), (0, 1), (-1, 0), (0, -1)],
                        [[0, 1], [1, 2], [2, 3], [0, 3]])


def weighted_p2_fan():
    # quotient-singular complete surface: rays (1,0), (0,1), (-1,-2)
    return validate_fan([(1, 0), (0, 1), (-1, -2)], [[0, 1], [1, 2], [0, 2]])


def p3_fan():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return validate_fan(rays, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def quotient_3d_fan():
    # affine threefold with a multiplicity-2 top cone
    return validate_fan([(1, 0, 0), (0, 1, 0), (1, 1, 2)], [[0, 1, 2]])


def mixed_dim_fan():
    # a ray and a 2-cone glued along the origin in rank 3
    return validate_fan([(1, 0, 0), (0, 1, 0), (0, 0, -1)], [[0, 1], [2]])


FAN_ZOO = [
    p1_fan, p2_fan, a2_fan, a3_fan, a1_singularity_fan,
    lambda: hirzebruch_fan(0), lambda: hirzebruch_fan(1), lambda: hirzebruch_fan(2),
    p1xp1_fan, weighted_p2_fan, p3_fan, quotient_3d_fan, mixed_dim_fan,
]


def fan_faces(fan):
    """Every face of a maximal cone of the fan (2^r per r-cone), each once,
    by dimension, then indices."""
    return sorted({f for c in fan.maximal_cones for k in range(len(c) + 1)
                   for f in combinations(c, k)}, key=lambda f: (len(f), f))


def built(value):
    """value with each ``_Entries`` in it, at any depth of dicts, built into a list."""
    if type(value) is _Entries:
        return [built(x) for x in value]
    if type(value) is dict:
        return {k: built(x) for k, x in value.items()}
    return value


def json_text(obj):
    """What ``emit_json`` writes of obj, as one string."""
    chunks = []
    emit_json(obj, chunks.append)
    return "".join(chunks)


def report_of(sf, characteristics=(0,)):
    """``report_data`` of the stacky fan, listed as its own document, built as one dict."""
    fan = sf.fan
    doc = FanDocument(fan.ambient_rank, list(fan.rays), list(fan.maximal_cones),
                      dict(enumerate(sf.levels)), list(characteristics))
    return built(report_data(doc, sf))


def zoo_fans():
    return [build() for build in FAN_ZOO]


def random_stacky(rng: random.Random, fan, max_level: int = 4) -> StackyFan:
    levels = {i: rng.randint(1, max_level) for i in range(len(fan.rays))}
    return StackyFan.build(fan, levels)


def shuffled(rng: random.Random, fan):
    """The same fan with its ray indices permuted at random."""
    new_index = list(range(len(fan.rays)))
    rng.shuffle(new_index)
    rays = [None] * len(new_index)
    for old, new in enumerate(new_index):
        rays[new] = fan.rays[old]
    return validate_fan(rays, [[new_index[i] for i in c] for c in fan.maximal_cones],
                        fan.ambient_rank)


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def angle_key(v):
    """Orders nonzero plane vectors by their angle in [0, 2 pi) from (1, 0)."""
    x, y = v
    p = Fraction(x, abs(x) + abs(y))
    return (0, -p) if y > 0 or (y == 0 and x > 0) else (1, p)


def overlapping_polygon(rng, n):
    """A complete rank-2 fan on n rays with one cone {i, i+1} replaced by
    {i, i+2}, which contains the cone {i+1, i+2}; returns that pair too."""
    while True:
        pool = set()
        while len(pool) < n:
            v = (rng.randint(-6, 6), rng.randint(-6, 6))
            if any(v):
                pool.add(primitive_vector(v))
        rays = sorted(pool, key=angle_key)
        if all(cross(rays[k], rays[(k + 1) % n]) > 0 for k in range(n)):
            break
    i = next(k for k in range(n) if cross(rays[k], rays[(k + 2) % n]) > 0)
    cones = [sorted([k, (k + 1) % n]) for k in range(n) if k != i] + [sorted([i, (i + 2) % n])]
    return rays, cones, {tuple(sorted([i, (i + 2) % n])), tuple(sorted([(i + 1) % n, (i + 2) % n]))}

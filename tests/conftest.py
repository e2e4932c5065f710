import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import det  # noqa: E402

from toristack import StackyFan, validate_fan  # noqa: E402
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

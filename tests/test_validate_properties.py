"""Property tests: fan validation, which reads a complete fan from its walls
and compares pairs of cones only otherwise, against the oracle that compares
every pair (``oracles.pairwise_validate_fan``).

Inputs in rank 2-4: complete fans (GL_d(Z) images of products of projective
spaces and Hirzebruch surfaces, rays shuffled), the same fans with cones
dropped or with one more cone, and fans that wind around the origin more
than once, whose walls each still separate exactly two cones. The same
fans, given levels and characteristics, check the report's tameness flag,
its cone rows and the stabilizer command.
"""

import functools
import random
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import det, determinantal_divisors, is_tame, pairwise_validate_fan

from toristack.cli import FanDocument, check_document, report_data, stabilizer_data
from toristack.stackyfan import FanError, is_complete, validate_fan


PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)

PENTAGON = [(1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3)]
OCTAGON = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


def projective(d):
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d)] + [(-1,) * d]
    return rays, list(combinations(range(d + 1), d))


def hirzebruch(a):
    return [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]


def winding(rays, k):
    """The cones {i, i + k} on rays listed counterclockwise: for k > 1 they
    cover the plane k times, each ray on two cones, one on either side."""
    return rays, [tuple(sorted((i, (i + k) % len(rays)))) for i in range(len(rays))]


PENTAGRAM = winding(PENTAGON, 2)
# every ray on two cones, but the cones on rays 1 and 2 fold back: both
# lie on the same side of each of them. The direction (1, t), t large, lies
# in one cone only, so the fold is what refuses this fan.
FOLDED = [(0, 1), (-2, -1), (-2, 1), (3, -2)], [(0, 1), (1, 2), (2, 3), (0, 3)]
# the four quadrants plus the upper-left quadrant again, split by ray 4:
# rays 1 and 2 lie on three cones each, and (1, t) in one cone only
DOUBLED = ([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, 1)],
           [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (2, 4)])


def product(first, second):
    """The product fan: rays of each factor padded with zeros, cones joined."""
    (r1, c1), (r2, c2) = first, second
    d1, d2 = len(r1[0]), len(r2[0])
    rays = [tuple(v) + (0,) * d2 for v in r1] + [(0,) * d1 + tuple(v) for v in r2]
    return rays, [tuple(a) + tuple(len(r1) + i for i in b) for a in c1 for b in c2]


def unimodular(rng, d):
    """A random matrix of determinant +/-1, from elementary row operations."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2)
        f = rng.choice((-2, -1, 1, 2))
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return m


def disguise(rng, fan):
    """A GL_d(Z) image of the fan with its rays listed in random order."""
    rays, cones = fan
    d = len(rays[0])
    u = unimodular(rng, d)
    image = [tuple(sum(u[i][j] * v[j] for j in range(d)) for i in range(d)) for v in rays]
    order = list(range(len(rays)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    return [image[old] for old in order], [sorted(new_index[i] for i in c) for c in cones]


def complete_fan(rng, d):
    factors = [projective(1), projective(2), projective(3), hirzebruch(rng.randint(0, 3))]
    while True:
        picked = []
        while sum(len(f[0][0]) for f in picked) < d:
            picked.append(rng.choice(factors))
        if sum(len(f[0][0]) for f in picked) == d:
            break
    fan = picked[0]
    for factor in picked[1:]:
        fan = product(fan, factor)
    return fan


def wound_fan(rng, d):
    base = rng.choice([PENTAGRAM, winding(OCTAGON, 2), winding(OCTAGON, 3)])
    while len(base[0][0]) < d:
        base = product(base, projective(min(rng.choice((1, 2)), d - len(base[0][0]))))
    return base


@st.composite
def fans(draw, max_rank=4):
    d = draw(st.integers(2, max_rank))
    kind = draw(st.sampled_from(["complete", "complete", "dropped", "extra", "wound"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    rays, cones = disguise(rng, wound_fan(rng, d) if kind == "wound" else complete_fan(rng, d))
    if kind == "dropped":
        cones = rng.sample(cones, rng.randint(1, len(cones) - 1))
    elif kind == "extra":
        cones = cones + [sorted(rng.sample(range(len(rays)), d))]
    return rays, cones, d, kind


def outcome(rays, cones, d):
    """validate_fan's result in the oracle's terms."""
    try:
        fan = validate_fan(rays, cones, d)
    except FanError as e:
        return type(e).__name__, getattr(e, "cone_pair", getattr(e, "cone_indices", None))
    return None, (list(fan.cones), list(fan.maximal_cones))


@PROPERTY
@given(fans())
@example((*PENTAGRAM, 2, "wound"))
@example((*product(PENTAGRAM, projective(1)), 3, "wound"))
@example((*FOLDED, 2, "wound"))
@example((*DOUBLED, 2, "extra"))
def test_validation_agrees_with_every_pair_compared(drawn):
    rays, cones, d, kind = drawn
    expected = pairwise_validate_fan(rays, cones, d)
    assert outcome(rays, cones, d) == expected
    if expected[0] is None:
        # a complete fan with one more cone validates only when that cone is
        # already one of its cones; dropping a cone leaves a hole
        assert is_complete(validate_fan(rays, cones, d)) == (kind != "dropped")


def test_pentagram_is_refused_with_the_first_overlapping_pair():
    # the five cones {i, i + 2} cover the plane twice; every ray still lies
    # on exactly two cones, one on each side of it
    rays, cones = PENTAGRAM
    assert pairwise_validate_fan(rays, cones, 2) == ("IntersectionNotFace", ((0, 2), (1, 3)))
    assert outcome(rays, cones, 2) == ("IntersectionNotFace", ((0, 2), (1, 3)))


def test_folded_and_doubled_fans_are_refused_with_the_first_overlapping_pair():
    assert outcome(*FOLDED, 2) == ("IntersectionNotFace", ((0, 1), (1, 2)))
    assert outcome(*DOUBLED, 2) == ("IntersectionNotFace", ((1, 2), (1, 4)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(fans(), st.data())
def test_report_tameness_is_read_from_the_maximal_charts(drawn, data):
    # the report reads tameness from the charts of the maximal cones only;
    # the oracle from the gcds of the minors of the same cones' rays
    rays, cones, d, _ = drawn
    levels = {i: data.draw(st.integers(1, 6)) for i in range(len(rays))}
    chars = data.draw(st.lists(st.sampled_from([0, 2, 3, 5, 7]), min_size=1, max_size=3,
                               unique=True))
    doc = FanDocument(d, rays, [tuple(c) for c in cones], levels, chars)
    found, sf = check_document(doc)
    assume(not found)
    fan = report_data(doc, sf)["fan"]
    tame = is_tame(rays, [levels[i] for i in range(len(rays))], cones, chars)
    assert fan["tame"] == fan["deligne_mumford"] == tame


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fans(max_rank=5), st.data())
def test_report_cone_rows_match_determinantal_divisors(drawn, data):
    # each cone row of the report, read from a maximal cone's chart or
    # computed alone for a face, against the gcds of minors: the
    # multiplicity is D_r of the r rays, the stacky multiplicity D_r of the
    # free-net matrix (rows n_rho v_rho) and its invariant factors the
    # quotients D_k / D_(k-1) that are not 1. A face's minors are minors of
    # its maximal cones, so each is computed once per fan.
    rays, cones, d, _ = drawn
    levels = {i: data.draw(st.integers(1, 6)) for i in range(len(rays))}
    doc = FanDocument(d, rays, [tuple(c) for c in cones], levels, [0])
    found, sf = check_document(doc)
    assume(not found)
    minor = functools.cache(det)
    for row in report_data(doc, sf)["cones"]:
        c = row["ray_indices"]
        free_net = [[levels[i] * x for x in rays[i]] for i in c]
        divisors = [1] + determinantal_divisors(free_net, minor)
        factors = [b // a for a, b in zip(divisors, divisors[1:]) if b // a > 1]
        multiplicity = ([1] + determinantal_divisors([rays[i] for i in c], minor))[-1]
        assert row["multiplicity"] == multiplicity, c
        assert row["stacky_multiplicity"] == divisors[-1], c
        assert row["stabilizer"]["invariant_factors"] == factors, c


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fans(max_rank=5), st.data())
def test_stabilizer_command_matches_determinantal_divisors(drawn, data):
    # the stabilizer command on every cone, each read off the chart of one
    # maximal cone that holds it, against the gcds of minors of the cone's
    # free-net matrix (rows n_rho v_rho): the stacky multiplicity is D_r
    # and the invariant factors the quotients D_k / D_(k-1) that are not 1
    rays, cones, d, _ = drawn
    levels = {i: data.draw(st.integers(1, 6)) for i in range(len(rays))}
    doc = FanDocument(d, rays, [tuple(c) for c in cones], levels, [0])
    found, sf = check_document(doc)
    assume(not found)
    minor = functools.cache(det)
    for c in sf.fan.cones:
        row = stabilizer_data(sf, list(c))
        divisors = [1] + determinantal_divisors(
            [[levels[i] * x for x in rays[i]] for i in c], minor)
        factors = [b // a for a, b in zip(divisors, divisors[1:]) if b // a > 1]
        assert row["cone"] == ",".join(map(str, c))
        assert row["stacky_multiplicity"] == row["stabilizer"]["order"] == divisors[-1], c
        assert row["stabilizer"]["invariant_factors"] == factors, c

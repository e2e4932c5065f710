"""Property tests: fan validation, which reads a complete fan from its walls
and compares pairs of cones only otherwise, against the oracle that compares
every pair (``oracles.pairwise_validate_fan``).

Inputs in rank 2-4: complete fans (GL_d(Z) images of products of projective
spaces and Hirzebruch surfaces, rays shuffled), the same fans with cones
dropped, with one more cone, or with some cones cut down to proper faces
(lower-dimensional maximal cones, and then perhaps one stray 2-cone), fans
that wind around the origin more than once, whose walls each still
separate exactly two cones, and polygons with one cone {i, i + 1} replaced
by {i, i + 2}, times projective spaces above rank 2. The same kinds of
fans in ranks 2-5, under integer maps that take their entries up to 2^62,
check the packed sign masks of every simplicial cone's dual rows against
plain dot products (``oracles.sign_masks``). The same fans, given levels
and characteristics, check the report's tameness flag,
its cone rows and the stabilizer command. Drawn stacky fans in ranks 2-5
check the report's chart coordinates; with random one-cone fans, those in
ranks 2-4 check its cycle ideals.
"""

import functools
import math
import random
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import built, fan_faces, overlapping_polygon, random_full_cone_rays
from oracles import (box_hilbert_basis, coordinate_rays, det, determinantal_divisors, is_tame,
                     multiplicity, pairwise_validate_fan, sign_masks)

from toristack import stackyfan as fan_mod
from toristack.cli import FanDocument, check_document, report_data, stabilizer_data
from toristack.linalg import dot
from toristack.stackyfan import Fan, FanError, is_complete, validate_fan


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
# a stray 2-cone through the facet {e2, e3} of the positive octant, which
# it meets in the ray through (0, 1, 1). The octant's dual row x at e1 is 0
# on ray 3 and -1 on ray 4: it certifies nothing, but a row test weakened
# to "<= 0" would accept the pair.
THROUGH_A_FACET = ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (-1, 0, 0)],
                   [(0, 1, 2), (3, 4)])
# the first quadrant and a cone that no single dual row of it separates
# (x and y are each >= 0 on one of the other cone's rays): the first certified
# by the sum x + y of the quadrant's rows, the second only by a row of
# the other cone, which is < 0 on both axes
BY_THE_ROW_SUM = [(1, 0), (0, 1), (-2, 1), (1, -2)], [(0, 1), (2, 3)]
FROM_THE_SECOND_SIDE = [(1, 0), (0, 1), (-1, 2), (1, -3)], [(0, 1), (2, 3)]
# two 3-cones that meet only at 0, which no dual row of either, nor the sum
# of either's rows, separates: only their circuits certify the pair
BY_CIRCUITS_ONLY = ([(1, 0, 0), (-1, -1, 1), (-1, 1, 1), (0, 0, -1), (1, -1, -1), (1, 1, 0)],
                    [(0, 1, 2), (3, 4, 5)])


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


def lifted(rng, base, d):
    """A rank-2 fan times projective spaces of rank 1 or 2, up to rank d."""
    while len(base[0][0]) < d:
        base = product(base, projective(min(rng.choice((1, 2)), d - len(base[0][0]))))
    return base


def wound_fan(rng, d):
    return lifted(rng, rng.choice([PENTAGRAM, winding(OCTAGON, 2), winding(OCTAGON, 3)]), d)


def overlap_fan(rng, d):
    """A random polygon fan on 5-9 rays with one cone {i, i + 1} replaced by
    {i, i + 2}, which contains {i + 1, i + 2}; lifted to rank d."""
    rays, cones, _ = overlapping_polygon(rng, rng.randint(5, 9))
    return lifted(rng, (rays, cones), d)


@st.composite
def fans(draw, max_rank=4):
    d = draw(st.integers(2, max_rank))
    kind = draw(st.sampled_from(["complete", "complete", "dropped", "extra", "wound", "overlap",
                                 "faces", "stray"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    base = {"wound": wound_fan, "overlap": overlap_fan}.get(kind, complete_fan)(rng, d)
    rays, cones = disguise(rng, base)
    if kind == "dropped":
        cones = rng.sample(cones, rng.randint(1, len(cones) - 1))
    elif kind == "extra":
        cones = cones + [sorted(rng.sample(range(len(rays)), d))]
    elif kind in ("faces", "stray"):
        # at least one cone cut down to a proper face, so a hole is left
        cut = rng.sample(range(len(cones)), rng.randint(1, len(cones)))
        for k in cut:
            cones[k] = sorted(rng.sample(cones[k], rng.randint(1, d - 1)))
        if kind == "stray":
            cones.append(sorted(rng.sample(range(len(rays)), min(2, d - 1))))
    return rays, cones, d, kind


def outcome(rays, cones, d):
    """validate_fan's result in the oracle's terms."""
    try:
        fan = validate_fan(rays, cones, d)
    except FanError as e:
        return type(e).__name__, getattr(e, "cone_pair", getattr(e, "cone_indices", None))
    return None, (fan_faces(fan), list(fan.maximal_cones))


@PROPERTY
@given(fans())
@example((*PENTAGRAM, 2, "wound"))
@example((*product(PENTAGRAM, projective(1)), 3, "wound"))
@example((*FOLDED, 2, "wound"))
@example((*DOUBLED, 2, "extra"))
@example((*THROUGH_A_FACET, 3, "stray"))
@example((*BY_THE_ROW_SUM, 2, "dropped"))
@example((*FROM_THE_SECOND_SIDE, 2, "dropped"))
@example((*BY_CIRCUITS_ONLY, 3, "dropped"))
def test_validation_agrees_with_every_pair_compared(drawn):
    rays, cones, d, kind = drawn
    expected = pairwise_validate_fan(rays, cones, d)
    assert outcome(rays, cones, d) == expected
    if expected[0] is None:
        # a complete fan with one more cone validates only when that cone is
        # already one of its cones; dropping a cone or cutting it to a face
        # leaves a hole, which a stray cone of lower dimension cannot fill
        assert is_complete(validate_fan(rays, cones, d)) == (kind in ("complete", "extra"))


@pytest.mark.parametrize("fan, side_one", [(BY_THE_ROW_SUM, True), (FROM_THE_SECOND_SIDE, False)],
                         ids=["row-sum", "second-side"])
def test_pairs_no_single_row_certifies_are_settled_without_circuits(monkeypatch, fan, side_one):
    rays, cones = fan
    q1, c2 = (0, 1), (2, 3)
    assert not any(all(dot(row, rays[j]) < 0 for j in c2) for row in ((1, 0), (0, 1)))
    enumerated = []
    monkeypatch.setattr(fan_mod, "circuit_vectors", lambda *a: enumerated.append(a) or iter(()))
    fan = validate_fan(rays, cones, 2)
    assert fan.maximal_cones == (q1, c2) and enumerated == []
    assert fan_mod._separates(fan, q1, c2, set()) == side_one
    assert fan_mod._separates(fan, c2, q1, set())


def test_a_pair_only_circuits_certify_is_accepted(monkeypatch):
    rays, cones = BY_CIRCUITS_ONLY
    enumerated = []
    circuit_vectors = fan_mod.circuit_vectors
    monkeypatch.setattr(fan_mod, "circuit_vectors",
                        lambda *a: enumerated.append(a) or circuit_vectors(*a))
    fan = validate_fan(rays, cones, 3)
    assert fan.maximal_cones == tuple(cones) and len(enumerated) == 1
    assert not fan_mod._separates(fan, *cones, set())
    assert not fan_mod._separates(fan, *cones[::-1], set())


@st.composite
def wide_fans(draw):
    """A drawn fan of rank 2-5 under an invertible integer map whose entries
    take the rays' entries up to 2^62, so that the pairings of dual rows
    with rays span many bytes."""
    rays, cones, d, _ = draw(fans(max_rank=5))
    spare = 62 - (d * max(abs(x) for r in rays for x in r)).bit_length()
    bits = draw(st.integers(0, max(spare, 0)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    while True:
        m = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(d)] for _ in range(d)]
        if det(m):
            break
    return [tuple(dot(row, r) for row in m) for r in rays], cones, d


@PROPERTY
@given(wide_fans())
@example(([(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)], 2))
@example(([(2 ** 62, 1, 0), (0, 2 ** 62, 1), (1, 0, -2 ** 62), (-2 ** 62, -2 ** 62, -2 ** 62)],
          [(0, 1, 2), (0, 3), (1, 3)], 3))
def test_sign_masks_match_plain_dot_signs(drawn):
    # every listed cone with independent rays, lower-dimensional ones too,
    # is a maximal cone of a Fan that is not validated
    rays, cones, d = drawn
    keys = sorted({tuple(sorted(set(c))) for c in cones})
    probe = Fan(d, tuple(rays), tuple(keys))
    simplicial = []
    for key in keys:
        try:
            probe.dual_rows[key]
        except ValueError:
            continue
        simplicial.append(key)
    assume(simplicial)
    fan = Fan(d, tuple(rays), tuple(simplicial))
    masks = fan_mod._sign_masks(fan)
    for c in fan.maximal_cones:
        assert masks(c) == sign_masks(fan.rays, c, fan.dual_rows[c])


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
    fan = built(report_data(doc, sf))["fan"]
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
    for row in built(report_data(doc, sf))["cones"]:
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
    for c in fan_faces(sf.fan):
        row = stabilizer_data(sf, list(c))
        divisors = [1] + determinantal_divisors(
            [[levels[i] * x for x in rays[i]] for i in c], minor)
        factors = [b // a for a, b in zip(divisors, divisors[1:]) if b // a > 1]
        assert row["cone"] == ",".join(map(str, c))
        assert row["stacky_multiplicity"] == row["stabilizer"]["order"] == divisors[-1], c
        assert row["stabilizer"]["invariant_factors"] == factors, c


def weighted_projective(rng, d):
    """P(q_0, ..., q_d): the rays e_1..e_d and the primitive vector on
    -(q_1, ..., q_d), with the cones on every d of them."""
    weights = [rng.randint(1, 3) for _ in range(d)]
    g = math.gcd(*weights)
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return rays + [tuple(-q // g for q in weights)], list(combinations(range(d + 1), d))


@functools.cache
def drawn_stacky_fans(count):
    """(rays, cones, d, levels) of valid stacky fans in ranks 2-5, from the
    complete fans of ``fans`` (some with cones dropped or cut to faces) and
    weighted projective spaces, disguised by GL_d(Z), with levels 1-6."""
    rng = random.Random(2718)
    out = []
    while len(out) < count:
        d = 2 + len(out) % 4
        kind = rng.choice(["complete", "weighted", "dropped", "faces"])
        rays, cones = disguise(rng, weighted_projective(rng, d) if kind == "weighted"
                               else complete_fan(rng, d))
        if kind == "dropped":
            cones = rng.sample(cones, rng.randint(1, len(cones)))
        elif kind == "faces":
            for k in rng.sample(range(len(cones)), rng.randint(1, len(cones))):
                cones[k] = sorted(rng.sample(cones[k], rng.randint(1, d - 1)))
        levels = {i: rng.randint(1, 6) for i in range(len(rays))}
        doc = FanDocument(d, rays, [tuple(c) for c in cones], levels, [0])
        found, sf = check_document(doc)
        if not found:
            out.append((doc, sf))
    return out


def test_report_chart_coordinates_match_the_coordinate_rays_oracle():
    # each chart's coordinates are the rays of C(P) in lex order in its
    # printed N' basis, each named by the one ray of the cone it pairs with
    # positively (``oracles.coordinate_rays``); a face's cycle ideal holds
    # the coordinates of its rays, and a ray's boundary divisor is cut by
    # its one coordinate in each chart on it
    drawn = drawn_stacky_fans(120)
    assert {doc.rank for doc, _ in drawn} == {2, 3, 4, 5}
    for doc, sf in drawn:
        data = built(report_data(doc, sf))
        cut = [{} for _ in doc.rays]
        for chart in data["charts"]:
            c = tuple(map(int, chart["cone"].split(","))) if chart["cone"] else ()
            basis = chart["splitting"]["n_prime_basis"]
            assert multiplicity(basis) == 1, (doc, c)  # a basis of a saturated lattice
            stars, _ = coordinate_rays(basis, [doc.rays[i] for i in c])
            fan_rays = [c[j] for _, j in stars]
            assert chart["coordinate_fan_rays"] == fan_rays, (doc, c)
            faces = [f for k in range(len(c) + 1) for f in combinations(c, k)]
            assert [ci["cone"] for ci in chart["cycle_ideals"]] \
                == [",".join(map(str, f)) for f in faces], (doc, c)
            for ci, f in zip(chart["cycle_ideals"], faces):
                assert ci["chart_coordinates"] \
                    == [i for i, rho in enumerate(fan_rays) if rho in f], (doc, c, f)
            for i, rho in enumerate(fan_rays):
                cut[rho][chart["cone"]] = i
        assert [b["chart_coordinates"] for b in data["boundary_divisors"]] == cut, doc


# most lattice points in the bounding box of a dual cone's parallelepiped
# that the cycle-ideal test hands to ``oracles.box_hilbert_basis``
MAX_ORACLE_BOX = 2000


def oracle_box(duals):
    """Lattice points in the bounding box of the parallelepiped of duals."""
    return math.prod(sum(max(0, u[j]) for u in duals) - sum(min(0, u[j]) for u in duals) + 1
                     for j in range(len(duals)))


def dual_rays(rays):
    """The primitive rays of the dual of a full-dimensional simplicial cone."""
    d = len(rays)
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    return [u for u, _ in coordinate_rays(identity, rays)[0]]


def one_cone_stacky_fans(count):
    """(doc, sf) of full-dimensional cones on random rays in ranks 2-4, with
    entries in [-3, 3], [-2, 2] and [-1, 1] by rank, levels 1-6, and an
    oracle box of at most ``MAX_ORACLE_BOX`` points."""
    rng = random.Random(3141)
    out = []
    while len(out) < count:
        d = 2 + len(out) % 3
        rays = [tuple(x // math.gcd(*v) for x in v) for v in random_full_cone_rays(rng, d, 5 - d)]
        if oracle_box(dual_rays(rays)) > MAX_ORACLE_BOX:
            continue
        doc = FanDocument(d, rays, [tuple(range(d))],
                          {i: rng.randint(1, 6) for i in range(d)}, [0])
        found, sf = check_document(doc)
        assert not found, doc
        out.append((doc, sf))
    return out


def test_report_cycle_ideals_match_the_box_hilbert_basis_oracle():
    # on each full-dimensional maximal cone with a small oracle box, the
    # cycle ideal of a face is generated by the elements of the Hilbert basis
    # of the dual (``oracles.box_hilbert_basis``, on the dual rays of
    # ``oracles.coordinate_rays``) that are positive on some ray of the
    # face, in sorted order; the zero face's ideal is empty and the cone's
    # own holds the whole basis
    checked = []
    for doc, sf in drawn_stacky_fans(120) + one_cone_stacky_fans(60):
        d = doc.rank
        for chart in built(report_data(doc, sf))["charts"]:
            c = tuple(map(int, chart["cone"].split(","))) if chart["cone"] else ()
            duals = dual_rays([doc.rays[i] for i in c]) if len(c) == d else None
            if duals is None or oracle_box(duals) > MAX_ORACLE_BOX:
                continue
            basis = box_hilbert_basis(duals, d)
            for ci in chart["cycle_ideals"]:
                f = tuple(map(int, ci["cone"].split(","))) if ci["cone"] else ()
                expected = [list(h) for h in basis if any(dot(h, doc.rays[i]) > 0 for i in f)]
                assert ci["coarse_generators"] == expected, (doc, c, f)
            checked.append((d, len(basis) > d))
    # in each rank some dual has more basis elements than rays
    assert len(checked) >= 200
    assert {(d, True) for d in (2, 3, 4)} <= set(checked)

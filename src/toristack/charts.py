"""Local quotient presentations of the stack attached to a stacky fan.

Over each cone sigma of dimension r the stack looks like [A^r / G] x T^(d-r)
with G the Cartier dual of F^gp / P^gp, where P is the sharp monoid of the
cone (after splitting off the torus directions) and F the free monoid of its
level-scaled resolution. That group is the cokernel of the free-net matrix,
N' / <n_rho v_rho>, whose rows n_rho v_rho in a basis of the saturated span
N' are the matrix of P^gp -> F^gp (the local group of a stacky fan,
Borisov-Chen-Smith, J. AMS 18, 2005). The chart is the one place where
that group is computed: ``mfr`` prints it as the cokernel of the
resolution, and a report reads each face's cycle coordinates and each
ray's boundary-divisor coordinate off the chart's ``fan_rays``.
A chart (``local_chart``) is computed in full at once: the splitting
N = N' + N'', the cone's dual rows (``Fan.dual_rows``, the fan's one inverse
per cone) restricted to N', and one Smith normal form of the free-net
matrix in N' coordinates give its group, coordinates, action weights and
C(P); no chart inverts a matrix of its own. The splitting of a
full-dimensional cone is free (N' = Z^d, N'' = 0); a lower-dimensional cone
saturates the span of its rays and completes it to a basis, with one Smith
normal form each. A point on the orbit of a face tau of sigma is fixed by
the subgroup of D(G) fixing every coordinate off tau, so tau's group is
G_tau = G / <w_i : rho_i not in tau>, w_i the action weights: a face with
one ray more, divided by one weight more (``add_relation``, on a Hermite
triangle in G's invariant-factor coordinates). No face eliminates ray
coordinates: ``face_lattices`` takes one such step per face it is asked
for, from the whole cone down. P and its resolution are built from a
chart only by ``chart_resolution``.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from . import stackyfan as fans
from .cones import Cone
from .linalg import (
    FiniteAbelianGroup,
    IntVec,
    complete_to_basis,
    determinant,
    dot,
    echelon_coordinates,
    identity_rows,
    primitive_vector,
    saturate,
    smith_elimination,
)
from .monoids import AffineMonoid, admissible_resolution
from .stackyfan import Fan, StackyFan


class LocalChart(NamedTuple):
    """Quotient-chart data [A^r/G] x T^(d-r) over one cone of the fan.

    G is the cokernel of the free-net matrix, N'/<n_rho v_rho>, of order
    ``stacky_multiplicity``: ``multiplicity`` (the index of the ray lattice
    in N') times the product of the levels. Chart coordinates are indexed by
    the lex-sorted rays of C(P), ``defining_cone``, in the N' coordinates of
    the splitting N = N' + N'' (``n_prime_basis``, ``n_doubleprime_basis``);
    for coordinate i, ``fan_rays[i]`` is the index of the fan ray it
    corresponds to under the ray-star bijection (the one ray of the cone
    that the i-th ray of C(P) pairs positively with, which
    ``defining_cone.dual_rays[i]`` holds in N' coordinates), ``levels[i]``
    its level and ``action_weights[i]`` the image of the i-th free generator
    in G, written as residues in invariant-factor coordinates.
    """

    cone: tuple[int, ...]
    r: int
    torus_rank: int
    group: FiniteAbelianGroup
    multiplicity: int
    stacky_multiplicity: int
    n_prime_basis: tuple[IntVec, ...]
    n_doubleprime_basis: tuple[IntVec, ...]
    fan_rays: tuple[int, ...]
    levels: tuple[int, ...]
    action_weights: tuple[tuple[int, ...], ...]
    defining_cone: Cone


def split_cone(rays: Sequence[IntVec], ambient_rank: int) -> tuple[list[IntVec], list[IntVec]]:
    """Lattice splitting N = N' + N'' with the cone on ``rays`` full-dimensional in N'.

    N' is the saturation of the span of the rays, in its canonical Hermite
    basis; N'' is the canonical Hermite completion to a basis of the ambient
    lattice. The rays must be linearly independent, as a cone's are once
    validation has computed its dual rows, so d of them are full-dimensional
    and need no normal form: N' = Z^d, whose Hermite basis is the standard
    one, and N'' is empty.
    """
    if len(rays) == ambient_rank:
        return [tuple(int(i == j) for j in range(ambient_rank)) for i in range(ambient_rank)], []
    n_prime = saturate(rays)
    return n_prime, complete_to_basis(n_prime, ambient_rank)


def _coordinates(fan: Fan, key: tuple[int, ...]):
    """Splitting and chart coordinates of a cone.

    Row j of the cone's ``Fan.dual_rows`` lies in the span of its rays and
    pairs positively with ray j and to 0 with the other rays. Restricted to
    N' (w_k = <row, n'_k>) and made primitive, it is the ray w of C(P) on
    the ray star of ray j. When N'' is empty, N' is Z^d in the standard
    basis, so the rows and the rays are their own N' coordinates; otherwise
    the rays' are read by substitution in the Hermite basis of N'
    (``echelon_coordinates``), which inverts nothing. Each w is
    certified against the rays in N' coordinates: it pairs to 0 with every
    other ray and positively with its own, so the w are exactly the
    primitive rays of C(P) and the rays of the cone the rays of its dual.
    Coordinates follow the lex order of the w.

    Returns (n_prime, n_doubleprime, coordinates) with one triple (ray of
    C(P), cone ray in N' coordinates, fan ray index) per coordinate.
    """
    rays = [fan.rays[i] for i in key]
    n_prime, n_doubleprime = split_cone(rays, fan.ambient_rank)
    rows, local = fan.dual_rows[key], rays
    if n_doubleprime:
        rows = [primitive_vector([dot(row, n) for n in n_prime]) for row in rows]
        local = echelon_coordinates(rays, n_prime)
    coordinates = sorted(zip(rows, local, key))
    for w, u, _ in coordinates:
        if any(dot(w, v) != 0 for v in local if v != u) or dot(w, u) <= 0:
            raise AssertionError("ray-star bijection failed in chart computation")
    return n_prime, n_doubleprime, coordinates


def chart_resolution(chart: LocalChart):
    """Sharp chart monoid and its level-scaled resolution over a nonzero cone.

    P is the monoid of the chart's C(P), ``defining_cone``, and each ray of
    C(P) carries the level of its coordinate. Returns (monoid, resolution);
    the i-th free generator is the chart's i-th coordinate, attached to the
    fan ray ``chart.fan_rays[i]``.
    """
    if not chart.cone:
        raise fans.ZeroConeSelected()
    p = AffineMonoid.from_dual_cone(chart.defining_cone)
    return p, admissible_resolution(p, dict(zip(chart.defining_cone.rays, chart.levels)))


def local_chart(sf: StackyFan, sigma: Iterable[int]) -> LocalChart:
    """Compute the quotient chart over a cone of the stacky fan, in full.

    ``_coordinates`` gives the splitting and the coordinates; one Smith
    elimination of the free-net matrix in N' coordinates, with its left
    transform, gives the group (its diagonal entries above 1) and the action
    weights. The multiplicity, the gcd of the r x r minors of the raw rays
    (|det| at full dimension, the product of their Smith diagonal below it,
    so no minor is formed), witnesses it: |G| is the multiplicity times the
    levels (asserted).
    """
    key = sf.fan.normalize(sigma)
    rays = [sf.fan.rays[i] for i in key]
    n_prime, n_doubleprime, coordinates = _coordinates(sf.fan, key)
    r = len(key)
    fan_rays = tuple(rho for _, _, rho in coordinates)
    levels = tuple(sf.levels[rho] for rho in fan_rays)
    free_net = [[n * x for x in v] for (_, v, _), n in zip(coordinates, levels)]
    u = identity_rows(r)
    diag = smith_elimination(free_net, u=u)
    if any(x == 0 for x in diag):
        raise AssertionError("degenerate free-net matrix in chart computation")
    q = (abs(determinant(rays)) if r == sf.fan.ambient_rank
         else math.prod(smith_elimination([list(v) for v in rays])))
    torsion_rows = [i for i, x in enumerate(diag) if x > 1]
    group = FiniteAbelianGroup(tuple(diag[i] for i in torsion_rows))
    stacky = q * math.prod(levels)
    if group.order != stacky:
        raise AssertionError(f"stabilizer order {group.order} differs from "
                             f"stacky multiplicity {stacky}")
    return LocalChart(
        cone=key, r=r, torus_rank=sf.fan.ambient_rank - r,
        group=group, multiplicity=q, stacky_multiplicity=group.order,
        n_prime_basis=tuple(n_prime), n_doubleprime_basis=tuple(n_doubleprime),
        fan_rays=fan_rays, levels=levels,
        action_weights=tuple(tuple(u[row][i] % diag[row] for row in torsion_rows)
                             for i in range(r)),
        # C(P): its rays are the w, and the cone's rays in N' coordinates its
        # dual rows, so ``Cone.on_rays`` stores them with no inverse
        defining_cone=Cone.on_rays([w for w, _, _ in coordinates],
                                   [v for _, v, _ in coordinates], r),
    )


def add_relation(lattice, weight):
    """A relation lattice in G's invariant-factor coordinates, as the rows of
    its Hermite triangle, plus weight: Euclid on each pivot column moves a
    gcd into the pivot, and the entries above it are reduced modulo it. The
    lattice holds G's relations, so the triangle has full rank and weight
    ends at 0."""
    if not any(weight):
        return lattice
    rows = list(lattice)
    for j, h in enumerate(rows):
        while weight[j]:
            q = h[j] // weight[j]
            h, weight = weight, [a - q * b for a, b in zip(h, weight)]
        rows[j] = h = h if h[j] > 0 else [-a for a in h]
        for i in range(j):
            q = rows[i][j] // h[j]
            rows[i] = [a - q * b for a, b in zip(rows[i], h)]
    return tuple(map(tuple, rows))


def face_quotient(lattice, levels: int, face: Sequence) -> tuple[FiniteAbelianGroup, int]:
    """G_tau, Z^k over a face's relation lattice, and its multiplicity:
    |G_tau| (the pivots' product) over the levels on the face, which must
    divide it (asserted; ``face``, its ray indices, names it in the message).
    For k <= 2 the invariant factors are d_1, the gcd of the entries, and
    |G_tau| / d_1; past that, a Smith elimination gives them."""
    order = math.prod(row[j] for j, row in enumerate(lattice))
    g = math.gcd(order, *(x for row in lattice for x in row))
    diag = ([g, order // g][:len(lattice)] if len(lattice) < 3
            else smith_elimination([list(row) for row in lattice]))
    q, rest = divmod(order, levels)
    if rest:
        raise AssertionError(f"levels {levels} on face {tuple(map(int, face))} do not divide "
                             f"its stabilizer order {order}")
    return FiniteAbelianGroup(tuple(x for x in diag if x > 1)), q


def face_lattices(chart: LocalChart):
    """The function of a face, as a bit mask over ``chart.cone``'s positions,
    to its relation lattice and the product of its levels, each computed
    once: G's relations diag(d_k) for the whole cone, else its parent's (the
    face with the lowest position off it added) plus that position's weight."""
    d = chart.group.invariant_factors
    at = [chart.fan_rays.index(rho) for rho in chart.cone]  # each position's coordinate
    known = {(1 << chart.r) - 1: (tuple(tuple(x * (i == j) for j in range(len(d)))
                                        for i, x in enumerate(d)), math.prod(chart.levels))}

    def lattice(mask):
        if mask not in known:
            i = at[(mask ^ (mask + 1)).bit_length() - 1]
            parent, levels = lattice(mask | (mask + 1))
            known[mask] = add_relation(parent, chart.action_weights[i]), levels // chart.levels[i]
        return known[mask]
    return lattice


def face_group(chart: LocalChart, face: Sequence[int]) -> tuple[FiniteAbelianGroup, int]:
    """The group G_tau = G / <w_i : rho_i not in tau> and the multiplicity of
    a face tau of the chart's cone: G's relations plus the weight of each
    coordinate off tau, one ``add_relation`` each (``face_lattices``)."""
    mask = sum(1 << k for k, rho in enumerate(chart.cone) if rho in face)
    return face_quotient(*face_lattices(chart)(mask), face)


def stabilizer(sf: StackyFan, sigma: Iterable[int]) -> FiniteAbelianGroup:
    """Stabilizer group of a point in the open stratum of sigma, the group
    underlying the Cartier dual, read off the chart of the first maximal cone
    that holds sigma (``face_group``)."""
    key = sf.fan.normalize(sigma)
    home = (next(c for c in sf.fan.cones_by_ray[key[0]] if set(key).issubset(c)) if key
            else sf.fan.maximal_cones[0])
    return face_group(local_chart(sf, home), key)[0]


def is_kummer_etale_chart(chart: LocalChart, residue_characteristics: Iterable[int]) -> bool:
    """Whether the chart covering is Kummer log etale: |G| invertible."""
    chars = [int(p) for p in residue_characteristics if int(p) != 0]
    return all(math.gcd(chart.group.order, p) == 1 for p in chars)


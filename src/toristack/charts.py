"""Local quotient presentations of the stack attached to a stacky fan.

Over each cone sigma of dimension r the stack looks like [A^r / G] x T^(d-r)
with G the Cartier dual of F^gp / P^gp, where P is the sharp monoid of the
cone (after splitting off the torus directions) and F the free monoid of its
level-scaled resolution. That group is the cokernel of the free-net matrix,
N' / <n_rho v_rho>, whose rows n_rho v_rho in a basis of the saturated span
N' are the matrix of P^gp -> F^gp (the local group of a stacky fan,
Borisov-Chen-Smith, J. AMS 18, 2005). Since N' is saturated, N'' splits
off Z^d / <n_rho v_rho> as its free part, so G is that quotient's torsion:
a chart's group takes one Smith normal form in the ambient lattice, and its
multiplicity (the gcd of the maximal minors of its rays) one determinant at
full dimension or one Smith normal form of the rays below it, with no
splitting (``chart_group``, all that a stabilizer reads).
A chart (``local_chart``) is computed in full at once: the splitting
N = N' + N'', the cone's dual rows (``Fan.dual_rows``, the fan's one inverse
per cone) restricted to N', and one Smith normal form of the free-net
matrix in N' coordinates give its coordinates, action weights and C(P); no
chart inverts a matrix of its own. The splitting of a full-dimensional cone
is free (N' = Z^d, N'' = 0); a lower-dimensional cone saturates the span of
its rays and completes it to a basis, with one Smith normal form each. P and
its resolution are built from a chart only by ``chart_resolution``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from . import stackyfan as fans
from .cones import Cone
from .linalg import (
    FiniteAbelianGroup,
    IntVec,
    complete_to_basis,
    determinant,
    dot,
    identity_rows,
    primitive_vector,
    saturate,
    smith_elimination,
)
from .monoids import AffineMonoid, admissible_resolution, split_coordinates
from .stackyfan import Fan, StackyFan


@dataclass(frozen=True)
class LocalChart:
    """Quotient-chart data [A^r/G] x T^(d-r) over one cone of the fan.

    G is the cokernel of the free-net matrix, N'/<n_rho v_rho>, of order
    ``stacky_multiplicity``: ``multiplicity`` (the index of the ray lattice
    in N') times the product of the levels. Chart coordinates are indexed by
    the lex-sorted rays of C(P), ``defining_cone``, in the N' coordinates of
    the splitting N = N' + N'' (``n_prime_basis``, ``n_doubleprime_basis``);
    for coordinate i, ``fan_rays[i]`` is the index of the fan ray it
    corresponds to under the ray-star bijection (the one ray of the cone
    that the i-th ray of C(P) pairs positively with), ``levels[i]`` its
    level and ``action_weights[i]`` the image of the i-th free generator in
    G, written as residues in invariant-factor coordinates.
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
    defining_cone: Cone = field(repr=False)

    @property
    def group_label(self) -> str:
        """Cartier-dual notation for the stabilizer: mu_{d_1} x ... ."""
        if not self.group.invariant_factors:
            return "trivial"
        return " x ".join(f"mu_{d}" for d in self.group.invariant_factors)

    def cycle_coordinates(self, face: Sequence[int]) -> list[int]:
        """Indices of the coordinates whose fan rays lie in ``face``."""
        return sorted(i for i, rho in enumerate(self.fan_rays) if rho in face)


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
    basis, so the rows and the rays are their own N' coordinates. Each w is
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
        local = split_coordinates(rays, n_prime, n_doubleprime)
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


def chart_group(sf: StackyFan, key: tuple[int, ...]) -> tuple[FiniteAbelianGroup, int]:
    """The group G and the multiplicity of a cone, as ``Fan.normalize`` keys it.

    G is the torsion of Z^d / <n_rho v_rho>, the diagonal of one Smith
    elimination of the rows n_rho v_rho (no transforms). The multiplicity,
    the index of the ray lattice in its saturation, is the gcd of the r x r
    minors of the r rays: |det| for a full-dimensional cone, and below full
    dimension the product of the rays' Smith diagonal (the invariant factors
    multiply to that gcd), so no minor is formed. Neither needs a splitting.
    The order of G is the stacky multiplicity, the multiplicity times the
    levels (asserted).
    """
    rays = [sf.fan.rays[i] for i in key]
    free_net = [[sf.levels[i] * x for x in v] for i, v in zip(key, rays)]
    group = FiniteAbelianGroup(tuple(x for x in smith_elimination(free_net) if x > 1))
    if len(key) == sf.fan.ambient_rank:
        q = abs(determinant(rays))
    else:
        q = math.prod(smith_elimination([list(v) for v in rays]))
    stacky = q * math.prod(sf.levels[i] for i in key)
    if group.order != stacky:
        raise AssertionError(f"stabilizer order {group.order} differs from "
                             f"stacky multiplicity {stacky}")
    return group, q


def local_chart(sf: StackyFan, sigma: Iterable[int]) -> LocalChart:
    """Compute the quotient chart over a cone of the stacky fan, in full.

    The group and multiplicity are ``chart_group``'s. ``_coordinates`` gives
    the splitting and the coordinates; one Smith elimination of the free-net
    matrix in N' coordinates, with its left transform, gives the action
    weights, and its diagonal is checked against the group and the
    multiplicity.
    """
    key = sf.fan.normalize(sigma)
    group, q = chart_group(sf, key)
    n_prime, n_doubleprime, coordinates = _coordinates(sf.fan, key)
    r = len(key)
    fan_rays = tuple(rho for _, _, rho in coordinates)
    levels = tuple(sf.levels[rho] for rho in fan_rays)
    free_net = [[n * x for x in v] for (_, v, _), n in zip(coordinates, levels)]
    u = identity_rows(r)
    diag = smith_elimination(free_net, u=u)
    if any(x == 0 for x in diag):
        raise AssertionError("degenerate free-net matrix in chart computation")
    torsion_rows = [i for i, x in enumerate(diag) if x > 1]
    # |det| of the free-net matrix in N' is the multiplicity times the levels
    if (math.prod(diag) != q * math.prod(levels)
            or tuple(diag[i] for i in torsion_rows) != group.invariant_factors):
        raise AssertionError("chart coordinates disagree with the cone's "
                             "multiplicity or stabilizer")
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


def stabilizer(sf: StackyFan, sigma: Iterable[int]) -> FiniteAbelianGroup:
    """Stabilizer group of a point in the open stratum of sigma.

    Returned as the finite abelian group underlying the Cartier dual; its
    order equals the stacky multiplicity of the cone (asserted).
    """
    return chart_group(sf, sf.fan.normalize(sigma))[0]


def is_deligne_mumford(sf: StackyFan, residue_characteristics: Sequence[int]) -> bool:
    """The stack is Deligne-Mumford exactly when the stacky fan is tame."""
    return fans.is_tame(sf, residue_characteristics)


def is_kummer_etale_chart(chart: LocalChart, residue_characteristics: Sequence[int]) -> bool:
    """Whether the chart covering is Kummer log etale: |G| invertible."""
    chars = [int(p) for p in residue_characteristics if int(p) != 0]
    return all(math.gcd(chart.group.order, p) == 1 for p in chars)


def cycle_ideal_in_chart(sf: StackyFan, sigma_face: Iterable[int],
                         tau_chart: Iterable[int]) -> list[int]:
    """Chart coordinates cutting out the torus-invariant cycle of sigma_face.

    In the chart over tau_chart the cycle of a face sigma is cut out by the
    coordinates whose rays lie in sigma; returns their indices.
    """
    face, chart_cone = fans.face_of_chart(sf.fan, sigma_face, tau_chart)
    return local_chart(sf, chart_cone).cycle_coordinates(face)


def boundary_divisors(sf: StackyFan) -> list[dict]:
    """Per ray: the single chart coordinate cutting its divisor in each chart.

    Charts run over the maximal cones containing the ray; the generic
    stabilizer along the divisor is cyclic of order equal to the level.
    """
    return boundary_divisors_from_charts(
        sf, {c: local_chart(sf, c) for c in sf.fan.maximal_cones})


def boundary_divisors_from_charts(sf: StackyFan,
                                  charts: Mapping[tuple[int, ...], LocalChart]) -> list[dict]:
    """``boundary_divisors`` read from charts already computed, keyed by cone."""
    out = []
    for rho in range(len(sf.fan.rays)):
        coordinates = {}
        for c in sf.fan.cones_by_ray.get(rho, ()):
            coords = charts[c].cycle_coordinates((rho,))
            if len(coords) != 1:
                raise AssertionError("a ray must be cut by exactly one chart coordinate")
            coordinates[c] = coords[0]
        out.append({
            "ray": rho,
            "level": sf.levels[rho],
            "chart_coordinates": coordinates,
        })
    return out

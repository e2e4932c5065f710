"""Local quotient presentations of the stack attached to a stacky fan.

Over each cone sigma of dimension r the stack looks like [A^r / G] x T^(d-r)
with G the Cartier dual of the finite abelian group F^gp / P^gp, where P is
the sharp monoid of the cone (after splitting off the torus directions) and
F the free monoid of its level-scaled resolution. The chart records G by
invariant factors, the character (weight) through which G acts on each of
the r coordinates, the lattice splitting, and the coarse chart data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import stackyfan as fans
from .cones import Cone
from .linalg import (
    FiniteAbelianGroup,
    IntVec,
    complete_to_basis,
    dot,
    saturate,
    smith_normal_form,
)
from .monoids import admissible_resolution, monoid_from_cone, split_coordinates
from .stackyfan import StackyFan


@dataclass(frozen=True)
class LocalChart:
    """Quotient-chart data [A^r/G] x T^(d-r) over one cone of the fan.

    Chart coordinates are indexed by the lex-sorted rays of C(P); for
    coordinate i, ``fan_rays[i]`` is the index of the fan ray it corresponds
    to under the ray-star bijection and ``action_weights[i]`` is the image of
    the i-th free generator in G, written as residues in invariant-factor
    coordinates.
    """

    cone: tuple[int, ...]
    r: int
    torus_rank: int
    group: FiniteAbelianGroup
    action_weights: tuple[tuple[int, ...], ...]
    levels: tuple[int, ...]
    fan_rays: tuple[int, ...]
    n_prime_basis: tuple[IntVec, ...]
    n_doubleprime_basis: tuple[IntVec, ...]
    coarse_generators: tuple[IntVec, ...]

    @property
    def group_label(self) -> str:
        """Cartier-dual notation for the stabilizer: mu_{d_1} x ... ."""
        if not self.group.invariant_factors:
            return "trivial"
        return " x ".join(f"mu_{d}" for d in self.group.invariant_factors)

    def cycle_coordinates(self, face: Sequence[int]) -> list[int]:
        """Indices of the coordinates whose fan rays lie in ``face``."""
        return sorted(i for i, rho in enumerate(self.fan_rays) if rho in face)


def split_cone(sigma: Cone) -> tuple[list[IntVec], list[IntVec]]:
    """Lattice splitting N = N' + N'' with sigma full-dimensional in N'.

    N' is the saturation of the span of the rays; N'' is the canonical
    Hermite completion to a basis of the ambient lattice.
    """
    if not sigma.strictly_convex:
        raise ValueError("split_cone requires a strictly convex cone")
    n_prime = saturate(list(sigma.rays))
    n_doubleprime = complete_to_basis(n_prime, sigma.ambient_rank)
    return list(n_prime), list(n_doubleprime)


def chart_resolution(sf: StackyFan, sigma: Iterable[int]):
    """Sharp chart monoid and its level-scaled resolution over a nonzero cone.

    Returns (monoid, resolution, fan_rays, n_prime, n_doubleprime) where
    fan_rays[i] is the fan ray index attached to the i-th free generator
    through the ray-star bijection.
    """
    fan = sf.fan
    key = fan.normalize(sigma)
    if not key:
        raise ValueError("the zero cone has a trivial monoid; pick a nonzero cone")
    geometry = fan.cone_geometry(key)
    n_prime, n_doubleprime = split_cone(geometry)
    local_rays = split_coordinates(geometry.rays, n_prime, n_doubleprime)
    ray_by_local = dict(zip(local_rays, key))
    tau = Cone.from_generators(local_rays, len(key))
    p = monoid_from_cone(tau)

    # attach levels to the free generators through the ray-star bijection:
    # generator i sits on the i-th ray of C(P), which pairs positively with
    # exactly one ray of the cone
    fan_ray_of_coordinate = []
    for w in p.defining_cone.rays:
        hits = [c for c in local_rays if dot(w, c) > 0]
        if len(hits) != 1:
            raise AssertionError("ray-star bijection failed in chart computation")
        fan_ray_of_coordinate.append(ray_by_local[hits[0]])
    levels = tuple(sf.levels[i] for i in fan_ray_of_coordinate)
    res = admissible_resolution(p, dict(zip(p.defining_cone.rays, levels)))
    return p, res, tuple(fan_ray_of_coordinate), tuple(n_prime), tuple(n_doubleprime)


def local_chart(sf: StackyFan, sigma: Iterable[int]) -> LocalChart:
    """Compute the quotient chart over a cone of the stacky fan."""
    fan = sf.fan
    key = fan.normalize(sigma)
    d = fan.ambient_rank
    r = len(key)
    if r == 0:
        return LocalChart(
            cone=key, r=0, torus_rank=d,
            group=FiniteAbelianGroup(),
            action_weights=(), levels=(), fan_rays=(),
            n_prime_basis=(), n_doubleprime_basis=tuple(
                tuple(int(i == j) for j in range(d)) for i in range(d)),
            coarse_generators=(),
        )
    p, res, fan_ray_of_coordinate, n_prime, n_doubleprime = chart_resolution(sf, key)
    levels = res.levels

    b = res.coordinate_matrix()
    s, u, _ = smith_normal_form(b)
    diag = [s.entry(i, i) for i in range(r)]
    if any(x == 0 for x in diag):
        raise AssertionError("degenerate resolution lattice in chart computation")
    torsion_rows = [i for i, x in enumerate(diag) if x > 1]
    group = FiniteAbelianGroup(tuple(diag[i] for i in torsion_rows))
    weights = tuple(
        tuple(u.entry(row, i) % diag[row] for row in torsion_rows)
        for i in range(r))

    expected = fans.stacky_multiplicity(sf, key)
    if group.order != expected:
        raise AssertionError(
            f"stabilizer order {group.order} differs from stacky multiplicity {expected}")
    return LocalChart(
        cone=key, r=r, torus_rank=d - r,
        group=group,
        action_weights=weights,
        levels=levels,
        fan_rays=tuple(fan_ray_of_coordinate),
        n_prime_basis=tuple(n_prime),
        n_doubleprime_basis=tuple(n_doubleprime),
        coarse_generators=p.hilbert_basis,
    )


def stabilizer(sf: StackyFan, sigma: Iterable[int]) -> FiniteAbelianGroup:
    """Stabilizer group of a point in the open stratum of sigma.

    Returned as the finite abelian group underlying the Cartier dual; its
    order equals the stacky multiplicity of the cone (asserted).
    """
    return local_chart(sf, sigma).group


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
        for c in sf.fan.maximal_cones:
            if rho in c:
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

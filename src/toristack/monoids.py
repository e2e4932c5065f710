"""Affine toric monoids and their free resolutions.

A monoid P is stored through its defining cone C(P) in M (x) Q together with
its Hilbert basis, so saturation holds by construction: P is exactly the set
of lattice points of C(P). On top of that sit the resolution operations: the
minimal free resolution (the smallest free monoid F with P <= F <= P^gp (x) Q
and P close to F), its scalings by positive integer levels, the cokernel
F^gp / P^gp, the correspondence between free generators, rays of C(P)
and height-one primes, and the exact check that P^gp intersect F = P. A
cone's data comes from as few inversions as its description allows: the
Hilbert basis from one Smith form of the ray matrix, the free generators
from the dual rays that C(P) already stores. Every lattice walk here (a
Hilbert basis) counts its points first and raises ``LatticeWalkTooLarge``
above ``MAX_LATTICE_POINTS``. No command calls ``quotient_group`` or
``restrict_resolution``; each states a result of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import le, mul
from typing import Mapping, NamedTuple, Sequence

from . import cones
from .cones import Cone
from .linalg import (
    FiniteAbelianGroup,
    FracVec,
    IntegerInverse,
    IntVec,
    canonical_basis,
    complete_to_basis,
    dot,
    identity_rows,
    integer_inverse,
    integer_solve,
    is_zero_vector,
    primitive_vector,
    quotient_invariants,
    saturate,
    smith_elimination,
)


class NotCloseError(ValueError):
    """Q is not close to P: some ray of C(P) has no positive multiple in Q."""


class NotSaturatedError(ValueError):
    """A close submonoid misses a point of C(P) intersect Q^gp."""


# ---------------------------------------------------------------------------
# Hilbert bases

MAX_LATTICE_POINTS = 10 ** 6
"""Most points a lattice walk may visit: the parallelepiped of a Hilbert
basis in rank >= 3, or the basis itself in rank 2."""


class LatticeWalkTooLarge(Exception):
    """A Hilbert basis walk would visit more than ``MAX_LATTICE_POINTS`` points.

    Raised before the walk allocates anything. ``cone`` is None until a
    caller that knows the fan cone involved names it by its ray indices.
    """

    def __init__(self, points: int):
        super().__init__(points)
        self.points = points
        self.cone: tuple[int, ...] | None = None

    def __str__(self):
        where = "" if self.cone is None else f" over cone [{','.join(map(str, self.cone))}]"
        return (f"Hilbert basis{where} would visit {self.points} lattice points, "
                f"above the limit of {MAX_LATTICE_POINTS}")


def _hilbert_basis_plane(u: IntVec, w: IntVec) -> list[IntVec]:
    """Hilbert basis of the 2-cone on primitive u, w by Hirzebruch-Jung.

    With n = |det(u, w)| and a basis (f, u) of Z^2 in which w = n f - k u,
    0 <= k < n, the basis is u_0 = u, u_1 = f, u_(i+1) = a_i u_i - u_(i-1),
    ending on w, where n / k = a_1 - 1 / (a_2 - 1 / (...)) is the
    Hirzebruch-Jung continued fraction (Cox-Little-Schenck, Toric
    Varieties, 10.2). O(|HB| + log n) steps, with no normal form; |HB|
    is counted first, and more than ``MAX_LATTICE_POINTS`` elements raise
    ``LatticeWalkTooLarge`` before any is built.
    """
    if math.gcd(*u) != 1 or math.gcd(*w) != 1:
        raise AssertionError("ray of a 2-cone is not primitive")
    n = u[0] * w[1] - u[1] * w[0]
    if n < 0:
        u, w, n = w, u, -n
    if n == 0:
        raise AssertionError("rays of a 2-cone are dependent")
    # f with det(u, f) = u0 f1 - u1 f0 = 1
    if u[1] == 0:
        f = (0, u[0])
    else:
        f1 = pow(u[0], -1, abs(u[1]))
        f = ((u[0] * f1 - 1) // u[1], f1)
    # w = alpha u + n f; shift f by t u so that w = n f - k u, 0 <= k < n
    alpha = w[0] * f[1] - w[1] * f[0]
    t = -(-alpha // n)
    k = n * t - alpha
    # |HB| is 2 plus the length of the continued fraction, counted in
    # O(log n) steps: from q < p <= 2q come q // (p - q) coefficients 2
    size, p, q = 2, n, k
    while q:
        if p <= 2 * q:
            r = p - q
            size += q // r
            p, q = r + q % r, q % r
        else:
            size += 1
            p, q = q, -(-p // q) * q - p
    if size > MAX_LATTICE_POINTS:
        raise LatticeWalkTooLarge(size)
    prev, cur = u, (f[0] + t * u[0], f[1] + t * u[1])
    out = [prev, cur]
    p, q = n, k
    while q:
        a = -(-p // q)
        p, q = q, a * q - p
        prev, cur = cur, (a * cur[0] - prev[0], a * cur[1] - prev[1])
        out.append(cur)
    if cur != tuple(w) or len(out) != size:
        raise AssertionError("continued fraction did not end on the second ray "
                             "after the counted steps")
    return sorted(out)


def _hilbert_basis_full(ray_list: Sequence[IntVec], d: int) -> list[IntVec]:
    """Hilbert basis of a full-dimensional simplicial cone in Z^d.

    In rank 2 the basis comes from the Hirzebruch-Jung continued fraction of
    the rays (``_hilbert_basis_plane``), with no normal form and no
    parallelepiped. From rank 3 on, it enumerates the lattice points of the
    half-open fundamental parallelepiped of the primitive rays (one per
    residue class of Z^d modulo the ray lattice, vol = |det| of them, so
    more than ``MAX_LATTICE_POINTS`` raises ``LatticeWalkTooLarge`` before
    any is built) and adds the rays. Every candidate carries its
    coordinates in the basis ``ray / vol``: ``vol * e_i`` for the i-th ray,
    and for a parallelepiped point its residue vector, built one invariant
    factor of Z^d / A Z^d at a time. All of it comes from one Smith
    elimination U A V = S of the ray matrix A, with no inverse: vol is the
    product of the diagonal s_j, and since A^-1 U^-1 = V S^-1, the j-th
    residue generator U^-1 e_j has the scaled coordinates (vol / s_j) V e_j.
    The irreducible elements are then found by the reduction rule of
    Normaliz (Bruns-Ichim, J. Algebra 324, 2010): in order of degree
    (coordinate sum), h is reducible iff some already accepted element is
    componentwise <= h, because every decomposition of a reducible h starts
    with a Hilbert-basis element of lower degree.
    """
    if d == 2:
        return _hilbert_basis_plane(*ray_list)
    rows = [list(r) for r in zip(*ray_list)]  # A: the rays as columns
    v = identity_rows(d)
    diag = smith_elimination([row[:] for row in rows], v=v)
    vol = math.prod(diag)  # |det A|
    if vol == 0:
        raise AssertionError("rays of a simplicial cone are dependent")
    if vol > MAX_LATTICE_POINTS:
        raise LatticeWalkTooLarge(vol)
    fracs = [(0,) * d]
    for j, n in enumerate(diag):
        if n > 1:
            w = [row[j] * (vol // n) for row in v]
            fracs = [tuple([(f + c * x) % vol for f, x in zip(frac, w)])
                     for frac in fracs for c in range(n)]
    coords: dict[IntVec, tuple[int, ...]] = {
        r: tuple(vol * int(i == k) for k in range(d)) for i, r in enumerate(ray_list)}
    for frac in fracs[1:]:  # fracs[0] is the origin
        p = []
        for row in rows:
            q, rem = divmod(sum(map(mul, row, frac)), vol)
            if rem:
                raise AssertionError("parallelepiped point is not integral")
            p.append(q)
        coords[tuple(p)] = frac
    accepted: list[tuple[tuple[int, ...], IntVec]] = []
    for h in sorted(coords, key=lambda h: (sum(coords[h]), h)):
        ch = coords[h]
        if not any(all(map(le, cg, ch)) for cg, _ in accepted):
            accepted.append((ch, h))
    return sorted(h for _, h in accepted)


def split_coordinates(vectors: Sequence[IntVec], n_prime: Sequence[IntVec],
                      n_doubleprime: Sequence[IntVec]) -> list[IntVec]:
    """Coordinates in the basis n_prime of vectors lying in its span.

    n_prime + n_doubleprime must be a basis of the ambient lattice (one
    inverse serves every vector); a vector outside the span of n_prime raises.
    """
    inverse = integer_inverse([list(col) for col in zip(*n_prime, *n_doubleprime)])
    r = len(n_prime)
    out = []
    for v in vectors:
        coords = integer_solve(inverse, v)
        if coords is None or any(coords[r:]):
            raise AssertionError("ray escapes the saturated span")
        out.append(coords[:r])
    return out


def hilbert_basis(c: Cone) -> list[IntVec]:
    """Minimal generating set of c intersected with the ambient lattice.

    The cone must be simplicial and strictly convex; lower-dimensional cones
    are handled inside the saturation of their span, so every 2-cone, in any
    ambient rank, takes the Hirzebruch-Jung path of ``_hilbert_basis_full``.
    A walk over more than ``MAX_LATTICE_POINTS`` points raises
    ``LatticeWalkTooLarge`` before it starts.
    """
    if not cones.is_simplicial(c):
        raise ValueError("Hilbert basis computation requires a simplicial cone")
    if c.is_zero:
        return []
    d = c.ambient_rank
    if c.dim == d:
        return _hilbert_basis_full(c.rays, d)
    span = saturate(list(c.rays))
    local = _hilbert_basis_full(split_coordinates(c.rays, span, complete_to_basis(span, d)), c.dim)
    lifted = [tuple(dot(h, col) for col in zip(*span)) for h in local]
    return sorted(lifted)


def monoid_generators(c: Cone) -> list[IntVec]:
    """Canonical generating set of c intersected with the lattice, units allowed.

    For a strictly convex cone this is the Hilbert basis. Otherwise the unit
    subgroup (lineality lattice) contributes +/- a basis, and the sharp
    quotient's Hilbert basis is lifted along the canonical basis completion.
    """
    if c.strictly_convex:
        return hilbert_basis(c)
    lin = list(c.lineality)
    comp = complete_to_basis(lin, c.ambient_rank)
    # sharp image: drop the lineality coordinates in the completed basis
    # (a basis of the lattice, so every coordinate is integral)
    inverse = integer_inverse([list(col) for col in zip(*lin, *comp)])
    imaged = [integer_solve(inverse, g)[len(lin):] for g in c.rays]
    image_cone = Cone.from_generators(imaged, c.ambient_rank - len(lin))
    lifts = [tuple(dot(h, col) for col in zip(*comp)) for h in hilbert_basis(image_cone)]
    units = lin + [tuple(-x for x in v) for v in lin]
    return sorted(lifts + units)


# ---------------------------------------------------------------------------
# monoids

@dataclass(frozen=True)
class AffineMonoid:
    """P = C(P) intersect M, stored by its defining cone and Hilbert basis."""

    lattice_rank: int
    defining_cone: Cone
    hilbert_basis: tuple[IntVec, ...]
    sharp: bool

    @classmethod
    def from_dual_cone(cls, c: Cone) -> "AffineMonoid":
        """Monoid of lattice points of a cone in M (x) Q.

        The sharp flag records strict convexity of the cone. Every ``Cone``
        is simplicial (modulo its lineality), so the generators always exist.
        """
        return cls(c.ambient_rank, c, tuple(monoid_generators(c)), c.strictly_convex)

    def contains(self, x: Sequence[int]) -> bool:
        return all(isinstance(v, int) or Fraction(v).denominator == 1 for v in x) \
            and cones.contains(self.defining_cone, x)


# ---------------------------------------------------------------------------
# free resolutions

class RayCorrespondence(NamedTuple):
    """One line of the generator / ray / height-one prime dictionary."""

    index: int
    generator: FracVec          # realized free generator on the ray
    ray: IntVec                 # primitive ray of C(P)
    facet_rays: tuple[IntVec, ...]  # rays of the facet cutting out the prime


@dataclass(frozen=True)
class FreeResolution:
    """Embedding of P into a free monoid inside P^gp (x) Q.

    generators are the minimal free generators f_i = v_i / b_i sitting on the
    rays v_i of C(P); realized_generators g_i = f_i / n_i carry the level
    scalings (all n_i = 1 for the minimal resolution). Construction checks
    that P lies in the free monoid on the f_i, hence in the one on the g_i:
    the i-th coordinate of a Hilbert-basis element in the g basis is a
    nonnegative multiple of n_i.
    """

    source: AffineMonoid
    rank: int
    denominators: tuple[int, ...]
    levels: tuple[int, ...]
    generators: tuple[FracVec, ...]
    realized_generators: tuple[FracVec, ...]

    def __post_init__(self):
        if any(n < 1 for n in self.levels):
            raise ValueError("levels must be positive integers")
        if any(b < 1 for b in self.denominators):
            raise ValueError("denominators must be positive integers")
        m, q = self._basis_inverse
        for h in self.source.hilbert_basis:
            coordinates = (dot(row, h) for row in m)
            if any(v % (q * n) or v < 0 for v, n in zip(coordinates, self.levels)):
                raise AssertionError(
                    f"monoid element {h} is not a lattice point of the free monoid")

    @property
    def is_minimal(self) -> bool:
        return all(n == 1 for n in self.levels)

    @cached_property
    def _scaled_generators(self) -> tuple[int, list[IntVec]]:
        """(L, L * g_i): the realized generators over their common denominator."""
        scale = math.lcm(*(x.denominator for g in self.realized_generators for x in g))
        return scale, [tuple(int(x * scale) for x in g) for g in self.realized_generators]

    @cached_property
    def _basis_inverse(self) -> IntegerInverse:
        """(M, q) with ``M / q`` the inverse of the realized generator matrix."""
        scale, gens = self._scaled_generators
        m, q = integer_inverse([list(r) for r in zip(*gens)])
        g = math.gcd(scale, q)
        return [[x * (scale // g) for x in row] for row in m], q // g

    def coordinate_matrix(self) -> list[list[int]]:
        """Rows of the matrix whose columns are the standard basis of M
        written in the realized basis.

        This is the matrix of P^gp -> F^gp; a non-integral entry means the
        resolution data is broken and raises.
        """
        m, q = self._basis_inverse
        if any(x % q for row in m for x in row):
            raise ValueError("non-integral coordinate matrix: broken resolution")
        return [[x // q for x in row] for row in m]


def minimal_free_resolution(p: AffineMonoid) -> FreeResolution:
    """Canonical construction of the minimal free resolution of P: the
    admissible resolution with every level 1."""
    return admissible_resolution(p, {})


def admissible_resolution(p: AffineMonoid, levels: Mapping[IntVec, int]) -> FreeResolution:
    """The minimal free resolution of P, scaled by per-ray levels.

    The free generators are f_i = v_i / b_i, where v_i are the primitive rays
    of C(P) (lex order) and (1/b_i) Z is the image of P^gp under the i-th
    ray coordinate <u_i, .> / <u_i, v_i>, for the dual ray
    u_i = ``cones.ray_star(C(P), v_i)`` that C(P) already stores: u_i is
    primitive, so that image is generated by 1 / <u_i, v_i>, and
    b_i = <u_i, v_i>. levels maps primitive rays of C(P) to positive
    integers; missing rays default to 1. The realized generators are
    f_i / n_i.
    """
    if not p.sharp:
        raise ValueError("minimal free resolution requires a sharp monoid")
    c = p.defining_cone
    if c.dim != p.lattice_rank:
        raise ValueError("defining cone must be full-dimensional (P^gp of full rank)")
    ray_list = c.rays
    known = set(ray_list)
    by_ray = {}
    for key, n in levels.items():
        key = tuple(int(x) for x in key)
        if key not in known:
            raise ValueError(f"level given for unknown ray {key}")
        if int(n) < 1:
            raise ValueError(f"level on ray {key} must be >= 1")
        by_ray[key] = int(n)
    ns = tuple(by_ray.get(r, 1) for r in ray_list)
    denominators = tuple(dot(cones.ray_star(c, v), v) for v in ray_list)
    gens = tuple(tuple(Fraction(x, b) for x in v) for v, b in zip(ray_list, denominators))
    return FreeResolution(
        source=p, rank=p.lattice_rank,
        denominators=denominators,
        levels=ns,
        generators=gens,
        realized_generators=tuple(tuple(x / n for x in f) for f, n in zip(gens, ns)),
    )


def resolution_cokernel(res: FreeResolution) -> FiniteAbelianGroup:
    """Invariant factors of F^gp modulo the image of P^gp."""
    return quotient_invariants(list(zip(*res.coordinate_matrix())), res.rank)


def irreducible_ray_correspondence(res: FreeResolution) -> list[RayCorrespondence]:
    """Generator <-> ray of C(P) <-> height-one prime dictionary.

    The i-th free generator lies on the i-th ray; the matching prime ideal is
    the complement of the facet of C(P) spanned by the other rays.
    """
    ray_list = res.source.defining_cone.rays
    out = []
    for i, (g, v) in enumerate(zip(res.realized_generators, ray_list)):
        facet = tuple(r for j, r in enumerate(ray_list) if j != i)
        out.append(RayCorrespondence(i, g, v, facet))
    return out


# ---------------------------------------------------------------------------
# submonoids and quotients

def quotient_group(p: AffineMonoid, q_generators: Sequence[Sequence[int]]) -> FiniteAbelianGroup:
    """P/Q for a saturated submonoid Q close to P, as P^gp / Q^gp.

    The paper's quotient P/Q, checked by ``test_quotient_matches_box_oracle``.
    Both preconditions are decided exactly. C(P) is simplicial and Q <= P,
    so Q is close to P iff every ray of C(P) has a positive multiple among
    the generators: no other sum of points of C(P) reaches an extreme ray.
    Q is then saturated iff every element of the Hilbert basis of
    C(P) intersect Q^gp is a generator, because such an element is
    irreducible and so lies in Q only as a generator. That basis is computed
    in a canonical basis of Q^gp and raises ``LatticeWalkTooLarge`` above
    ``MAX_LATTICE_POINTS``.
    """
    if not p.sharp:
        raise ValueError("quotient_group requires a sharp monoid")
    q_gens = []
    for g in q_generators:
        g = tuple(int(x) for x in g)
        if not p.contains(g):
            raise ValueError(f"generator {g} does not lie in P")
        if not is_zero_vector(g):
            q_gens.append(g)
    q_gens = sorted(set(q_gens))
    group = quotient_invariants(q_gens, p.lattice_rank)
    if group.free_rank:
        raise NotCloseError("Q^gp has infinite index in P^gp, so Q cannot be close to P")
    on_rays = []
    for v in p.defining_cone.rays:
        g = next((g for g in q_gens if primitive_vector(g) == v), None)
        if g is None:
            raise NotCloseError(f"no multiple of the ray {v} of C(P) lies in Q")
        on_rays.append(g)
    basis = canonical_basis(q_gens)
    inverse = integer_inverse([list(col) for col in zip(*basis)])
    local = Cone.from_generators([integer_solve(inverse, g) for g in on_rays], p.lattice_rank)
    for h in hilbert_basis(local):
        x = tuple(dot(h, col) for col in zip(*basis))
        if x not in q_gens:
            raise NotSaturatedError(f"{x} lies in C(Q) and Q^gp but not in Q")
    return group


def restrict_resolution(p: AffineMonoid, res: FreeResolution,
                        coordinate_subset: Sequence[int]) -> tuple[AffineMonoid, FreeResolution]:
    """Project the minimal resolution to a subset of the free coordinates.

    The paper's projection stability, checked by
    ``test_restrict_resolution_matches_the_projected_monoid_oracle``.
    Returns the projected monoid Q together with its minimal free resolution,
    asserting that the projection of the original resolution is that minimal
    resolution (recomputed from scratch). Q is re-coordinated by a canonical
    basis of Q^gp, since the projection need not span the full lattice; the
    identity projection returns (P, res) unchanged.
    """
    if not res.is_minimal:
        raise ValueError("restrict_resolution expects the minimal resolution")
    d = res.rank
    subset = sorted(set(int(i) for i in coordinate_subset))
    if not subset or subset[0] < 0 or subset[-1] >= d:
        raise ValueError("coordinate subset out of range")
    if len(subset) == d:
        return p, res
    r = len(subset)
    m, den = res._basis_inverse  # integral on P, as __post_init__ checked

    def project(x: IntVec) -> IntVec:
        return tuple(dot(m[i], x) // den for i in subset)

    projected = sorted(set(map(project, p.hilbert_basis)))
    basis = canonical_basis(projected)
    if len(basis) != r:
        raise AssertionError("projected monoid group is not of full rank")
    basis_m, basis_den = inverse = integer_inverse([list(col) for col in zip(*basis)])

    def recoordinate(g: IntVec) -> IntVec:
        y = integer_solve(inverse, g)
        if y is None:
            raise AssertionError("projected generator outside its own group lattice")
        return y

    recoord = [recoordinate(g) for g in projected]
    # C(Q) is the image of C(P); ray i of C(P) maps to b_i e_i or to 0, so
    # the images of the rays are linearly independent
    q = AffineMonoid.from_dual_cone(Cone.from_generators(
        [recoordinate(project(v)) for v in p.defining_cone.rays], r))
    # the projection is guaranteed saturated: every Hilbert-basis element of
    # C(Q) is irreducible, so it lies in Q only as a projected generator
    if not set(q.hilbert_basis) <= set(recoord):
        raise AssertionError("projection produced a non-saturated monoid")
    res_q = minimal_free_resolution(q)
    # Projection stability: the images of the projected free generators must
    # be exactly the recomputed minimal free generators.
    images = sorted(tuple(Fraction(x, basis_den) for x in col) for col in zip(*basis_m))
    recomputed = sorted(res_q.generators)
    if images != recomputed:
        raise AssertionError(
            "projected resolution differs from the recomputed minimal one: "
            f"{images} vs {recomputed}")
    return q, res_q


def saturation_intersection_check(res: FreeResolution) -> bool:
    """Whether P^gp intersect F = P, decided exactly.

    ``FreeResolution`` has checked P <= F. If every realized generator lies
    in C(P), so does F, and the lattice points of F lie in C(P) intersect
    M = P. A generator g outside C(P) has a smallest multiple in M, an
    element of F that P misses: with (L, v) = (L, L * g) over the common
    denominator, that multiple is v / gcd(L, v). One integer membership
    test per generator decides it.
    """
    scale, gens = res._scaled_generators
    for v in gens:
        k = math.gcd(scale, *v)
        if not res.source.contains(tuple(x // k for x in v)):
            return False
    return True

"""Affine toric monoids and their free resolutions.

A monoid P is stored through its defining cone C(P) in M (x) Q together with
its Hilbert basis, so saturation holds by construction: P is exactly the set
of lattice points of C(P). On top of that sit the resolution operations: the
minimal free resolution (the smallest free monoid F with P <= F <= P^gp (x) Q
and P close to F), its scalings by positive integer levels, the
correspondence between free generators, rays of C(P) and height-one primes,
and the exact check that P^gp intersect F = P. The cokernel F^gp / P^gp is
not computed here: in the basis of realized generators the matrix of
P^gp -> F^gp is a chart's free-net matrix, so it is the chart's group
(``charts.LocalChart.group``). A cone's data comes from as few inversions
as its description allows: the Hilbert basis from one Smith form of the ray
matrix, the free generators and a resolution's P <= F check from the dual
rays that C(P) already stores. Every lattice walk here (a Hilbert basis)
counts its points first and raises ``LatticeWalkTooLarge`` above
``MAX_LATTICE_POINTS``; from rank 3 on it holds one integer per residue of
the parallelepiped and forms a lattice point only for each irreducible
residue. No command calls
``quotient_group`` or ``restrict_resolution``; each states a result of the
paper.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from . import cones
from .cones import Cone
from .linalg import (
    FiniteAbelianGroup,
    FracVec,
    IntVec,
    canonical_basis,
    complete_to_basis,
    dot,
    echelon_coordinates,
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
    parallelepiped. From rank 3 on, the basis is the rays and the
    irreducible lattice points of the half-open fundamental parallelepiped
    of the rays, one per residue class of Z^d modulo the ray lattice:
    vol = |det| of them, so more than ``MAX_LATTICE_POINTS`` raises
    ``LatticeWalkTooLarge`` before any is built. Each point is walked as
    its residue vector c, its coordinates in the basis ``ray / vol`` (each
    in [0, vol)), and only an irreducible one is turned into the point
    A c / vol. All of it comes from one Smith elimination U A V = S of the
    ray matrix A, with no inverse: vol is the product of the diagonal s_j,
    and since A^-1 U^-1 = V S^-1, the j-th residue generator U^-1 e_j has
    the scaled coordinates w_j = (vol / s_j) V e_j. A w_j = 0 (mod vol) is
    checked once per generator, which by linearity makes every A c / vol
    integral. The residues are built one invariant factor at a time, each
    packed into one integer, coordinate k in the k-th field of ``width``
    bits: adding a step of the generator adds the fields, and a guard bit on
    top of each field flags those that reached vol, so that one
    subtraction brings them back.

    The irreducible residues are found by the reduction rule of Normaliz
    (Bruns-Ichim, J. Algebra 324, 2010): taken in an order where g comes
    before h whenever g <= h componentwise, h is reducible iff some already
    accepted residue is componentwise <= h, because every decomposition of
    a reducible h starts with a Hilbert-basis element below it. The integer
    order of the packed residues is such an order (lexicographic from the
    last coordinate), and one subtraction compares all fields at once. A
    ray, ``vol * e_i`` in these coordinates, neither reduces a residue nor
    is reduced by one, as the rays are primitive (checked), so the rays join
    the basis unreduced.
    """
    if d == 2:
        return _hilbert_basis_plane(*ray_list)
    if any(math.gcd(*r) != 1 for r in ray_list):
        raise AssertionError("ray of a simplicial cone is not primitive")
    rows = [list(r) for r in zip(*ray_list)]  # A: the rays as columns
    v = identity_rows(d)
    diag = smith_elimination([row[:] for row in rows], v=v)
    vol = math.prod(diag)  # |det A|
    if vol == 0:
        raise AssertionError("rays of a simplicial cone are dependent")
    if vol > MAX_LATTICE_POINTS:
        raise LatticeWalkTooLarge(vol)
    # a field holds a sum of two coordinates (< 2 vol) below its guard bit
    width = vol.bit_length() + 2
    top = width - 1
    ones = sum(1 << (k * width) for k in range(d))
    guard, vols = ones << top, ones * vol
    residues = [0]
    for j, n in enumerate(diag):
        if n > 1:
            w = [row[j] * (vol // n) for row in v]
            if any(dot(row, w) % vol for row in rows):
                raise AssertionError("parallelepiped point is not integral")
            steps = [sum((c * x % vol) << (k * width) for k, x in enumerate(w)) for c in range(n)]
            residues = [(x := r + s) - ((((x | guard) - vols) & guard) >> top) * vol
                        for r in residues for s in steps]
    residues.sort()
    accepted = []
    for h in residues[1:]:  # residues[0] is the origin
        hg = h | guard
        for g in accepted:
            if (hg - g) & guard == guard:  # g <= h in every field
                break
        else:
            accepted.append(h)
    mask = (1 << width) - 1
    basis = list(ray_list)
    for h in accepted:
        c = [(h >> (k * width)) & mask for k in range(d)]
        p = []
        for row in rows:
            q, rem = divmod(dot(row, c), vol)
            if rem:
                raise AssertionError("parallelepiped point is not integral")
            p.append(q)
        basis.append(tuple(p))
    return sorted(basis)


def hilbert_basis(c: Cone) -> list[IntVec]:
    """Minimal generating set of c intersected with the ambient lattice.

    The cone must be simplicial and strictly convex; lower-dimensional cones
    are handled inside the saturation of their span, in the coordinates of
    its Hermite basis (``echelon_coordinates``), so every 2-cone, in any
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
    local = _hilbert_basis_full(echelon_coordinates(c.rays, span), c.dim)
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

class AffineMonoid(NamedTuple):
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


class _ResolutionFields(NamedTuple):
    source: AffineMonoid
    rank: int
    denominators: tuple[int, ...]
    levels: tuple[int, ...]
    generators: tuple[FracVec, ...]
    realized_generators: tuple[FracVec, ...]


class FreeResolution(_ResolutionFields):
    """Embedding of P into a free monoid inside P^gp (x) Q.

    generators are the minimal free generators f_i = v_i / b_i sitting on the
    rays v_i of C(P); realized_generators g_i = f_i / n_i carry the level
    scalings (all n_i = 1 for the minimal resolution). In the g basis the
    i-th coordinate of m is n_i <u_i, m>, for the dual ray u_i that C(P)
    stores beside v_i (``defining_cone.dual_rays[i]``), so no matrix is
    inverted. Construction checks that P lies in the free monoid on the f_i,
    hence in the one on the g_i: for each Hilbert-basis element h, every
    <u_i, h> >= 0, and those coordinates rebuild h exactly,
    sum_i n_i <u_i, h> (L g_i) = L h over the common denominator L of the
    g_i. Generators off the rays of C(P) fail that check, and so do dual
    rays out of step with the rays: the rays of C(P) are Hilbert-basis
    elements, and v_k is rebuilt only if <u_i, v_k> = b_i delta_ik. The
    Hilbert basis generates P^gp, so the matrix of P^gp -> F^gp is
    integral. The realized generators over L are kept in the instance
    ``__dict__``, beside the fields.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(n < 1 for n in self.levels):
            raise ValueError("levels must be positive integers")
        if any(b < 1 for b in self.denominators):
            raise ValueError("denominators must be positive integers")
        scale, gens = self._scaled_generators
        columns = list(zip(*gens))
        rows = [[n * x for x in u]
                for u, n in zip(self.source.defining_cone.dual_rays, self.levels)]
        for h in self.source.hilbert_basis:
            coordinates = [sum(map(mul, row, h)) for row in rows]
            if (min(coordinates) < 0
                    or [sum(map(mul, coordinates, col)) for col in columns] != [scale * x for x in h]):
                raise AssertionError(
                    f"monoid element {h} is not a lattice point of the free monoid")
        return self

    @property
    def is_minimal(self) -> bool:
        return all(n == 1 for n in self.levels)

    @cached_property
    def _scaled_generators(self) -> tuple[int, list[IntVec]]:
        """(L, L * g_i): the realized generators over their common denominator."""
        scale = math.lcm(*(x.denominator for g in self.realized_generators for x in g))
        return scale, [tuple(x.numerator * (scale // x.denominator) for x in g)
                       for g in self.realized_generators]


def minimal_free_resolution(p: AffineMonoid) -> FreeResolution:
    """Canonical construction of the minimal free resolution of P: the
    admissible resolution with every level 1."""
    return admissible_resolution(p, {})


def admissible_resolution(p: AffineMonoid, levels: Mapping[IntVec, int]) -> FreeResolution:
    """The minimal free resolution of P, scaled by per-ray levels.

    The free generators are f_i = v_i / b_i, where v_i are the primitive rays
    of C(P) (lex order) and (1/b_i) Z is the image of P^gp under the i-th
    ray coordinate <u_i, .> / <u_i, v_i>, for the dual ray
    u_i = ``defining_cone.dual_rays[i]`` that C(P) stores beside v_i: u_i is
    primitive, so that image is generated by 1 / <u_i, v_i>, and
    b_i = <u_i, v_i>, asserted positive before any division. levels maps
    primitive rays of C(P) to positive integers; missing rays default to 1.
    The realized generators are f_i / n_i.
    """
    if not p.sharp:
        raise ValueError("minimal free resolution requires a sharp monoid")
    c = p.defining_cone
    if not cones.is_full_dimensional(c):
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
    denominators = tuple(map(dot, c.dual_rays, ray_list))
    if any(b < 1 for b in denominators):
        raise AssertionError("a dual ray of C(P) does not pair positively with its ray")
    gens = tuple(tuple(Fraction(x, b) for x in v) for v, b in zip(ray_list, denominators))
    return FreeResolution(
        source=p, rank=p.lattice_rank,
        denominators=denominators,
        levels=ns,
        generators=gens,
        realized_generators=tuple(tuple(x / n for x in f) for f, n in zip(gens, ns)),
    )


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
    duals = res.source.defining_cone.dual_rays  # <u_i, x> is the i-th coordinate at level 1

    def project(x: IntVec) -> IntVec:
        return tuple(dot(duals[i], x) for i in subset)

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

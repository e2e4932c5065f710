"""Simplicial rational polyhedral cones over exact rationals.

A cone is the cone on linearly independent generators, the only kind a
stacky fan has. It is stored with both descriptions: its extreme rays (the
generators made primitive, lexicographically sorted) and the inequalities
cutting it out (the generators of the dual cone). ``dual_rows`` is the one
place a simplicial cone is dualized, and so the one simpliciality test: one
inverse of the ray matrix, or of its Gram matrix when there are fewer than
d rays. Then the kernel of the rays (one normal form) is the dual
lineality, and the dual rays are their representatives in the span of the
rays. The dual swaps the two descriptions. Dependent generators raise
``ValueError``.

No function here solves a system of inequalities. ``intersect`` asks
``stackyfan.validate_fan``; no command calls it, but the benchmark's tracer
wraps it.

The dual of a lower-dimensional cone is not strictly convex; it is carried
with an explicit lineality basis instead of being rejected, and
``strictly_convex`` flags it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .linalg import (
    IntVec,
    dot,
    integer_inverse,
    integer_kernel,
    is_zero_vector,
    primitive_of_rational,
    primitive_vector,
)


def dual_rows(rays: Sequence[IntVec], d: int) -> list[IntVec]:
    """One primitive row per ray, in ray order, in the span of the rays: row
    j pairs positively with ray j and to zero with the other rays.

    For d rays in rank d these are the columns of ``integer_inverse`` of the
    ray matrix V; for fewer, the rows of adj(V V^T) V, since V V^T adj(V V^T)
    = det(V V^T) I with det(V V^T) > 0 for independent rays. Dependent rays
    raise ``ValueError``: more than d of them before any elimination, d or
    fewer because the inverted matrix is singular.
    """
    if len(rays) > d:
        raise ValueError(f"{len(rays)} rays in rank {d} are linearly dependent")
    if len(rays) == d:
        m, _ = integer_inverse(rays)
        return [primitive_vector(col) for col in zip(*m)]
    m, _ = integer_inverse([[dot(u, v) for v in rays] for u in rays])
    return [primitive_vector([dot(row, col) for col in zip(*rays)]) for row in m]


@dataclass(frozen=True)
class Cone:
    """Simplicial rational polyhedral cone with cached ray and inequality data."""

    ambient_rank: int
    rays: tuple[IntVec, ...] = ()
    lineality: tuple[IntVec, ...] = field(default=(), compare=True)
    dim: int = field(default=0, compare=False)
    dual_rays: tuple[IntVec, ...] = field(default=(), compare=False, repr=False)
    dual_lineality: tuple[IntVec, ...] = field(default=(), compare=False, repr=False)

    @classmethod
    def from_generators(cls, generators: Iterable[Sequence], ambient_rank: int) -> "Cone":
        """The cone on linearly independent generators, with both descriptions.

        Zero generators are dropped and positive multiples of one vector
        count once; what is left must be linearly independent, or
        ``ValueError`` is raised. The dual rays are the ``dual_rows`` of the
        generators (one ``integer_inverse``); fewer than d generators also
        take the kernel normal form of ``on_rays``.
        """
        gens = []
        for g in generators:
            if len(g) != ambient_rank:
                raise ValueError("generator length does not match ambient rank")
            if not is_zero_vector(g):
                gens.append(primitive_of_rational(g))
        gens = sorted(set(gens))
        try:
            rows = dual_rows(gens, ambient_rank)
        except ValueError:  # singular: dependent generators
            raise ValueError(f"cone generators {gens} are linearly dependent") from None
        return cls.on_rays(gens, rows, ambient_rank)

    @classmethod
    def on_rays(cls, rays: Sequence[IntVec], rows: Sequence[IntVec], ambient_rank: int) -> "Cone":
        """The cone on linearly independent primitive rays whose ``dual_rows``
        are ``rows``: both lists are stored lex-sorted, and below full
        dimension the kernel of the rays is the dual lineality."""
        rays = sorted(rays)
        lineality = integer_kernel(rays, ambient_rank) if len(rays) < ambient_rank else ()
        return cls(ambient_rank, tuple(rays), (), len(rays), tuple(sorted(rows)), tuple(lineality))

    @property
    def strictly_convex(self) -> bool:
        return not self.lineality

    @property
    def is_zero(self) -> bool:
        return self.dim == 0


def dual_cone(c: Cone) -> Cone:
    """The dual cone {m : <m, u> >= 0 for all u in c}.

    Strictly convex iff c is full-dimensional; otherwise the result carries
    its lineality basis and is flagged via ``strictly_convex``. Both
    descriptions are already stored on c, so the two swap places.
    """
    return Cone(c.ambient_rank, c.dual_rays, c.dual_lineality,
                c.ambient_rank - len(c.lineality), c.rays, c.lineality)


def is_simplicial(c: Cone) -> bool:
    return c.strictly_convex and len(c.rays) == c.dim


def is_full_dimensional(c: Cone) -> bool:
    return c.dim == c.ambient_rank


def contains(c: Cone, v: Sequence) -> bool:
    """Exact membership test via the cached inequality description."""
    if len(v) != c.ambient_rank:
        raise ValueError("rank mismatch")
    return (all(dot(m, v) >= 0 for m in c.dual_rays)
            and all(dot(m, v) == 0 for m in c.dual_lineality))


def intersect(c1: Cone, c2: Cone) -> Cone:
    """The intersection of two strictly convex cones that meet in a common
    face: the cone on their shared rays.

    The pair is checked as a fan of two cones by ``stackyfan.validate_fan``;
    cones that overlap beyond their shared rays raise ``ValueError``.
    """
    from .stackyfan import IntersectionNotFace, validate_fan

    if c1.ambient_rank != c2.ambient_rank:
        raise ValueError("rank mismatch")
    if not (c1.strictly_convex and c2.strictly_convex):
        raise ValueError("intersect requires strictly convex cones")
    pool = sorted(set(c1.rays) | set(c2.rays))
    index = {r: i for i, r in enumerate(pool)}
    try:
        validate_fan(pool, [[index[r] for r in c.rays] for c in (c1, c2)], c1.ambient_rank)
    except IntersectionNotFace:
        raise ValueError("the cones overlap beyond the cone on their shared rays") from None
    return Cone.from_generators(set(c1.rays) & set(c2.rays), c1.ambient_rank)


def ray_star(c: Cone, rho: Sequence[int]) -> IntVec:
    """The unique ray of the dual cone pairing positively with the ray rho.

    Requires c simplicial and full-dimensional; this is the bijection between
    the rays of c and the rays of its dual.
    """
    if not is_simplicial(c) or not is_full_dimensional(c):
        raise ValueError("ray_star requires a simplicial full-dimensional cone")
    rho = tuple(int(x) for x in rho)
    if rho not in c.rays:
        raise ValueError(f"{rho} is not a ray of the cone")
    hits = [m for m in c.dual_rays if dot(m, rho) > 0]
    if len(hits) != 1:
        raise AssertionError("ray star correspondence failed; cone data corrupt")
    return hits[0]


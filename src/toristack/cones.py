"""Strictly convex rational polyhedral cones over exact rationals.

A cone is stored with both descriptions: its extreme rays (primitive integer
vectors, lexicographically sorted) and the inequalities cutting it out (the
generators of the dual cone). Every cone of a stacky fan is simplicial, and
so is the dual of a full-dimensional one: when the generators are linearly
independent, they are the rays and the dual rays are read off one inverse of
the generator matrix, so one normal form (the kernel of the generators)
settles the whole cone, and its dual swaps the two descriptions. Dependent
generator sets go through the double-description method in its simplest
exact form at this scale (ambient rank <= ~6): enumerating tight subsets of
the defining rows. Its callers are ``intersect`` and ``is_face`` (public, but
called by no other module) and ``monoids.restrict_resolution``, whose
projected Hilbert basis generates the projected cone. Fan validation uses
none of it: it settles each pair of cones with a separating functional or a
circuit sign test (``stackyfan._meet_in_shared_face``).

Cones that are not strictly convex (duals of lower-dimensional cones,
intersections) are carried with an explicit lineality basis instead of being
rejected; ``strictly_convex`` flags them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .linalg import (
    IntVec,
    complete_to_basis,
    dot,
    integer_inverse,
    integer_kernel,
    is_zero_vector,
    lattice_index,
    primitive_of_rational,
    primitive_vector,
)


def _lift(coords: Iterable[IntVec], complement: Sequence[IntVec]) -> list[IntVec]:
    """Primitive ambient vectors with the given complement coordinates, lex-sorted."""
    d = len(complement[0])
    return sorted({primitive_vector([sum(w[k] * c[j] for k, c in enumerate(complement))
                                     for j in range(d)]) for w in coords})


def _hcone_generators(ineq_rows: Sequence[IntVec], d: int) -> tuple[list[IntVec], list[IntVec]]:
    """V-description of {x in Q^d : r.x >= 0 for every row r}.

    Returns (pointed_rays, lineality_basis). The pointed rays are primitive,
    deduplicated and lex-sorted; together with +/- the lineality basis they
    generate the cone.
    """
    rows = sorted(set(tuple(int(x) for x in r) for r in ineq_rows) - {(0,) * d})
    lineality = integer_kernel(rows, d)
    return _tight_subset_rays(rows, lineality, d), lineality


def _tight_subset_rays(rows: Sequence[IntVec], lineality: Sequence[IntVec], d: int) -> list[IntVec]:
    """Pointed rays of {x : r.x >= 0 for every row r}, whose lineality is given.

    In the ``complete_to_basis(lineality)`` coordinates, of dimension dp, the
    candidates are the kernels of the rank-(dp-1) subsets of the rows: exactly
    the extreme rays of the pointed part.
    """
    dp = d - len(lineality)
    if dp == 0:
        return []
    complement = complete_to_basis(lineality, d)
    # constraints in the complement coordinates (the lineality coordinates pair to zero)
    reduced = sorted(set(tuple(dot(r, c) for c in complement) for r in rows) - {(0,) * dp})
    rays: set[IntVec] = set()
    for subset in combinations(reduced, dp - 1):
        ker = integer_kernel(subset, dp)
        if len(ker) != 1:
            continue
        w = ker[0]
        signs = [dot(r, w) for r in reduced]
        if all(s >= 0 for s in signs):
            rays.add(w)
        elif all(s <= 0 for s in signs):
            rays.add(tuple(-x for x in w))
    return _lift(rays, complement)


def _simplicial_dual_rays(gens: Sequence[IntVec], lineality: Sequence[IntVec],
                          d: int) -> list[IntVec]:
    """Pointed rays of the dual of the cone on linearly independent generators.

    In the ``complete_to_basis(lineality)`` coordinates the generators form an
    invertible matrix; column j of its inverse ``M / q`` pairs to 1 with
    generator j and to 0 with the others, so column j of M (q > 0) spans the
    dual ray that ``_tight_subset_rays`` finds as the kernel of the other
    generators.
    """
    if not gens:
        return []
    complement = complete_to_basis(lineality, d)
    m, _ = integer_inverse([[dot(g, c) for c in complement] for g in gens])
    return _lift((primitive_vector(col) for col in zip(*m)), complement)


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone with cached ray and inequality data."""

    ambient_rank: int
    rays: tuple[IntVec, ...] = ()
    lineality: tuple[IntVec, ...] = field(default=(), compare=True)
    dim: int = field(default=0, compare=False)
    dual_rays: tuple[IntVec, ...] = field(default=(), compare=False, repr=False)
    dual_lineality: tuple[IntVec, ...] = field(default=(), compare=False, repr=False)

    @classmethod
    def from_generators(cls, generators: Iterable[Sequence], ambient_rank: int) -> "Cone":
        gens = []
        for g in generators:
            if len(g) != ambient_rank:
                raise ValueError("generator length does not match ambient rank")
            if not is_zero_vector(g):
                gens.append(primitive_of_rational(g))
        gens = sorted(set(gens))
        lineality = integer_kernel(gens, ambient_rank)
        if len(gens) + len(lineality) == ambient_rank:
            # linearly independent: the generators are the rays
            return cls(ambient_rank, tuple(gens), (), len(gens),
                       tuple(_simplicial_dual_rays(gens, lineality, ambient_rank)),
                       tuple(lineality))
        dual_p = _tight_subset_rays(gens, lineality, ambient_rank)
        ineqs = list(dual_p) + list(lineality) + [tuple(-x for x in v) for v in lineality]
        rays, lin = _hcone_generators(ineqs, ambient_rank)
        return cls(ambient_rank, tuple(rays), tuple(lin),
                   ambient_rank - len(lineality), tuple(dual_p), tuple(lineality))

    @property
    def strictly_convex(self) -> bool:
        return not self.lineality

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def generating_vectors(self) -> tuple[IntVec, ...]:
        """Canonical generator list: rays plus +/- the lineality basis."""
        return self.rays + self.lineality + tuple(tuple(-x for x in v) for v in self.lineality)

    def inequality_rows(self) -> tuple[IntVec, ...]:
        """Rows m with the cone equal to {x : m.x >= 0 for all rows}."""
        return self.dual_rays + self.dual_lineality + tuple(
            tuple(-x for x in v) for v in self.dual_lineality)


def rays(c: Cone) -> tuple[IntVec, ...]:
    """Extreme rays of c as first lattice points, lex-sorted."""
    if not c.strictly_convex:
        raise ValueError("extreme rays are only canonical for strictly convex cones")
    return c.rays


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


def contains_cone(c: Cone, f: Cone) -> bool:
    if f.ambient_rank != c.ambient_rank:
        raise ValueError("rank mismatch")
    return all(contains(c, g) for g in f.generating_vectors())


def is_face(c: Cone, f: Cone) -> bool:
    """Whether f = c intersect m^perp for some m in the dual of c, and f <= c.

    The search runs over sums of subsets of the dual rays; each face of c is
    cut out by exactly one such subset (its tight set in the dual).
    """
    if f.ambient_rank != c.ambient_rank:
        raise ValueError("rank mismatch")
    if not contains_cone(c, f):
        return False
    gens = c.generating_vectors()
    for k in range(len(c.dual_rays) + 1):
        for subset in combinations(c.dual_rays, k):
            m = tuple(sum(col) for col in zip(*subset)) if subset else (0,) * c.ambient_rank
            tight = [g for g in gens if dot(m, g) == 0]
            if Cone.from_generators(tight, c.ambient_rank) == f:
                return True
    return False


def intersect(c1: Cone, c2: Cone) -> Cone:
    """Intersection, computed on the inequality descriptions."""
    if c1.ambient_rank != c2.ambient_rank:
        raise ValueError("rank mismatch")
    d = c1.ambient_rank
    pointed, lin = _hcone_generators(c1.inequality_rows() + c2.inequality_rows(), d)
    return Cone.from_generators(
        list(pointed) + list(lin) + [tuple(-x for x in v) for v in lin], d)


def multiplicity(c: Cone) -> int:
    """Index of the ray lattice Z v_1 + ... + Z v_r in the saturation of its span."""
    if not is_simplicial(c):
        raise ValueError("multiplicity requires a simplicial cone")
    if c.is_zero:
        return 1
    return int(lattice_index(c.rays, c.ambient_rank))


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


def relative_interior_point(c: Cone) -> IntVec:
    """Sum of the primitive ray generators; lies in the relative interior."""
    if c.is_zero:
        raise ValueError("the zero cone has no relative interior point")
    total = [0] * c.ambient_rank
    for r in c.rays:
        total = [a + b for a, b in zip(total, r)]
    return tuple(total)

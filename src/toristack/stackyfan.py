"""Simplicial fans with level structures (stacky fans).

A fan is stored by its primitive rays (in user order, so ray indices are
stable identifiers) and its maximal cones as sorted tuples of ray indices;
cones are simplicial, so its faces are their index subsets (``Fan.cones``,
built when read). The fan axioms (pairwise intersections are common faces)
are checked on construction. A fan dualizes each cone it is asked about
once (``Fan.dual_rows``, by ``cones.dual_rows``, which is also the
simpliciality test): validation fills that table for every listed cone,
and the fan checks, the charts and the fan's ``Cone``s read it with no
rank test of their own. A complete fan is settled from its walls alone
(see ``validate_fan``), so no check builds a ``Cone`` or a face. A stacky
fan adds one positive integer level per ray, whose free-net points
n_rho * v_rho scale the lattice data of every cone containing the ray.
Its stacky multiplicities and tameness are read off the charts, its
cycle ideals off the report.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import cones as conelib
from .cones import Cone
from .linalg import (
    IntVec,
    circuit_vectors,
    dot,
    primitive_vector,
)


# residue characteristics are checked for primality below this bound only
CHARACTERISTIC_LIMIT = 2 ** 64


class FanError(ValueError):
    """Base class for fan validation failures."""


class NonPrimitiveRay(FanError):
    def __init__(self, ray_index, ray):
        self.ray_index = ray_index
        self.ray = tuple(ray)
        fix = (f"is not primitive; use {list(primitive_vector(ray))}" if any(ray)
               else "is the zero vector")
        super().__init__(f"ray {ray_index} = {list(ray)} {fix}")


class DuplicateRay(FanError):
    def __init__(self, ray_index, first):
        self.ray_index = ray_index
        super().__init__(f"ray {ray_index} duplicates ray {first}")


class RayIndexOutOfRange(FanError):
    def __init__(self, cone, unknown):
        self.cone_indices = tuple(cone)
        super().__init__(f"cone {list(cone)} references unknown rays {unknown}")


class NonSimplicial(FanError):
    def __init__(self, cone_indices):
        self.cone_indices = tuple(cone_indices)
        super().__init__(f"cone {self.cone_indices} is not simplicial "
                         "(rays are linearly dependent)")


class IntersectionNotFace(FanError):
    def __init__(self, c1, c2):
        self.cone_pair = (tuple(c1), tuple(c2))
        super().__init__(f"intersection of cones {tuple(c1)} and {tuple(c2)} "
                         "is not a common face")


class InvalidLevel(FanError):
    def __init__(self, ray_index, value, known_ray):
        self.ray_index = ray_index
        self.value = value
        super().__init__(f"level on ray {ray_index} must be >= 1, got {value!r}" if known_ray
                         else f"level given for unknown ray {ray_index}")


class InvalidCharacteristic(FanError):
    def __init__(self, value):
        self.value = value
        if value < 0:
            reason = "must be a nonnegative integer"
        elif value >= CHARACTERISTIC_LIMIT:
            reason = "is too large: the limit is 2^64"
        else:
            reason = "is neither 0 nor a prime"
        super().__init__(f"characteristic {value} {reason}")


class ConeNotInFan(FanError):
    def __init__(self, cone_indices):
        self.cone_indices = tuple(cone_indices)
        super().__init__(f"cone {self.cone_indices} is not in the fan")


class ZeroConeSelected(FanError):
    def __init__(self):
        super().__init__("the zero cone has a trivial monoid; pick a nonzero cone")


class _DualRows(dict):
    """Cone key -> ``cones.dual_rows`` of its rays, computed on first lookup."""

    def __init__(self, rays: Sequence[IntVec], ambient_rank: int):
        super().__init__()
        self.rays, self.ambient_rank = rays, ambient_rank

    def __missing__(self, key: tuple[int, ...]) -> list[IntVec]:
        rows = self[key] = conelib.dual_rows([self.rays[i] for i in key], self.ambient_rank)
        return rows


@dataclass(frozen=True)
class Fan:
    """Finite simplicial fan, given by its maximal cones.

    Its hash, its index from rays to maximal cones and its walls are
    computed once per instance, so a lookup costs the same in a fan of any
    size. Each cone's dual rows are computed once: ``validate_fan`` fills
    those of the listed cones, and a face's are computed on first lookup.
    """

    ambient_rank: int
    rays: tuple[IntVec, ...]
    maximal_cones: tuple[tuple[int, ...], ...]

    @cached_property
    def _hash(self) -> int:
        return hash((self.ambient_rank, self.rays, self.maximal_cones))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def dual_rows(self) -> _DualRows:
        """Per cone key, the ``cones.dual_rows`` of its rays (in key order)."""
        return _DualRows(self.rays, self.ambient_rank)

    @lru_cache(maxsize=None)
    def cone_geometry(self, indices: tuple[int, ...]) -> Cone:
        return Cone.on_rays([self.rays[i] for i in indices], self.dual_rows[indices],
                            self.ambient_rank)

    @cached_property
    def cones(self) -> tuple[tuple[int, ...], ...]:
        """Every face of a maximal cone (2^r per r-cone), by dimension, then indices."""
        return tuple(sorted({f for c in self.maximal_cones for k in range(len(c) + 1)
                             for f in combinations(c, k)}, key=lambda f: (len(f), f)))

    @cached_property
    def cones_by_ray(self) -> dict[int, list[tuple[int, ...]]]:
        """Each ray index, mapped to the maximal cones that contain it, in order."""
        return _cones_by_ray(self.maximal_cones)

    @cached_property
    def _walls(self) -> dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]]:
        """Each facet of a full-dimensional maximal cone, mapped to the
        (cone, position of the ray opposite it) pairs of the cones that have it."""
        walls = defaultdict(list)
        for c in self.maximal_cones:
            if len(c) == self.ambient_rank:
                for j in range(len(c)):
                    walls[c[:j] + c[j + 1:]].append((c, j))
        return walls

    def normalize(self, indices: Iterable[int]) -> tuple[int, ...]:
        """The sorted key of a cone: (), or indices in a maximal cone on the first."""
        members = set(int(i) for i in indices)
        key = tuple(sorted(members))
        if key and not any(members.issubset(c) for c in self.cones_by_ray.get(key[0], ())):
            raise ConeNotInFan(key)
        return key


def _cones_by_ray(cones: Iterable[tuple[int, ...]]) -> dict[int, list[tuple[int, ...]]]:
    """Each ray index, mapped to the given cones that contain it, in order."""
    index = defaultdict(list)
    for c in cones:
        for i in c:
            index[i].append(c)
    return dict(index)


def is_residue_characteristic(p: int) -> bool:
    """Whether p is 0 or a prime below 2^64.

    Miller-Rabin with the twelve prime bases up to 37 has no strong
    pseudoprime below 3.18 * 10^23 (Sorenson-Webster, Math. Comp. 86, 2017),
    so the test is exact in that range.
    """
    if p == 0:
        return True
    if not 2 <= p < CHARACTERISTIC_LIMIT:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p in bases:
        return True
    if any(p % b == 0 for b in bases):
        return False
    s, odd = 0, p - 1
    while odd % 2 == 0:
        s, odd = s + 1, odd // 2
    for b in bases:
        x = pow(b, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _ray_violations(rays: Sequence[IntVec], maximal_cones: Sequence[Sequence[int]],
                    ambient_rank: int) -> list[FanError]:
    """Violations of the ray rules and of the cones' index range, in order."""
    found, first = [], {}
    for i, r in enumerate(rays):
        if len(r) != ambient_rank:
            found.append(FanError(f"ray {r} does not have length {ambient_rank}"))
        elif not any(r) or primitive_vector(r) != r:
            found.append(NonPrimitiveRay(i, r))
    for i, r in enumerate(rays):
        if first.setdefault(r, i) != i:
            found.append(DuplicateRay(i, first[r]))
    for c in maximal_cones:
        unknown = [i for i in c if not 0 <= i < len(rays)]
        if unknown:
            found.append(RayIndexOutOfRange(c, unknown))
    return found


def _level_violations(ray_count: int, levels: Mapping[int, int]) -> list[InvalidLevel]:
    """Every level must sit on an existing ray and be a positive integer."""
    found = []
    for idx, value in sorted((int(k), v) for k, v in levels.items()):
        known = 0 <= idx < ray_count
        if not known or not isinstance(value, int) or isinstance(value, bool) or value < 1:
            found.append(InvalidLevel(idx, value, known))
    return found


def stacky_fan_violations(ambient_rank: int, rays: Sequence[Sequence[int]],
                          maximal_cones: Sequence[Sequence[int]], levels: Mapping[int, int],
                          characteristics: Sequence[int]) -> tuple[list[FanError], StackyFan | None]:
    """Every rule the document breaks, in listing order, and its stacky fan if
    none. ``validate_fan`` checks the geometric axioms, up to the first failure,
    once the rays and cone indices are sound."""
    rays = [tuple(r) for r in rays]
    structural = _ray_violations(rays, maximal_cones, ambient_rank)
    found = (structural + _level_violations(len(rays), levels)
             + [InvalidCharacteristic(p) for p in characteristics
                if not is_residue_characteristic(p)])
    if not structural:
        try:
            fan = validate_fan(rays, maximal_cones, ambient_rank)
        except FanError as e:
            found.append(e)
    return found, (None if found else StackyFan.build(fan, levels))


def validate_fan(rays: Sequence[Sequence[int]], maximal_cones: Sequence[Sequence[int]],
                 ambient_rank: int | None = None) -> Fan:
    """Construct a fan, checking every axiom; raises the first violation.

    Rays must be primitive and pairwise distinct (hence pairwise
    non-proportional once simpliciality holds), cones simplicial, and the
    intersection of any two cones must be the cone on their shared rays tau.

    A complete fan whose walls each separate exactly two cones, and whose
    cones cover one generic point once, is a valid fan with no pair
    compared (``_covers_once``). Otherwise every pair of maximal cones is
    compared in order, and the first pair that fails
    ``_meet_in_shared_face`` is named. Before both, each listed cone's
    ``cones.dual_rows`` is computed in listing order, the simpliciality
    test (the first cone with dependent rays is named); the rows fill the
    fan's ``Fan.dual_rows``, so no later step tests rank again.
    """
    rays = [tuple(int(x) for x in r) for r in rays]
    maximal_cones = [tuple(int(i) for i in c) for c in maximal_cones]
    if ambient_rank is None:
        if not rays:
            raise ValueError("ambient rank is required for a fan with no rays")
        ambient_rank = len(rays[0])
    found = _ray_violations(rays, maximal_cones, ambient_rank)
    if found:
        raise found[0]

    listed = {}
    for c in maximal_cones:
        idx = tuple(sorted(set(c)))
        if len(idx) != len(c):
            raise FanError(f"cone {c} repeats a ray index")
        try:
            listed[idx] = conelib.dual_rows([rays[i] for i in idx], ambient_rank)
        except ValueError:  # dependent rays
            raise NonSimplicial(idx) from None

    normalized = set(listed) or {()}  # no cone listed: the torus fan, only the zero cone
    longest = max(map(len, normalized))  # no cone contains one of this length
    by_ray = _cones_by_ray(normalized)  # a longer cone containing c lies on c's rarest ray
    maximal = tuple(sorted(c for c in normalized if len(c) == longest or c and not any(
        len(o) > len(c) and set(c).issubset(o) for o in min((by_ray[i] for i in c), key=len))))
    fan = Fan(ambient_rank, tuple(rays), maximal)
    fan.dual_rows.update(listed)

    if not _covers_once(fan):
        for c1, c2 in combinations(maximal, 2):
            if not _meet_in_shared_face(fan, c1, c2):
                raise IntersectionNotFace(c1, c2)
    return fan


def _covers_once(fan: Fan) -> bool:
    """Whether the fan is complete with every pair of cones meeting in a face,
    read from its walls: the wall criterion of ``is_complete`` holds, the
    two maximal cones on each wall lie on opposite sides of it, and a point
    on no wall hyperplane is interior to exactly one maximal cone.

    Crossing a wall then leaves one cone and enters another, so every point
    off the walls lies in the same number of cones, here one; such a
    pseudomanifold is a triangulation of the sphere of directions (De
    Loera-Rambau-Santos, *Triangulations*, ch. 4). False says nothing about
    validity. The point (1, t, ..., t^(d-1)) lies on no hyperplane n^perp
    once t exceeds Cauchy's root bound 1 + max |n_k| of every wall normal n.
    Work is linear in the number of maximal cones.
    """
    if not is_complete(fan):
        return False
    rows = fan.dual_rows
    normals = []
    for (c1, j1), (c2, j2) in fan._walls.values():
        normal = rows[c1][j1]  # vanishes on the wall, positive on c1's other ray
        if dot(normal, fan.rays[c2[j2]]) >= 0:
            return False
        normals.append(normal)
    t = 2 + max((abs(x) for n in normals for x in n), default=0)
    point = [t ** k for k in range(fan.ambient_rank)]
    return sum(all(dot(m, point) > 0 for m in rows[c]) for c in fan.maximal_cones) == 1


def _separates(fan: Fan, c1: tuple[int, ...], c2: tuple[int, ...], shared: set[int]) -> bool:
    """Whether the functional m, the sum of c1's dual rows (``Fan.dual_rows``)
    at its rays outside the shared rays, is negative on c2's rays outside them.

    m vanishes on the shared rays and is positive on c1's others, so then
    m >= 0 on c1 and m <= 0 on c2, each cone meets m^perp exactly in the
    cone on the shared rays, and so does their intersection, which lies in
    m^perp. m is the sum of the dual rays of c1's ``Fan.cone_geometry``
    that vanish on the shared rays, which ``Cone.on_rays`` stores from the
    same rows.
    """
    outside = [row for i, row in zip(c1, fan.dual_rows[c1]) if i not in shared]
    m = [sum(col) for col in zip(*outside)]
    return all(dot(m, fan.rays[i]) < 0 for i in c2 if i not in shared)


def _meet_in_shared_face(fan: Fan, c1: tuple[int, ...], c2: tuple[int, ...]) -> bool:
    """Whether two maximal cones of the fan intersect in the cone on their
    shared rays.

    A separating functional from either side (``_separates``) certifies it.
    Otherwise, with A and B the rays of c1 and c2 outside the shared rays
    tau, a point of both cones outside tau is a relation among the rays of
    A, B and tau that is >= 0 on A and <= 0 on B, and nonzero there since
    each cone's rays are independent. Such a relation is a conformal sum of
    circuits, so one exists iff some circuit c, or -c, has those signs (De
    Loera-Rambau-Santos, *Triangulations*, ch. 4). Each cone's rays being
    independent, every circuit meets both A and B.
    """
    shared = set(c1) & set(c2)
    if _separates(fan, c1, c2, shared) or _separates(fan, c2, c1, shared):
        return True
    a = [fan.rays[i] for i in c1 if i not in shared]
    b = [fan.rays[i] for i in c2 if i not in shared]
    for c in circuit_vectors(a + b + [fan.rays[i] for i in sorted(shared)]):
        on_a, on_b = c[:len(a)], c[len(a):len(a) + len(b)]
        if ((min(on_a) >= 0 and max(on_b) <= 0)
                or (max(on_a) <= 0 and min(on_b) >= 0)):
            return False
    return True


@dataclass(frozen=True)
class StackyFan:
    """Fan plus one positive integer level per ray."""

    fan: Fan
    levels: tuple[int, ...]

    @classmethod
    def build(cls, fan: Fan, levels: Mapping[int, int] | None = None) -> "StackyFan":
        levels = levels or {}
        found = _level_violations(len(fan.rays), levels)
        if found:
            raise found[0]
        table = [1] * len(fan.rays)
        for key, value in levels.items():
            table[int(key)] = value
        # stacky-fan axioms: per cone the free-net points generate a free
        # monoid of rank dim(sigma) close to sigma; automatic here since the
        # points are positive multiples of linearly independent rays, which
        # the cone's dual rows certify (a lookup on a validated fan)
        for c in fan.maximal_cones:
            try:
                fan.dual_rows[c]
            except ValueError:
                raise AssertionError(f"maximal cone {c} has linearly dependent rays") from None
        return cls(fan, tuple(table))


def is_complete(fan: Fan) -> bool:
    """Wall criterion for completeness of a fan.

    The support is all of the ambient space iff every maximal cone is
    full-dimensional and every wall (codimension-one cone) bounds exactly
    two of them. Since two cones of a fan that share a wall lie on either
    side of it, a generic path leaving a cone through a wall enters
    another, so the support has no boundary. The walls are read from the
    fan's table of walls to the cones that have them.
    """
    top = fan.maximal_cones
    return (bool(top) and all(len(c) == fan.ambient_rank for c in top)
            and all(len(cofaces) == 2 for cofaces in fan._walls.values()))


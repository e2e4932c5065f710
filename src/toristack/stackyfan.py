"""Simplicial fans with level structures (stacky fans).

A fan is stored by its primitive rays (in user order, so ray indices are
stable identifiers) and its cones as sorted tuples of ray indices. Cones are
simplicial throughout, so the face closure is exactly the set of index
subsets; the geometric fan axioms (pairwise intersections are common faces)
are checked on construction. A stacky fan adds one positive integer level
per ray, whose free-net points n_rho * v_rho scale the lattice data of every
cone containing the ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import cones as conelib
from .cones import Cone
from .linalg import IntVec, circuit_vectors, dot, independent_rows, primitive_vector
from .monoids import monoid_generators


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


@dataclass(frozen=True)
class Fan:
    """Finite simplicial fan, closed under faces."""

    ambient_rank: int
    rays: tuple[IntVec, ...]
    cones: tuple[tuple[int, ...], ...]
    maximal_cones: tuple[tuple[int, ...], ...]

    @lru_cache(maxsize=None)
    def cone_geometry(self, indices: tuple[int, ...]) -> Cone:
        return Cone.from_generators([self.rays[i] for i in indices], self.ambient_rank)

    def normalize(self, indices: Iterable[int]) -> tuple[int, ...]:
        key = tuple(sorted(set(int(i) for i in indices)))
        if key not in set(self.cones):
            raise ConeNotInFan(key)
        return key


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

    The last check is certificate first. Let m be the sum of the dual rays of
    sigma1 that vanish on tau. If m > 0 on the rays of sigma1 outside tau and
    m < 0 on those of sigma2, then m >= 0 on sigma1 and m <= 0 on sigma2, and
    each cone meets the hyperplane m^perp exactly in tau; since the
    intersection lies in m^perp, it equals tau. The same is tried with the
    cones swapped. When neither m certifies, an exact circuit sign test
    decides (see ``_meet_in_shared_face``); no intersection is computed.
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

    normalized = set()
    for c in maximal_cones:
        idx = tuple(sorted(set(c)))
        if len(idx) != len(c):
            raise FanError(f"cone {c} repeats a ray index")
        if len(independent_rows([rays[i] for i in idx])) != len(idx):
            raise NonSimplicial(idx)
        normalized.add(idx)

    if not normalized:
        normalized = {()}  # the torus fan: only the zero cone
    maximal = tuple(sorted(c for c in normalized
                           if not any(c != o and set(c) <= set(o) for o in normalized)))
    closure = {()}
    for c in normalized:
        for k in range(len(c) + 1):
            closure.update(combinations(c, k))
    fan = Fan(ambient_rank, tuple(rays), tuple(sorted(closure, key=lambda c: (len(c), c))),
              maximal)

    for c1, c2 in combinations(maximal, 2):
        if not _meet_in_shared_face(fan, c1, c2):
            raise IntersectionNotFace(c1, c2)
    return fan


def _separates(fan: Fan, c1: tuple[int, ...], c2: tuple[int, ...], shared: tuple[int, ...]) -> bool:
    """Whether the sum m of c1's dual rays that vanish on the shared rays is
    positive on c1's other rays and negative on c2's other rays."""
    tau = [fan.rays[i] for i in shared]
    m = [0] * fan.ambient_rank
    for u in fan.cone_geometry(c1).dual_rays:
        if all(dot(u, v) == 0 for v in tau):
            m = [a + b for a, b in zip(m, u)]
    return (all(dot(m, fan.rays[i]) > 0 for i in c1 if i not in shared)
            and all(dot(m, fan.rays[i]) < 0 for i in c2 if i not in shared))


def _meet_in_shared_face(fan: Fan, c1: tuple[int, ...], c2: tuple[int, ...]) -> bool:
    """Whether two cones of the fan intersect in the cone on their shared rays.

    A separating functional from either side certifies it. Otherwise, with
    A and B the rays of c1 and c2 outside the shared rays tau, a point of
    both cones outside tau is a relation among the rays of A, B and tau that
    is >= 0 on A and <= 0 on B, and nonzero there since each cone's rays are
    independent. Such a relation is a conformal sum of circuits, so one
    exists iff some circuit c, or -c, has those signs (De Loera-Rambau-
    Santos, *Triangulations*, ch. 4). Each cone's rays being independent,
    every circuit meets both A and B.
    """
    shared = tuple(sorted(set(c1) & set(c2)))
    if _separates(fan, c1, c2, shared) or _separates(fan, c2, c1, shared):
        return True
    a = [fan.rays[i] for i in c1 if i not in shared]
    b = [fan.rays[i] for i in c2 if i not in shared]
    for c in circuit_vectors(a + b + [fan.rays[i] for i in shared]):
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
        # points are positive multiples of linearly independent rays
        for c in fan.maximal_cones:
            if len(c) != fan.cone_geometry(c).dim:
                raise AssertionError(f"maximal cone {c} has linearly dependent rays")
        return cls(fan, tuple(table))


def free_net_points(sf: StackyFan) -> dict[int, IntVec]:
    """The point n_rho * v_rho on each ray, keyed by ray index."""
    return {i: tuple(n * x for x in ray)
            for i, (ray, n) in enumerate(zip(sf.fan.rays, sf.levels))}


def is_complete(fan: Fan) -> bool:
    """Wall criterion for completeness of a finite simplicial fan.

    The support is all of the ambient space iff the fan is pure of top
    dimension, every wall (codimension-one cone) bounds exactly two top
    cones, and the top cones are connected through shared walls.
    """
    d = fan.ambient_rank
    top = [c for c in fan.cones if len(c) == d]
    if not top:
        return False
    if any(len(c) != d for c in fan.maximal_cones):
        return False
    walls = [c for c in fan.cones if len(c) == d - 1]
    coface = {w: [t for t in top if set(w) <= set(t)] for w in walls}
    if any(len(cf) != 2 for cf in coface.values()):
        return False
    neighbours = {t: set() for t in top}
    for w, (a, b) in coface.items():
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen = {top[0]}
    frontier = [top[0]]
    while frontier:
        nxt = []
        for t in frontier:
            for o in neighbours[t]:
                if o not in seen:
                    seen.add(o)
                    nxt.append(o)
        frontier = nxt
    return len(seen) == len(top)


def stacky_multiplicity(sf: StackyFan, sigma: Iterable[int]) -> int:
    """mult(sigma) times the product of the levels on the rays of sigma."""
    key = sf.fan.normalize(sigma)
    if not key:
        return 1
    mult = conelib.multiplicity(sf.fan.cone_geometry(key))
    return mult * math.prod(sf.levels[i] for i in key)


def is_tame(sf: StackyFan, residue_characteristics: Sequence[int]) -> bool:
    """Every stacky multiplicity invertible in every listed characteristic.

    Characteristic 0 imposes no condition.
    """
    chars = [int(p) for p in residue_characteristics if int(p) != 0]
    if not chars:
        return True
    for c in sf.fan.cones:
        m = stacky_multiplicity(sf, c)
        if any(math.gcd(m, p) != 1 for p in chars):
            return False
    return True


def face_of_chart(fan: Fan, tau: Iterable[int],
                  sigma_chart: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The cone keys of tau and of the chart cone; tau must be a face of it."""
    tau_key = fan.normalize(tau)
    sigma_key = fan.normalize(sigma_chart)
    if not set(tau_key) <= set(sigma_key):
        raise ValueError(f"cone {tau_key} is not a face of chart cone {sigma_key}")
    return tau_key, sigma_key


def cycle_generators(fan: Fan, generators: Sequence[IntVec], tau: tuple[int, ...]) -> list[IntVec]:
    """The generators of sigma^vee intersect M (chart over sigma) that cut
    out the cycle of the face tau: see ``cycle_ideal_classical``. The sum of
    tau's rays (primitive and distinct in a fan) is the relative interior
    point ``cones.relative_interior_point`` takes, without building the cone."""
    if not tau:
        return []
    relint = [sum(x) for x in zip(*(fan.rays[i] for i in tau))]
    return sorted(h for h in generators if dot(h, relint) > 0)


def cycle_ideal_classical(fan: Fan, tau: Iterable[int], sigma_chart: Iterable[int]) -> list[IntVec]:
    """Generators of the ideal of the torus-invariant cycle of tau in a chart.

    These are the monoid generators of sigma^vee intersect M that pair
    strictly positively with a relative interior point of tau; they generate
    the ideal of lattice points positive somewhere on tau.
    """
    tau_key, sigma_key = face_of_chart(fan, tau, sigma_chart)
    dual = conelib.dual_cone(fan.cone_geometry(sigma_key))
    return cycle_generators(fan, monoid_generators(dual), tau_key)

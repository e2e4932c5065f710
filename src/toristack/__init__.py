"""toristack: exact invariants of toric algebraic stacks.

Validate stacky fans (simplicial fans with positive integer levels on rays),
compute minimal and admissible free resolutions of the associated toric
monoids, present each chart as a finite abelian quotient of affine space,
and read off stabilizers, tameness/Deligne-Mumford and completeness flags,
and torus-invariant cycle data. All arithmetic is exact.
"""

from .linalg import (
    FiniteAbelianGroup,
    hermite_normal_form,
    quotient_invariants,
    saturate,
    smith_normal_form,
)
from .cones import (
    Cone,
    contains,
    dual_cone,
    intersect,
    is_full_dimensional,
    is_simplicial,
    ray_star,
)
from .monoids import (
    AffineMonoid,
    FreeResolution,
    LatticeWalkTooLarge,
    NotCloseError,
    NotSaturatedError,
    admissible_resolution,
    hilbert_basis,
    irreducible_ray_correspondence,
    minimal_free_resolution,
    quotient_group,
    resolution_cokernel,
    restrict_resolution,
    saturation_intersection_check,
)
from .stackyfan import (
    DuplicateRay,
    Fan,
    FanError,
    IntersectionNotFace,
    InvalidLevel,
    NonPrimitiveRay,
    NonSimplicial,
    StackyFan,
    is_complete,
    stacky_fan_violations,
    validate_fan,
)
from .charts import (
    LocalChart,
    chart_resolution,
    is_kummer_etale_chart,
    local_chart,
    split_cone,
    stabilizer,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMonoid",
    "Cone",
    "DuplicateRay",
    "Fan",
    "FanError",
    "FiniteAbelianGroup",
    "FreeResolution",
    "IntersectionNotFace",
    "InvalidLevel",
    "LatticeWalkTooLarge",
    "LocalChart",
    "NonPrimitiveRay",
    "NonSimplicial",
    "NotCloseError",
    "NotSaturatedError",
    "StackyFan",
    "admissible_resolution",
    "chart_resolution",
    "contains",
    "dual_cone",
    "hermite_normal_form",
    "hilbert_basis",
    "intersect",
    "irreducible_ray_correspondence",
    "is_complete",
    "is_full_dimensional",
    "is_kummer_etale_chart",
    "is_simplicial",
    "local_chart",
    "minimal_free_resolution",
    "quotient_group",
    "quotient_invariants",
    "ray_star",
    "resolution_cokernel",
    "restrict_resolution",
    "saturate",
    "saturation_intersection_check",
    "smith_normal_form",
    "split_cone",
    "stabilizer",
    "stacky_fan_violations",
    "validate_fan",
]

"""Covers and partitions of vector spaces by subspaces of fixed codimension.

Exact constructions over GF(q) with a symbolic cardinality classifier for
the infinite regimes, plus an independent brute-force minimality oracle.
"""

from .covers import (
    Cover,
    CoverCardinality,
    ProjectiveIndex,
    SpaceSpec,
    countable_cover_index,
    cover_finite,
    cover_plan,
    f1_cover_number,
    f1_limit_value,
    lift_cover,
    minimal_cover_count,
    nu,
    projective_assign,
)
from .gf import FieldDescriptor, field_new
from .linalg import (
    LinearQuotient,
    Subspace,
    contains,
    intersect,
    lift,
    project,
    quotient,
    rref,
    subspace_from_generators,
    subspace_sum,
)
from .oracle import (
    VerificationReport,
    enumerate_subspaces,
    gaussian_binomial,
    min_cover_size,
    verify_cover,
    verify_partition,
)
from .partitions import Partition, mixed_partition, spread_partition

__version__ = "0.1.0"

__all__ = [
    "Cover",
    "CoverCardinality",
    "FieldDescriptor",
    "LinearQuotient",
    "Partition",
    "ProjectiveIndex",
    "SpaceSpec",
    "Subspace",
    "VerificationReport",
    "contains",
    "countable_cover_index",
    "cover_finite",
    "cover_plan",
    "enumerate_subspaces",
    "f1_cover_number",
    "f1_limit_value",
    "field_new",
    "gaussian_binomial",
    "intersect",
    "lift",
    "lift_cover",
    "min_cover_size",
    "minimal_cover_count",
    "mixed_partition",
    "nu",
    "project",
    "projective_assign",
    "quotient",
    "rref",
    "spread_partition",
    "subspace_from_generators",
    "subspace_sum",
    "verify_cover",
    "verify_partition",
]

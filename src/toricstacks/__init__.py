"""Exact symplectic reduction of C^N by subgroups of an extended torus.

The package takes a finite-index sublattice of Z^N (presenting an extension
of the standard torus by a finite abelian group), an integer matrix B whose
kernel is the subgroup one reduces by, and a rational level lift, and
computes: regularity of the level, the moment polytope with exact H- and
V-representations, inertia (stabilizer) groups per stratum, the generic
gerbe group, dimension and effectiveness of the residual action, a
reduction-in-stages consistency check, and a floating-point verification
pass on sampled points of the level set.
"""

from .errors import (
    DimensionMismatch,
    EmptyInterior,
    IllConditioned,
    InfiniteStabilizer,
    IrregularLevel,
    NestingViolated,
    NotFiniteIndex,
    NotSublattice,
    RankDeficient,
    ToricStackError,
)
from .lattice import (
    FiniteAbelianGroup,
    SmithDecomposition,
    cokernel_structure,
    det,
    hermite_normal_form,
    imat,
    integer_kernel_basis,
    smith_normal_form,
)
from .torus import (
    ClosedSubgroup,
    TorusExtension,
    make_extension,
    subgroup_from_kernel,
)
from .geometry import (
    Analysis,
    MomentPolytope,
    OrthantFace,
    RegularityVerdict,
    ToricStackData,
    analyze,
    face_meets_slice,
    meeting_faces,
    moment_polytope,
    normalized_volume,
    toric_stack_data,
)
from .invariants import (
    InertiaRecord,
    StackSummary,
    StagesReport,
    inertia_table,
    labeled_polytope,
    stabilizer_on_face,
    stack_summary,
    stages_verify,
)
from .numeric import (
    GENERATOR_SPEED,
    NumericReport,
    SamplePoint,
    check_groupoid_transversality,
    check_local_freeness,
    check_moment_equation,
    check_reduced_kernel_rank,
    generator_field,
    omega,
    run_numeric_report,
    sample_level_points,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ToricStackError", "NotFiniteIndex", "NotSublattice", "RankDeficient",
    "DimensionMismatch", "EmptyInterior", "InfiniteStabilizer",
    "IrregularLevel", "NestingViolated", "IllConditioned",
    # lattice
    "imat", "det", "smith_normal_form", "hermite_normal_form",
    "integer_kernel_basis", "cokernel_structure",
    "SmithDecomposition", "FiniteAbelianGroup",
    # torus
    "TorusExtension", "ClosedSubgroup", "make_extension",
    "subgroup_from_kernel",
    # geometry
    "ToricStackData", "toric_stack_data", "OrthantFace", "RegularityVerdict",
    "MomentPolytope", "Analysis", "analyze", "face_meets_slice",
    "meeting_faces", "moment_polytope", "normalized_volume",
    # invariants
    "InertiaRecord", "StackSummary", "StagesReport", "stabilizer_on_face",
    "inertia_table", "stack_summary", "labeled_polytope", "stages_verify",
    # numeric
    "GENERATOR_SPEED", "SamplePoint", "NumericReport", "omega",
    "generator_field", "check_moment_equation", "check_local_freeness",
    "check_groupoid_transversality", "check_reduced_kernel_rank",
    "sample_level_points", "run_numeric_report",
]

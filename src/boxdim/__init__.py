"""Box spaces of finitely generated nilpotent groups.

Congruence quotients, Cayley-graph metrics, bounded-multiplicity covers and
asymptotic-dimension profiles, with exact verification of every certified
bound.
"""

from .boxspace import (
    BoxSpace,
    CoarseUnion,
    IsometryProfile,
    IsometryRadius,
    build_box_space,
    coarse_union_of_balls,
    isometry_profile,
    isometry_radius,
    verify_ball_isometry,
)
from .cayley import (
    CayleyGraph,
    GrowthBound,
    GrowthProfile,
    build_quotient_cayley,
    enumerate_ball,
    fit_growth,
    growth_profile,
    loglog_slope,
)
from .covers import (
    AssemblyReport,
    Cover,
    CoverParams,
    CoverReport,
    CoverSet,
    FamilyAssembly,
    TransferResult,
    assemble_box_families,
    cover_prop41,
    diagonal_transfer,
    doubling_radius,
    families_from_multiplicity_cover,
    family_violations,
    maximal_packing,
    packing_count_max,
    r_multiplicity,
    verify_cover,
)
from .dimension import (
    FiniteMetricSpace,
    ProfileRow,
    ProfileTable,
    RSDimResult,
    asdim_profile,
    box_witness_cover,
    random_metric_space,
    rs_dim,
    rs_dim_exact,
    rs_dim_exhaustive,
    rs_dim_greedy,
)
from .errors import (
    BoxdimError,
    ConfigError,
    GrowthBoundError,
    InsufficientInputError,
    ResourceCapError,
    ShapeMismatchError,
    VerificationError,
)
from .groups import (
    CongruenceQuotient,
    Filtration,
    GroupSpec,
    direct_product,
    free_abelian,
    hirsch_length,
    unitriangular,
)

__version__ = "0.1.0"

# every class and function imported above
__all__ = sorted(name for name, value in globals().items()
                 if getattr(value, "__module__", "").startswith("boxdim."))

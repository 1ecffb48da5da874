"""Exact combinatorics of sphere classes on rational surfaces.

The package decides, with integer and rational arithmetic only, how the
space of symplectic structures on a rational surface is cut into chambers
by walls of negative sphere classes: which classes separate two given
forms, how deeply their sphere-class sets agree, what that certifies about
the homotopy of the symplectomorphism groups, and where ball-packing
capacity rays cross walls.  No floats enter any computation.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConsistencyError,
    DegenerateSegmentError,
    MissingBoundsError,
    ValidationError,
)
from .lattice import (
    BLOWUP,
    MAX_BLOWUPS,
    PRODUCT,
    LatticeClass,
    SurfaceModel,
    SymplecticClass,
    WeylMove,
    WeylWord,
    adjunction_defect,
    apply_move,
    apply_word,
    areas,
    blow_up,
    cod,
    from_areas,
    invert_word,
    is_forward,
    is_reduced,
    is_root,
    is_sphere_candidate,
    lattice_class,
    pairing,
    primitive_signed,
    product,
    reduce,
    reflect,
    render,
    render_areas,
    square,
    symplectic_class,
    validate_forward,
)
from .packing import (
    BallConfig,
    CapacityInterval,
    CapacityProfile,
    CriticalWall,
    FlaggedFlip,
    blowup_class,
    critical_capacities,
)
from .spheres import (
    CANDIDATE_TIER,
    CERTIFIED_TIER,
    EnumerationBounds,
    EnumerationResult,
    SphereClassSet,
    candidate_pool,
    classify,
    enumerate_candidates,
    full_search_depth,
    is_certified,
    is_exceptional_class,
    pair_search_depth,
    set_difference,
    spherical_set,
    symmetric_difference,
    zero_square_candidates,
)
from .stability import (
    DIRECTION_GAINED,
    DIRECTION_LOST,
    MODE_FULL,
    MODE_LEVEL,
    MODE_NONE,
    RELATION_EQUAL,
    RELATION_SUBSET,
    RELATION_SUPERSET,
    RELATION_TWO_SIDED,
    ChainLink,
    PerturbationRecord,
    StabilityCertificate,
    StabilityVerdict,
    WallCrossing,
    certify,
    is_generic,
    max_stable_level,
    perturb,
    segment_walls,
)
from .strata import (
    AdmissibleSet,
    StratificationIndex,
    admissible_set,
    compare_levels,
    enumerate_admissible,
    is_admissible,
)

__version__ = "0.1.0"

# Every name imported above, without the submodules themselves.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

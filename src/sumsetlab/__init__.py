"""Product sets, progression covers and isoperimetric atoms in concrete torsion-free groups."""

from .errors import (
    DomainError,
    ParseError,
    ResourceLimitError,
    SumsetLabError,
    UnsupportedOperationError,
    UsageError,
)
from .groups import (
    FreeBackend,
    GroupBackend,
    GroupElement,
    HeisenbergBackend,
    KleinBackend,
    LatticeBackend,
    backend_from_spec,
)
from .setops import (
    DimensionReport,
    FiniteSubset,
    ProgressionDescriptor,
    boundary_set,
    coset_classes,
    cover_by_two_progressions,
    cyclic_hull_contains,
    deficiency,
    detect_progression,
    dimension,
    max_progression_partition,
    min_progression_cover,
    product_set,
    product_size,
    progression_ratios,
)
from .isoperimetry import (
    CERTIFIED_EXACT,
    HEURISTIC_STABLE,
    UPPER_BOUND_ONLY,
    IsoInstance,
    IsoResult,
    check_intersection_property,
    enumerate_fragments,
    kappa_restricted,
    stability_scan,
)
from .reports import LawReport
from . import explorer, laws

__version__ = "0.1.0"

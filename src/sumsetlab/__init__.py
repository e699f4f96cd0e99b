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
    FiniteSubset,
    ProgressionDescriptor,
    cyclic_hull_contains,
    deficiency,
    detect_progression,
    dimension,
    min_progression_cover,
    product_set,
    product_size,
    progression_ratios,
)
from .isoperimetry import (
    CERTIFIED_EXACT,
    UPPER_BOUND_ONLY,
    IsoInstance,
    IsoResult,
    kappa_restricted,
)
from .reports import LawReport
from . import explorer, laws

__version__ = explorer.ARTIFACT_VERSION

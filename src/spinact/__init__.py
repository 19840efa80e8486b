"""Exact-arithmetic nonsmoothability certificates for involutions and
Klein four-group actions on simply connected spin 4-manifolds."""

from types import ModuleType as _ModuleType

from .lattice import (
    IntegerLattice,
    MalformedLatticeError,
    SignatureProfile,
    direct_sum,
    direct_sum_all,
    empty_lattice,
    is_even,
    make_standard,
    signature_profile,
)
from .isometry import (
    InvariantSublattice,
    LatticeIsometry,
    MalformedOperatorError,
    b_plus_invariant,
    commute,
    invariant_sublattice,
    restricted_profile,
    smith_invariant_factors,
    verify_isometry,
)
from .equivariant_sum import (
    ActionScenario,
    FixedSetData,
    GeneratorAction,
    InvalidScenarioError,
    ScenarioFormatError,
    Summand,
    TotalInvariants,
    ValidScenario,
    Violation,
    induced_cohomology_action,
    parse_scenario,
    require_valid,
    scenario_digest,
    serialize_scenario,
    validate_scenario,
)
from .obstruction import (
    ObstructionReport,
    check,
    k_klein,
    k_odd,
)
from .templates import (
    klein_grid,
    klein_template,
    recognize_klein_template,
    smooth_structure,
    z2_grid,
    z2_template,
)

__all__ = [n for n in dir() if n[0] != "_" and not isinstance(globals()[n], _ModuleType)]

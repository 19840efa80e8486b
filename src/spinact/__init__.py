"""Exact-arithmetic nonsmoothability certificates for involutions and
Klein four-group actions on simply connected spin 4-manifolds."""

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
    Violation,
    fixed_set_data,
    homeo_invariants_equal,
    induced_cohomology_action,
    parse_scenario,
    scenario_digest,
    serialize_scenario,
    total_invariants,
    twisted_b_plus,
    validate_scenario,
)
from .index_parity import (
    IndeterminateParityError,
    IndexData,
    ParityClass,
    PositiveSignatureError,
    classify_parity,
    k_klein,
    k_odd,
    lefschetz_index,
    real_index_from_signature,
)
from .rep_ring import (
    FixedVectorError,
    GaussianValue,
    VirtualRepZ4,
    bk_trace_and_integrality,
    character_value,
    lambda_minus_one_trace,
    line,
    rep_spaces_from_data,
    tomdieck_trace,
)
from .obstruction import (
    ObstructionReport,
    check,
    check_z2,
    check_z2xz2,
    subgroup_smoothability_hint,
)
from .templates import (
    FamilyComparison,
    klein_family_comparison,
    klein_template,
    recognize_klein_template,
    z2_template,
)

__all__ = [name for name in dir() if not name.startswith("_")]

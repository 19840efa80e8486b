"""The names `from spinact import *` binds."""

from types import ModuleType

import spinact

# the public API: the names the package re-exports from its submodules
PUBLIC = {
    "ActionScenario", "FixedSetData", "GeneratorAction", "IntegerLattice",
    "InvalidScenarioError", "InvariantSublattice", "LatticeIsometry",
    "MalformedLatticeError", "MalformedOperatorError", "ObstructionReport",
    "ScenarioFormatError", "SignatureProfile", "Summand",
    "TotalInvariants", "ValidScenario", "Violation", "b_plus_invariant", "check",
    "commute", "direct_sum", "direct_sum_all", "empty_lattice",
    "induced_cohomology_action", "invariant_sublattice", "is_even", "k_klein",
    "k_odd", "klein_grid", "klein_template", "make_standard",
    "parse_scenario", "require_valid",
    "restricted_profile", "scenario_digest", "serialize_scenario",
    "signature_profile", "smith_invariant_factors", "smooth_structure",
    "validate_scenario", "verify_isometry", "z2_grid", "z2_template",
}


def test_all_keeps_the_public_names_and_lists_no_module():
    assert set(spinact.__all__) == PUBLIC
    assert [n for n in spinact.__all__ if isinstance(getattr(spinact, n), ModuleType)] == []
    names: dict = {}
    exec("from spinact import *", names)
    names.pop("__builtins__")
    assert sorted(names) == spinact.__all__

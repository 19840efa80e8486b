"""Scenario templates for the two equivariant connected-sum families.

The involution family glues l sphere-product summands carrying a factor
rotation onto k pairs of negative-E8 pieces exchanged by the involution.
The Klein family hangs two chains of rotated sphere products off a
common core and exchanges four negative-E8 clusters in a free orbit of
the whole group.
"""

from __future__ import annotations

from ._record import frozen, set_field
from .equivariant_sum import (
    GEN1,
    GEN2,
    ActionScenario,
    GeneratorAction,
    ROTATE_FIRST,
    ROTATE_SECOND,
    S2XS2,
    MINUS_E8,
    Summand,
    TotalInvariants,
    ValidScenario,
    Z2,
    Z2XZ2,
    total_invariants,
)
from .lattice import standard_profile


# summands one template point builds: a constant plus a coefficient per
# parameter, parameters in the order the templates take them
TEMPLATE_SUMMANDS = {
    "z2": (0, {"l": 1, "k": 2}),
    "klein": (1, {"l1": 2, "l2": 2, "k": 4}),
}


def template_summands(template: str, params: dict[str, int]) -> int:
    """Summands of `template` at `params`: l + 2k, resp. 1 + 2l1 + 2l2 + 4k."""
    const, coeffs = TEMPLATE_SUMMANDS[template]
    return const + sum(c * params[name] for name, c in coeffs.items())


def z2_template(l: int, k: int) -> ActionScenario:
    """Involution on l(S2xS2) # 2k(-E8): factor rotations plus cluster swap."""
    if l < 0 or k < 0:
        raise ValueError("template parameters must be nonnegative")
    summands = [Summand(f"s{i}", S2XS2) for i in range(l)]
    summands += [Summand(f"w{i}", MINUS_E8) for i in range(2 * k)]
    perm = tuple((f"w{i}", f"w{k + i}") for i in range(k))
    local = {f"s{i}": ROTATE_FIRST for i in range(l)}
    return ActionScenario(Z2, tuple(summands), GeneratorAction(perm, local))


def z2_admits(l: int, k: int) -> bool:
    """Smoothable by construction: l(S2xS2) # 2k(-E8) is #k K3 # (l-3k)(S2xS2)."""
    return l >= 3 * k


def klein_template(l1: int, l2: int, k: int) -> ActionScenario:
    """Klein four-group action on (2l1+2l2+1)(S2xS2) # 4k(-E8).

    gen1 rotates the core and the first chain (2l1 summands, swapped in
    pairs by gen2); gen2 rotates the core and the second chain; the four
    E8 clusters of k summands each form one free orbit of the group.
    """
    if l1 < 0 or l2 < 0 or k < 0:
        raise ValueError("template parameters must be nonnegative")
    summands = [Summand("core", S2XS2)]
    summands += [Summand(f"a{i}", S2XS2) for i in range(2 * l1)]
    summands += [Summand(f"b{i}", S2XS2) for i in range(2 * l2)]
    for cluster in range(4):
        summands += [Summand(f"w{cluster}_{i}", MINUS_E8) for i in range(k)]

    perm1 = tuple((f"b{2 * i}", f"b{2 * i + 1}") for i in range(l2))
    perm1 += tuple((f"w0_{i}", f"w1_{i}") for i in range(k))
    perm1 += tuple((f"w2_{i}", f"w3_{i}") for i in range(k))
    local1 = {"core": ROTATE_FIRST}
    local1.update({f"a{i}": ROTATE_FIRST for i in range(2 * l1)})

    perm2 = tuple((f"a{2 * i}", f"a{2 * i + 1}") for i in range(l1))
    perm2 += tuple((f"w0_{i}", f"w2_{i}") for i in range(k))
    perm2 += tuple((f"w1_{i}", f"w3_{i}") for i in range(k))
    local2 = {"core": ROTATE_SECOND}
    local2.update({f"b{i}": ROTATE_SECOND for i in range(2 * l2)})

    return ActionScenario(
        Z2XZ2,
        tuple(summands),
        GeneratorAction(perm1, local1),
        GeneratorAction(perm2, local2),
    )


def klein_admits(l1: int, l2: int, k: int) -> bool:
    """Every proper subgroup is smoothable by construction: both chains >= 3k."""
    return l1 >= 3 * k and l2 >= 3 * k


@frozen
class KleinShape:
    def __init__(self, l1: int, l2: int, k: int):
        set_field(self, "l1", l1)
        set_field(self, "l2", l2)
        set_field(self, "k", k)


def recognize_klein_template(v: ValidScenario) -> KleinShape | None:
    """Match a validated scenario against the Klein family shape, up to
    summand names.

    Returns the parameters when the scenario is (a relabelling of) the
    template: one jointly rotated core, one chain per generator swapped
    pairwise by the other, and negative-E8 summands in free four-element
    orbits split evenly by both generators. Anything else returns None.
    Validation puts labels exactly on the fixed spheres and every other
    summand in free orbits, so the labels and the moved sets decide it.
    """
    s = v.scenario
    if s.group != Z2XZ2 or not v.forms.keys() <= {S2XS2, MINUS_E8}:
        return None
    local1, local2 = s.gen1.local, s.gen2.local
    if {*local1.values()} - {ROTATE_FIRST} or {*local2.values()} - {ROTATE_SECOND}:
        return None
    core = len(local1.keys() & local2.keys())
    chain1, chain2 = len(local1) - core, len(local2) - core
    e8 = v.forms[MINUS_E8][2] if MINUS_E8 in v.forms else 0
    # ids both generators move lie in orbits of four, so e8 is a multiple of 4
    free = len(v.moved[GEN1] & v.moved[GEN2])
    if core != 1 or chain1 % 2 or chain2 % 2 or free != e8:
        return None
    return KleinShape(chain1 // 2, chain2 // 2, e8 // 4)


@frozen
class FamilyComparison:
    def __init__(
        self, constructed: TotalInvariants, advertised: TotalInvariants, match: bool
    ):
        set_field(self, "constructed", constructed)
        set_field(self, "advertised", advertised)
        set_field(self, "match", match)


def klein_family_comparison(l1: int, l2: int, k: int) -> FamilyComparison:
    """Compare the constructed Klein-family total against the advertised
    homeomorphism type; the two disagree for k >= 1 and the mismatch is
    reported rather than silently repaired."""
    constructed = total_invariants(klein_template(l1, l2, k))
    spheres = 2 * l1 + 2 * l2 + 1 - 6 * k
    if spheres < 0:
        raise ValueError("headline statement needs 2l1+2l2+1 >= 6k")
    h, k3 = standard_profile("hyperbolic"), standard_profile("k3")
    advertised = TotalInvariants(
        spheres * h.rank + 4 * k * k3.rank,
        spheres * h.signature + 4 * k * k3.signature,
        True,  # both forms are even
    )
    return FamilyComparison(constructed, advertised, constructed == advertised)

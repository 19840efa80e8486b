"""Scenario templates for the two equivariant connected-sum families.

The involution family glues l sphere-product summands carrying a factor
rotation onto k pairs of negative-E8 pieces exchanged by the involution.
The Klein family hangs two chains of rotated sphere products off a
common core and exchanges four negative-E8 clusters in a free orbit of
the whole group.
"""

from __future__ import annotations

from collections.abc import Callable

from .equivariant_sum import (
    MOVED,
    ActionScenario,
    GeneratorAction,
    ROTATE_BOTH,
    ROTATE_FIRST,
    ROTATE_SECOND,
    S2XS2,
    MINUS_E8,
    Summand,
    ValidScenario,
    Z2,
    Z2XZ2,
)


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


SMOOTHABLE_BY_CONSTRUCTION = "smoothable_by_construction"
NO_SMOOTH_STRUCTURE = "none"
UNKNOWN = "unknown"


def smooth_structure(b2: int, signature: int, even_unimodular: bool) -> tuple[str, str]:
    """(answer, reason): has a closed simply connected 4-manifold with this
    intersection form a smooth structure?

    An indefinite even unimodular form with |signature| = 16m is aH + 2m(-E8)
    or its negative, a = (b2 - 16m)/2 (Serre, A Course in Arithmetic, ch. V),
    and by Freedman that is the homeomorphism type. With a >= 3m it is
    smoothable_by_construction as #m K3 # (a-3m) S2xS2 (-K3 if the signature
    is positive). There is none when the form is not even and unimodular,
    when 16 does not divide the signature (Rokhlin), when it is definite
    (|signature| = b2) and nonzero (Donaldson), or when b2 < 10/8 |signature|
    + 2 (Furuta). The gap 10/8 |signature| + 2 <= b2 < 11/8 |signature| is
    unknown.
    """
    if not even_unimodular:
        return NO_SMOOTH_STRUCTURE, "not even and unimodular"
    if signature % 16:
        return NO_SMOOTH_STRUCTURE, "Rokhlin: 16 does not divide the signature"
    if b2 == abs(signature) != 0:
        return NO_SMOOTH_STRUCTURE, "Donaldson: definite and nonzero"
    m, a = abs(signature) // 16, (b2 - abs(signature)) // 2
    if a >= 3 * m:
        k3 = "K3" if signature <= 0 else "-K3"
        return SMOOTHABLE_BY_CONSTRUCTION, f"#{m} {k3} # {a - 3 * m} S2xS2"
    if 8 * b2 < 10 * abs(signature) + 16:
        return NO_SMOOTH_STRUCTURE, "Furuta: b2 < 10/8 |signature| + 2"
    return UNKNOWN, "between the 10/8 and 11/8 bounds"


_NEGATIVE = "template parameters must be nonnegative"


def _nonnegative(*params: int) -> None:
    if min(params) < 0:
        raise ValueError(_NEGATIVE)


def _outside(point: tuple[int, ...], corner: tuple[int, ...]) -> ValueError:
    """The error for a point that fails its grid's bounds check."""
    if min(point) < 0:
        return ValueError(_NEGATIVE)
    return ValueError(f"template point {point} lies outside the grid corner {corner}")


def z2_grid(l_max: int, k_max: int) -> Callable[[int, int], ActionScenario]:
    """Point builder of the involution family on the grid l <= l_max, k <= k_max.

    The summand records and their ids are made once, at the corner; the
    returned `point(l, k)` takes prefixes of them. A swapped pair is
    (w_i, w_{k+i}), which depends on k as a whole, so a point zips two
    slices of the corner's ids. Each point gets its own label dict,
    GeneratorAction and ActionScenario; only the immutable Summand
    records and tuples are shared. A point outside the corner, or with a
    negative parameter, raises ValueError.
    """
    _nonnegative(l_max, k_max)
    spheres = tuple(Summand(f"s{i}", S2XS2) for i in range(l_max))
    e8s = tuple(Summand(f"w{i}", MINUS_E8) for i in range(2 * k_max))
    sphere_ids = tuple(s.id for s in spheres)
    e8_ids = tuple(s.id for s in e8s)

    def point(l: int, k: int) -> ActionScenario:
        if not (0 <= l <= l_max and 0 <= k <= k_max):
            raise _outside((l, k), (l_max, k_max))
        gen = GeneratorAction(
            tuple(zip(e8_ids[:k], e8_ids[k : 2 * k])),
            dict.fromkeys(sphere_ids[:l], ROTATE_FIRST),
        )
        return ActionScenario(Z2, spheres[:l] + e8s[: 2 * k], gen)

    return point


def z2_template(l: int, k: int) -> ActionScenario:
    """Involution on l(S2xS2) # 2k(-E8): factor rotations plus cluster swap."""
    return z2_grid(l, k)(l, k)


def z2_admits(l: int, k: int) -> bool:
    """The total lH + 2k(-E8) of the template is smoothable by construction."""
    return smooth_structure(2 * l + 16 * k, -16 * k, True)[0] == SMOOTHABLE_BY_CONSTRUCTION


def klein_grid(
    l1_max: int, l2_max: int, k_max: int
) -> Callable[[int, int, int], ActionScenario]:
    """Point builder of the Klein family on the grid l1 <= l1_max,
    l2 <= l2_max, k <= k_max.

    The summand records, their ids and the swapped pairs are made once,
    at the corner; the returned `point(l1, l2, k)` takes prefixes of
    them. Each point gets its own label dicts, GeneratorActions and
    ActionScenario; only the immutable Summand records and tuples are
    shared. A point outside the corner, or with a negative parameter,
    raises ValueError.
    """
    _nonnegative(l1_max, l2_max, k_max)
    core = (Summand("core", S2XS2),)
    chain1 = tuple(Summand(f"a{i}", S2XS2) for i in range(2 * l1_max))
    chain2 = tuple(Summand(f"b{i}", S2XS2) for i in range(2 * l2_max))
    e8s = [tuple(Summand(f"w{c}_{i}", MINUS_E8) for i in range(k_max)) for c in range(4)]
    # gen1 rotates the core and the first chain, gen2 the core and the second
    rotated1 = tuple(s.id for s in core + chain1)
    rotated2 = tuple(s.id for s in core + chain2)
    # the other generator swaps each chain in consecutive pairs
    chain1_pairs = tuple(zip(rotated1[1::2], rotated1[2::2]))
    chain2_pairs = tuple(zip(rotated2[1::2], rotated2[2::2]))
    w0, w1, w2, w3 = ([s.id for s in cluster] for cluster in e8s)
    w01, w23 = tuple(zip(w0, w1)), tuple(zip(w2, w3))
    w02, w13 = tuple(zip(w0, w2)), tuple(zip(w1, w3))
    e0, e1, e2, e3 = e8s

    def point(l1: int, l2: int, k: int) -> ActionScenario:
        if not (0 <= l1 <= l1_max and 0 <= l2 <= l2_max and 0 <= k <= k_max):
            raise _outside((l1, l2, k), (l1_max, l2_max, k_max))
        return ActionScenario(
            Z2XZ2,
            core + chain1[: 2 * l1] + chain2[: 2 * l2] + e0[:k] + e1[:k] + e2[:k] + e3[:k],
            GeneratorAction(
                chain2_pairs[:l2] + w01[:k] + w23[:k],
                dict.fromkeys(rotated1[: 1 + 2 * l1], ROTATE_FIRST),
            ),
            GeneratorAction(
                chain1_pairs[:l1] + w02[:k] + w13[:k],
                dict.fromkeys(rotated2[: 1 + 2 * l2], ROTATE_SECOND),
            ),
        )

    return point


def klein_template(l1: int, l2: int, k: int) -> ActionScenario:
    """Klein four-group action on (2l1+2l2+1)(S2xS2) # 4k(-E8).

    gen1 rotates the core and the first chain (2l1 summands, swapped in
    pairs by gen2); gen2 rotates the core and the second chain; the four
    E8 clusters of k summands each form one free orbit of the group.
    """
    return klein_grid(l1, l2, k)(l1, l2, k)


def klein_admits(l1: int, l2: int, k: int) -> bool:
    """Every proper subgroup is smoothable by construction: both chains >= 3k."""
    return l1 >= 3 * k and l2 >= 3 * k


# the orbit types of a Klein template point, labels and form: the core, a
# sphere of the first chain, one of the second, and a free -E8
_KLEIN_SHAPE = (
    ((ROTATE_FIRST, ROTATE_SECOND, ROTATE_BOTH), S2XS2),
    ((ROTATE_FIRST, MOVED, MOVED), S2XS2),
    ((MOVED, ROTATE_SECOND, MOVED), S2XS2),
    ((MOVED, MOVED, MOVED), MINUS_E8),
)


def recognize_klein_template(v: ValidScenario) -> tuple[int, int, int] | None:
    """Match a validated scenario against the Klein family shape, up to
    summand names.

    Returns the parameters (l1, l2, k) when the scenario is (a
    relabelling of) the template: one jointly rotated core, one chain per
    generator swapped pairwise by the other, and negative-E8 summands in
    free four-element orbits split evenly by both generators. Anything
    else returns None. The orbit types decide it: one core id, 2 l1 and
    2 l2 ids of the two chain types, 4 k free negative-E8 ids, and no other
    type.
    """
    counts = dict.fromkeys(_KLEIN_SHAPE, 0)
    for t, n in v.orbit_types:
        if t not in counts:
            return None
        counts[t] = n
    core, chain1, chain2, e8 = counts.values()
    if core != 1 or chain1 % 2 or chain2 % 2:
        return None
    return chain1 // 2, chain2 // 2, e8 // 4

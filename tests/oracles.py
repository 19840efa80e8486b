"""Independent test oracles: rational linear algebra and float eigenvalue
sign counts, which share no code with the library's decision paths, and
reference implementations that spell out, one family at a time, what the
library now derives from shared rules (the template sweep, the advertised
family total built as one dense form), or compute it the long way (the
full-matrix elimination, the dense matrix product, the canonical pair
order, the validator that builds every element map before it checks,
the element actions that validation's table is checked against, and
the fixed sets read id by id).
The last section is the representation-ring reference: exact Z4
characters and tom Dieck traces, from which the integer test b < k
behind every certificate is derived and checked."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from spinact.equivariant_sum import (
    COMPOSITION,
    CUSTOM,
    EVEN,
    GEN1,
    GEN2,
    IDENTITY_ELEMENT,
    IDENTITY_LABEL,
    KINDS,
    LABELS,
    MINUS_E8,
    ODD,
    ROTATE_BOTH,
    ROTATE_FIRST,
    ROTATE_SECOND,
    S2XS2,
    Z2,
    Z2XZ2,
    ActionScenario,
    FixedSetData,
    GeneratorAction,
    Summand,
    Violation,
    compose_labels,
)
from spinact._record import frozen, set_field
from spinact.lattice import SignatureProfile


def freeze_per_entry(rows):
    """Tuple-of-tuples copy of a row list, converting entry by entry."""
    return tuple(tuple(int(x) for x in row) for row in rows)


def is_symmetric_per_entry(a) -> bool:
    """Square, and a[i][j] == a[j][i] compared pair by pair by index."""
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n)
    )


def exact_rank(rows) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    col = 0
    while rank < m and col < n:
        p = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if p is None:
            col += 1
            continue
        a[rank], a[p] = a[p], a[rank]
        for i in range(m):
            if i != rank and a[i][col] != 0:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def eigen_sign_profile(gram) -> tuple[int, int, int]:
    """(b_plus, b_minus, b_zero) via float eigenvalues plus exact zero count.

    The zero multiplicity comes from the exact rank; the nonzero
    eigenvalues are the largest |lambda| ones and are sign-classified in
    floating point.
    """
    n = len(gram)
    if n == 0:
        return (0, 0, 0)
    b_zero = n - exact_rank(gram)
    eigs = sorted(np.linalg.eigvalsh(np.array(gram, dtype=float)), key=abs)
    nonzero = eigs[b_zero:]
    b_plus = sum(1 for e in nonzero if e > 0)
    return (b_plus, len(nonzero) - b_plus, b_zero)


def rational_nullspace(rows) -> list[list[Fraction]]:
    """Basis of the rational nullspace of the given matrix (RREF back-substitution)."""
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    a = [[Fraction(x) for x in row] for row in rows]
    piv_cols: list[int] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    basis = []
    for fc in (c for c in range(n) if c not in piv_cols):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def spans_equal(vectors_a, vectors_b) -> bool:
    """True iff the two families span the same rational subspace."""
    a = [list(map(Fraction, v)) for v in vectors_a]
    b = [list(map(Fraction, v)) for v in vectors_b]
    ra, rb = exact_rank(a), exact_rank(b)
    if ra != rb:
        return False
    return exact_rank(a + b) == ra


def random_symmetric(rng: random.Random, n: int, bound: int = 5) -> list[list[int]]:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(-bound, bound)
    return a


def random_unimodular(rng: random.Random, n: int, steps: int = 12):
    """Random unimodular integer matrix with its exact inverse.

    Built from elementary shears and swaps; the inverse applies the
    inverse operations in reverse order.
    """
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    uinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.25:
            u[i], u[j] = u[j], u[i]
            # (P U)^-1 = U^-1 P: swap columns of uinv
            for row in uinv:
                row[i], row[j] = row[j], row[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            # row_i += c * row_j on u;  column_j -= c * column_i on uinv
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for row in uinv:
                row[j] -= c * row[i]
    return u, uinv


def mat_mul_dense(a, b):
    """The matrix product as the full triple loop: every entry of the result
    is a dot product of a row of `a` and a column of `b`, zeros included."""
    if a and b:
        assert len(a[0]) == len(b)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def random_involutive_isometry(rng: random.Random, max_rank: int = 12):
    """A random lattice with a random conjugated block involution on it.

    Blocks are fixed pieces with sign +-1 or swapped identical pairs (with
    optional global sign); the pair (gram, matrix) is conjugated by a
    random unimodular matrix so nothing block-shaped survives in the
    output coordinates.
    """
    blocks = []  # (size, gram_block, op_block)
    total = 0
    while total < max_rank:
        room = max_rank - total
        if room >= 2 and rng.random() < 0.5:
            size = rng.randint(1, room // 2)
            g = random_symmetric(rng, size, 4)
            sign = rng.choice((1, -1))
            gram = [
                [g[i % size][j % size] if (i < size) == (j < size) else 0
                 for j in range(2 * size)]
                for i in range(2 * size)
            ]
            op = [[0] * (2 * size) for _ in range(2 * size)]
            for i in range(size):
                op[i][size + i] = sign
                op[size + i][i] = sign
            blocks.append((2 * size, gram, op))
            total += 2 * size
        else:
            size = rng.randint(1, room)
            gram = random_symmetric(rng, size, 4)
            sign = rng.choice((1, -1))
            op = [[sign if i == j else 0 for j in range(size)] for i in range(size)]
            blocks.append((size, gram, op))
            total += size
        if rng.random() < 0.3:
            break
    n = sum(b[0] for b in blocks)
    gram = [[0] * n for _ in range(n)]
    op = [[0] * n for _ in range(n)]
    off = 0
    for size, gb, ob in blocks:
        for i in range(size):
            for j in range(size):
                gram[off + i][off + j] = gb[i][j]
                op[off + i][off + j] = ob[i][j]
        off += size
    u, uinv = random_unimodular(rng, n)
    ut = [list(col) for col in zip(*u)]
    gram_c = mat_mul_dense(ut, mat_mul_dense(gram, u))
    op_c = mat_mul_dense(uinv, mat_mul_dense(op, u))
    return gram_c, op_c


def z2_template_reference(l: int, k: int) -> ActionScenario:
    """z2_template built summand by summand, with its own records and ids."""
    if l < 0 or k < 0:
        raise ValueError("template parameters must be nonnegative")
    summands = [Summand(f"s{i}", S2XS2) for i in range(l)]
    summands += [Summand(f"w{i}", MINUS_E8) for i in range(2 * k)]
    perm = tuple((f"w{i}", f"w{k + i}") for i in range(k))
    local = {f"s{i}": ROTATE_FIRST for i in range(l)}
    return ActionScenario(Z2, tuple(summands), GeneratorAction(perm, local))


def klein_template_reference(l1: int, l2: int, k: int) -> ActionScenario:
    """klein_template built summand by summand, with its own records and ids."""
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


def sweep_points_nested(template: str, r: dict[str, tuple[int, int]]):
    """One nested loop and filter per family: the admitted grid points of a
    sweep with their scenarios, in sorted order."""
    points = []
    if template == "z2":
        l_lo, l_hi = r["l"]
        k_lo, k_hi = r["k"]
        for l in range(l_lo, l_hi + 1):
            for k in range(k_lo, k_hi + 1):
                if l >= 3 * k:
                    points.append(((l, k), z2_template_reference(l, k)))
    else:
        l1_lo, l1_hi = r["l1"]
        l2_lo, l2_hi = r["l2"]
        k_lo, k_hi = r["k"]
        for l1 in range(l1_lo, l1_hi + 1):
            for l2 in range(l2_lo, l2_hi + 1):
                for k in range(k_lo, k_hi + 1):
                    if l1 >= 3 * k and l2 >= 3 * k:
                        points.append(((l1, l2, k), klein_template_reference(l1, l2, k)))
    return points


def signature_profile_full(lat) -> SignatureProfile:
    """signature_profile by the same symmetric Bareiss steps and pivot
    choices, on the whole matrix instead of its upper triangle."""
    a = [list(row) for row in lat.gram]
    prev, b_plus, b_minus = 1, 0, 0
    while a:
        p = next((i for i, row in enumerate(a) if row[i]), None)
        if p is None:
            pq = next(
                ((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x),
                None,
            )
            if pq is None:
                break  # remaining block is identically zero
            p, q = pq
            a[p] = [x + y for x, y in zip(a[p], a[q])]
            for row in a:
                row[p] += row[q]
        pivot = a[p][p]
        if (pivot > 0) == (prev > 0):
            b_plus += 1
        else:
            b_minus += 1
        prow = a.pop(p)
        del prow[p]
        block = []
        for row in a:
            f = row.pop(p)
            block.append([(pivot * x - f * y) // prev for x, y in zip(row, prow)])
        a, prev = block, pivot
    return SignatureProfile(
        b_plus, b_minus, lat.rank - b_plus - b_minus, 0 if a else prev
    )


def elements_of(group: str) -> tuple[str, ...]:
    if group == Z2:
        return (GEN1,)
    return (GEN1, GEN2, COMPOSITION)


def canonical_permutation(permutation) -> tuple[tuple, ...]:
    """GeneratorAction's pair order, the long way: every pair sorted into
    a tuple, then the pairs sorted."""
    return tuple(sorted(tuple(sorted(p)) for p in permutation))


def _dense_permutation(ids, gen) -> dict[str, str]:
    """Every id, and every id a pair names, to its image under `gen`.
    Only a pair of two distinct ids moves anything."""
    mapping = {i: i for i in ids}
    for pair in gen.permutation:
        if len(pair) == 2 and pair[0] != pair[1]:
            mapping[pair[0]], mapping[pair[1]] = pair[1], pair[0]
    return mapping


def _moved_only(mapping: dict[str, str]) -> dict[str, str]:
    return {i: j for i, j in mapping.items() if i != j}


def element_action(s, element: str) -> tuple[dict[str, str], dict[str, str]]:
    """Effective (images of the moved ids, local labels on fixed summands)
    of an element, as ValidScenario.table holds it: built as a map of
    every id, then cut down to the ids it moves.

    For the composition of a Klein four-group scenario the permutation is
    the product of the generator permutations and labels on jointly fixed
    summands compose through the label group. (Validation rejects a
    summand that both generators swap along the same pair, so the
    composition fixes exactly the jointly fixed summands.)
    """
    ids = [sm.id for sm in s.summands]
    if element == IDENTITY_ELEMENT:
        return {}, {}
    if element == GEN1:
        return _moved_only(_dense_permutation(ids, s.gen1)), dict(s.gen1.local)
    if element not in (GEN2, COMPOSITION):
        raise ValueError(f"unknown group element {element!r}")
    if s.gen2 is None:
        raise ValueError("scenario has no second generator")
    if element == GEN2:
        return _moved_only(_dense_permutation(ids, s.gen2)), dict(s.gen2.local)
    p1, p2 = _dense_permutation(ids, s.gen1), _dense_permutation(ids, s.gen2)
    comp = {i: p1[p2[i]] for i in ids}
    local = {
        i: compose_labels(
            s.gen1.local.get(i, IDENTITY_LABEL),
            s.gen2.local.get(i, IDENTITY_LABEL),
        )
        for i in ids
        if p1[i] == i and p2[i] == i
    }
    return _moved_only(comp), local


def fixed_set_reference(s, element: str) -> FixedSetData:
    """The fixed-set contributions of an element of a valid scenario, read
    id by id from its labels: two 2-spheres per summand that rotates one
    factor, and four points per summand that rotates both, split as the
    merged override says (gen2's wins) or two and two."""
    local = element_action(s, element)[1]
    merged = {**s.gen1.overrides, **(s.gen2.overrides if s.gen2 else {})}
    labels = list(local.values())
    two_dim = 2 * (labels.count(ROTATE_FIRST) + labels.count(ROTATE_SECOND))
    splits = [merged.get(i, (2, 2)) for i, lbl in local.items() if lbl == ROTATE_BOTH]
    points = 4 * len(splits)
    components = tuple((dim, n) for dim, n in ((0, points), (2, two_dim)) if n)
    parity = ODD if two_dim else EVEN if points else None
    if points and not two_dim:
        n_plus, n_minus = map(sum, zip(*splits))
        return FixedSetData(element, components, parity, n_plus, n_minus)
    return FixedSetData(element, components, parity)


def _kind_key(sm):
    return (sm.kind, sm.custom_form.gram if sm.custom_form else None)


def validate_scenario_reference(s):
    """(violations, element table) of a scenario: the validator with one
    loop per check, each element map built before the checks that read it.
    The table, {element: (images of the moved ids, local labels)}, is
    complete when the list is empty. A pair that is not two distinct ids
    is a bad_pair and moves nothing."""
    v = []
    table = {}
    ids = [sm.id for sm in s.summands]
    by_id = {}
    for sm in s.summands:
        if sm.id in by_id:
            v.append(Violation("duplicate_id", f"duplicate summand id {sm.id!r}", sm.id))
        by_id[sm.id] = sm
        if sm.kind not in KINDS:
            v.append(Violation("unknown_kind", f"unknown kind {sm.kind!r}", sm.id))
        if sm.kind == CUSTOM and sm.custom_form is None:
            v.append(
                Violation("missing_gram", f"custom summand {sm.id!r} has no form", sm.id)
            )
    if v:
        return v, table

    if s.group not in (Z2, Z2XZ2):
        return [Violation("unknown_group", f"unknown group {s.group!r}")], table
    if s.group == Z2 and s.gen2 is not None:
        v.append(Violation("unexpected_gen2", "Z2 scenario must not have generator2"))
    if s.group == Z2XZ2 and s.gen2 is None:
        v.append(Violation("missing_gen2", "Z2xZ2 scenario needs generator2"))
    if v:
        return v, table

    gens = [(GEN1, s.gen1)] + ([(GEN2, s.gen2)] if s.gen2 is not None else [])
    for name, gen in gens:
        seen = set()
        for pair in gen.permutation:
            if len(pair) != 2 or pair[0] == pair[1]:
                v.append(
                    Violation(
                        "bad_pair", f"{name}: permutation pair {pair!r} is degenerate"
                    )
                )
                continue
            for x in pair:
                if x not in by_id:
                    v.append(
                        Violation("unknown_id", f"{name}: unknown summand id {x!r}", x)
                    )
                elif x in seen:
                    v.append(
                        Violation(
                            "overlapping_pairs",
                            f"{name}: summand {x!r} appears in two pairs",
                            x,
                        )
                    )
                seen.add(x)
            if (
                pair[0] in by_id
                and pair[1] in by_id
                and _kind_key(by_id[pair[0]]) != _kind_key(by_id[pair[1]])
            ):
                v.append(
                    Violation(
                        "kind_mismatch",
                        f"{name}: swapped summands {pair[0]!r}, {pair[1]!r} differ in kind",
                    )
                )
        pmap, _ = table[name] = element_action(s, name)
        for i, label in gen.local.items():
            if i not in by_id:
                v.append(Violation("unknown_id", f"{name}: label on unknown id {i!r}", i))
            elif label not in LABELS:
                v.append(
                    Violation("unknown_label", f"{name}: unknown label {label!r}", i)
                )
            elif i in pmap:
                v.append(
                    Violation(
                        "label_on_moved",
                        f"{name}: label on summand {i!r} that the permutation moves",
                        i,
                    )
                )
            elif by_id[i].kind != S2XS2:
                v.append(
                    Violation(
                        "label_on_non_sphere",
                        f"{name}: local involution labels attach only to s2xs2 "
                        f"summands, not {by_id[i].kind}",
                        i,
                    )
                )
            elif label == IDENTITY_LABEL:
                v.append(
                    Violation(
                        "trivial_generator_label",
                        f"{name}: identity label on {i!r} would fix a 4-dimensional "
                        f"piece, which the fixed-set model cannot represent",
                        i,
                    )
                )
        for i in ids:
            if i not in pmap and by_id[i].kind == S2XS2 and i not in gen.local:
                v.append(
                    Violation(
                        "missing_label",
                        f"{name}: fixed s2xs2 summand {i!r} has no local label",
                        i,
                    )
                )
    if v:
        return v, table

    if s.group == Z2XZ2:
        p1 = {i: table[GEN1][0].get(i, i) for i in ids}
        p2 = {i: table[GEN2][0].get(i, i) for i in ids}
        if any(p1[p2[i]] != p2[p1[i]] for i in ids):
            v.append(
                Violation("noncommuting", "generator permutations do not commute")
            )
        else:
            for i in ids:
                if p1[i] == i and p2[i] == i and i in s.gen1.local:
                    if s.gen1.local[i] == s.gen2.local.get(i):
                        v.append(
                            Violation(
                                "identical_local_actions",
                                f"generators act identically on jointly fixed "
                                f"summand {i!r}; their composition would fix it "
                                f"pointwise",
                                i,
                            )
                        )
                if p1[i] == p2[i] and p1[i] != i:
                    v.append(
                        Violation(
                            "identical_swap",
                            f"generators swap {i!r} along the same pair; their "
                            f"composition would fix it pointwise",
                            i,
                        )
                    )
    if v:
        return v, table
    if s.group == Z2XZ2:
        table[COMPOSITION] = element_action(s, COMPOSITION)

    rotated_both = set()
    for element, (pmap, local) in table.items():
        rotated_both |= {i for i, label in local.items() if label == ROTATE_BOTH}
        for i in ids:
            if i not in pmap and by_id[i].kind != S2XS2:
                v.append(
                    Violation(
                        "fixed_non_sphere",
                        f"{by_id[i].kind} summand {i!r} is fixed by {element}; "
                        f"these pieces must lie in free orbits",
                        i,
                    )
                )

    merged = dict(s.gen1.overrides)
    if s.gen2 is not None:
        # in gen2's order; gen2's split is the one kept
        v += [
            Violation(
                "conflicting_override",
                f"generators give conflicting sign overrides for {i!r}",
                i,
            )
            for i, split in s.gen2.overrides.items()
            if s.gen1.overrides.get(i, split) != split
        ]
        merged.update(s.gen2.overrides)
    for i, (np_, nm) in merged.items():
        if i not in by_id:
            v.append(Violation("unknown_id", f"override on unknown id {i!r}", i))
            continue
        if np_ < 0 or nm < 0 or np_ + nm != 4:
            v.append(
                Violation(
                    "bad_override",
                    f"override for {i!r} must split the 4 isolated points, got "
                    f"({np_}, {nm})",
                    i,
                )
            )
        if i not in rotated_both:
            v.append(
                Violation(
                    "stale_override",
                    f"override for {i!r} but no element has isolated fixed points "
                    f"there",
                    i,
                )
            )
    return v, table


# ---------------------------------------------------------------------------
# representation ring of Z4
# ---------------------------------------------------------------------------
# Virtual representations are integer multiplicity 4-vectors over the
# irreducible characters t^a (the distinguished generator acts by i^a).
# Character and alternating-exterior-power traces land in Gaussian
# rationals, kept exact so the power-of-two integrality test is a real
# decision and not a tolerance.


class FixedVectorError(ValueError):
    """The subtracted representation has a vector fixed by the chosen element."""


# i^k for k = 0..3 as (re, im)
_I_POW = ((1, 0), (0, 1), (-1, 0), (0, -1))


@frozen
class GaussianValue:
    """Gaussian rational re + im*i with exact Fraction components."""

    def __init__(self, re: Fraction, im: Fraction = Fraction(0)):
        set_field(self, "re", Fraction(re))
        set_field(self, "im", Fraction(im))

    def __add__(self, other: "GaussianValue") -> "GaussianValue":
        return GaussianValue(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianValue") -> "GaussianValue":
        return GaussianValue(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianValue") -> "GaussianValue":
        return GaussianValue(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianValue") -> "GaussianValue":
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian value")
        return GaussianValue(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __neg__(self) -> "GaussianValue":
        return GaussianValue(-self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_rational(self) -> bool:
        return self.im == 0

    @property
    def is_gaussian_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return im
        return f"{self.re}{'+' if self.im > 0 else ''}{im}"


def gaussian(re, im=0) -> GaussianValue:
    return GaussianValue(Fraction(re), Fraction(im))


@frozen
class VirtualRepZ4:
    """Multiplicity vector (m0, m1, m2, m3); negative entries are virtual."""

    def __init__(self, mult: tuple[int, int, int, int]):
        m = tuple(int(x) for x in mult)
        if len(m) != 4:
            raise ValueError("multiplicity vector must have length 4")
        set_field(self, "mult", m)

    def __add__(self, other: "VirtualRepZ4") -> "VirtualRepZ4":
        return VirtualRepZ4(tuple(a + b for a, b in zip(self.mult, other.mult)))

    def __sub__(self, other: "VirtualRepZ4") -> "VirtualRepZ4":
        return VirtualRepZ4(tuple(a - b for a, b in zip(self.mult, other.mult)))

    def __mul__(self, other: "VirtualRepZ4") -> "VirtualRepZ4":
        out = [0, 0, 0, 0]
        for i, a in enumerate(self.mult):
            for j, b in enumerate(other.mult):
                out[(i + j) % 4] += a * b
        return VirtualRepZ4(tuple(out))

    def __rmul__(self, scalar: int) -> "VirtualRepZ4":
        return VirtualRepZ4(tuple(scalar * a for a in self.mult))


ZERO_REP = VirtualRepZ4((0, 0, 0, 0))
TRIVIAL = VirtualRepZ4((1, 0, 0, 0))


def line(a: int) -> VirtualRepZ4:
    """Irreducible character sending the generator to i^a."""
    m = [0, 0, 0, 0]
    m[a % 4] = 1
    return VirtualRepZ4(tuple(m))


def character_value(r: VirtualRepZ4, a: int) -> GaussianValue:
    """Sum over lines of mult * i^(a*c), exactly in Gaussian integers."""
    re = im = 0
    for c, m in enumerate(r.mult):
        pr, pi = _I_POW[(a * c) % 4]
        re += m * pr
        im += m * pi
    return gaussian(re, im)


def lambda_minus_one_trace(r: VirtualRepZ4, a: int) -> GaussianValue:
    """Trace at element a of the alternating sum of exterior powers of r.

    For r = A - B this is the product of (1 - i^(a*c)) over the lines of A
    divided by the same product over the lines of B. A line of B fixed by
    a makes the denominator vanish, which violates the formula's
    hypothesis and raises FixedVectorError.
    """
    num = den = gaussian(1)
    for c, m in enumerate(r.mult):
        pr, pi = _I_POW[(a * c) % 4]
        factor = gaussian(1 - pr, -pi)
        if m < 0 and factor.is_zero:
            raise FixedVectorError(
                f"element {a} fixes a vector of the subtracted representation"
            )
        for _ in range(abs(m)):
            if m > 0:
                num = num * factor
            else:
                den = den * factor
    return num / den


def tomdieck_trace(
    d_fixed: int, w_perp: VirtualRepZ4, v_perp: VirtualRepZ4, a: int
) -> GaussianValue:
    """Degree-on-fixed-part times the lambda_-1 trace of w_perp - v_perp."""
    return gaussian(d_fixed) * lambda_minus_one_trace(w_perp - v_perp, a)


def bk_trace_and_integrality(b: int, k: int) -> tuple[Fraction, bool]:
    """Closed form 2^(b-k) and whether it is an algebraic integer.

    A rational algebraic integer is an integer, so the test is b >= k.
    """
    return Fraction(2) ** (b - k), b >= k


def rep_spaces_from_data(
    m: int, n: int, b: int, k: int
) -> tuple[VirtualRepZ4, VirtualRepZ4]:
    """Complexified domain and target representations of the approximated map.

    Domain:  C2^m + (C1 + C-1)^(n+k);  target:  C2^(m+b) + (C1 + C-1)^n.
    """
    pair = line(1) + line(3)
    v_c = m * line(2) + (n + k) * pair
    w_c = (m + b) * line(2) + n * pair
    return v_c, w_c

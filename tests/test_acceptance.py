"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
expected value is exact (integer or rational equality, no tolerances).
"""

import io
import random
import time
from fractions import Fraction

from spinact import cli
from spinact.equivariant_sum import COMPOSITION, GEN1, GEN2
from spinact.isometry import (
    LatticeIsometry,
    invariant_sublattice,
    smith_invariant_factors,
    verify_isometry,
)
from spinact.lattice import (
    IntegerLattice,
    direct_sum_all,
    is_even,
    make_standard,
    signature_profile,
)
from spinact.obstruction import (
    NONSMOOTHABLE,
    SMOOTHABLE_BY_CONSTRUCTION,
    UNKNOWN,
    check,
)
from spinact.templates import klein_template, smooth_structure, z2_template

from oracles import (
    VirtualRepZ4,
    bk_trace_and_integrality,
    eigen_sign_profile,
    random_involutive_isometry,
    rational_nullspace,
    spans_equal,
    tomdieck_trace,
)


def _report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_z2_reproduction():
    start = time.perf_counter()
    report = check(z2_template(3, 1))
    assert report.b == 0
    assert report.k == Fraction(1)
    assert report.verdict == NONSMOOTHABLE
    assert report.all_hypotheses_pass
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "involution family l=3 k=1: b=0, k=1, nonsmoothable")


def test_criterion_2_klein_reproduction():
    start = time.perf_counter()
    s = klein_template(3, 3, 1)
    report = check(s)
    assert report.b == 0
    assert report.index_twisted == Fraction(0)
    assert report.k == Fraction(1)
    assert report.verdict == NONSMOOTHABLE
    assert report.all_hypotheses_pass
    fs1, fs2, fsc = report.elements
    assert (fs1.element, fs2.element, fsc.element) == (GEN1, GEN2, COMPOSITION)
    assert fs1.parity == "odd" and fs1.components[0][0] == 2
    assert fs2.parity == "odd" and fs2.components[0][0] == 2
    assert fsc.parity == "even"
    assert fsc.components == ((0, 4),)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(2, "Klein family l1=l2=3 k=1: b=0, index=0, k=1, nonsmoothable")


def test_criterion_3_subgroup_hints():
    hints = dict(check(klein_template(3, 3, 1)).subgroup_hints)
    for sub in ("gen1", "gen2", "diagonal"):
        assert hints[sub] == SMOOTHABLE_BY_CONSTRUCTION
    # gen1 restricts to l2 swapped sphere pairs and 2k swapped -E8 pairs
    tight = dict(check(klein_template(3, 2, 1)).subgroup_hints)  # l2 = 3k - 1
    assert tight == {
        "gen1": UNKNOWN,
        "gen2": SMOOTHABLE_BY_CONSTRUCTION,
        "diagonal": SMOOTHABLE_BY_CONSTRUCTION,
    }
    obstructed = dict(check(klein_template(3, 1, 1)).subgroup_hints)  # l2 < 2k
    assert obstructed["gen1"] == NONSMOOTHABLE
    _report(3, "subgroups: smoothable at l>=3k, unknown at l2=3k-1, nonsmoothable at l2<2k")


def test_criterion_4_tomdieck_identity():
    start = time.perf_counter()
    for b in range(9):
        for k in range(9):
            w = VirtualRepZ4((0, 0, b, 0))
            v = VirtualRepZ4((0, k, 0, k))
            product_route = tomdieck_trace(1, w, v, 1)
            closed_form, integral = bk_trace_and_integrality(b, k)
            assert product_route.is_rational
            assert product_route.re == closed_form == Fraction(2) ** (b - k)
            assert integral == (b >= k)
            assert product_route.is_gaussian_integer == (b >= k)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(4, "trace identity 2^(b-k) two ways for 0<=b,k<=8; integral iff b>=k")


def test_criterion_5_lattice_engine_against_float_oracle():
    rng = random.Random(108)
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 8)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-5, 5)
        p = signature_profile(IntegerLattice(tuple(tuple(r) for r in a)))
        assert (p.b_plus, p.b_minus, p.b_zero) == eigen_sign_profile(a)
        checked += 1
    assert checked == 1000
    assert signature_profile(make_standard("minus_e8")).signature == -8
    k3 = signature_profile(make_standard("k3"))
    assert (make_standard("k3").rank, k3.signature, k3.b_plus) == (22, -16, 3)
    _report(5, "signature engine matches eigenvalue oracle on 1000 matrices")


def test_criterion_6_invariant_sublattice_oracle_equivalence():
    rng = random.Random(1081)
    checked = 0
    while checked < 500:
        gram, op_m = random_involutive_isometry(rng, max_rank=12)
        n = len(gram)
        lat = IntegerLattice(tuple(tuple(r) for r in gram))
        op = LatticeIsometry(lat, tuple(tuple(r) for r in op_m))
        assert verify_isometry(op)
        sub = invariant_sublattice([op])
        rows = [
            [op_m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)
        ]
        assert spans_equal(sub.basis, rational_nullspace(rows))
        if sub.rank:
            assert smith_invariant_factors(sub.basis) == [1] * sub.rank
        checked += 1
    _report(6, "integer kernel matches rational nullspace and is saturated (500x)")


def test_criterion_7_homeomorphism_bookkeeping():
    def classify(pieces):
        lat = direct_sum_all(pieces)
        p = signature_profile(lat)
        return smooth_structure(lat.rank, p.signature, is_even(lat) and abs(p.determinant) == 1)

    k3 = make_standard("k3")
    h = make_standard("s2xs2")
    e8 = make_standard("minus_e8")
    for k in range(1, 5):
        expected = (SMOOTHABLE_BY_CONSTRUCTION, f"#{k} K3 # 0 S2xS2")
        assert classify([k3] * k) == expected
        assert classify([h] * (3 * k) + [e8] * (2 * k)) == expected
    _report(7, "#k K3 and 3kH + 2k(-E8) classify alike as #k K3 for k = 1..4")


def test_criterion_8_enumerate_determinism_and_pattern():
    def run(jobs):
        out = io.StringIO()
        status = cli.main(
            [
                "enumerate",
                "--template",
                "z2",
                "--sweep",
                "l=3..9,k=0..3",
                "--jobs",
                str(jobs),
            ],
            out=out,
        )
        assert status == 0
        return out.getvalue()

    serial = run(1)
    parallel = run(8)
    assert serial == parallel
    rows = [line for line in serial.splitlines() if line.startswith("l=")]
    seen = set()
    for row in rows:
        cells = dict(cell.split("=") for cell in row.split())
        l, k = int(cells["l"]), int(cells["k"])
        seen.add((l, k))
        assert (cells["verdict"] == "nonsmoothable") == (k >= 1 and l >= 3 * k)
    expected = {
        (l, k) for l in range(3, 10) for k in range(0, 4) if l >= 3 * k
    }
    assert seen == expected
    _report(8, "sweep byte-identical at jobs 1 and 8; nonsmoothable iff k>=1, l>=3k")

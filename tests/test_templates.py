import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinact import cli
from spinact.equivariant_sum import ROTATE_BOTH, ROTATE_SECOND, Summand, scenario_digest
from spinact.templates import (
    NO_SMOOTH_STRUCTURE,
    SMOOTHABLE_BY_CONSTRUCTION,
    UNKNOWN,
    klein_grid,
    smooth_structure,
    z2_admits,
    z2_grid,
)

from oracles import klein_template_reference, z2_template_reference

FAMILIES = {
    "z2": (z2_grid, z2_template_reference),
    "klein": (klein_grid, klein_template_reference),
}


def _count_summands(monkeypatch) -> list:
    built = []
    init = Summand.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Summand, "__init__", counted)
    return built


@given(
    family=st.sampled_from(sorted(FAMILIES)),
    corner=st.lists(st.integers(0, 4), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_every_grid_point_is_the_reference_scenario(family, corner):
    grid, reference = FAMILIES[family]
    corner = corner[:2] if family == "z2" else corner
    point = grid(*corner)
    for params in itertools.product(*(range(c + 1) for c in corner)):
        built, expected = point(*params), reference(*params)
        assert built == expected
        assert scenario_digest(built) == scenario_digest(expected)


@pytest.mark.parametrize(
    "family,corner,outside",
    [
        ("z2", (3, 1), [(4, 0), (0, 2), (4, 2)]),
        ("klein", (2, 1, 1), [(3, 0, 0), (0, 2, 0), (0, 0, 2)]),
    ],
)
def test_a_point_outside_the_corner_raises(family, corner, outside):
    point = FAMILIES[family][0](*corner)
    for params in outside:
        with pytest.raises(ValueError, match="lies outside the grid corner"):
            point(*params)


@pytest.mark.parametrize(
    "family,corner,negative",
    [
        ("z2", (3, 1), [(-1, 0), (0, -1), (-1, 5)]),
        ("klein", (2, 1, 1), [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (9, 0, -1)]),
    ],
)
def test_a_negative_point_or_corner_raises(family, corner, negative):
    grid = FAMILIES[family][0]
    point = grid(*corner)
    for params in negative:
        with pytest.raises(ValueError, match="^template parameters must be nonnegative$"):
            point(*params)
        with pytest.raises(ValueError, match="^template parameters must be nonnegative$"):
            grid(*params)


def test_points_share_no_label_dicts():
    point = z2_grid(4, 1)
    first = point(3, 1)
    first.gen1.local.clear()
    first.gen1.local["s0"] = ROTATE_BOTH
    assert point(3, 1) == z2_template_reference(3, 1)

    point = klein_grid(2, 2, 1)
    first = point(2, 2, 1)
    first.gen1.local["b0"] = ROTATE_SECOND
    first.gen2.local.pop("core")
    assert point(2, 2, 1) == klein_template_reference(2, 2, 1)


def test_a_sweep_builds_its_corner_summands_once(monkeypatch):
    built = _count_summands(monkeypatch)
    argv = ["enumerate", "--template", "z2", "--sweep", "l=10..19,k=0..1"]
    assert cli.main(argv, out=io.StringIO()) == 0
    # the corner (19, 1) has 19 sphere products and 2 E8 pieces; the 20
    # points hold 310 summands between them
    assert len(built) == 19 + 2 == len(set(built))


@given(
    a=st.integers(0, 80),
    e8s=st.integers(0, 16),
    orientation=st.sampled_from([-1, 1]),
    even_unimodular=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_smooth_structure_follows_the_inequalities(a, e8s, orientation, even_unimodular):
    # the form aH + e8s(-E8), or its negative: an odd e8s is a signature of an
    # odd multiple of 8 (Rokhlin), a = 0 < e8s a nonzero definite form
    b2, signature = 2 * a + 8 * e8s, -orientation * 8 * e8s
    answer, reason = smooth_structure(b2, signature, even_unimodular)
    furuta = signature != 0 and 8 * b2 < 10 * abs(signature) + 16
    if not even_unimodular:
        assert (answer, reason) == (NO_SMOOTH_STRUCTURE, "not even and unimodular")
    elif signature % 16:
        assert answer == NO_SMOOTH_STRUCTURE and reason.startswith("Rokhlin:")
    elif b2 == abs(signature) != 0:
        assert answer == NO_SMOOTH_STRUCTURE and reason.startswith("Donaldson:")
    elif furuta:
        assert answer == NO_SMOOTH_STRUCTURE and reason.startswith("Furuta:")
    elif 8 * b2 < 11 * abs(signature):
        # between the 10/8 bound, which holds, and the 11/8 bound, which fails
        assert (answer, reason) == (UNKNOWN, "between the 10/8 and 11/8 bounds")
    else:
        m = e8s // 2
        assert a >= 3 * m
        k3 = "-K3" if signature > 0 else "K3"
        assert (answer, reason) == (
            SMOOTHABLE_BY_CONSTRUCTION,
            f"#{m} {k3} # {a - 3 * m} S2xS2",
        )


def test_z2_admits_is_the_spheres_against_3k():
    for l, k in itertools.product(range(40), range(12)):
        assert z2_admits(l, k) == (l >= 3 * k)

import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinact import cli
from spinact.equivariant_sum import ROTATE_SECOND, Summand, scenario_digest
from spinact.templates import klein_family_comparison, klein_grid, z2_grid

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
    first.gen1.overrides["s0"] = (1, 0)
    assert point(3, 1) == z2_template_reference(3, 1)

    point = klein_grid(2, 2, 1)
    first = point(2, 2, 1)
    first.gen1.local["b0"] = ROTATE_SECOND
    first.gen2.local.pop("core")
    assert point(2, 2, 1) == klein_template_reference(2, 2, 1)


def test_family_comparison_checks_the_spheres_before_building(monkeypatch):
    built = _count_summands(monkeypatch)
    with pytest.raises(ValueError, match="headline statement needs"):
        klein_family_comparison(0, 0, 1)
    assert built == []
    klein_family_comparison(3, 0, 1)
    assert len(built) == 11


def test_a_sweep_builds_its_corner_summands_once(monkeypatch):
    built = _count_summands(monkeypatch)
    argv = ["enumerate", "--template", "z2", "--sweep", "l=10..19,k=0..1"]
    assert cli.main(argv, out=io.StringIO()) == 0
    # the corner (19, 1) has 19 sphere products and 2 E8 pieces; the 20
    # points hold 310 summands between them
    assert len(built) == 19 + 2 == len(set(built))

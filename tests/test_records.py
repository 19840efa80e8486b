"""Semantics of spinact's immutable record classes.

Every result and input type of the library is a frozen record: built by
position or keyword, with defaults, equal only to an instance of the
exact same class with equal fields, hashed as the tuple of its fields,
shown as `Name(field=value, ...)`, and immutable after `__post_init__`.
"""

import copy
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinact.equivariant_sum import (
    ActionScenario,
    FixedSetData,
    GeneratorAction,
    Summand,
    TotalInvariants,
    Violation,
)
from spinact.index_parity import ParityClass
from spinact.isometry import InvariantSublattice, LatticeIsometry
from spinact.lattice import IntegerLattice, MalformedLatticeError, SignatureProfile
from spinact.obstruction import Hypothesis, ObstructionReport
from spinact.rep_ring import GaussianValue, VirtualRepZ4
from spinact.templates import KleinShape

from oracles import canonical_permutation

SRC = Path(__file__).resolve().parents[1] / "src"
ONE = IntegerLattice(((1,),))

# (record class, field values in declaration order, field names)
RECORDS = [
    (IntegerLattice, (((0, 1), (1, 0)),), ("gram",)),
    (SignatureProfile, (1, 1, 0, -1), ("b_plus", "b_minus", "b_zero", "determinant")),
    (LatticeIsometry, (ONE, ((1,),)), ("lattice", "matrix")),
    (InvariantSublattice, (((1,),), ONE), ("basis", "restricted_gram")),
    (ParityClass, ("odd", True), ("value", "mixed")),
    (GaussianValue, (Fraction(1, 2), Fraction(3)), ("re", "im")),
    (VirtualRepZ4, ((1, 0, -2, 0),), ("mult",)),
    (Violation, ("code", "message", "s1"), ("code", "message", "subject")),
    (Summand, ("c0", "custom", ONE), ("id", "kind", "custom_form")),
    (
        GeneratorAction,
        ((("a", "b"),), {"c": "rotate_both"}, {"c": (2, 2)}),
        ("permutation", "local", "overrides"),
    ),
    (
        ActionScenario,
        ("Z2", (Summand("a", "k3"),), GeneratorAction(), None),
        ("group", "summands", "gen1", "gen2"),
    ),
    (
        FixedSetData,
        ("gen1", ((0, 4),), ParityClass("even"), 2, 2),
        ("element", "components", "parity", "n_plus", "n_minus"),
    ),
    (TotalInvariants, (22, -16, True), ("b2", "signature", "even")),
    (Hypothesis, ("spin", False, "why"), ("name", "passed", "detail")),
    (
        ObstructionReport,
        (
            "theorem",
            (Hypothesis("spin", True),),
            0,
            Fraction(1),
            "nonsmoothable",
            (FixedSetData("gen1", (), None),),
            Fraction(2),
            22,
            -16,
            (("gen1", "unknown"),),
            ("smoothable_by_construction", "#1 K3 # 0 S2xS2"),
        ),
        (
            "theorem",
            "hypotheses",
            "b",
            "k",
            "verdict",
            "elements",
            "index_twisted",
            "b2",
            "signature",
            "subgroup_hints",
            "smooth_structure",
        ),
    ),
    (KleinShape, (3, 3, 1), ("l1", "l2", "k")),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,values,names", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, values, names):
    rec = cls(*values)
    assert rec == cls(**dict(zip(names, values)))
    assert tuple(getattr(rec, name) for name in names) == values
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], not_a_field=values[-1])


@pytest.mark.parametrize("cls,values,names", RECORDS, ids=IDS)
def test_equal_records_hash_as_their_field_tuple(cls, values, names):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a is not b
    assert a != values
    fields = tuple(getattr(a, name) for name in names)
    try:
        expected = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@pytest.mark.parametrize("cls,values,names", RECORDS, ids=IDS)
def test_records_are_immutable(cls, values, names):
    rec = cls(*values)
    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert tuple(getattr(rec, name) for name in names) == values


@pytest.mark.parametrize("cls,values,names", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, values, names):
    rec = cls(*values)
    body = ", ".join(f"{name}={getattr(rec, name)!r}" for name in names)
    assert repr(rec) == f"{cls.__qualname__}({body})"


@pytest.mark.parametrize("cls,values,names", RECORDS, ids=IDS)
def test_records_survive_copy_and_pickle(cls, values, names):
    rec = cls(*values)
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert twin == rec and type(twin) is cls


def test_records_of_different_classes_never_compare_equal():
    assert KleinShape(1, 2, 3) != TotalInvariants(1, 2, 3)
    assert TotalInvariants(1, 2, 3) != KleinShape(1, 2, 3)
    assert FixedSetData("gen1", (), None) != Violation("gen1", ())

    class Shape(KleinShape):
        pass

    assert Shape(1, 2, 3) != KleinShape(1, 2, 3)
    assert KleinShape(1, 2, 3) != Shape(1, 2, 3)
    assert Shape(1, 2, 3) == Shape(1, 2, 3)


def test_hash_of_a_record_holding_a_dict_raises():
    with pytest.raises(TypeError):
        hash(GeneratorAction())
    with pytest.raises(TypeError):
        hash(ActionScenario("Z2", (), GeneratorAction()))


def test_defaults():
    assert Hypothesis("spin", True).detail == ""
    assert ParityClass("even").mixed is False
    assert Violation("code", "message").subject is None
    assert Summand("a", "k3").custom_form is None
    assert FixedSetData("gen1", (), None).n_plus is None
    assert ActionScenario("Z2", (), GeneratorAction()).gen2 is None
    gen = GeneratorAction()
    assert (gen.permutation, gen.local, gen.overrides) == ((), {}, {})
    assert GeneratorAction().local is not GeneratorAction().local
    assert GeneratorAction().overrides is not GeneratorAction().overrides
    with pytest.raises(TypeError):
        Hypothesis("spin")


def test_post_init_checks_and_coercions_run():
    with pytest.raises(MalformedLatticeError):
        IntegerLattice(((0, 1), (2, 0)))
    assert IntegerLattice([[0, 1], [1, 0]]).gram == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        VirtualRepZ4((1, 2, 3))
    assert VirtualRepZ4([1, 2, 3, 4]).mult == (1, 2, 3, 4)
    value = GaussianValue(1)
    assert type(value.re) is Fraction and type(value.im) is Fraction
    assert value == GaussianValue(Fraction(1), 0)
    gen = GeneratorAction(permutation=[("d", "c"), ("b", "a")])
    assert gen.permutation == (("a", "b"), ("c", "d"))


# "a10" sorts before "a9": an ordered pair by index is not always in order
_PAIR_IDS = st.lists(st.sampled_from(["a", "b", "c", "a9", "a10"]), min_size=1, max_size=3)


@given(st.lists(st.one_of(_PAIR_IDS, _PAIR_IDS.map(tuple)), max_size=8), st.booleans())
@example([("a", "b"), ("b", "a"), ["a", "b"], ["b", "a"], ("a9", "a10")], False)
@example([("c", "c"), ("a",), ["b"], ("c", "b", "a"), ["a", "c", "b"]], True)
@example([("a", "b"), ("a", "b"), ("a", "b")], True)
def test_generator_pairs_take_the_canonical_order(pairs, as_tuple):
    # tuple and list pairs, either order, equal ids, one or three ids,
    # repeats; a kept pair must already be the tuple the rule makes
    permutation = tuple(pairs) if as_tuple else pairs
    expected = canonical_permutation(permutation)
    gen = GeneratorAction(permutation)
    assert gen.permutation == expected
    assert all(type(pair) is tuple for pair in gen.permutation)
    assert hash(gen.permutation) == hash(expected)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # modules present before the import come from the interpreter and the
    # host's site; only what `import spinact.cli` adds is spinact's cost
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import spinact.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    added = set(json.loads(proc.stdout))
    assert "spinact.cli" in added
    assert not added & {"dataclasses", "inspect"}

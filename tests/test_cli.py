import ast
import contextlib
import io
import itertools
import json
import os
import re
import runpy
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinact import cli, obstruction
from spinact.equivariant_sum import (
    COMPOSITION,
    GEN1,
    GEN2,
    Z2,
    Z2XZ2,
    ActionScenario,
    GeneratorAction,
    ScenarioFormatError,
    parse_scenario,
    serialize_scenario,
)
from spinact.lattice import make_standard
from spinact.templates import TEMPLATE_SUMMANDS, klein_template, z2_template

from oracles import (
    bk_trace_and_integrality,
    sweep_points_nested,
    validate_scenario_reference,
)

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_main(argv):
    out = io.StringIO()
    status = cli.main(argv, out=out)
    return status, out.getvalue()


def test_bundled_z2_scenario_golden():
    status, output = run_main(
        ["check", "--input", str(SCENARIOS / "z2_l3_k1.json")]
    )
    assert status == 0
    assert "verdict: nonsmoothable" in output
    assert "b_plus on fixed sublattice: 0" in output
    assert "lower bound k: 1" in output
    assert "NOT an algebraic integer" in output


def test_bundled_klein_scenario_golden():
    status, output = run_main(
        ["check", "--input", str(SCENARIOS / "klein_l3_l3_k1.json"), "--format", "structured"]
    )
    assert status == 0
    doc = json.loads(output)
    assert doc["verdict"] == "nonsmoothable"
    assert doc["b"] == 0
    assert doc["k"] == "1"
    assert doc["trace"] == "2^-1"
    assert all(h["passed"] for h in doc["hypotheses"])
    comp = next(f for f in doc["fixed_sets"] if f["element"] == "composition")
    assert comp["components"] == [[0, 4]]
    assert comp["n_plus"] == 2 and comp["n_minus"] == 2
    assert {h["subgroup"]: h["hint"] for h in doc["subgroup_hints"]} == {
        "gen1": "smoothable_by_construction",
        "gen2": "smoothable_by_construction",
        "diagonal": "smoothable_by_construction",
    }
    assert len(doc["scenario_digest"]) == 64


def test_bundled_scenarios_match_templates():
    text = (SCENARIOS / "z2_l3_k1.json").read_text()
    assert parse_scenario(text) == z2_template(3, 1)
    assert serialize_scenario(parse_scenario(text)) == text
    text = (SCENARIOS / "klein_l3_l3_k1.json").read_text()
    assert parse_scenario(text) == klein_template(3, 3, 1)


def test_bundled_scenario_files_match_their_generator():
    script = runpy.run_path(str(REPO / "scripts" / "write_bundled_scenarios.py"))
    bundled = script["BUNDLED"]
    assert sorted(bundled) == sorted(p.name for p in SCENARIOS.glob("*.json"))
    for name, scenario in bundled.items():
        assert serialize_scenario(scenario) == (SCENARIOS / name).read_text()


def test_check_is_deterministic(tmp_path):
    first = run_main(["check", "--input", str(SCENARIOS / "klein_l3_l3_k1.json"),
                      "--format", "structured"])
    second = run_main(["check", "--input", str(SCENARIOS / "klein_l3_l3_k1.json"),
                       "--format", "structured"])
    assert first == second


def test_no_obstruction_verdict_still_exits_zero(tmp_path):
    path = tmp_path / "k0.json"
    path.write_text(serialize_scenario(z2_template(3, 0)))
    status, output = run_main(["check", "--input", str(path)])
    assert status == 0
    assert "verdict: no_obstruction" in output


def test_hypothesis_failure_exits_two(tmp_path):
    from spinact.equivariant_sum import (
        ActionScenario,
        GeneratorAction,
        ROTATE_BOTH,
        Summand,
    )

    s = ActionScenario(
        "Z2", (Summand("s0", "s2xs2"),), GeneratorAction((), {"s0": ROTATE_BOTH})
    )
    path = tmp_path / "even.json"
    path.write_text(serialize_scenario(s))
    status, output = run_main(["check", "--input", str(path)])
    assert status == 2
    assert "[FAIL] generator_odd" in output
    assert "verdict: no_obstruction" in output


def test_non_unimodular_form_exits_two(tmp_path):
    # signature -2: no closed spin 4-manifold has this form, so no certificate
    doc = {
        "schema_version": 1,
        "group": "Z2",
        "summands": [
            {"id": "s", "kind": "s2xs2"},
            {"id": "c0", "kind": "custom", "gram": [[-2]]},
            {"id": "c1", "kind": "custom", "gram": [[-2]]},
        ],
        "generator1": {"permutation": [["c0", "c1"]], "local": {"s": "rotate_first"}},
    }
    path = tmp_path / "det4.json"
    path.write_text(json.dumps(doc))
    status, output = run_main(["check", "--input", str(path)])
    assert status == 2
    assert "[FAIL] intersection_form_unimodular" in output
    assert "verdict: no_obstruction" in output


def test_a_non_integral_bound_prints_no_trace(tmp_path):
    # a jointly rotated core plus four custom [[-1]] summands in one free
    # orbit: signature -4, so k = 4/32; the form is odd, so no certificate
    doc = {
        "schema_version": 1,
        "group": "Z2xZ2",
        "summands": [{"id": "core", "kind": "s2xs2"}]
        + [{"id": f"p{i}", "kind": "custom", "gram": [[-1]]} for i in range(4)],
        "generator1": {"permutation": [["p0", "p1"], ["p2", "p3"]], "local": {"core": "rotate_first"}},
        "generator2": {"permutation": [["p0", "p2"], ["p1", "p3"]], "local": {"core": "rotate_second"}},
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    status, text = run_main(["check", "--input", str(path)])
    assert status == 2
    assert "b2: 6   signature: -4\n" in text and "[FAIL] intersection_form_even" in text
    assert "twisted index: 0\n" in text and "lower bound k: 1/8\n" in text
    assert "trace 2^(b-k)" not in text and text.endswith("verdict: no_obstruction\n")
    status, output = run_main(["check", "--input", str(path), "--format", "structured"])
    doc = json.loads(output)
    assert status == 2 and doc["trace"] is None and doc["k"] == "1/8"


def test_a_positive_signature_prints_no_twisted_index(tmp_path):
    # a jointly rotated core plus four positive-definite E8 summands in one
    # free orbit: signature +32, outside the theorems' standing assumption
    e8 = [[-x for x in row] for row in make_standard("minus_e8").gram]
    doc = {
        "schema_version": 1,
        "group": "Z2xZ2",
        "summands": [{"id": "core", "kind": "s2xs2"}]
        + [{"id": f"p{i}", "kind": "custom", "gram": e8} for i in range(4)],
        "generator1": {"permutation": [["p0", "p1"], ["p2", "p3"]], "local": {"core": "rotate_first"}},
        "generator2": {"permutation": [["p0", "p2"], ["p1", "p3"]], "local": {"core": "rotate_second"}},
    }
    path = tmp_path / "positive.json"
    path.write_text(json.dumps(doc))
    status, text = run_main(["check", "--input", str(path)])
    assert status == 2
    assert "b2: 34   signature: 32\n" in text and "[FAIL] signature_nonpositive" in text
    assert "n_plus=2 n_minus=2\n" in text and "twisted index:" not in text
    assert "lower bound k: -1\n" in text
    assert "trace 2^(b-k) = 2^9 (an algebraic integer)\n" in text
    assert text.endswith("verdict: no_obstruction\n")


def test_the_readme_scenario_example_checks(tmp_path):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.json"
    path.write_text(example)
    status, output = run_main(["check", "--input", str(path)])
    assert status == 0 and output.endswith("verdict: nonsmoothable\n")


def test_validation_violation_exits_two(tmp_path):
    doc = {
        "schema_version": 1,
        "group": "Z2",
        "summands": [{"id": "w", "kind": "minus_e8"}],
        "generator1": {"permutation": [], "local": {}},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    status, output = run_main(["check", "--input", str(path)])
    assert status == 2
    assert "fixed_non_sphere" in output


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"schema_version": 1, "group": "Z9"}', "group"),
        ("[" * 100000 + "]" * 100000, "nested too deeply"),
        (
            '{"schema_version": 1, "group": "Z2", "summands": [],'
            ' "generator1": {}, "generator2": {}}',
            "malformed scenario: generator2: Z2 scenario must not have generator2\n",
        ),
        (
            '{"schema_version": 1, "group": "Z2", "summands": [{"id": "s", "kind": "s2xs2"}],'
            ' "generator1": {"local": {"s": "rotate_first"}, "overrides": {}}}',
            "malformed scenario: generator1: unknown field 'overrides'\n",
        ),
        (
            '{"schema_version": 1, "group": "Z2xZ2", "summands": [{"id": "s", "kind": "s2xs2"}],'
            ' "generator1": {"local": {"s": "rotate_first"}}}',
            "malformed scenario: generator2: missing generator2\n",
        ),
        (
            '{"schema_version": 1, "group": "Z2", "summands": [],'
            ' "generator1": {"permutation": {}}}',
            "error: malformed scenario: generator1: permutation must be a list of id "
            "pairs\n",
        ),
        *(
            (
                f'{{"schema_version": {version}, "group": "Z2", "summands":'
                ' [{"id": "s", "kind": "s2xs2"}], "generator1": {"local": {"s": "rotate_first"}}}',
                f"error: malformed scenario: schema_version: unsupported schema_version {shown}\n",
            )
            for version, shown in (("1.0", "1.0"), ("true", "True"))
        ),
        (
            '{"schema_version": 1, "group": "Z2", "summands": [{"id": "s0", "kind": "s2xs2"}],'
            ' "generator1": {"local": ["s0"]}}',
            "error: malformed scenario: generator1: local must map ids to labels\n",
        ),
    ],
    ids=["unknown-group", "deep-nesting", "z2-with-generator2", "overrides-unknown",
         "klein-without-generator2", "permutation-not-a-list", "schema-version-float",
         "schema-version-bool", "local-not-a-map"],
)
def test_malformed_file_exits_two(tmp_path, capsys, text, fragment):
    path = tmp_path / "broken.json"
    path.write_text(text)
    status, _ = run_main(["check", "--input", str(path)])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed scenario")
    assert fragment in err


@pytest.mark.parametrize(
    "path,key,value,message",
    [
        ((), "note", "x", "document: unknown field 'note'"),
        (("generator1",), "note", "x", "generator1: unknown field 'note'"),
        (
            ("summands", 0),
            "gram",
            [[0, 1], [1, 0]],
            "summands: summand 's0' has unknown field 'gram'",
        ),
        (
            ("generator1",),
            "overrides",
            {"s0": {"n_plus": 2, "n_minus": 2}},
            "generator1: unknown field 'overrides'",
        ),
    ],
    ids=["top-level", "generator", "gram-on-s2xs2", "override"],
)
def test_unknown_fields_exit_two_naming_the_field(tmp_path, capsys, path, key, value, message):
    doc = json.loads((SCENARIOS / "z2_l3_k1.json").read_text(encoding="utf-8"))
    target = doc
    for step in path:
        target = target[step]
    target[key] = value
    file = tmp_path / "extra.json"
    file.write_text(json.dumps(doc))
    status, output = run_main(["check", "--input", str(file)])
    assert (status, output) == (2, "")
    assert capsys.readouterr().err == f"error: malformed scenario: {message}\n"


class _Pairs(list):
    """A JSON object kept as its (key, value) pairs, repeats included."""


def _json_text(x) -> str:
    if isinstance(x, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in x) + "}"
    if isinstance(x, list):
        return "[" + ", ".join(map(_json_text, x)) + "]"
    return json.dumps(x)


@pytest.mark.parametrize(
    "path,key,message",
    [
        ((), "group", "document: repeated key 'group'"),
        (("summands", 0), "kind", "summands: repeated key 'kind' in summand 0"),
        (("generator1",), "permutation", "generator1: repeated key 'permutation'"),
        (("generator1", "local"), "s0", "generator1: repeated key 's0' in local"),
    ],
    ids=["document", "summand", "generator", "local"],
)
def test_a_repeated_key_exits_two_naming_it(tmp_path, capsys, path, key, message):
    doc = json.loads(
        (SCENARIOS / "z2_l3_k1.json").read_text(encoding="utf-8"), object_pairs_hook=_Pairs
    )
    file = tmp_path / "repeated.json"
    file.write_text(_json_text(doc))
    assert run_main(["check", "--input", str(file)])[0] == 0
    target = doc
    for step in path:
        target = dict(target)[step] if isinstance(target, _Pairs) else target[step]
    # the same key with the same value, placed after the first
    target.append((key, dict(target)[key]))
    file.write_text(_json_text(doc))
    capsys.readouterr()
    status, output = run_main(["check", "--input", str(file)])
    assert (status, output) == (2, "")
    assert capsys.readouterr().err == f"error: malformed scenario: {message}\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"x": {"a": 1, "a": 2}}', "document: repeated key 'a' at ['x']"),
        # the inner object closes first, so its repeat is the one reported
        ('{"x": {"y": {"a": 1, "a": 2}, "y": 0}}', "document: repeated key 'a' at ['x']['y']"),
        (
            '{"summands": [{"id": "a", "gram": [[{"q": 1, "q": 2}]]}]}',
            "summands: repeated key 'q' at ['summands'][0]['gram'][0][0]",
        ),
        (
            '{"generator2": {"local": {"s0": "a", "s0": "b"}}, "n": ' + "7" * 5000 + "}",
            "generator2: repeated key 's0' in local",
        ),
        ('{"generator2": {"local": {"s0": "a", "s0": "b"}}, "n": 1e}', "document: repeated key 's0'"),
    ],
    ids=["unknown-field", "inner-first", "inside-a-gram", "long-integer-after", "not-json-after"],
)
def test_a_repeated_key_is_placed_by_the_path_to_its_object(text, message):
    # the repeat comes first in the text, so it is the error reported
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "data,message",
    [
        (
            b"\xef\xbb\xbf" + (SCENARIOS / "z2_l3_k1.json").read_bytes(),
            "malformed scenario: document: not valid JSON"
            " (Unexpected UTF-8 BOM (decode using utf-8-sig))",
        ),
        (
            b'{"group": "Z\xff2"}',
            "'utf-8' codec can't decode byte 0xff in position 12: invalid start byte",
        ),
        (
            b'{"x": "' + b"a" * 20000 + b'\xc3\x28"}',
            "'utf-8' codec can't decode byte 0xc3 in position 20007:"
            " invalid continuation byte",
        ),
    ],
    ids=["bom", "bad-byte", "bad-byte-past-a-read-buffer"],
)
def test_a_bom_or_bad_utf8_exits_two(tmp_path, capsys, data, message):
    path = tmp_path / "bytes.json"
    path.write_bytes(data)
    assert run_main(["check", "--input", str(path)]) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_file_exits_two(capsys):
    status, _ = run_main(["check", "--input", "/nonexistent/file.json"])
    assert status == 2


def test_invariants_subcommand():
    status, output = run_main(
        ["invariants", "--input", str(SCENARIOS / "klein_l3_l3_k1.json")]
    )
    assert status == 0
    assert "b2: 58" in output
    assert "signature: -32" in output
    assert "joint b_plus_invariant: 0" in output


def test_invariants_structured():
    status, output = run_main(
        [
            "invariants",
            "--input",
            str(SCENARIOS / "z2_l3_k1.json"),
            "--format",
            "structured",
        ]
    )
    assert status == 0
    doc = json.loads(output)
    assert doc["b2"] == 22 and doc["signature"] == -16 and doc["even"]
    assert doc["elements"][0]["parity"] == "odd"


def test_enumerate_z2_grid():
    status, output = run_main(
        ["enumerate", "--template", "z2", "--sweep", "l=3..6,k=0..2"]
    )
    assert status == 0
    rows = [line for line in output.splitlines() if line.startswith("l=")]
    # domain is the grid restricted to l >= 3k
    expected_points = [(l, k) for l in range(3, 7) for k in range(0, 3) if l >= 3 * k]
    assert len(rows) == len(expected_points)
    for row in rows:
        cells = dict(cell.split("=") for cell in row.split())
        l, k = int(cells["l"]), int(cells["k"])
        assert (cells["verdict"] == "nonsmoothable") == (k >= 1)
    assert output.splitlines()[-1].startswith("summary: total=")


def test_enumerate_klein_grid_with_hints():
    status, output = run_main(
        [
            "enumerate",
            "--template",
            "klein",
            "--sweep",
            "l1=3..3,l2=3..4,k=1..1",
            "--format",
            "structured",
        ]
    )
    assert status == 0
    doc = json.loads(output)
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert row["verdict"] == "nonsmoothable"
        hints = {h["subgroup"]: h["hint"] for h in row["subgroup_hints"]}
        assert set(hints.values()) == {"smoothable_by_construction"}
    assert doc["summary"] == {"nonsmoothable": 2}


def test_enumerate_grid_without_a_smoothable_total_is_empty():
    # l < 3k at every point: no total of the grid has a smooth structure
    status, output = run_main(
        ["enumerate", "--template", "z2", "--sweep", "l=0..2,k=1..1"]
    )
    assert status == 0
    assert output == "summary: total=0 empty\n"


@pytest.mark.parametrize(
    "template,sweep,name",
    [
        ("z2", "l=-3..-1,k=0..0", "l"),
        ("z2", "l=3..3,k=-1..-1", "k"),
        ("z2", "l=3..-1,k=0..0", "l"),
        ("z2", "l=3..1,k=0..0", "l"),
        ("z2", "l=5..4,k=0..0", "l"),
        ("klein", "l1=3..3,l2=4..2,k=0..0", "l2"),
    ],
)
def test_enumerate_rejects_a_negative_or_reversed_bound(capsys, template, sweep, name):
    status, output = run_main(["enumerate", "--template", template, "--sweep", sweep])
    assert status == 2 and output == ""
    err = capsys.readouterr().err
    assert f"--sweep {name!r}" in err and "internal error" not in err


def test_enumerate_deterministic_across_jobs():
    args = ["enumerate", "--template", "z2", "--sweep", "l=3..9,k=0..3"]
    _, serial = run_main(args + ["--jobs", "1"])
    _, parallel = run_main(args + ["--jobs", "8"])
    assert serial == parallel


def test_enumerate_structured_deterministic_across_jobs():
    args = [
        "enumerate",
        "--template",
        "klein",
        "--sweep",
        "l1=3..4,l2=3..4,k=0..1",
        "--format",
        "structured",
    ]
    _, serial = run_main(args + ["--jobs", "1"])
    _, parallel = run_main(args + ["--jobs", "6"])
    assert serial == parallel
    assert json.loads(serial)["summary"] == {"no_obstruction": 4, "nonsmoothable": 4}


def test_invariants_reports_indeterminate_parity(tmp_path):
    from spinact.equivariant_sum import (
        ActionScenario,
        GeneratorAction,
        Summand,
        serialize_scenario as ser,
    )

    s = ActionScenario(
        "Z2",
        (Summand("a", "minus_e8"), Summand("b", "minus_e8")),
        GeneratorAction((("a", "b"),), {}),
    )
    path = tmp_path / "free.json"
    path.write_text(ser(s))
    status, output = run_main(["invariants", "--input", str(path)])
    assert status == 0
    assert "parity indeterminate" in output


def test_enumerate_rejects_wrong_sweep_keys(capsys):
    status, _ = run_main(
        ["enumerate", "--template", "klein", "--sweep", "l=3..4,k=1..1"]
    )
    assert status == 2
    status, output = run_main(["enumerate", "--template", "z2", "--sweep", "l=3"])
    assert status == 2 and output == ""
    err = capsys.readouterr().err
    assert err.endswith("error: bad sweep component 'l=3'; expected name=a..b\n")


def test_enumerate_rejects_a_repeated_sweep_name(capsys):
    status, output = run_main(
        ["enumerate", "--template", "z2", "--sweep", "l=1..2,l=3..3,k=0..0"]
    )
    assert status == 2 and output == ""
    assert "'l' more than once" in capsys.readouterr().err


def test_enumerate_rejects_a_grid_over_budget_before_building_it(monkeypatch, capsys):
    def unbudgeted(*_args):
        raise AssertionError("templates built before the budget check")

    monkeypatch.setattr(cli, "_sweep_points", unbudgeted)
    status, _ = run_main(
        ["enumerate", "--template", "z2", "--sweep", "l=0..1000000000,k=0..0"]
    )
    assert status == 2
    err = capsys.readouterr().err
    assert "exceed the budget of 1000000" in err and "internal error" not in err


def _forbid_elimination(monkeypatch):
    from spinact.lattice import signature_profile

    def unbudgeted(*_args):
        raise AssertionError("signature_profile ran before the size budget check")

    for name, module in list(sys.modules.items()):
        if name.startswith("spinact") and (
            getattr(module, "signature_profile", None) is signature_profile
        ):
            monkeypatch.setattr(module, "signature_profile", unbudgeted)


def _custom_forms_doc(gram, copies) -> dict:
    """A Z2 scenario of copies of one custom form, swapped in pairs."""
    ids = [f"c{i}" for i in range(copies)]
    return {
        "schema_version": 1,
        "group": "Z2",
        "summands": [{"id": i, "kind": "custom", "gram": gram} for i in ids],
        "generator1": {
            "permutation": [ids[i : i + 2] for i in range(0, copies, 2)],
            "local": {},
        },
    }


def _hyperbolic_sum(rank):
    return [[1 if i ^ 1 == j else 0 for j in range(rank)] for i in range(rank)]


@pytest.mark.parametrize("command", ["check", "invariants"])
def test_scenario_over_the_elimination_budget_exits_two_before_eliminating(
    monkeypatch, capsys, tmp_path, command
):
    assert 126**3 > cli.BAREISS_BUDGET >= 125**3
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_custom_forms_doc(_hyperbolic_sum(126), 2)))
    _forbid_elimination(monkeypatch)
    status, output = run_main([command, "--input", str(path)])
    assert status == 2 and output == ""
    err = capsys.readouterr().err
    assert "2000376 elimination steps" in err and "budget of 2000000" in err


def test_elimination_budget_counts_each_distinct_form_once(tmp_path):
    # four copies of one rank-100 form: 10^6 steps, not 4 * 10^6
    path = tmp_path / "copies.json"
    path.write_text(json.dumps(_custom_forms_doc(_hyperbolic_sum(100), 4)))
    status, output = run_main(["invariants", "--input", str(path)])
    assert status == 0
    assert "b2: 400   signature: 0   even: true" in output


@pytest.mark.parametrize("command", ["check", "invariants"])
def test_elimination_budget_weighs_the_entry_size(monkeypatch, capsys, tmp_path, command):
    # a swapped pair of one rank-20 form with 4000-digit entries: 20^3 steps
    # of 208-word products (10^3999 has 13285 bits), 3.2 MB of text
    entry = "1" + "0" * 3999
    row = "[" + ", ".join([entry] * 20) + "]"
    gram = "[" + ", ".join([row] * 20) + "]"
    path = tmp_path / "long.json"
    path.write_text(
        '{"schema_version": 1, "group": "Z2", "summands": ['
        f'{{"id": "a", "kind": "custom", "gram": {gram}}}, '
        f'{{"id": "b", "kind": "custom", "gram": {gram}}}], '
        '"generator1": {"permutation": [["a", "b"]], "local": {}}}'
    )
    _forbid_elimination(monkeypatch)
    status, output = run_main([command, "--input", str(path)])
    assert status == 2 and output == ""
    err = capsys.readouterr().err
    assert f"{20**3 * 208**2} elimination steps" in err and "budget of 2000000" in err


def test_entries_of_up_to_64_bits_weigh_rank_cubed():
    assert cli._word_weight(()) == 1
    assert cli._word_weight(((0,),)) == 1
    assert cli._word_weight(((-(2**64) + 1, 2**63),)) == 1
    assert cli._word_weight(((2**64,),)) == 4
    assert cli._word_weight(((1, -(2**128)),)) == 9


def test_scenario_over_the_summand_budget_exits_two_before_eliminating(
    monkeypatch, capsys
):
    path = SCENARIOS / "z2_l3_k1.json"
    summands = len(parse_scenario(path.read_text()).summands)
    monkeypatch.setattr(cli, "SUMMAND_BUDGET", summands)
    assert run_main(["check", "--input", str(path)])[0] == 0
    monkeypatch.setattr(cli, "SUMMAND_BUDGET", summands - 1)
    _forbid_elimination(monkeypatch)
    status, output = run_main(["check", "--input", str(path)])
    assert status == 2 and output == ""
    assert f"{summands} summands exceed the budget" in capsys.readouterr().err


_RANGE = st.tuples(st.integers(-3, 5), st.integers(-3, 5))


@given(template=st.sampled_from(("z2", "klein")), spans=st.lists(_RANGE, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_sweep_work_bounds_the_points_and_summands_built(template, spans):
    # every point of the range box, negative parameters counted as 0: at
    # least what _sweep_points builds, which skips points and fails on
    # negative parameters
    ranges = dict(zip(TEMPLATE_SUMMANDS[template][1], spans))
    build = z2_template if template == "z2" else klein_template
    grid = itertools.product(*(range(lo, hi + 1) for lo, hi in ranges.values()))
    built = sum(1 + len(build(*(max(v, 0) for v in point)).summands) for point in grid)
    assert cli._sweep_work(template, ranges) >= built


@given(
    template=st.sampled_from(("z2", "klein")),
    spans=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=3),
)
@example(template="z2", spans=[(2, 6), (0, 2), (0, 0)])
@example(template="klein", spans=[(3, 4), (3, 3), (0, 1)])
@settings(max_examples=60, deadline=None)
def test_sweep_points_match_the_nested_loops(template, spans):
    ranges = dict(zip(TEMPLATE_SUMMANDS[template][1], spans))
    assert list(cli._sweep_points(template, ranges)) == sweep_points_nested(
        template, ranges
    )


def test_enumerate_keeps_one_template_alive_at_a_time(monkeypatch):
    check = cli.ob.check
    refs, alive = [], []

    def checked(s):
        alive.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(s))
        return check(s)

    monkeypatch.setattr(cli.ob, "check", checked)
    status, _ = run_main(["enumerate", "--template", "z2", "--sweep", "l=0..30,k=0..2"])
    assert status == 0
    assert alive == [0] * len(sweep_points_nested("z2", {"l": (0, 30), "k": (0, 2)}))


def test_the_removed_repring_command_is_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        run_main(["repring", "--rep", "0,1,0,1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: spinact ")
    assert "error: argument command: invalid choice: 'repring'" in err
    assert "Traceback" not in err


def test_an_internal_error_exits_one(monkeypatch, capsys):
    def broken(s):
        raise RuntimeError("checker broke")

    monkeypatch.setattr(obstruction, "check", broken)
    assert cli.main(["check", "--input", str(SCENARIOS / "z2_l3_k1.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: checker broke\n"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spinact.cli", "check", "--input",
         str(SCENARIOS / "z2_l3_k1.json")],
        capture_output=True,
        text=True,
        cwd=REPO / "src",
    )
    assert proc.returncode == 0
    assert "verdict: nonsmoothable" in proc.stdout


GOLDEN_CASES = runpy.run_path(str(REPO / "scripts" / "write_golden.py"))["GOLDEN"]


def test_golden_files_match_their_generator():
    assert sorted(GOLDEN_CASES) == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("golden,argv", list(GOLDEN_CASES.items()))
def test_stdout_matches_golden_file(golden, argv):
    status, output = run_main(argv)
    assert status == 0
    assert output == (GOLDEN / golden).read_text(encoding="utf-8")


def test_stdout_is_the_same_under_every_hash_seed(tmp_path):
    # four fixed spheres that each generator labels in part, beside labels
    # on unknown ids: the violations follow the document's order
    ids = ["s0", "s1", "s2", "s3"]
    doc = {
        "schema_version": 1,
        "group": "Z2xZ2",
        "summands": [{"id": i, "kind": "s2xs2"} for i in ids],
        "generator1": {"local": dict.fromkeys(["g3", "g1", "s2"], "rotate_first")},
        "generator2": {"local": dict.fromkeys(["g2", "s0"], "rotate_second")},
    }
    path = tmp_path / "violations.json"
    path.write_text(json.dumps(doc))
    # a valid Klein scenario whose orbit types are a set in hash order: a
    # pair (a0, a1) that carries two labels, and a free orbit of four
    # custom summands
    custom = [f"c{j}" for j in range(4)]
    hyperbolic = [[0, 1], [1, 0]]
    klein = {
        "schema_version": 1,
        "group": "Z2xZ2",
        "summands": [{"id": i, "kind": "s2xs2"} for i in ("core", "a0", "a1")]
        + [{"id": i, "kind": "custom", "gram": hyperbolic} for i in custom],
        "generator1": {
            "permutation": [["c0", "c1"], ["c2", "c3"]],
            "local": {"core": "rotate_first", "a0": "rotate_first", "a1": "rotate_second"},
        },
        "generator2": {
            "permutation": [["a0", "a1"], ["c0", "c2"], ["c1", "c3"]],
            "local": {"core": "rotate_second"},
        },
    }
    klein_path = tmp_path / "klein.json"
    klein_path.write_text(json.dumps(klein))
    argvs = [
        *GOLDEN_CASES.values(),
        *(
            [command, "--input", str(klein_path), "--format", fmt]
            for command in ("check", "invariants")
            for fmt in ("text", "structured")
        ),
        ["check", "--input", str(path)],
    ]
    first, *rest = (
        _main_in_child(argvs, dict(os.environ, PYTHONHASHSEED=seed)) for seed in "012"
    )
    assert rest == [first, first]
    assert [status for status, _ in first[-5:-1]] == [0] * 4
    status, output = first[-1]
    found = re.findall(r"violation \[(\w+)\] (gen\d): .*'(\w+)'", output)
    assert status == 2 and found == [
        ("unknown_id", "gen1", "g3"),
        ("unknown_id", "gen1", "g1"),
        *(("missing_label", "gen1", i) for i in ("s0", "s1", "s3")),
        ("unknown_id", "gen2", "g2"),
        *(("missing_label", "gen2", i) for i in ("s1", "s2", "s3")),
    ]


def _main_in_child(argvs, env) -> list[tuple[int, str]]:
    """The status and stdout of `cli.main` on each of `argvs`, all run in
    one child interpreter with environment `env`, which writes no stderr."""
    code = (
        "import io, sys\n"
        f"sys.path.insert(0, {str(REPO / 'src')!r})\n"
        "from spinact import cli\n"
        f"for argv in {argvs!r}:\n"
        "    out = io.StringIO()\n"
        "    print(repr((cli.main(argv, out=out), out.getvalue())))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stderr == ""
    return list(map(ast.literal_eval, proc.stdout.splitlines()))


def _custom_doc(gram=None, summand_id="c0", label="rotate_both", pair=None):
    """A Z2 scenario with one swapped pair of custom summands; each
    argument replaces one field with a malformed value."""
    gram = [[0, 1], [1, 0]] if gram is None else gram
    local = {"s": label}
    generator = {"permutation": [pair or [summand_id, "c1"]], "local": local}
    return {
        "schema_version": 1,
        "group": "Z2",
        "summands": [
            {"id": summand_id, "kind": "custom", "gram": gram},
            {"id": "c1", "kind": "custom", "gram": gram},
            {"id": "s", "kind": "s2xs2"},
        ],
        "generator1": generator,
    }


@pytest.mark.parametrize(
    "doc",
    [
        _custom_doc(gram=[[None]]),
        _custom_doc(gram=[1]),
        _custom_doc(gram=[[-2.9]]),
        _custom_doc(gram=[[True, 1], [1, 0]]),
        _custom_doc(summand_id=0),
        _custom_doc(label=1),
        _custom_doc(pair=["c0", 1]),
        _custom_doc(gram=[[0, 1], [1]]),
        _custom_doc(gram=[[0, 1], [2, 0]]),
    ],
    ids=["null-entry", "row-not-list", "float-entry", "bool-entry",
         "int-id", "int-label", "int-pair-member", "non-square", "asymmetric"],
)
def test_malformed_values_exit_two_without_traceback(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    status, output = run_main(["check", "--input", str(path)])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: malformed scenario")
    assert "Traceback" not in err and "internal error" not in err


def test_well_formed_custom_doc_checks():
    # the unmodified document of the test above is accepted
    from spinact.equivariant_sum import parse_scenario, validate_scenario

    assert validate_scenario(parse_scenario(json.dumps(_custom_doc()))) == []


@pytest.mark.parametrize(
    "doc",
    [json.dumps(_custom_doc(gram=[["BIG", 1], [1, 0]]))],
    ids=["gram-entry"],
)
def test_over_long_integers_are_a_malformed_scenario(tmp_path, capsys, doc):
    path = tmp_path / "long.json"
    path.write_text(doc.replace('"BIG"', "7" * 5000))
    status, output = run_main(["check", "--input", str(path)])
    err = capsys.readouterr().err
    assert status == 2 and output == ""
    assert err.startswith("error: malformed scenario: document: an integer has more than")
    assert "set_int_max_str_digits" not in err
    assert "Traceback" not in err and "internal error" not in err


_LONG = "1" * 5000


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["enumerate", "--template", "z2", "--sweep", f"l=0..{_LONG},k=0..0"], "--sweep 'l'"),
        (["enumerate", "--template", "z2", "--sweep", f"l=0..0,k={_LONG}..{_LONG}"], "--sweep 'k'"),
        (["enumerate", "--template", "z2", "--sweep", f"l=0..{'9' * 4000},k=0..{'9' * 4000}"],
         "--sweep grid too large"),
    ],
    ids=["sweep-bound", "sweep-both-bounds", "sweep-grid-of-4000-digit-bounds"],
)
def test_over_long_cli_numbers_exit_two_naming_the_flag(capsys, argv, flag):
    status, output = run_main(argv)
    err = capsys.readouterr().err
    assert status == 2 and output == ""
    assert err.startswith(f"error: {flag}")
    assert "set_int_max_str_digits" not in err
    assert "Traceback" not in err and "internal error" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["enumerate", "--template", "z2", "--sweep", "l=x..3,k=0..0"],
         "--sweep 'l' value 'x' is not an integer"),
        (["enumerate", "--template", "z2", "--sweep", "l=\u0663..3,k=0..0"],
         "--sweep 'l' value '\u0663' is not an integer"),
        (["enumerate", "--template", "z2", "--sweep", "l=3..3,k=0_0..0"],
         "--sweep 'k' value '0_0' is not an integer"),
        (["enumerate", "--template", "z2", "--sweep", "l= 3..3,k=0..0"],
         "--sweep 'l' value ' 3' is not an integer"),
        *(
            (["enumerate", "--template", "z2", "--sweep", "l=3..3,k=0..0", "--jobs", jobs],
             f"--jobs value {jobs!r} is not a positive integer")
            for jobs in (" 0_0", "\u0663", "0", "00", "-1", "+1", "two")
        ),
    ],
    ids=["sweep", "sweep-arabic-indic-digit", "sweep-underscore", "sweep-space",
         "jobs-space-underscore", "jobs-arabic-indic-digit",
         "jobs-zero", "jobs-zeros", "jobs-negative", "jobs-plus-sign", "jobs-word"],
)
def test_cli_numbers_that_are_not_integers_exit_two_naming_the_flag(capsys, argv, message):
    status, output = run_main(argv)
    assert status == 2 and output == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_malformed_bound_exits_two_on_an_interpreter_without_a_digit_limit(
    monkeypatch, capsys
):
    # as on Python 3.10.0-3.10.6, which lack the limit and its getter
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    status, output = run_main(["enumerate", "--template", "z2", "--sweep", "l=x..3,k=0..0"])
    assert status == 2 and output == ""
    assert capsys.readouterr().err == "error: --sweep 'l' value 'x' is not an integer\n"


def _z2_pairs_doc(kind: str, pairs: int) -> dict:
    """One rotated sphere product plus `pairs` swapped pairs of `kind`."""
    ids = [f"w{i}" for i in range(2 * pairs)]
    return {
        "schema_version": 1,
        "group": "Z2",
        "summands": [{"id": "s", "kind": "s2xs2"}] + [{"id": i, "kind": kind} for i in ids],
        "generator1": {
            "permutation": [[ids[i], ids[pairs + i]] for i in range(pairs)],
            "local": {"s": "rotate_first"},
        },
    }


@pytest.mark.parametrize(
    "kind,pairs,verdict,trace",
    [("minus_e8", 14300, "nonsmoothable", "2^-14300"), ("s2xs2", 15000, "no_obstruction", "2^15000")],
    ids=["b0-k14300", "b15000-k0"],
)
def test_a_certificate_of_14300_or_15000_pairs_prints_its_trace_as_a_power(
    tmp_path, capsys, kind, pairs, verdict, trace
):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_z2_pairs_doc(kind, pairs)))
    status, text = run_main(["check", "--input", str(path)])
    assert status == 0
    assert f"trace 2^(b-k) = {trace} (" in text and text.endswith(f"verdict: {verdict}\n")
    status, output = run_main(["check", "--input", str(path), "--format", "structured"])
    doc = json.loads(output)
    assert status == 0 and doc["trace"] == trace and doc["verdict"] == verdict
    assert capsys.readouterr().err == ""


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@example(0, 0)
@example(14284, 0)
@example(0, 14284)
@example(14285, 0)
@example(0, 14285)
@settings(max_examples=40, deadline=None)
def test_the_trace_text_is_the_power_of_two_at_every_size(b, k):
    # under the lowest digit limit the interpreter accepts, as with
    # PYTHONINTMAXSTRDIGITS=640
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = cli._trace_text(SimpleNamespace(b=b, k=Fraction(k)))
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == f"2^{b - k}"
    if abs(b - k) <= 15000:
        assert Fraction(2) ** (b - k) == bk_trace_and_integrality(b, k)[0]


def _under_both_digit_limits(argvs) -> list[tuple[int, str]]:
    """`_main_in_child` on `argvs` under the default digit limit, after
    asserting that the lowest limit (640) gives the same results."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    default = _main_in_child(argvs, env)
    assert _main_in_child(argvs, dict(env, PYTHONINTMAXSTRDIGITS="640")) == default
    assert [status for status, _ in default] == [0] * len(argvs)
    return default


@pytest.mark.parametrize("fmt", [cli.TEXT, cli.STRUCTURED])
@pytest.mark.parametrize(
    "argv",
    [["check", "--input", "PAIRS"]],
    ids=["check-trace-2^-3000"],
)
def test_output_does_not_depend_on_the_int_digit_limit(tmp_path, argv, fmt):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(_z2_pairs_doc("minus_e8", 3000)))
    argv = [str(path) if arg == "PAIRS" else arg for arg in argv] + ["--format", fmt]
    [(_, output)] = _under_both_digit_limits([argv])
    if fmt == cli.TEXT:
        assert "trace 2^(b-k) = 2^-3000 (NOT an algebraic integer)\n" in output
    else:
        assert json.loads(output)["trace"] == "2^-3000"


def test_golden_output_does_not_depend_on_the_int_digit_limit():
    _under_both_digit_limits(list(GOLDEN_CASES.values()))


def _count_calls(monkeypatch, fn):
    """Count calls of `fn` at every spinact module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("spinact") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def _count_fixed_sets(monkeypatch):
    from spinact.equivariant_sum import ValidScenario

    calls = []
    fixed_set = ValidScenario.fixed_set

    def counted(self, element):
        calls.append((self.scenario, element))
        return fixed_set(self, element)

    monkeypatch.setattr(ValidScenario, "fixed_set", counted)
    return calls


@pytest.mark.parametrize(
    "argv,points",
    [
        (["check", "--input", str(SCENARIOS / "klein_l3_l3_k1.json")], 1),
        (["check", "--input", str(SCENARIOS / "z2_l3_k1.json")], 1),
        (["invariants", "--input", str(SCENARIOS / "klein_l3_l3_k1.json")], 1),
        (["enumerate", "--template", "klein", "--sweep", "l1=3..4,l2=3..3,k=0..1"], 4),
    ],
)
def test_one_validation_per_scenario_and_no_dense_engine(monkeypatch, argv, points):
    from spinact import equivariant_sum, isometry, lattice

    lattice.standard_facts.cache_clear()
    validations = _count_calls(monkeypatch, equivariant_sum.validate_scenario)
    profiles = _count_calls(monkeypatch, lattice.signature_profile)
    fixed_sets = _count_fixed_sets(monkeypatch)
    dense = [
        _count_calls(monkeypatch, fn)
        for fn in (
            isometry.invariant_sublattice,
            isometry.verify_isometry,
            equivariant_sum.scenario_lattice,
        )
    ]
    status, _ = run_main(argv)
    assert status == 0
    assert len(validations) == points
    assert dense == [[], [], []]
    scenarios = [s for (s,) in validations]
    # one fixed-set pass per non-identity element of each scenario, in
    # group order, shared by the parity hypotheses and the report
    elements = {Z2: (GEN1,), Z2XZ2: (GEN1, GEN2, COMPOSITION)}
    assert fixed_sets == [(s, e) for s in scenarios for e in elements[s.group]]
    # a standard form is diagonalised once per process, not per point
    kinds = {sm.kind for s in scenarios for sm in s.summands}
    assert "custom" not in kinds
    assert len(profiles) == len(kinds)


@pytest.mark.parametrize("command", ["check", "invariants"])
def test_custom_forms_are_diagonalised_once_per_command(monkeypatch, tmp_path, command):
    from spinact import lattice

    # two distinct custom forms, each on a swapped pair, beside standard ones
    doc = _custom_forms_doc(_hyperbolic_sum(4), 2)
    doc["summands"] += [
        {"id": "d0", "kind": "custom", "gram": _hyperbolic_sum(2)},
        {"id": "d1", "kind": "custom", "gram": _hyperbolic_sum(2)},
        {"id": "s0", "kind": "s2xs2"},
        {"id": "w0", "kind": "minus_e8"},
        {"id": "w1", "kind": "minus_e8"},
    ]
    doc["generator1"]["permutation"] += [["d0", "d1"], ["w0", "w1"]]
    doc["generator1"]["local"] = {"s0": "rotate_first"}
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    lattice.standard_facts.cache_clear()
    profiles = _count_calls(monkeypatch, lattice.signature_profile)
    first = run_main([command, "--input", str(path)])
    # nothing derived from the input outlives its command
    assert run_main([command, "--input", str(path)]) == first
    assert first[0] == 0
    # two custom forms per command, the two standard kinds once per process
    grams = [lat.gram for (lat,) in profiles]
    assert len(grams) == 2 + 2 + 2
    assert sorted(map(len, grams)) == [2, 2, 2, 4, 4, 8]


_LABEL_ON_MOVED = (
    "violation [label_on_moved] gen1: label on summand 'b' that the permutation moves\n"
)


@pytest.mark.parametrize(
    "local,expected",
    [
        ({}, ""),
        ({"b": "rotate_first"}, _LABEL_ON_MOVED),
    ],
    ids=["no-spurious-missing-label", "label-on-moved-still-reported"],
)
def test_a_degenerate_pair_moves_nothing(tmp_path, local, expected):
    # ("b", "b") beside the real pair ("a", "b") is a bad_pair and maps
    # nothing, so b stays moved: it needs no label and may carry none
    doc = {
        "schema_version": 1,
        "group": "Z2",
        "summands": [{"id": "a", "kind": "s2xs2"}, {"id": "b", "kind": "s2xs2"}],
        "generator1": {"permutation": [["a", "b"], ["b", "b"]], "local": local},
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    status, output = run_main(["check", "--input", str(path)])
    assert status == 2
    bad_pair = "violation [bad_pair] gen1: permutation pair ('b', 'b') is degenerate\n"
    assert output == bad_pair + expected
    violations, _ = validate_scenario_reference(parse_scenario(json.dumps(doc)))
    assert output == "".join(f"violation [{v.code}] {v.message}\n" for v in violations)


# command lines for the dispatch contract; SCENARIO stands for a bundled file
_SWEEP = ["enumerate", "--template", "z2", "--sweep", "l=3..4,k=0..1"]
_DISPATCH_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["chec", "--input", "SCENARIO"],
    ["check", "-h"],
    ["enumerate", "--help"],
    ["check"],
    ["check", "--format", "structured"],
    ["check", "--input", "SCENARIO"],
    ["check", "--input", "SCENARIO", "--format", "xml"],
    _SWEEP + ["--jobs", "two"],
    ["repring", "--rep", "1,0,0,0", "--element", "7"],  # a removed command
    ["enumerate", "--template", "z3", "--sweep", "l=3..4,k=0..1"],
    ["check", "--inp", "SCENARIO"],
    ["check", "--he"],
    ["check", "--input=SCENARIO", "--format=structured"],
    ["invariants", "--input", "missing.json", "--input", "SCENARIO"],
    _SWEEP + ["--jobs", "2", "--jobs", "1"],
    ["check", "--input", "SCENARIO", "extra"],
    ["check", "--input", "SCENARIO", "--bogus"],
    ["check", "--", "--input", "SCENARIO"],
    ["check", "--input", "SCENARIO", "--"],
    ["--", "check", "--input", "SCENARIO"],
    ["check", "--input", "--", "SCENARIO"],
    _SWEEP + ["--", "--jobs", "2"],
    ["-x", "check", "--input", "SCENARIO"],
]


# the corpus lines whose command parser leaves strings over
_LEFTOVER_LINES = [
    ["check", "--input", "SCENARIO", "extra"],
    ["check", "--input", "SCENARIO", "--bogus"],
    ["check", "--input", "SCENARIO", "--"],
    _SWEEP + ["--", "--jobs", "2"],
]


def _with_scenario(argv):
    scenario = str(SCENARIOS / "z2_l3_k1.json")
    return [arg.replace("SCENARIO", scenario) for arg in argv]


def _run_main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv, out=out)
        except SystemExit as exc:
            status = exc.code
    return out.getvalue(), err.getvalue(), status


@pytest.mark.parametrize(
    "argv", _DISPATCH_CORPUS, ids=lambda argv: " ".join(argv) or "empty"
)
def test_main_parses_like_the_top_level_parser(monkeypatch, argv):
    # main hands a command line that starts with a command name to that
    # command's parser alone; the exit status and stdout must be those of
    # the full top-level parse, and so must stderr, except where that
    # parser leaves strings over: there stderr is its own error
    leftover = argv in _LEFTOVER_LINES
    argv = _with_scenario(argv)
    got = _run_main_captured(list(argv))
    monkeypatch.setattr(cli, "_parse_args", cli.build_parser().parse_args)
    out, err, status = _run_main_captured(list(argv))
    if leftover:
        command = cli._parsers()[1][argv[0]]
        monkeypatch.setattr(cli, "_parse_args", lambda line: command.parse_args(line[1:]))
        own_err = _run_main_captured(list(argv))[1]
        assert own_err.startswith(f"usage: spinact {argv[0]} ") and own_err != err
        err = own_err
    assert got == (out, err, status)


def test_a_named_command_never_reaches_the_top_level_parser(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a command line")

    parser, commands = cli._parsers()
    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    lines = [argv for argv in _DISPATCH_CORPUS if argv and argv[0] in commands]
    assert len(lines) == 19
    for argv in lines:
        _run_main_captured(_with_scenario(argv))


def test_strings_a_command_leaves_over_print_that_commands_error(capsys):
    argv = _with_scenario(["check", "--input", "SCENARIO", "extra"])
    with pytest.raises(SystemExit) as exc:
        run_main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "",
        "usage: spinact check [-h] --input INPUT [--format {text,structured}]\n"
        "spinact check: error: unrecognized arguments: extra\n",
    )


def test_main_reads_sys_argv_when_given_none(monkeypatch):
    argv = ["check", "--input", str(SCENARIOS / "z2_l3_k1.json")]
    monkeypatch.setattr(sys, "argv", ["spinact"] + argv)
    assert _run_main_captured(None) == _run_main_captured(argv)


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    # one build makes the top-level parser and every command's parser
    cli._parsers.cache_clear()
    builds = _count_calls(monkeypatch, cli._build_parsers)
    argv = ["check", "--input", str(SCENARIOS / "klein_l3_l3_k1.json")]
    first = run_main(argv)
    with pytest.raises(SystemExit) as exc:
        run_main(["check", "--format", "structured"])
    assert exc.value.code == 2
    assert "--input" in capsys.readouterr().err
    # strings the command's parser leaves over are that parser's error
    with pytest.raises(SystemExit) as exc:
        run_main(argv + ["extra"])
    assert exc.value.code == 2
    assert "unrecognized arguments: extra" in capsys.readouterr().err
    assert run_main(argv) == first
    assert first[0] == 0
    assert len(builds) == 1


_FUZZ_KEYS = (
    "schema_version", "group", "summands", "generator1", "generator2", "id",
    "kind", "gram", "permutation", "local", "overrides", "n_plus", "n_minus",
    "s0", "w0",
)
_FUZZ_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 30)
    | st.floats(allow_nan=False)
    | st.sampled_from(
        ("", "s0", "w0", "rotate_both", "identity", "custom", "k3", "Z2", "Z2xZ2")
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated_bundled_documents(draw):
    """A bundled scenario document with one to three values replaced,
    dropped or added at random paths."""
    name = draw(st.sampled_from(sorted(p.name for p in SCENARIOS.glob("*.json"))))
    doc = json.loads((SCENARIOS / name).read_text())
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            inner = [k for k in keys if isinstance(node[k], (dict, list))]
            if not inner or draw(st.booleans()):
                break
            node = node[draw(st.sampled_from(inner))]
        action = draw(st.sampled_from(("replace", "drop", "add")))
        if action == "add" or not keys:
            value = draw(_FUZZ_VALUES)
            if isinstance(node, dict):
                node[draw(st.sampled_from(_FUZZ_KEYS))] = value
            else:
                node.insert(draw(st.integers(0, len(node))), value)
        elif action == "drop":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(_FUZZ_VALUES)
    return doc


def assert_exits_zero_or_two(path, doc):
    path.write_text(json.dumps(doc))
    for command in ("check", "invariants"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status, _ = run_main([command, "--input", str(path)])
        assert status in (0, 2)
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()


@given(doc=mutated_bundled_documents())
@settings(max_examples=200, deadline=None)
def test_mutated_bundled_documents_exit_zero_or_two(tmp_path_factory, doc):
    assert_exits_zero_or_two(tmp_path_factory.getbasetemp() / "mutated.json", doc)


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.sampled_from(_FUZZ_KEYS + ("custom", "k3", "rotate_both", "Z2", "Z2xZ2"))
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def arbitrary_documents(draw):
    """Any JSON value, or a document with a valid schema_version and group
    whose summands and generators are any JSON values."""
    if draw(st.booleans()):
        return draw(_JSON)
    doc = {"schema_version": 1, "group": draw(st.sampled_from(("Z2", "Z2xZ2")))}
    for key in ("summands", "generator1", "generator2"):
        if draw(st.booleans()):
            doc[key] = draw(_JSON)
    return doc


@given(doc=arbitrary_documents())
@settings(max_examples=200, deadline=None)
def test_arbitrary_json_documents_exit_zero_or_two(tmp_path_factory, doc):
    assert_exits_zero_or_two(tmp_path_factory.getbasetemp() / "arbitrary.json", doc)

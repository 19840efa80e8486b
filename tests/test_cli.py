import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from spinact import cli
from spinact.equivariant_sum import parse_scenario, serialize_scenario
from spinact.templates import klein_template, z2_template

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
    assert doc["trace"] == "1/2"
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
    ],
    ids=["unknown-group", "deep-nesting"],
)
def test_malformed_file_exits_two(tmp_path, capsys, text, fragment):
    path = tmp_path / "broken.json"
    path.write_text(text)
    status, _ = run_main(["check", "--input", str(path)])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed scenario")
    assert fragment in err


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


def test_enumerate_empty_range():
    status, output = run_main(
        ["enumerate", "--template", "z2", "--sweep", "l=5..4,k=0..0"]
    )
    assert status == 0
    assert "summary: total=0" in output


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


def test_repring_character_and_lambda():
    status, output = run_main(["repring", "--rep", "0,1,0,1", "--element", "1"])
    assert status == 0
    assert "character at element 1: 0" in output
    assert "lambda_-1 trace at element 1: 2" in output


def test_repring_tomdieck():
    status, output = run_main(
        ["repring", "--w-perp", "0,0,3,0", "--v-perp", "0,1,0,1", "--degree", "1"]
    )
    assert status == 0
    assert "4" in output and "an algebraic integer" in output


def test_repring_structured():
    status, output = run_main(
        [
            "repring",
            "--w-perp",
            "0,0,0,0",
            "--v-perp",
            "0,1,0,1",
            "--element",
            "1",
            "--format",
            "structured",
        ]
    )
    assert status == 0
    doc = json.loads(output)
    assert doc["trace"] == "1/2"
    assert doc["is_algebraic_integer"] is False


def test_repring_fixed_vector_error(capsys):
    status, _ = run_main(["repring", "--w-perp", "0,0,0,0", "--v-perp", "1,0,0,0"])
    assert status == 2


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


def _golden_cases():
    for name in ("z2_l3_k1", "klein_l3_l3_k1"):
        for command in ("check", "invariants"):
            argv = [command, "--input", str(SCENARIOS / f"{name}.json")]
            yield f"{command}_{name}.txt", argv
            yield f"{command}_{name}.json", argv + ["--format", "structured"]
    yield "enumerate_z2_l3-9_k0-3.txt", [
        "enumerate", "--template", "z2", "--sweep", "l=3..9,k=0..3"
    ]
    yield "enumerate_klein_l1-3-4_l2-3-4_k0-1.json", [
        "enumerate", "--template", "klein", "--sweep", "l1=3..4,l2=3..4,k=0..1",
        "--format", "structured",
    ]


@pytest.mark.parametrize("golden,argv", list(_golden_cases()))
def test_stdout_matches_golden_file(golden, argv):
    status, output = run_main(argv)
    assert status == 0
    assert output == (GOLDEN / golden).read_text(encoding="utf-8")


def _custom_doc(gram=None, override=None, summand_id="c0", label="rotate_both", pair=None):
    """A Z2 scenario with one swapped pair of custom summands; each
    argument replaces one field with a malformed value."""
    gram = [[0, 1], [1, 0]] if gram is None else gram
    local = {"s": label}
    generator = {"permutation": [pair or [summand_id, "c1"]], "local": local}
    if override is not None:
        generator["overrides"] = {"s": override}
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
        _custom_doc(override={"n_plus": None, "n_minus": 4}),
        _custom_doc(gram=[[-2.9]]),
        _custom_doc(gram=[[True, 1], [1, 0]]),
        _custom_doc(summand_id=0),
        _custom_doc(label=1),
        _custom_doc(pair=["c0", 1]),
    ],
    ids=["null-entry", "row-not-list", "null-count", "float-entry", "bool-entry",
         "int-id", "int-label", "int-pair-member"],
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

    validations = _count_calls(monkeypatch, equivariant_sum.validate_scenario)
    profiles = _count_calls(monkeypatch, lattice.signature_profile)
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
    # one signature profile per distinct summand form of each scenario
    forms = [len({sm.kind_key() for sm in s.summands}) for (s,) in validations]
    assert len(profiles) == sum(forms)

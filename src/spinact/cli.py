"""Command-line front end: check scenarios, sweep template grids, evaluate traces.

Exit status contract: 0 = ran to completion (either verdict), 2 = the
input failed validation or a theorem hypothesis, 1 = internal error.
Verdicts are never encoded in exit codes. Output is deterministic:
identical input and flags give byte-identical output. `enumerate` accepts
`--jobs` and evaluates its points serially at any value.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import equivariant_sum as eq
from . import obstruction as ob
from . import rep_ring as rr
from .templates import klein_template, z2_template

TEXT = "text"
STRUCTURED = "structured"

REPORT_SCHEMA_VERSION = 1


def _frac(x) -> str:
    return str(Fraction(x))


def _load_scenario(path: str) -> eq.ActionScenario:
    with open(path, "r", encoding="utf-8") as fh:
        return eq.parse_scenario(fh.read())


def _fixed_set_doc(fs: eq.FixedSetData) -> dict:
    doc: dict = {
        "element": fs.element,
        "components": [[dim, count] for dim, count in fs.components],
    }
    if fs.n_plus is not None:
        doc["n_plus"] = fs.n_plus
        doc["n_minus"] = fs.n_minus
    return doc


def _subgroup_hints(report: ob.ObstructionReport) -> list[dict]:
    return [{"subgroup": sub, "hint": hint} for sub, hint in report.subgroup_hints]


def _report_doc(s: eq.ActionScenario, report: ob.ObstructionReport) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario_digest": eq.scenario_digest(s),
        "theorem": report.theorem,
        "hypotheses": [
            {"name": h.name, "passed": h.passed, "detail": h.detail}
            for h in report.hypotheses
        ],
        "b": report.b,
        "k": _frac(report.k),
        "trace": None if report.trace_value is None else _frac(report.trace_value),
        "verdict": report.verdict,
        "fixed_sets": [_fixed_set_doc(er.fixed_set) for er in report.elements],
        "subgroup_hints": _subgroup_hints(report),
    }


def _render_report_text(s: eq.ActionScenario, report: ob.ObstructionReport) -> str:
    lines = [
        f"scenario digest: {eq.scenario_digest(s)}",
        f"theorem: {report.theorem}",
        f"b2: {report.b2}   signature: {report.signature}",
        "hypotheses:",
    ]
    for h in report.hypotheses:
        mark = "pass" if h.passed else "FAIL"
        detail = f"  ({h.detail})" if h.detail else ""
        lines.append(f"  [{mark}] {h.name}{detail}")
    for er in report.elements:
        comps = ", ".join(f"dim {d} x{c}" for d, c in er.fixed_set.components) or "empty"
        parity = er.parity.value if er.parity else "indeterminate"
        extra = (
            f"  n_plus={er.fixed_set.n_plus} n_minus={er.fixed_set.n_minus}"
            if er.fixed_set.n_plus is not None
            else ""
        )
        lines.append(f"fixed set of {er.element}: {comps}  parity: {parity}{extra}")
    if report.index_data is not None and report.index_data.index_twisted is not None:
        lines.append(f"twisted index: {_frac(report.index_data.index_twisted)}")
    lines.append(f"b_plus on fixed sublattice: {report.b}")
    lines.append(f"lower bound k: {_frac(report.k)}")
    if report.trace_value is not None:
        integral = (
            "an algebraic integer"
            if report.trace_is_algebraic_integer
            else "NOT an algebraic integer"
        )
        lines.append(f"trace 2^(b-k) = {_frac(report.trace_value)} ({integral})")
    for sub, hint in report.subgroup_hints:
        lines.append(f"subgroup {sub}: {hint}")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"


def run_check(args, out) -> int:
    s = _load_scenario(args.input)
    report = ob.check(s)
    if args.format == STRUCTURED:
        out.write(json.dumps(_report_doc(s, report), sort_keys=True, indent=2) + "\n")
    else:
        out.write(_render_report_text(s, report))
    return 0 if report.all_hypotheses_pass else 2


def run_invariants(args, out) -> int:
    s = _load_scenario(args.input)
    eq.require_valid(s)
    profiles = eq._summand_profiles(s)
    inv = eq._total_invariants(s, profiles)
    elements = eq.elements_of(s.group)
    per_element = []
    for element in elements:
        report = ob._parity_report(s, element)
        per_element.append(
            {
                "element": element,
                "fixed_set": _fixed_set_doc(report.fixed_set),
                "parity": report.parity.value if report.parity else "indeterminate",
                "b_plus_invariant": eq._twisted_b_plus(s, (element,), profiles),
            }
        )
    # taken over every non-identity element, so 0 on Klein scenarios: no
    # sign character is -1 on both generators and on their composition
    joint = eq._twisted_b_plus(s, elements, profiles)
    if args.format == STRUCTURED:
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "scenario_digest": eq.scenario_digest(s),
            "group": s.group,
            "b2": inv.b2,
            "signature": inv.signature,
            "even": inv.even,
            "elements": per_element,
            "joint_b_plus_invariant": joint,
        }
        out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        lines = [
            f"scenario digest: {eq.scenario_digest(s)}",
            f"group: {s.group}",
            f"b2: {inv.b2}   signature: {inv.signature}   even: {str(inv.even).lower()}",
        ]
        for entry in per_element:
            comps = (
                ", ".join(f"dim {d} x{c}" for d, c in entry["fixed_set"]["components"])
                or "empty"
            )
            lines.append(
                f"{entry['element']}: fixed set {comps}  parity {entry['parity']}  "
                f"b_plus_invariant {entry['b_plus_invariant']}"
            )
        lines.append(f"joint b_plus_invariant: {joint}")
        out.write("\n".join(lines) + "\n")
    return 0


def _sweep_points(
    template: str, r: dict[str, tuple[int, int]]
) -> list[tuple[tuple[int, ...], eq.ActionScenario]]:
    """Grid points of the sweep, restricted to totals with a smooth structure.

    The involution template needs l >= 3k sphere summands to smooth the E8
    content; the Klein template needs both chains at least 3k. Points
    outside that range are skipped: on a total with no smooth structure at
    all, every action is vacuously nonsmoothable and the certificate says
    nothing.
    """
    points = []
    if template == "z2":
        l_lo, l_hi = r["l"]
        k_lo, k_hi = r["k"]
        for l in range(l_lo, l_hi + 1):
            for k in range(k_lo, k_hi + 1):
                if l >= 3 * k:
                    points.append(((l, k), z2_template(l, k)))
    else:
        l1_lo, l1_hi = r["l1"]
        l2_lo, l2_hi = r["l2"]
        k_lo, k_hi = r["k"]
        for l1 in range(l1_lo, l1_hi + 1):
            for l2 in range(l2_lo, l2_hi + 1):
                for k in range(k_lo, k_hi + 1):
                    if l1 >= 3 * k and l2 >= 3 * k:
                        points.append(((l1, l2, k), klein_template(l1, l2, k)))
    return points


def run_enumerate(args, out) -> int:
    sweep = _parse_sweep(args.sweep)
    needed = {"z2": {"l", "k"}, "klein": {"l1", "l2", "k"}}[args.template]
    if set(sweep) != needed:
        raise ValueError(f"--sweep for {args.template} needs exactly {sorted(needed)}")
    # points come out of the grid in sorted order
    results = [
        (params, ob.check(scenario))
        for params, scenario in _sweep_points(args.template, sweep)
    ]

    names = ("l", "k") if args.template == "z2" else ("l1", "l2", "k")
    counts: dict[str, int] = {}
    if args.format == STRUCTURED:
        rows = []
        for params, report in results:
            counts[report.verdict] = counts.get(report.verdict, 0) + 1
            row = dict(zip(names, params))
            row.update(
                {
                    "b": report.b,
                    "k_bound": _frac(report.k),
                    "verdict": report.verdict,
                }
            )
            if report.subgroup_hints:
                row["subgroup_hints"] = _subgroup_hints(report)
            rows.append(row)
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "template": args.template,
            "rows": rows,
            "summary": {k: counts[k] for k in sorted(counts)},
        }
        out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        for params, report in results:
            counts[report.verdict] = counts.get(report.verdict, 0) + 1
            cells = " ".join(f"{n}={v}" for n, v in zip(names, params))
            line = f"{cells} b={report.b} k_bound={_frac(report.k)} verdict={report.verdict}"
            if report.subgroup_hints:
                line += " subgroups=" + ",".join(
                    f"{sub}:{hint}" for sub, hint in report.subgroup_hints
                )
            out.write(line + "\n")
        summary = " ".join(f"{k}={counts[k]}" for k in sorted(counts)) or "empty"
        out.write(f"summary: total={len(results)} {summary}\n")
    return 0


def _parse_mult(text: str, flag: str) -> rr.VirtualRepZ4:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"{flag} needs four comma-separated multiplicities")
    return rr.VirtualRepZ4(tuple(int(p) for p in parts))


def run_repring(args, out) -> int:
    element = args.element
    if args.w_perp or args.v_perp:
        if not (args.w_perp and args.v_perp):
            raise ValueError("--w-perp and --v-perp must be given together")
        w = _parse_mult(args.w_perp, "--w-perp")
        v = _parse_mult(args.v_perp, "--v-perp")
        value = rr.tomdieck_trace(args.degree, w, v, element)
        doc = {
            "element": element,
            "degree": args.degree,
            "trace": str(value),
            "is_algebraic_integer": value.is_gaussian_integer,
        }
        if args.format == STRUCTURED:
            out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        else:
            out.write(
                f"tom Dieck trace at element {element}: {value}"
                f" ({'an' if value.is_gaussian_integer else 'NOT an'} algebraic integer)\n"
            )
        return 0
    if not args.rep:
        raise ValueError("repring needs --rep or --w-perp/--v-perp")
    r = _parse_mult(args.rep, "--rep")
    chi = rr.character_value(r, element)
    try:
        lam = str(rr.lambda_minus_one_trace(r, element))
    except rr.FixedVectorError as exc:
        lam = f"undefined ({exc})"
    if args.format == STRUCTURED:
        doc = {
            "element": element,
            "mult": list(r.mult),
            "character": str(chi),
            "lambda_minus_one": lam,
        }
        out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        out.write(f"character at element {element}: {chi}\n")
        out.write(f"lambda_-1 trace at element {element}: {lam}\n")
    return 0


def _parse_sweep(text: str) -> dict[str, tuple[int, int]]:
    ranges = {}
    for part in text.split(","):
        if "=" not in part or ".." not in part:
            raise ValueError(f"bad sweep component {part!r}; expected name=a..b")
        name, span = part.split("=", 1)
        lo, hi = span.split("..", 1)
        ranges[name.strip()] = (int(lo), int(hi))
    return ranges


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinact",
        description="Exact nonsmoothability obstruction checker for involutions "
        "and Klein four-group actions on spin 4-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the obstruction checker on a scenario")
    p_check.add_argument("--input", required=True, help="scenario JSON file")
    p_check.add_argument("--format", choices=(TEXT, STRUCTURED), default=TEXT)

    p_inv = sub.add_parser("invariants", help="report invariants of a scenario")
    p_inv.add_argument("--input", required=True)
    p_inv.add_argument("--format", choices=(TEXT, STRUCTURED), default=TEXT)

    p_rep = sub.add_parser("repring", help="evaluate representation-ring traces")
    p_rep.add_argument("--rep", help="multiplicities m0,m1,m2,m3")
    p_rep.add_argument("--w-perp", help="target multiplicities m0,m1,m2,m3")
    p_rep.add_argument("--v-perp", help="domain multiplicities m0,m1,m2,m3")
    p_rep.add_argument("--degree", type=int, default=1, help="fixed-part degree")
    p_rep.add_argument("--element", type=int, default=1, help="group element 0..3")
    p_rep.add_argument("--format", choices=(TEXT, STRUCTURED), default=TEXT)

    p_enum = sub.add_parser("enumerate", help="sweep a template parameter grid")
    p_enum.add_argument("--template", choices=("z2", "klein"), required=True)
    p_enum.add_argument(
        "--sweep",
        required=True,
        help="ranges like l=3..9,k=0..3 (z2) or l1=3..4,l2=3..4,k=1..2 (klein)",
    )
    # accepted so existing command lines keep working; points run serially
    p_enum.add_argument("--jobs", type=int, default=1)
    p_enum.add_argument("--format", choices=(TEXT, STRUCTURED), default=TEXT)
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    runners = {
        "check": run_check,
        "invariants": run_invariants,
        "repring": run_repring,
        "enumerate": run_enumerate,
    }
    try:
        return runners[args.command](args, out)
    except OSError as exc:
        sys.stderr.write(f"error: cannot read input: {exc}\n")
        return 2
    except eq.ScenarioFormatError as exc:
        sys.stderr.write(f"error: malformed scenario: {exc}\n")
        return 2
    except eq.InvalidScenarioError as exc:
        for violation in exc.violations:
            out.write(f"violation [{violation.code}] {violation.message}\n")
        return 2
    except (ValueError, rr.FixedVectorError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

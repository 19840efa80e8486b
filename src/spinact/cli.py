"""Command-line front end: check scenarios and sweep template grids.

Exit status contract: 0 = ran to completion (either verdict), 2 = the
input failed validation or a theorem hypothesis, 1 = internal error.
Verdicts are never encoded in exit codes. Output is deterministic:
identical input and flags give byte-identical output. `enumerate` accepts
a `--jobs` count and evaluates its points serially at any count.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterator

from . import equivariant_sum as eq
from . import obstruction as ob
from .templates import (
    TEMPLATE_SUMMANDS,
    klein_admits,
    klein_grid,
    template_summands,
    z2_admits,
    z2_grid,
)

TEXT = "text"
STRUCTURED = "structured"

REPORT_SCHEMA_VERSION = 1

# bound on grid points plus the summands their templates build, per sweep
SWEEP_BUDGET = 10**6
# bounds on one scenario file: its summands, and the elimination work of
# its custom forms, summed over the distinct ones (signature_profile runs
# once per distinct form). A form costs rank^3 steps, each weighted by
# ceil(max entry bits / 64)^2, the cost of one product of its entries in
# 64-bit words, so a form whose entries fit in 64 bits costs rank^3. The
# largest admitted dense forms with random entries take about 0.4 s with
# 9-bit entries (rank 125), 3.7 s with 128-bit ones (rank 79) and 0.16 s
# with 1024-bit ones (rank 19). With 62-bit ones (rank 125) two runs took
# 7.2 s (ROADMAP.md, baseline) and 17.2 s (CHANGES.md, the FOUND line on
# this budget): the budget does not bound the time it admits (ROADMAP
# item 6).
SUMMAND_BUDGET = 10**5
BAREISS_BUDGET = 2 * 10**6


def _load_scenario(path: str) -> eq.ActionScenario:
    # one UTF-8 decode of the bytes: a BOM stays in the text, and bad bytes
    # raise the UnicodeDecodeError that a text-mode read raises
    with open(path, "rb") as fh:
        s = eq.parse_scenario(fh.read().decode("utf-8"))
    if len(s.summands) > SUMMAND_BUDGET:
        raise ValueError(
            f"scenario too large: {len(s.summands)} summands"
            f" exceed the budget of {SUMMAND_BUDGET}"
        )
    forms = {sm.custom_form for sm in s.summands if sm.custom_form is not None}
    work = sum(lat.rank**3 * _word_weight(lat.gram) for lat in forms)
    if work > BAREISS_BUDGET:
        raise ValueError(
            f"scenario too large: its custom forms need {work} elimination steps"
            f" (rank^3 per distinct form, times ceil(max entry bits / 64)^2),"
            f" over the budget of {BAREISS_BUDGET}"
        )
    return s


def _word_weight(gram) -> int:
    bits = max(map(int.bit_length, itertools.chain.from_iterable(gram)), default=0)
    return max(1, -(-bits // 64)) ** 2


def _flag_int(text: str, flag: str) -> int:
    # an optional sign and ASCII digits, nothing else: int() would also take
    # spaces, underscores and other scripts' digits
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{flag} value {text!r} is not an integer")
    try:
        return int(text)
    except ValueError:
        # only the digit limit refuses such text; interpreters before 3.10.7
        # have no limit and no get_int_max_str_digits, and never get here
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{flag} needs integers of at most {limit} digits") from None


def _components_text(components) -> str:
    return ", ".join(f"dim {d} x{c}" for d, c in components) or "empty"


def _trace_text(report: ob.ObstructionReport) -> str | None:
    """The trace 2^(b-k), or None when k is not an integer."""
    if report.k.denominator != 1:
        return None
    return f"2^{report.b - report.k.numerator}"


def _parity_text(fs: eq.FixedSetData) -> str:
    return fs.parity or "indeterminate"


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
        "k": str(report.k),
        "trace": _trace_text(report),
        "verdict": report.verdict,
        "fixed_sets": [_fixed_set_doc(fs) for fs in report.elements],
        "subgroup_hints": _subgroup_hints(report),
        "smooth_structure": dict(zip(("answer", "reason"), report.smooth_structure)),
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
    for fs in report.elements:
        comps = _components_text(fs.components)
        extra = (
            f"  n_plus={fs.n_plus} n_minus={fs.n_minus}" if fs.n_plus is not None else ""
        )
        lines.append(
            f"fixed set of {fs.element}: {comps}  parity: {_parity_text(fs)}{extra}"
        )
    # the index is reported only under the theorems' standing assumption
    # that the signature is nonpositive
    if report.signature <= 0 and report.index_twisted is not None:
        lines.append(f"twisted index: {report.index_twisted}")
    lines.append(f"b_plus on fixed sublattice: {report.b}")
    lines.append(f"lower bound k: {report.k}")
    trace = _trace_text(report)
    if trace is not None:
        # a rational algebraic integer is an integer: 2^(b-k) is one iff b >= k
        integral = "an" if report.b >= report.k.numerator else "NOT an"
        lines.append(f"trace 2^(b-k) = {trace} ({integral} algebraic integer)")
    for sub, hint in report.subgroup_hints:
        lines.append(f"subgroup {sub}: {hint}")
    lines.append("smooth structure: {} ({})".format(*report.smooth_structure))
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
    v = eq.require_valid(s)
    inv = v.totals()
    per_element = [
        {
            "element": fs.element,
            "fixed_set": _fixed_set_doc(fs),
            "parity": _parity_text(fs),
            "b_plus_invariant": v.b_plus([fs.element]),
        }
        for fs in map(v.fixed_set, v.table)
    ]
    # taken over every non-identity element, so 0 on Klein scenarios: no
    # sign character is -1 on both generators and on their composition
    joint = v.b_plus(v.table)
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
            comps = _components_text(entry["fixed_set"]["components"])
            lines.append(
                f"{entry['element']}: fixed set {comps}  parity {entry['parity']}  "
                f"b_plus_invariant {entry['b_plus_invariant']}"
            )
        lines.append(f"joint b_plus_invariant: {joint}")
        out.write("\n".join(lines) + "\n")
    return 0


def _sweep_points(
    template: str, r: dict[str, tuple[int, int]]
) -> Iterator[tuple[tuple[int, ...], eq.ActionScenario]]:
    """Sorted grid points of the sweep that `z2_admits` / `klein_admits`
    keep, with their scenarios. One grid builder (`z2_grid` /
    `klein_grid`) at the corner that `_sweep_work` budgets makes the
    corner's summand records once; each point's scenario is made from
    prefixes of them when the point is reached, so one corner's records
    and one point's scenario are alive at a time. `z2_admits` keeps the totals
    that `templates.smooth_structure` finds smoothable by construction; on a
    total with no smooth structure, every action is vacuously nonsmoothable."""
    grid, admits = (z2_grid, z2_admits) if template == "z2" else (klein_grid, klein_admits)
    names = TEMPLATE_SUMMANDS[template][1]
    corner = _corner(r)
    point = grid(*(corner[name] for name in names))
    ranges = (r[name] for name in names)
    params = itertools.product(*(range(lo, hi + 1) for lo, hi in ranges))
    return ((p, point(*p)) for p in params if admits(*p))


def _corner(r: dict[str, tuple[int, int]]) -> dict[str, int]:
    """The upper corner of the range box, negative bounds counted as 0."""
    return {name: max(hi, 0) for name, (_, hi) in r.items()}


def _sweep_work(template: str, r: dict[str, tuple[int, int]]) -> int:
    """An upper bound on the grid points plus the summands their templates
    would build, from the ranges alone: every point of the range box at
    the size of its upper corner."""
    points = math.prod(max(0, hi - lo + 1) for lo, hi in r.values())
    return points * (1 + template_summands(template, _corner(r)))


def run_enumerate(args, out) -> int:
    # ASCII digits worth at least 1, though the points run serially at any count
    if not (args.jobs.isascii() and args.jobs.isdigit() and args.jobs.strip("0")):
        raise ValueError(f"--jobs value {args.jobs!r} is not a positive integer")
    sweep = _parse_sweep(args.sweep)
    names = tuple(TEMPLATE_SUMMANDS[args.template][1])
    if set(sweep) != set(names):
        raise ValueError(f"--sweep for {args.template} needs exactly {sorted(names)}")
    work = _sweep_work(args.template, sweep)
    if work > SWEEP_BUDGET:
        raise ValueError(
            # work itself may have too many digits to print
            "--sweep grid too large: its grid points and summands"
            f" exceed the budget of {SWEEP_BUDGET}"
        )
    results = [
        (params, ob.check(scenario))
        for params, scenario in _sweep_points(args.template, sweep)
    ]

    verdicts = [report.verdict for _, report in results]
    counts = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    if args.format == STRUCTURED:
        rows = []
        for params, report in results:
            row = dict(zip(names, params))
            row.update(
                {
                    "b": report.b,
                    "k_bound": str(report.k),
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
            "summary": counts,
        }
        out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        for params, report in results:
            cells = " ".join(f"{n}={v}" for n, v in zip(names, params))
            line = f"{cells} b={report.b} k_bound={report.k} verdict={report.verdict}"
            if report.subgroup_hints:
                line += " subgroups=" + ",".join(
                    f"{sub}:{hint}" for sub, hint in report.subgroup_hints
                )
            out.write(line + "\n")
        summary = " ".join(f"{k}={n}" for k, n in counts.items()) or "empty"
        out.write(f"summary: total={len(results)} {summary}\n")
    return 0


def _parse_sweep(text: str) -> dict[str, tuple[int, int]]:
    ranges = {}
    for part in text.split(","):
        if "=" not in part or ".." not in part:
            raise ValueError(f"bad sweep component {part!r}; expected name=a..b")
        name, span = part.split("=", 1)
        name = name.strip()
        if name in ranges:
            raise ValueError(f"--sweep gives {name!r} more than once")
        lo, hi = (_flag_int(bound, f"--sweep {name!r}") for bound in span.split("..", 1))
        if min(lo, hi) < 0:
            raise ValueError(f"--sweep {name!r} has a negative bound in {lo}..{hi}")
        if lo > hi:
            raise ValueError(f"--sweep {name!r} range {lo}..{hi} is reversed")
        ranges[name] = (lo, hi)
    return ranges


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each command's parser, by command name."""
    parser = argparse.ArgumentParser(
        prog="spinact",
        description="Exact nonsmoothability obstruction checker for involutions "
        "and Klein four-group actions on spin 4-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the obstruction checker on a scenario")
    p_check.add_argument("--input", required=True, help="scenario JSON file")

    p_inv = sub.add_parser("invariants", help="report invariants of a scenario")
    p_inv.add_argument("--input", required=True)

    p_enum = sub.add_parser("enumerate", help="sweep a template parameter grid")
    p_enum.add_argument("--template", choices=("z2", "klein"), required=True)
    p_enum.add_argument(
        "--sweep",
        required=True,
        help="ranges like l=3..9,k=0..3 (z2) or l1=3..4,l2=3..4,k=1..2 (klein)",
    )
    # accepted so existing command lines keep working; points run serially,
    # so run_enumerate only checks that the value is a count
    p_enum.add_argument("--jobs", default="1")
    for p in (p_check, p_inv, p_enum):
        p.add_argument("--format", choices=(TEXT, STRUCTURED), default=TEXT)
    return parser, {
        "check": p_check,
        "invariants": p_inv,
        "enumerate": p_enum,
    }


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    # parse_args leaves a parser as it was, so one build serves every main
    # call of a process; a one-shot `spinact` command builds it once either way
    return _build_parsers()


def _parse_args(argv) -> argparse.Namespace:
    """The namespace for `argv`, parsed once. A line whose first string
    names a command goes to that command's parser alone, so its help,
    usage and errors are the command's, `spinact check: error: ...` for
    strings it leaves over among them. Every other line (no strings, a
    help flag, an unknown command, a leading option or `--`) goes to the
    top-level parser."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parse_args(argv)
    runners = {
        "check": run_check,
        "invariants": run_invariants,
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
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

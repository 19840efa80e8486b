"""Seeded inputs and answer keys for the spinact benchmark.

Every scenario file is written here from its construction (template
parameters, or the -E8 / hyperbolic blocks a custom form was built from),
and the answer key comes from the same construction by closed forms. No
function of spinact is used, so a wrong library result shows up as a
mismatch instead of being copied into the key.

Closed forms used by the keys (b is the positive index of the form on the
joint fixed sublattice of the sign-twisted generator operators):

- z2(l, k): b = 0, signature -16k, bound k.
- klein(l1, l2, k): b = 0, signature -32k, twisted index 0, bound k.
- A custom form Q = U^T (a(-E8) + hH) U in a free orbit of size m adds
  b_plus(Q) = h to b and m * sig(Q) = -8am to the signature.
- The verdict is nonsmoothable exactly when every hypothesis holds (all
  inputs here satisfy them) and b < bound.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

NONSMOOTHABLE = "nonsmoothable"
NO_OBSTRUCTION = "no_obstruction"

SMOOTHABLE = "smoothable_by_construction"

# Dynkin graph of E8 (same labelling as any other choice: the form is
# determined up to isometry by the graph).
_E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))


@dataclass
class Op:
    """One CLI command of a workload and the answer it must print."""

    index: int
    argv: list[str]
    key: dict
    points: int  # scenarios decided: 1 per check, grid size per enumerate
    cost: float = 0.0  # rough relative cost, to pick cheap ops for warm-up
    summary: str = ""
    library_check: dict = field(default_factory=dict)


def _verdict(b: int, bound: int) -> str:
    return NONSMOOTHABLE if b < bound else NO_OBSTRUCTION


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------


def _doc(group, summands, gen1, gen2=None) -> dict:
    doc = {
        "schema_version": 1,
        "group": group,
        "summands": summands,
        "generator1": gen1,
    }
    if gen2 is not None:
        doc["generator2"] = gen2
    return doc


def z2_doc(l: int, k: int) -> dict:
    """l rotated S2xS2 summands and k pairs of -E8 pieces swapped."""
    summands = [{"id": f"s{i}", "kind": "s2xs2"} for i in range(l)]
    summands += [{"id": f"w{i}", "kind": "minus_e8"} for i in range(2 * k)]
    gen = {
        "permutation": [[f"w{i}", f"w{k + i}"] for i in range(k)],
        "local": {f"s{i}": "rotate_first" for i in range(l)},
    }
    return _doc("Z2", summands, gen)


def klein_doc(l1: int, l2: int, k: int) -> dict:
    """Core plus two rotated chains and four -E8 clusters in one free orbit."""
    summands = [{"id": "core", "kind": "s2xs2"}]
    summands += [{"id": f"a{i}", "kind": "s2xs2"} for i in range(2 * l1)]
    summands += [{"id": f"b{i}", "kind": "s2xs2"} for i in range(2 * l2)]
    for c in range(4):
        summands += [{"id": f"w{c}_{i}", "kind": "minus_e8"} for i in range(k)]
    gen1 = {
        "permutation": [[f"b{2 * i}", f"b{2 * i + 1}"] for i in range(l2)]
        + [[f"w0_{i}", f"w1_{i}"] for i in range(k)]
        + [[f"w2_{i}", f"w3_{i}"] for i in range(k)],
        "local": {"core": "rotate_first"}
        | {f"a{i}": "rotate_first" for i in range(2 * l1)},
    }
    gen2 = {
        "permutation": [[f"a{2 * i}", f"a{2 * i + 1}"] for i in range(l1)]
        + [[f"w0_{i}", f"w2_{i}"] for i in range(k)]
        + [[f"w1_{i}", f"w3_{i}"] for i in range(k)],
        "local": {"core": "rotate_second"}
        | {f"b{i}": "rotate_second" for i in range(2 * l2)},
    }
    return _doc("Z2xZ2", summands, gen1, gen2)


def block_gram(a: int, h: int) -> list[list[int]]:
    """Gram matrix of a(-E8) + hH, block diagonal."""
    n = 8 * a + 2 * h
    g = [[0] * n for _ in range(n)]
    for blk in range(a):
        o = 8 * blk
        for i in range(8):
            g[o + i][o + i] = -2
        for x, y in _E8_EDGES:
            g[o + x][o + y] = g[o + y][o + x] = 1
    for blk in range(h):
        o = 8 * a + 2 * blk
        g[o][o + 1] = g[o + 1][o] = 1
    return g


def scrambled_gram(rng: random.Random, a: int, h: int, target: int = 150):
    """A dense Gram matrix congruent to a(-E8) + hH over the integers.

    Applies random symmetric elementary moves (add +-1 times basis vector i
    to basis vector j), which are unimodular basis changes: at least 3n of
    them, then more until the largest entry reaches `target`. About 95% of
    the entries end up nonzero. Evenness, unimodularity, b_plus = h and
    signature -8a are preserved by construction.
    """
    g = block_gram(a, h)
    n = len(g)
    for step in range(40 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for r in range(n):
            g[r][j] += c * g[r][i]
        for t in range(n):
            g[j][t] += c * g[i][t]
        if step >= 3 * n and max(abs(x) for row in g for x in row) >= target:
            break
    return g


# ---------------------------------------------------------------------------
# large-templates: one check per drawn template
# ---------------------------------------------------------------------------

# Fixed strata (k, l) for z2 and (k, l1 + l2) for klein: ranks 40-180
# (klein 62-122), 10 of 13 draws with k >= 1. The seed splits l1 + l2 by
# at most one either way of the middle; the z2 sizes are fixed. So every
# seed draws a pool of nearly the same cost, and the spread between runs
# comes from the program and the host. One pass takes about 8 calibrated
# seconds (see run.py), so a 25 s run makes three passes, and each
# command's median is over that many. The pool is odd-sized, so the
# median latency is the median time of one command, not a mean of two.
_Z2_STRATA = ((1, 12), (2, 14), (0, 40), (3, 26), (1, 52), (2, 54), (1, 72), (1, 82))
_KLEIN_STRATA = ((1, 7), (1, 11), (0, 24), (2, 13), (1, 22))


def _cost(n: int, r: int) -> float:
    # measured shape of the dense path: restricted form ~r^2 n^2, the
    # isometry products ~n^3
    return 6e-8 * r * r * n * n + 1.8e-7 * n**3


def _check_key(b2, signature, b, bound, twisted=None) -> dict:
    return {
        "command": "check",
        "exit": 0,
        "b2": b2,
        "signature": signature,
        "b": b,
        "k": str(bound),
        "verdict": _verdict(b, bound),
        "twisted": twisted,
    }


def large_templates(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for family, strata in (("z2", _Z2_STRATA), ("klein", _KLEIN_STRATA)):
        for k, size in strata:
            if family == "z2":
                l = max(1, 3 * k, size)
                doc = z2_doc(l, k)
                n = 2 * l + 16 * k
                key = _check_key(n, -16 * k, 0, k)
                name = f"z2_l{l}_k{k}"
                params = (l, k)
            else:
                l1 = max(1, 3 * k, size // 2 + rng.choice((-1, 0, 1)))
                l2 = max(1, 3 * k, size - l1)
                doc = klein_doc(l1, l2, k)
                n = 2 + 4 * (l1 + l2) + 32 * k
                key = _check_key(n, -32 * k, 0, k, twisted="0")
                name = f"klein_l{l1}_{l2}_k{k}"
                params = (l1, l2, k)
            path = workdir / f"{len(ops):02d}_{name}.json"
            path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
            ops.append(
                Op(
                    len(ops),
                    ["check", "--input", str(path)],
                    key,
                    points=1,
                    cost=_cost(n, 8 * k) * (3 if family == "klein" else 1),
                    summary=name,
                    library_check={"template": family, "params": params},
                )
            )
    return ops


# ---------------------------------------------------------------------------
# sweep: enumerate calls at --jobs 2 over small template grids
# ---------------------------------------------------------------------------

SWEEP_JOBS = 2


def _enumerate_key(template: str, ranges: dict) -> tuple[str, int]:
    """Exact stdout of `enumerate` in text format, from the closed forms."""
    lines = []
    counts: dict[str, int] = {}
    if template == "z2":
        for l in range(ranges["l"][0], ranges["l"][1] + 1):
            for k in range(ranges["k"][0], ranges["k"][1] + 1):
                if l >= 3 * k:
                    v = _verdict(0, k)
                    counts[v] = counts.get(v, 0) + 1
                    lines.append(f"l={l} k={k} b=0 k_bound={k} verdict={v}")
    else:
        hints = ",".join(f"{g}:{SMOOTHABLE}" for g in ("gen1", "gen2", "diagonal"))
        for l1 in range(ranges["l1"][0], ranges["l1"][1] + 1):
            for l2 in range(ranges["l2"][0], ranges["l2"][1] + 1):
                for k in range(ranges["k"][0], ranges["k"][1] + 1):
                    if l1 >= 3 * k and l2 >= 3 * k:
                        v = _verdict(0, k)
                        counts[v] = counts.get(v, 0) + 1
                        lines.append(
                            f"l1={l1} l2={l2} k={k} b=0 k_bound={k} verdict={v} "
                            f"subgroups={hints}"
                        )
    summary = " ".join(f"{v}={counts[v]}" for v in sorted(counts))
    lines.append(f"summary: total={len(lines)} {summary}")
    return "\n".join(lines) + "\n", len(lines) - 1


def _sweep_arg(ranges: dict) -> str:
    return ",".join(f"{name}={lo}..{hi}" for name, (lo, hi) in ranges.items())


def enumerate_op(index: int, template: str, ranges: dict, jobs: int) -> Op:
    text, points = _enumerate_key(template, ranges)
    argv = [
        "enumerate",
        "--template",
        template,
        "--sweep",
        _sweep_arg(ranges),
        "--jobs",
        str(jobs),
    ]
    key = {"command": "enumerate", "exit": 0, "stdout": text}
    if template == "z2":
        cost = sum(
            _cost(2 * l + 16 * k, 8 * k)
            for l in range(ranges["l"][0], ranges["l"][1] + 1)
            for k in range(ranges["k"][0], ranges["k"][1] + 1)
        )
    else:
        cost = 3.0 * points * _cost(2 * sum(ranges["l1"] + ranges["l2"]) + 18, 8)
    return Op(index, argv, key, points, cost, f"{template} {_sweep_arg(ranges)}")


def sweep(rng: random.Random, workdir: Path) -> list[Op]:
    # Nine grids of about equal cost (0.6-0.8 calibrated seconds each), so
    # that the latency figures are quantiles of one cluster of samples:
    # at --jobs 2 a command's time varies by about 7% between runs, and in
    # a pool of unequal commands p50 and the tail would be order
    # statistics at the edge between two commands. The grids are fixed:
    # the seed orients each Klein grid (which generator carries the chain
    # of two lengths) and orders the pool, so every seed runs nearly the
    # same work.
    ops = []
    for lo, hi, k_hi in ((10, 19, 1), (20, 24, 1), (25, 28, 1), (22, 23, 2)):
        ops.append(enumerate_op(len(ops), "z2", {"l": (lo, hi), "k": (0, k_hi)}, SWEEP_JOBS))
    for chain, other in ((5, 5), (6, 4), (7, 3), (4, 6), (3, 7)):
        spans = [(chain, chain + 1), (other, other)]
        rng.shuffle(spans)
        ranges = {"l1": spans[0], "l2": spans[1], "k": (0, 1)}
        ops.append(enumerate_op(len(ops), "klein", ranges, SWEEP_JOBS))
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op.index = i
    return ops


def jobs_pair(rng: random.Random) -> tuple[Op, Op]:
    """The same Klein grid at --jobs 1 and --jobs 2, for the speedup figure."""
    a = 3 + rng.randrange(2)
    ranges = {"l1": (a, a + 1), "l2": (3, 3), "k": (0, 1)}
    return enumerate_op(0, "klein", ranges, 1), enumerate_op(1, "klein", ranges, 2)


# ---------------------------------------------------------------------------
# custom-forms: check then invariants on dense unimodular custom summands
# ---------------------------------------------------------------------------


# Fixed shapes; the seed draws the basis changes, the local labels and
# which chain is longer, none of which changes the cost much.
# Z2: (rotated spheres, [(a, h) per swapped custom pair]).
_CUSTOM_Z2 = ((3, ((1, 1),)), (4, ((2, 0),)), (2, ((1, 2), (1, 0))), (5, ((2, 2),)))
# Klein: (l1, l2, h) with a = 1: one free 4-orbit of a(-E8) + hH.
_CUSTOM_KLEIN = ((1, 1, 0), (1, 2, 1), (2, 1, 2), (2, 2, 1))


def _custom_z2(rng: random.Random, l: int, pairs):
    summands = [{"id": f"s{i}", "kind": "s2xs2"} for i in range(l)]
    local = {f"s{i}": rng.choice(("rotate_first", "rotate_second")) for i in range(l)}
    perm = []
    for p, (a, h) in enumerate(pairs):
        gram = scrambled_gram(rng, a, h)
        summands += [
            {"id": f"q{p}_{side}", "kind": "custom", "gram": gram} for side in (0, 1)
        ]
        perm.append([f"q{p}_0", f"q{p}_1"])
    doc = _doc("Z2", summands, {"permutation": perm, "local": local})
    b = sum(h for _, h in pairs)
    bound = sum(a for a, _ in pairs)  # -signature/16 = sum 2*8a/16
    b2 = 2 * l + sum(2 * (8 * a + 2 * h) for a, h in pairs)
    signature = -16 * bound
    check = _check_key(b2, signature, b, bound)
    inv = {
        "command": "invariants",
        "exit": 0,
        "b2": b2,
        "signature": signature,
        "elements": {"gen1": b},
        "joint": b,
    }
    return doc, check, inv, b2


def _custom_klein(rng: random.Random, l1: int, l2: int, h: int):
    if rng.random() < 0.5:
        l1, l2 = l2, l1
    a = 1
    gram = scrambled_gram(rng, a, h)
    summands = [{"id": "core", "kind": "s2xs2"}]
    summands += [{"id": f"a{i}", "kind": "s2xs2"} for i in range(2 * l1)]
    summands += [{"id": f"b{i}", "kind": "s2xs2"} for i in range(2 * l2)]
    summands += [{"id": f"q{c}", "kind": "custom", "gram": gram} for c in range(4)]
    gen1 = {
        "permutation": [[f"b{2 * i}", f"b{2 * i + 1}"] for i in range(l2)]
        + [["q0", "q1"], ["q2", "q3"]],
        "local": {"core": "rotate_first"}
        | {f"a{i}": "rotate_first" for i in range(2 * l1)},
    }
    gen2 = {
        "permutation": [[f"a{2 * i}", f"a{2 * i + 1}"] for i in range(l1)]
        + [["q0", "q2"], ["q1", "q3"]],
        "local": {"core": "rotate_second"}
        | {f"b{i}": "rotate_second" for i in range(2 * l2)},
    }
    doc = _doc("Z2xZ2", summands, gen1, gen2)
    b2 = 2 + 4 * (l1 + l2) + 4 * (8 * a + 2 * h)
    signature = -32 * a
    check = _check_key(b2, signature, h, a, twisted="0")
    # Per element, a swapped pair of copies of a form F adds b_plus(F): gen1
    # swaps the l2 sphere pairs of chain b and two pairs of the custom orbit.
    # The joint sublattice of all three twisted operators is 0, since a
    # vector fixed by -gen1 and -gen2 is negated by -composition.
    inv = {
        "command": "invariants",
        "exit": 0,
        "b2": b2,
        "signature": signature,
        "elements": {
            "gen1": l2 + 2 * h,
            "gen2": l1 + 2 * h,
            "composition": l1 + l2 + 2 * h,
        },
        "joint": 0,
    }
    return doc, check, inv, b2


def custom_forms(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for s in range(8):
        if s % 2 == 0:
            doc, check, inv, b2 = _custom_z2(rng, *_CUSTOM_Z2[s // 2])
        else:
            doc, check, inv, b2 = _custom_klein(rng, *_CUSTOM_KLEIN[s // 2])
        path = workdir / f"{s:02d}_custom_{doc['group']}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
        name = f"custom {doc['group']} rank {b2}"
        ops.append(
            Op(len(ops), ["check", "--input", str(path)], check, 1, b2**3, name)
        )
        ops.append(
            Op(
                len(ops),
                ["invariants", "--input", str(path)],
                inv,
                0,
                3 * b2**3,
                name,
            )
        )
    return ops


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The op pool of a workload, in the order a run passes through it."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)


BUILDERS = {"large-templates": large_templates, "sweep": sweep, "custom-forms": custom_forms}
WORKLOADS = tuple(BUILDERS)


# ---------------------------------------------------------------------------
# verification of CLI output against the key
# ---------------------------------------------------------------------------


def _field(lines: list[str], prefix: str) -> str | None:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def verify(key: dict, rc: int, stdout: str) -> list[str]:
    """Mismatches between one command's exit code and output and its key."""
    problems = []
    if rc != key["exit"]:
        problems.append(f"exit {rc} != {key['exit']}")
    cmd = key["command"]
    if cmd == "enumerate":
        if stdout != key["stdout"]:
            problems.append("enumerate output differs from the key")
        return problems
    lines = stdout.splitlines()
    head = _field(lines, "b2:")
    want_head = f"{key['b2']}   signature: {key['signature']}"
    if head is None or not head.startswith(want_head):
        problems.append(f"b2/signature line {head!r} != {want_head!r}")
    if cmd == "check":
        for prefix, want in (
            ("b_plus on fixed sublattice:", str(key["b"])),
            ("lower bound k:", key["k"]),
            ("verdict:", key["verdict"]),
        ):
            got = _field(lines, prefix)
            if got != want:
                problems.append(f"{prefix} {got!r} != {want!r}")
        if key["twisted"] is not None:
            got = _field(lines, "twisted index:")
            if got != key["twisted"]:
                problems.append(f"twisted index {got!r} != {key['twisted']!r}")
        return problems
    for element, b in key["elements"].items():
        line = _field(lines, f"{element}:")
        if line is None or not line.endswith(f"b_plus_invariant {b}"):
            problems.append(f"{element}: {line!r} does not end in b_plus_invariant {b}")
    got = _field(lines, "joint b_plus_invariant:")
    if got != str(key["joint"]):
        problems.append(f"joint b_plus_invariant {got!r} != {key['joint']}")
    return problems

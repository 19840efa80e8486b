#!/usr/bin/env python3
"""Benchmark of the spinact command line, driven in-process.

    python3 perfbench/run.py --workload large-templates --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout: the harness imports spinact from
./src and writes its generated scenario files under ./.perfbench-work.

One client runs a closed loop over a seeded pool of CLI commands, calling
`spinact.cli.main(argv, out=...)` and checking every answer against a key
derived from the input's construction (see workloads.py). With --trace 0
it reports the end-to-end metrics; with --trace 1 it runs every command
untraced and then traced, reports the per-layer metrics and the tracing
overhead, and checks that both runs print the same bytes.

The host is a shared VM: other tenants take its cores for a while, and
its speed drifts by up to 1.6x within minutes. End-to-end times are
therefore the CPU time of this process (all its threads), which leaves
out time the cores were taken away, and each is scaled by
PROBE_REFERENCE_S over the mean CPU time of the two calibration loops
(`probe`, no spinact code) run just before and after it: the metrics read
as time on an otherwise idle host where the probe takes PROBE_REFERENCE_S.
The unscaled CPU and wall-clock figures are printed above the result line.
The last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 20
# About the median probe time seen on the host the baseline was measured
# on (2-vCPU Xeon, where it ranged 40-65 ms of CPU time).
PROBE_REFERENCE_S = 0.050
# a run on a host much slower than the probe shows stops before this
# multiple of --seconds on the wall clock
WALL_LIMIT = 1.5
JOBS_ROUNDS = 3  # alternations of the --jobs 1 / --jobs 2 sweep per traced run
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "t0 = time.process_time()\n"
    "import spinact.cli\n"
    "spinact.cli.build_parser()\n"
    "print(repr(time.process_time() - t0))\n"
)

# time in these is rendering and file reads; their children are the library
CLI_RUNNERS = ("cli.run_check", "cli.run_invariants", "cli.run_enumerate", "cli.run_repring")


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def load_cli():
    """Import spinact.cli from this checkout's src/, or exit 2."""
    if not (SRC / "spinact" / "cli.py").is_file():
        sys.stderr.write(f"error: no spinact sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import spinact.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "spinact":
        sys.stderr.write(f"error: imported spinact from {cli.__file__}, not {SRC}\n")
        sys.exit(2)
    return cli


def probe() -> float:
    """CPU time of a fixed calibration loop that uses no spinact code.

    It does the two kinds of work spinact spends its time on: Fraction
    elimination on a dense matrix and an integer matrix product, in
    40-65 ms. Host slowdowns move it and the commands alike.
    """
    t0 = time.process_time()
    rng = random.Random(7)
    n = 22
    m = [[Fraction(rng.randint(-99, 99)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    n = 60
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in a]
    return time.process_time() - t0


def calibrated(t: float, before: float, after: float) -> float:
    """`t` scaled by the probe's reference time over the probes around it."""
    return t * 2 * PROBE_REFERENCE_S / (before + after)


class Timing(NamedTuple):
    wall: float  # seconds on the wall clock
    cpu: float  # CPU seconds of the process, all threads


class Runner:
    """Runs ops through the CLI and checks each answer."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.nondeterministic = 0
        self.reports: list[str] = []

    def run(self, op: workloads.Op, digest_key=None) -> Timing:
        out, err = io.StringIO(), io.StringIO()
        tb = None
        with redirect_stderr(err):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = self.cli.main(list(op.argv), out=out)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed op, not a crash of the run
                rc = None
                tb = traceback.format_exc()
            elapsed = Timing(time.perf_counter() - t0, time.process_time() - c0)
        stdout = out.getvalue()
        self.attempted += 1
        problems = workloads.verify(op.key, rc, stdout)
        if rc == 1 or tb is not None:
            problems.append(tb or err.getvalue().strip() or "exit 1")
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        key = op.index if digest_key is None else digest_key
        if self.digests.setdefault(key, digest) != digest:
            self.nondeterministic += 1
            problems.append("stdout differs from an earlier run of the same command")
        if problems:
            self.failed += 1
            if len(self.reports) < 5:
                self.reports.append(f"{' '.join(op.argv)}: {'; '.join(problems)}")
        return elapsed

    def loop(self, ops, seconds: float, step, spent=None) -> list[tuple[workloads.Op, object]]:
        """Closed loop of whole passes over the pool, for about `seconds`.

        The pool mixes cheap and costly commands, so a run that stopped
        inside a pass would report a different mix from run to run. The
        loop stops after the pass whose end is nearest to `seconds`, as
        `spent()` counts them (default: the wall time of the loop), or
        before a pass that would end past WALL_LIMIT * `seconds` on the
        wall clock. `step(op, i)` runs the i-th command.
        """
        start = time.perf_counter()
        spent = spent or (lambda: time.perf_counter() - start)
        done = []
        passes = 0
        while True:
            for op in ops:
                done.append((op, step(op, len(done))))
            passes += 1
            elapsed = spent()
            if elapsed + elapsed / passes / 2 >= seconds:
                return done
            wall = time.perf_counter() - start
            if wall + wall / passes >= WALL_LIMIT * seconds:
                return done


def measure_setup() -> tuple[float, float]:
    """Median CPU time of `import spinact.cli` plus `build_parser()` in fresh interpreters.

    Returns (calibrated, raw) medians; a probe runs between spawns.
    """
    code = SETUP_CODE.format(src=str(SRC))
    times, scaled, probes = [], [], [probe()]
    for i in range(SETUP_SPAWNS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        probes.append(probe())
        if i:  # the first spawn warms the page cache and bytecode files
            times.append(float(proc.stdout.strip().splitlines()[-1]))
            scaled.append(calibrated(times[-1], probes[-2], probes[-1]))
    return statistics.median(scaled), statistics.median(times)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def tail(latencies_ms: list[float]) -> tuple[float, float, int, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples, samples beyond). A run too short
    to have eleven samples reports its maximum instead.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    j = n - 11 if n >= 11 else n - 1
    return ordered[j], 100.0 * (j + 1) / n, n, n - 1 - j


def timing_values(ops, done: list[tuple[workloads.Op, float]]) -> tuple[dict, str]:
    """Throughput and latency figures from the (op, seconds) of a run."""
    lat = [t for _, t in done]
    # throughput and p50 from each command's median over the passes, so
    # that a burst of load on the host moves them less than a mean would,
    # and p50 does not fall between two commands' extreme samples
    samples: dict[int, list[float]] = {}
    for op, t in done:
        samples.setdefault(op.index, []).append(t)
    median_t = {i: statistics.median(v) for i, v in samples.items()}
    point_time = sum(median_t[op.index] for op in ops if op.points)
    points = sum(op.points for op in ops)
    tail_ms, pct, n, beyond = tail([t * 1000 for t in lat])
    values = {
        "checks_per_s": len(ops) / sum(median_t.values()),
        "points_per_s": points / point_time,
        "latency_p50_ms": statistics.median(median_t.values()) * 1000,
        "latency_tail_ms": tail_ms,
    }
    return values, f"latency_tail_ms is p{pct:.1f} of {n} commands ({beyond} beyond it)"


def end_to_end(runner: Runner, ops, seconds: float) -> tuple[dict, list[str]]:
    runner.run(min(ops, key=lambda op: op.cost))  # warm-up, not timed
    setup_s, raw_setup_s = measure_setup()
    probes = [probe()]
    scaled = []

    def step(op, _i):
        t = runner.run(op)
        probes.append(probe())
        scaled.append(calibrated(t.cpu, probes[-2], probes[-1]))
        return t, scaled[-1]

    # The run lasts `seconds` of calibrated command time, so the number of
    # passes, and with it the sample behind latency_tail_ms, does not
    # follow the host's speed.
    done = runner.loop(ops, seconds, step, spent=lambda: sum(scaled))
    values, tail_note = timing_values(ops, [(op, scaled) for op, (_t, scaled) in done])
    raw, _ = timing_values(ops, [(op, t.cpu) for op, (t, _scaled) in done])
    wall, _ = timing_values(ops, [(op, t.wall) for op, (t, _scaled) in done])
    values["setup_s"] = setup_s
    raw["setup_s"] = raw_setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: metric(values[name], unit) for name, unit in declared("end_to_end").items()}
    notes = [
        tail_note,
        f"probe median {statistics.median(probes) * 1000:.2f} ms over {len(probes)} probes "
        f"(reference {PROBE_REFERENCE_S * 1000:.0f} ms)",
        "unscaled CPU time: " + ", ".join(f"{name} = {value:.6g}" for name, value in raw.items()),
        "wall clock: " + ", ".join(f"{name} = {value:.6g}" for name, value in wall.items()),
        f"failed_share {runner.failed}/{runner.attempted}",
    ]
    return metrics, notes


def per_layer(runner: Runner, ops, seconds: float, rng: random.Random, spans_path):
    """Each command runs untraced, then traced; the pair gives the overhead."""
    runner.run(min(ops, key=lambda op: op.cost))  # warm-up, not timed
    tracer = layertrace.Tracer()

    def traced_run(op, i, digest_key=None):
        tracer.op_id = i
        tracer.install()
        try:
            return runner.run(op, digest_key)
        finally:
            tracer.uninstall()

    def pair(op, i):
        # alternate which run goes first, so warm caches favour neither
        if i % 2:
            traced = traced_run(op, i)
            return runner.run(op), traced
        return runner.run(op), traced_run(op, i)

    pairs = runner.loop(ops, seconds, pair)
    traced = [(op, t) for op, (_plain, t) in pairs]
    extra = []
    jobs_ops = workloads.jobs_pair(rng)
    for _ in range(JOBS_ROUNDS):
        for op in jobs_ops:
            op_id = -1 - len(extra)
            extra.append((op_id, op, traced_run(op, op_id, ("jobs", op.key["stdout"]))))
    tracer.write(spans_path)

    n = len(traced)
    main_ids = range(n)
    stats = layertrace.summarize(tracer.spans, main_ids)

    def field(name, key):
        return stats.get(name, {}).get(key, 0) / n

    # pool busy share: thread CPU time of obstruction.check inside worker
    # threads over wall time x jobs, for every traced enumerate at --jobs > 1
    jobs_of = {i: _jobs(op) for i, (op, _) in enumerate(traced)}
    jobs_of.update({op_id: _jobs(op) for op_id, op, _t in extra})
    enum_spans = {
        s[0]: s for s in tracer.spans if s[1] == "cli.run_enumerate" and jobs_of.get(s[6], 1) > 1
    }
    busy = sum(s[4] for s in tracer.spans if s[1] == "obstruction.check" and s[5] in enum_spans)
    capacity = sum((s[3] - s[2]) * jobs_of[s[6]] for s in enum_spans.values())

    values = {
        "cli.self_s": sum(field(r, "self_s") for r in CLI_RUNNERS),
        "isometry.restrict_ops": field("isometry.invariant_sublattice", "work"),
        "lattice.signature_ops": field("lattice.signature_profile", "work"),
        "cli.pool_busy_ratio": busy / capacity,
        "cli.jobs_speedup": statistics.median(t.wall for _i, op, t in extra if _jobs(op) == 1)
        / statistics.median(t.wall for _i, op, t in extra if _jobs(op) > 1),
    }
    for name in declared("per_layer"):
        function, _, kind = name.rpartition(".")
        if name not in values and kind in ("self_s", "calls"):
            values[name] = field(function, kind)

    overhead = sum(t.wall for _op, (_p, t) in pairs) / sum(p.wall for _op, (p, _t) in pairs) - 1.0
    values["harness.trace_overhead"] = overhead
    units = declared("per_layer")
    metrics = {name: metric(values[name], unit) for name, unit in units.items()}
    notes = [
        f"{n} commands run untraced then traced; {len(tracer.spans)} spans in {spans_path}",
        f"tracing overhead {overhead:+.1%}",
        f"stdout identical traced vs untraced: {runner.nondeterministic == 0}",
        f"failed_share {runner.failed}/{runner.attempted}",
    ]
    return metrics, notes


def _jobs(op) -> int:
    return int(op.argv[op.argv.index("--jobs") + 1]) if "--jobs" in op.argv else 1


def self_check(cli, workroot: Path) -> int:
    """Key vs library on a small seed, and traced vs untraced stdout bytes."""
    from spinact import equivariant_sum as eq
    from spinact import obstruction as ob
    from spinact import templates

    problems = []
    for name in workloads.WORKLOADS:
        workdir = workroot / f"selfcheck-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            ops = sorted(workloads.build(name, 0, workdir), key=lambda op: op.cost)[:4]
            runner = Runner(cli)
            for op in ops:
                runner.run(op)
            tracer = layertrace.Tracer()
            tracer.install()
            try:
                for op in ops:
                    runner.run(op)
            finally:
                tracer.uninstall()
            if runner.failed:
                problems += runner.reports
            for op in ops:
                key = op.key
                if key["command"] == "check":
                    s = eq.parse_scenario(Path(op.argv[2]).read_text(encoding="utf-8"))
                    if op.library_check:
                        make = getattr(templates, op.library_check["template"] + "_template")
                        if eq.scenario_digest(make(*op.library_check["params"])) != eq.scenario_digest(s):
                            problems.append(f"{op.summary}: file differs from the library template")
                    rep = ob.check(s)
                    got = (rep.b, str(rep.k), rep.verdict, rep.signature, rep.b2)
                    want = (key["b"], key["k"], key["verdict"], key["signature"], key["b2"])
                    if got != want:
                        problems.append(f"{op.summary}: library {got} != key {want}")
                elif key["command"] == "enumerate":
                    for row in key["stdout"].splitlines()[:-1]:
                        cells = dict(c.split("=", 1) for c in row.split()[:4] if "=" in c)
                        if "l1" in cells:
                            s = templates.klein_template(int(cells["l1"]), int(cells["l2"]), int(cells["k"]))
                        else:
                            s = templates.z2_template(int(cells["l"]), int(cells["k"]))
                        rep = ob.check(s)
                        if f"b={rep.b} k_bound={rep.k} verdict={rep.verdict}" not in row:
                            problems.append(f"{row}: library gives b={rep.b} k={rep.k} {rep.verdict}")
            print(f"{name}: {len(ops)} commands, traced and untraced stdout identical: "
                  f"{runner.nondeterministic == 0}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"problem: {p}")
    print("self-check " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = load_cli()
    workroot = ROOT / ".perfbench-work"
    if args.self_check:
        return self_check(cli, workroot)

    workdir = workroot / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(cli)
        if args.trace:
            rng = random.Random(f"jobs:{args.seed}")
            spans_path = workroot / f"spans-{args.workload}-s{args.seed}.jsonl"
            metrics, notes = per_layer(runner, ops, args.seconds, rng, spans_path)
        else:
            metrics, notes = end_to_end(runner, ops, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for report in runner.reports:
        sys.stderr.write(f"failed: {report}\n")
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} commands in the pool")
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

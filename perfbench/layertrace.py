"""Outside-in span tracing of spinact's modules.

`Tracer.install` wraps every public function defined in the layer modules
and rebinds the wrapper at every place the original is bound: the
defining module and each module that did `from .x import name` (for
example `isometry.signature_profile` or `cli.b_plus_invariant`). Private
helpers and `_mat` are not wrapped, so their time counts as self time of
the public function that called them.

Each call records one span (id, name, start, end, thread CPU time,
parent, op id, work count) in a list kept in memory. Spans are recorded
per thread: a thread's own stack gives the parent, and a thread with an
empty stack (a worker of the `enumerate` thread pool) is parented to the
span open on the thread that installed the tracer. Self time of a span
is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "equivariant_sum",
    "lattice",
    "isometry",
    "obstruction",
    "templates",
    "index_parity",
    "rep_ring",
)


def _restrict_ops(args, result) -> int:
    """r^2 n^2: steps of the restricted-form double sum."""
    ops = list(args[0]) if args else []
    n = ops[0].lattice.rank if ops else 0
    return result.rank**2 * n**2


def _signature_ops(args, result) -> int:
    """n^3: size of the dense elimination."""
    return args[0].rank ** 3 if args else 0


# computed work per call, measured where the work happens
WORK = {
    "isometry.invariant_sublattice": _restrict_ops,
    "lattice.signature_profile": _signature_ops,
}


class Tracer:
    def __init__(self, package: str = "spinact"):
        self.package = package
        self.spans: list[tuple] = []
        self.op_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = None
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        work = WORK.get(name)
        perf = time.perf_counter
        cpu = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else -1
            idx = next(tracer._ids)
            stack.append(idx)
            c0 = cpu()
            t0 = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                c1 = cpu()
                stack.pop()
                w = work(args, result) if work is not None and result is not None else 0
                tracer.spans.append((idx, name, t0, t1, c1 - c0, parent, tracer.op_id, w))

        return wrapper

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every binding site."""
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None
            and (mod_name == self.package or mod_name.startswith(self.package + "."))
        ]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patches = []
        for mod in modules:
            for attr, obj in vars(mod).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj, hit[1]))
        return patches

    def install(self) -> None:
        """Bind the wrappers; the thread calling this is the main thread."""
        if self._patches is None:
            self._patches = self._find_patches()
        self._main_stack = self._stack()
        for mod, attr, _original, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _wrapper in self._patches or ():
            setattr(mod, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        children[span[5]].append((span[2], span[3]))
    result = {}
    for idx, _name, t0, t1, *_rest in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result[idx] = (t1 - t0) - covered
    return result


def summarize(spans, op_ids) -> dict:
    """Per function name: calls, self seconds and work, over the given ops."""
    op_ids = set(op_ids)
    mine = [s for s in spans if s[6] in op_ids]
    selfs = self_times(mine)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0})
    for idx, name, *_times, _parent, _op, work in mine:
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[idx]
        entry["work"] += work
    return dict(out)

"""Spans and counters around the calls into each layer of `parh`.

The tracer rebinds public names at their import sites (every `parh`
module global that holds the original function) and patches methods on
their classes.  Each call becomes a span (name, start, end, parent); a
span's self time is its duration minus the time of its child spans.

Calls of the leaf layers (`linalg` kernels and the `exel` product) are
made millions of times, so they are rolled up: one record per (parent
span, name) with a call count and total seconds.  A leaf span is opaque:
layer calls made inside it (for example `Eliminator.add` inside `rank`)
belong to it and are not traced again.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from itertools import count
from time import perf_counter

# Layer functions: (module, name, self-time metric, leaf).
FUNCTIONS = [
    ("parh.linalg", "rank", "linalg.rank_s", True),
    ("parh.linalg", "kernel_basis", "linalg.kernel_s", True),
    ("parh.homology", "partial_homology", "homology.complex_s", False),
    ("parh.homology", "partial_cohomology", "homology.complex_s", False),
    ("parh.homology", "resolution_identity_holds", "homology.homotopy_s", False),
    ("parh.homology", "group_homology", "homology.classical_s", False),
    ("parh.homology", "group_cohomology", "homology.classical_s", False),
    ("parh.groupoid", "build_groupoid", "groupoid.build_s", False),
    ("parh.groupoid", "components", "groupoid.build_s", False),
    ("parh.groupoid", "b_module", "groupoid.module_s", False),
    ("parh.groupoid", "regular_module", "groupoid.module_s", False),
    ("parh.groupoid", "induce_module", "groupoid.module_s", False),
    ("parh.groupoid", "tensor_b_kdelta", "groupoid.tensor_s", False),
    ("parh.groupoid", "tilde_pi", "groupoid.section_s", False),
    ("parh.groupoid", "lambda_delta", "groupoid.section_s", False),
    ("parh.groupoid", "arrow_unit", "groupoid.section_s", False),
    ("parh.zcase", "quotient_check", "zcase.quotient_s", False),
    ("parh.zcase", "cancellation_decompose", "zcase.cancel_s", False),
    ("parh.zcase", "cancellation_reconstructs", "zcase.cancel_s", False),
    ("parh.zcase", "random_cancellation_instance", "zcase.cancel_s", False),
    ("parh.groups", "parse_cayley_table", "groups.build_s", False),
    ("parh.groups", "build_named_group", "groups.build_s", False),
    ("parh.cli", "main", "cli.self_s", False),
]

# Layer methods: (module, class, method, self-time metric, leaf).
METHODS = [
    ("parh.linalg", "Eliminator", "add", "linalg.elim_s", True),
    ("parh.linalg", "Eliminator", "reduce", "linalg.elim_s", True),
    ("parh.linalg", "SparseMatrix", "__mul__", "linalg.matmul_s", True),
    ("parh.linalg", "SparseMatrix", "apply", "linalg.apply_s", True),
    ("parh.exel", "AlgebraElement", "__mul__", "exel.mul_s", True),
    ("parh.homology", "ChainComplex", "d2_zero", "homology.d2_s", False),
    ("parh.homology", "_CoComplex", "d2_zero", "homology.d2_s", False),
    ("parh.zcase", "VkSpan", "__init__", "zcase.vkspan_s", False),
]

TIME_METRICS = sorted({m for _, _, m, _ in FUNCTIONS}
                      | {m for _, _, _, m, _ in METHODS})


def _count_rank(counts, args, result):
    m = args[0]
    counts["linalg.rank_calls"] += 1
    counts["linalg.rank_cols"] += m.ncols
    counts["linalg.rank_nnz"] += m.nnz()
    counts["linalg.rank_total"] += result


def _count_mul(counts, args, result):
    a, b = args
    counts["exel.mul_calls"] += 1
    if type(b) is type(a):
        counts["exel.mul_terms"] += len(a.coeffs) * len(b.coeffs)


def _count_vkspan(counts, args, result):
    counts["zcase.vkspan_cols"] += len(args[0].columns)


def _count_calls(key):
    def bump(counts, args, result):
        counts[key] += 1
    return bump


# Counters recorded at the same boundaries, keyed by self-time metric.
COUNTERS = {
    "linalg.rank_s": _count_rank,
    "linalg.elim_s": _count_calls("linalg.elim_calls"),
    "linalg.matmul_s": _count_calls("linalg.matmul_calls"),
    "linalg.apply_s": _count_calls("linalg.apply_calls"),
    "homology.homotopy_s": _count_calls("homology.homotopy_calls"),
    "exel.mul_s": _count_mul,
    "zcase.vkspan_s": _count_vkspan,
}

COUNT_METRICS = ["exel.mul_calls", "exel.mul_terms", "homology.homotopy_calls",
                 "linalg.apply_calls", "linalg.elim_calls", "linalg.matmul_calls",
                 "linalg.rank_calls", "linalg.rank_cols", "linalg.rank_nnz",
                 "zcase.vkspan_cols"]


class Tracer:
    """Spans and counters of one process; install, run, then uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []      # (id, name, start, end, parent id)
        self.rollups: dict = defaultdict(lambda: [0, 0.0])  # (parent, name)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []      # [span id, start, child seconds]
        self._ids = count()
        self._opaque = False
        self._patched: list[tuple] = []

    def _wrap(self, fn, name: str, metric: str, leaf: bool):
        counter = COUNTERS.get(metric)
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        tracer = self

        def traced(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            span_id = None if leaf else next(tracer._ids)
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            if leaf:
                tracer._opaque = True
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._opaque = False
                stack.pop()
                duration = end - frame[1]
                self_s[metric] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if leaf:
                    roll = tracer.rollups[(parent, name)]
                    roll[0] += 1
                    roll[1] += duration
                else:
                    spans.append((span_id, name, frame[1], end, parent))
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every layer function and method to its traced version."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "parh" or n.startswith("parh.")]
        for mod_name, name, metric, leaf in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], name)
            traced = self._wrap(orig, f"{mod_name}.{name}", metric, leaf)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, traced)
        for mod_name, cls_name, meth, metric, leaf in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, f"{cls_name}.{meth}",
                                          metric, leaf))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patched):
            setattr(obj, attr, orig)
        self._patched.clear()

    @contextmanager
    def root(self, name: str):
        """Trace one benchmark pass as a root span.

        The yielded dict receives the pass's wall time and the part of it
        that layer spans cover.
        """
        frame = [next(self._ids), perf_counter(), 0.0]
        self._stack.append(frame)
        out: dict = {}
        try:
            yield out
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((frame[0], name, frame[1], end, None))
            out["wall_s"] = end - frame[1]
            out["attributed_s"] = frame[2]

    def take(self) -> tuple[dict, dict]:
        """Self times and counters since the last take; resets both."""
        out = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        return out

    def dump(self) -> dict:
        """Everything recorded, in a form `json.dump` accepts."""
        return {
            "spans": [list(s) for s in self.spans],
            "rollups": [[parent, name, calls, seconds] for (parent, name),
                        (calls, seconds) in self.rollups.items()],
        }

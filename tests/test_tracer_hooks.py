"""The benchmark's tracer (perfbench/spans.py) patches parh by name.

It wraps ``SparseMatrix.__mul__`` and ``SparseMatrix.apply`` on the class
and counts ``rank`` calls through ``nnz()``; it wraps ``VkSpan.__init__``,
found in the class's own ``__dict__``, and counts the span's columns by
``len(span.columns)``.  A refactor that moves or drops one of them must
fail here, not only under ``run.py --trace 1``.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

import parh.cli  # noqa: F401  (the tracer patches every loaded parh module)
from parh import linalg
from parh.linalg import QQ, SparseMatrix
from parh.zcase import VkSpan

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_counts_and_uninstalls():
    spans = _spans()
    originals = {name: SparseMatrix.__dict__[name]
                 for name in ("__mul__", "apply")}
    m = SparseMatrix.from_dense(QQ, [[1, 2], [2, 4], [0, 1]])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert m * SparseMatrix.identity(QQ, 2) == m
        assert m.apply({0: 1}) == {0: 1, 1: 2}
        assert linalg.rank(m) == 2
        _, counts = tracer.take()
    finally:
        tracer.uninstall()
    assert counts["linalg.matmul_calls"] == 1
    assert counts["linalg.apply_calls"] == 1
    assert counts["linalg.rank_calls"] == 1
    assert {name: SparseMatrix.__dict__[name] for name in originals} == originals

    counts = defaultdict(int)
    spans._count_rank(counts, (m,), 2)
    assert dict(counts) == {"linalg.rank_calls": 1, "linalg.rank_cols": 2,
                            "linalg.rank_nnz": 5, "linalg.rank_total": 2}


def test_benchmark_tracer_counts_level_span_columns():
    spans = _spans()
    init = VkSpan.__dict__["__init__"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        span = VkSpan(2, 8)
        self_s, counts = tracer.take()
    finally:
        tracer.uninstall()
    assert span.rank == 5888
    assert counts["zcase.vkspan_cols"] == 12288
    assert "zcase.vkspan_s" in self_s
    assert VkSpan.__dict__["__init__"] is init

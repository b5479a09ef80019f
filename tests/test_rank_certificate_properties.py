"""Property test of the mod-p rank certificate of ``ChainComplex``, drawn
by Hypothesis.

Each draw is an integer complex C_0 <- C_1 <- ... with d^2 = 0: d_1 is a
random integer matrix A, and each further d_n has as columns a basis of
ker d_(n-1) over Q, cleared to integers and scaled column by column by
integers, some of them 0 or multiples of ``RANK_PRIME``, plus at times
one integer combination of those columns.  So ranks drop modulo the
prime, and homology appears, in some draws and not in others.
``homology_dims`` over Q, which returns the ranks modulo the prime when
they certify, must equal the dimensions from the exact ranks, and it must
certify exactly when the exact homology vanishes in positive degrees and
no rank drops modulo the prime.  Examples are derandomized, so every run
sees the same inputs.
"""

from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import matrix_entries
from parh import homology
from parh.homology import RANK_PRIME, ChainComplex
from parh.linalg import GF, QQ, SparseMatrix, kernel_basis, rank

PROPERTY = settings(derandomize=True, max_examples=120, deadline=None)
MOD_P = GF(RANK_PRIME)
SCALARS = st.one_of(st.integers(-3, 3),
                    st.integers(-2, 2).map(lambda k: k * RANK_PRIME))


def _integral_kernel(d: SparseMatrix) -> list[dict]:
    """A basis of ker d over Q, each vector cleared of denominators."""
    out = []
    for vec in kernel_basis(d):
        den = lcm(*(Fraction(v).denominator for v in vec.values()))
        out.append({r: int(v * den) for r, v in vec.items()})
    return out


@st.composite
def complexes(draw) -> ChainComplex:
    dims = {0: draw(st.integers(1, 4)), 1: draw(st.integers(1, 6))}
    rows = [[draw(SCALARS) for _ in range(dims[1])] for _ in range(dims[0])]
    diffs = {1: SparseMatrix.from_dense(QQ, rows)}
    for n in range(2, draw(st.integers(2, 3)) + 1):
        kern = _integral_kernel(diffs[n - 1])
        cols = []
        for vec in kern:
            c = draw(SCALARS)
            cols.append({r: c * v for r, v in vec.items() if c})
        if kern and draw(st.booleans()):
            combo = {}
            for vec in kern:
                c = draw(SCALARS)
                for r, v in vec.items():
                    combo[r] = combo.get(r, 0) + c * v
            cols.append({r: v for r, v in combo.items() if v})
        dims[n] = len(cols)
        entries = {(r, j): v for j, col in enumerate(cols) for r, v in col.items()}
        diffs[n] = SparseMatrix(QQ, dims[n - 1], dims[n], entries)
    return ChainComplex(QQ, dims, diffs)


def _mod_p(d: SparseMatrix) -> SparseMatrix:
    entries = {k: v % RANK_PRIME for k, v in matrix_entries(d).items()
               if v % RANK_PRIME}
    return SparseMatrix(MOD_P, d.nrows, d.ncols, entries)


@PROPERTY
@given(complexes())
def test_certified_ranks_equal_the_exact_ranks(cx):
    top = max(cx.diffs) - 1
    exact = {n: rank(d) for n, d in cx.diffs.items()}
    want = [cx.dim(n) - exact.get(n, 0) - exact.get(n + 1, 0)
            for n in range(top + 1)]
    assert cx.d2_zero()
    fields = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "rank",
                   lambda m, **kw: fields.append(m.field) or rank(m, **kw))
        assert cx.homology_dims(top) == want
    certified = not any(want[1:]) and all(
        rank(_mod_p(d)) == exact[n] for n, d in cx.diffs.items())
    tried = [MOD_P] * len(cx.diffs)
    assert fields == (tried if certified else tried + [QQ] * len(cx.diffs))

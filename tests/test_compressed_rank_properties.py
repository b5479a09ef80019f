"""Property tests of compressed ranks and unit pivots, drawn by Hypothesis.

Each complex is C_0 <- C_1 <- ... with d^2 = 0 over Q, F2 or F3: d_1 is
a random matrix, and each further d_n has as columns a basis of
ker d_(n-1), each vector scaled (some by 0), plus at times combinations
of that basis, in a drawn order.  Over Q every entry is an integer and
some scalars are multiples of ``RANK_PRIME``, so the mod-p ranks drop in
some draws.  ``ChainComplex`` ranks such a complex bottom up, dropping
from d_(n+1) the rows its elimination of d_n absorbed; each rank must
equal plain ``rank`` and ``dense_reference`` of the whole matrix, over
the field and, over Q, modulo the prime.  Examples are derandomized, so
every run sees the same inputs.
"""

from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense_kernel, matrix_entries, to_dense
from parh import homology, linalg
from parh.homology import RANK_PRIME, ChainComplex
from parh.linalg import GF, QQ, Eliminator, SparseMatrix, kernel_basis, rank

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
FIELDS = [QQ, GF(2), GF(3)]
MOD_P = GF(RANK_PRIME)


def _scalars(field):
    if field is QQ:
        return st.one_of(st.integers(-3, 3),
                         st.integers(-2, 2).map(lambda k: k * RANK_PRIME))
    return st.integers(0, field.char - 1)


def _kernel(d: SparseMatrix) -> list[dict]:
    """A basis of ker d; over Q each vector is cleared of denominators."""
    if d.field.char:
        return kernel_basis(d)
    out = []
    for vec in kernel_basis(d):
        den = lcm(*(Fraction(v).denominator for v in vec.values()))
        out.append({r: int(v * den) for r, v in vec.items()})
    return out


@st.composite
def complexes(draw) -> ChainComplex:
    field = draw(st.sampled_from(FIELDS))
    scalar = _scalars(field)
    dims = {0: draw(st.integers(1, 5)), 1: draw(st.integers(1, 7))}
    rows = [[draw(scalar) for _ in range(dims[1])] for _ in range(dims[0])]
    diffs = {1: SparseMatrix.from_dense(field, rows)}
    for n in range(2, draw(st.integers(2, 4)) + 1):
        kern = _kernel(diffs[n - 1])
        cols = []
        for vec in kern:
            c = draw(scalar)
            cols.append({r: c * v for r, v in vec.items()})
        for _ in range(draw(st.integers(0, 2)) if kern else 0):
            combo: dict = {}
            for vec in kern:
                c = draw(scalar)
                for r, v in vec.items():
                    combo[r] = combo.get(r, 0) + c * v
            cols.append(combo)
        cols = draw(st.permutations(cols))
        dims[n] = len(cols)
        entries = {(r, j): v for j, col in enumerate(cols) for r, v in col.items()}
        diffs[n] = SparseMatrix(field, dims[n - 1], dims[n], entries)
    return ChainComplex(field, dims, diffs)


def _mod_p(d: SparseMatrix) -> SparseMatrix:
    entries = {k: v % RANK_PRIME for k, v in matrix_entries(d).items()}
    return SparseMatrix(MOD_P, d.nrows, d.ncols, entries)


def _compressed_ranks(cx, modulo_p):
    """``cx._ranks`` with the size of the row set it drops from each d_n."""
    dropped = []

    def spy(m, **kw):
        dropped.append(len(kw.get("drop", ())))
        return rank(m, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "rank", spy)
        ranks = cx._ranks(cx.diffs, modulo_p)
    return ranks, dropped


def _check_compressed(cx, modulo_p, plain):
    ranks, dropped = _compressed_ranks(cx, modulo_p)
    degrees = sorted(cx.diffs)
    for n in degrees:
        d = plain(cx.diffs[n])
        assert ranks[n] == rank(d) == dense_kernel(
            d.field, to_dense(d), d.ncols)[0], n
    # d_n drops exactly the columns of d_(n-1) absorbed, rank d_(n-1) many
    assert dropped == [0] + [ranks[n] for n in degrees[:-1]]
    return ranks


@PROPERTY
@given(complexes())
def test_compressed_ranks_equal_plain_and_dense_ranks(cx):
    assert cx.d2_zero()
    ranks = _check_compressed(cx, False, lambda d: d)
    top = max(cx.diffs) - 1
    assert cx.homology_dims(top) == [
        cx.dim(n) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        for n in range(top + 1)]
    if cx.field is QQ:
        _check_compressed(cx, True, _mod_p)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
def test_d_squared_nonzero_ranks_each_differential_whole(monkeypatch, field):
    # d_1 absorbs column 0, and row 0 is all of d_2's rank: compressing
    # would read H_1 = 1.  With d^2 != 0 nothing is dropped.
    d1 = SparseMatrix.from_dense(field, [[1, 0]])
    d2 = SparseMatrix.from_dense(field, [[1], [0]])
    cx = ChainComplex(field, {0: 1, 1: 2, 2: 1}, {1: d1, 2: d2})
    calls = []

    def spy(m, **kw):
        calls.append(kw.get("drop", frozenset()))
        return rank(m, **kw)

    monkeypatch.setattr(homology, "rank", spy)
    assert cx.homology_dims(1) == [0, 0]
    assert not cx.d2_zero()
    assert calls == [frozenset()] * 2
    assert rank(d2, drop=frozenset({0})) == 0  # what compression would read


def _reduce_by_axpy(elim: Eliminator, col: dict) -> dict:
    """``Eliminator.reduce`` with every pivot, unit or not, applied by
    ``_axpy``."""
    p = elim.field.char
    col = {r: v for r, v in col.items() if v}
    while True:
        hit = next((r for r in col if r in elim.pivots), None)
        if hit is None:
            return col
        linalg._axpy(p, col, -col[hit], elim.pivots[hit])


@st.composite
def unit_heavy_columns(draw):
    """Columns over Q, F2, F3 or F5, many of them one-term."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    scalar = st.integers(-3, 3).map(field.of)
    nrows = draw(st.integers(1, 7))
    row = st.integers(0, nrows - 1)
    cols = []
    for _ in range(draw(st.integers(1, 9))):
        if draw(st.booleans()):
            cols.append({draw(row): field.of(draw(st.integers(1, 4)))})
        else:
            cols.append({draw(row): draw(scalar) for _ in range(3)})
    return field, nrows, [{r: v for r, v in c.items() if v} for c in cols]


@PROPERTY
@given(unit_heavy_columns())
def test_unit_pivots_leave_residues_and_kernels_unchanged(draw):
    field, nrows, cols = draw
    elim = Eliminator(field)
    for col in cols:
        want = _reduce_by_axpy(elim, col)
        got = elim.reduce(col)
        assert list(got.items()) == list(want.items())
        elim.add(col)
    m = SparseMatrix._of_columns(field, nrows, [dict(c) for c in cols])
    r, kernel = dense_kernel(field, to_dense(m), m.ncols)
    assert rank(m) == r == elim.rank
    assert kernel_basis(m) == kernel


def test_a_unit_pivot_is_deleted_without_axpy(monkeypatch):
    elim = Eliminator(GF(5))
    elim.add({2: 3})
    assert elim.pivots == {2: {2: 1}}

    def no_axpy(*args):
        raise AssertionError("a unit pivot called _axpy")

    monkeypatch.setattr(linalg, "_axpy", no_axpy)
    assert elim.reduce({2: 4, 0: 1}) == {0: 1}
    assert elim.add({0: 2, 2: 1}) == 0

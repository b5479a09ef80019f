"""Property test of elimination against the dense reference, drawn by
Hypothesis.

Each draw is a matrix of at most 6x6 over Q, F2, F3 or F5 whose columns
are fresh, zero, or repeats of an earlier column, with a vector that is
random or a combination of the columns.  ``rank`` and ``kernel_basis``
must match ``dense_reference`` exactly; an ``Eliminator`` fed the columns
one by one must return None exactly for the columns ``dense_solve``
writes over the earlier independent ones, and reduce a vector to {}
exactly when it is in their span; the coefficients of ``in_span`` must
rebuild the vector.  Examples are derandomized, so every run sees the
same inputs.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense_kernel, dense_ops, dense_solve, to_dense
from parh.linalg import GF, QQ, Eliminator, SparseMatrix, kernel_basis, rank
from span_oracles import in_span

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)
FIELDS = [QQ, GF(2), GF(3), GF(5)]


@st.composite
def systems(draw):
    """(matrix, vector): columns fresh, zero or repeated; the vector
    random or a combination of the columns."""
    field = draw(st.sampled_from(FIELDS))
    scalar = st.one_of(st.integers(-3, 3),
                       st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])
                       if field is QQ else st.nothing()).map(field.of)
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cols = []
    for _ in range(ncols):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if kind == "zero":
            cols.append([field.zero] * nrows)
        elif kind == "repeat" and cols:
            cols.append(list(draw(st.sampled_from(cols))))
        else:
            cols.append([draw(scalar) for _ in range(nrows)])
    m = SparseMatrix.from_dense(field, [list(row) for row in zip(*cols)])
    if draw(st.booleans()):
        add, _, mul, _ = dense_ops(field)
        vec = [field.zero] * nrows
        for col in cols:
            c = draw(scalar)
            vec = [add(v, mul(c, x)) for v, x in zip(vec, col)]
    else:
        vec = [draw(scalar) for _ in range(nrows)]
    return m, {i: v for i, v in enumerate(vec) if v}


def _dense_column(v, nrows):
    return [v.get(i, 0) for i in range(nrows)]


@PROPERTY
@given(systems())
def test_rank_and_kernel_match_dense_reference(system):
    m, _ = system
    r, kernel = dense_kernel(m.field, to_dense(m), m.ncols)
    assert rank(m) == r
    got = kernel_basis(m)
    assert got == kernel
    assert all(list(vec) == sorted(vec) for vec in got)
    assert all(m.apply(vec) == {} for vec in got)


@PROPERTY
@given(systems())
def test_eliminator_matches_dense_solve(system):
    m, v = system
    ops = dense_ops(m.field)
    dense = to_dense(m)
    elim, basis, rows = Eliminator(m.field), [], set()
    for j, col in enumerate(m.cols):
        dense_col = [row[j] for row in dense]
        dependent = dense_solve(ops, basis, dense_col) is not None
        row = elim.add(col)
        if dependent:
            assert row is None
        else:
            assert row in range(m.nrows) and row not in rows
            rows.add(row)
            basis.append(dense_col)
        assert elim.reduce(col) == {}
    assert elim.rank == len(basis)
    in_span_dense = dense_solve(ops, basis, _dense_column(v, m.nrows))
    assert (elim.reduce(v) == {}) == (in_span_dense is not None)


@PROPERTY
@given(systems())
def test_in_span_coefficients_rebuild_the_vector(system):
    m, v = system
    field = m.field
    coeffs = in_span(v, m.cols, field)
    if coeffs is None:
        joint = [row + [v.get(i, 0)] for i, row in enumerate(to_dense(m))]
        assert dense_kernel(field, joint, m.ncols + 1)[0] == rank(m) + 1
        return
    add, _, mul, _ = dense_ops(field)
    rebuilt = [field.zero] * m.nrows
    for j, c in coeffs.items():
        rebuilt = [add(x, mul(c, y))
                   for x, y in zip(rebuilt, _dense_column(m.cols[j], m.nrows))]
    assert rebuilt == _dense_column(v, m.nrows)

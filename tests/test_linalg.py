"""Exact sparse linear algebra: fields, elimination, ranks, kernels."""

import random
from fractions import Fraction

import pytest

from parh.linalg import (
    QQ,
    Eliminator,
    Field,
    GF,
    SparseMatrix,
    in_span,
    kernel_basis,
    rank,
    span_rank,
    subspace_equal,
)


def test_field_rationals():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.of("-3/7") == Fraction(-3, 7)
    assert QQ.of(4) == Fraction(4)
    assert QQ.name == "Q"


def test_field_prime():
    f5 = GF(5)
    assert f5.of(7) == 2
    assert f5.inv(2) == 3
    assert f5.mul(3, 4) == 2
    assert f5.of(Fraction(1, 2)) == 3
    assert f5.name == "F5"
    assert f5 == Field(5)
    assert f5 != QQ


def test_field_rejects_nonprime_and_huge():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(2**31 + 11)
    with pytest.raises(ZeroDivisionError):
        GF(5).of(Fraction(1, 5))


def test_rank_examples():
    assert rank(SparseMatrix.identity(QQ, 2)) == 2
    assert rank(SparseMatrix.zero(QQ, 3, 4)) == 0
    assert rank(SparseMatrix.from_dense(GF(2), [[1, 1], [1, 1]])) == 1
    assert rank(SparseMatrix.from_dense(QQ, [[1, 1], [1, 1]])) == 1
    # characteristic matters: singular mod 2, invertible over Q
    m = [[1, 1], [1, -1]]
    assert rank(SparseMatrix.from_dense(QQ, m)) == 2
    assert rank(SparseMatrix.from_dense(GF(2), m)) == 1


def test_kernel_examples():
    m = SparseMatrix.from_dense(QQ, [[1, 1]])
    assert kernel_basis(m) == [{0: Fraction(-1), 1: Fraction(1)}]
    assert kernel_basis(SparseMatrix.identity(QQ, 3)) == []
    m2 = SparseMatrix.from_dense(QQ, [[1, 2, 3], [0, 1, 1]])
    (k,) = kernel_basis(m2)
    assert m2.apply(k) == {}


def test_in_span_examples():
    assert in_span({0: 2}, [{0: 1}], QQ) == {0: Fraction(2)}
    assert in_span({1: 1}, [{0: 1}], QQ) is None
    basis = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    w = in_span({0: 1, 2: -1}, basis, QQ)
    assert w == {0: Fraction(1), 1: Fraction(-1)}


def test_subspace_equal():
    e1, e2 = {0: 1}, {1: 1}
    assert subspace_equal([e1, e2], [{0: 1, 1: 1}, {0: 1, 1: -1}], QQ)
    # over F2 the second family is a single line
    assert not subspace_equal(
        [{0: 1}, {1: 1}], [{0: 1, 1: 1}, {0: 1, 1: 1}], GF(2)
    )
    assert subspace_equal([], [], QQ)
    assert not subspace_equal([e1], [], QQ)


def test_matrix_arithmetic():
    a = SparseMatrix.from_dense(QQ, [[1, 2], [3, 4]])
    b = SparseMatrix.from_dense(QQ, [[0, 1], [1, 0]])
    assert (a * b).to_dense() == [[2, 1], [4, 3]]
    assert (a + b - b) == a
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert (-a + a).is_zero()
    assert a.scale(Fraction(1, 2)).get(1, 1) == 2
    v = {0: Fraction(1), 1: Fraction(1)}
    assert a.apply(v) == {0: Fraction(3), 1: Fraction(7)}


def test_matrix_shape_errors():
    a = SparseMatrix.identity(QQ, 2)
    b = SparseMatrix.zero(QQ, 3, 2)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(IndexError):
        SparseMatrix(QQ, 2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        SparseMatrix(QQ, 2, 2, {}, row_labels=["only-one"])


def test_no_stored_zeros():
    m = SparseMatrix(QQ, 2, 2, {(0, 0): 0, (0, 1): 1})
    assert m.nnz() == 1
    s = m - m
    assert s.nnz() == 0 and s.is_zero()


def test_eliminator_incremental():
    elim = Eliminator(QQ)
    assert elim.add({0: 1, 1: 1}) is not None
    assert elim.rank == 1
    assert elim.add({0: 2, 1: 2}) is None
    assert elim.add({1: 1}) is not None
    assert elim.rank == 2
    res = elim.reduce({0: 5, 1: -3})
    assert res == {}


def _random_matrix(rng, field, nrows, ncols, density=0.5):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                entries[(i, j)] = field.of(rng.randint(-4, 4))
    return SparseMatrix(field, nrows, ncols, entries)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_rank_kernel_properties(field):
    rng = random.Random(0)
    for _ in range(25):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = _random_matrix(rng, field, nrows, ncols)
        r = rank(m)
        assert r == rank(m.transpose())
        kern = kernel_basis(m)
        assert r + len(kern) == ncols
        for v in kern:
            assert m.apply(v) == {}
        assert span_rank(kern, field) == len(kern)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_in_span_agrees_with_rank(field):
    rng = random.Random(1)
    for _ in range(25):
        dim = rng.randint(1, 6)
        basis = [
            {i: field.of(rng.randint(-3, 3)) for i in range(dim) if rng.random() < 0.6}
            for _ in range(rng.randint(1, 4))
        ]
        basis = [{i: v for i, v in col.items() if v} for col in basis]
        v = {i: field.of(rng.randint(-3, 3)) for i in range(dim) if rng.random() < 0.6}
        v = {i: c for i, c in v.items() if c}
        w = in_span(v, basis, field)
        joint = span_rank(basis + [v], field)
        if w is None:
            assert joint == span_rank(basis, field) + 1
        else:
            assert joint == span_rank(basis, field)
            recon = {}
            for j, c in w.items():
                for i, x in basis[j].items():
                    s = field.add(recon.get(i, field.zero), field.mul(c, x))
                    if s:
                        recon[i] = s
                    else:
                        recon.pop(i, None)
            assert recon == v


def test_labels_travel_with_transpose():
    m = SparseMatrix(QQ, 2, 1, {(0, 0): 1}, row_labels=["r0", "r1"], col_labels=["c0"])
    t = m.transpose()
    assert t.row_labels == ["c0"]
    assert t.col_labels == ["r0", "r1"]


# Dense reference arithmetic, independent of Field and SparseMatrix: plain
# Fraction over Q, ints reduced % p over F_p.


def _dense_ops(field):
    p = field.char
    if p:
        return (lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
                lambda a, b: a * b % p, lambda a: pow(a, -1, p))
    return (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
            lambda a: 1 / Fraction(a))


def _dense_solve(ops, cols, target):
    """Coefficients x with sum(x[k] * cols[k]) == target, or None.

    ``cols`` must be independent, so a solution is unique.
    """
    add, sub, mul, inv = ops
    k = len(cols)
    rows = [[c[i] for c in cols] + [t] for i, t in enumerate(target)]
    where = {}
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        s = inv(rows[r][c])
        rows[r] = [mul(s, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        where[c] = r
        r += 1
    if any(rows[i][k] for i in range(r, len(rows))):
        return None
    return [rows[where[c]][k] if c in where else 0 for c in range(k)]


def _dense_kernel(field, dense, ncols):
    """Rank and kernel vectors the way `kernel_basis` promises them: one
    per column dependent on the independent columns before it, with
    coefficient 1 there."""
    ops = _dense_ops(field)
    sub = ops[1]
    basis, indep, kernel = [], [], []
    for j in range(ncols):
        col = [row[j] for row in dense]
        x = _dense_solve(ops, basis, col)
        if x is None:
            basis.append(col)
            indep.append(j)
            continue
        vec = {t: sub(0, c) for t, c in zip(indep, x) if c}
        vec[j] = 1
        kernel.append(vec)
    return len(basis), kernel


def _dense_apply(field, dense, vec):
    add, _, mul, _ = _dense_ops(field)
    out = {}
    for i, row in enumerate(dense):
        s = 0
        for j, c in vec.items():
            s = add(s, mul(row[j], c))
        if s:
            out[i] = s
    return out


def _dense_mul(field, a, b):
    add, _, mul, _ = _dense_ops(field)
    inner = len(b)
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        line = []
        for j in range(width):
            s = 0
            for k in range(inner):
                s = add(s, mul(row[k], b[k][j]))
            line.append(s)
        out.append(line)
    return out


def _assert_scalars(field, values):
    for v in values:
        if field.char:
            assert type(v) is int and 0 <= v < field.char, v
        else:
            assert type(v) is Fraction, v


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
def test_sparse_kernels_match_dense_reference(field):
    rng = random.Random(2)
    for _ in range(40):
        nrows, inner, ncols = (rng.randint(1, 7) for _ in range(3))
        density = rng.choice([0.2, 0.5, 0.8])
        a = _random_matrix(rng, field, nrows, inner, density)
        b = _random_matrix(rng, field, inner, ncols, density)
        dense_a, dense_b = a.to_dense(), b.to_dense()
        vec = {j: field.of(rng.randint(1, 4) * rng.choice([-1, 1]))
               for j in range(inner) if rng.random() < 0.6}
        vec = {j: c for j, c in vec.items() if c}
        want = _dense_apply(field, dense_a, vec)

        got = a.apply(vec)
        assert got == want
        _assert_scalars(field, got.values())
        got[nrows] = field.one
        got.pop(next(iter(want), None), None)
        assert a.apply(vec) == want

        cols = a.columns()
        assert len(cols) == inner
        for j in range(inner):
            ref = {i: row[j] for i, row in enumerate(dense_a) if row[j]}
            assert cols[j] == ref
            col = a.column(j)
            assert col == ref
            _assert_scalars(field, col.values())
            col[nrows] = field.one
            cols[j].clear()
            assert a.column(j) == ref
        assert a.columns() == [
            {i: row[j] for i, row in enumerate(dense_a) if row[j]}
            for j in range(inner)]
        assert a.apply(vec) == want

        prod = a * b
        assert prod.to_dense() == _dense_mul(field, dense_a, dense_b)
        _assert_scalars(field, prod.entries.values())

        r, kernel = _dense_kernel(field, dense_a, inner)
        assert rank(a) == r
        got_kernel = kernel_basis(a)
        assert got_kernel == kernel
        for v in got_kernel:
            _assert_scalars(field, v.values())

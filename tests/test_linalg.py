"""Exact sparse linear algebra: fields, elimination, ranks, kernels."""

import random
from fractions import Fraction

import pytest

from parh.linalg import (
    QQ,
    Eliminator,
    Field,
    GF,
    IncidenceSpan,
    SparseMatrix,
    accumulate,
    kernel_basis,
    rank,
)
from dense_reference import (dense_apply, dense_kernel, dense_mul, dense_ops,
                             matrix_entries, to_dense)
from span_oracles import in_span, span_rank, subspace_equal


def test_field_rationals():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.of("-3/7") == Fraction(-3, 7)
    assert QQ.of(4) == Fraction(4)
    assert QQ.name == "Q"


def test_rational_scalars_are_ints_until_a_division():
    two = QQ.of(Fraction(6, 3))
    assert type(two) is int and two == 2
    assert QQ.of(0.5) == Fraction(1, 2)
    assert type(QQ.of("-3/7")) is Fraction
    assert type(QQ.of(True)) is int and QQ.of(True) == 1
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.inv(1)) is Fraction


def test_integral_rational_matrices_stay_int():
    rng = random.Random(11)
    a = _random_matrix(rng, QQ, 5, 6)
    b = _random_matrix(rng, QQ, 6, 4)
    vec = {j: rng.randint(-3, 3) or 1 for j in range(6)}
    summed = accumulate(QQ, [*matrix_entries(a).items(),
                             ((0, 0), 7), ((4, 5), -2)])
    for values in (matrix_entries(a).values(), summed.values(),
                   matrix_entries(a * b).values(), a.apply(vec).values(),
                   matrix_entries(a.transpose()).values()):
        assert values and all(type(v) is int for v in values)


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
        GF(0)  # Field(0) is QQ, but GF names a prime field
    with pytest.raises(ValueError):
        GF(2**31 + 11)
    with pytest.raises(ZeroDivisionError):
        GF(5).of(Fraction(1, 5))


def test_rank_examples():
    assert rank(SparseMatrix.identity(QQ, 2)) == 2
    assert rank(SparseMatrix(QQ, 3, 4)) == 0
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
    assert to_dense(a * b) == [[2, 1], [4, 3]]
    assert (a * b).transpose() == b.transpose() * a.transpose()
    v = {0: Fraction(1), 1: Fraction(1)}
    assert a.apply(v) == {0: Fraction(3), 1: Fraction(7)}


def test_matrix_shape_errors():
    a = SparseMatrix.identity(QQ, 2)
    b = SparseMatrix(QQ, 3, 2)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(IndexError):
        SparseMatrix(QQ, 2, 2, {(2, 0): 1})


def test_no_stored_zeros():
    m = SparseMatrix(QQ, 2, 2, {(0, 0): 0, (0, 1): 1})
    assert m.nnz() == 1


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


def test_incidence_span_ground_merged_later():
    span = IncidenceSpan(GF(5))
    span.add(3)
    assert span.residue_column({4: 2}) == {4: 2}
    span.add(3, 4)
    assert span.rank == 2
    assert span.residue_column({4: 2}) == {}
    span.add(5, 4)
    assert span.residue_column({3: 1, 5: 4}) == {}
    assert span.residue_column({0: 1, 1: 4}) == {0: 1, 1: 4}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
def test_incidence_span_matches_elimination(field):
    # Edges u - v, one-term columns u and repeats of earlier columns, fed to
    # the union-find and to Gaussian elimination: the ranks and the
    # membership of random columns must agree.
    rng = random.Random(3)
    one, minus_one = field.one, field.neg(field.one)
    for _ in range(250):
        n = rng.randint(1, 8)
        span, elim = IncidenceSpan(field), Eliminator(field)
        added = []
        for _ in range(rng.randint(0, 10)):
            if added and rng.random() < 0.2:
                edge = rng.choice(added)
            elif rng.random() < 0.3:
                edge = (rng.randrange(n),)
            else:
                edge = tuple(rng.sample(range(n), 2)) if n > 1 else (0,)
            added.append(edge)
            span.add(*edge)
            elim.add(dict(zip(edge, (one, minus_one))))
        assert span.rank == elim.rank
        for _ in range(5):
            x = {i: field.of(rng.randint(-2, 2)) for i in range(n)
                 if rng.random() < 0.5}
            x = {i: c for i, c in x.items() if c}
            assert (span.residue_column(x) == {}) == (not elim.reduce(x))


def _assert_scalars(field, values):
    for v in values:
        if field.char:
            assert type(v) is int and 0 <= v < field.char, v
        else:
            assert type(v) in (int, Fraction), v


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
def test_sparse_kernels_match_dense_reference(field):
    rng = random.Random(2)
    for _ in range(40):
        nrows, inner, ncols = (rng.randint(1, 7) for _ in range(3))
        density = rng.choice([0.2, 0.5, 0.8])
        a = _random_matrix(rng, field, nrows, inner, density)
        b = _random_matrix(rng, field, inner, ncols, density)
        dense_a, dense_b = to_dense(a), to_dense(b)
        vec = {j: field.of(rng.randint(1, 4) * rng.choice([-1, 1]))
               for j in range(inner) if rng.random() < 0.6}
        vec = {j: c for j, c in vec.items() if c}
        want = dense_apply(field, dense_a, vec)

        got = a.apply(vec)
        assert got == want
        _assert_scalars(field, got.values())
        got[nrows] = field.one
        got.pop(next(iter(want), None), None)
        assert a.apply(vec) == want

        assert len(a.cols) == inner
        for j in range(inner):
            ref = {i: row[j] for i, row in enumerate(dense_a) if row[j]}
            assert a.cols[j] == ref
            _assert_scalars(field, a.cols[j].values())

        prod = a * b
        assert to_dense(prod) == dense_mul(field, dense_a, dense_b)
        _assert_scalars(field, matrix_entries(prod).values())

        t = a.transpose()
        assert (t.nrows, t.ncols) == (inner, nrows)
        assert to_dense(t) == [list(col) for col in zip(*dense_a)]
        assert t.transpose() == a

        # a sum that cancels is the zero matrix and stores no zeros
        _, sub, _, _ = dense_ops(field)
        minus_a = SparseMatrix.from_dense(
            field, [[sub(0, x) for x in row] for row in dense_a])
        gone = SparseMatrix(field, nrows, inner, accumulate(
            field, [*matrix_entries(a).items(),
                    *matrix_entries(minus_a).items()]))
        assert gone == SparseMatrix(field, nrows, inner)
        assert gone.is_zero() and gone.nnz() == 0
        assert matrix_entries(gone) == {}
        assert gone.cols == [{} for _ in range(inner)]
        assert all(v for m in (a, prod, t)
                   for col in m.cols for v in col.values())

        # nnz and entries in column-major order
        want_entries = {(i, j): row[j] for i, row in enumerate(dense_a)
                        for j in range(inner) if row[j]}
        assert a.nnz() == len(want_entries) == len(matrix_entries(a))
        assert matrix_entries(a) == want_entries
        keys = list(matrix_entries(a))
        assert [j for _, j in keys] == sorted(j for _, j in keys)
        assert a.is_zero() == (not want_entries)

        r, kernel = dense_kernel(field, dense_a, inner)
        assert rank(a) == r
        got_kernel = kernel_basis(a)
        assert got_kernel == kernel
        for v in got_kernel:
            _assert_scalars(field, v.values())


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
def test_annihilates_matches_dense_product(field):
    # a b = 0 exactly when the dense product is zero; a matrix of kernel
    # vectors of a is annihilated, and stops being so when one column
    # outside the kernel is appended.
    rng = random.Random(25)
    hits = 0
    for _ in range(60):
        nrows, inner, ncols = (rng.randint(1, 6) for _ in range(3))
        a = _random_matrix(rng, field, nrows, inner, rng.choice([0.2, 0.5]))
        b = _random_matrix(rng, field, inner, ncols, rng.choice([0.2, 0.5]))
        dense = dense_mul(field, to_dense(a), to_dense(b))
        assert a.annihilates(b) == (not any(map(any, dense)))
        kernel = kernel_basis(a)
        k = SparseMatrix._of_columns(field, inner, kernel)
        assert a.annihilates(k)
        hits += bool(kernel)
        outside = [{j: field.one} for j in range(inner)
                   if a.cols[j]][:1]
        if outside:
            wider = SparseMatrix._of_columns(field, inner, kernel + outside)
            assert not a.annihilates(wider)
    assert hits
    with pytest.raises(ValueError):
        SparseMatrix.identity(field, 2).annihilates(SparseMatrix(field, 3, 2))
    other = GF(7) if field.char != 7 else QQ
    with pytest.raises(ValueError):
        SparseMatrix.identity(field, 2).annihilates(
            SparseMatrix.identity(other, 2))

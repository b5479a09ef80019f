"""Dense reference arithmetic, independent of Field and SparseMatrix.

Matrices are lists of rows with zeros included; scalars are plain
Fraction or int over Q and ints reduced % p over F_p.  The sparse kernels
of ``parh.linalg`` are checked against these.
"""

from fractions import Fraction


def to_dense(m):
    """The matrix as a list of rows, zeros included."""
    out = [[m.field.zero] * m.ncols for _ in range(m.nrows)]
    for j, col in enumerate(m.cols):
        for i, v in col.items():
            out[i][j] = v
    return out


def matrix_entries(m):
    """The nonzero entries of a sparse matrix as a {(row, col): value}
    dict, column by column."""
    return {(i, j): v for j, col in enumerate(m.cols) for i, v in col.items()}


def dense_ops(field):
    """(add, sub, mul, inv) on the scalars of ``field``."""
    p = field.char
    if p:
        return (lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
                lambda a, b: a * b % p, lambda a: pow(a, -1, p))
    return (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
            lambda a: 1 / Fraction(a))


def dense_solve(ops, cols, target):
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


def dense_kernel(field, dense, ncols):
    """Rank and kernel vectors the way `kernel_basis` promises them: one
    per column dependent on the independent columns before it, with
    coefficient 1 there."""
    ops = dense_ops(field)
    sub = ops[1]
    basis, indep, kernel = [], [], []
    for j in range(ncols):
        col = [row[j] for row in dense]
        x = dense_solve(ops, basis, col)
        if x is None:
            basis.append(col)
            indep.append(j)
            continue
        vec = {t: sub(0, c) for t, c in zip(indep, x) if c}
        vec[j] = 1
        kernel.append(vec)
    return len(basis), kernel


def dense_apply(field, dense, vec):
    add, _, mul, _ = dense_ops(field)
    out = {}
    for i, row in enumerate(dense):
        s = 0
        for j, c in vec.items():
            s = add(s, mul(row[j], c))
        if s:
            out[i] = s
    return out


def dense_mul(field, a, b):
    add, _, mul, _ = dense_ops(field)
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

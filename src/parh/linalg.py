"""Exact sparse linear algebra over the rationals and prime fields.

Everything downstream reduces to ranks, kernels, and membership tests for
sparse matrices whose entries live in an exact field.  Columns are plain
dicts mapping row index to a nonzero scalar; matrices never store zeros.
Elimination is incremental: an :class:`Eliminator` absorbs columns one at a
time and can be queried between insertions, which is what the quotient and
filtration checks need.

The inner loops branch on the characteristic once, outside the loop: over
F_p they run on plain ints reduced ``% p``, over Q on ``Fraction`` ``+`` and
``*``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """The rationals (characteristic 0) or the prime field F_p.

    Rational scalars are :class:`fractions.Fraction`; prime-field scalars
    are ints in ``range(p)``.  ``p`` must be an odd-or-even prime below
    2**31 so that inverses via ``pow(a, -1, p)`` stay cheap.

    >>> QQ.add(Fraction(1, 2), Fraction(1, 3))
    Fraction(5, 6)
    >>> GF(5).inv(2)
    3
    """

    __slots__ = ("char", "zero", "one")

    def __init__(self, char: int = 0) -> None:
        if char != 0:
            if char >= 2**31:
                raise ValueError(f"prime {char} too large (must be < 2**31)")
            if not _is_prime(char):
                raise ValueError(f"field characteristic must be 0 or prime, got {char}")
        self.char = char
        self.zero = Fraction(0) if char == 0 else 0
        self.one = Fraction(1) if char == 0 else 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self) -> int:
        return hash(("Field", self.char))

    def __repr__(self) -> str:
        return "QQ" if self.char == 0 else f"GF({self.char})"

    @property
    def name(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"

    def of(self, x) -> "Scalar":
        """Coerce an int, Fraction, or string like ``-3/7`` into the field."""
        if isinstance(x, str):
            x = Fraction(x)
        if self.char == 0:
            return x if isinstance(x, Fraction) else Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise ZeroDivisionError(f"{x} has no image in F_{self.char}")
            return x.numerator * pow(x.denominator, -1, self.char) % self.char
        return x % self.char

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if self.char == 0:
            return Fraction(1) / a
        return pow(a, -1, self.char)


Scalar = Fraction | int

QQ = Field(0)


def GF(p: int) -> Field:
    """The prime field with p elements."""
    return Field(p)


Column = dict[int, Scalar]


def _clean(col: Column) -> Column:
    return {r: v for r, v in col.items() if v}


def accumulate(field: Field, terms: Iterable[tuple[object, Scalar]]) -> dict:
    """Sum ``(key, value)`` terms into a new dict that stores no zeros.

    Values are ``Fraction`` over Q and ints over F_p, reduced here.  A
    key whose running sum cancels is dropped, and a later term puts it
    back at the end, so keys come out in the order of ``terms``.

    >>> accumulate(GF(3), [("a", 2), ("b", 1), ("a", 1)])
    {'b': 1}
    """
    out: dict = {}
    get = out.get
    p = field.char
    if p:
        for key, v in terms:
            s = (get(key, 0) + v) % p
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    else:
        for key, v in terms:
            old = get(key)
            s = v if old is None else old + v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


class SparseMatrix:
    """An nrows-by-ncols matrix stored as {(row, col): nonzero scalar}.

    Optional row/column labels travel with the matrix so that reports can
    name basis elements instead of bare indices.  ``entries`` is set once,
    when the matrix is built, and every operation returns a new matrix, so
    the column index is built once, on first use.
    """

    __slots__ = ("field", "nrows", "ncols", "entries", "row_labels",
                 "col_labels", "_cols")

    def __init__(
        self,
        field: Field,
        nrows: int,
        ncols: int,
        entries: dict[tuple[int, int], Scalar] | None = None,
        row_labels: Sequence[str] | None = None,
        col_labels: Sequence[str] | None = None,
    ) -> None:
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], Scalar] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i}, {j}) outside {nrows}x{ncols}")
                v = field.of(v)
                if v:
                    self.entries[(i, j)] = v
        if row_labels is not None and len(row_labels) != nrows:
            raise ValueError("row_labels length must equal nrows")
        if col_labels is not None and len(col_labels) != ncols:
            raise ValueError("col_labels length must equal ncols")
        self.row_labels = list(row_labels) if row_labels is not None else None
        self.col_labels = list(col_labels) if col_labels is not None else None
        self._cols: dict[int, Column] | None = None

    @classmethod
    def _of_clean(cls, field: Field, nrows: int, ncols: int,
                  entries: dict[tuple[int, int], Scalar]) -> "SparseMatrix":
        """Adopt entries that are already in range, in ``field`` and nonzero,
        as the kernels of this class produce them, without checking again."""
        m = cls(field, nrows, ncols)
        m.entries = entries
        return m

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "SparseMatrix":
        return cls(field, nrows, ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "SparseMatrix":
        return cls(field, n, n, {(i, i): field.one for i in range(n)})

    @classmethod
    def from_dense(cls, field: Field, rows: Sequence[Sequence]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(field, nrows, ncols, entries)

    @classmethod
    def from_columns(
        cls, field: Field, nrows: int, cols: Sequence[Column]
    ) -> "SparseMatrix":
        entries = {}
        for j, col in enumerate(cols):
            for i, v in col.items():
                entries[(i, j)] = v
        return cls(field, nrows, len(cols), entries)

    def get(self, i: int, j: int) -> Scalar:
        return self.entries.get((i, j), self.field.zero)

    def _column_index(self) -> dict[int, Column]:
        """The nonzero columns as {col: {row: value}}, in entry order.

        Shared with the kernels of this module, which never mutate it;
        ``column`` and ``columns`` hand out copies.
        """
        cols = self._cols
        if cols is None:
            cols = {}
            for (i, j), v in self.entries.items():
                col = cols.get(j)
                if col is None:
                    cols[j] = {i: v}
                else:
                    col[i] = v
            self._cols = cols
        return cols

    def column(self, j: int) -> Column:
        if not (0 <= j < self.ncols):
            raise IndexError(f"column {j} outside 0..{self.ncols - 1}")
        return dict(self._column_index().get(j, ()))

    def columns(self) -> list[Column]:
        cols = self._column_index()
        return [dict(cols.get(j, ())) for j in range(self.ncols)]

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.field,
            self.ncols,
            self.nrows,
            {(j, i): v for (i, j), v in self.entries.items()},
            row_labels=self.col_labels,
            col_labels=self.row_labels,
        )

    def _check_same_shape(self, other: "SparseMatrix") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_same_shape(other)
        entries = accumulate(self.field, chain(self.entries.items(),
                                               other.entries.items()))
        return SparseMatrix._of_clean(self.field, self.nrows, self.ncols,
                                      entries)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + other.scale(self.field.neg(self.field.one))

    def __neg__(self) -> "SparseMatrix":
        return self.scale(self.field.neg(self.field.one))

    def scale(self, c) -> "SparseMatrix":
        f = self.field
        c = f.of(c)
        return SparseMatrix(
            f, self.nrows, self.ncols,
            {key: f.mul(c, v) for key, v in self.entries.items()},
        )

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = self._column_index()
        entries = accumulate(self.field, (
            ((i, j), v * w)
            for (k, j), w in other.entries.items()
            for i, v in cols.get(k, {}).items()))
        return SparseMatrix._of_clean(self.field, self.nrows, other.ncols,
                                      entries)

    def apply(self, col: Column) -> Column:
        """Multiply this matrix by a column vector given as a dict."""
        cols = self._column_index()
        p = self.field.char
        out: Column = {}
        for j, c in col.items():
            src = cols.get(j)
            if src is not None:
                _axpy(p, out, c, src)
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, frozenset(self.entries.items())))

    def to_dense(self) -> list[list[Scalar]]:
        out = [[self.field.zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def nnz(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.field!r}, {self.nrows}x{self.ncols}, nnz={self.nnz()})"


def _axpy(p: int, target: dict, coeff, source: dict) -> None:
    """target += coeff * source over F_p, or over Q when ``p`` is 0."""
    get = target.get
    if p:
        for r, v in source.items():
            s = (get(r, 0) + coeff * v) % p
            if s:
                target[r] = s
            else:
                target.pop(r, None)
    else:
        for r, v in source.items():
            old = get(r)
            s = coeff * v if old is None else old + coeff * v
            if s:
                target[r] = s
            else:
                target.pop(r, None)


class Eliminator:
    """Incremental Gaussian elimination over sparse columns.

    Pivot columns are stored normalized (coefficient 1 at the pivot row).
    ``reduce`` returns the unique residue of a column modulo the span of
    everything absorbed so far; ``add`` absorbs a column, returning the new
    pivot row or None when the column was already in the span.

    With ``track=True`` the eliminator also carries an expression of every
    pivot in terms of the original added columns, which powers kernel and
    membership witnesses.
    """

    __slots__ = ("field", "pivots", "history", "track", "added", "last_dependency")

    def __init__(self, field: Field, track: bool = False) -> None:
        self.field = field
        self.pivots: dict[int, Column] = {}
        self.history: dict[int, dict] = {}
        self.track = track
        self.added = 0
        self.last_dependency: dict | None = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, col: Column, hist: dict | None = None) -> Column:
        """Residue of ``col`` modulo the current span.

        When ``hist`` is a dict it accumulates, per original-column tag, the
        coefficients used, so ``col - residue == sum(hist[t] * column_t)``.
        The pivot eliminated next is the first hit in dict order.
        """
        p = self.field.char
        pivots = self.pivots
        col = _clean(col)
        while True:
            for hit in col:
                if hit in pivots:
                    break
            else:
                return col
            c = col[hit]
            _axpy(p, col, -c, pivots[hit])
            if hist is not None:
                _axpy(p, hist, c, self.history[hit])

    def add(self, col: Column, tag=None) -> int | None:
        """Absorb a column; return its pivot row, or None if dependent.

        ``tag`` names the column in tracked histories (defaults to the
        insertion index).  After a dependent add with tracking on,
        ``last_dependency`` holds coefficients with
        ``col == sum(last_dependency[t] * column_t)``.
        """
        f = self.field
        if tag is None:
            tag = self.added
        hist: dict | None = {} if self.track else None
        res = self.reduce(col, hist)
        self.added += 1
        if not res:
            if self.track:
                self.last_dependency = hist
            return None
        row = max(res)
        inv = f.inv(res[row])
        p = f.char
        if p:
            self.pivots[row] = {r: inv * v % p for r, v in res.items()}
        else:
            self.pivots[row] = {r: inv * v for r, v in res.items()}
        if self.track:
            # pivot = inv * (col - sum(hist * originals))
            hnew = {tag: inv}
            _axpy(p, hnew, -inv, hist)
            self.history[row] = hnew
            self.last_dependency = None
        return row


def rank(m: SparseMatrix) -> int:
    """Rank of a sparse matrix, processing sparse columns first.

    >>> rank(SparseMatrix.identity(QQ, 2))
    2
    >>> rank(SparseMatrix.from_dense(GF(2), [[1, 1], [1, 1]]))
    1
    """
    elim = Eliminator(m.field)
    cols = m._column_index()
    for j in sorted(cols, key=lambda j: (len(cols[j]), j)):
        elim.add(cols[j])
    return elim.rank


def kernel_basis(m: SparseMatrix) -> list[Column]:
    """A basis of the right kernel, as dicts over column indices.

    Columns are processed left to right, so each kernel vector has
    coefficient 1 at its own (largest) column index; the result is
    deterministic.

    >>> kernel_basis(SparseMatrix.from_dense(QQ, [[1, 1]]))
    [{0: Fraction(-1, 1), 1: Fraction(1, 1)}]
    """
    elim = Eliminator(m.field, track=True)
    out: list[Column] = []
    f = m.field
    cols = m._column_index()
    for j in range(m.ncols):
        if elim.add(cols.get(j, {}), tag=j) is None:
            dep = elim.last_dependency or {}
            vec = {t: f.neg(c) for t, c in dep.items() if c}
            vec[j] = f.one
            out.append(vec)
    return out


def in_span(v: Column, basis: Sequence[Column], field: Field) -> dict | None:
    """Coefficients expressing ``v`` over ``basis``, or None if outside.

    >>> in_span({0: 2}, [{0: 1}], QQ)
    {0: Fraction(2, 1)}
    >>> in_span({1: 1}, [{0: 1}], QQ) is None
    True
    """
    elim = Eliminator(field, track=True)
    for j, col in enumerate(basis):
        elim.add(col, tag=j)
    hist: dict = {}
    res = elim.reduce(dict(v), hist)
    if res:
        return None
    return {t: c for t, c in hist.items() if c}


def subspace_equal(
    a: Sequence[Column], b: Sequence[Column], field: Field
) -> bool:
    """Whether two column families span the same subspace."""
    ea = Eliminator(field)
    for col in a:
        ea.add(col)
    for col in b:
        if ea.reduce(col):
            return False
    eb = Eliminator(field)
    for col in b:
        eb.add(col)
    for col in a:
        if eb.reduce(col):
            return False
    return True


def span_rank(cols: Iterable[Column], field: Field) -> int:
    """Rank of a family of columns without building a matrix."""
    elim = Eliminator(field)
    for col in cols:
        elim.add(col)
    return elim.rank


class SizeCapError(RuntimeError):
    """A construction would exceed its configured size cap."""

    def __init__(self, message: str, limit: int | None = None, requested: int | None = None):
        super().__init__(message)
        self.limit = limit
        self.requested = requested

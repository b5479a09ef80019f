"""Exact sparse linear algebra over the rationals and prime fields.

Everything downstream reduces to ranks, kernels, and membership tests for
sparse matrices whose entries live in an exact field.  Columns are plain
dicts mapping row index to a nonzero scalar, and a :class:`SparseMatrix`
is its list of columns; matrices never store zeros.  Products, ranks
and kernels all run column by column.  Elimination is incremental:
an :class:`Eliminator` absorbs columns one at a time and can be queried
between insertions, which is what the quotient and filtration checks
need.

The inner loops branch on the characteristic once, outside the loop: over
F_p they run on plain ints reduced ``% p``, over Q on plain ``+`` and ``*``.
A rational scalar is an ``int`` until a division makes it a ``Fraction``,
so integer matrices over Q are multiplied and added in exact int
arithmetic; only elimination, whose pivots are inverted, brings in
fractions.
"""

from __future__ import annotations

from fractions import Fraction
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

    Rational scalars are ints, or :class:`fractions.Fraction` once a
    division makes them non-integral (``inv`` always returns a Fraction);
    prime-field scalars are ints in ``range(p)``.  ``p`` must be an
    odd-or-even prime below 2**31 so that inverses via ``pow(a, -1, p)``
    stay cheap.

    >>> QQ.add(Fraction(1, 2), Fraction(1, 3))
    Fraction(5, 6)
    >>> QQ.of(Fraction(6, 3)), QQ.of("-3/7")
    (2, Fraction(-3, 7))
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
        self.zero = 0
        self.one = 1

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
        """Coerce an int, Fraction, or string like ``-3/7`` into the field.

        Over Q an integral value comes back as an ``int`` (a bool too), and
        any other value as a ``Fraction``: ``QQ.of(0.5)`` is 1/2.
        """
        if type(x) is int:
            return x % self.char if self.char else x
        if isinstance(x, str):
            x = Fraction(x)
        if self.char == 0:
            if not isinstance(x, (int, Fraction)):
                x = Fraction(x)
            return int(x) if x.denominator == 1 else x
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise ZeroDivisionError(f"{x} has no image in F_{self.char}")
            return x.numerator * pow(x.denominator, -1, self.char) % self.char
        return x % self.char

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

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
    """The prime field with p elements; ValueError unless p is prime."""
    if not _is_prime(p):
        raise ValueError(f"field characteristic must be prime, got {p}")
    return Field(p)


Column = dict[int, Scalar]


def accumulate(field: Field, terms: Iterable[tuple[object, Scalar]]) -> dict:
    """Sum ``(key, value)`` terms into a new dict that stores no zeros.

    Values are ints or ``Fraction`` over Q and ints over F_p, reduced here.  A
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
    """An nrows-by-ncols matrix stored as its columns.

    ``cols[j]`` is column j as a dict {row: nonzero scalar}; there is no
    other storage.  Every operation returns a new matrix, and no kernel
    changes the dicts of a matrix it reads, so a column may be read in
    place but never written.
    """

    __slots__ = ("field", "nrows", "ncols", "cols")

    def __init__(
        self,
        field: Field,
        nrows: int,
        ncols: int,
        entries: dict[tuple[int, int], Scalar] | None = None,
    ) -> None:
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        cols: list[Column] = [{} for _ in range(ncols)]
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i}, {j}) outside {nrows}x{ncols}")
                v = field.of(v)
                if v:
                    cols[j][i] = v
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols

    @classmethod
    def _of_columns(cls, field: Field, nrows: int,
                    cols: list[Column]) -> "SparseMatrix":
        """Adopt column j as ``cols[j]``, without checking again.

        The columns must be in range, in ``field`` and free of zeros, as the
        kernels of this class produce them; the dicts are adopted, so the
        caller must not change them afterwards.
        """
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m.cols = field, nrows, len(cols), cols
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "SparseMatrix":
        return cls._of_columns(field, n, [{i: field.one} for i in range(n)])

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

    def transpose(self) -> "SparseMatrix":
        cols: list[Column] = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                cols[i][j] = v
        return SparseMatrix._of_columns(self.field, self.ncols, cols)

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        p = self.field.char
        left = self.cols
        cols = []
        for ocol in other.cols:
            col: Column = {}
            if len(ocol) == 1:
                # a unit column, as in a partial permutation: copy in C
                ((k, w),) = ocol.items()
                if w == 1 and type(w) is int:
                    col = left[k].copy()
                else:
                    _axpy(p, col, w, left[k])
            elif ocol:
                for k, w in ocol.items():
                    _axpy(p, col, w, left[k])
            cols.append(col)
        return SparseMatrix._of_columns(self.field, self.nrows, cols)

    def apply(self, col: Column) -> Column:
        """Multiply this matrix by a column vector given as a dict whose
        keys are column indices of this matrix."""
        cols = self.cols
        p = self.field.char
        out: Column = {}
        for j, c in col.items():
            _axpy(p, out, c, cols[j])
        return out

    def annihilates(self, other: "SparseMatrix") -> bool:
        """Whether ``self * other`` is zero, without forming the product.

        Each column of the product is summed in one dict, zeros kept, and
        the first nonzero column ends the scan.

        >>> d = SparseMatrix.from_dense(GF(2), [[1, 1]])
        >>> d.annihilates(SparseMatrix.from_dense(GF(2), [[1], [1]]))
        True
        >>> d.annihilates(SparseMatrix.identity(GF(2), 2))
        False
        """
        if self.field != other.field or self.ncols != other.nrows:
            raise ValueError("field or shape mismatch")
        p = self.field.char
        left = self.cols
        for ocol in other.cols:
            col: Column = {}
            get = col.get
            if p:
                for k, w in ocol.items():
                    for r, v in left[k].items():
                        col[r] = (get(r, 0) + w * v) % p
            else:
                for k, w in ocol.items():
                    for r, v in left[k].items():
                        col[r] = get(r, 0) + w * v
            if any(col.values()):
                return False
        return True

    def is_zero(self) -> bool:
        return not any(self.cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.cols == other.cols
        )

    def nnz(self) -> int:
        return sum(map(len, self.cols))

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

    Pivot columns are stored normalized (coefficient 1 at the pivot row,
    the largest row of the column).  ``reduce`` returns the unique residue
    of a column modulo the span of everything absorbed so far; ``add``
    absorbs a column, returning the new pivot row or None when the column
    was already in the span.  Rows may be negative: ``kernel_basis`` gives
    column j an extra coordinate 1 at row -1 - j and absorbs only residues
    with a row >= 0 left, so pivots carry their column history for free.

    ``drop`` is a set of rows that ``reduce`` discards on entry, in the
    one copy it makes of a column, so the eliminator works on the
    projection that forgets them.  ``rank`` drops from d_(n+1) of a
    complex with d^2 = 0 the rows J_n that the elimination of d_n
    absorbed, which keeps its rank: the projection is injective on
    ker d_n, which contains im d_(n+1) (Bauer, Kerber and Reininghaus,
    2014; see ``rank``).
    """

    __slots__ = ("field", "pivots", "drop")

    def __init__(self, field: Field, drop: frozenset[int] = frozenset()) -> None:
        self.field = field
        self.pivots: dict[int, Column] = {}
        self.drop = drop

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, col: Column) -> Column:
        """Residue of ``col`` modulo the current span, as a new dict.

        The pivot eliminated next is the first hit in dict order.  A unit
        pivot {r: 1} only deletes entry r, so it is applied in place.
        """
        p = self.field.char
        pivots = self.pivots
        drop = self.drop
        col = {r: v for r, v in col.items() if v and r not in drop}
        while True:
            for hit in col:
                if hit in pivots:
                    break
            else:
                return col
            pivot = pivots[hit]
            if len(pivot) == 1:
                del col[hit]
            else:
                _axpy(p, col, -col[hit], pivot)

    def add(self, col: Column) -> int | None:
        """Absorb a column; return its pivot row, or None if dependent."""
        res = self.reduce(col)
        if not res:
            return None
        row = max(res)
        f = self.field
        inv = f.inv(res[row])
        p = f.char
        if p:
            self.pivots[row] = {r: inv * v % p for r, v in res.items()}
        else:
            self.pivots[row] = {r: inv * v for r, v in res.items()}
        return row


class IncidenceSpan:
    """The span of signed graph edges u - v, merged by union-find.

    A one-term column u is the edge from u to the ground row -1, which no
    column stores.  Over any field the rank is the number of unions, and a
    column is in the span iff it sums to zero on each component off the
    ground (N. Biggs, Algebraic Graph Theory).  A union keeps the root of
    the edge's first endpoint.

    >>> span = IncidenceSpan(GF(3)); span.add(3); span.add(3, 4); span.rank
    2
    >>> span.residue_column({4: 2}), span.residue_column({0: 1, 5: 2})
    ({}, {0: 1, 5: 2})
    """

    __slots__ = ("field", "rank", "_parent")

    def __init__(self, field: Field) -> None:
        self.field = field
        self.rank = 0
        self._parent: dict[int, int] = {}

    def root(self, row: int) -> int:
        """The component of a row; a row no edge touches is its own, and
        ``root(-1)`` is the ground's."""
        parent = self._parent
        while (up := parent.get(row, row)) != row:
            parent[row] = top = parent.get(up, up)
            row = top
        return row

    def add(self, u: int, v: int = -1) -> None:
        """Absorb the edge u - v, or the one-term column u.

        Both roots are found here, with the path halving of ``root``.
        """
        parent = self._parent
        while (up := parent.get(u, u)) != u:
            parent[u] = top = parent.get(up, up)
            u = top
        while (up := parent.get(v, v)) != v:
            parent[v] = top = parent.get(up, up)
            v = top
        if u != v:
            parent[v] = u
            self.rank += 1

    def residue_column(self, col: Column) -> Column:
        """The component sums of ``col`` off the ground; zero iff in the span."""
        root = self.root
        res = accumulate(self.field, ((root(row), c) for row, c in col.items()))
        res.pop(root(-1), None)
        return res


def rank(m: SparseMatrix, *, drop: frozenset[int] = frozenset(),
         absorbed: list[int] | None = None) -> int:
    """Rank of a sparse matrix, processing sparse columns first.

    ``drop`` is a set of rows to discard, and ``absorbed``, if given,
    receives the indices of the columns that the elimination absorbed as
    independent.  Together they compress a chain complex ranked bottom up
    (U. Bauer, M. Kerber and J. Reininghaus, Clear and Compress:
    Computing Persistent Homology in Chunks, 2014): the columns J_n
    absorbed from d_n are rows of d_(n+1) that may be dropped.  If x in
    ker d_n is supported on J_n, then sum c_j d_n e_j = 0 forces c = 0,
    as the columns J_n are independent; so the projection that drops J_n
    is injective on ker d_n, which contains im d_(n+1) when d^2 = 0, and
    rank d_(n+1) is unchanged.  Without d^2 = 0 nothing may be dropped.

    >>> rank(SparseMatrix.identity(QQ, 2))
    2
    >>> rank(SparseMatrix.from_dense(GF(2), [[1, 1], [1, 1]]))
    1
    >>> absorbed = []
    >>> rank(SparseMatrix.from_dense(QQ, [[1, 1], [0, 0]]), absorbed=absorbed)
    1
    >>> absorbed
    [0]
    """
    elim = Eliminator(m.field, drop)
    cols = m.cols
    for j in sorted((j for j, col in enumerate(cols) if col),
                    key=lambda j: len(cols[j])):
        if elim.add(cols[j]) is not None and absorbed is not None:
            absorbed.append(j)
    return elim.rank


def kernel_basis(m: SparseMatrix) -> list[Column]:
    """A basis of the right kernel, as dicts over column indices.

    Column j is reduced with the augmented identity, one extra coordinate
    1 at row -1 - j, so a residue's negative rows are the combination of
    columns it is.  A residue with no row >= 0 left is a kernel vector,
    with coefficient 1 at j, its largest column, and keys in ascending
    order; any other is absorbed.  The result is deterministic.

    >>> kernel_basis(SparseMatrix.from_dense(QQ, [[1, 1]]))
    [{0: Fraction(-1, 1), 1: 1}]
    """
    elim = Eliminator(m.field)
    out: list[Column] = []
    one = m.field.one
    for j, col in enumerate(m.cols):
        res = elim.reduce({**col, -1 - j: one})
        if max(res) >= 0:
            elim.add(res)
        else:
            out.append({-1 - r: c for r, c in sorted(res.items(), reverse=True)})
    return out


class SizeCapError(RuntimeError):
    """A construction would exceed its configured size cap."""

    def __init__(self, message: str, limit: int | None = None, requested: int | None = None):
        super().__init__(message)
        self.limit = limit
        self.requested = requested

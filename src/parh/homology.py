"""Exact homology for partial representations of finite groups.

Three chain pipelines feed the checks in this module:

- a homogeneous resolution over the idempotent subalgebra, never built
  as matrices: its extra degeneracy certifies it exact, by identities
  between index lists on the G block that hold over every ring;
- a transported complex that evaluates the same resolution against a
  finite-dimensional module of generator matrices, using the involution
  that exchanges left and right module structures.  The module must have
  every e_x = [x][x^-1] diagonal (every module in parh.groupoid has), so
  each block e_(x) V is a set of coordinates.  Its differential is the
  alternating sum of faces, and with the degeneracies that insert the
  identity it is a simplicial module whose identities are all checked;
  only its nondegenerate tuples are assembled and ranked, the
  normalized complex, which has the same homology.  For a module of 0/1
  partial maps (every module the CLI builds) each face is an index list,
  the columns are formed from the lists, and d^2 = 0 follows from the
  simplicial identities between them, checked as list compositions;
- the classical bar complex of a finite group, written independently so
  that the comparison checks are carried by genuinely separate code.

Cohomology has no complex of its own: over a field, dim H^n(V) equals
dim H_n(V*), where V* is the dual module with [g] acting by the
transpose of [g^-1].  A module or representation that equals its dual
literally, [g^-1] = [g]^T for every g, has its homology as its
cohomology, so the verify functions build one complex for both halves
there.  Partial and classical cohomology are each the homology of their
own dual, so the comparison checks still pit two separate codes against
each other.

Dimensions are exact in every degree: ranks over the rationals or a
prime field, never floating point.  Every complex built here over Q has
integer entries, held as plain ints.  Such a complex is ranked modulo
the prime ``RANK_PRIME`` first.  Since rank_Fp(A mod p) <= rank_Q(A) and
d^2 = 0 over Z gives rank d_n + rank d_(n+1) <= dim C_n, vanishing mod-p
homology in degrees 1..m proves every rank r_1..r_(m+1), so those
dimensions are the Q dimensions (the universal coefficient theorem;
A. Hatcher, Algebraic Topology, 3.A).  Otherwise (degree 0 alone, a
non-integral entry, d^2 != 0 or nonzero mod-p homology) the ranks are
computed over Q.

Once d^2 = 0 is checked, the ranks of a complex run bottom up and
compressed, modulo p and over Q alike (U. Bauer, M. Kerber and
J. Reininghaus, Clear and Compress: Computing Persistent Homology in
Chunks, 2014).  The columns J_n that the elimination of d_n absorbs as
independent are rows of d_(n+1), and its elimination discards them.  If
x in ker d_n is supported on J_n, then sum c_j d_n e_j = 0 forces c = 0;
so dropping J_n is injective on ker d_n, which contains im d_(n+1), and
rank d_(n+1) is unchanged.  A complex with d^2 != 0 has each
differential ranked whole.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .groupoid import (
    GROUPOID_ORDER_CAP,
    PartialRepModule,
    _compose,
    _partial_maps,
    _set_str,
    b_module,
    build_groupoid,
    components,
    induce_module,
)
from .groups import trivial_rep
from .linalg import GF, Field, SizeCapError, SparseMatrix, accumulate, rank

# The column cap here, and of the CLI's --max-columns and ``kpar basis``.
HOMOLOGY_SIZE_CAP = 1_000_000

# Integer complexes over Q are ranked modulo this prime first.  With
# p**2 + p < 2**30 every residue product is a one-digit CPython int, which
# ranks faster than 2**31 - 1 does.  A rank that drops mod p (p divides
# some torsion of the integral homology) shows as nonzero homology and
# sends the complex to the exact ranks.
RANK_PRIME = 32_749
_RANK_FIELD = GF(RANK_PRIME)


class HomologyReport:
    """Per-degree dimensions of one homology computation.

    ``method`` records which pipeline produced the numbers: ``bar`` for
    the idempotent-coefficient machinery, ``ordinary`` for the classical
    group complex.
    ``checks`` carries the structural verifications that ran alongside
    the computation (``homotopy_id`` is None for pipelines that have no
    resolution identity to check).
    """

    __slots__ = ("group", "module", "field", "method", "dims", "checks")

    def __init__(self, group: str, module: str, field: Field, method: str,
                 dims: list[int], checks: dict) -> None:
        if any(d < 0 for d in dims):
            raise ValueError("homology dimensions must be nonnegative")
        self.group = group
        self.module = module
        self.field = field
        self.method = method
        self.dims = list(dims)
        self.checks = dict(checks)

    def as_dict(self) -> dict:
        return {
            "group": self.group,
            "module": self.module,
            "field": self.field.name,
            "method": self.method,
            "dims": self.dims,
            "checks": self.checks,
        }

    def __repr__(self) -> str:
        return f"HomologyReport({self.group}, {self.module}, dims={self.dims})"


class ChainComplex:
    """Chain spaces with one sparse differential per degree.

    ``dims[n]`` is the dimension of the degree-n space; ``diffs[n]`` is
    the matrix of d_n mapping degree n to degree n-1.  Consecutive
    differentials compose to zero.  ``d2_zero`` verifies that once per
    complex with ``SparseMatrix.annihilates``, which sums each column of
    d_n d_(n+1) in one dict and stops at the first nonzero one, unless
    the builder has proven it already.  ``_transported_complex`` builds
    the normalized complex of a simplicial module, its degenerate tuples
    deleted, and proves d^2 = 0 when it sums each d_n = sum_j (-1)^j d_j
    from faces that satisfy the simplicial identities d_i d_j =
    d_(j-1) d_i for i < j (C. A. Weibel, An Introduction to Homological
    Algebra, 1994, 8.1-8.2; J. P. May, Simplicial Objects in Algebraic
    Topology, 1967).  Then d_(n-1) d_n is
    the sum of (-1)^(i+j) d_i d_j over 0 <= i <= n-1, 0 <= j <= n.  The
    identity sends each term with i < j to the term (i', j') = (j-1, i),
    which has i' >= j' and the opposite sign, and this is a bijection of
    the pairs i < j onto the pairs i' >= j'; so the two halves cancel
    and d^2 = 0 over any ring, on the full complex and so on its
    quotient by the degenerate tuples.
    """

    __slots__ = ("field", "dims", "diffs", "_d2")

    def __init__(self, field: Field, dims: dict[int, int],
                 diffs: dict[int, SparseMatrix]) -> None:
        for n, d in diffs.items():
            if d.ncols != dims[n] or d.nrows != dims[n - 1]:
                raise ValueError(f"differential at degree {n} has wrong shape")
        self.field = field
        self.dims = dims
        self.diffs = diffs
        self._d2: bool | None = None

    def dim(self, n: int) -> int:
        return self.dims[n]

    def d2_zero(self) -> bool:
        """Whether d_n d_(n+1) = 0 for every pair of differentials built,
        decided on the first call (or by the builder) and remembered."""
        if self._d2 is None:
            self._d2 = all(d.annihilates(self.diffs[n + 1])
                           for n, d in self.diffs.items()
                           if n + 1 in self.diffs)
        return self._d2

    def homology_dims(self, max_degree: int) -> list[int]:
        """dim ker d_n - rank d_{n+1} for n = 0..max_degree.

        Over Q, when every differential has int entries, max_degree >= 1
        and d^2 = 0, the ranks modulo ``RANK_PRIME`` are tried first; they
        are returned only when they give zero homology in degrees
        1..max_degree, which proves them equal to the ranks over Q.

        Either pass is compressed once d^2 = 0 is checked (Bauer, Kerber
        and Reininghaus, Clear and Compress, 2014): d_1, d_2, ... are
        ranked in turn, and d_(n+1) drops the rows J_n, the columns that
        the elimination of d_n absorbed as independent.  A vector of
        ker d_n supported on J_n is zero, so the projection is injective
        on ker d_n, which contains im d_(n+1), and rank d_(n+1) is
        unchanged.  With d^2 != 0 each differential is ranked whole.
        """
        if max_degree + 1 not in self.diffs and max_degree > 0:
            raise ValueError("complex not built deep enough for max_degree")
        diffs = {n: d for n, d in self.diffs.items() if n <= max_degree + 1}
        if self.field.char == 0 and max_degree >= 1 and self.d2_zero():
            ranks = self._ranks(diffs, modulo_p=True)
            if ranks is not None:
                dims = self._dims(max_degree, ranks)
                if not any(dims[1:]):
                    return dims
        return self._dims(max_degree, self._ranks(diffs))

    def _ranks(self, diffs: dict[int, SparseMatrix],
               modulo_p: bool = False) -> dict[int, int] | None:
        """rank d_n for each differential, or of its reduction modulo
        ``RANK_PRIME`` when ``modulo_p``; compressed when d^2 = 0, as
        ``homology_dims`` says.  None when ``modulo_p`` meets an entry
        that is not an int; the differentials before it are ranked."""
        compress = self.d2_zero()
        ranks: dict[int, int] = {}
        absorbed: dict[int, list[int]] = {}
        for n in sorted(diffs):
            d = _mod_prime(diffs[n]) if modulo_p else diffs[n]
            if d is None:
                return None
            if compress:
                absorbed[n] = []
                ranks[n] = rank(d, drop=frozenset(absorbed.get(n - 1, ())),
                                absorbed=absorbed[n])
            else:
                ranks[n] = rank(d)
        return ranks

    def _dims(self, max_degree: int, ranks: dict[int, int]) -> list[int]:
        return [self.dim(n) - ranks.get(n, 0) - ranks.get(n + 1, 0)
                for n in range(max_degree + 1)]


def _mod_prime(d: SparseMatrix) -> SparseMatrix | None:
    """An int matrix reduced modulo ``RANK_PRIME``, column by column, in
    one pass that also checks the entries: None at the first entry that
    is not an int."""
    cols = []
    for col in d.cols:
        reduced = {}
        for r, v in col.items():
            if type(v) is not int:
                return None
            if c := v % RANK_PRIME:
                reduced[r] = c
        cols.append(reduced)
    return SparseMatrix._of_columns(_RANK_FIELD, d.nrows, cols)


def _check_cap(group, n: int, block: int, cap: int, what: str) -> None:
    requested = (group.order ** n) * block
    if requested > cap:
        raise SizeCapError(
            f"{what} at degree {n} needs {requested} basis columns, cap is {cap}",
            limit=cap,
            requested=requested,
        )


def _prefixes(group, xs: tuple[int, ...]) -> list[int]:
    out = []
    acc = 0
    for x in xs:
        acc = group.mult(acc, x)
        out.append(acc)
    return out


def _contract(group, xs: tuple[int, ...], j: int) -> tuple[int, ...]:
    return xs[:j] + (group.mult(xs[j], xs[j + 1]),) + xs[j + 2:]


# ---------------------------------------------------------------------------
# Exactness of the homogeneous resolution, by its extra degeneracy.


def _drop_entry(order: int, n: int, i: int) -> list[int]:
    """Entry i dropped from each tuple of G^n: an index list into G^(n-1)."""
    low = order ** (n - 1 - i)
    return [k // (low * order) * low + k % low for k in range(order ** n)]


def _prepend_identity(order: int, n: int) -> list[int]:
    """s on G^n, into G^(n+1): the identity is index 0, so the index stays."""
    return list(range(order ** n))


@lru_cache(maxsize=16)
def resolution_identity_holds(group, max_degree: int,
                              cap: int = HOMOLOGY_SIZE_CAP) -> bool:
    """Whether the homogeneous resolution passes its exactness
    certificate through ``max_degree``: the extra-degeneracy identities
    on the G block, checked as index-list compositions.

    In degree n the G block holds the labels (G, t), t in G^n in
    ``product`` order.  The faces d_i, which drop entry i, and the extra
    degeneracy s, which prepends the identity and so keeps the index,
    are index lists.  For n = 0..max_degree, ``_compose`` checks
    d_0 s = id and d_(i+1) s = s d_i for 0 <= i < n.  With
    d = sum_i (-1)^i d_i these give, in degree n >= 1, d s = d_0 s -
    sum_(i<n) (-1)^i d_(i+1) s = id - sum_(i<n) (-1)^i s d_i = id - s d,
    and in degree 0, d s = d_0 s = id: the contracting homotopy
    (C. A. Weibel, An Introduction to Homological Algebra, 1994, 8.4.6;
    K. S. Brown, Cohomology of Groups, GTM 87, I.5).  Each map sends a
    label to one label with coefficient 1, so the matrix of a composition
    is the composition of the lists, over every ring: no field enters.

    The G block suffices: d only drops entries of t, so it never moves
    the subset A, and s prepends the identity, which lies in every A.
    So (A, t) -> (G, t) is an injective map that commutes with d and s,
    and the identity on the G block implies it on every block A.  The cap
    is checked on the widest degree, |G|^(max_degree + 1) labels, before
    any list is built.  The resolution does not depend on any module, so
    the result is cached per (group, degree, cap).
    """
    _check_cap(group, max_degree + 1, 1, cap, "homotopy certificate")
    order = group.order
    lo_faces = lo_s = None
    for n in range(max_degree + 1):
        s = _prepend_identity(order, n)
        faces = [_drop_entry(order, n + 1, i) for i in range(n + 1)]
        if _compose(faces[0], s) != list(range(order ** n)) or any(
                _compose(faces[i + 1], s) != _compose(lo_s, lo_faces[i])
                for i in range(n)):
            return False
        lo_faces, lo_s = faces, s
    return True


# ---------------------------------------------------------------------------
# Transport of the resolution against a module of generator matrices.


def check_transport_cap(group, dim: int, max_n: int, cap: int) -> None:
    """Refuse the transported complex of a dim-dimensional module through
    degree max_n; needs only the dimension, so it can run before the
    module is built."""
    for n in range(max_n + 1):
        _check_cap(group, n, dim, cap, "transported complex")


def _idempotent_supports(v_mod: PartialRepModule) -> list[frozenset[int]]:
    """The coordinates where e_x = [x][x^-1] is 1, per diagonal 0/1 e_x,
    read from the idempotents the module formed when it was checked."""
    group, one = v_mod.group, v_mod.field.one
    supports = []
    for x, e_x in enumerate(v_mod.idems):
        if any(col and col != {j: one} for j, col in enumerate(e_x.cols)):
            raise ValueError(
                f"e_x = [x][x^-1] at x = {group.element_name(x)} is not a "
                "diagonal 0/1 matrix; (co)homology needs every e_x diagonal")
        supports.append(frozenset(j for j, col in enumerate(e_x.cols) if col))
    return supports


def _degree_blocks(group, supports: list[frozenset[int]], n: int, cache: dict):
    """Per-tuple (offset, block) and the dimension of one chain degree.

    The block of (x_1, ..., x_n) holds the coordinates where every prefix
    idempotent acts as 1, as {coordinate: position in the block}; blocks
    follow each other in ``product`` order.
    """
    blocks = {}
    dim = 0
    for xs in product(range(group.order), repeat=n):
        key = frozenset(_prefixes(group, xs))
        if key not in cache:
            coords = supports[0].intersection(*(supports[p] for p in key))
            cache[key] = {i: k for k, i in enumerate(sorted(coords))}
        blocks[xs] = (dim, cache[key])
        dim += len(cache[key])
    return blocks, dim


def _faces(v_mod: PartialRepModule, n: int, blocks: dict,
           lo_blocks: dict) -> list[list]:
    """The faces d_0, ..., d_n of degree n, on every coordinate.

    d_j for 1 <= j < n contracts x_j x_(j+1) and d_n drops x_n; neither
    moves the block coordinate, so each is an index list into degree n-1
    for every module.  d_0 sends (x; v) to (x_2..x_n; [x_1^-1] v): an
    index list when the module acts by partial maps, else the list of its
    columns, read off the matrices.  A coordinate that leaves its target
    block raises RuntimeError; so does a zero [x_1^-1] v on a map module,
    which e_(x_1) v = v rules out, so no list holds a -1.
    """
    group, maps = v_mod.group, v_mod.maps
    inv = group.inv
    faces: list = [[] for _ in range(n + 1)]
    try:
        for xs, (_, block) in blocks.items():
            at = [lo_blocks[xs[1:]],
                  *(lo_blocks[_contract(group, xs, j)] for j in range(n - 1)),
                  lo_blocks[xs[:-1]]]
            tail_off, tail = at[0]
            if maps is not None:
                act = maps[inv(xs[0])]
                faces[0] += [tail_off + tail[act[i]] for i in block]
            else:
                act = v_mod.mats[inv(xs[0])].cols
                faces[0] += [{tail_off + tail[r]: v for r, v in act[i].items()}
                             for i in block]
            for face, (off, lo) in zip(faces[1:], at[1:]):
                face += [off + lo[i] for i in block]
    except KeyError:
        raise RuntimeError("vector escapes its projection block") from None
    return faces


def _degeneracies(n: int, blocks: dict, lo_blocks: dict) -> list[list[int]]:
    """The degeneracies s_0, ..., s_(n-1) of degree n as index lists from
    degree n-1 into degree n.

    s_j inserts the identity after x_j and keeps the block coordinate:
    the new tuple has the same prefixes, so the same block.  A coordinate
    that leaves it raises RuntimeError.
    """
    degens: list[list[int]] = [[] for _ in range(n)]
    try:
        for xs, (_, lo) in lo_blocks.items():
            for j, s in enumerate(degens):
                off, block = blocks[xs[:j] + (0,) + xs[j:]]
                s += [off + block[i] for i in lo]
    except KeyError:
        raise RuntimeError("a degeneracy leaves its block") from None
    return degens


def _simplicial_identities_hold(faces: list, degens: list[list[int]],
                                lo_faces: list | None,
                                lo_degens: list[list[int]] | None,
                                matrix: bool, one) -> bool:
    """Whether the faces and degeneracies of degree n satisfy, against
    those of degree n-1 (None at n = 1), every simplicial identity:

    - d_i d_j = d_(j-1) d_i for i < j, when d_0 is a list;
    - d_i s_j = s_(j-1) d_i for i < j, = id for i = j, j+1, and
      = s_j d_(i-1) for i > j+1;
    - s_i s_j = s_(j+1) s_i for i <= j.

    Each side is one list composition.  A d_0 given by columns
    (``matrix``) is compared column by column: d_0 s_0 = id is the unit
    relation [1] = id, and d_0 s_j = s_(j-1) d_0 maps the rows of each
    lower column through s_(j-1).
    """
    ident = list(range(len(degens[0])))
    for j, s in enumerate(degens):
        for i, d in enumerate(faces):
            if matrix and i == 0:
                got = [d[t] for t in s]
                if j == 0:
                    want = [{c: one} for c in ident]
                else:
                    below = lo_degens[j - 1]
                    want = [{below[r]: v for r, v in col.items()}
                            for col in lo_faces[0]]
            else:
                got = _compose(d, s)
                want = (ident if i in (j, j + 1)
                        else _compose(lo_degens[j - 1], lo_faces[i]) if i < j
                        else _compose(lo_degens[j], lo_faces[i - 1]))
            if got != want:
                return False
    if lo_degens is None:
        return True
    if any(_compose(degens[i], lo_degens[j])
           != _compose(degens[j + 1], lo_degens[i])
           for j in range(len(lo_degens)) for i in range(j + 1)):
        return False
    return matrix or all(_compose(lo_faces[i], faces[j])
                         == _compose(lo_faces[j - 1], faces[i])
                         for j in range(1, len(faces)) for i in range(j))


def _nondegenerate(blocks: dict) -> tuple[list[int], list[int]]:
    """The coordinates of the tuples with no x_i = 1, in order, and the
    list sending every coordinate to its position among them, -1 for a
    degenerate one."""
    index: list[int] = []
    kept: list[int] = []
    for xs, (off, block) in blocks.items():
        if 0 in xs:
            index += [-1] * len(block)
        else:
            index += range(len(kept), len(kept) + len(block))
            kept += range(off, off + len(block))
    return index, kept


def _add_faces(col: dict, targets, signs, p: int) -> dict:
    """Add each sign at its target row of one column, in order; each sum
    is reduced mod p and its row dropped when it cancels.  Row -1, a
    degenerate tuple, is dropped at the end."""
    for key, s in zip(targets, signs):
        v = col.get(key, 0) + s
        if p:
            v %= p
        if v:
            col[key] = v
        else:
            del col[key]
    col.pop(-1, None)
    return col


def _normalized_columns(faces: list, kept: list[int], lo_index: list[int],
                        signs: list[int], matrix: bool, p: int) -> list[dict]:
    """The columns of sum_j (-1)^j d_j at the coordinates ``kept``, rows
    renumbered by ``lo_index`` and degenerate rows dropped.  A d_0 given
    by columns (``matrix``) starts each column; list faces are added by
    ``_add_faces``."""
    lists = [_compose(lo_index, _compose(face, kept))
             for face in faces[matrix:]]
    if not matrix:
        return [_add_faces({}, row, signs, p) for row in zip(*lists)]
    return [_add_faces({lo_index[r]: v for r, v in faces[0][c].items()},
                       row, signs[1:], p)
            for c, row in zip(kept, zip(*lists))]


def _transported_complex(v_mod: PartialRepModule, max_n: int,
                         cap: int) -> ChainComplex:
    """The normalized chain complex of blocks e_{(x)} V with the
    transported boundary, through degree max_n.

    The boundary of a block coordinate v at the tuple (x_1, ..., x_n) is
    d_n = sum_j (-1)^j d_j over the faces of ``_faces``: [x_1^{-1}] v at
    the tail tuple, then the contractions, then the final drop of v
    itself.  With the degeneracies s_j of ``_degeneracies``, which insert
    the identity after x_j, the chains form a simplicial module through
    degree max_n.  Every simplicial identity is checked on every
    coordinate of every degree 1..max_n (``_simplicial_identities_hold``)
    and a failed one raises RuntimeError.

    Only the nondegenerate tuples, those with no x_i = 1, are assembled
    and ranked: d_n is the full alternating sum with the degenerate rows
    and columns deleted, each column holding its sums in face order,
    reduced mod p, a row dropped when its sum cancels (``_add_faces``).
    That is the complex C/D (C. A. Weibel, An Introduction to
    Homological Algebra, 1994, 8.3.7 and 8.3.8), and it has the
    homology of C in degrees 0..max_n - 1:

    - D_n, the span of the images of s_0..s_(n-1), is spanned by the
      coordinates of the degenerate tuples, since s_j sends the block of
      a tuple onto the same block at the tuple with 1 inserted.
    - d(D) is in D: in d s_j = sum_i (-1)^i d_i s_j the terms i = j and
      i = j+1 cancel, and every other d_i s_j is s_(j-1) d_i or s_j d_(i-1).
    - D is acyclic in degrees <= max_n - 1.  Let D^q be the span of the
      images of s_0..s_q, a subcomplex by the same identities, and
      D^(-1) = 0.  The map h = (-1)^q s_q sends D^q into itself and
      D^(q-1) into itself, as s_q s_j = s_j s_(q-1) for j < q.  For any x,
      (d s_q + s_q d) x is sum_(i<=q) (-1)^i s_q d_i x modulo D^(q-1):
      in d s_q x the terms i < q, s_(q-1) d_i x, lie in D^(q-1), the
      terms i = q, q+1 cancel, and the terms i > q+1, s_q d_(i-1) x,
      cancel those of s_q d x past q.  For x = s_q z the terms i < q are
      s_q s_(q-1) d_i z = s_(q-1) s_(q-1) d_i z, in D^(q-1), and
      d_q s_q = id leaves (-1)^q x.
      So dh + hd = id on D^q / D^(q-1), and a cycle y of degree n there
      is d(hy), which needs the identities only up to degree n+1.  The
      exact sequences 0 -> D^(q-1) -> D^q -> D^q / D^(q-1) -> 0 give
      H_n(D^q) = 0 by induction on q, and D^n agrees with D in degrees n
      and n+1, so H_n(D) = 0.
    - The sequence 0 -> D -> C -> C/D -> 0 then gives
      H_n(C) = H_n(C/D) for n <= max_n - 1, the degrees that are ranked.

    The ranks of C/D then run with compression and the mod-p certificate
    as for any complex.  When every face is a list (the module acts by
    partial maps), d^2 = 0 on C follows from d_i d_j = d_(j-1) d_i (the
    proof is in ``ChainComplex``), hence on C/D, so ``d2_zero`` forms no
    product.  A module whose d_0 is a matrix has d^2 checked by its
    products on C/D, the complex that is ranked.  The faces and
    degeneracies of at most two degrees are alive at once.
    """
    group = v_mod.group
    field = v_mod.field
    p = field.char
    matrix = v_mod.maps is None
    check_transport_cap(group, v_mod.dim, max_n, cap)
    supports = _idempotent_supports(v_mod)
    cache: dict = {}
    lo_blocks, dim = _degree_blocks(group, supports, 0, cache)
    lo_index = list(range(dim))
    dims = {0: dim}
    diffs = {}
    lo_faces = lo_degens = None
    for n in range(1, max_n + 1):
        blocks, _ = _degree_blocks(group, supports, n, cache)
        faces = _faces(v_mod, n, blocks, lo_blocks)
        degens = _degeneracies(n, blocks, lo_blocks)
        if not _simplicial_identities_hold(faces, degens, lo_faces, lo_degens,
                                           matrix, field.one):
            raise RuntimeError(f"a simplicial identity fails at degree {n}")
        index, kept = _nondegenerate(blocks)
        dims[n] = len(kept)
        # d_j takes the sign (-1)^j, held as a residue mod p
        signs = [(-1) ** j % p if p else (-1) ** j for j in range(n + 1)]
        diffs[n] = SparseMatrix._of_columns(
            field, dims[n - 1],
            _normalized_columns(faces, kept, lo_index, signs, matrix, p))
        lo_blocks, lo_index, lo_faces, lo_degens = blocks, index, faces, degens
    complex_ = ChainComplex(field, dims, diffs)
    if not matrix:
        complex_._d2 = True
    return complex_


# Cohomology has no complex class of its own; the name stays only because
# the tracer in perfbench/spans.py patches ``_CoComplex.d2_zero`` by it.
_CoComplex = ChainComplex


def _check_module(group, v_mod: PartialRepModule, field: Field | None) -> Field:
    if v_mod.group is not group:
        raise ValueError("module is over a different group")
    if field is not None and field != v_mod.field:
        raise ValueError("requested field differs from the module field")
    return v_mod.field


def _module_desc(v_mod: PartialRepModule) -> str:
    return f"left module of dimension {v_mod.dim}"


def partial_homology(group, v_mod: PartialRepModule, field: Field | None = None,
                     max_degree: int = 3, cap: int = HOMOLOGY_SIZE_CAP,
                     module_name: str | None = None) -> HomologyReport:
    """Per-degree homology of a left module against the bar machinery.

    Degree n is computed as dim ker d_n - rank d_{n+1} on the transported
    complex of blocks e_{(x)} V.  Every e_x = [x][x^-1] must be a diagonal
    0/1 matrix, else ValueError; each block is then the set of coordinates
    where every prefix idempotent is 1.  Degree 0 equals the dimension of
    the idempotent subalgebra tensored with the module.  The report's
    checks record that consecutive differentials compose to zero and that
    the underlying resolution passes its extra-degeneracy certificate
    (``resolution_identity_holds``), which holds over every ring.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    f = _check_module(group, v_mod, field)
    cx = _transported_complex(v_mod, max_degree + 1, cap)
    dims = cx.homology_dims(max_degree)
    checks = {
        "d2_zero": cx.d2_zero(),
        "homotopy_id": resolution_identity_holds(group, max_degree, cap),
    }
    return HomologyReport(group.name, module_name or _module_desc(v_mod), f,
                          "bar", dims, checks)


def dual_module(v_mod: PartialRepModule) -> PartialRepModule:
    """The dual module V*, on which [g] acts by the transpose of [g^-1].

    Over a field, dim H^n(V) = dim H_n(V*) for finite-dimensional V,
    because Hom_K(V* (x) P, K) = Hom(P, V) (K. S. Brown, Cohomology of
    Groups, GTM 87); partial_cohomology and group_cohomology both compute
    cohomology this way.  The dual satisfies the relations because V
    does, by transposition, so it is adopted without checking again; so
    are its idempotents e*_x = [x^-1]^T [x]^T = e_x^T and its
    self-duality, which is that of V.  A self-dual V has its own partial
    maps; any other dual has those of its transposes, None unless each
    is a 0/1 partial map, which fails for a map that is not injective.
    """
    group = v_mod.group
    mats = {g: v_mod.mats[group.inv(g)].transpose() for g in range(group.order)}
    idems = [e_x.transpose() for e_x in v_mod.idems]
    maps = v_mod.maps if v_mod.self_dual else _partial_maps(mats)
    return PartialRepModule._of_clean(group, v_mod.field, mats, idems,
                                      v_mod.self_dual, maps)


def partial_cohomology(group, v_mod: PartialRepModule, field: Field | None = None,
                       max_degree: int = 3, cap: int = HOMOLOGY_SIZE_CAP,
                       module_name: str | None = None) -> HomologyReport:
    """Per-degree cohomology of a left module: the homology of its dual.

    Degree 0 is the common kernel of the maps v -> [x] v - e_x v, where
    e_x = [x][x^-1].  A self-dual module equals its dual literally, so its
    cohomology is the homology of the module itself, and no dual is
    built; the verify functions that hold that homology already read it
    instead of calling this.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    f = _check_module(group, v_mod, field)
    check_transport_cap(group, v_mod.dim, max_degree + 1, cap)
    dual = v_mod if v_mod.self_dual else dual_module(v_mod)
    return partial_homology(group, dual, f, max_degree, cap,
                            module_name or _module_desc(v_mod))


# ---------------------------------------------------------------------------
# Classical bar complex of a finite group, kept independent of the
# machinery above so comparisons mean something.


def _local_tables(h_group):
    elems = list(h_group.elements)
    loc = {g.index: k for k, g in enumerate(elems)}
    mult = [[loc[(a * b).index] for b in elems] for a in elems]
    inv = [loc[a.inverse().index] for a in elems]
    return elems, mult, inv


def _check_group_rep(h_group, u: dict, field: Field):
    """Validate a representation keyed by group elements; return it
    indexed by local element position, with the ``_local_tables`` it was
    checked against."""
    tables = _local_tables(h_group)
    elems, mult, _ = tables
    try:
        mats = [u[g] for g in elems]
    except KeyError as exc:
        raise ValueError("representation must cover every element") from exc
    dims = {(m.nrows, m.ncols) for m in mats}
    if len(dims) != 1 or mats[0].nrows != mats[0].ncols:
        raise ValueError("representation matrices must be square, same size")
    if any(m.field != field for m in mats):
        raise ValueError("representation field mismatch")
    d = mats[0].nrows
    if mats[0] != SparseMatrix.identity(field, d):
        raise ValueError("identity element must act as the identity matrix")
    m = len(elems)
    for a in range(m):
        for b in range(m):
            if mats[a] * mats[b] != mats[mult[a][b]]:
                raise ValueError(f"not a homomorphism at pair ({a}, {b})")
    return mats, tables


def group_homology(h_group, u: dict, field: Field, max_degree: int = 3,
                   cap: int = HOMOLOGY_SIZE_CAP) -> HomologyReport:
    """Classical bar-complex homology of a finite group or subgroup.

    ``u`` maps group elements to matrices over ``field``.  Chains in
    degree n are one copy of the representation space per n-tuple; the
    boundary acts through the inverse on the leading entry, so degree 0
    is the coinvariants for the action u . h = U(h^{-1}) u.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    mats, tables = _check_group_rep(h_group, u, field)
    return _group_homology(h_group, mats, tables, field, max_degree, cap)


def _group_homology(h_group, mats: list, tables, field: Field,
                    max_degree: int, cap: int) -> HomologyReport:
    """``group_homology`` of a representation already checked, indexed by
    local element position, on its ``_local_tables``.  Chain n has one
    block of d coordinates per n-tuple, in ``product`` order."""
    elems, mult, inv = tables
    m = len(elems)
    d = mats[0].nrows
    dims = {}
    diffs = {}
    for n in range(max_degree + 2):
        dims[n] = (m ** n) * d
        if dims[n] > cap:
            raise SizeCapError(
                f"group chain space at degree {n} exceeds cap {cap}",
                limit=cap, requested=dims[n])
    for n in range(1, max_degree + 2):
        tpos = {t: k for k, t in enumerate(product(range(m), repeat=n - 1))}

        def terms():
            for ct, hs in enumerate(product(range(m), repeat=n)):
                tail_off = tpos[hs[1:]] * d
                lead = mats[inv[hs[0]]]
                for i in range(d):
                    c = ct * d + i
                    for r, v in lead.cols[i].items():
                        yield (tail_off + r, c), v
                    sign = field.neg(field.one)
                    for j in range(n - 1):
                        merged = (hs[:j] + (mult[hs[j]][hs[j + 1]],)
                                  + hs[j + 2:])
                        yield (tpos[merged] * d + i, c), sign
                        sign = field.neg(sign)
                    yield (tpos[hs[:-1]] * d + i, c), sign

        diffs[n] = SparseMatrix(field, dims[n - 1], dims[n],
                                accumulate(field, terms()))
    cx = ChainComplex(field, dims, diffs)
    return HomologyReport(getattr(h_group, "name", "H"),
                          f"representation of dimension {d}", field,
                          "ordinary", cx.homology_dims(max_degree),
                          {"d2_zero": cx.d2_zero(), "homotopy_id": None})


def _self_dual_rep(h_group, u: dict) -> bool:
    """Whether U(h^-1) is the transpose of U(h) for every h, so that the
    representation equals its dual h -> U(h^-1)^T and its cohomology is
    its homology; exact matrix equality.  Trivial and regular
    representations are self-dual."""
    return all(u[h.inverse()] == u[h].transpose() for h in h_group.elements)


def group_cohomology(h_group, u: dict, field: Field, max_degree: int = 3,
                     cap: int = HOMOLOGY_SIZE_CAP) -> HomologyReport:
    """Classical cohomology as the homology of the dual representation
    h -> U(h^-1)^T; degree 0 is the invariants.  The dual is a
    representation because u is, by transposition, so it is not checked
    again."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    mats, tables = _check_group_rep(h_group, u, field)
    return _group_homology(h_group, _dual_rep(mats, tables), tables, field,
                           max_degree, cap)


def _dual_rep(mats: list, tables) -> list:
    """h -> U(h^-1)^T on a representation indexed by local position."""
    _, _, inv = tables
    return [mats[inv[k]].transpose() for k in range(len(mats))]


# ---------------------------------------------------------------------------
# Comparison checks: induced modules against stabilizers, and the
# idempotent subalgebra against the sum over components.


def _compare(left: list[int], right: list[int]) -> dict:
    mismatch = next((i for i in range(len(left)) if left[i] != right[i]), None)
    return {"equal": mismatch is None, "first_mismatch": mismatch}


def verify_theorem_a(group, comp, u: dict, field: Field,
                     max_degree: int = 3,
                     cap: int = HOMOLOGY_SIZE_CAP) -> dict:
    """Induced-module (co)homology against the stabilizer's, degreewise.

    The left route induces the stabilizer representation along the
    component and runs the partial machinery; the right route runs the
    classical complex of the stabilizer directly.  On either route a
    self-dual module or representation has its homology report read as
    its cohomology, so that complex is built once; any other runs the
    cohomology of its dual.  The report lists both dimension vectors and
    the first degree where they disagree, if any.  The representation is
    checked once, first, and both classical halves read the checked
    matrices; the transport cap is checked on the induced dimension
    before the module is built.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    stab = comp.stabilizer
    mats, tables = _check_group_rep(stab, u, field)
    check_transport_cap(group, comp.size * mats[0].nrows, max_degree + 1, cap)
    v = induce_module(comp, u, field)
    lh = partial_homology(group, v, field, max_degree, cap,
                          module_name="induced from stabilizer")
    rh = _group_homology(stab, mats, tables, field, max_degree, cap)
    lc = lh if v.self_dual else partial_cohomology(
        group, v, field, max_degree, cap, module_name="induced from stabilizer")
    rc = rh if _self_dual_rep(stab, u) else _group_homology(
        stab, _dual_rep(mats, tables), tables, field, max_degree, cap)
    hom = {"partial": lh.dims, "ordinary": rh.dims, **_compare(lh.dims, rh.dims)}
    coh = {"partial": lc.dims, "ordinary": rc.dims, **_compare(lc.dims, rc.dims)}
    checks_ok = all([lh.checks["d2_zero"], lh.checks["homotopy_id"],
                     lc.checks["d2_zero"], lc.checks["homotopy_id"],
                     rh.checks["d2_zero"], rc.checks["d2_zero"]])
    return {
        "group": group.name,
        "component_base": _set_str(group, comp.base),
        "stabilizer": comp.stabilizer.name,
        "stabilizer_order": comp.stabilizer.order,
        "field": field.name,
        "max_degree": max_degree,
        "homology": hom,
        "cohomology": coh,
        "ok": hom["equal"] and coh["equal"] and checks_ok,
    }


def verify_corollary_b(group, field: Field, max_degree: int = 3,
                       cap: int = HOMOLOGY_SIZE_CAP,
                       group_cap: int = GROUPOID_ORDER_CAP) -> dict:
    """Idempotent-subalgebra (co)homology against the stabilizer sum.

    The left route runs the partial machinery on the idempotent
    subalgebra as a module over the whole algebra; the right route sums,
    component by component, the classical (co)homology of each stabilizer
    with trivial coefficients.  Components often share a stabilizer, so
    the classical pipeline runs once per distinct stabilizer.  B and the
    trivial representations are self-dual, so on both routes the homology
    report is read as the cohomology and each complex is built once.  The
    group order is checked against ``group_cap`` before anything is built.
    ``ok`` needs equal dimensions and every structural check: d^2 = 0 and
    the homotopy identity on the partial side, d^2 = 0 of each distinct
    stabilizer's classical complexes.  A negative ``max_degree`` is
    refused before the groupoid, its components or B are built.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    comps = components(build_groupoid(group, group_cap))
    bm = b_module(group, field)
    lh = partial_homology(group, bm, field, max_degree, cap,
                          module_name="idempotent subalgebra")
    lc = lh if bm.self_dual else partial_cohomology(
        group, bm, field, max_degree, cap, module_name="idempotent subalgebra")
    right_h = [0] * (max_degree + 1)
    right_c = [0] * (max_degree + 1)
    per_component = []
    classical: dict = {}
    for comp in comps:
        stab = comp.stabilizer
        if stab not in classical:
            u = trivial_rep(stab, field)
            hrep = group_homology(stab, u, field, max_degree, cap)
            crep = hrep if _self_dual_rep(stab, u) else group_cohomology(
                stab, u, field, max_degree, cap)
            classical[stab] = (hrep, crep)
        hr, cr = (rep.dims for rep in classical[stab])
        right_h = [a + b for a, b in zip(right_h, hr)]
        right_c = [a + b for a, b in zip(right_c, cr)]
        per_component.append({
            "base": _set_str(group, comp.base),
            "stabilizer_order": stab.order,
            "homology": hr,
            "cohomology": cr,
        })
    hom = {"partial": lh.dims, "stabilizer_sum": right_h,
           **_compare(lh.dims, right_h)}
    coh = {"partial": lc.dims, "stabilizer_sum": right_c,
           **_compare(lc.dims, right_c)}
    return {
        "group": group.name,
        "field": field.name,
        "max_degree": max_degree,
        "homology": hom,
        "cohomology": coh,
        "components": per_component,
        "ok": (hom["equal"] and coh["equal"]
               and lh.checks["d2_zero"] and lh.checks["homotopy_id"]
               and lc.checks["d2_zero"] and lc.checks["homotopy_id"]
               and all(rep.checks["d2_zero"] for pair in classical.values()
                       for rep in pair)),
    }

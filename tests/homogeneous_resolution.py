"""The homogeneous resolution as sparse matrices, on every subset block;
the oracle of ``homology.resolution_identity_holds``.

The library certifies the resolution's exactness by index-list
identities on the G block.  Here the resolution is built label by label
on every block A, and its contracting homotopy is checked by matrix
products and sums, s d + d s = id in each positive degree and
d_1 s_0 = id in degree 0.
"""

from itertools import product

from dense_reference import matrix_entries
from parh.exel import PartialGroupAlgebra
from parh.homology import HOMOLOGY_SIZE_CAP, _check_cap
from parh.linalg import QQ, SparseMatrix, accumulate


def _subsets(group):
    return PartialGroupAlgebra(group).subsets_with_identity()


def homogeneous_basis(group, n, cap=HOMOLOGY_SIZE_CAP, *, subsets=None):
    """Degree-n labels (A, (g_1, ..., g_n)) with A containing every g_i.

    A ranges over ``subsets``, by default every subset that contains the
    identity; the same holds for the two builders below.
    """
    if subsets is None:
        subsets = _subsets(group)
    _check_cap(group, n, len(subsets), cap, "homogeneous basis")
    out = []
    for t in product(range(group.order), repeat=n):
        need = {0, *t}
        out.extend((a, t) for a in subsets if need.issubset(a))
    return out


def homogeneous_differential(group, n, field=QQ, cap=HOMOLOGY_SIZE_CAP, *,
                             subsets=None):
    """Alternating sum of entry drops; the subset label never moves.  Rows
    and columns follow ``homogeneous_basis``, here and in the homotopy."""
    if n < 1:
        raise ValueError("homogeneous differential starts at degree 1")
    rows = homogeneous_basis(group, n - 1, cap, subsets=subsets)
    cols = homogeneous_basis(group, n, cap, subsets=subsets)
    rpos = {lab: k for k, lab in enumerate(rows)}
    f = field

    def terms():
        for c, (a, gs) in enumerate(cols):
            sign = f.one
            for i in range(len(gs)):
                yield (rpos[(a, gs[:i] + gs[i + 1:])], c), sign
                sign = f.neg(sign)

    return SparseMatrix(f, len(rows), len(cols), accumulate(f, terms()))


def contracting_homotopy(group, n, field=QQ, cap=HOMOLOGY_SIZE_CAP, *,
                         subsets=None):
    """Matrix of the degree-raising map prepending the identity entry.

    Together with the homogeneous differentials it satisfies
    s d + d s = id in every positive degree, and d_1 s_0 = id in degree
    zero, which is the degreewise exactness certificate.
    """
    rows = homogeneous_basis(group, n + 1, cap, subsets=subsets)
    cols = homogeneous_basis(group, n, cap, subsets=subsets)
    rpos = {lab: k for k, lab in enumerate(rows)}
    entries = {}
    for c, (a, gs) in enumerate(cols):
        entries[(rpos[(a, (0,) + gs)], c)] = field.one
    return SparseMatrix(field, len(rows), len(cols), entries)


def _sum(a, b):
    """a + b, summed entry by entry with ``accumulate``."""
    terms = [*matrix_entries(a).items(), *matrix_entries(b).items()]
    return SparseMatrix(a.field, a.nrows, a.ncols, accumulate(a.field, terms))


def homotopy_composites(group, max_degree, cap=10 ** 7):
    """d_1 s_0 and s_(m-1) d_m + d_(m+1) s_m for m = 1..max_degree, on every
    label (A, t), over Q.  Their entries are integers, so each reduced
    mod p is the composite over F_p."""
    diffs = {m: homogeneous_differential(group, m, QQ, cap)
             for m in range(1, max_degree + 2)}
    homs = {m: contracting_homotopy(group, m, QQ, cap)
            for m in range(max_degree + 1)}
    return [diffs[1] * homs[0]] + [
        _sum(homs[m - 1] * diffs[m], diffs[m + 1] * homs[m])
        for m in range(1, max_degree + 1)]

"""Independent routes to the partial homology of B; oracles.

``parh.homology`` computes partial homology on the transported complex
of a module.  For the idempotent subalgebra B the same complex can be
written down combinatorially, in the primitive basis with +-1 entries,
and its degree 0 is the dimension of B tensored with the module, which
elimination on the relations computes without any chain machinery.
"""

from itertools import product

from homogeneous_resolution import _subsets
from subset_routes import translate
from parh.homology import _contract, _prefixes
from parh.linalg import QQ, Eliminator, SparseMatrix, accumulate


def bar_basis(group, n):
    """Degree-n basis labels (A, (x_1, ..., x_n)).

    A ranges over the primitive idempotent indices that contain the
    identity and every prefix product x_1, x_1 x_2, ...; degree 0 is the
    idempotent subalgebra itself, one label (A, ()) per subset.
    """
    subsets = _subsets(group)
    out = []
    for xs in product(range(group.order), repeat=n):
        need = {0, *_prefixes(group, xs)}
        out.extend((a, xs) for a in subsets if need.issubset(a))
    return out


def bar_differential(group, n, field=QQ):
    """Matrix of the degree-n bar differential in the primitive basis.

    The column of (A, (x_1, ..., x_n)) has the three kinds of terms: the
    translated tail (x_1^{-1} A, (x_2, ..., x_n)), the alternating-sign
    contractions (A, (..., x_i x_{i+1}, ...)), and the sign (-1)^n drop
    of the last entry.  Every entry is +-1 up to collisions, and the
    composite of consecutive differentials is zero.  Rows and columns are
    numbered as ``bar_basis`` lists degrees n-1 and n.
    """
    rows = bar_basis(group, n - 1)
    cols = bar_basis(group, n)
    rpos = {lab: k for k, lab in enumerate(rows)}
    f = field

    def terms():
        for c, (a, xs) in enumerate(cols):
            tail_a = translate(group, group.inv(xs[0]), a)
            yield (rpos[(tail_a, xs[1:])], c), f.one
            sign = f.neg(f.one)
            for j in range(len(xs) - 1):
                yield (rpos[(a, _contract(group, xs, j))], c), sign
                sign = f.neg(sign)
            yield (rpos[(a, xs[:-1])], c), sign

    return SparseMatrix(f, len(rows), len(cols), accumulate(f, terms()))


def b_tensor_dim(v_mod):
    """Dimension of the idempotent subalgebra tensored with the module.

    Computed by the relation-cokernel route: span the vectors
    e_A[g] (x) v - e_A (x) [g]v inside the span of all e_A (x) v, where
    e_A[g] = [g^-1] e_A [g] is e_{g^-1 A} when g is in A and zero
    otherwise, and subtract the rank.  The brackets [g] generate the
    algebra, so their relations span those of every element.
    """
    group = v_mod.group
    field = v_mod.field
    subsets = _subsets(group)
    pos = {a: k for k, a in enumerate(subsets)}
    d = v_mod.dim
    elim = Eliminator(field)
    for g in range(group.order):
        act = v_mod.mats[g].cols
        gi = group.inv(g)
        for k, a in enumerate(subsets):
            shifted = pos[translate(group, gi, a)] if g in a else None
            for j in range(d):
                terms = [(k * d + r, -v) for r, v in act[j].items()]
                if shifted is not None:
                    terms.append((shifted * d + j, field.one))
                col = accumulate(field, terms)
                if col:
                    elim.add(col)
    return len(subsets) * d - elim.rank

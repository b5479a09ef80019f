"""The full transported differentials built term by term.

``parh.homology._transported_complex`` checks the simplicial identities
of the nerve of G on tuple index lists, and sums each column of d_n from
the faces' target blocks, at the nondegenerate tuples only (no entry
x_i = 1).  This is an earlier construction of the full complex: every
term ``((row, col), value)`` of [x_1^-1] v, the contractions and the
final drop streamed through one ``linalg.accumulate``, the entries
coerced again by ``SparseMatrix``, with no face, on every tuple, laid
out by ``full_blocks``.  With its degenerate rows and columns deleted
(``without_degenerate``) it is kept as an oracle for the face-built
normalized matrices, entry order included.
"""

from itertools import product

from parh.homology import _idempotent_supports, _prefixes
from parh.linalg import SparseMatrix, accumulate


def contract(group, xs, j):
    """The tuple xs with entries j and j+1 replaced by their product."""
    return xs[:j] + (group.mult(xs[j], xs[j + 1]),) + xs[j + 2:]


def full_blocks(group, supports, n, cache):
    """{tuple: (offset, block)} of the full complex in degree n, and its
    dimension.

    The block of (x_1, ..., x_n) holds the coordinates where every prefix
    idempotent acts as 1, as {coordinate: position in the block}; blocks
    follow each other in ``product`` order, degenerate tuples included.
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


def term_built_differentials(v_mod, max_n):
    """{n: d_n} for n = 1..max_n, on the blocks of the transported complex."""
    group, field = v_mod.group, v_mod.field
    supports = _idempotent_supports(v_mod)
    cols = [v_mod.mats[g].cols for g in range(group.order)]
    cache = {}
    degree = {n: full_blocks(group, supports, n, cache)
              for n in range(max_n + 1)}
    diffs = {}
    for n in range(1, max_n + 1):
        lo_blocks = degree[n - 1][0]

        def terms():
            c = 0
            for xs, (_, block) in degree[n][0].items():
                targets = [(xs[1:], field.one, cols[group.inv(xs[0])])]
                sign = field.neg(field.one)
                for j in range(n - 1):
                    targets.append((contract(group, xs, j), sign, None))
                    sign = field.neg(sign)
                targets.append((xs[:-1], sign, None))
                for i in block:
                    unit = {i: field.one}
                    for ys, s, mat in targets:
                        off, lo = lo_blocks[ys]
                        for r, v in (unit if mat is None else mat[i]).items():
                            yield (off + lo[r], c), s * v
                    c += 1

        diffs[n] = SparseMatrix(field, degree[n - 1][1], degree[n][1],
                                accumulate(field, terms()))
    return diffs


def degenerate_coordinates(v_mod, max_n):
    """{n: the coordinates of degree n at the tuples with an entry equal
    to the identity}, for n = 0..max_n."""
    group = v_mod.group
    supports = _idempotent_supports(v_mod)
    cache = {}
    out = {}
    for n in range(max_n + 1):
        blocks, _ = full_blocks(group, supports, n, cache)
        out[n] = {off + k for xs, (off, block) in blocks.items()
                  if group.identity_index in xs for k in range(len(block))}
    return out


def without_degenerate(diffs, degenerate):
    """Each d_n with the rows in ``degenerate[n - 1]`` and the columns in
    ``degenerate[n]`` deleted, the others renumbered in order and the
    entries of each column kept in their order."""
    out = {}
    for n, d in diffs.items():
        pos = {r: k for k, r in enumerate(
            r for r in range(d.nrows) if r not in degenerate[n - 1])}
        cols = [{pos[r]: v for r, v in col.items() if r in pos}
                for c, col in enumerate(d.cols) if c not in degenerate[n]]
        out[n] = SparseMatrix._of_columns(d.field, len(pos), cols)
    return out

"""The B (x) K_Delta relations over the whole canonical basis.

``parh.groupoid.tensor_b_kdelta`` moves only the brackets [g] across the
tensor sign.  This is the relation builder it replaced, kept as an oracle
for it: every canonical pair s = (C, g) is moved, giving the relation
e_A s (x) y - e_A (x) s y for each subset A and arrow y, built once per
pair of tensor coordinates.  ``check_bracket_tables`` checks the closed
forms the bracket relations are read from against honest products.
``residue_tensor_report`` is the report ``tensor_b_kdelta`` gave before
it read its checks off the span's roots: a residue column per stabilizer
pair and per tensor coordinate.  Subsets are member tuples here; the
groupoid's vertices, subset keys, are decoded where they come in.
"""

from itertools import chain

from parh import groupoid
from parh.exel import PartialGroupAlgebra
from parh.groupoid import (
    ArrowSum,
    TensorReport,
    _bracket_tables,
    arrow_unit,
    lambda_delta,
)
from parh.linalg import IncidenceSpan, accumulate
from subset_routes import translate


def canonical_relations(comp, field):
    """Relation columns over the tensor coordinates (subset, arrow), and
    the number of those coordinates."""
    grp = comp.group
    algebra = PartialGroupAlgebra(grp, field)
    subsets = algebra.subsets_with_identity()
    sub_pos = {a: k for k, a in enumerate(subsets)}
    arrows = comp.arrows
    n_arr = len(arrows)
    one, minus_one = field.one, field.neg(field.one)

    def right_act(a, s):
        # e_A s = [g^-1] e_A s for s = (C, g): e_{g^-1 A} when C is in A
        if not set(s.members).issubset(a):
            return None
        return translate(grp, grp.inv(s.g), a)

    decode = grp.key_decoder()
    targets = [translate(grp, h, decode(b)) for b, h in arrows]
    basis_pairs = algebra.canonical_basis()
    # hits[i][j]: position of the single arrow in lambda(basis_pairs[i])
    # composable with arrows[j], or None; it does not depend on the subset
    hits = []
    for s in basis_pairs:
        gi = grp.inv(s.g)
        need = {grp.mult(gi, m) for m in s.members}
        hits.append([
            comp.arrow_pos[(b, grp.mult(s.g, h))] if need.issubset(t) else None
            for (b, h), t in zip(arrows, targets)
        ])

    # (moved index, hit index), None for a vanishing term; many
    # (subset, pair, arrow) triples give the same relation
    keys = {}
    for ai, a in enumerate(subsets):
        row_a = ai * n_arr
        for s, hit_row in zip(basis_pairs, hits):
            moved = right_act(a, s)
            if moved is None:
                for h in hit_row:
                    if h is not None:
                        keys[(None, row_a + h)] = None
            else:
                row_m = sub_pos[moved] * n_arr
                for j, h in enumerate(hit_row):
                    keys[(row_m + j, None if h is None else row_a + h)] = None
    relations = []
    for m, h in keys:
        if m == h:
            continue  # the two terms cancel
        col = {}
        if m is not None:
            col[m] = one
        if h is not None:
            col[h] = minus_one
        relations.append(col)
    return relations, len(subsets) * n_arr


def check_bracket_tables(comp, field):
    """Compare the tables ``tensor_b_kdelta`` builds from with products.

    ``groupoid._bracket_tables`` gives e_A[g], [g]y and the arrow targets.
    e_A[g] and [g]y are compared with honest products of the brackets,
    [g^-1] e_A [g] in the algebra and lambda_delta([g]) y in the groupoid
    algebra, and phi's rule, e_A (x) (B, g) goes to the vertex B exactly
    when A is the target gB, with its definition: g is in A and
    g^-1 A == B.
    """
    grp = comp.group
    gd = comp.groupoid
    algebra = PartialGroupAlgebra(grp, field)
    subsets = algebra.subsets_with_identity()
    targets, moved, hits = _bracket_tables(comp, algebra.subset_keys())
    idems = [algebra.primitive_idempotent(a) for a in subsets]
    for g, (move_row, hit_row) in enumerate(zip(moved, hits)):
        lo, hi = algebra.bracket(grp.inv(g)), algebra.bracket(g)
        for a, e_a, m in zip(subsets, idems, move_row):
            expect = algebra.zero() if m is None else idems[m]
            assert lo * e_a * hi == expect, ("right action", a, g)
        img = lambda_delta(comp, hi)
        for arrow, hit in zip(comp.arrows, hit_row):
            expect = (ArrowSum(gd, field) if hit is None
                      else arrow_unit(gd, comp.arrows[hit], field))
            assert img * arrow_unit(gd, arrow, field) == expect, (g, arrow)
    decode = grp.key_decoder()
    for a in subsets:
        for (b, g), t in zip(comp.arrows, targets):
            rule = g in a and translate(grp, grp.inv(g), a) == decode(b)
            assert (a == decode(t)) == rule, ("phi", a, b, g)


def residue_tensor_report(comp, field):
    """The TensorReport of ``tensor_b_kdelta``, each relation check made
    by ``IncidenceSpan.residue_column`` on its own column.

    The bracket tables and the vertex sections are read through the
    ``parh.groupoid`` module at call time, so a test that patches them
    there changes this report as it changes the one under test.
    """
    grp = comp.group
    algebra = PartialGroupAlgebra(grp, field)
    subsets = algebra.subsets_with_identity()
    sub_pos = {a: k for k, a in enumerate(subsets)}
    arrows = comp.arrows
    n_arr = len(arrows)
    flat = len(subsets) * n_arr
    one, minus_one = field.one, field.neg(field.one)

    def tensor_index(a, arrow):
        return sub_pos[a] * n_arr + comp.arrow_pos[arrow]

    targets, moved, hits = groupoid._bracket_tables(comp,
                                                    algebra.subset_keys())
    targets = list(map(grp.key_decoder(), targets))

    def phi_column(k, j):
        if subsets[k] == targets[j]:
            return {comp.vertex_pos[arrows[j][0]]: one}
        return {}

    def phi(idx):
        return phi_column(*divmod(idx, n_arr))

    span = IncidenceSpan(field)
    for move_row, hit_row in zip(moved, hits):
        for k, m in enumerate(move_row):
            for j, h in enumerate(hit_row):
                u = None if m is None else m * n_arr + j
                v = None if h is None else k * n_arr + h
                if u == v:
                    continue
                if u is None:
                    span.add(v)
                elif v is None:
                    span.add(u)
                else:
                    span.add(u, v)

    image_of = {span.root(-1): {}}
    phi_kills = all(image_of.setdefault(span.root(idx), col) == col
                    for idx, col in enumerate(map(phi, range(flat))))

    h_trivial = not any(
        span.residue_column({tensor_index(a, (b, grp.mult(g, h))): one,
                             tensor_index(a, (b, g)): minus_one})
        for h in comp.stabilizer.indices if h != 0
        for b, g in arrows if b == comp.base for a in subsets)

    psi_cols = []
    for v in comp.vertices:
        vec = algebra.primitive_vector(groupoid.tilde_pi(comp, v, field))
        psi_cols.append({subk * n_arr + comp.arrow_pos[(v, 0)]: c
                         for subk, c in vec.items()})

    def phi_image(col):
        return accumulate(field, ((r, c * v) for idx, c in col.items()
                                  for r, v in phi(idx).items()))

    phi_psi = all(phi_image(psi_cols[k]) == {k: one}
                  for k in range(comp.size))

    psi_phi = True
    for k, a in enumerate(subsets):
        for j, arrow in enumerate(arrows):
            expect = accumulate(field, chain(
                ((idx, val * c)
                 for r, val in phi_column(k, j).items()
                 for idx, c in psi_cols[r].items()),
                [(tensor_index(a, arrow), minus_one)]))
            if span.residue_column(expect):
                psi_phi = False

    return TensorReport(
        dimension=flat - span.rank,
        expected=comp.size,
        h_action_trivial=h_trivial,
        phi_kills_relations=phi_kills,
        phi_psi_identity=phi_psi,
        psi_phi_identity=psi_phi,
    )

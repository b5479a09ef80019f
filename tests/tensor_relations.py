"""The B (x) K_Delta relations over the whole canonical basis.

``parh.groupoid.tensor_b_kdelta`` moves only the brackets [g] across the
tensor sign.  This is the relation builder it replaced, kept as an oracle
for it: every canonical pair s = (C, g) is moved, giving the relation
e_A s (x) y - e_A (x) s y for each subset A and arrow y, built once per
pair of tensor coordinates.  ``check_bracket_tables`` checks the closed
forms the bracket relations are read from against honest products.
"""

from parh.exel import PartialGroupAlgebra
from parh.groupoid import ArrowSum, _bracket_tables, arrow_unit, lambda_delta
from parh.groups import translate


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

    targets = [comp.groupoid.target(arrow) for arrow in arrows]
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
    targets, moved, hits = _bracket_tables(
        comp, {a: k for k, a in enumerate(subsets)})
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
    for a in subsets:
        for (b, g), t in zip(comp.arrows, targets):
            rule = g in a and translate(grp, grp.inv(g), a) == b
            assert (a == t) == rule, ("phi", a, b, g)

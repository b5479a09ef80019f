"""The B (x) K_Delta relations over the whole canonical basis.

``parh.groupoid.tensor_b_kdelta`` moves only the brackets [g] across the
tensor sign.  This is the relation builder it replaced, kept as an oracle
for it: every canonical pair s = (C, g) is moved, giving the relation
e_A s (x) y - e_A (x) s y for each subset A and arrow y, built once per
pair of tensor coordinates.
"""

from parh.exel import PartialGroupAlgebra
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

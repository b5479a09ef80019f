"""The member-tuple routes that subset keys replaced; oracles.

``PartialGroupAlgebra.primitive_vector`` tests C inside A on masks, and
``groupoid._bracket_tables`` reads the position of e_{g^-1 A} off the
group's key translation.  These are the routes they replaced, on sorted
member tuples: a set-inclusion scan, and a translate looked up among the
subsets by position.
"""

from parh.groups import translate
from parh.linalg import accumulate


def tuple_primitive_vector(algebra, x):
    """Coordinates of x in B over the e_A: (C, 1) is the sum of e_A over
    the subsets A holding C."""
    subsets = algebra.subsets_with_identity()
    return accumulate(algebra.field, (
        (k, c) for s, c in x.coeffs.items()
        for k, a in enumerate(subsets) if set(s.members).issubset(a)))


def tuple_bracket_tables(comp, sub_pos):
    """``targets``, ``moved`` and ``hits`` of ``_bracket_tables``, with
    ``sub_pos`` the position of each subset tuple."""
    grp = comp.group
    targets = [comp.groupoid.target(arrow) for arrow in comp.arrows]
    moved, hits = [], []
    for g in range(grp.order):
        gi = grp.inv(g)
        moved.append([sub_pos[translate(grp, gi, a)] if g in a else None
                      for a in sub_pos])
        hits.append([comp.arrow_pos[(b, grp.mult(g, h))] if gi in t else None
                     for (b, h), t in zip(comp.arrows, targets)])
    return targets, moved, hits

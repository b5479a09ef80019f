"""The member-tuple routes that subset keys replaced; oracles.

``PartialGroupAlgebra.primitive_vector`` tests C inside A on masks, and
``groupoid._bracket_tables`` reads the position of e_{g^-1 A} off the
group's key translation.  These are the routes they replaced, on sorted
member tuples: a set-inclusion scan, and a translate looked up among the
subsets by position.  ``translate`` is the tuple translate the groupoid
moved its vertices with before they were subset keys; the oracles that
work on member tuples import it from here.
"""

from parh.linalg import accumulate


def translate(group, g, subset):
    """The left translate g * subset, as a sorted tuple of indices.

    >>> from parh.groups import build_named_group
    >>> translate(build_named_group("C3"), 1, (0, 2))
    (0, 1)
    """
    return tuple(sorted([group.mult(g, m) for m in subset]))


def tuple_primitive_vector(algebra, x):
    """Coordinates of x in B over the e_A: (C, 1) is the sum of e_A over
    the subsets A holding C."""
    subsets = algebra.subsets_with_identity()
    return accumulate(algebra.field, (
        (k, c) for s, c in x.coeffs.items()
        for k, a in enumerate(subsets) if set(s.members).issubset(a)))


def tuple_bracket_tables(comp, sub_pos):
    """``targets``, ``moved`` and ``hits`` of ``_bracket_tables``, with
    ``sub_pos`` the position of each subset tuple.  The arrows' vertices
    are decoded to tuples, and the targets encoded back as subset keys."""
    grp = comp.group
    decode = grp.key_decoder()
    targets = [translate(grp, h, decode(b)) for b, h in comp.arrows]
    moved, hits = [], []
    for g in range(grp.order):
        gi = grp.inv(g)
        moved.append([sub_pos[translate(grp, gi, a)] if g in a else None
                      for a in sub_pos])
        hits.append([comp.arrow_pos[(b, grp.mult(g, h))] if gi in t else None
                     for (b, h), t in zip(comp.arrows, targets)])
    return list(map(grp.subset_key, targets)), moved, hits

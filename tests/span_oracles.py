"""Span tests on families of columns, built on ``linalg.Eliminator``.

The library ranks whole matrices and reads level spans off a union-find;
these plain eliminations over a list of columns check both from outside.
Coefficients are tracked by the augmented identity, as ``kernel_basis``
does: column t carries one extra coordinate 1 at row -1 - t.
"""

from parh.linalg import QQ, Eliminator


def in_span(v, basis, field):
    """Coefficients expressing ``v`` over ``basis``, or None if outside.

    >>> in_span({0: 2}, [{0: 1}], QQ)
    {0: Fraction(2, 1)}
    >>> in_span({1: 1}, [{0: 1}], QQ) is None
    True
    """
    elim = Eliminator(field)
    for t, col in enumerate(basis):
        add_tagged(elim, col, t)
    return tagged_coefficients(elim, v)


def add_tagged(elim, col, t):
    """Absorb ``col`` as column t, unless it is already in the span;
    return whether it was absorbed.  No pivot lands on a negative row."""
    res = elim.reduce({**col, -1 - t: elim.field.one})
    if max(res) < 0:
        return False
    elim.add(res)
    return True


def tagged_coefficients(elim, v):
    """Coefficients c with v == sum(c[t] * column_t) over the columns
    absorbed by ``add_tagged``, or None if v is outside their span."""
    res = elim.reduce(v)
    if any(r >= 0 for r in res):
        return None
    neg = elim.field.neg
    return {-1 - r: neg(c) for r, c in res.items()}


def subspace_equal(a, b, field):
    """Whether two column families span the same subspace."""
    ea = Eliminator(field)
    for col in a:
        ea.add(col)
    for col in b:
        if ea.reduce(col):
            return False
    eb = Eliminator(field)
    for col in b:
        eb.add(col)
    for col in a:
        if eb.reduce(col):
            return False
    return True


def span_rank(cols, field):
    """Rank of a family of columns without building a matrix."""
    elim = Eliminator(field)
    for col in cols:
        elim.add(col)
    return elim.rank

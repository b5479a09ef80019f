"""Span tests on families of columns, built on ``linalg.Eliminator``.

The library ranks whole matrices and reads level spans off a union-find;
these plain eliminations over a list of columns check both from outside.
"""

from parh.linalg import QQ, Eliminator


def in_span(v, basis, field):
    """Coefficients expressing ``v`` over ``basis``, or None if outside.

    >>> in_span({0: 2}, [{0: 1}], QQ)
    {0: Fraction(2, 1)}
    >>> in_span({1: 1}, [{0: 1}], QQ) is None
    True
    """
    elim = Eliminator(field, track=True)
    for j, col in enumerate(basis):
        elim.add(col, tag=j)
    hist = {}
    res = elim.reduce(dict(v), hist)
    if res:
        return None
    return {t: c for t, c in hist.items() if c}


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

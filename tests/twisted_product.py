"""The crossed-product model of the partial group algebra; an oracle.

``parh.exel`` multiplies canonical pairs by the direct rule
(A, g)(B, h) = (A union gB, gh).  This model computes the same products
from the idempotent-twisting rule instead, multiplying idempotent
coefficients through the partial translations, and shares no code with
``parh.exel`` beyond the group tables.
"""

from functools import reduce

from parh.exel import SElement, _gidx, s_mul
from parh.groups import GroupError


def s_generator(group, g):
    """The generator [g] as the canonical pair ({1, g}, g)."""
    return SElement(group, (), _gidx(group, g))


class SkewElement:
    """A twisted-product monomial e_S # g.

    ``factors`` is the index set S of idempotent factors; no canonical
    closure is applied beyond what the product rule itself produces.
    """

    __slots__ = ("group", "factors", "g")

    def __init__(self, group, factors, g):
        self.group = group
        self.factors = frozenset(factors)
        self.g = g

    def canonical_pair(self):
        """The (A, g) this monomial equals, closing under {1, g}."""
        e = self.group.identity_index
        return (tuple(sorted(self.factors | {e, self.g})), self.g)


def as_skew(s):
    """The canonical pair s as a twisted monomial."""
    return SkewElement(s.group, s.members, s.g)


def skew_generator(group, g):
    """[g] in the twisted model: the g-indexed unit times the g-shift."""
    gi = _gidx(group, g)
    return SkewElement(group, {gi}, gi)


def skew_mul(x, y):
    """Twisted product (e_S # g)(e_T # h).

    The right coefficient is cut down to the domain of the g-translation,
    translated, and multiplied out:
    e_S * tau_g(e_T * e_h * e_{g^-1}) = e_{S + gT + {gh, 1, g}}.
    """
    if x.group is not y.group:
        raise GroupError("elements of different groups")
    grp = x.group
    g, h = x.g, y.g
    cut = set(y.factors) | {h, grp.inv(g)}
    translated = {grp.mult(g, t) for t in cut} | {g}
    return SkewElement(grp, set(x.factors) | translated, grp.mult(g, h))


def skew_star(x):
    """Involution in the twisted model: translate factors by g^-1."""
    grp = x.group
    gi = grp.inv(x.g)
    factors = {grp.mult(gi, t) for t in x.factors} | {gi}
    return SkewElement(grp, factors, gi)


def evaluate_word(algebra, word):
    """The product [g_1]...[g_n] as one monomial, folded by ``s_mul``;
    the empty word gives the unit."""
    grp = algebra.group
    return algebra.monomial(reduce(
        s_mul, (s_generator(grp, g) for g in word),
        SElement(grp, (), grp.identity_index)))


def evaluate_word_skew(group, word):
    """The same word folded in the twisted model."""
    return reduce(skew_mul, (skew_generator(group, g) for g in word),
                  SkewElement(group, (), group.identity_index))

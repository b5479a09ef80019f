"""The idempotent sections built by honest algebra products; an oracle.

``PartialGroupAlgebra.idempotent_product`` writes the product of e_i over
I and of (1 - e_o) over O down in closed form, as the inclusion-exclusion
sum of the pairs (I union T, 1) with sign (-1)^|T|, and ``tilde_pi``,
``zeta_delta`` and ``from_primitive`` are built on it.  These are the
constructions they replaced: each factor is multiplied in, one product at
a time.  A vertex, a subset key, is decoded to its member tuple first.
"""

from parh.exel import PartialGroupAlgebra
from parh.groupoid import EquivalenceData
from parh.linalg import QQ


def product_idempotent(algebra, inside, outside):
    """prod of e_i over ``inside`` times prod of (1 - e_o) over ``outside``."""
    x = algebra.one()
    for i in inside:
        x = x * algebra.idem(i)
    for o in outside:
        x = x * (algebra.one() - algebra.idem(o))
    return x


def product_from_primitive(algebra, coeffs):
    """sum c_A e_A, each e_A the product over A and its complement."""
    out = algebra.zero()
    for a, c in coeffs.items():
        rest = sorted(set(range(algebra.group.order)) - set(a))
        out = out + product_idempotent(algebra, sorted(a), rest).scale(c)
    return out


def product_tilde_pi(comp, vertex, field=QQ):
    """e_t over the class representatives in ``vertex``, (1 - e_f) over
    the others."""
    reps = EquivalenceData(comp).reps
    vertex = comp.group.key_decoder()(vertex)
    return product_idempotent(PartialGroupAlgebra(comp.group, field),
                              [t for t in reps if t in vertex],
                              [t for t in reps if t not in vertex])


def product_zeta_delta(comp, arrow, field=QQ):
    """[g] times e_r over r in A and (1 - e_s) over s in G outside A."""
    a, g = arrow
    a = comp.group.key_decoder()(a)
    algebra = PartialGroupAlgebra(comp.group, field)
    x = algebra.bracket(g)
    for r in sorted(a):
        x = x * algebra.idem(r)
    for s in sorted(set(range(comp.group.order)) - set(a)):
        x = x * (algebra.one() - algebra.idem(s))
    return x

"""The regular module in the canonical basis of pairs (A, g).

``parh.groupoid.regular_module`` builds the regular module in the arrow
basis of the subset groupoid.  This is the construction it replaced, kept
as an oracle for it.  Its idempotents e_x = [x][x^-1] are not diagonal.
"""

from parh.exel import PartialGroupAlgebra, s_mul
from parh.groupoid import PartialRepModule
from parh.linalg import QQ, SparseMatrix
from twisted_product import s_generator


def canonical_regular_module(group, field=QQ):
    """The algebra acting on itself on the left, in the canonical basis."""
    basis = PartialGroupAlgebra(group, field).canonical_basis()
    pos = {s: k for k, s in enumerate(basis)}
    mats = {}
    for g in range(group.order):
        gen = s_generator(group, g)
        entries = {}
        for k, s in enumerate(basis):
            entries[(pos[s_mul(gen, s)], k)] = field.one
        mats[g] = SparseMatrix(field, len(basis), len(basis), entries)
    return PartialRepModule(group, field, mats)

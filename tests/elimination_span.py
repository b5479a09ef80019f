"""The level span V_k built from algebra products and elimination.

``parh.zcase.VkSpan`` writes each column r * f_j down in closed form as a
signed graph edge and answers membership by component sums.  This is the
construction it replaced, kept as an oracle for it: every product is
computed in the partial group algebra and absorbed by an ``Eliminator``.
"""

from parh.exel import PartialGroupAlgebra
from parh.groups import INTEGERS
from parh.linalg import QQ, Eliminator, SizeCapError
from parh.zcase import Z_WINDOW_CAP, f_element, window_basis, window_size
from window_space import WindowSpace


class EliminationSpan:
    """V_k from the products r * f_j, reduced against by elimination."""

    def __init__(self, k, bound, field=QQ, cap=Z_WINDOW_CAP):
        if k < 1:
            raise ValueError("level k must be at least 1")
        if bound < k + 1:
            raise ValueError("window too small: need bound >= k + 1")
        self.k = k
        self.bound = bound
        self.multiplier_bound = bound - k - 1
        self.space = WindowSpace(field, bound)
        self.columns = []
        self._elim = Eliminator(field)
        count = window_size(self.multiplier_bound) * k
        if count > cap:
            raise SizeCapError(
                f"level span would hold {count} columns (cap {cap})",
                limit=cap,
                requested=count,
            )
        algebra = PartialGroupAlgebra(INTEGERS, field)
        fs = [f_element(j, field) for j in range(1, k + 1)]
        for r in window_basis(self.multiplier_bound, cap):
            mono = algebra.monomial(r)
            for f in fs:
                col = self.space.column(mono * f)
                self.columns.append(col)
                self._elim.add(dict(col))

    @property
    def rank(self):
        return self._elim.rank

    def residue_column(self, col):
        return self._elim.reduce(dict(col))

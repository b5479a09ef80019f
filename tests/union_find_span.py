"""The level span V_k built edge by edge and merged by union-find.

``parh.zcase.VkSpan`` reads the rank off a count and the component of a
vertex off its member set alone.  This is the construction it replaced,
kept as an oracle for it: every column r * f_j is written down as the
signed edge (B, m+j) - (B, m) and absorbed by a ``linalg.IncidenceSpan``.
"""

from parh.linalg import QQ, IncidenceSpan
from parh.zcase import (
    Z_WINDOW_CAP,
    _check_window_cap,
    _window_member_sets,
    window_size,
)
from window_space import WindowSpace


class UnionFindSpan(IncidenceSpan):
    """V_k from its window_size(bound - k - 1) * k edge columns."""

    def __init__(self, k, bound, field=QQ, cap=Z_WINDOW_CAP):
        if k < 1:
            raise ValueError("level k must be at least 1")
        if bound < k + 1:
            raise ValueError("window too small: need bound >= k + 1")
        super().__init__(field)
        self.k = k
        self.bound = bound
        self.multiplier_bound = bound - k - 1
        self.space = WindowSpace(field, bound)
        self.columns = []
        count = window_size(self.multiplier_bound) * k
        _check_window_cap(count, "level span", "columns", cap)
        index = self.space.pair_index
        one, minus_one = field.one, field.neg(field.one)
        for a in _window_member_sets(self.multiplier_bound):
            for m in a:
                for j in range(1, k + 1):
                    head = m + j
                    b = a if head in a else tuple(sorted(a + (head,)))
                    u = index(b, head)
                    v = index(b, m)
                    self.columns.append({u: one, v: minus_one})
                    self.add(u, v)
        assert len(self.columns) == count

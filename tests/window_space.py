"""Sparse coordinates over window-bounded canonical monomials.

``parh.zcase`` decides its level spans and the quotient check on member
sets and roots alone, with no coordinate space.  The oracles and tests
write algebra elements down as columns here, and a vector whose support
leaves the declared window raises ``WindowEscapeError`` instead of being
truncated, so no check can pass by silently dropping terms.
"""

from parh.exel import AlgebraElement, _canonical_pair
from parh.groups import INTEGERS
from parh.linalg import accumulate


class WindowEscapeError(RuntimeError):
    """A computed vector has support outside its declared window."""


class WindowSpace:
    """Sparse coordinates over window-bounded canonical monomials.

    Rows are registered lazily, in first-seen order, and keyed by the
    canonical (members, g) of their pair.  Registering a monomial with a
    member outside [-bound, bound] raises WindowEscapeError; nothing is
    ever truncated.
    """

    __slots__ = ("field", "bound", "rows", "labels")

    def __init__(self, field, bound):
        self.field = field
        self.bound = bound
        self.rows = {}
        self.labels = []

    @property
    def dim(self):
        return len(self.labels)

    def index(self, s):
        return self.pair_index(s.members, s.g)

    def pair_index(self, members, g):
        """The row of the pair (members, g), where ``members`` is sorted
        and holds 0 and g; the pair itself is built for a new row only."""
        key = (members, g)
        got = self.rows.get(key)
        if got is not None:
            return got
        s = _canonical_pair(INTEGERS, members, g)
        if members[0] < -self.bound or members[-1] > self.bound:
            raise WindowEscapeError(
                f"{s.render()} escapes the window [-{self.bound}, {self.bound}]"
            )
        idx = len(self.labels)
        self.rows[key] = idx
        self.labels.append(s)
        return idx

    def column(self, x):
        return {self.index(s): c for s, c in x.coeffs.items()}

    def element(self, col):
        coeffs = {self.labels[r]: c for r, c in col.items()}
        return AlgebraElement(INTEGERS, self.field, coeffs)


def root_residue(span, space, col):
    """The component sums of ``col`` under a ``zcase.VkSpan``, each on the
    row of its root's pair in ``space``; zero iff ``col`` is in the span."""
    labels, index = space.labels, space.pair_index
    terms = []
    for row, c in col.items():
        s = labels[row]
        terms.append((index(s.members, span.root(s.members, s.g)), c))
    return accumulate(space.field, terms)

"""The Morita model of one component: matrices over a stabilizer's group
algebra; an oracle.

On a component with vertices v_0 (the base), ..., v_(n-1), transversal
elements t_i (t_i v_0 = v_i) and stabilizer H, the algebra of arrows is
the matrix algebra M_n(K H): ``eta`` sends the arrow (v_i, g) into v_j to
the elementary matrix with t_j^-1 g t_i in position (j, i), and
``elementary_matrix`` is the image of [g], the monomial matrix
``parh.groupoid.induce_module`` was once read from.  The package now
reads each [g] off the transversal directly; this is the construction it
replaced, kept as an oracle for it.  The sum and the involution of arrow
sums, which only the tests read, are here too.  The groupoid's vertices
are subset keys; each is decoded to its member tuple here, and a tuple
is encoded again only to look up a position.
"""

from itertools import chain

from parh.groupoid import ArrowSum, Component, PartialRepModule, arrow_str
from parh.groups import GroupElement
from parh.linalg import QQ, Field, Scalar, SparseMatrix, accumulate
from subset_routes import translate


def arrow_add(x: ArrowSum, y: ArrowSum) -> ArrowSum:
    """The sum of two arrow sums over one groupoid and field."""
    x._check(y)
    return ArrowSum(x.groupoid, x.field, accumulate(
        x.field, chain(x.coeffs.items(), y.coeffs.items())))


def arrow_star(x: ArrowSum) -> ArrowSum:
    """The involution (A, g)* = (gA, g^-1), extended linearly."""
    grp = x.groupoid.group
    decode = grp.key_decoder()
    return ArrowSum(x.groupoid, x.field, {
        (grp.subset_key(translate(grp, g, decode(a))), grp.inv(g)): c
        for (a, g), c in x.coeffs.items()})


def _cells(flat: dict[tuple[int, int, int], Scalar]) -> dict:
    """Regroup {(row, col, h): c} into {(row, col): {h: c}}."""
    cells: dict[tuple[int, int], dict[int, Scalar]] = {}
    for (i, j, h), c in flat.items():
        cells.setdefault((i, j), {})[h] = c
    return cells


class GroupAlgebraMatrix:
    """A square matrix with entries in the group algebra of a stabilizer."""

    __slots__ = ("subgroup", "field", "n", "entries")

    def __init__(self, subgroup, field: Field, n: int, entries=None) -> None:
        self.subgroup = subgroup
        self.field = field
        self.n = n
        self.entries: dict[tuple[int, int], dict[int, Scalar]] = {}
        if entries:
            for (i, j), cell in entries.items():
                cell = {h: field.of(c) for h, c in cell.items() if field.of(c)}
                if cell:
                    self.entries[(i, j)] = cell

    @classmethod
    def identity(cls, subgroup, field: Field, n: int) -> "GroupAlgebraMatrix":
        ident = subgroup.parent.identity_index
        return cls(subgroup, field, n, {(i, i): {ident: field.one} for i in range(n)})

    def _check(self, other: "GroupAlgebraMatrix") -> None:
        if (
            self.subgroup != other.subgroup
            or self.field != other.field
            or self.n != other.n
        ):
            raise ValueError("incompatible group-algebra matrices")

    def __mul__(self, other: "GroupAlgebraMatrix") -> "GroupAlgebraMatrix":
        self._check(other)
        grp = self.subgroup.parent
        flat = accumulate(self.field, (
            ((i, j, grp.mult(h1, h2)), c1 * c2)
            for (i, k), cell1 in self.entries.items()
            for (k2, j), cell2 in other.entries.items() if k == k2
            for h1, c1 in cell1.items()
            for h2, c2 in cell2.items()))
        return GroupAlgebraMatrix(self.subgroup, self.field, self.n,
                                  _cells(flat))

    def star(self) -> "GroupAlgebraMatrix":
        grp = self.subgroup.parent
        out = {}
        for (i, j), cell in self.entries.items():
            out[(j, i)] = {grp.inv(h): c for h, c in cell.items()}
        return GroupAlgebraMatrix(self.subgroup, self.field, self.n, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupAlgebraMatrix)
            and self.subgroup == other.subgroup
            and self.field == other.field
            and self.n == other.n
            and self.entries == other.entries
        )

    def render(self) -> str:
        grp = self.subgroup.parent
        rows = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                cell = self.entries.get((i, j))
                if not cell:
                    row.append("0")
                    continue
                parts = []
                for h in sorted(cell):
                    c = cell[h]
                    name = grp.element_name(h)
                    parts.append(name if c == self.field.one else f"{c}*{name}")
                row.append("+".join(parts))
            rows.append("[" + ", ".join(row) + "]")
        return "\n".join(rows)

    def __repr__(self) -> str:
        return self.render()


def eta(comp: Component, y: ArrowSum) -> GroupAlgebraMatrix:
    """Rewrite an arrow sum as a matrix over the stabilizer group algebra.

    The arrow (g_i A0, g) becomes the elementary matrix with
    g_j^-1 g g_i in position (j, i), where g_j is the transversal element
    of the target vertex.
    """
    grp = comp.group
    decode = grp.key_decoder()

    def terms():
        for (a, g), c in y.coeffs.items():
            if (a, g) not in comp.arrow_pos:
                raise ValueError(
                    f"arrow {arrow_str(grp, (a, g))} is outside the component")
            i = comp.vertex_pos[a]
            target = translate(grp, g, decode(a))
            j = comp.vertex_pos[grp.subset_key(target)]
            h = (comp.transversal[j].inverse() * GroupElement(grp, g)
                 * comp.transversal[i])
            if h.index not in comp.stabilizer.indices:
                raise RuntimeError(
                    "transversal conjugate landed outside the stabilizer")
            yield (j, i, h.index), c

    return GroupAlgebraMatrix(comp.stabilizer, y.field, comp.size,
                              _cells(accumulate(y.field, terms())))


def elementary_matrix(comp: Component, g) -> GroupAlgebraMatrix:
    """The monomial matrix of a group element on one component, over Q.

    It is eta of the arrows (v, g) out of the vertices v that contain
    g^-1, so every nonzero cell is {g_j^-1 g g_i: 1}.
    """
    grp = comp.group
    gi = g.index if isinstance(g, GroupElement) else grp.element(g).index
    decode = grp.key_decoder()
    arrows = {(v, gi): 1 for v in comp.vertices if grp.inv(gi) in decode(v)}
    return eta(comp, ArrowSum(comp.groupoid, QQ, arrows))


def eta_induced_module(comp: Component, u: dict, field: Field = QQ):
    """The module induced from ``u`` along ``comp``, read off the
    elementary matrices: the copy at vertex i goes to the copy at vertex j
    through u(h) for the one cell {h: 1} at (j, i) of [g]'s matrix."""
    mats_u = {h.index: u[h] for h in comp.stabilizer.elements}
    d = next(iter(mats_u.values())).nrows
    n = comp.size
    mats = {}
    for g in range(comp.group.order):
        entries = {}
        for (j, i), cell in elementary_matrix(comp, g).entries.items():
            (h,) = cell
            for c, col in enumerate(mats_u[h].cols):
                for r, v in col.items():
                    entries[(j * d + r, i * d + c)] = v
        mats[g] = SparseMatrix(field, n * d, n * d, entries)
    return PartialRepModule(comp.group, field, mats)

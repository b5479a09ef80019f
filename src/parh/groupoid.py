"""The groupoid of subsets containing 1, its algebra, and matrix models.

Vertices are subsets A of a finite group G with 1 in A; an arrow (A, g)
requires g^-1 in A and runs from A to gA.  The span of the arrows is an
algebra under composition, the partial group algebra maps onto it one
connected component at a time, and on each component the algebra of arrows
is a matrix algebra over the group algebra of the base vertex's stabilizer.
All of that structure is constructed explicitly here.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Sequence

from .exel import AlgebraElement, PartialGroupAlgebra, SElement
from .groups import GroupElement, GroupError, Subgroup, translate
from .linalg import (
    Column,
    Eliminator,
    Field,
    QQ,
    Scalar,
    SizeCapError,
    SparseMatrix,
    accumulate,
    span_rank,
)

GROUPOID_ORDER_CAP = 8

Vertex = tuple[int, ...]
Arrow = tuple[Vertex, int]


def _set_str(group, a: Iterable[int]) -> str:
    return "{" + ",".join(group.element_name(i) for i in sorted(a)) + "}"


def arrow_str(group, arrow: Arrow) -> str:
    a, g = arrow
    return f"({_set_str(group, a)};{group.element_name(g)})"


class Groupoid:
    """All vertices and arrows for a finite group, with position maps."""

    def __init__(self, group, vertices: list[Vertex], arrows: list[Arrow]) -> None:
        self.group = group
        self.vertices = vertices
        self.arrows = arrows
        self.vertex_pos = {v: k for k, v in enumerate(vertices)}
        self.arrow_pos = {a: k for k, a in enumerate(arrows)}

    def target(self, arrow: Arrow) -> Vertex:
        a, g = arrow
        return translate(self.group, g, a)

    def source(self, arrow: Arrow) -> Vertex:
        return arrow[0]

    def __repr__(self) -> str:
        return (
            f"groupoid of {self.group.name}: "
            f"{len(self.vertices)} vertices, {len(self.arrows)} arrows"
        )


def build_groupoid(group, cap: int = GROUPOID_ORDER_CAP) -> Groupoid:
    """Enumerate all vertices and arrows; guarded by a group-order cap."""
    if not group.is_finite:
        raise GroupError("the groupoid construction requires a finite group")
    n = group.order
    if n > cap:
        raise SizeCapError(
            f"group order {n} exceeds the groupoid cap {cap}"
            " (pass a larger cap to override)",
            limit=cap,
            requested=n,
        )
    rest = [i for i in range(n) if i != 0]
    vertices: list[Vertex] = []
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            vertices.append(tuple(sorted((0,) + extra)))
    vertices.sort()
    arrows: list[Arrow] = []
    for a in vertices:
        members = set(a)
        for g in range(n):
            if group.inv(g) in members:
                arrows.append((a, g))
    return Groupoid(group, vertices, arrows)


class Component:
    """A connected component: vertices, a transversal, and the stabilizer.

    The base is the lexicographically least vertex.  The transversal picks
    for each vertex D the least g with g * base = D (the identity for the
    base itself), and the stabilizer is {h : h * base = base}.
    """

    def __init__(self, groupoid: Groupoid, base: Vertex) -> None:
        grp = groupoid.group
        self.groupoid = groupoid
        self.base = base
        base_set = set(base)
        reached: dict[Vertex, int] = {}
        for g in range(grp.order):
            if grp.inv(g) in base_set:
                target = translate(grp, g, base)
                if target not in reached or g < reached[target]:
                    reached[target] = g
        others = sorted(v for v in reached if v != base)
        self.vertices: list[Vertex] = [base] + others
        self.vertex_pos = {v: k for k, v in enumerate(self.vertices)}
        self.transversal: list[GroupElement] = [
            GroupElement(grp, reached[v]) for v in self.vertices
        ]
        assert self.transversal[0].is_identity()
        stab = [h for h in range(grp.order)
                if translate(grp, h, base) == base]
        self.stabilizer = Subgroup(grp, stab)
        self.arrows: list[Arrow] = []
        for v in self.vertices:
            vset = set(v)
            for g in range(grp.order):
                if grp.inv(g) in vset:
                    self.arrows.append((v, g))
        self.arrow_pos = {a: k for k, a in enumerate(self.arrows)}

    @property
    def group(self):
        return self.groupoid.group

    @property
    def size(self) -> int:
        return len(self.vertices)

    def contains_arrow(self, arrow: Arrow) -> bool:
        return arrow in self.arrow_pos

    def __repr__(self) -> str:
        return (
            f"component at {_set_str(self.group, self.base)}: "
            f"{self.size} vertices, stabilizer of order {self.stabilizer.order}"
        )


def components(groupoid: Groupoid) -> list[Component]:
    """Connected components, ordered by their lex-least base vertex."""
    out: list[Component] = []
    seen: set[Vertex] = set()
    for v in groupoid.vertices:
        if v in seen:
            continue
        comp = Component(groupoid, v)
        seen.update(comp.vertices)
        out.append(comp)
    return out


def component_summary(groupoid: Groupoid) -> dict:
    """Per-component sizes and the block-dimension identity."""
    comps = components(groupoid)
    algebra = PartialGroupAlgebra(groupoid.group)
    blocks = []
    total = 0
    for comp in comps:
        block = comp.size**2 * comp.stabilizer.order
        total += block
        blocks.append(
            {
                "base": _set_str(groupoid.group, comp.base),
                "vertices": comp.size,
                "stabilizer_order": comp.stabilizer.order,
                "stabilizer": comp.stabilizer.name,
                "block_dimension": block,
            }
        )
    return {
        "group": groupoid.group.name,
        "components": blocks,
        "sum_of_blocks": total,
        "algebra_dimension": algebra.dimension(),
        "equal": total == algebra.dimension(),
    }


class ArrowSum:
    """A K-linear combination of arrows; the groupoid algebra.

    Arrows compose as (A, g) * (B, h) = (B, gh) when A == hB, else zero;
    source and target idempotents are the arrows (A, 1).
    """

    __slots__ = ("groupoid", "field", "coeffs")

    def __init__(self, groupoid: Groupoid, field: Field, coeffs: dict[Arrow, Scalar] | None = None):
        self.groupoid = groupoid
        self.field = field
        self.coeffs: dict[Arrow, Scalar] = {}
        if coeffs:
            for a, c in coeffs.items():
                c = field.of(c)
                if c:
                    self.coeffs[a] = c

    def _check(self, other: "ArrowSum") -> None:
        if self.groupoid is not other.groupoid or self.field != other.field:
            raise ValueError("arrow sums over different groupoids")

    def __add__(self, other: "ArrowSum") -> "ArrowSum":
        self._check(other)
        out = accumulate(self.field, chain(self.coeffs.items(),
                                           other.coeffs.items()))
        return ArrowSum(self.groupoid, self.field, out)

    def __neg__(self) -> "ArrowSum":
        f = self.field
        return ArrowSum(self.groupoid, f, {a: f.neg(c) for a, c in self.coeffs.items()})

    def __sub__(self, other: "ArrowSum") -> "ArrowSum":
        return self + (-other)

    def scale(self, c) -> "ArrowSum":
        f = self.field
        c = f.of(c)
        return ArrowSum(self.groupoid, f, {a: f.mul(c, v) for a, v in self.coeffs.items()})

    def __mul__(self, other: "ArrowSum") -> "ArrowSum":
        self._check(other)
        grp = self.groupoid.group
        out = accumulate(self.field, (
            ((b, grp.mult(g, h)), c * d)
            for (a, g), c in self.coeffs.items()
            for (b, h), d in other.coeffs.items()
            if translate(grp, h, b) == a))
        return ArrowSum(self.groupoid, self.field, out)

    def star(self) -> "ArrowSum":
        grp = self.groupoid.group
        out = {}
        for (a, g), c in self.coeffs.items():
            ga = translate(grp, g, a)
            out[(ga, grp.inv(g))] = c
        return ArrowSum(self.groupoid, self.field, out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrowSum)
            and self.groupoid is other.groupoid
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.groupoid), self.field, frozenset(self.coeffs.items())))

    def vector(self, arrow_pos: dict[Arrow, int]) -> Column:
        return {arrow_pos[a]: c for a, c in self.coeffs.items()}

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        grp = self.groupoid.group
        parts = []
        for a in sorted(self.coeffs):
            c = self.coeffs[a]
            body = arrow_str(grp, a)
            text = body if c == self.field.one else f"{c}*{body}"
            parts.append(text)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return self.render()


def arrow_unit(groupoid: Groupoid, arrow: Arrow, field: Field = QQ) -> ArrowSum:
    if arrow not in groupoid.arrow_pos:
        raise ValueError(f"not an arrow: {arrow}")
    return ArrowSum(groupoid, field, {arrow: field.one})


def groupoid_identity(groupoid: Groupoid, field: Field = QQ, vertices=None) -> ArrowSum:
    verts = groupoid.vertices if vertices is None else vertices
    return ArrowSum(groupoid, field, {(v, 0): field.one for v in verts})


def lambda_map(groupoid: Groupoid, x: AlgebraElement, vertices=None) -> ArrowSum:
    """The algebra map into the groupoid algebra.

    A canonical pair (A, g) goes to the sum of arrows (D, g) over all
    vertices D in the chosen vertex set containing g^-1 A.  With
    ``vertices=None`` this is the full map; restricting the vertex set to
    one component gives the component map.
    """
    grp = groupoid.group
    verts = groupoid.vertices if vertices is None else vertices

    def terms():
        for s, c in x.coeffs.items():
            gi = grp.inv(s.g)
            need = {grp.mult(gi, m) for m in s.members}
            for d in verts:
                if need.issubset(d):
                    yield (d, s.g), c

    return ArrowSum(groupoid, x.field, accumulate(x.field, terms()))


def lambda_delta(comp: Component, x: AlgebraElement) -> ArrowSum:
    """The component-restricted algebra map."""
    return lambda_map(comp.groupoid, x, vertices=comp.vertices)


def lambda_matrix(comp: Component, algebra: PartialGroupAlgebra) -> SparseMatrix:
    """Matrix of the component map over the canonical basis."""
    basis = algebra.canonical_basis()
    entries = {}
    for j, s in enumerate(basis):
        img = lambda_delta(comp, algebra.monomial(s))
        for a, c in img.coeffs.items():
            entries[(comp.arrow_pos[a], j)] = c
    return SparseMatrix(
        algebra.field,
        len(comp.arrows),
        len(basis),
        entries,
        row_labels=[arrow_str(comp.group, a) for a in comp.arrows],
        col_labels=[s.render() for s in basis],
    )


def kernel_lambda(comp: Component, field: Field = QQ) -> list[AlgebraElement]:
    """A basis of the kernel of the component map, as algebra elements.

    The kernel is generated as a left ideal by its intersection with the
    idempotent subalgebra B; that regeneration is checked here and a
    failure raises, since everything downstream relies on it.
    """
    from .linalg import kernel_basis

    algebra = PartialGroupAlgebra(comp.group, field)
    basis = algebra.canonical_basis()
    m = lambda_matrix(comp, algebra)
    kern = kernel_basis(m)
    out = [
        algebra.element({basis[j]: c for j, c in vec.items()}) for vec in kern
    ]
    for k in out:
        if not lambda_delta(comp, k).is_zero():
            raise RuntimeError("kernel vector not killed by the component map")
    # regeneration from the B-part as a left ideal
    b_part = [k for k in out if k.is_in_b()]
    pos = {s: i for i, s in enumerate(basis)}

    def vec_of(x: AlgebraElement) -> Column:
        return {pos[s]: c for s, c in x.coeffs.items()}

    ideal_cols = [vec_of(algebra.monomial(r) * k) for r in basis for k in b_part]
    if span_rank(ideal_cols, field) != len(out):
        raise RuntimeError(
            "kernel is not regenerated by its idempotent part as a left ideal"
        )
    return out


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
        ident = subgroup.identity.index
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
        grp = self.subgroup.parent if isinstance(self.subgroup, Subgroup) else self.subgroup
        flat = accumulate(self.field, (
            ((i, j, grp.mult(h1, h2)), c1 * c2)
            for (i, k), cell1 in self.entries.items()
            for (k2, j), cell2 in other.entries.items() if k == k2
            for h1, c1 in cell1.items()
            for h2, c2 in cell2.items()))
        return GroupAlgebraMatrix(self.subgroup, self.field, self.n,
                                  _cells(flat))

    def star(self) -> "GroupAlgebraMatrix":
        grp = self.subgroup.parent if isinstance(self.subgroup, Subgroup) else self.subgroup
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

    def is_monomial(self) -> bool:
        """One single-element entry per nonzero row and column."""
        rows = set()
        cols = set()
        for (i, j), cell in self.entries.items():
            if len(cell) != 1 or set(cell.values()) != {self.field.one}:
                return False
            if i in rows or j in cols:
                return False
            rows.add(i)
            cols.add(j)
        return True

    def render(self) -> str:
        grp = self.subgroup.parent if isinstance(self.subgroup, Subgroup) else self.subgroup
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


class MonomialMatrix:
    """A partial permutation matrix with group-element entries.

    Entries are stored as (row, col) -> element of the stabilizer; at most
    one entry per row and per column.
    """

    __slots__ = ("subgroup", "n", "entries")

    def __init__(self, subgroup, n: int, entries: dict[tuple[int, int], GroupElement]) -> None:
        rows = [i for i, _ in entries]
        cols = [j for _, j in entries]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("monomial matrix needs at most one entry per row/column")
        for h in entries.values():
            if not subgroup.contains(h):
                raise ValueError(f"entry {h} is not in the stabilizer")
        self.subgroup = subgroup
        self.n = n
        self.entries = dict(entries)

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if self.subgroup != other.subgroup or self.n != other.n:
            raise ValueError("incompatible monomial matrices")
        by_col = {j: (i, h) for (i, j), h in self.entries.items()}
        out = {}
        for (k, j), h2 in other.entries.items():
            hit = by_col.get(k)
            if hit is not None:
                i, h1 = hit
                out[(i, j)] = h1 * h2
        return MonomialMatrix(self.subgroup, self.n, out)

    def star(self) -> "MonomialMatrix":
        return MonomialMatrix(
            self.subgroup, self.n,
            {(j, i): h.inverse() for (i, j), h in self.entries.items()},
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialMatrix)
            and self.subgroup == other.subgroup
            and self.n == other.n
            and self.entries == other.entries
        )

    def to_group_matrix(self, field: Field = QQ) -> GroupAlgebraMatrix:
        return GroupAlgebraMatrix(
            self.subgroup, field, self.n,
            {key: {h.index: field.one} for key, h in self.entries.items()},
        )

    def render(self) -> str:
        rows = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                h = self.entries.get((i, j))
                row.append("0" if h is None else h.name)
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

    def terms():
        for (a, g), c in y.coeffs.items():
            if (a, g) not in comp.arrow_pos:
                raise ValueError(
                    f"arrow {arrow_str(grp, (a, g))} is outside the component")
            i = comp.vertex_pos[a]
            target = translate(grp, g, a)
            j = comp.vertex_pos[target]
            h = (comp.transversal[j].inverse() * GroupElement(grp, g)
                 * comp.transversal[i])
            if not comp.stabilizer.contains(h):
                raise RuntimeError(
                    "transversal conjugate landed outside the stabilizer")
            yield (j, i, h.index), c

    return GroupAlgebraMatrix(comp.stabilizer, y.field, comp.size,
                              _cells(accumulate(y.field, terms())))


def elementary_matrix(comp: Component, g) -> MonomialMatrix:
    """The monomial matrix of a group element on one component."""
    grp = comp.group
    gi = g.index if isinstance(g, GroupElement) else grp.element(g).index
    entries = {}
    for i, v in enumerate(comp.vertices):
        if grp.inv(gi) not in v:
            continue
        target = translate(grp, gi, v)
        j = comp.vertex_pos[target]
        h = comp.transversal[j].inverse() * GroupElement(grp, gi) * comp.transversal[i]
        entries[(j, i)] = h
    return MonomialMatrix(comp.stabilizer, comp.size, entries)


class PartialRepModule:
    """A finite-dimensional module given by generator matrices.

    ``mats[g]`` is the matrix of the generator [g]; on construction the
    unit and the two defining relations are checked exhaustively, for the
    chosen side.  Left modules compose as pi(g) pi(h) ~ pi(gh); for right
    modules the matrices multiply in the opposite order, so the relations
    are checked with the group product reversed.
    """

    __slots__ = ("group", "field", "dim", "mats", "side", "labels", "_pair_cache")

    def __init__(
        self,
        group,
        field: Field,
        mats: dict[int, SparseMatrix],
        side: str = "left",
        labels: Sequence[str] | None = None,
        validate: bool = True,
    ) -> None:
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if set(mats) != set(range(group.order)):
            raise ValueError("need one matrix per group element")
        shapes = {(m.nrows, m.ncols) for m in mats.values()}
        if len(shapes) != 1:
            raise ValueError("matrices must all have the same shape")
        nrows, ncols = shapes.pop()
        if nrows != ncols:
            raise ValueError("matrices must be square")
        if any(m.field != field for m in mats.values()):
            raise ValueError("matrix field does not match the module field")
        self.group = group
        self.field = field
        self.dim = nrows
        self.mats = dict(mats)
        self.side = side
        self.labels = list(labels) if labels is not None else None
        self._pair_cache: dict[SElement, SparseMatrix] = {}
        if validate:
            self._validate()

    def _validate(self) -> None:
        grp = self.group
        if self.mats[0] != SparseMatrix.identity(self.field, self.dim):
            raise ValueError("the identity generator must act as the identity")
        n = grp.order
        for g in range(n):
            gi = grp.inv(g)
            for h in range(n):
                hi = grp.inv(h)
                gh = grp.mult(g, h) if self.side == "left" else grp.mult(h, g)
                lhs1 = self.mats[g] * self.mats[h] * self.mats[hi]
                rhs1 = self.mats[gh] * self.mats[hi]
                if lhs1 != rhs1:
                    raise ValueError(
                        f"partial relation [g][h][h^-1] fails at ({g}, {h})"
                    )
                lhs2 = self.mats[gi] * self.mats[g] * self.mats[h]
                rhs2 = self.mats[gi] * self.mats[gh]
                if lhs2 != rhs2:
                    raise ValueError(
                        f"partial relation [g^-1][g][h] fails at ({g}, {h})"
                    )

    def act_pair(self, s: SElement) -> SparseMatrix:
        """Matrix of a canonical pair (A, g)."""
        if s.group is not self.group:
            raise ValueError("pair from a different group")
        cached = self._pair_cache.get(s)
        if cached is not None:
            return cached
        grp = self.group
        e = grp.identity_index
        m = self.mats[s.g]
        for t in s.members:
            if t == e:
                continue
            if self.side == "left":
                m = self.mats[t] * self.mats[grp.inv(t)] * m
            else:
                m = m * (self.mats[grp.inv(t)] * self.mats[t])
        self._pair_cache[s] = m
        return m

    def act(self, x: AlgebraElement) -> SparseMatrix:
        if x.group is not self.group or x.field != self.field:
            raise ValueError("element from a different algebra")
        out = SparseMatrix.zero(self.field, self.dim, self.dim)
        for s, c in x.coeffs.items():
            out = out + self.act_pair(s).scale(c)
        return out


def regular_module(group, field: Field = QQ, side: str = "left") -> PartialRepModule:
    """The algebra acting on itself in the canonical basis."""
    algebra = PartialGroupAlgebra(group, field)
    basis = algebra.canonical_basis()
    pos = {s: k for k, s in enumerate(basis)}
    mats = {}
    from .exel import s_generator, s_mul

    for g in range(group.order):
        gen = s_generator(group, g)
        entries = {}
        for k, s in enumerate(basis):
            t = s_mul(gen, s) if side == "left" else s_mul(s, gen)
            entries[(pos[t], k)] = field.one
        mats[g] = SparseMatrix(field, len(basis), len(basis), entries)
    return PartialRepModule(
        group, field, mats, side=side, labels=[s.render() for s in basis]
    )


def b_module(group, field: Field = QQ, side: str = "left") -> PartialRepModule:
    """The idempotent subalgebra in its primitive basis.

    Left: e_A goes to e_{gA} when g^-1 is in A, else to zero.  Right: e_A
    goes to e_{g^-1 A} when g is in A, else to zero.
    """
    algebra = PartialGroupAlgebra(group, field)
    subsets = algebra.subsets_with_identity()
    pos = {a: k for k, a in enumerate(subsets)}
    mats = {}
    for g in range(group.order):
        gi = group.inv(g)
        entries = {}
        for k, a in enumerate(subsets):
            if side == "left":
                if gi not in a:
                    continue
                shifted = translate(group, g, a)
            else:
                if g not in a:
                    continue
                shifted = translate(group, gi, a)
            entries[(pos[shifted], k)] = field.one
        mats[g] = SparseMatrix(field, len(subsets), len(subsets), entries)
    return PartialRepModule(
        group, field, mats, side=side,
        labels=["e" + _set_str(group, a) for a in subsets],
    )


def induce_module(comp: Component, u: dict, field: Field = QQ) -> PartialRepModule:
    """Induce a stabilizer representation along one component.

    ``u`` maps stabilizer elements (as parent group elements) to matrices.
    The induced space is one copy of the representation per vertex; [g]
    moves the copy at vertex i to the copy at g * vertex, twisted by the
    stabilizer entry of the elementary matrix.
    """
    stab = comp.stabilizer
    mats_u = {h.index: u[h] for h in stab.elements}
    d = next(iter(mats_u.values())).nrows
    n = comp.size
    grp = comp.group
    mats = {}
    for g in range(grp.order):
        em = elementary_matrix(comp, g)
        entries = {}
        for (j, i), h in em.entries.items():
            block = mats_u[h.index]
            for (r, c), v in block.entries.items():
                entries[(j * d + r, i * d + c)] = v
        mats[g] = SparseMatrix(field, n * d, n * d, entries)
    labels = [
        f"{_set_str(grp, v)}:{k}" for v in comp.vertices for k in range(d)
    ]
    return PartialRepModule(grp, field, mats, side="left", labels=labels)


def component_support(comp: Component) -> frozenset[int]:
    """Union of the vertex sets of a component, as element indices."""
    support: set[int] = set()
    for v in comp.vertices:
        support.update(v)
    return frozenset(support)


def zeta_delta(comp: Component, arrow: Arrow, field: Field = QQ) -> AlgebraElement:
    """The algebra-valued section of the component map.

    An arrow (A, g) lifts to [g] times the primitive idempotent
    P_A = prod of e_r over r in A and (1 - e_s) over s in G outside A.
    The partial group algebra is the direct sum of its component blocks
    and P_A is the unit of the identity arrow at A, so the lift is the
    preimage of the arrow under the sum of the component maps: every
    other component map kills it.

    The component map sends the lift back to the arrow, the section is
    multiplicative (non-composable arrow products lift to zero), and it
    is a left module map for the algebra action, meaning
    zeta(lambda_delta(x) * y) == x * zeta(y), on every component.  The
    complement must run over the whole group: taking it over the
    component support only leaves a lift that other components do not
    kill whenever the vertices miss part of the group.
    """
    if arrow not in comp.arrow_pos:
        raise ValueError("arrow outside the component")
    a, g = arrow
    algebra = PartialGroupAlgebra(comp.group, field)
    x = algebra.bracket(g)
    for r in sorted(a):
        x = x * algebra.idem(r)
    for s in sorted(set(range(comp.group.order)) - set(a)):
        x = x * (algebra.one() - algebra.idem(s))
    return x


class EquivalenceData:
    """Support classes of one component.

    Group elements are classified by which vertices contain them; the
    representatives (least index per class, including the class of
    elements in no vertex) cut every vertex down to a transversal-sized
    fingerprint that still determines it.
    """

    __slots__ = ("component", "eps", "classes", "reps")

    def __init__(self, component: Component) -> None:
        self.component = component
        grp = component.group
        self.eps: dict[int, frozenset[int]] = {}
        for t in range(grp.order):
            self.eps[t] = frozenset(
                k for k, v in enumerate(component.vertices) if t in v
            )
        by_eps: dict[frozenset[int], list[int]] = {}
        for t in range(grp.order):
            by_eps.setdefault(self.eps[t], []).append(t)
        self.classes = sorted(by_eps.values(), key=min)
        self.reps = [min(cls) for cls in self.classes]
        fingerprints = {
            tuple(sorted(set(v) & set(self.reps))) for v in component.vertices
        }
        if len(fingerprints) != component.size:
            raise RuntimeError("representatives do not separate the vertices")


def equivalence_data(comp: Component) -> EquivalenceData:
    return EquivalenceData(comp)


def tilde_pi(comp: Component, vertex: Vertex, field: Field = QQ) -> AlgebraElement:
    """A reduced idempotent section of the component map on vertices.

    Built only from class representatives: e_t for representatives inside
    the vertex, (1 - e_f) for the others.  The component map returns the
    vertex idempotent.
    """
    if vertex not in comp.vertex_pos:
        raise ValueError("not a vertex of the component")
    data = equivalence_data(comp)
    algebra = PartialGroupAlgebra(comp.group, field)
    inside = [t for t in data.reps if t in vertex]
    outside = [t for t in data.reps if t not in vertex]
    x = algebra.one()
    for t in inside:
        x = x * algebra.idem(t)
    for t in outside:
        x = x * (algebra.one() - algebra.idem(t))
    return x


class TensorReport:
    """Outcome of the tensor-equivalence computation on one component."""

    __slots__ = (
        "dimension",
        "expected",
        "h_action_trivial",
        "phi_kills_relations",
        "phi_psi_identity",
        "psi_phi_identity",
    )

    def __init__(self, **kw) -> None:
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def ok(self) -> bool:
        return (
            self.dimension == self.expected
            and self.h_action_trivial
            and self.phi_kills_relations
            and self.phi_psi_identity
            and self.psi_phi_identity
        )

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__} | {"ok": self.ok}

    def __repr__(self) -> str:
        return f"TensorReport({self.as_dict()})"


def tensor_b_kdelta(
    comp: Component, field: Field = QQ, cross_check: bool = False
) -> TensorReport:
    """Form B tensored with the component algebra over the main algebra.

    The tensor product is presented as the plain tensor of the primitive
    basis of B with the arrows, modulo moving canonical basis elements
    across.  The computation checks that the result has one dimension per
    vertex, that the right stabilizer action on arrows out of the base is
    trivial, and that the explicit maps to and from the vertex span are
    mutually inverse.

    Moving a pair s across gives the relation e_{As} (x) y - e_A (x) s.y,
    where As is e_A acted on by s and s.y is the arrow that lambda(s)
    composes with y into; either term may vanish.  Each relation is
    built once, keyed by its two tensor coordinates.
    """
    grp = comp.group
    algebra = PartialGroupAlgebra(grp, field)
    subsets = algebra.subsets_with_identity()
    sub_pos = {a: k for k, a in enumerate(subsets)}
    arrows = comp.arrows
    n_arr = len(arrows)
    flat = len(subsets) * n_arr
    f = field
    one, minus_one = f.one, f.neg(f.one)

    def tensor_index(a: Vertex, arrow: Arrow) -> int:
        return sub_pos[a] * n_arr + comp.arrow_pos[arrow]

    def right_act(a: Vertex, s: SElement) -> Vertex | None:
        # e_A acted by the canonical pair (C, g) on the right
        if not set(s.members).issubset(a):
            return None
        return translate(grp, grp.inv(s.g), a)

    targets = [comp.groupoid.target(arrow) for arrow in arrows]
    basis_pairs = algebra.canonical_basis()
    # hits[i][j]: position of the single arrow in lambda(basis_pairs[i])
    # composable with arrows[j], or None; it does not depend on the subset
    hits: list[list[int | None]] = []
    for s in basis_pairs:
        gi = grp.inv(s.g)
        need = {grp.mult(gi, m) for m in s.members}
        hits.append([
            comp.arrow_pos[(b, grp.mult(s.g, h))] if need.issubset(t) else None
            for (b, h), t in zip(arrows, targets)
        ])

    # (moved index, hit index), None for a vanishing term; many
    # (subset, pair, arrow) triples give the same relation
    keys: dict[tuple[int | None, int | None], None] = {}
    for ai, a in enumerate(subsets):
        row_a = ai * n_arr
        for s, hit_row in zip(basis_pairs, hits):
            moved = right_act(a, s)
            if moved is None:
                for h in hit_row:
                    if h is not None:
                        keys[(None, row_a + h)] = None
            else:
                row_m = sub_pos[moved] * n_arr
                for j, h in enumerate(hit_row):
                    keys[(row_m + j, None if h is None else row_a + h)] = None
    relations: list[Column] = []
    for m, h in keys:
        if m == h:
            continue  # the two terms cancel
        col: Column = {}
        if m is not None:
            col[m] = one
        if h is not None:
            col[h] = minus_one
        relations.append(col)

    # phi: tensor coordinates -> vertex span; psi: the reverse section
    n_vert = comp.size

    def phi_column(a: Vertex, j: int) -> Column:
        # e_A (x) (B, g) goes to the vertex B when g in A and g^-1 A == B;
        # since 1 is in B, that is exactly A == gB, the arrow's target
        if a == targets[j]:
            return {comp.vertex_pos[arrows[j][0]]: one}
        return {}

    if cross_check:
        _tensor_cross_check(comp, algebra, right_act, hits, phi_column)

    elim = Eliminator(f)
    for col in relations:
        elim.add(col)
    dimension = flat - elim.rank

    # right stabilizer action on arrows out of the base vertex
    h_trivial = True
    for h in comp.stabilizer.indices:
        if h == 0:
            continue
        for arrow in arrows:
            if arrow[0] != comp.base:
                continue
            b, g = arrow
            moved_arrow = (comp.base, grp.mult(g, h))
            for a in subsets:
                col = accumulate(f, [(tensor_index(a, moved_arrow), one),
                                     (tensor_index(a, arrow), minus_one)])
                if elim.reduce(col):
                    h_trivial = False

    psi_cols: list[Column] = []
    for v in comp.vertices:
        section = tilde_pi(comp, v, field)
        vec = algebra.primitive_vector(section)
        psi_cols.append(
            {subk * n_arr + comp.arrow_pos[(v, 0)]: c for subk, c in vec.items()}
        )

    def phi_image(col: Column) -> Column:
        return accumulate(f, (
            (r, c * v)
            for idx, c in col.items()
            for r, v in phi_column(subsets[idx // n_arr], idx % n_arr).items()))

    phi_kills = not any(phi_image(col) for col in relations)
    phi_psi = all(phi_image(psi_cols[k]) == {k: one} for k in range(n_vert))

    psi_phi = True
    for a in subsets:
        for j, arrow in enumerate(arrows):
            expect = accumulate(f, chain(
                ((idx, val * c)
                 for r, val in phi_column(a, j).items()
                 for idx, c in psi_cols[r].items()),
                [(tensor_index(a, arrow), minus_one)]))
            if expect and elim.reduce(expect):
                psi_phi = False

    return TensorReport(
        dimension=dimension,
        expected=n_vert,
        h_action_trivial=h_trivial,
        phi_kills_relations=phi_kills,
        phi_psi_identity=phi_psi,
        psi_phi_identity=psi_phi,
    )


def _tensor_cross_check(comp, algebra, right_act, hits, phi_column) -> None:
    """Verify the tables the tensor relations are built from.

    The right action and the hit table are compared with honest algebra
    products, and phi with its defining rule: e_A (x) (B, g) goes to the
    vertex B exactly when g is in A and g^-1 A == B.
    """
    grp = comp.group
    field = algebra.field
    subsets = algebra.subsets_with_identity()
    basis = algebra.canonical_basis()
    for a in subsets:
        e_a = algebra.primitive_idempotent(a)
        for s in basis:
            lo = algebra.bracket(grp.inv(s.g))
            prod = lo * e_a * algebra.monomial(s)
            moved = right_act(a, s)
            if moved is None:
                expect = algebra.zero()
            else:
                expect = algebra.primitive_idempotent(moved)
            if prod != expect:
                raise RuntimeError(
                    f"right action mismatch at e_{a} and {s.render()}"
                )
    for s, hit_row in zip(basis, hits):
        img = lambda_delta(comp, algebra.monomial(s))
        for arrow, hit in zip(comp.arrows, hit_row):
            via_product = img * arrow_unit(comp.groupoid, arrow, field)
            if hit is None:
                if not via_product.is_zero():
                    raise RuntimeError("composition mismatch (expected zero)")
            elif via_product != arrow_unit(comp.groupoid, comp.arrows[hit], field):
                raise RuntimeError("composition mismatch")
    for a in subsets:
        for j, (b, g) in enumerate(comp.arrows):
            shifted = translate(grp, grp.inv(g), a)
            if g in a and shifted == b:
                expect = {comp.vertex_pos[b]: field.one}
            else:
                expect = {}
            if phi_column(a, j) != expect:
                raise RuntimeError(
                    f"phi mismatch at e_{a} and {arrow_str(grp, (b, g))}"
                )

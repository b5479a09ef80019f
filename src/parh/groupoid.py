"""The groupoid of subsets containing 1, its algebra, and its modules.

Vertices are subsets A of a finite group G with 1 in A; an arrow (A, g)
requires g^-1 in A and runs from A to gA.  The span of the arrows is an
algebra under composition, the partial group algebra maps onto it one
connected component at a time, and on each component the algebra of arrows
is a matrix algebra over the group algebra of the base vertex's stabilizer.
The modules induced along a component are read off that structure in
closed form, and the sections of the component map on vertices and on
arrows are built by inclusion-exclusion; the matrix model itself is a
test oracle (``tests/morita.py``).

A vertex is the group's subset key (``group.subset_key``, an int mask
with bit i for element i), so membership is a bit test and gA is
``group.key_translator(g)``.  Vertices are listed in the lex order of
their member tuples, never in int order, and only ``_set_str`` and
``arrow_str`` decode one (``group.key_decoder()``), to print it.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .exel import AlgebraElement, PartialGroupAlgebra
from .groups import GroupElement, GroupError, Subgroup
from .linalg import (
    Column,
    Field,
    IncidenceSpan,
    QQ,
    Scalar,
    SizeCapError,
    SparseMatrix,
    accumulate,
)

GROUPOID_ORDER_CAP = 8

Vertex = int
Arrow = tuple[Vertex, int]


def _set_str(group, a: Vertex) -> str:
    names = map(group.element_name, group.key_decoder()(a))
    return "{" + ",".join(names) + "}"


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
        return self.group.key_translator(g)(a)

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
    vertices = PartialGroupAlgebra(group).subset_keys()
    arrows = [(a, g) for a in vertices for g in range(n)
              if a >> group.inv(g) & 1]
    return Groupoid(group, vertices, arrows)


class Component:
    """A connected component: vertices, a transversal, and the stabilizer.

    The base is the lexicographically least vertex, and the others follow
    in the groupoid's vertex order.  The transversal picks for each vertex
    D the least g with g * base = D (the identity for the base itself),
    and the stabilizer is {h : h * base = base}.
    """

    def __init__(self, groupoid: Groupoid, base: Vertex) -> None:
        grp = groupoid.group
        self.groupoid = groupoid
        self.base = base
        reached: dict[Vertex, int] = {}
        for g in range(grp.order):
            if base >> grp.inv(g) & 1:
                reached.setdefault(grp.key_translator(g)(base), g)
        others = sorted((v for v in reached if v != base),
                        key=groupoid.vertex_pos.__getitem__)
        self.vertices: list[Vertex] = [base] + others
        self.vertex_pos = {v: k for k, v in enumerate(self.vertices)}
        self.transversal: list[GroupElement] = [
            GroupElement(grp, reached[v]) for v in self.vertices
        ]
        assert self.transversal[0].is_identity()
        stab = [h for h in range(grp.order)
                if grp.key_translator(h)(base) == base]
        self.stabilizer = Subgroup(grp, stab)
        # the vertices are in the groupoid's order (the base is lex-least),
        # so this keeps the groupoid's arrow order
        self.arrows: list[Arrow] = [
            a for a in groupoid.arrows if a[0] in self.vertex_pos]
        self.arrow_pos = {a: k for k, a in enumerate(self.arrows)}

    @property
    def group(self):
        return self.groupoid.group

    @property
    def size(self) -> int:
        return len(self.vertices)

    @cached_property
    def reps(self) -> list[int]:
        """The support-class representatives of ``EquivalenceData``,
        found on first use and kept."""
        return EquivalenceData(self).reps

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

    def __mul__(self, other: "ArrowSum") -> "ArrowSum":
        self._check(other)
        grp = self.groupoid.group
        out = accumulate(self.field, (
            ((b, grp.mult(g, h)), c * d)
            for (a, g), c in self.coeffs.items()
            for (b, h), d in other.coeffs.items()
            if grp.key_translator(h)(b) == a))
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

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        grp = self.groupoid.group
        parts = []
        for a in sorted(self.coeffs, key=self.groupoid.arrow_pos.__getitem__):
            c = self.coeffs[a]
            body = arrow_str(grp, a)
            text = body if c == self.field.one else f"{c}*{body}"
            parts.append(text)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return self.render()


def arrow_unit(groupoid: Groupoid, arrow: Arrow, field: Field = QQ) -> ArrowSum:
    if arrow not in groupoid.arrow_pos:
        raise ValueError(f"not an arrow: {arrow_str(groupoid.group, arrow)}")
    return ArrowSum(groupoid, field, {arrow: field.one})


def lambda_map(groupoid: Groupoid, x: AlgebraElement, vertices=None) -> ArrowSum:
    """The algebra map into the groupoid algebra.

    A canonical pair (A, g) goes to the sum of arrows (D, g) over all
    vertices D in the chosen vertex set containing g^-1 A.  With
    ``vertices=None`` this is the full map; restricting the vertex set to
    one component gives the component map.  Containment is read on
    subset keys: D holds the key ``need`` of g^-1 A iff
    ``D & need == need``.
    """
    grp = groupoid.group
    verts = groupoid.vertices if vertices is None else vertices

    def terms():
        for (key, g), c in x.terms.items():
            need = grp.key_translator(grp.inv(g))(key)
            for d in verts:
                if d & need == need:
                    yield (d, g), c

    return ArrowSum(groupoid, x.field, accumulate(x.field, terms()))


def lambda_delta(comp: Component, x: AlgebraElement) -> ArrowSum:
    """The component-restricted algebra map."""
    return lambda_map(comp.groupoid, x, vertices=comp.vertices)


class PartialRepModule:
    """A finite-dimensional left module given by generator matrices.

    ``mats[g]`` is the matrix of the generator [g], and matrices compose
    as pi(g) pi(h) ~ pi(gh).  On construction the unit and the two
    defining relations are checked exhaustively, once; ``idems[x]`` keeps
    the idempotent e_x = [x][x^-1] that the check forms, and
    ``self_dual`` whether the module equals its dual V* literally:
    [g^-1] = [g]^T for every g, decided exactly.  B, the regular module
    and the modules induced from a trivial or regular representation act
    by 0/1 partial maps, which the check composes as index lists, and
    they are self-dual.  ``maps`` keeps those lists (``_partial_maps``),
    so that (co)homology builds its complex on them too; it is None for
    any other module.
    """

    __slots__ = ("group", "field", "dim", "mats", "idems", "self_dual", "maps")

    def __init__(self, group, field: Field, mats: dict[int, SparseMatrix]) -> None:
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
        self._validate()

    @classmethod
    def _of_clean(cls, group, field: Field, mats: dict[int, SparseMatrix],
                  idems: list[SparseMatrix], self_dual: bool,
                  maps: dict[int, list[int]] | None) -> "PartialRepModule":
        """Adopt generator matrices that satisfy the relations, their
        idempotents, their self-duality and their partial maps (or None),
        without checking again.

        The one use is the dual V*, mats[g] = M(g^-1)^T for a checked
        module M.  Transposing reverses products, so relation 1 of V* at
        (g, h) is relation 2 of M at (h^-1, g^-1) transposed, relation 2
        of V* at (g, h) is relation 1 of M at (h^-1, g^-1) transposed, and
        the unit is I^T = I.  V* is self-dual exactly when M is, since
        then both have the same matrices.
        """
        v = cls.__new__(cls)
        v.group = group
        v.field = field
        v.dim = mats[0].nrows
        v.mats = mats
        v.idems = idems
        v.self_dual = self_dual
        v.maps = maps
        return v

    def _validate(self) -> None:
        """The unit, then both relations, read at every pair (x, y).

        With e_z = [z][z^-1], relation 1 at (g, h) = (xy, y^-1) reads
        [x][y] = [xy] e_(y^-1), and relation 2 at (g, h) = (x^-1, xy)
        reads [x][y] = e_x [xy].  Each [x][y] is formed once and dropped.

        A self-dual module, [x^-1] = [x]^T for every x, has
        e_x^T = [x^-1]^T [x]^T = e_x, so relation 2 at (x, y) transposed,
        [y^-1][x^-1] = [(xy)^-1] e_x, is relation 1 at (y^-1, x^-1), which
        the loop checks too; its relation 2 is not formed again.

        When every column of every [g] is empty or the single entry int 1,
        each [g] is a partial map (``_partial_maps``), a product of two is
        their composition, and the same equalities are checked on index
        lists, with no matrix product; [x^-1] = [x]^T holds iff the map of
        x^-1 is the inverse of the injective map of x.  Any other module
        takes 2 n^2 matrix products if self-dual and 3 n^2 if not.  Either
        way the idempotents are kept as matrices, and the lists as
        ``maps``.
        """
        grp = self.group
        n = grp.order
        field, dim = self.field, self.dim
        self.maps = maps = _partial_maps(self.mats)
        if maps is None:
            gens, mul = self.mats, operator.mul
            unit = SparseMatrix.identity(field, dim)
            inverse = _transposes
        else:
            gens, mul = maps, _compose
            unit = [*range(dim), -1]
            inverse = _inverts
        if gens[0] != unit:
            raise ValueError("the identity generator must act as the identity")
        idems = [mul(gens[x], gens[grp.inv(x)]) for x in range(n)]
        if maps is None:
            self.idems = idems
        else:
            one = field.one
            self.idems = [SparseMatrix._of_columns(
                field, dim, [{i: one} if i >= 0 else {} for i in e[:-1]])
                for e in idems]
        self.self_dual = self_dual = all(
            inverse(gens[x], gens[grp.inv(x)]) for x in range(n))
        for x in range(n):
            for y in range(n):
                xy = grp.mult(x, y)
                yi = grp.inv(y)
                prod = idems[x] if xy == 0 else mul(gens[x], gens[y])
                if mul(gens[xy], idems[yi]) != prod:
                    raise ValueError(
                        f"partial relation [g][h][h^-1] fails at ({xy}, {yi})"
                    )
                if not self_dual and mul(idems[x], gens[xy]) != prod:
                    raise ValueError(
                        "partial relation [g^-1][g][h] fails at "
                        f"({grp.inv(x)}, {xy})"
                    )


def _partial_maps(mats: dict[int, SparseMatrix]) -> dict[int, list[int]] | None:
    """Each generator as a partial map, or None unless every column of
    every matrix is empty or the single entry int 1.

    ``maps[g][j]`` is the row of the 1 in column j, or -1 for an empty
    column, and one more -1 closes the list, so that ``a[-1]`` is -1.
    """
    maps = {}
    for g, m in mats.items():
        targets = []
        for col in m.cols:
            if not col:
                targets.append(-1)
                continue
            if len(col) != 1:
                return None
            ((i, v),) = col.items()
            if v != 1 or type(v) is not int:
                return None
            targets.append(i)
        targets.append(-1)
        maps[g] = targets
    return maps


def _compose(a: list[int], b: list[int]) -> list[int]:
    """The partial map a after b, whose matrix is [a][b].  Where b is -1,
    ``a[-1]`` reads the closing -1 of a, so no column needs a test."""
    return list(map(a.__getitem__, b))


def _inverts(a: list[int], b: list[int]) -> bool:
    """Whether [b] = [a]^T: a is injective and b is its inverse."""
    inverse = [-1] * len(a)
    for j, i in enumerate(a):
        if i >= 0:
            if inverse[i] >= 0:
                return False
            inverse[i] = j
    return inverse == b


def _transposes(a: SparseMatrix, b: SparseMatrix) -> bool:
    """Whether b = a^T."""
    return b == a.transpose()


def regular_module(group, field: Field = QQ,
                   cap: int = GROUPOID_ORDER_CAP) -> PartialRepModule:
    """The left regular module, in the arrow basis (D, k) of the groupoid.

    lambda_map is an isomorphism onto the groupoid algebra (Dokuchaev, Exel
    and Piccione, J. Algebra 226, 2000): [h] (D, k) = (D, hk) when h^-1 is
    in kD, and zero otherwise, so every e_x = [x][x^-1] is diagonal.  Since
    (D, hk) is an arrow iff (hk)^-1 is in D, that is iff h^-1 is in kD,
    [h] (D, k) is read off the arrow positions, with no translate.  The
    group order is checked against ``cap`` before anything is built.
    """
    gd = build_groupoid(group, cap)
    arrow_pos = gd.arrow_pos
    one = field.one
    mats = {}
    for h in range(group.order):
        row = group.table[h]
        cols = []
        for d, k in gd.arrows:
            i = arrow_pos.get((d, row[k]))
            cols.append({} if i is None else {i: one})
        mats[h] = SparseMatrix._of_columns(field, len(cols), cols)
    return PartialRepModule(group, field, mats)


def b_module(group, field: Field = QQ) -> PartialRepModule:
    """The idempotent subalgebra as a left module, in its primitive basis.

    [g] sends e_A to e_{gA} when g^-1 is in A, and to zero otherwise.
    """
    keys = PartialGroupAlgebra(group, field).subset_keys()
    pos = {a: k for k, a in enumerate(keys)}
    one = field.one
    mats = {}
    for g in range(group.order):
        gi, shift = group.inv(g), group.key_translator(g)
        cols = [{pos[shift(a)]: one} if a >> gi & 1 else {} for a in keys]
        mats[g] = SparseMatrix._of_columns(field, len(cols), cols)
    return PartialRepModule(group, field, mats)


def induce_module(comp: Component, u: dict, field: Field = QQ) -> PartialRepModule:
    """Induce a stabilizer representation along one component.

    ``u`` maps stabilizer elements (as parent group elements) to matrices.
    The induced space is one copy of the representation per vertex, in
    the order of ``comp.vertices``, and each [g] is read off the
    transversal t_i (t_i v_0 = v_i for the base v_0).  [g] kills the copy
    at v_i unless g^-1 is in v_i; then g v_i is a vertex v_j, and
    h = t_j^-1 g t_i fixes the base (h v_0 = t_j^-1 g v_i = v_0), so
    [g] sends the copy at v_i to the copy at v_j through u(h).  This is
    the block-monomial matrix of [g] in the Morita model M_n(K H) of the
    component.  A conjugate h outside the stabilizer means a transversal
    that does not reach its vertex: RuntimeError.
    """
    grp = comp.group
    mats_u = {h.index: u[h] for h in comp.stabilizer.elements}
    d = next(iter(mats_u.values())).nrows
    n = comp.size
    t = [x.index for x in comp.transversal]
    t_inv = [grp.inv(x) for x in t]
    mats = {}
    for g in range(grp.order):
        gi = grp.inv(g)
        entries = {}
        for i, v in enumerate(comp.vertices):
            if not v >> gi & 1:
                continue
            j = comp.vertex_pos[grp.key_translator(g)(v)]
            block = mats_u.get(grp.mult(t_inv[j], grp.mult(g, t[i])))
            if block is None:
                raise RuntimeError(
                    "transversal conjugate landed outside the stabilizer")
            for c, col in enumerate(block.cols):
                for r, val in col.items():
                    entries[(j * d + r, i * d + c)] = val
        mats[g] = SparseMatrix(field, n * d, n * d, entries)
    return PartialRepModule(grp, field, mats)


def component_support(comp: Component) -> frozenset[int]:
    """Union of the vertex sets of a component, as element indices."""
    union = 0
    for v in comp.vertices:
        union |= v
    return frozenset(t for t in range(comp.group.order) if union >> t & 1)


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

    P_A is ``idempotent_product`` with the members of A inside and the
    rest of G outside, the signed sum of the pairs (C, 1) over the sets C
    containing A, built with no product; so the lift is one product, and
    that one only translates: g^-1 is in A, hence in every such C, so
    [g] (C, 1) = (gC, g).
    """
    if arrow not in comp.arrow_pos:
        raise ValueError("arrow outside the component")
    a, g = arrow
    n = comp.group.order
    algebra = PartialGroupAlgebra(comp.group, field)
    return algebra.bracket(g) * algebra.idempotent_product(
        [t for t in range(n) if a >> t & 1],
        [t for t in range(n) if not a >> t & 1])


class EquivalenceData:
    """Support classes of one component.

    Group elements are classified by which vertices contain them; the
    representatives (least index per class, including the class of
    elements in no vertex) cut every vertex down to a transversal-sized
    fingerprint that still determines it.
    """

    __slots__ = ("classes", "reps")

    def __init__(self, component: Component) -> None:
        by_eps: dict[frozenset[int], list[int]] = {}
        for t in range(component.group.order):
            eps = frozenset(
                k for k, v in enumerate(component.vertices) if v >> t & 1)
            by_eps.setdefault(eps, []).append(t)
        self.classes = sorted(by_eps.values(), key=min)
        self.reps = [min(cls) for cls in self.classes]
        rep_key = component.group.subset_key(self.reps)
        fingerprints = {v & rep_key for v in component.vertices}
        if len(fingerprints) != component.size:
            raise RuntimeError("representatives do not separate the vertices")


def tilde_pi(comp: Component, vertex: Vertex, field: Field = QQ) -> AlgebraElement:
    """A reduced idempotent section of the component map on vertices.

    Built only from class representatives: the product of e_t over the
    representatives t inside the vertex and of (1 - e_f) over the others
    f.  The component map returns the vertex idempotent.  No product is
    formed: expanding the factors (1 - e_f) gives the sum over sets T of
    outside representatives of (-1)^|T| (I union T, 1), I the inside
    ones (``PartialGroupAlgebra.idempotent_product``).
    """
    if vertex not in comp.vertex_pos:
        raise ValueError("not a vertex of the component")
    reps = comp.reps
    algebra = PartialGroupAlgebra(comp.group, field)
    return algebra.idempotent_product(
        [t for t in reps if vertex >> t & 1],
        [t for t in reps if not vertex >> t & 1])


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


def _bracket_tables(comp: Component, keys: list[int]):
    """The closed forms the bracket relations are built from.

    ``keys`` are the subset keys of the subsets A_k, in basis order.
    ``targets[j]`` is the target vertex of arrows[j]; ``moved[g][k]`` is
    the position of e_{A_k}[g] = e_{g^-1 A_k} among the subsets, its key
    read off the group's key translation by g^-1, and ``hits[g][j]`` that
    of [g] arrows[j] among the arrows, None where it is zero.
    """
    grp = comp.group
    targets = [comp.groupoid.target(arrow) for arrow in comp.arrows]
    key_pos = {a: k for k, a in enumerate(keys)}
    moved: list[list[int | None]] = []
    hits: list[list[int | None]] = []
    for g in range(grp.order):
        gi = grp.inv(g)
        shift, bit = grp.key_translator(gi), 1 << g
        moved.append([key_pos[shift(a)] if a & bit else None
                      for a in keys])
        hits.append([comp.arrow_pos[(b, grp.mult(g, h))] if t >> gi & 1
                     else None
                     for (b, h), t in zip(comp.arrows, targets)])
    return targets, moved, hits


def tensor_b_kdelta(comp: Component, field: Field = QQ,
                    sections: list[AlgebraElement] | None = None
                    ) -> TensorReport:
    """Form B tensored with the component algebra over the main algebra.

    The tensor product is presented as the plain tensor of the primitive
    basis of B with the arrows, modulo moving the brackets [g] across.  The
    computation checks that the result has one dimension per vertex, that
    the right stabilizer action on arrows out of the base is trivial, and
    that the explicit maps to and from the vertex span are mutually
    inverse.

    The brackets generate the algebra (Exel, Proc. AMS 126, 1998), and the
    relation of a product rs at (m, y) is that of s at (mr, y) plus that
    of r at (m, sy), so their relations span all the others.  Moving [g]
    gives e_A[g] (x) y - e_A (x) [g]y, where e_A[g] = [g^-1] e_A [g] is
    e_{g^-1 A} when g is in A, and [g](B, h) is the arrow (B, gh) when
    g^-1 is in the target hB; either term may vanish.  So each relation is
    a signed edge u - v or a ground edge u, and an IncidenceSpan holds them.

    The checks are read off the span's roots, found once per coordinate.
    A column is in the span iff its residue, the component sums off the
    ground, is zero, and the residue is linear: u - v is in the span iff
    u and v share a root, and psi(phi(x)) - x iff the residues of psi(r),
    one per vertex r, summed with the weights phi(x)_r give x's root, or
    nothing when x lies in the ground's component.

    psi is read off ``sections``, the ``tilde_pi`` of each vertex in
    vertex order, which are built here when not given.
    """
    grp = comp.group
    algebra = PartialGroupAlgebra(grp, field)
    keys = algebra.subset_keys()
    arrows = comp.arrows
    n_arr = len(arrows)
    flat = len(keys) * n_arr
    f = field
    one = f.one

    targets, moved, hits = _bracket_tables(comp, keys)

    # phi: tensor coordinates -> vertex span; psi: the reverse section.
    # e_A (x) (B, g) goes to the vertex B when g in A and g^-1 A == B;
    # since 1 is in B, that is exactly A == gB, the arrow's target
    n_vert = comp.size
    images = [{comp.vertex_pos[arrows[j][0]]: one} if a == targets[j] else {}
              for a in keys for j in range(n_arr)]

    span = IncidenceSpan(f)
    add = span.add
    for move_row, hit_row in zip(moved, hits):
        for k, m in enumerate(move_row):
            for j, h in enumerate(hit_row):
                u = None if m is None else m * n_arr + j
                v = None if h is None else k * n_arr + h
                if u == v:
                    continue  # both terms vanish, or they cancel
                if u is None:
                    add(v)
                elif v is None:
                    add(u)
                else:
                    add(u, v)
    dimension = flat - span.rank

    # phi kills every relation u - v (and u) iff phi(u) == phi(v) on each
    # edge, that is iff phi is constant on each component of the span and
    # zero on the ground's, so phi is read once per coordinate
    ground = span.root(-1)
    roots = [span.root(idx) for idx in range(flat)]
    image_of = {ground: {}}
    phi_kills = all(image_of.setdefault(r, col) == col
                    for r, col in zip(roots, images))

    # right stabilizer action on arrows out of the base vertex: u - v is
    # in the span iff u and v share a root, since otherwise at most one of
    # the two roots is the ground and the other keeps its component sum
    arrow_pos = comp.arrow_pos
    h_trivial = all(
        roots[row + arrow_pos[(b, grp.mult(g, h))]]
        == roots[row + arrow_pos[(b, g)]]
        for h in comp.stabilizer.indices if h != 0
        for b, g in arrows if b == comp.base
        for row in range(0, flat, n_arr))

    if sections is None:
        sections = [tilde_pi(comp, v, field) for v in comp.vertices]
    psi_cols: list[Column] = []
    for v, section in zip(comp.vertices, sections):
        vec = algebra.primitive_vector(section)
        psi_cols.append(
            {subk * n_arr + comp.arrow_pos[(v, 0)]: c for subk, c in vec.items()}
        )

    def phi_image(col: Column) -> Column:
        return accumulate(f, ((r, c * v) for idx, c in col.items()
                              for r, v in images[idx].items()))

    phi_psi = all(phi_image(psi_cols[k]) == {k: one} for k in range(n_vert))

    # psi(phi(x)) - x is in the span iff its residue is zero; the residue
    # is linear, so it is sum_r phi(x)_r psi_res[r] against that of x,
    # which is x's root, or nothing on the ground's component
    psi_res = [span.residue_column(col) for col in psi_cols]
    psi_phi = all(
        accumulate(f, ((row, val * c) for r, val in col.items()
                       for row, c in psi_res[r].items()))
        == ({} if r_x == ground else {r_x: one})
        for r_x, col in zip(roots, images))

    return TensorReport(
        dimension=dimension,
        expected=n_vert,
        h_action_trivial=h_trivial,
        phi_kills_relations=phi_kills,
        phi_psi_identity=phi_psi,
        psi_phi_identity=psi_phi,
    )


def section5_report(comp: Component, field: Field = QQ) -> dict:
    """The vertex sections and the tensor equivalence on one component.

    ``section_identity``: the component map sends tilde_pi of every vertex
    to that vertex's identity arrow.  ``tensor``: the tensor_b_kdelta
    report as a dict.
    """
    gd = comp.groupoid
    sections = [tilde_pi(comp, v, field) for v in comp.vertices]
    section = all(
        lambda_delta(comp, x)
        == arrow_unit(gd, (v, gd.group.identity_index), field)
        for v, x in zip(comp.vertices, sections)
    )
    return {"section_identity": section,
            "tensor": tensor_b_kdelta(comp, field, sections).as_dict()}


def section6_report(comp: Component, field: Field = QQ) -> dict:
    """The three identities of the arrow lift zeta_delta on one component.

    ``support_full``: the vertices cover the group (a fact, not a check).
    ``section_identity``: lambda_delta(zeta(a)) == a for every arrow a.
    ``module_map``: zeta(lambda_delta(r) * a) == r * zeta(a) for every
    bracket r = [g] and arrow a, with zeta extended linearly.  The
    brackets suffice: they generate the algebra, [1] is the unit, and
    since lambda_delta is multiplicative the identity for r and for s
    gives it for rs.  ``multiplicative``: zeta(s) * zeta(a) == zeta(s * a)
    for every pair of arrows, where a zero arrow product lifts to zero.
    It is ``module_map`` together with zeta(u) zeta(a) == zeta(u a) for
    the identity arrows u = (v, 1) against every arrow a.  That suffices:
    an arrow s = (v, g) is lambda_delta([g]) (v, 1), so by ``module_map``
    at the arrows (v, 1) and (v, 1) a (or at zero),
    zeta(s) zeta(a) = [g] zeta((v, 1)) zeta(a) = [g] zeta((v, 1) a)
    = zeta(s a).
    """
    gd = comp.groupoid
    grp = comp.group
    algebra = PartialGroupAlgebra(grp, field)
    lifts = {a: zeta_delta(comp, a, field) for a in comp.arrows}
    units = {a: arrow_unit(gd, a, field) for a in comp.arrows}

    def lift(y: ArrowSum) -> AlgebraElement:
        return AlgebraElement._of_clean(grp, field, accumulate(field, (
            (k, c * v) for a, c in y.coeffs.items()
            for k, v in lifts[a].terms.items())))

    arrows = comp.arrows
    identities = [(v, grp.identity_index) for v in comp.vertices]
    projected = [(r, lambda_delta(comp, r))
                 for r in map(algebra.bracket, range(grp.order))]
    module_map = all(lift(proj * units[a]) == r * lifts[a]
                     for r, proj in projected for a in arrows)
    return {
        "support_full": len(component_support(comp)) == grp.order,
        "section_identity": all(lambda_delta(comp, lifts[a]) == units[a]
                                for a in arrows),
        "multiplicative": module_map and all(
            lift(units[u] * units[a]) == lifts[u] * lifts[a]
            for u in identities for a in arrows),
        "module_map": module_map,
    }

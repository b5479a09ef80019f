"""Exact homology for partial representations of finite groups.

Four chain pipelines feed the checks in this module:

- a homogeneous resolution over the idempotent subalgebra, together with
  the contracting homotopy that certifies its exactness degree by degree;
- the combinatorial bar complex with idempotent coefficients, built
  directly in the primitive basis with partial-permutation entries;
- a transported complex that evaluates the same resolution against any
  finite-dimensional module of generator matrices, using the involution
  that exchanges left and right module structures;
- the classical bar complex of a finite group, written independently so
  that the comparison checks are carried by genuinely separate code.

Cohomology has no complex of its own: over a field, dim H^n(V) equals
dim H_n(V*), where V* is the dual module with [g] acting by the
transpose of [g^-1].  Partial and classical cohomology are each the
homology of their own dual, so the comparison checks still pit two
separate codes against each other.

Dimensions are exact in every degree: ranks over the rationals or a
prime field, never floating point.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .exel import PartialGroupAlgebra
from .groupoid import (
    PartialRepModule,
    _set_str,
    b_module,
    build_groupoid,
    components,
    induce_module,
)
from .groups import translate, trivial_rep
from .linalg import (Eliminator, Field, QQ, SizeCapError, SparseMatrix,
                     accumulate, rank)

HOMOLOGY_SIZE_CAP = 100_000


class HomologyReport:
    """Per-degree dimensions of one homology computation.

    ``method`` records which pipeline produced the numbers: ``bar`` for
    the idempotent-coefficient machinery, ``ordinary`` for the classical
    group complex, ``stabilizer-sum`` for a sum over components.
    ``checks`` carries the structural verifications that ran alongside
    the computation (``homotopy_id`` is None for pipelines that have no
    resolution identity to check).
    """

    __slots__ = ("group", "module", "field", "method", "dims", "checks")

    def __init__(self, group: str, module: str, field: Field, method: str,
                 dims: list[int], checks: dict) -> None:
        if any(d < 0 for d in dims):
            raise ValueError("homology dimensions must be nonnegative")
        self.group = group
        self.module = module
        self.field = field
        self.method = method
        self.dims = list(dims)
        self.checks = dict(checks)

    def as_dict(self) -> dict:
        return {
            "group": self.group,
            "module": self.module,
            "field": self.field.name,
            "method": self.method,
            "dims": self.dims,
            "checks": self.checks,
        }

    def __repr__(self) -> str:
        return f"HomologyReport({self.group}, {self.module}, dims={self.dims})"


class ChainComplex:
    """Labeled chain spaces with one sparse differential per degree.

    ``labels[n]`` names the basis of the degree-n space; ``diffs[n]`` is
    the matrix of d_n mapping degree n to degree n-1.  Consecutive
    differentials compose to zero; ``d2_zero`` verifies that by honest
    matrix multiplication.
    """

    __slots__ = ("field", "labels", "diffs")

    def __init__(self, field: Field, labels: dict[int, list],
                 diffs: dict[int, SparseMatrix]) -> None:
        for n, d in diffs.items():
            if d.ncols != len(labels[n]) or d.nrows != len(labels[n - 1]):
                raise ValueError(f"differential at degree {n} has wrong shape")
        self.field = field
        self.labels = labels
        self.diffs = diffs

    def dim(self, n: int) -> int:
        return len(self.labels[n])

    def d2_zero(self) -> bool:
        for n, d in self.diffs.items():
            up = self.diffs.get(n + 1)
            if up is not None and not (d * up).is_zero():
                return False
        return True

    def homology_dims(self, max_degree: int) -> list[int]:
        """dim ker d_n - rank d_{n+1} for n = 0..max_degree."""
        if max_degree + 1 not in self.diffs and max_degree > 0:
            raise ValueError("complex not built deep enough for max_degree")
        ranks = {n: rank(d) for n, d in self.diffs.items() if n <= max_degree + 1}
        return [self.dim(n) - ranks.get(n, 0) - ranks.get(n + 1, 0)
                for n in range(max_degree + 1)]


def _check_cap(group, n: int, block: int, cap: int, what: str) -> None:
    requested = (group.order ** n) * block
    if requested > cap:
        raise SizeCapError(
            f"{what} at degree {n} needs {requested} basis columns, cap is {cap}",
            limit=cap,
            requested=requested,
        )


def _prefixes(group, xs: tuple[int, ...]) -> list[int]:
    out = []
    acc = 0
    for x in xs:
        acc = group.mult(acc, x)
        out.append(acc)
    return out


def _contract(group, xs: tuple[int, ...], j: int) -> tuple[int, ...]:
    return xs[:j] + (group.mult(xs[j], xs[j + 1]),) + xs[j + 2:]


def _subsets(group) -> list[tuple[int, ...]]:
    return PartialGroupAlgebra(group).subsets_with_identity()


# ---------------------------------------------------------------------------
# Bar complex with idempotent coefficients, directly in the primitive basis.


def _tuple_labels(group, n: int, cap: int, what: str, members) -> list[tuple]:
    """Labels (A, t) over n-tuples t, with A every subset containing the
    identity and ``members(t)``."""
    subsets = _subsets(group)
    _check_cap(group, n, len(subsets), cap, what)
    out = []
    for t in product(range(group.order), repeat=n):
        need = {0, *members(t)}
        out.extend((a, t) for a in subsets if need.issubset(a))
    return out


def bar_basis(group, n: int, cap: int = HOMOLOGY_SIZE_CAP) -> list[tuple]:
    """Degree-n basis labels (A, (x_1, ..., x_n)).

    A ranges over the primitive idempotent indices that contain the
    identity and every prefix product x_1, x_1 x_2, ...; degree 0 is the
    idempotent subalgebra itself, one label (A, ()) per subset.
    """
    return _tuple_labels(group, n, cap, "bar basis",
                         lambda xs: _prefixes(group, xs))


def bar_differential(group, n: int, field: Field = QQ,
                     cap: int = HOMOLOGY_SIZE_CAP) -> SparseMatrix:
    """Matrix of the degree-n bar differential in the primitive basis.

    The column of (A, (x_1, ..., x_n)) has the three kinds of terms: the
    translated tail (x_1^{-1} A, (x_2, ..., x_n)), the alternating-sign
    contractions (A, (..., x_i x_{i+1}, ...)), and the sign (-1)^n drop
    of the last entry.  Every entry is +-1 up to collisions, and the
    composite of consecutive differentials is zero.
    """
    if n < 1:
        raise ValueError("bar differential starts at degree 1")
    rows = bar_basis(group, n - 1, cap)
    cols = bar_basis(group, n, cap)
    rpos = {lab: k for k, lab in enumerate(rows)}
    f = field

    def terms():
        for c, (a, xs) in enumerate(cols):
            x1i = group.inv(xs[0])
            tail_a = translate(group, x1i, a)
            yield (rpos[(tail_a, xs[1:])], c), f.one
            sign = f.neg(f.one)
            for j in range(len(xs) - 1):
                yield (rpos[(a, _contract(group, xs, j))], c), sign
                sign = f.neg(sign)
            yield (rpos[(a, xs[:-1])], c), sign

    return SparseMatrix(f, len(rows), len(cols), accumulate(f, terms()),
                        row_labels=rows, col_labels=cols)


# ---------------------------------------------------------------------------
# Homogeneous resolution and its contracting homotopy.


def homogeneous_basis(group, n: int, cap: int = HOMOLOGY_SIZE_CAP) -> list[tuple]:
    """Degree-n labels (A, (g_1, ..., g_n)) with A containing every g_i."""
    return _tuple_labels(group, n, cap, "homogeneous basis", lambda gs: gs)


def homogeneous_differential(group, n: int, field: Field = QQ,
                             cap: int = HOMOLOGY_SIZE_CAP) -> SparseMatrix:
    """Alternating sum of entry drops; the subset label never moves."""
    if n < 1:
        raise ValueError("homogeneous differential starts at degree 1")
    rows = homogeneous_basis(group, n - 1, cap)
    cols = homogeneous_basis(group, n, cap)
    rpos = {lab: k for k, lab in enumerate(rows)}
    f = field

    def terms():
        for c, (a, gs) in enumerate(cols):
            sign = f.one
            for i in range(len(gs)):
                yield (rpos[(a, gs[:i] + gs[i + 1:])], c), sign
                sign = f.neg(sign)

    return SparseMatrix(f, len(rows), len(cols), accumulate(f, terms()),
                        row_labels=rows, col_labels=cols)


def contracting_homotopy(group, n: int, field: Field = QQ,
                         cap: int = HOMOLOGY_SIZE_CAP) -> SparseMatrix:
    """Matrix of the degree-raising map prepending the identity entry.

    Together with the homogeneous differentials it satisfies
    s d + d s = id in every positive degree, and d_1 s_0 = id in degree
    zero, which is the degreewise exactness certificate.
    """
    rows = homogeneous_basis(group, n + 1, cap)
    cols = homogeneous_basis(group, n, cap)
    rpos = {lab: k for k, lab in enumerate(rows)}
    entries = {}
    for c, (a, gs) in enumerate(cols):
        entries[(rpos[(a, (0,) + gs)], c)] = field.one
    return SparseMatrix(field, len(rows), len(cols), entries,
                        row_labels=rows, col_labels=cols)


@lru_cache(maxsize=16)
def resolution_identity_holds(group, max_degree: int, field: Field = QQ,
                              cap: int = HOMOLOGY_SIZE_CAP) -> bool:
    """Check s d + d s = id through the requested degree.

    Degree zero uses d_1 s_0 = id; degree m uses
    s_{m-1} d_m + d_{m+1} s_m = id.  Everything is verified by sparse
    matrix arithmetic, no shortcuts.  The resolution does not depend on
    any module, so the result is cached per (group, degree, field, cap).
    """
    diffs = {m: homogeneous_differential(group, m, field, cap)
             for m in range(1, max_degree + 2)}
    homs = {m: contracting_homotopy(group, m, field, cap)
            for m in range(0, max_degree + 1)}
    n0 = len(homogeneous_basis(group, 0, cap))
    if diffs[1] * homs[0] != SparseMatrix.identity(field, n0):
        return False
    for m in range(1, max_degree + 1):
        dim_m = diffs[m].ncols
        composite = homs[m - 1] * diffs[m] + diffs[m + 1] * homs[m]
        if composite != SparseMatrix.identity(field, dim_m):
            return False
    return True


# ---------------------------------------------------------------------------
# Transport of the resolution against a module of generator matrices.


class _Block:
    """Image of one product of idempotent projections, with coordinates.

    ``basis`` holds the chosen independent columns of the projection;
    ``coords`` rewrites any vector of the image over that basis and
    refuses vectors that escape it.
    """

    __slots__ = ("projection", "basis", "_elim")

    def __init__(self, field: Field, projection: SparseMatrix) -> None:
        self.projection = projection
        self._elim = Eliminator(field, track=True)
        self.basis: list[dict] = []
        for j in range(projection.ncols):
            col = projection.column(j)
            if not col:
                continue
            if self._elim.add(col, tag=len(self.basis)) is not None:
                self.basis.append(col)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, col: dict) -> dict:
        hist: dict = {}
        residue = self._elim.reduce(dict(col), hist)
        if residue:
            raise RuntimeError("vector escapes its projection block")
        return hist


def _block_for(v_mod: PartialRepModule, prefix_set: frozenset[int],
               cache: dict) -> _Block:
    block = cache.get(prefix_set)
    if block is None:
        proj = SparseMatrix.identity(v_mod.field, v_mod.dim)
        for p in sorted(prefix_set):
            if p == 0:
                continue
            proj = proj * (v_mod.mats[p] * v_mod.mats[v_mod.group.inv(p)])
        block = _Block(v_mod.field, proj)
        cache[prefix_set] = block
    return block


def _degree_blocks(v_mod: PartialRepModule, n: int, cache: dict):
    """Per-tuple blocks, offsets, and labels for one chain degree."""
    group = v_mod.group
    per_tuple = []
    offsets = {}
    labels = []
    total = 0
    for xs in product(range(group.order), repeat=n):
        block = _block_for(v_mod, frozenset(_prefixes(group, xs)), cache)
        per_tuple.append((xs, block))
        offsets[xs] = total
        labels.extend((xs, j) for j in range(block.dim))
        total += block.dim
    return per_tuple, offsets, labels


def _transported_complex(v_mod: PartialRepModule, max_n: int,
                         cap: int) -> ChainComplex:
    """Chain complex of blocks e_{(x)} V with the transported boundary.

    The boundary of a block vector v at the tuple (x_1, ..., x_n) is the
    coordinate image of [x_1^{-1}] v at the tail tuple, plus the
    alternating contractions and the final drop of v itself.  Coordinate
    lookups fail loudly if a vector ever leaves its target block.
    """
    group = v_mod.group
    field = v_mod.field
    for n in range(max_n + 1):
        _check_cap(group, n, v_mod.dim, cap, "transported complex")
    cache: dict = {}
    degree = {n: _degree_blocks(v_mod, n, cache) for n in range(max_n + 1)}
    labels = {n: degree[n][2] for n in range(max_n + 1)}
    diffs = {}
    for n in range(1, max_n + 1):
        per_tuple, _, _ = degree[n]
        _, off_lo, _ = degree[n - 1]
        lo_blocks = {xs: b for xs, b in degree[n - 1][0]}

        def terms():
            c = 0
            for xs, block in per_tuple:
                x1i = group.inv(xs[0])
                tail = xs[1:]
                targets = [(tail, field.one, v_mod.mats[x1i])]
                sign = field.neg(field.one)
                for j in range(n - 1):
                    targets.append((_contract(group, xs, j), sign, None))
                    sign = field.neg(sign)
                targets.append((xs[:-1], sign, None))
                for b in block.basis:
                    for ys, s, mat in targets:
                        w = mat.apply(b) if mat is not None else b
                        for tag, v in lo_blocks[ys].coords(w).items():
                            yield (off_lo[ys] + tag, c), s * v
                    c += 1

        diffs[n] = SparseMatrix(field, len(labels[n - 1]), len(labels[n]),
                                accumulate(field, terms()),
                                row_labels=labels[n - 1],
                                col_labels=labels[n])
    return ChainComplex(field, labels, diffs)


# Cohomology has no complex class of its own; the name stays only because
# the tracer in perfbench/spans.py patches ``_CoComplex.d2_zero`` by it.
_CoComplex = ChainComplex


def _check_module(group, v_mod: PartialRepModule, field: Field | None) -> Field:
    if v_mod.group is not group:
        raise ValueError("module is over a different group")
    if v_mod.side != "left":
        raise ValueError("homology and cohomology take left modules")
    if field is not None and field != v_mod.field:
        raise ValueError("requested field differs from the module field")
    return v_mod.field


def _module_desc(v_mod: PartialRepModule) -> str:
    return f"left module of dimension {v_mod.dim}"


def partial_homology(group, v_mod: PartialRepModule, field: Field | None = None,
                     max_degree: int = 3, cap: int = HOMOLOGY_SIZE_CAP,
                     module_name: str | None = None) -> HomologyReport:
    """Per-degree homology of a left module against the bar machinery.

    Degree n is computed as dim ker d_n - rank d_{n+1} on the transported
    complex of blocks e_{(x)} V; degree 0 equals the dimension of the
    idempotent subalgebra tensored with the module (see b_tensor_dim for
    the independent route).  The report's checks record that consecutive
    differentials compose to zero and that the underlying resolution
    passes its contracting-homotopy identity over the same field.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    f = _check_module(group, v_mod, field)
    cx = _transported_complex(v_mod, max_degree + 1, cap)
    dims = cx.homology_dims(max_degree)
    checks = {
        "d2_zero": cx.d2_zero(),
        "homotopy_id": resolution_identity_holds(group, max_degree, f, cap),
    }
    return HomologyReport(group.name, module_name or _module_desc(v_mod), f,
                          "bar", dims, checks)


def dual_module(v_mod: PartialRepModule) -> PartialRepModule:
    """The dual module V*, on which [g] acts by the transpose of [g^-1].

    Over a field, dim H^n(V) = dim H_n(V*) for finite-dimensional V,
    because Hom_K(V* (x) P, K) = Hom(P, V) (K. S. Brown, Cohomology of
    Groups, GTM 87); partial_cohomology and group_cohomology both compute
    cohomology this way.  The dual is validated like any module.
    """
    group = v_mod.group
    mats = {g: v_mod.mats[group.inv(g)].transpose() for g in range(group.order)}
    return PartialRepModule(group, v_mod.field, mats, side=v_mod.side)


def partial_cohomology(group, v_mod: PartialRepModule, field: Field | None = None,
                       max_degree: int = 3, cap: int = HOMOLOGY_SIZE_CAP,
                       module_name: str | None = None) -> HomologyReport:
    """Per-degree cohomology of a left module: the homology of its dual.

    Degree 0 is the common kernel of the maps v -> [x] v - e_x v, where
    e_x = [x][x^-1].
    """
    f = _check_module(group, v_mod, field)
    return partial_homology(group, dual_module(v_mod), f, max_degree, cap,
                            module_name or _module_desc(v_mod))


def b_tensor_dim(v_mod: PartialRepModule) -> int:
    """Dimension of the idempotent subalgebra tensored with the module.

    Computed by the relation-cokernel route: span the vectors
    (e_A acted on the right by a canonical pair) tensor v  minus
    e_A tensor (the pair acting on v), inside the span of all e_A tensor
    v, and subtract the rank.  This is the degree-0 oracle for
    partial_homology and shares none of its chain machinery.
    """
    group = v_mod.group
    field = _check_module(group, v_mod, None)
    algebra = PartialGroupAlgebra(group, field)
    subsets = algebra.subsets_with_identity()
    pos = {a: k for k, a in enumerate(subsets)}
    d = v_mod.dim
    elim = Eliminator(field)
    for s in algebra.canonical_basis():
        act = v_mod.act_pair(s)
        members = set(s.members)
        gi = group.inv(s.g)
        for k, a in enumerate(subsets):
            shifted = None
            if members.issubset(a):
                shifted = pos[translate(group, gi, a)]
            for j in range(d):
                terms = [(k * d + r, -v) for r, v in act.column(j).items()]
                if shifted is not None:
                    terms.append((shifted * d + j, field.one))
                col = accumulate(field, terms)
                if col:
                    elim.add(col)
    return len(subsets) * d - elim.rank


# ---------------------------------------------------------------------------
# Classical bar complex of a finite group, kept independent of the
# machinery above so comparisons mean something.


def _local_tables(h_group):
    elems = list(h_group.elements)
    loc = {g.index: k for k, g in enumerate(elems)}
    mult = [[loc[(a * b).index] for b in elems] for a in elems]
    inv = [loc[a.inverse().index] for a in elems]
    return elems, mult, inv


def _check_group_rep(h_group, u: dict, field: Field):
    """Validate a representation keyed by group elements; return it
    indexed by local element position."""
    elems, mult, _ = _local_tables(h_group)
    try:
        mats = [u[g] for g in elems]
    except KeyError as exc:
        raise ValueError("representation must cover every element") from exc
    dims = {(m.nrows, m.ncols) for m in mats}
    if len(dims) != 1 or mats[0].nrows != mats[0].ncols:
        raise ValueError("representation matrices must be square, same size")
    if any(m.field != field for m in mats):
        raise ValueError("representation field mismatch")
    d = mats[0].nrows
    if mats[0] != SparseMatrix.identity(field, d):
        raise ValueError("identity element must act as the identity matrix")
    m = len(elems)
    for a in range(m):
        for b in range(m):
            if mats[a] * mats[b] != mats[mult[a][b]]:
                raise ValueError(f"not a homomorphism at pair ({a}, {b})")
    return mats


def group_homology(h_group, u: dict, field: Field, max_degree: int = 3,
                   cap: int = HOMOLOGY_SIZE_CAP) -> HomologyReport:
    """Classical bar-complex homology of a finite group or subgroup.

    ``u`` maps group elements to matrices over ``field``.  Chains in
    degree n are one copy of the representation space per n-tuple; the
    boundary acts through the inverse on the leading entry, so degree 0
    is the coinvariants for the action u . h = U(h^{-1}) u.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    elems, mult, inv = _local_tables(h_group)
    mats = _check_group_rep(h_group, u, field)
    m = len(elems)
    d = mats[0].nrows
    labels = {}
    diffs = {}
    for n in range(max_degree + 2):
        if (m ** n) * d > cap:
            raise SizeCapError(
                f"group chain space at degree {n} exceeds cap {cap}",
                limit=cap, requested=(m ** n) * d)
        labels[n] = [(t, i) for t in product(range(m), repeat=n)
                     for i in range(d)]
    for n in range(1, max_degree + 2):
        tpos = {t: k for k, t in enumerate(product(range(m), repeat=n - 1))}

        def terms():
            for ct, hs in enumerate(product(range(m), repeat=n)):
                tail_off = tpos[hs[1:]] * d
                lead = mats[inv[hs[0]]]
                for i in range(d):
                    c = ct * d + i
                    for r, v in lead.column(i).items():
                        yield (tail_off + r, c), v
                    sign = field.neg(field.one)
                    for j in range(n - 1):
                        merged = (hs[:j] + (mult[hs[j]][hs[j + 1]],)
                                  + hs[j + 2:])
                        yield (tpos[merged] * d + i, c), sign
                        sign = field.neg(sign)
                    yield (tpos[hs[:-1]] * d + i, c), sign

        diffs[n] = SparseMatrix(field, len(labels[n - 1]), len(labels[n]),
                                accumulate(field, terms()))
    cx = ChainComplex(field, labels, diffs)
    return HomologyReport(getattr(h_group, "name", "H"),
                          f"representation of dimension {d}", field,
                          "ordinary", cx.homology_dims(max_degree),
                          {"d2_zero": cx.d2_zero(), "homotopy_id": None})


def group_cohomology(h_group, u: dict, field: Field, max_degree: int = 3,
                     cap: int = HOMOLOGY_SIZE_CAP) -> HomologyReport:
    """Classical cohomology as the homology of the dual representation
    h -> U(h^-1)^T; degree 0 is the invariants."""
    elems, _, inv = _local_tables(h_group)
    mats = _check_group_rep(h_group, u, field)
    dual = {g: mats[inv[k]].transpose() for k, g in enumerate(elems)}
    return group_homology(h_group, dual, field, max_degree, cap)


# ---------------------------------------------------------------------------
# Comparison checks: induced modules against stabilizers, and the
# idempotent subalgebra against the sum over components.


def _compare(left: list[int], right: list[int]) -> dict:
    mismatch = next((i for i in range(len(left)) if left[i] != right[i]), None)
    return {"equal": mismatch is None, "first_mismatch": mismatch}


def verify_theorem_a(group, comp, u: dict, field: Field,
                     max_degree: int = 3,
                     cap: int = HOMOLOGY_SIZE_CAP) -> dict:
    """Induced-module (co)homology against the stabilizer's, degreewise.

    The left route induces the stabilizer representation along the
    component and runs the partial machinery; the right route runs the
    classical complex of the stabilizer directly.  The report lists both
    dimension vectors and the first degree where they disagree, if any.
    """
    v = induce_module(comp, u, field)
    lh = partial_homology(group, v, field, max_degree, cap,
                          module_name="induced from stabilizer")
    rh = group_homology(comp.stabilizer, u, field, max_degree, cap)
    lc = partial_cohomology(group, v, field, max_degree, cap,
                            module_name="induced from stabilizer")
    rc = group_cohomology(comp.stabilizer, u, field, max_degree, cap)
    hom = {"partial": lh.dims, "ordinary": rh.dims, **_compare(lh.dims, rh.dims)}
    coh = {"partial": lc.dims, "ordinary": rc.dims, **_compare(lc.dims, rc.dims)}
    checks_ok = all([lh.checks["d2_zero"], lh.checks["homotopy_id"],
                     lc.checks["d2_zero"], lc.checks["homotopy_id"],
                     rh.checks["d2_zero"], rc.checks["d2_zero"]])
    return {
        "group": group.name,
        "component_base": _set_str(group, comp.base),
        "stabilizer": comp.stabilizer.name,
        "stabilizer_order": comp.stabilizer.order,
        "field": field.name,
        "max_degree": max_degree,
        "homology": hom,
        "cohomology": coh,
        "ok": hom["equal"] and coh["equal"] and checks_ok,
    }


def verify_corollary_b(group, field: Field, max_degree: int = 3,
                       cap: int = HOMOLOGY_SIZE_CAP) -> dict:
    """Idempotent-subalgebra (co)homology against the stabilizer sum.

    The left route runs the partial machinery on the idempotent
    subalgebra as a module over the whole algebra; the right route sums,
    component by component, the classical (co)homology of each stabilizer
    with trivial coefficients.
    """
    bm = b_module(group, field)
    lh = partial_homology(group, bm, field, max_degree, cap,
                          module_name="idempotent subalgebra")
    lc = partial_cohomology(group, bm, field, max_degree, cap,
                            module_name="idempotent subalgebra")
    right_h = [0] * (max_degree + 1)
    right_c = [0] * (max_degree + 1)
    per_component = []
    for comp in components(build_groupoid(group)):
        stab = comp.stabilizer
        u = trivial_rep(stab, field)
        hr = group_homology(stab, u, field, max_degree, cap)
        cr = group_cohomology(stab, u, field, max_degree, cap)
        right_h = [a + b for a, b in zip(right_h, hr.dims)]
        right_c = [a + b for a, b in zip(right_c, cr.dims)]
        per_component.append({
            "base": _set_str(group, comp.base),
            "stabilizer_order": stab.order,
            "homology": hr.dims,
            "cohomology": cr.dims,
        })
    hom = {"partial": lh.dims, "stabilizer_sum": right_h,
           **_compare(lh.dims, right_h)}
    coh = {"partial": lc.dims, "stabilizer_sum": right_c,
           **_compare(lc.dims, right_c)}
    return {
        "group": group.name,
        "field": field.name,
        "max_degree": max_degree,
        "homology": hom,
        "cohomology": coh,
        "components": per_component,
        "ok": (hom["equal"] and coh["equal"]
               and lh.checks["d2_zero"] and lh.checks["homotopy_id"]
               and lc.checks["d2_zero"] and lc.checks["homotopy_id"]),
    }

import json

import pytest

from parh.exel import PartialGroupAlgebra
from parh.groupoid import (
    b_module,
    build_groupoid,
    components,
    induce_module,
    regular_module,
)
from parh.groups import build_named_group, subgroup_generated, trivial_rep, regular_rep
from parh.homology import (
    HOMOLOGY_SIZE_CAP,
    ChainComplex,
    HomologyReport,
    _contract,
    _degree_blocks,
    _subsets,
    _transported_complex,
    b_tensor_dim,
    bar_basis,
    bar_differential,
    contracting_homotopy,
    dual_module,
    group_cohomology,
    group_homology,
    homogeneous_basis,
    homogeneous_differential,
    partial_cohomology,
    partial_homology,
    resolution_identity_holds,
    verify_corollary_b,
    verify_theorem_a,
)
from parh.linalg import GF, QQ, SizeCapError, SparseMatrix, accumulate, rank


def _component(name, base_size):
    group = build_named_group(name)
    comps = components(build_groupoid(group))
    return group, next(c for c in comps if len(c.base) == base_size)


# ---------------------------------------------------------------------------
# Bar complex in the primitive basis.


def test_bar_basis_degree_zero_is_all_subsets():
    c3 = build_named_group("C3")
    assert bar_basis(c3, 0) == [(a, ()) for a in _subsets(c3)]


def test_bar_degree_one_column_is_right_action_difference():
    # The image of (A, (x)) is e_{x^-1 A} - e_A, which is exactly the
    # right action of [x] - e_x on e_A.
    c2 = build_named_group("C2")
    d1 = bar_differential(c2, 1)
    rows = d1.row_labels
    cols = d1.col_labels
    for c, (a, xs) in enumerate(cols):
        x = xs[0]
        shifted = tuple(sorted(c2.mult(c2.inv(x), m) for m in a))
        expected = {}
        for r, (b, _) in enumerate(rows):
            v = QQ.zero
            if b == shifted:
                v += QQ.one
            if b == a:
                v -= QQ.one
            if v:
                expected[r] = v
        assert d1.column(c) == expected


def test_bar_degree_one_matches_algebra_right_action():
    # Dual route: the same columns computed by honest algebra products
    # [x^-1] e_A [x] - e_A e_x over the primitive decomposition.
    c3 = build_named_group("C3")
    algebra = PartialGroupAlgebra(c3)
    d1 = bar_differential(c3, 1)
    subsets = _subsets(c3)
    pos = {a: k for k, a in enumerate(subsets)}
    for c, (a, xs) in enumerate(d1.col_labels):
        x = xs[0]
        moved = algebra.bracket(c3.inv(x)) * algebra.primitive_idempotent(a)
        moved = moved * algebra.bracket(x)
        still = algebra.primitive_idempotent(a) * algebra.idem(x)
        image = moved - still
        col = {}
        for b in subsets:
            coeff = algebra.to_primitive(image).get(b, QQ.zero)
            if coeff:
                col[pos[b]] = coeff
        assert d1.column(c) == col


def test_bar_two_tuple_column_has_the_three_terms():
    c2 = build_named_group("C2")
    d2 = bar_differential(c2, 2)
    full = (0, 1)
    col_index = d2.col_labels.index((full, (1, 1)))
    rows = {lab: k for k, lab in enumerate(d2.row_labels)}
    assert d2.column(col_index) == {
        rows[(full, (1,))]: QQ.of(2),
        rows[(full, (0,))]: QQ.of(-1),
    }


@pytest.mark.parametrize("name", ["C2", "C3", "C2xC2"])
def test_bar_d_squared_is_zero(name):
    group = build_named_group(name)
    for n in (2, 3):
        lo = bar_differential(group, n - 1)
        hi = bar_differential(group, n)
        assert (lo * hi).is_zero()


def test_bar_differential_rejects_degree_zero():
    with pytest.raises(ValueError):
        bar_differential(build_named_group("C2"), 0)


def test_bar_size_cap():
    with pytest.raises(SizeCapError):
        bar_differential(build_named_group("C2xC2"), 3, cap=100)


# ---------------------------------------------------------------------------
# Homogeneous resolution and contracting homotopy.


def test_homogeneous_d_squared_is_zero():
    c3 = build_named_group("C3")
    for n in (2, 3):
        lo = homogeneous_differential(c3, n - 1)
        hi = homogeneous_differential(c3, n)
        assert (lo * hi).is_zero()


def test_homotopy_prepends_identity_entry():
    c2 = build_named_group("C2")
    s0 = contracting_homotopy(c2, 0)
    rows = {lab: k for k, lab in enumerate(s0.row_labels)}
    for c, (a, gs) in enumerate(s0.col_labels):
        assert gs == ()
        assert s0.column(c) == {rows[(a, (0,))]: QQ.one}


def test_homotopy_identity_small_groups():
    assert resolution_identity_holds(build_named_group("C2"), 3)
    assert resolution_identity_holds(build_named_group("C3"), 2)


def test_homotopy_identity_runs_once_per_verify():
    resolution_identity_holds.cache_clear()
    report = verify_corollary_b(build_named_group("C2"), GF(2), 2)
    assert report["ok"]
    info = resolution_identity_holds.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_homotopy_identity_degree_zero_section():
    c2 = build_named_group("C2")
    d1 = homogeneous_differential(c2, 1)
    s0 = contracting_homotopy(c2, 0)
    n0 = len(homogeneous_basis(c2, 0))
    assert d1 * s0 == SparseMatrix.identity(QQ, n0)


@pytest.mark.parametrize("name", ["C2", "C3"])
def test_homogeneous_exactness_by_ranks(name):
    group = build_named_group(name)
    for n in (1, 2):
        dim_n = len(homogeneous_basis(group, n))
        r_n = rank(homogeneous_differential(group, n))
        r_up = rank(homogeneous_differential(group, n + 1))
        assert r_n + r_up == dim_n


# ---------------------------------------------------------------------------
# Transported complex against the combinatorial bar complex (dual route).


@pytest.mark.parametrize("name,field", [("C2", QQ), ("C3", QQ), ("C2xC2", GF(2))])
def test_transported_equals_bar_for_idempotent_module(name, field):
    group = build_named_group(name)
    cx = _transported_complex(b_module(group, field), 3, HOMOLOGY_SIZE_CAP)
    subsets = _subsets(group)
    from parh.homology import _prefixes

    for n in (1, 2, 3):
        bar = bar_differential(group, n, field)
        eng = cx.diffs[n]
        assert (bar.nrows, bar.ncols) == (eng.nrows, eng.ncols)
        assert bar.entries == eng.entries
        for k, (xs, j) in enumerate(eng.col_labels):
            a_bar, xs_bar = bar.col_labels[k]
            qualifying = [a for a in subsets
                          if set(_prefixes(group, xs)).issubset(a)]
            assert xs_bar == xs and a_bar == qualifying[j]


# ---------------------------------------------------------------------------
# Partial homology.


def test_partial_homology_c2_idempotent_module_f2():
    c2 = build_named_group("C2")
    report = partial_homology(c2, b_module(c2, GF(2)), max_degree=3)
    assert report.dims == [2, 1, 1, 1]
    assert report.checks == {"d2_zero": True, "homotopy_id": True}
    assert report.method == "bar"


def test_partial_homology_full_component_trivial_coefficients():
    c3, full = _component("C3", 3)
    v = induce_module(full, trivial_rep(full.stabilizer, QQ), QQ)
    assert partial_homology(c3, v, max_degree=2).dims == [1, 0, 0]


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_partial_homology_regular_module_is_acyclic(field):
    c2 = build_named_group("C2")
    report = partial_homology(c2, regular_module(c2, field), max_degree=2)
    assert report.dims[1:] == [0, 0]


@pytest.mark.parametrize("name", ["C2", "C3", "C2xC2"])
def test_degree_zero_counts_components(name):
    group = build_named_group(name)
    n_comps = len(components(build_groupoid(group)))
    for field in (QQ, GF(2)):
        report = partial_homology(group, b_module(group, field), max_degree=0,
                                  module_name="idempotent subalgebra")
        assert report.dims[0] == n_comps


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C2xC2"])
def test_rational_idempotent_module_vanishes_positively(name):
    group = build_named_group(name)
    report = partial_homology(group, b_module(group, QQ), max_degree=2)
    assert report.dims[1:] == [0, 0]


def test_degree_zero_matches_tensor_dimension():
    # Independent route: relation cokernel inside B (x) V.
    c2 = build_named_group("C2")
    c3 = build_named_group("C3")
    cases = [
        (c2, b_module(c2, GF(2))),
        (c2, regular_module(c2, QQ)),
        (c3, b_module(c3, QQ)),
        (c3, regular_module(c3, GF(3))),
    ]
    other_c3, two = _component("C3", 2)
    cases.append((other_c3, induce_module(two, trivial_rep(two.stabilizer, QQ), QQ)))
    for group, v in cases:
        assert partial_homology(group, v, max_degree=0).dims[0] == b_tensor_dim(v)


def test_partial_homology_validation():
    c2 = build_named_group("C2")
    c3 = build_named_group("C3")
    with pytest.raises(ValueError):
        partial_homology(c3, b_module(c2, QQ))
    with pytest.raises(ValueError):
        partial_homology(c2, b_module(c2, QQ, side="right"))
    with pytest.raises(ValueError):
        partial_homology(c2, b_module(c2, QQ), field=GF(2))
    with pytest.raises(ValueError):
        partial_homology(c2, b_module(c2, QQ), max_degree=-1)
    with pytest.raises(SizeCapError):
        partial_homology(c2, b_module(c2, QQ), max_degree=3, cap=10)


# ---------------------------------------------------------------------------
# Partial cohomology.


def test_partial_cohomology_regular_module_vanishes():
    c2 = build_named_group("C2")
    report = partial_cohomology(c2, regular_module(c2, QQ), max_degree=2)
    assert report.dims[1:] == [0, 0]


def test_partial_cohomology_two_vertex_component():
    c3, two = _component("C3", 2)
    v = induce_module(two, trivial_rep(two.stabilizer, QQ), QQ)
    assert partial_cohomology(c3, v, max_degree=2).dims == [1, 0, 0]


def test_partial_cohomology_c2_idempotent_module_f2():
    c2 = build_named_group("C2")
    report = partial_cohomology(c2, b_module(c2, GF(2)), max_degree=2)
    assert report.dims == [2, 1, 1]
    assert report.checks["d2_zero"]


def _cohomology_modules(group, field):
    """B, the regular module for |G| <= 4, and the induced regular
    representation of every component."""
    yield "B", b_module(group, field)
    if group.order <= 4:
        yield "regular", regular_module(group, field)
    for comp in components(build_groupoid(group)):
        yield (f"induced {comp.base}",
               induce_module(comp, regular_rep(comp.stabilizer, field), field))


def test_dual_module_is_an_involution():
    for name in ("C3", "C2xC2", "S3"):
        group = build_named_group(name)
        for field in (QQ, GF(2)):
            for label, v in _cohomology_modules(group, field):
                dual = dual_module(v)
                assert dual.side == v.side and dual.dim == v.dim
                assert dual_module(dual).mats == v.mats, (name, label)


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C2xC2", "S3"])
def test_degree_zero_cohomology_is_common_kernel(name):
    # H^0(V) is the common kernel of v -> [x] v - e_x v, e_x = [x][x^-1].
    group = build_named_group(name)
    for field in (QQ, GF(2), GF(3)):
        for label, v in _cohomology_modules(group, field):
            d = v.dim
            entries = {}
            for x in range(group.order):
                m = v.mats[x] - v.mats[x] * v.mats[group.inv(x)]
                for (i, j), c in m.entries.items():
                    entries[(x * d + i, j)] = c
            stacked = SparseMatrix(field, group.order * d, d, entries)
            h0 = partial_cohomology(group, v, max_degree=0).dims[0]
            assert h0 == d - rank(stacked), (name, field.name, label)


def _cochain_reference_dims(v_mod, max_degree):
    """Cohomology by the cochain complex that partial_cohomology replaced.

    Cochains in degree n are the blocks e_(x) V.  The coboundary
    precomposes with the bar differential: it acts by [x_1] on the tail
    entry and projects the contractions and the final drop into the
    target block.  ``cobound[n]`` maps degree n-1 to degree n, so
    dim H^n = dim C^n - rank cobound[n+1] - rank cobound[n].
    """
    group, field = v_mod.group, v_mod.field
    cache = {}
    degree = {n: _degree_blocks(v_mod, n, cache) for n in range(max_degree + 2)}
    ranks = {0: 0}
    for n in range(1, max_degree + 2):
        per_tuple, off_hi, labels_hi = degree[n]
        lo_tuples, off_lo, labels_lo = degree[n - 1]
        lo_blocks = dict(lo_tuples)

        def terms():
            for xs, block in per_tuple:
                sources = [(xs[1:], field.one, v_mod.mats[xs[0]], False)]
                sign = field.neg(field.one)
                for j in range(n - 1):
                    sources.append((_contract(group, xs, j), sign, None, True))
                    sign = field.neg(sign)
                sources.append((xs[:-1], sign, None, True))
                for ys, s, mat, needs_proj in sources:
                    for j, b in enumerate(lo_blocks[ys].basis):
                        w = mat.apply(b) if mat is not None else b
                        if needs_proj:
                            w = block.projection.apply(w)
                            if not w:
                                continue
                        for tag, c in block.coords(w).items():
                            yield (off_hi[xs] + tag, off_lo[ys] + j), s * c

        ranks[n] = rank(SparseMatrix(field, len(labels_hi), len(labels_lo),
                                     accumulate(field, terms())))
    return [len(degree[n][2]) - ranks[n] - ranks[n + 1]
            for n in range(max_degree + 1)]


@pytest.mark.parametrize("name,max_degree", [
    ("C2", 3), ("C3", 3), ("C4", 2), ("C2xC2", 2), ("S3", 1)])
def test_cohomology_of_dual_matches_cochain_reference(name, max_degree):
    group = build_named_group(name)
    for field in (QQ, GF(2), GF(3)):
        for label, v in _cohomology_modules(group, field):
            report = partial_cohomology(group, v, max_degree=max_degree)
            assert report.dims == _cochain_reference_dims(v, max_degree), (
                name, field.name, label)
            assert report.checks == {"d2_zero": True, "homotopy_id": True}


def _standard_rep_s3(s3, field):
    """S3 on the sum-zero vectors of K^3, in the basis e0 - e1, e1 - e2.

    The points are the cosets of a subgroup of order 2.  The matrices are
    not orthogonal, so U(h)^T is not U(h^-1).
    """
    t = next(g for g in range(1, 6) if s3.mult(g, g) == 0)
    cosets = sorted({frozenset((g, s3.mult(g, t))) for g in range(6)}, key=min)
    point = {c: k for k, c in enumerate(cosets)}
    rep = {}
    for g in s3.elements:
        p = [point[frozenset(s3.mult(g.index, x) for x in c)] for c in cosets]
        entries = {}
        for col, (i, j) in enumerate(((0, 1), (1, 2))):
            u = [0, 0, 0]
            u[p[i]] += 1
            u[p[j]] -= 1
            entries[(0, col)] = u[0]
            entries[(1, col)] = -u[2]
        rep[g] = SparseMatrix(field, 2, 2, entries)
    return rep


def test_cohomology_of_a_module_that_is_not_self_dual():
    # Over F3 the sum-zero module of S3 holds (1, 1, 1): it has invariants
    # but no coinvariants, so cohomology and homology differ, and only
    # the dual h -> U(h^-1)^T of a non-orthogonal representation is one.
    s3, full = _component("S3", 6)
    for field, hom, coh in [(QQ, [0, 0, 0], [0, 0, 0]),
                            (GF(3), [0, 0, 1], [1, 1, 0])]:
        u = _standard_rep_s3(s3, field)
        assert group_homology(full.stabilizer, u, field, 2).dims == hom
        assert group_cohomology(full.stabilizer, u, field, 2).dims == coh
        v = induce_module(full, u, field)
        assert partial_homology(s3, v, max_degree=2).dims == hom
        assert partial_cohomology(s3, v, max_degree=2).dims == coh
        assert _cochain_reference_dims(v, 2) == coh
        assert verify_theorem_a(s3, full, u, field, 2)["ok"]


# ---------------------------------------------------------------------------
# Classical pipeline.


def test_group_homology_c2_trivial_f2():
    c2 = build_named_group("C2")
    report = group_homology(c2, trivial_rep(c2, GF(2)), GF(2), 3)
    assert report.dims == [1, 1, 1, 1]
    assert report.method == "ordinary"
    assert report.checks["homotopy_id"] is None


def test_group_homology_c3_trivial_rational():
    c3 = build_named_group("C3")
    assert group_homology(c3, trivial_rep(c3, QQ), QQ, 2).dims == [1, 0, 0]


def test_group_homology_trivial_group():
    c1 = build_named_group("C2")
    sub = subgroup_generated(c1, [])
    report = group_homology(sub, trivial_rep(sub, QQ), QQ, 2)
    assert report.dims == [1, 0, 0]


def test_group_homology_regular_is_acyclic():
    c3 = build_named_group("C3")
    report = group_homology(c3, regular_rep(c3, GF(3)), GF(3), 2)
    assert report.dims == [1, 0, 0]


def test_group_homology_subgroup_input():
    c6 = build_named_group("C6")
    sub = subgroup_generated(c6, [3])
    assert sub.order == 2
    report = group_homology(sub, trivial_rep(sub, GF(2)), GF(2), 2)
    assert report.dims == [1, 1, 1]


def test_group_cohomology_small_cases():
    c2 = build_named_group("C2")
    c3 = build_named_group("C3")
    assert group_cohomology(c2, trivial_rep(c2, GF(2)), GF(2), 2).dims == [1, 1, 1]
    assert group_cohomology(c3, trivial_rep(c3, QQ), QQ, 2).dims == [1, 0, 0]


def test_group_cohomology_rejects_missing_element():
    c2 = build_named_group("C2")
    with pytest.raises(ValueError):
        group_cohomology(c2, {c2.identity: SparseMatrix.identity(QQ, 1)}, QQ, 1)


def test_group_homology_rejects_non_representation():
    c2 = build_named_group("C2")
    bad = {g: SparseMatrix.identity(QQ, 1) for g in c2.elements}
    bad[c2.elements[1]] = SparseMatrix(QQ, 1, 1, {(0, 0): 2})
    with pytest.raises(ValueError):
        group_homology(c2, bad, QQ, 1)
    with pytest.raises(ValueError):
        group_homology(c2, {c2.identity: SparseMatrix.identity(QQ, 1)}, QQ, 1)


def test_group_homology_size_cap():
    c3 = build_named_group("C3")
    with pytest.raises(SizeCapError):
        group_homology(c3, trivial_rep(c3, QQ), QQ, 3, cap=5)


# ---------------------------------------------------------------------------
# Comparison checks.


def test_theorem_a_c3_full_component_regular():
    c3, full = _component("C3", 3)
    report = verify_theorem_a(c3, full, regular_rep(full.stabilizer, QQ), QQ, 2)
    assert report["ok"]
    assert report["homology"]["partial"] == report["homology"]["ordinary"]
    assert report["cohomology"]["equal"]


def test_theorem_a_c2_full_component_trivial_f2():
    c2, full = _component("C2", 2)
    report = verify_theorem_a(c2, full, trivial_rep(full.stabilizer, GF(2)),
                              GF(2), 3)
    assert report["ok"]
    assert report["homology"]["partial"] == [1, 1, 1, 1]


def test_theorem_a_c3_two_vertex_component():
    c3, two = _component("C3", 2)
    report = verify_theorem_a(c3, two, trivial_rep(two.stabilizer, QQ), QQ, 2)
    assert report["ok"]
    assert report["homology"]["partial"] == [1, 0, 0]


@pytest.mark.parametrize("name,field", [("C3", QQ), ("C2xC2", GF(2))])
def test_theorem_a_every_component_both_reps(name, field):
    group = build_named_group(name)
    for comp in components(build_groupoid(group)):
        for rep in (trivial_rep, regular_rep):
            report = verify_theorem_a(group, comp, rep(comp.stabilizer, field),
                                      field, 2)
            assert report["ok"], (name, comp.base, rep.__name__)


def test_corollary_b_c2_f2():
    report = verify_corollary_b(build_named_group("C2"), GF(2), 3)
    assert report["ok"]
    assert report["homology"]["partial"] == [2, 1, 1, 1]
    assert report["cohomology"]["partial"] == [2, 1, 1, 1]


def test_corollary_b_c3_f3():
    report = verify_corollary_b(build_named_group("C3"), GF(3), 2)
    assert report["ok"]
    assert report["homology"]["partial"] == [3, 1, 1]


def test_corollary_b_c2xc2_f2():
    report = verify_corollary_b(build_named_group("C2xC2"), GF(2), 2)
    assert report["ok"]
    assert report["homology"]["partial"] == [6, 5, 6]
    assert report["cohomology"]["partial"] == [6, 5, 6]
    assert json.dumps(report)


# ---------------------------------------------------------------------------
# Report and complex plumbing.


def test_report_as_dict_is_json_ready():
    c2 = build_named_group("C2")
    report = partial_homology(c2, b_module(c2, GF(2)), max_degree=1)
    data = json.loads(json.dumps(report.as_dict()))
    assert data["dims"] == [2, 1]
    assert data["field"] == "F2"
    assert data["checks"] == {"d2_zero": True, "homotopy_id": True}


def test_report_rejects_negative_dims():
    with pytest.raises(ValueError):
        HomologyReport("G", "m", QQ, "bar", [1, -1], {})


def test_chain_complex_needs_depth():
    c2 = build_named_group("C2")
    cx = _transported_complex(b_module(c2, QQ), 2, HOMOLOGY_SIZE_CAP)
    with pytest.raises(ValueError):
        cx.homology_dims(2)
    assert cx.homology_dims(1) == [2, 0]


def test_chain_complex_shape_check():
    with pytest.raises(ValueError):
        ChainComplex(QQ, {0: ["a"], 1: ["b", "c"]},
                     {1: SparseMatrix.zero(QQ, 2, 2)})

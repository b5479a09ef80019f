"""Groupoid structure, the map onto it, matrix models, tensor equivalence."""

import random
import re
from functools import cache

import pytest

from canonical_module import canonical_regular_module
from dense_reference import matrix_entries
from idempotent_products import product_tilde_pi, product_zeta_delta
from morita import (arrow_add, arrow_star, elementary_matrix, eta,
                    eta_induced_module)
from span_oracles import span_rank
from subset_routes import translate
from tensor_relations import (
    canonical_relations,
    check_bracket_tables,
    residue_tensor_report,
)
from parh import groupoid as groupoid_module
from parh.exel import PartialGroupAlgebra
from parh.groups import (NAMED_GROUP_NAMES, FiniteGroup, build_named_group,
                         regular_rep, trivial_rep)
from parh.groupoid import (
    ArrowSum,
    EquivalenceData,
    PartialRepModule,
    arrow_unit,
    b_module,
    build_groupoid,
    component_summary,
    component_support,
    components,
    induce_module,
    lambda_delta,
    lambda_map,
    regular_module,
    section6_report,
    tensor_b_kdelta,
    tilde_pi,
    zeta_delta,
)
from parh.linalg import GF, QQ, SizeCapError, SparseMatrix, kernel_basis, rank


def test_build_groupoid_counts():
    gd = build_groupoid(build_named_group("C3"))
    assert len(gd.vertices) == 4
    assert len(gd.arrows) == 8
    gd2 = build_groupoid(build_named_group("C2xC2"))
    assert len(gd2.vertices) == 8
    assert len(gd2.arrows) == 20


def _c3xc3():
    def mul(i, j):
        return 3 * ((i // 3 + j // 3) % 3) + (i % 3 + j % 3) % 3

    return FiniteGroup([[mul(i, j) for j in range(9)] for i in range(9)], name="C3xC3")


def test_groupoid_cap():
    big = _c3xc3()
    with pytest.raises(SizeCapError):
        build_groupoid(big)
    gd = build_groupoid(big, cap=9)
    assert len(gd.vertices) == 2**8


def test_components_c3():
    gd = build_groupoid(build_named_group("C3"))
    comps = components(gd)
    shapes = [(c.size, c.stabilizer.order) for c in comps]
    assert shapes == [(1, 1), (2, 1), (1, 3)]
    assert sum(n * n * h for n, h in shapes) == 8


def test_components_c2xc2():
    gd = build_groupoid(build_named_group("C2xC2"))
    comps = components(gd)
    shapes = sorted((c.size, c.stabilizer.order) for c in comps)
    assert shapes == [(1, 1), (1, 2), (1, 2), (1, 2), (1, 4), (3, 1)]
    assert sum(n * n * h for n, h in shapes) == 20


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C5", "C6", "C2xC2", "S3", "D4", "Q8"])
def test_block_dimension_identity(name):
    gd = build_groupoid(build_named_group(name))
    summary = component_summary(gd)
    assert summary["equal"], summary


def test_transversal_and_stabilizer():
    # the base is the lex-least member tuple and the other vertices follow
    # in lex order, whatever the order of their masks as ints
    gd = build_groupoid(build_named_group("S3"))
    grp = gd.group
    decode = grp.key_decoder()
    for comp in components(gd):
        tuples = list(map(decode, comp.vertices))
        assert tuples == sorted(tuples)
        base = tuples[0]
        for g, v in zip(comp.transversal, tuples):
            assert translate(grp, g.index, base) == v
            assert g.inverse().index in base
        for h in comp.stabilizer.elements:
            assert translate(grp, h.index, base) == base


def test_arrow_sum_algebra():
    gd = build_groupoid(build_named_group("C2xC2"))
    ident = ArrowSum(gd, QQ, {(v, 0): QQ.one for v in gd.vertices})
    algebra = PartialGroupAlgebra(gd.group)
    rng = random.Random(5)
    basis = algebra.canonical_basis()
    for _ in range(15):
        x = algebra.element({rng.choice(basis): rng.randint(-2, 2) for _ in range(3)})
        y = algebra.element({rng.choice(basis): rng.randint(-2, 2) for _ in range(3)})
        lx, ly = lambda_map(gd, x), lambda_map(gd, y)
        assert ident * lx == lx
        assert lx * ident == lx
        assert lambda_map(gd, x * y) == lx * ly
        assert lambda_map(gd, x + y) == arrow_add(lx, ly)
        assert lambda_map(gd, x.star()) == arrow_star(lx)
        assert arrow_star(lx * ly) == arrow_star(ly) * arrow_star(lx)


def test_lambda_delta_of_generators():
    gd = build_groupoid(build_named_group("C3"))
    algebra = PartialGroupAlgebra(gd.group)
    comp = components(gd)[1]  # vertices {1,g} and {1,g2}, as masks
    assert comp.vertices == [0b011, 0b101]
    img = lambda_delta(comp, algebra.bracket(1))
    # [g] lands on arrows whose source contains g^-1 = g2
    assert img.coeffs == {(0b101, 1): QQ.one}
    e_img = lambda_delta(comp, algebra.idem(1))
    assert e_img.coeffs == {(0b011, 0): QQ.one}


def lambda_matrix(comp, algebra):
    """Matrix of the component map over the canonical basis."""
    basis = algebra.canonical_basis()
    entries = {}
    for j, s in enumerate(basis):
        img = lambda_delta(comp, algebra.monomial(s))
        for a, c in img.coeffs.items():
            entries[(comp.arrow_pos[a], j)] = c
    return SparseMatrix(algebra.field, len(comp.arrows), len(basis), entries)


def kernel_lambda(comp, field=QQ):
    """A basis of the kernel of the component map, as algebra elements.

    The kernel is generated as a left ideal by its intersection with the
    idempotent subalgebra B; that regeneration is checked here and a
    failure raises.
    """
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

    def vec_of(x):
        return {pos[s]: c for s, c in x.coeffs.items()}

    ideal_cols = [vec_of(algebra.monomial(r) * k) for r in basis for k in b_part]
    if span_rank(ideal_cols, field) != len(out):
        raise RuntimeError(
            "kernel is not regenerated by its idempotent part as a left ideal"
        )
    return out


@pytest.mark.parametrize("name", ["C3", "C2xC2"])
def test_lambda_delta_surjective(name):
    gd = build_groupoid(build_named_group(name))
    algebra = PartialGroupAlgebra(gd.group)
    for comp in components(gd):
        m = lambda_matrix(comp, algebra)
        assert rank(m) == len(comp.arrows)


@pytest.mark.parametrize("name", ["C3", "C2xC2"])
def test_kernel_lambda_regeneration(name):
    gd = build_groupoid(build_named_group(name))
    algebra = PartialGroupAlgebra(gd.group)
    for comp in components(gd):
        kern = kernel_lambda(comp)
        assert len(kern) == algebra.dimension() - len(comp.arrows)
        for k in kern:
            assert lambda_delta(comp, k).is_zero()


def is_monomial(m):
    """One single-element entry per nonzero row and column."""
    rows = set()
    cols = set()
    for (i, j), cell in m.entries.items():
        if len(cell) != 1 or set(cell.values()) != {m.field.one}:
            return False
        if i in rows or j in cols:
            return False
        rows.add(i)
        cols.add(j)
    return True


def test_eta_elementary_matrices():
    gd = build_groupoid(build_named_group("S3"))
    algebra = PartialGroupAlgebra(gd.group)
    for comp in components(gd):
        for g in gd.group.elements:
            em = elementary_matrix(comp, g)
            via_lambda = eta(comp, lambda_delta(comp, algebra.bracket(g)))
            assert is_monomial(via_lambda)
            assert em == via_lambda
            assert em.star() == via_lambda.star()


@pytest.mark.parametrize("name", ["C2xC2", "S3"])
def test_elementary_matrices_satisfy_partial_relations(name):
    gd = build_groupoid(build_named_group(name))
    grp = gd.group
    for comp in components(gd):
        mats = {g.index: elementary_matrix(comp, g) for g in grp.elements}
        for g in grp.elements:
            for h in grp.elements:
                gh = g * h
                lhs = mats[g.index] * mats[h.index] * mats[h.inverse().index]
                rhs = mats[gh.index] * mats[h.inverse().index]
                assert lhs == rhs
            assert mats[g.inverse().index] == mats[g.index].star()


def test_eta_is_multiplicative():
    gd = build_groupoid(build_named_group("C2xC2"))
    algebra = PartialGroupAlgebra(gd.group)
    rng = random.Random(9)
    basis = algebra.canonical_basis()
    for comp in components(gd):
        for _ in range(10):
            x = algebra.element({rng.choice(basis): rng.randint(-2, 2) for _ in range(2)})
            y = algebra.element({rng.choice(basis): rng.randint(-2, 2) for _ in range(2)})
            u, v = lambda_delta(comp, x), lambda_delta(comp, y)
            assert eta(comp, u * v) == eta(comp, u) * eta(comp, v)


def test_regular_module_validates():
    for name in ("C2", "C3"):
        grp = build_named_group(name)
        mod = regular_module(grp, QQ)
        assert mod.dim == PartialGroupAlgebra(grp).dimension()


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_regular_module_acts_where_h_inverse_lies_in_k_d(name):
    # [h] (D, k) = (D, hk) exactly when h^-1 is in kD: the arrow positions
    # that regular_module reads agree with the translate on every group.
    grp = build_named_group(name)
    gd = build_groupoid(grp)
    decode = grp.key_decoder()
    mod = regular_module(grp, GF(2))
    for h in range(grp.order):
        for j, (d, k) in enumerate(gd.arrows):
            want = ({gd.arrow_pos[(d, grp.mult(h, k))]: 1}
                    if grp.inv(h) in translate(grp, k, decode(d)) else {})
            assert mod.mats[h].cols[j] == want, (h, j)


# The "left-" ids name the side these modules act on.
@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C5", "C2xC2", "S3"],
                         ids="left-{}".format)
def test_regular_module_is_the_canonical_one_in_the_arrow_basis(name):
    # The lambda matrix L (canonical basis -> arrows) is invertible and
    # L M_can(g) = M_arrow(g) L, so both bases carry the same module.
    grp = build_named_group(name)
    gd = build_groupoid(grp)
    for field in (QQ, GF(2)):
        algebra = PartialGroupAlgebra(grp, field)
        basis = algebra.canonical_basis()
        entries = {}
        for j, s in enumerate(basis):
            image = lambda_map(gd, algebra.monomial(s))
            entries.update(((gd.arrow_pos[a], j), c)
                           for a, c in image.coeffs.items())
        lam = SparseMatrix(field, len(gd.arrows), len(basis), entries)
        assert lam.nrows == lam.ncols == rank(lam)
        can = canonical_regular_module(grp, field)
        arrow = regular_module(grp, field)
        for g in range(grp.order):
            assert lam * can.mats[g] == arrow.mats[g] * lam, (field.name, g)


@pytest.mark.parametrize("name", ["C3", "C2xC2"], ids="left-{}".format)
def test_b_module_matches_triple_products(name):
    grp = build_named_group(name)
    algebra = PartialGroupAlgebra(grp)
    mod = b_module(grp, QQ)
    subsets = algebra.subsets_with_identity()
    pos = {a: k for k, a in enumerate(subsets)}
    for g in grp.elements:
        mat = mod.mats[g.index]
        for a in subsets:
            e_a = algebra.primitive_idempotent(a)
            moved = algebra.bracket(g) * e_a * algebra.bracket(g.inverse())
            col = mat.cols[pos[a]]
            expect = algebra.primitive_vector(moved)
            assert col == expect


def test_partial_rep_module_rejects_bad_matrices():
    grp = build_named_group("C2")
    good = SparseMatrix.identity(QQ, 2)
    bad = SparseMatrix(QQ, 2, 2, {(0, 1): 1})  # nilpotent
    with pytest.raises(ValueError):
        PartialRepModule(grp, QQ, {0: good, 1: bad})
    with pytest.raises(ValueError):
        PartialRepModule(grp, QQ, {0: bad, 1: good})


@pytest.mark.parametrize("m1, m2, relation", [
    ([[0, 0], [0, 1]], [[0, 0], [1, 1]], "[g^-1][g][h]"),
    ([[0, 0], [0, 1]], [[0, 1], [0, 1]], "[g][h][h^-1]"),
])
def test_each_partial_relation_is_checked(m1, m2, relation):
    """On C3 each pair of matrices satisfies one relation at every (g, h)
    and fails the other."""
    grp = build_named_group("C3")
    mats = {0: SparseMatrix.identity(QQ, 2),
            1: SparseMatrix.from_dense(QQ, m1),
            2: SparseMatrix.from_dense(QQ, m2)}
    with pytest.raises(ValueError, match=re.escape(relation) + " fails"):
        PartialRepModule(grp, QQ, mats)


def _sign_twisted_b(grp):
    """B with [g] scaled by the sign character, +1 on the squares of S3
    or C4 (an index-2 subgroup) and -1 off them: a ±1 monomial module,
    self-dual but not a 0/1 partial map."""
    squares = {grp.mult(g, g) for g in range(grp.order)}
    assert 2 * len(squares) == grp.order
    mats = b_module(grp, QQ).mats
    return {g: SparseMatrix._of_columns(
        QQ, m.nrows, [{r: v if g in squares else -v for r, v in col.items()}
                      for col in m.cols])
            for g, m in mats.items()}


def test_self_dual_module_checks_relation_one_only(monkeypatch):
    # B and the regular module act by 0/1 partial maps, which the check
    # composes as index lists: no matrix product at all.  Relation 2 of
    # any self-dual module is relation 1 transposed, so a ±1 module's
    # check forms 2 n^2 products where any other module's forms 3 n^2.
    # C3 rotating Q^2 by an integer matrix is not self-dual: the matrix
    # is not orthogonal, so [g^-1] is not [g]^T.
    c3 = build_named_group("C3")
    r = SparseMatrix.from_dense(QQ, [[0, -1], [1, -1]])
    rotation = {0: SparseMatrix.identity(QQ, 2), 1: r, 2: r * r}
    products = []
    mul = SparseMatrix.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(SparseMatrix, "__mul__", counted)
    for name in ("C3", "S3", "D4"):
        grp = build_named_group(name)
        for build in (b_module, regular_module):
            products.clear()
            assert build(grp, QQ).self_dual
            assert not products, (name, build)
    for name in ("C4", "S3"):
        grp = build_named_group(name)
        signed = _sign_twisted_b(grp)
        products.clear()
        assert PartialRepModule(grp, QQ, signed).self_dual
        assert len(products) == 2 * grp.order ** 2, name
    products.clear()
    assert not PartialRepModule(c3, QQ, rotation).self_dual
    assert len(products) == 3 * 3 ** 2


def test_non_injective_partial_map_is_not_self_dual():
    # [g] sends both basis vectors to the first: [g]^3 = [g] satisfies
    # both relations on C2, and [g]^T has a column with two entries, so
    # it is not [g^-1] = [g].  e_g = [g]^2 = [g] is not diagonal.
    c2 = build_named_group("C2")
    folded = SparseMatrix.from_dense(QQ, [[1, 1], [0, 0]])
    mod = PartialRepModule(c2, QQ, {0: SparseMatrix.identity(QQ, 2), 1: folded})
    assert not mod.self_dual
    assert mod.idems == [SparseMatrix.identity(QQ, 2), folded]


@pytest.mark.parametrize("name", ["C3", "C2xC2", "S3"])
def test_corruption_that_keeps_a_module_self_dual_is_caught(name):
    # Change entry (i, j) of [x] and entry (j, i) of [x^-1] alike: the
    # module stays self-dual, so only relation 1 is checked, and it fails.
    grp = build_named_group(name)
    rng = random.Random(17)
    for build in (b_module, regular_module):
        good = build(grp, GF(3)).mats
        for x in range(1, grp.order):
            xi = grp.inv(x)
            dim = good[x].nrows
            i, j = rng.randrange(dim), rng.randrange(dim)
            bad = dict(good)
            for g, (r, c) in ((x, (i, j)), (xi, (j, i))):
                entries = matrix_entries(bad[g]) | {
                    (r, c): bad[g].cols[c].get(r, 0) + 1}
                bad[g] = SparseMatrix(GF(3), dim, dim, entries)
            assert bad[x] != good[x]
            assert all(bad[grp.inv(g)] == bad[g].transpose() for g in bad)
            with pytest.raises(ValueError, match=re.escape("[g][h][h^-1]")):
                PartialRepModule(grp, GF(3), bad)


def test_induce_module_trivial_and_regular():
    gd = build_groupoid(build_named_group("C2xC2"))
    comps = components(gd)
    big = max(comps, key=lambda c: c.size)
    assert big.size == 3
    mod = induce_module(big, trivial_rep(big.stabilizer, QQ), QQ)
    assert mod.dim == 3
    full = [c for c in comps if c.stabilizer.order == 4][0]
    mod2 = induce_module(full, regular_rep(full.stabilizer, QQ), QQ)
    assert mod2.dim == 4


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_induce_module_matches_the_eta_route(name):
    gd = build_groupoid(build_named_group(name))
    for field in (QQ, GF(2), GF(3)):
        for comp in components(gd):
            for rep in (trivial_rep, regular_rep):
                u = rep(comp.stabilizer, field)
                assert (induce_module(comp, u, field).mats
                        == eta_induced_module(comp, u, field).mats), (
                    field.name, comp, rep.__name__)


def test_induce_module_refuses_a_transversal_that_misses_its_vertex():
    # with t_1 and t_2 swapped, [t_1] sends the base to v_1, and
    # t_2^-1 t_1 is not in the trivial stabilizer
    grp = build_named_group("S3")
    comp = next(c for c in components(build_groupoid(grp))
                if c.size == 3 and c.stabilizer.order == 1)
    t = comp.transversal
    assert t[1] != t[2]
    comp.transversal = [t[0], t[2], t[1]]
    with pytest.raises(RuntimeError, match="outside the stabilizer"):
        induce_module(comp, trivial_rep(comp.stabilizer, QQ), QQ)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=lambda f: f.name)
@pytest.mark.parametrize("name", ["C4", "C2xC2", "S3"])
def test_sections_match_honest_products(name, field):
    for comp in components(build_groupoid(build_named_group(name))):
        for v in comp.vertices:
            assert tilde_pi(comp, v, field) == product_tilde_pi(comp, v, field)
        for a in comp.arrows:
            assert (zeta_delta(comp, a, field)
                    == product_zeta_delta(comp, a, field)), (comp, a)


@cache
def _section6_rows(name):
    """(component, section6_report) for every component of a named group."""
    gd = build_groupoid(build_named_group(name))
    return [(comp, section6_report(comp, QQ)) for comp in components(gd)]


@pytest.mark.parametrize("name", ["C2", "C3", "C2xC2", "C4", "C5", "C6", "S3"])
def test_zeta_delta_section(name):
    # a section of the component map, and multiplicative, including
    # zero products
    for comp, row in _section6_rows(name):
        assert row["section_identity"], (name, comp)
        assert row["multiplicative"], (name, comp)


@pytest.mark.parametrize("name", ["C2xC2", "S3"])
def test_section6_multiplies_each_generator_by_every_arrow(monkeypatch, name):
    # module_map forms [g] * a for every group element g and arrow a, and
    # the multiplicative check then forms u * a for the size identity
    # arrows u; no other arrow products are formed.
    products = []
    mul = ArrowSum.__mul__

    def counted(x, y):
        products.append(1)
        return mul(x, y)

    monkeypatch.setattr(ArrowSum, "__mul__", counted)
    for comp in components(build_groupoid(build_named_group(name))):
        products.clear()
        row = section6_report(comp, QQ)
        assert row["section_identity"] and row["multiplicative"]
        assert row["module_map"]
        assert len(products) == ((comp.size + comp.group.order)
                                 * len(comp.arrows))


@pytest.mark.parametrize("generator", [True, False],
                         ids=["generator", "composite"])
def test_section6_catches_a_corrupted_lift(monkeypatch, generator):
    # One arrow's lift gains the lift of an arrow of another component.
    # lambda_delta kills that term, so the section identity still holds,
    # but multiplicativity, which includes the module-map identity, exposes
    # it, whether the arrow is one of the generators (base, h), (base, t_v)
    # and (v, t_v^-1) of the component or a composite of them.
    gd = build_groupoid(build_named_group("S3"))
    comps = components(gd)
    comp = next(c for c in comps if c.size == 2 and c.stabilizer.order == 2)
    other = next(c for c in comps if c is not comp)
    grp = comp.group
    gens = {(comp.base, h) for h in comp.stabilizer.indices}
    for v, t in zip(comp.vertices, comp.transversal):
        gens.update(((comp.base, t.index), (v, grp.inv(t.index))))
    target = next(a for a in comp.arrows if (a in gens) == generator)
    noise = zeta_delta(other, other.arrows[0], QQ)
    honest = groupoid_module.zeta_delta

    def corrupted(c, arrow, field=QQ):
        lift = honest(c, arrow, field)
        return lift + noise if arrow == target else lift

    monkeypatch.setattr(groupoid_module, "zeta_delta", corrupted)
    row = section6_report(comp, QQ)
    assert row["section_identity"]
    assert not row["multiplicative"]


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C2xC2", "C5", "C6", "S3"])
def test_zeta_delta_module_map_iff_full_support(name):
    # The section is a left module map on every component, whether or
    # not its vertices jointly cover the group.  Off full support, a
    # bracket [g] with g outside the support dies under lambda_delta, so
    # the identity demands that it also kill the section image; it does,
    # because the lift is the unit of its own block.
    rows = _section6_rows(name)
    group = rows[0][0].group
    algebra = PartialGroupAlgebra(group)
    for comp, row in rows:
        assert row["module_map"], (name, comp)
        support = component_support(comp)
        assert row["support_full"] == (len(support) == group.order)
        if len(support) < group.order:
            r = algebra.bracket(min(set(range(group.order)) - support))
            assert lambda_delta(comp, r).is_zero()
            assert (r * zeta_delta(comp, (comp.base, 0))).is_zero()


def test_zeta_delta_respects_products_after_projection():
    # On every component the weaker identity always holds: projecting
    # both factors first, the section turns arrow products into algebra
    # products.  This is multiplicativity restated for module elements.
    gd = build_groupoid(build_named_group("C2xC2"))
    algebra = PartialGroupAlgebra(gd.group)
    rng = random.Random(13)
    basis = algebra.canonical_basis()
    for comp in components(gd):
        for _ in range(6):
            r = algebra.monomial(rng.choice(basis))
            arrow = rng.choice(comp.arrows)
            image = lambda_delta(comp, r) * arrow_unit(gd, arrow)
            lhs = algebra.zero()
            for a, c in image.coeffs.items():
                lhs = lhs + zeta_delta(comp, a).scale(c)
            proj = algebra.zero()
            for a, c in lambda_delta(comp, r).coeffs.items():
                proj = proj + zeta_delta(comp, a).scale(c)
            assert lhs == proj * zeta_delta(comp, arrow)


@pytest.mark.parametrize("name", ["C3", "C2xC2", "S3"])
def test_tilde_pi_is_a_section(name):
    gd = build_groupoid(build_named_group(name))
    for comp in components(gd):
        for v in comp.vertices:
            section = tilde_pi(comp, v)
            img = lambda_delta(comp, section)
            assert img == arrow_unit(gd, (v, 0))


def test_equivalence_data():
    gd = build_groupoid(build_named_group("C3"))
    comp = components(gd)[0]  # the singleton {1}
    data = EquivalenceData(comp)
    assert sorted(sum(data.classes, [])) == [0, 1, 2]
    assert data.reps[0] == 0
    # elements outside every vertex form one class here
    assert [1, 2] in data.classes


@pytest.mark.parametrize("name", ["C2", "C3", "C2xC2", "C4", "C5", "C6", "S3"])
def test_tensor_b_kdelta(name):
    gd = build_groupoid(build_named_group(name))
    for comp in components(gd):
        check_bracket_tables(comp, QQ)
        report = tensor_b_kdelta(comp, QQ)
        assert report.ok, report.as_dict()
        assert report.dimension == comp.size


@pytest.mark.parametrize("name", ["C3", "C4", "C2xC2", "S3"])
def test_bracket_relations_span_the_canonical_ones(name):
    # Each [g] is the canonical pair ({1, g}, g), so the bracket relations
    # are among the oracle's; an equal rank means an equal span.
    gd = build_groupoid(build_named_group(name))
    for field in (QQ, GF(2), GF(3)):
        for comp in components(gd):
            relations, flat = canonical_relations(comp, field)
            expect = flat - span_rank(relations, field)
            assert tensor_b_kdelta(comp, field).dimension == expect, (
                name, field.name, comp)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C5", "C6", "C2xC2",
                                  "S3"])
def test_tensor_report_matches_residue_oracle(name, field):
    gd = build_groupoid(build_named_group(name))
    for comp in components(gd):
        assert (tensor_b_kdelta(comp, field).as_dict()
                == residue_tensor_report(comp, field).as_dict()), comp


_TILDE_PI = groupoid_module.tilde_pi
_BRACKET_TABLES = groupoid_module._bracket_tables


def _next_vertex_section(comp, vertex, field=QQ):
    nxt = comp.vertices[(comp.vertex_pos[vertex] + 1) % comp.size]
    return _TILDE_PI(comp, nxt, field)


def _identity_bracket_only(comp, keys):
    # [1] moves nothing, so no relation is left
    targets, moved, hits = _BRACKET_TABLES(comp, keys)
    return targets, moved[:1], hits[:1]


def _hits_redirected(comp, keys):
    # [g] y lands on the arrow after the right one
    targets, moved, hits = _BRACKET_TABLES(comp, keys)
    n = len(comp.arrows)
    return targets, moved, [[None if h is None else (h + 1) % n for h in row]
                            for row in hits]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("name", ["C4", "S3"])
@pytest.mark.parametrize("mutation", ["section", "dropped", "redirected"])
def test_tensor_flags_go_false_on_mutations(monkeypatch, mutation, name,
                                            field):
    if mutation == "section":
        monkeypatch.setattr(groupoid_module, "tilde_pi", _next_vertex_section)
    else:
        monkeypatch.setattr(groupoid_module, "_bracket_tables",
                            _identity_bracket_only if mutation == "dropped"
                            else _hits_redirected)
    gd = build_groupoid(build_named_group(name))
    for comp in components(gd):
        report = tensor_b_kdelta(comp, field)
        assert report.as_dict() == residue_tensor_report(comp, field).as_dict()
        flags = report.as_dict()
        several = comp.size > 1
        if mutation == "section":
            # phi psi sends each vertex to the next one
            assert flags["dimension"] == comp.size
            assert flags["phi_psi_identity"] == flags["psi_phi_identity"] \
                == (not several)
            assert flags["h_action_trivial"] and flags["phi_kills_relations"]
        elif mutation == "dropped":
            # with no relation the arrows out of the base stay apart, and
            # psi phi - 1 is not in the (empty) span
            assert flags["dimension"] > comp.size
            assert flags["h_action_trivial"] == (
                len(comp.stabilizer.indices) == 1)
            assert not flags["psi_phi_identity"]
            assert flags["phi_kills_relations"] and flags["phi_psi_identity"]
        else:
            # a relation now joins coordinates of two vertices
            assert flags["phi_kills_relations"] == (not several)
        assert report.ok == (mutation != "dropped" and not several)


def test_tensor_b_kdelta_prime_field():
    gd = build_groupoid(build_named_group("C3"))
    comp = components(gd)[2]
    report = tensor_b_kdelta(comp, GF(5))
    assert report.ok

import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from bar_complex import b_tensor_dim, bar_basis, bar_differential
from canonical_module import canonical_regular_module
from dense_reference import matrix_entries
import homogeneous_resolution
from homogeneous_resolution import (_subsets, contracting_homotopy,
                                    homogeneous_basis,
                                    homogeneous_differential,
                                    homotopy_composites)
from span_oracles import add_tagged, tagged_coefficients
from term_transport import (contract, degenerate_coordinates, full_blocks,
                            term_built_differentials, without_degenerate)
from parh import cli, homology
from parh.exel import PartialGroupAlgebra
from parh.groupoid import (
    PartialRepModule,
    b_module,
    build_groupoid,
    components,
    induce_module,
    regular_module,
)
from parh.groups import (NAMED_GROUP_NAMES, Subgroup, build_named_group,
                         trivial_rep, regular_rep)
from parh.homology import (
    HOMOLOGY_SIZE_CAP,
    RANK_PRIME,
    ChainComplex,
    HomologyReport,
    _idempotent_supports,
    _prefixes,
    _transported_complex,
    dual_module,
    group_cohomology,
    group_homology,
    partial_cohomology,
    partial_homology,
    resolution_identity_holds,
    verify_corollary_b,
    verify_theorem_a,
)
from parh.linalg import (GF, QQ, Eliminator, SizeCapError, SparseMatrix,
                         accumulate, rank)


def _component(name, base_size):
    group = build_named_group(name)
    comps = components(build_groupoid(group))
    return group, next(c for c in comps if c.base.bit_count() == base_size)


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
    rows = bar_basis(c2, 0)
    cols = bar_basis(c2, 1)
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
        assert d1.cols[c] == expected


def test_bar_degree_one_matches_algebra_right_action():
    # Dual route: the same columns computed by honest algebra products
    # [x^-1] e_A [x] - e_A e_x over the primitive decomposition.
    c3 = build_named_group("C3")
    algebra = PartialGroupAlgebra(c3)
    d1 = bar_differential(c3, 1)
    for c, (a, xs) in enumerate(bar_basis(c3, 1)):
        x = xs[0]
        moved = algebra.bracket(c3.inv(x)) * algebra.primitive_idempotent(a)
        moved = moved * algebra.bracket(x)
        still = algebra.primitive_idempotent(a) * algebra.idem(x)
        image = moved - still
        assert d1.cols[c] == algebra.primitive_vector(image)


def test_bar_two_tuple_column_has_the_three_terms():
    c2 = build_named_group("C2")
    d2 = bar_differential(c2, 2)
    full = (0, 1)
    col_index = bar_basis(c2, 2).index((full, (1, 1)))
    rows = {lab: k for k, lab in enumerate(bar_basis(c2, 1))}
    assert d2.cols[col_index] == {
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


# ---------------------------------------------------------------------------
# Homogeneous resolution and its extra-degeneracy certificate.


def test_homogeneous_d_squared_is_zero():
    c3 = build_named_group("C3")
    for n in (2, 3):
        lo = homogeneous_differential(c3, n - 1)
        hi = homogeneous_differential(c3, n)
        assert (lo * hi).is_zero()


def test_homotopy_prepends_identity_entry():
    c2 = build_named_group("C2")
    s0 = contracting_homotopy(c2, 0)
    rows = {lab: k for k, lab in enumerate(homogeneous_basis(c2, 1))}
    for c, (a, gs) in enumerate(homogeneous_basis(c2, 0)):
        assert gs == ()
        assert s0.cols[c] == {rows[(a, (0,))]: QQ.one}


def test_homotopy_identity_small_groups():
    assert resolution_identity_holds(build_named_group("C2"), 3)
    assert resolution_identity_holds(build_named_group("C3"), 2)


def test_homotopy_identity_runs_once_per_verify():
    # B is self-dual, so its cohomology is its homology report: the
    # certificate is computed once and never asked for again.
    resolution_identity_holds.cache_clear()
    report = verify_corollary_b(build_named_group("C2"), GF(2), 2)
    assert report["ok"]
    info = resolution_identity_holds.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    assert report["cohomology"]["partial"] == report["homology"]["partial"]


def test_homotopy_identity_degree_zero_section():
    c2 = build_named_group("C2")
    d1 = homogeneous_differential(c2, 1)
    s0 = contracting_homotopy(c2, 0)
    n0 = len(homogeneous_basis(c2, 0))
    assert d1 * s0 == SparseMatrix.identity(QQ, n0)


@pytest.mark.parametrize("name", ["C3", "S3"])
def test_g_block_lists_are_the_resolution_maps(name):
    # on the G block the oracle's s is the list that keeps the index, and
    # its d is the alternating sum of the lists that drop one entry
    group = build_named_group(name)
    order, block = group.order, [tuple(range(group.order))]
    for n in range(4):
        s = contracting_homotopy(group, n, subsets=block)
        assert s.cols == [{k: 1}
                          for k in homology._insert_identity(order, n, 0)]
        if n:
            d = homogeneous_differential(group, n, subsets=block)
            assert matrix_entries(d) == accumulate(QQ, [
                ((r, c), (-1) ** i) for i in range(n)
                for c, r in enumerate(homology._drop_entry(order, n, i))])


def _identity_on_every_block(composites, field):
    return all(
        {k: v % field.char if field.char else v
         for k, v in matrix_entries(c).items()}
        == {(i, i): 1 for i in range(c.ncols)}
        for c in composites)


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_g_block_certificate_agrees_with_all_subsets(name):
    group = build_named_group(name)
    resolution_identity_holds.cache_clear()
    assert resolution_identity_holds(group, 3)
    composites = homotopy_composites(group, 3)
    for field in (QQ, GF(2), GF(3)):
        assert _identity_on_every_block(composites, field)


def _dropped(t, i):
    return t[:i] + t[i + 1:]


def _inserted(t, i):
    return t[:i] + (0,) + t[i:]


def _misplaced(build, move, shift, i, j, n_min):
    """The oracle builder ``build``, from degree n to n + shift, with the
    term move(t, i) of each column (A, t) moved to move(t, j), its sign
    kept, in every degree n >= n_min."""
    sign = 1 if shift > 0 else (-1) ** i

    def moved(group, n, field=QQ, cap=HOMOLOGY_SIZE_CAP, *, subsets=None):
        m = build(group, n, field, cap, subsets=subsets)
        if n < n_min:
            return m
        rows = {lab: k for k, lab in enumerate(
            homogeneous_basis(group, n + shift, cap, subsets=subsets))}
        terms = list(matrix_entries(m).items())
        for c, (a, t) in enumerate(
                homogeneous_basis(group, n, cap, subsets=subsets)):
            terms += [((rows[(a, move(t, i))], c), -sign),
                      ((rows[(a, move(t, j))], c), sign)]
        return SparseMatrix(field, m.nrows, m.ncols, accumulate(field, terms))
    return moved


def _g_block_list(order, n, move):
    """The index list of t -> move(t) on G^n, tuples in ``product`` order."""
    image = [move(t) for t in product(range(order), repeat=n)]
    index = {t: k for k, t in enumerate(
        product(range(order), repeat=len(image[0])))}
    return [index[t] for t in image]


# oracle builder, library list builder, move, degree shift, position i
# read as j, least degree that has a position j
@pytest.mark.parametrize("oracle_name,list_name,move,shift,i,j,n_min", [
    ("contracting_homotopy", "_insert_identity", _inserted, 1, 0, 1, 1),
    ("homogeneous_differential", "_drop_entry", _dropped, -1, 0, 1, 2),
    ("homogeneous_differential", "_drop_entry", _dropped, -1, 1, 2, 3),
], ids=["s-inserts-at-1", "d0-drops-entry-1", "d1-drops-entry-2"])
def test_corrupted_maps_fail_both_certificates(
        monkeypatch, oracle_name, list_name, move, shift, i, j, n_min):
    # the same mutation of the library's lists, rebuilt from tuples, and
    # of the oracle's matrices; d_0 s = id holds under the last one, and
    # d_2 s = s d_1 fails
    monkeypatch.setattr(homogeneous_resolution, oracle_name, _misplaced(
        getattr(homogeneous_resolution, oracle_name), move, shift, i, j,
        n_min))

    def mutated(order, n, k=0):
        at = j if k == i and n >= n_min else k
        return _g_block_list(order, n, lambda t: move(t, at))

    monkeypatch.setattr(homology, list_name, mutated)
    s3 = build_named_group("S3")
    resolution_identity_holds.cache_clear()
    try:
        assert not resolution_identity_holds(s3, 2)
        composites = homotopy_composites(s3, 2)
        for field in (QQ, GF(2), GF(3)):
            assert not _identity_on_every_block(composites, field)
    finally:
        resolution_identity_holds.cache_clear()


def test_certificate_cap_counts_the_g_block_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("a list was built before the cap check")

    monkeypatch.setattr(homology, "_drop_entry", no_build)
    monkeypatch.setattr(homology, "_insert_identity", no_build)
    s3 = build_named_group("S3")
    resolution_identity_holds.cache_clear()
    with pytest.raises(SizeCapError) as info:
        resolution_identity_holds(s3, 3, 6 ** 4 - 1)
    assert (info.value.requested, info.value.limit) == (6 ** 4, 6 ** 4 - 1)
    monkeypatch.undo()
    assert resolution_identity_holds(s3, 3, 6 ** 4)


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


def _map_modules(group, field):
    """B, the regular module, and W(x)trivial and W(x)regular of every
    component: the modules the CLI builds, all acting by partial maps."""
    yield b_module(group, field)
    yield regular_module(group, field)
    for comp in components(build_groupoid(group)):
        for rep in (trivial_rep, regular_rep):
            yield induce_module(comp, rep(comp.stabilizer, field), field)


def _counted_products(monkeypatch):
    """Count every ``SparseMatrix.annihilates`` call from now on."""
    products = []
    real = SparseMatrix.annihilates

    def counted(self, other):
        products.append(1)
        return real(self, other)

    monkeypatch.setattr(SparseMatrix, "annihilates", counted)
    return products


def _assert_normalized(cx, v, top, homology_top=None):
    """cx is the term-built full complex of v through degree ``top`` with
    its degenerate rows and columns deleted, entry order included, and
    has the homology of the full complex in degrees 0..homology_top
    (default top - 1)."""
    full = term_built_differentials(v, top)
    degenerate = degenerate_coordinates(v, top)
    for n, want in without_degenerate(full, degenerate).items():
        got = cx.diffs[n]
        assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
        # same entries in the same order, so elimination pivots alike
        assert ([list(col.items()) for col in got.cols]
                == [list(col.items()) for col in want.cols])
    dims = {0: full[1].nrows} | {n: d.ncols for n, d in full.items()}
    ranked = top - 1 if homology_top is None else homology_top
    assert (_exact_dims(cx, ranked)
            == _exact_dims(ChainComplex(v.field, dims, full), ranked))


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_face_built_differentials_match_term_built(monkeypatch, name):
    products = _counted_products(monkeypatch)
    group = build_named_group(name)
    # the full homology of order 8 is ranked to degree 1, for time
    homology_top = 1 if group.order == 8 else 2
    for field in (QQ, GF(2), GF(3)):
        for v in _map_modules(group, field):
            assert v.maps is not None
            cx = _transported_complex(v, 3, HOMOLOGY_SIZE_CAP)
            _assert_normalized(cx, v, 3, homology_top)
            # the identities decided d^2 = 0 with no product, and the
            # products agree on the same matrices
            products.clear()
            assert cx.d2_zero() and not products
            assert all(cx.diffs[n].annihilates(cx.diffs[n + 1]) for n in (1, 2))


def _sign_twisted_b(group):
    """B of S3 with [g] negated off the rotations: a self-dual ±1 module
    that is not a 0/1 partial map."""
    squares = {group.mult(g, g) for g in range(group.order)}
    return PartialRepModule(group, QQ, {
        g: SparseMatrix._of_columns(QQ, m.nrows, [
            {r: x if g in squares else -x for r, x in col.items()}
            for col in m.cols])
        for g, m in b_module(group, QQ).mats.items()})


def _c3_character():
    """The C3 character g -> 2 over F7, induced on the full vertex: not
    self-dual, and its entries 2 and 4 are no partial map."""
    _, full = _component("C3", 3)
    u = {h: SparseMatrix(GF(7), 1, 1, {(0, 0): 2 ** k})
         for k, h in enumerate(full.stabilizer.elements)}
    return induce_module(full, u, GF(7))


def _route_pinned(monkeypatch):
    """Record each transported complex built from now on, and refuse a
    d^2 product on any of their differentials; the classical complexes
    keep their products."""
    built = []
    real_complex = homology._transported_complex
    real_annihilates = SparseMatrix.annihilates

    def recorded(*args):
        built.append(real_complex(*args))
        return built[-1]

    def refused(self, other):
        if any(self is d for cx in built for d in cx.diffs.values()):
            raise AssertionError("a transported complex took the product route")
        return real_annihilates(self, other)

    monkeypatch.setattr(homology, "_transported_complex", recorded)
    monkeypatch.setattr(SparseMatrix, "annihilates", refused)
    return built


CLI_HOMOLOGY_COMMANDS = [
    "verify corollary-b --group S3 --field Q --max 2",
    "verify corollary-b --group S3 --field F2 --max 2",
    "verify kpar-coeff-vanishing --group S3 --max 2",
    "homology partial --group S3 --module B --max 2",
    "homology partial --group S3 --module regular --field F2 --max 2",
    "homology partial --group S3 --module W⊗trivial --component 3 --max 2",
    "homology partial --group S3 --module W⊗regular --component 3 --max 2",
    "homology cohomology --group S3 --module W⊗regular --component 1 --max 2",
]


@pytest.mark.parametrize("argv", CLI_HOMOLOGY_COMMANDS + [
    "verify theorem-a --group S3 --component 5 --rep regular --max 2",
])
def test_cli_homology_assembles_no_degenerate_column(monkeypatch, capsys,
                                                     argv):
    # each column is summed by one _add_faces call: every degree of every
    # complex sums exactly its coordinates at the tuples with no entry
    # equal to the identity, and no column at any other tuple
    built = []
    summed = []
    real_complex = homology._transported_complex
    real_add = homology._add_faces

    def recorded(v_mod, max_n, cap):
        start = len(summed)
        cx = real_complex(v_mod, max_n, cap)
        built.append((v_mod, max_n, cx, len(summed) - start))
        return cx

    def counted(*args):
        summed.append(1)
        return real_add(*args)

    monkeypatch.setattr(homology, "_transported_complex", recorded)
    monkeypatch.setattr(homology, "_add_faces", counted)
    assert cli.main(argv.split() + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert built
    for v, top, cx, sums in built:
        degenerate = degenerate_coordinates(v, top)
        supports = _idempotent_supports(v)
        kept = {n: full_blocks(v.group, supports, n, {})[1]
                - len(degenerate[n]) for n in range(top + 1)}
        assert degenerate[top] and cx.dims == kept
        assert sums == sum(kept[n] for n in range(1, top + 1))


@pytest.mark.parametrize("argv", CLI_HOMOLOGY_COMMANDS)
def test_cli_complexes_decide_d2_by_the_simplicial_identities(
        monkeypatch, capsys, argv):
    built = _route_pinned(monkeypatch)
    assert cli.main(argv.split() + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    # _route_pinned refuses a product on these complexes
    assert built and all(cx.d2_zero() for cx in built)


def test_matrix_modules_decide_d2_by_the_identities(monkeypatch):
    # no product is formed to build or to decide d^2 = 0; the products
    # then agree on the assembled matrices, which are the normalized
    # term-built ones to degree 4
    products = _counted_products(monkeypatch)
    s3 = build_named_group("S3")
    character = _c3_character()
    for v in (character, dual_module(character), _sign_twisted_b(s3)):
        assert v.maps is None
        products.clear()
        cx = _transported_complex(v, 4, HOMOLOGY_SIZE_CAP)
        assert cx.d2_zero() and not products
        assert all(cx.diffs[n].annihilates(cx.diffs[n + 1]) for n in (1, 2, 3))
        _assert_normalized(cx, v, 4)


def _identity_checks(monkeypatch):
    """(degree, tuples, lower tuples) of every call of the identity check
    from now on, with its verdict."""
    calls = []
    real = homology._nerve_identities_hold

    def recorded(faces, degens, *args):
        verdict = real(faces, degens, *args)
        calls.append((len(faces) - 1, len(faces[0]), len(degens[0]), verdict))
        return verdict

    monkeypatch.setattr(homology, "_nerve_identities_hold", recorded)
    return calls


def test_every_identity_is_checked_through_max_plus_one(monkeypatch):
    # partial_homology to degree m builds degrees 1..m+1; each is checked
    # once, on all the tuples of G^n, degenerate ones included
    calls = _identity_checks(monkeypatch)
    s3 = build_named_group("S3")
    character = _c3_character()
    for v in (*_map_modules(s3, GF(3)), character, dual_module(character),
              _sign_twisted_b(s3)):
        order = v.group.order
        calls.clear()
        partial_homology(v.group, v, max_degree=2)
        assert calls == [(n, order ** n, order ** (n - 1), True)
                         for n in (1, 2, 3)]


def _mutated_nerve(monkeypatch, degree, mutate):
    """Apply mutate(faces, degens) to the nerve's lists of every degree
    from ``degree`` on."""
    real = homology._nerve

    def mutated(group, n):
        faces, degens = real(group, n)
        if n >= degree:
            mutate(faces, degens)
        return faces, degens

    monkeypatch.setattr(homology, "_nerve", mutated)


def test_a_failed_identity_is_loud(monkeypatch):
    # s_0 inserts the identity one position off, after x_1
    _mutated_nerve(monkeypatch, 2,
                   lambda faces, degens: degens.__setitem__(0, degens[1]))
    s3 = build_named_group("S3")
    for v in (b_module(s3, QQ), regular_module(s3, GF(3)), _sign_twisted_b(s3)):
        with pytest.raises(RuntimeError, match="simplicial identity fails "
                                               "at degree 2"):
            _transported_complex(v, 2, HOMOLOGY_SIZE_CAP)


def test_a_module_whose_unit_is_not_the_identity_is_refused():
    # d_0 s_0 = id on the chains is the unit [1] = I, which the module
    # checks at construction: [1] negated, or with coordinate 0 dropped, a
    # partial map on B, refused on the list route and the matrix route
    s3 = build_named_group("S3")
    for v in (b_module(s3, GF(3)), _sign_twisted_b(s3)):
        f, one = v.field, v.mats[0]
        negated = [{r: f.neg(x) for r, x in col.items()} for col in one.cols]
        for cols in (negated, [{}] + one.cols[1:]):
            unit = SparseMatrix._of_columns(f, one.nrows, cols)
            with pytest.raises(ValueError, match="identity generator"):
                PartialRepModule(s3, f, {**v.mats, 0: unit})


def test_a_contraction_off_by_one_is_loud(monkeypatch):
    # contract x_2 x_3 where d_1 should contract x_1 x_2, in degree 3
    _mutated_nerve(monkeypatch, 3,
                   lambda faces, degens: faces.__setitem__(1, faces[2]))
    with pytest.raises(RuntimeError, match="simplicial identity fails at "
                                           "degree 3"):
        _transported_complex(b_module(build_named_group("S3"), GF(2)), 3,
                             HOMOLOGY_SIZE_CAP)


def test_dual_of_a_non_injective_map_is_no_map():
    # [g] folds both coordinates onto the first: a partial map, but its
    # transpose is none, so the dual has no lists; e_g = [g] is not
    # diagonal, so neither module has a transported complex
    c2 = build_named_group("C2")
    folded = SparseMatrix.from_dense(QQ, [[1, 1], [0, 0]])
    mod = PartialRepModule(c2, QQ, {0: SparseMatrix.identity(QQ, 2), 1: folded})
    assert mod.maps == {0: [0, 1, -1], 1: [0, 0, -1]}
    dual = dual_module(mod)
    assert dual.maps is None
    for v in (mod, dual):
        with pytest.raises(ValueError, match="not a diagonal 0/1 matrix"):
            _transported_complex(v, 2, HOMOLOGY_SIZE_CAP)


def test_self_dual_module_passes_its_maps_to_its_dual():
    s3 = build_named_group("S3")
    for v in (b_module(s3, GF(3)), regular_module(s3, QQ)):
        assert dual_module(v).maps is v.maps


def test_transported_cap_is_checked_before_the_blocks(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a block was formed before the cap check")

    monkeypatch.setattr(homology, "_degree_blocks", unreachable)
    monkeypatch.setattr(homology, "_nerve", unreachable)
    s3 = build_named_group("S3")
    for v in (b_module(s3, QQ), _sign_twisted_b(s3)):
        with pytest.raises(SizeCapError) as info:
            _transported_complex(v, 3, 5_000)
        assert info.value.requested == 6 ** 3 * 32 > info.value.limit


def test_a_face_that_leaves_its_block_is_loud(monkeypatch):
    # empty the support of one element y: the tail (y,) of (x, y) has an
    # empty block, and d_0 moves each coordinate of (x, y) there, on the
    # list route and on the matrix route alike
    real = homology._idempotent_supports

    def shrunk(v_mod):
        supports = real(v_mod)
        supports[1] = frozenset()
        return supports

    monkeypatch.setattr(homology, "_idempotent_supports", shrunk)
    s3 = build_named_group("S3")
    for v in (b_module(s3, QQ), regular_module(s3, GF(3)), _sign_twisted_b(s3)):
        with pytest.raises(RuntimeError, match="vector escapes its projection"):
            _transported_complex(v, 2, HOMOLOGY_SIZE_CAP)


@pytest.mark.parametrize("name,field", [("C2", QQ), ("C3", QQ), ("C2xC2", GF(2))])
def test_transported_equals_bar_for_idempotent_module(name, field):
    group = build_named_group(name)
    bm = b_module(group, field)
    cx = _transported_complex(bm, 3, HOMOLOGY_SIZE_CAP)
    supports = _idempotent_supports(bm)
    subsets = _subsets(group)
    degenerate = degenerate_coordinates(bm, 3)
    normalized = without_degenerate(
        {n: bar_differential(group, n, field) for n in (1, 2, 3)}, degenerate)
    for n in (1, 2, 3):
        bar = normalized[n]
        eng = cx.diffs[n]
        assert (bar.nrows, bar.ncols) == (eng.nrows, eng.ncols)
        assert matrix_entries(bar) == matrix_entries(eng)
        # the coordinates (xs, j) of the transported complex, in order
        blocks, dim = full_blocks(group, supports, n, {})
        coords = []
        for xs, (offset, block) in blocks.items():
            assert offset == len(coords)
            coords.extend((xs, j) for j in range(len(block)))
        assert len(coords) == dim == eng.ncols + len(degenerate[n])
        for k, (xs, j) in enumerate(coords):
            a_bar, xs_bar = bar_basis(group, n)[k]
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
    # S3 is nonabelian, so e_A [g] and [g] e_A differ there: the oracle
    # agrees only if it takes the right action on B
    for name in ("C4", "S3"):
        group = build_named_group(name)
        modules = [b_module(group, QQ), regular_module(group, GF(3))]
        modules += [induce_module(comp, regular_rep(comp.stabilizer, QQ), QQ)
                    for comp in components(build_groupoid(group))]
        cases += [(group, w) for v in modules for w in (v, dual_module(v))]
    for group, v in cases:
        assert partial_homology(group, v, max_degree=0).dims[0] == b_tensor_dim(v)


def test_partial_homology_validation():
    c2 = build_named_group("C2")
    c3 = build_named_group("C3")
    with pytest.raises(ValueError):
        partial_homology(c3, b_module(c2, QQ))
    with pytest.raises(ValueError):
        partial_homology(c2, b_module(c2, QQ), field=GF(2))
    with pytest.raises(ValueError):
        partial_homology(c2, b_module(c2, QQ), max_degree=-1)
    with pytest.raises(SizeCapError):
        partial_homology(c2, b_module(c2, QQ), max_degree=3, cap=10)


def test_cohomology_refuses_a_negative_degree_before_any_cost(monkeypatch):
    # the module and the representation are not self-dual, so a dual
    # would be built and the representation checked before ranking
    s3, full = _component("S3", 6)
    u = _standard_rep_s3(s3, GF(3))
    v = induce_module(full, u, GF(3))
    assert not v.self_dual

    def no_cost(*args):
        raise AssertionError("work done before max_degree was checked")

    monkeypatch.setattr(homology, "dual_module", no_cost)
    monkeypatch.setattr(homology, "_check_group_rep", no_cost)
    with pytest.raises(ValueError, match="max_degree"):
        partial_cohomology(s3, v, max_degree=-1)
    with pytest.raises(ValueError, match="max_degree"):
        group_cohomology(full.stabilizer, u, GF(3), -1)


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
        yield (f"induced on the {comp!r}",
               induce_module(comp, regular_rep(comp.stabilizer, field), field))


def test_dual_module_is_an_involution():
    for name in ("C3", "C2xC2", "S3"):
        group = build_named_group(name)
        for field in (QQ, GF(2)):
            for label, v in _cohomology_modules(group, field):
                dual = dual_module(v)
                assert dual.dim == v.dim
                assert dual_module(dual).mats == v.mats, (name, label)


def _dual_check_modules(group):
    """B, the regular module in both bases up to order 6, every induced
    regular module and, on S3, the sum-zero module over Q and F3."""
    comps = components(build_groupoid(group))
    yield b_module(group, QQ)
    if group.order <= 6:
        yield regular_module(group, QQ)
        yield canonical_regular_module(group, QQ)
    for comp in comps:
        yield induce_module(comp, regular_rep(comp.stabilizer, QQ), QQ)
    if group.name == "S3":
        full = next(c for c in comps if c.base.bit_count() == 6)
        for field in (QQ, GF(3)):
            yield induce_module(full, _standard_rep_s3(group, field), field)


@pytest.mark.parametrize(
    "name", ["C2", "C3", "C4", "C5", "C6", "C2xC2", "S3", "D4", "Q8"])
def test_dual_module_satisfies_the_relations(name):
    # dual_module adopts V* unchecked; the constructor raises on a broken
    # relation.
    group = build_named_group(name)
    for v in _dual_check_modules(group):
        PartialRepModule(group, v.field, dual_module(v).mats)


def test_cohomology_validates_only_the_module(monkeypatch):
    calls = []
    validate = PartialRepModule._validate

    def counting(self):
        calls.append(self.dim)
        validate(self)

    monkeypatch.setattr(PartialRepModule, "_validate", counting)
    s3 = build_named_group("S3")
    v = b_module(s3, QQ)
    built = len(calls)
    partial_cohomology(s3, v, max_degree=1)
    assert built == 1 and len(calls) == built


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C2xC2", "S3"])
def test_degree_zero_cohomology_is_common_kernel(name):
    # H^0(V) is the common kernel of v -> [x] v - e_x v, e_x = [x][x^-1].
    group = build_named_group(name)
    for field in (QQ, GF(2), GF(3)):
        for label, v in _cohomology_modules(group, field):
            d = v.dim
            entries = {}
            for x in range(group.order):
                e_x = v.mats[x] * v.mats[group.inv(x)]
                terms = [((x * d + i, j), c)
                         for (i, j), c in matrix_entries(v.mats[x]).items()]
                terms += [((x * d + i, j), field.neg(c))
                          for (i, j), c in matrix_entries(e_x).items()]
                entries.update(accumulate(field, terms))
            stacked = SparseMatrix(field, group.order * d, d, entries)
            h0 = partial_cohomology(group, v, max_degree=0).dims[0]
            assert h0 == d - rank(stacked), (name, field.name, label)


class _ProjectionBlock:
    """Image of one product of idempotent projections, with coordinates.

    ``basis`` holds the chosen independent columns of the projection;
    ``coords`` rewrites any vector of the image over that basis and
    refuses vectors that escape it.  Unlike the library's coordinate
    blocks, this works for idempotents that are not diagonal.
    """

    def __init__(self, field, projection):
        self.projection = projection
        self._elim = Eliminator(field)
        self.basis = []
        for col in projection.cols:
            if col and add_tagged(self._elim, col, len(self.basis)):
                self.basis.append(col)

    def coords(self, col):
        coeffs = tagged_coefficients(self._elim, col)
        if coeffs is None:
            raise RuntimeError("vector escapes its projection block")
        return coeffs


def _projection_blocks(v_mod, n, cache):
    """Per-tuple projection blocks, offsets and labels for one degree."""
    group = v_mod.group
    per_tuple, offsets, labels = [], {}, []
    for xs in product(range(group.order), repeat=n):
        prefix_set = frozenset(_prefixes(group, xs))
        if prefix_set not in cache:
            proj = SparseMatrix.identity(v_mod.field, v_mod.dim)
            for p in sorted(prefix_set - {0}):
                proj = proj * (v_mod.mats[p] * v_mod.mats[group.inv(p)])
            cache[prefix_set] = _ProjectionBlock(v_mod.field, proj)
        block = cache[prefix_set]
        per_tuple.append((xs, block))
        offsets[xs] = len(labels)
        labels.extend((xs, j) for j in range(len(block.basis)))
    return per_tuple, offsets, labels


def _cochain_reference_dims(v_mod, max_degree):
    """Cohomology by the cochain complex that partial_cohomology replaced.

    Cochains in degree n are the blocks e_(x) V, found as images of
    projection products, so the idempotents of V need not be diagonal.
    The coboundary precomposes with the bar differential: it acts by
    [x_1] on the tail entry and projects the contractions and the final
    drop into the target block.  ``cobound[n]`` maps degree n-1 to degree n, so
    dim H^n = dim C^n - rank cobound[n+1] - rank cobound[n].
    """
    group, field = v_mod.group, v_mod.field
    cache = {}
    degree = {n: _projection_blocks(v_mod, n, cache)
              for n in range(max_degree + 2)}
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
                    sources.append((contract(group, xs, j), sign, None, True))
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
        # The canonical basis, whose idempotents are not diagonal, gives
        # the same cohomology as the arrow basis the library uses.
        reference = _cochain_reference_dims(
            canonical_regular_module(group, field), max_degree)
        assert partial_cohomology(group, regular_module(group, field),
                                  max_degree=max_degree).dims == reference, (
            name, field.name)


def test_non_diagonal_idempotents_are_refused():
    c2 = build_named_group("C2")
    v = canonical_regular_module(c2, QQ)
    for run in (partial_homology, partial_cohomology):
        with pytest.raises(ValueError, match="not a diagonal 0/1 matrix"):
            run(c2, v, max_degree=1)


def test_cohomology_cap_is_checked_before_the_dual(monkeypatch):
    def no_dual(v_mod):
        raise AssertionError("the dual was built before the cap check")

    monkeypatch.setattr(homology, "dual_module", no_dual)
    c2 = build_named_group("C2")
    with pytest.raises(SizeCapError) as info:
        partial_cohomology(c2, b_module(c2, QQ), max_degree=3, cap=10)
    assert info.value.requested == 16
    assert info.value.limit == 10


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


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_partial_permutation_modules_are_self_dual(name):
    group = build_named_group(name)
    comps = components(build_groupoid(group))
    for field in (QQ, GF(2), GF(3)):
        modules = [b_module(group, field), regular_module(group, field)]
        modules += [induce_module(comp, rep(comp.stabilizer, field), field)
                    for comp in comps for rep in (trivial_rep, regular_rep)]
        for v in modules:
            assert v.self_dual, (name, field.name, v.dim)
            assert dual_module(v).mats == v.mats
            assert dual_module(v).self_dual


def _count_calls(monkeypatch, name):
    """Count the calls of a ``homology`` function from now on."""
    calls = []
    fn = getattr(homology, name)

    def counted(*args, **kw):
        calls.append(args)
        return fn(*args, **kw)

    monkeypatch.setattr(homology, name, counted)
    return calls


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=lambda f: f.name)
def test_a_module_that_is_not_self_dual_takes_the_dual_route(
        monkeypatch, field):
    s3, full = _component("S3", 6)
    u = _standard_rep_s3(s3, field)
    v = induce_module(full, u, field)
    assert not v.self_dual
    assert not dual_module(v).self_dual
    duals = _count_calls(monkeypatch, "dual_module")
    report = partial_cohomology(s3, v, max_degree=2)
    assert duals == [(v,)]
    assert report.dims == _cochain_reference_dims(v, 2)
    # group_cohomology ranks the transposed dual of u
    elems = list(full.stabilizer.elements)
    ranked = _count_calls(monkeypatch, "_group_homology")
    group_cohomology(full.stabilizer, u, field, 2)
    assert ([m.transpose() for m in ranked.pop()[1]]
            == [u[h.inverse()] for h in elems] != [u[h] for h in elems])


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=lambda f: f.name)
def test_self_dual_cohomology_builds_no_dual(monkeypatch, field, capsys):
    # a self-dual module equals its dual, so its cohomology is its homology
    c4 = build_named_group("C4")
    modules = [b_module(c4, field), regular_module(c4, field)]
    expected = [_cochain_reference_dims(v, 2) for v in modules]

    def no_dual(v_mod):
        raise AssertionError("a dual was built for a self-dual module")

    monkeypatch.setattr(homology, "dual_module", no_dual)
    for v, dims in zip(modules, expected):
        assert v.self_dual
        assert partial_cohomology(c4, v, max_degree=2).dims == dims
    argv = ["verify", "kpar-coeff-vanishing", "--group", "S3", "--field",
            field.name, "--max", "1", "--json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_cohomology_of_a_character_that_is_not_self_dual(monkeypatch):
    # the character is not self-dual, so its cohomology is the homology
    # of the built dual
    v = _c3_character()
    c3 = v.group
    assert not v.self_dual
    duals = _count_calls(monkeypatch, "dual_module")
    report = partial_cohomology(c3, v, max_degree=3)
    assert duals == [(v,)]
    assert report.dims == [0, 0, 0, 0] == _cochain_reference_dims(v, 3)
    assert report.checks == {"d2_zero": True, "homotopy_id": True}


def test_verify_builds_one_complex_per_self_dual_module(monkeypatch):
    s3, full = _component("S3", 6)
    built = _count_calls(monkeypatch, "_transported_complex")
    duals = _count_calls(monkeypatch, "dual_module")
    v = b_module(s3, GF(2))
    assert (partial_cohomology(s3, v, max_degree=2).dims
            == partial_homology(s3, v, max_degree=2).dims)
    assert not duals
    built.clear()
    duals.clear()
    assert verify_corollary_b(s3, GF(2), 2)["ok"]
    assert len(built) == 1 and not duals
    for field in (QQ, GF(3)):
        for u, complexes in ((regular_rep(full.stabilizer, field), 1),
                             (trivial_rep(full.stabilizer, field), 1),
                             (_standard_rep_s3(s3, field), 2)):
            built.clear()
            assert verify_theorem_a(s3, full, u, field, 2)["ok"]
            assert len(built) == complexes, (field.name, complexes)


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
    sub = Subgroup(c1, [0])
    report = group_homology(sub, trivial_rep(sub, QQ), QQ, 2)
    assert report.dims == [1, 0, 0]


def test_group_homology_regular_is_acyclic():
    c3 = build_named_group("C3")
    report = group_homology(c3, regular_rep(c3, GF(3)), GF(3), 2)
    assert report.dims == [1, 0, 0]


def test_group_homology_subgroup_input():
    c6 = build_named_group("C6")
    sub = Subgroup(c6, [0, 3])
    assert sub.order == 2
    report = group_homology(sub, trivial_rep(sub, GF(2)), GF(2), 2)
    assert report.dims == [1, 1, 1]


def test_group_cohomology_small_cases():
    c2 = build_named_group("C2")
    c3 = build_named_group("C3")
    assert group_cohomology(c2, trivial_rep(c2, GF(2)), GF(2), 2).dims == [1, 1, 1]
    assert group_cohomology(c3, trivial_rep(c3, QQ), QQ, 2).dims == [1, 0, 0]


def test_group_cohomology_checks_the_representation_once(monkeypatch):
    s3 = build_named_group("S3")
    u = _standard_rep_s3(s3, GF(3))
    checked = []
    check = homology._check_group_rep

    def counted(h_group, rep, field):
        checked.append(rep)
        return check(h_group, rep, field)

    monkeypatch.setattr(homology, "_check_group_rep", counted)
    report = group_cohomology(s3, u, GF(3), 2)
    assert checked == [u]
    monkeypatch.undo()
    # the dual adopted unchecked gives what checking it again gives
    elems = list(s3.elements)
    dual = {g: u[elems[k].inverse()].transpose() for k, g in enumerate(elems)}
    assert report.dims == group_homology(s3, dual, GF(3), 2).dims


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
            assert report["ok"], (name, comp, rep.__name__)


def test_theorem_a_refuses_a_partial_rep_before_inducing(monkeypatch):
    # S3's component at {1,r,r2} has the rotations as stabilizer; a rep
    # that misses r is refused as a rep, not by a lookup in the induction
    s3 = build_named_group("S3")
    comp = next(c for c in components(build_groupoid(s3))
                if c.base == 0b111)
    assert comp.stabilizer.order == 3
    u = trivial_rep(comp.stabilizer, QQ)
    del u[s3.element("r")]
    induced = _count_calls(monkeypatch, "induce_module")
    with pytest.raises(ValueError, match="every element"):
        verify_theorem_a(s3, comp, u, QQ, 2)
    assert not induced


def test_theorem_a_checks_a_rep_that_is_not_self_dual_once(monkeypatch):
    # the C3 character g -> 2 over F7 (2^3 = 1) is not self-dual: u(g^-1)
    # is 4, so both classical halves run, on one check of u
    c3, full = _component("C3", 3)
    f7 = GF(7)
    u = {h: SparseMatrix(f7, 1, 1, {(0, 0): 2 ** k})
         for k, h in enumerate(full.stabilizer.elements)}
    checked = _count_calls(monkeypatch, "_check_group_rep")
    report = verify_theorem_a(c3, full, u, f7, 2)
    assert len(checked) == 1
    assert report["ok"]
    assert report["homology"]["ordinary"] == [0, 0, 0]
    assert report["cohomology"]["ordinary"] == [0, 0, 0]


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


def test_corollary_b_runs_the_classical_pipeline_once_per_stabilizer(
        monkeypatch):
    # S3 has 15 components but 6 distinct stabilizers; the per-component
    # rows must still be each component's own classical dimensions.
    group = build_named_group("S3")
    comps = components(build_groupoid(group))
    stabs = {comp.stabilizer for comp in comps}
    assert (len(comps), len(stabs)) == (15, 6)
    # Trivial representations are self-dual, so each stabilizer's
    # homology is read as its cohomology and group_cohomology never runs.
    homology_runs = _count_calls(monkeypatch, "group_homology")
    cohomology_runs = _count_calls(monkeypatch, "group_cohomology")
    report = verify_corollary_b(group, QQ, 1)
    ran_on = [args[0] for args in homology_runs]
    assert len(ran_on) == 6 and set(ran_on) == stabs
    assert cohomology_runs == []
    assert report["ok"]
    monkeypatch.undo()
    for comp, row in zip(comps, report["components"]):
        u = trivial_rep(comp.stabilizer, QQ)
        assert row["homology"] == group_homology(comp.stabilizer, u, QQ, 1).dims
        assert row["cohomology"] == group_cohomology(
            comp.stabilizer, u, QQ, 1).dims


def test_corollary_b_needs_classical_d_squared_zero(monkeypatch):
    # A classical complex that fails d^2 = 0 at one stabilizer, with its
    # dimensions unchanged, must turn ``ok`` false although every
    # dimension still agrees.
    group = build_named_group("S3")
    assert verify_corollary_b(group, QQ, 1)["ok"]
    real = homology.group_homology

    def broken_at_trivial(h_group, u, field, max_degree, cap):
        report = real(h_group, u, field, max_degree, cap)
        if h_group.order == 1:
            report.checks["d2_zero"] = False
        return report

    monkeypatch.setattr(homology, "group_homology", broken_at_trivial)
    report = verify_corollary_b(group, QQ, 1)
    assert report["homology"]["equal"] and report["cohomology"]["equal"]
    assert not report["ok"]


def test_corollary_b_refuses_a_negative_degree_before_any_cost(monkeypatch):
    def no_cost(*args):
        raise AssertionError("work done before max_degree was checked")

    monkeypatch.setattr(homology, "build_groupoid", no_cost)
    monkeypatch.setattr(homology, "b_module", no_cost)
    with pytest.raises(ValueError, match="max_degree"):
        verify_corollary_b(build_named_group("S3"), QQ, -1)


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
        ChainComplex(QQ, {0: 1, 1: 2}, {1: SparseMatrix(QQ, 2, 2)})


# ---------------------------------------------------------------------------
# Q ranks certified modulo RANK_PRIME, with the exact ranks as fall-back.


def _koszul(a, field=QQ):
    """The Koszul complex of the sequence a: exterior powers of Q^len(a),
    d(e_S) = sum over i in S of +-a_i e_(S - i).  It is exact over Q
    whenever some a_i is nonzero."""
    n = len(a)
    labels = {k: list(combinations(range(n), k)) for k in range(n + 1)}
    diffs = {}
    for k in range(1, n + 1):
        rpos = {s: r for r, s in enumerate(labels[k - 1])}
        entries = {}
        for c, s in enumerate(labels[k]):
            for pos, i in enumerate(s):
                entries[(rpos[s[:pos] + s[pos + 1:]], c)] = (-1) ** pos * a[i]
        diffs[k] = SparseMatrix(field, len(labels[k - 1]), len(labels[k]),
                                entries)
    return ChainComplex(field, {k: len(labels[k]) for k in labels}, diffs)


def _exact_dims(cx, max_degree):
    ranks = {n: rank(d) for n, d in cx.diffs.items() if n <= max_degree + 1}
    return [cx.dim(n) - ranks.get(n, 0) - ranks.get(n + 1, 0)
            for n in range(max_degree + 1)]


def _ranked_fields(monkeypatch):
    """The field of every matrix that homology ranks from now on."""
    fields = []

    def counted(m, **kw):
        fields.append(m.field)
        return rank(m, **kw)

    monkeypatch.setattr(homology, "rank", counted)
    return fields


def test_integral_complex_is_certified_modulo_the_prime(monkeypatch):
    rng = random.Random(31)
    a = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(4)]
    cx = _koszul(a)
    want = _exact_dims(cx, 3)
    fields = _ranked_fields(monkeypatch)
    assert cx.homology_dims(3) == want == [0, 0, 0, 0]
    assert fields == [GF(RANK_PRIME)] * 4


def test_rank_drop_modulo_the_prime_takes_the_exact_ranks(monkeypatch):
    rng = random.Random(32)
    a = [RANK_PRIME] + [RANK_PRIME * rng.randint(-9, 9) for _ in range(2)]
    cx = _koszul(a)
    want = _exact_dims(cx, 2)
    fields = _ranked_fields(monkeypatch)
    assert cx.homology_dims(2) == want == [0, 0, 0]
    assert fields == [GF(RANK_PRIME)] * 3 + [QQ] * 3


def test_non_integral_entry_takes_the_exact_ranks(monkeypatch):
    rng = random.Random(33)
    a = [Fraction(1, 2)] + [rng.randint(-9, 9) for _ in range(2)]
    cx = _koszul(a)
    want = _exact_dims(cx, 2)
    fields = _ranked_fields(monkeypatch)
    assert cx.homology_dims(2) == want == [0, 0, 0]
    assert fields == [QQ] * 3


def test_one_fraction_in_the_top_differential_takes_the_exact_ranks(
        monkeypatch):
    # the entries are reduced mod p in one pass that stops at the first
    # entry that is not an int; the ranks then run over Q
    rng = random.Random(36)
    cx = _koszul([rng.randint(1, 9) for _ in range(3)])
    top = cx.diffs[3]
    r = next(iter(top.cols[0]))
    top.cols[0][r] = Fraction(top.cols[0][r])    # same value, not an int
    want = _exact_dims(cx, 2)
    fields = _ranked_fields(monkeypatch)
    assert cx.homology_dims(2) == want == [0, 0, 0]
    assert homology._mod_prime(top) is None
    assert fields[-3:] == [QQ] * 3 and len(fields) == 5


def test_degree_zero_alone_is_ranked_exactly(monkeypatch):
    rng = random.Random(34)
    cx = _koszul([RANK_PRIME * rng.randint(1, 9) for _ in range(2)])
    fields = _ranked_fields(monkeypatch)
    # Mod p the differential vanishes, so H_0 would read 1 instead of 0.
    assert cx.homology_dims(0) == [0]
    assert fields == [QQ]


def test_d_squared_nonzero_is_never_certified(monkeypatch):
    rng = random.Random(35)
    d1 = SparseMatrix.from_dense(QQ, [[rng.randint(1, 5) for _ in range(2)]])
    d2 = SparseMatrix.from_dense(QQ, [[rng.randint(1, 5)] for _ in range(2)])
    cx = ChainComplex(QQ, {0: 1, 1: 2, 2: 1}, {1: d1, 2: d2})
    fields = _ranked_fields(monkeypatch)
    # Mod p the rank formula reads [0, 0] too, which would pass for a
    # certificate if d^2 = 0 were not checked first.
    assert cx.homology_dims(1) == _exact_dims(cx, 1) == [0, 0]
    assert not cx.d2_zero()
    assert fields == [QQ] * 2


def test_d_squared_is_multiplied_once_per_complex(monkeypatch):
    # d^2 is evaluated pair by pair: d_n annihilates d_(n+1) is asked once
    # for each pair, for the whole complex, however often it is asked, and
    # no product matrix and no apply call is made.
    cx = _koszul([2, 3, 5])
    asked = []
    annihilates = SparseMatrix.annihilates

    def counted(a, b):
        asked.append((a, b))
        return annihilates(a, b)

    def refuse(*args):
        raise AssertionError("d^2 built a product or applied a column")

    monkeypatch.setattr(SparseMatrix, "annihilates", counted)
    monkeypatch.setattr(SparseMatrix, "apply", refuse)
    monkeypatch.setattr(SparseMatrix, "__mul__", refuse)
    assert cx.homology_dims(2) == [0, 0, 0]
    assert cx.d2_zero() and cx.d2_zero()
    assert asked == [(cx.diffs[1], cx.diffs[2]), (cx.diffs[2], cx.diffs[3])]


@pytest.mark.parametrize("module", ["B", "regular"])
def test_s3_rational_homology_never_reaches_fractions(monkeypatch, module):
    s3 = build_named_group("S3")
    v = b_module(s3, QQ) if module == "B" else regular_module(s3, QQ)
    want = {"B": [15, 0, 0, 0], "regular": [32, 0, 0, 0]}[module]
    if module == "B":
        assert _exact_dims(_transported_complex(v, 4, HOMOLOGY_SIZE_CAP),
                           3) == want
    fields = _ranked_fields(monkeypatch)
    for fn in (partial_homology, partial_cohomology):
        report = fn(s3, v, max_degree=3, cap=10 ** 6)
        assert report.dims == want
        assert report.checks == {"d2_zero": True, "homotopy_id": True}
    assert fields and set(fields) == {GF(RANK_PRIME)}

import hashlib
from random import Random

import pytest

from elimination_quotient import elimination_quotient, ideal_generators
from elimination_span import EliminationSpan
from union_find_span import UnionFindSpan
from parh import zcase
from parh.exel import AlgebraElement, PartialGroupAlgebra, SElement
from parh.groups import INTEGERS, build_named_group
from parh.linalg import GF, QQ, Eliminator, SizeCapError
from span_oracles import in_span, subspace_equal
from window_space import WindowEscapeError, WindowSpace, root_residue
from parh.zcase import (
    CancellationResult,
    VkSpan,
    cancellation_decompose,
    cancellation_reconstructs,
    combine_idempotents,
    f_element,
    ig_decompose,
    k_tensor_ig_vanishes,
    level_span_rank,
    orthogonal_parts,
    quotient_check,
    random_b_idempotent,
    random_cancellation_instance,
    random_ig_element,
    verify_f_relations,
    window_basis,
    window_size,
)

ZALG = PartialGroupAlgebra(INTEGERS, QQ)


def _f(i, field=QQ):
    return f_element(i, field)


def _contains(span, x):
    """Whether x lies in a level span (``VkSpan`` or an oracle): its
    residue, the component sums of its window column, is zero.  A
    ``VkSpan`` stores no coordinates, so x is written down in a window
    space of the span's bound and summed onto ``span.root``."""
    if isinstance(span, VkSpan):
        space = WindowSpace(x.field, span.bound)
        return not root_residue(span, space, space.column(x))
    return not span.residue_column(span.space.column(x))


# ---------------------------------------------------------------------------
# Generators and relations.


def test_f_zero_vanishes():
    assert _f(0).is_zero()


def test_f_one_canonical_form():
    pair = SElement(INTEGERS, (0, 1), 1)
    flat = SElement(INTEGERS, (0, 1), 0)
    assert _f(1).coeffs == {pair: QQ.one, flat: QQ.of(-1)}


def test_f_accepts_group_elements():
    c3 = build_named_group("C3")
    g = c3.elements[1]
    alg = PartialGroupAlgebra(c3, QQ)
    assert f_element(g) == alg.bracket(1) - alg.idem(1)
    with pytest.raises(TypeError):
        f_element("g")


def test_f_augmentation_zero():
    for i in range(-5, 6):
        assert _f(i).augmentation().is_zero()


def test_basic_relation_spot_value():
    # e_1 f_2 has the two-term canonical form with member set {0, 1, 2}.
    both = SElement(INTEGERS, (0, 1, 2), 2)
    flat = SElement(INTEGERS, (0, 1, 2), 0)
    lhs = ZALG.idem(1) * _f(2)
    assert lhs.coeffs == {both: QQ.one, flat: QQ.of(-1)}
    assert lhs == ZALG.idem(2) * _f(1) + ZALG.bracket(1) * _f(1)


def test_relation_degenerates_at_zero():
    for j in (-2, 1, 3):
        assert ZALG.idem(0) * _f(j) == _f(j)
        assert ZALG.bracket(0) * _f(j) == _f(j)


def test_verify_f_relations_bound_five():
    report = verify_f_relations(5)
    assert report["ok"]
    assert report["failures"] == []
    assert report["checked"] == 22 + 2 * 121


def test_verify_f_relations_modular():
    assert verify_f_relations(3, GF(5))["ok"]


def test_verify_f_relations_rejects_bad_bound():
    with pytest.raises(ValueError):
        verify_f_relations(0)


# ---------------------------------------------------------------------------
# Idempotent combination.


def test_combine_single_is_identity_map():
    e = ZALG.idem(2)
    assert combine_idempotents([e]) == e


def test_combine_absorbs_duplicates():
    e = ZALG.idem(1)
    assert combine_idempotents([e, e]) == e


def test_combine_two_formula_and_span():
    e1, e2 = ZALG.idem(1), ZALG.idem(2)
    e = combine_idempotents([e1, e2])
    assert e == e1 + (ZALG.one() - e1) * e2
    assert e * e == e
    space = WindowSpace(QQ, 3)
    mults = [ZALG.monomial(s) for s in window_basis(3) if s.g == 0]
    joint = [space.column(b * e) for b in mults]
    split = [space.column(b * e1) for b in mults]
    split += [space.column(b * e2) for b in mults]
    assert subspace_equal(joint, split, QQ)


def test_orthogonal_parts_mutually_annihilate():
    rng = Random(3)
    for group in (INTEGERS, build_named_group("C2xC2")):
        es = [random_b_idempotent(rng, group) for _ in range(3)]
        parts = orthogonal_parts(es)
        for i, p in enumerate(parts):
            assert p * p == p
            for q in parts[i + 1:]:
                assert (p * q).is_zero()
        assert combine_idempotents(es) == sum(parts[1:], parts[0])


def test_combine_rejects_non_idempotent():
    with pytest.raises(ValueError):
        combine_idempotents([ZALG.bracket(1)])
    with pytest.raises(ValueError):
        combine_idempotents([])


def test_non_commuting_idempotents_are_rejected():
    # x = P + P[1]Q is an idempotent outside B that does not commute
    # with P, so the pairwise products must be formed and must fail
    c3 = PartialGroupAlgebra(build_named_group("C3"), QQ)
    p = c3.primitive_idempotent((0, 1))
    q = c3.primitive_idempotent((0, 2))
    x = p + p * c3.bracket(1) * q
    assert x * x == x and not x.is_in_b() and p * x != x * p
    with pytest.raises(ValueError, match="do not commute"):
        cancellation_decompose([p, x], [c3.zero(), c3.zero()])
    with pytest.raises(ValueError, match="do not commute"):
        combine_idempotents([p, x])


def _counted_products(monkeypatch):
    calls = []
    mul = AlgebraElement.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    return calls


def _is_monomial_idempotent(x):
    return (len(x.coeffs) == 1 and list(x.coeffs.values()) == [1]
            and next(iter(x.coeffs)).g == x.group.identity_index)


def test_idempotents_in_b_are_squared_only(monkeypatch):
    # B is commutative, so inputs in B need no commutation products, and a
    # monomial idempotent (A, 1) is idempotent by the product rule
    es = [random_b_idempotent(Random(seed)) for seed in range(4)]
    assert all(e.is_in_b() for e in es)
    squared = sum(not _is_monomial_idempotent(e) for e in es)
    assert 0 < squared < len(es)
    calls = _counted_products(monkeypatch)
    zcase._check_commuting_idempotents(es)
    assert len(calls) == squared


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_only_monomial_idempotents_skip_the_square(monkeypatch, field):
    alg = PartialGroupAlgebra(build_named_group("C3"), field)
    mono = alg.monomial(SElement(alg.group, (1,), 0))
    doubled = alg.monomial(SElement(alg.group, (1,), 0), 2)
    bracket = alg.monomial(SElement(alg.group, (2,), 1))
    calls = _counted_products(monkeypatch)
    zcase._check_commuting_idempotents([mono, alg.one()])
    assert calls == []
    for bad in (doubled, bracket):
        with pytest.raises(ValueError, match="not an idempotent"):
            zcase._check_commuting_idempotents([mono, bad])
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Skew-symmetric cancellation.


def test_cancellation_base_case_matches_derivation():
    c2 = build_named_group("C2")
    alg = PartialGroupAlgebra(c2, QQ)
    ea = alg.idem(1)
    es = [ea, ea]
    rs = [alg.one(), -alg.one()]
    result = cancellation_decompose(es, rs)
    # a = (e_a, -e_a), q_1 = e_a: M[1][0] = a_2 q_1 = -e_a, b_i = r_i - a_i
    assert result.matrix[0][1] == ea
    assert result.matrix[1][0] == -ea
    assert result.matrix[0][0].is_zero() and result.matrix[1][1].is_zero()
    assert result.b == (alg.one() - ea, ea - alg.one())
    assert result.skew_symmetric()
    assert cancellation_reconstructs(es, rs, result)
    # reconstruction of the first slot: 1 = e_a * e_a + b_1 (1 - e_a)
    assert result.matrix[0][1] * ea + result.b[0] * (alg.one() - ea) == alg.one()


def test_cancellation_zero_coefficients():
    es = [ZALG.idem(1), ZALG.idem(2), ZALG.idem(1) * ZALG.idem(3)]
    rs = [ZALG.zero()] * 3
    result = cancellation_decompose(es, rs)
    assert all(x.is_zero() for row in result.matrix for x in row)
    assert all(x.is_zero() for x in result.b)


def test_cancellation_empty():
    assert cancellation_decompose([], []) == CancellationResult((), ())


def test_cancellation_rejects_bad_input():
    e = ZALG.idem(1)
    with pytest.raises(ValueError):
        cancellation_decompose([e], [ZALG.one(), ZALG.one()])
    with pytest.raises(ValueError):
        cancellation_decompose([ZALG.bracket(1)], [ZALG.zero()])
    with pytest.raises(ValueError):
        cancellation_decompose([e], [ZALG.one()])  # 1 * e_1 != 0


@pytest.mark.parametrize("ring", ["Z", "C2", "C3"])
def test_cancellation_random_instances(ring):
    group = INTEGERS if ring == "Z" else build_named_group(ring)
    rng = Random(11)
    for trial in range(15):
        k = rng.randint(1, 5)
        es, rs = random_cancellation_instance(rng, k, group)
        result = cancellation_decompose(es, rs)
        assert result.skew_symmetric(), (ring, trial)
        assert cancellation_reconstructs(es, rs, result), (ring, trial)


@pytest.mark.parametrize("ring", ["Z", "S3"])
def test_cancellation_forms_no_product_with_a_zero_operand(monkeypatch, ring):
    # a zero operand is its own product, so no product is formed for it
    group = INTEGERS if ring == "Z" else build_named_group(ring)
    rng = Random(647892279)
    zero_operands = []
    mul = AlgebraElement.__mul__

    def counted(self, other):
        if self.is_zero() or other.is_zero():
            zero_operands.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    for trial in range(30):
        es, rs = random_cancellation_instance(rng, rng.randint(1, 5), group)
        result = cancellation_decompose(es, rs)
        assert cancellation_reconstructs(es, rs, result), (ring, trial)
    assert zero_operands == []


@pytest.mark.parametrize("ring", ["Z", "S3"])
def test_cancellation_forms_a_quadratic_number_of_products(monkeypatch, ring):
    # k squares, k products a_i = r_i e_i, under 2k for the orthogonal parts
    # and one product per pair for M; the reconstruction check is not counted
    group = INTEGERS if ring == "Z" else build_named_group(ring)
    rng = Random(20)
    calls, checked = [], []
    mul = AlgebraElement.__mul__
    reconstructs = zcase.cancellation_reconstructs

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    def uncounted(es, rs, result):
        before = len(calls)
        ok = reconstructs(es, rs, result)
        del calls[before:]
        checked.append(ok)
        return ok

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    monkeypatch.setattr(zcase, "cancellation_reconstructs", uncounted)
    for k in range(1, 6):
        for trial in range(8):
            es, rs = random_cancellation_instance(rng, k, group)
            calls.clear()
            checked.clear()
            cancellation_decompose(es, rs)
            assert checked == [True], (ring, k, trial)
            assert len(calls) <= 4 * k + k * (k - 1) // 2, (ring, k, trial)


def test_cancellation_sampler_is_deterministic():
    a = random_cancellation_instance(Random(7), 3)
    b = random_cancellation_instance(Random(7), 3)
    assert a == b


# sha256 of the rendered instances that `z cancellation` draws, pinned when
# the sampler formed r_i and its own check by repeated `+` of products:
# the default settings (200 instances, seed 0), the benchmark's (100
# instances) at three seeds, and four finite rings (C3 over F5 and S3
# over F2 pinned while elements were still stored on canonical pairs);
# with the generator's next 64 bits, so that every draw is made in order
_SAMPLER_DIGESTS = [
    ("Z", QQ, 200, 0,
     "5c65fdc2c7c4b2accc9650b55a99d545b559c567e504500eabfb3cad9ac2ee0b",
     2207648314819559626),
    ("Z", QQ, 100, 1,
     "e306cd7843b57e32505c7126bdf8cdfa4fc5ddc90ba9011327593d8472c13ac7",
     17349321140732387568),
    ("Z", QQ, 100, 2,
     "44b4d802447e5fc51878c7a13f4e3fcdfea0d4eadb6547b44a20ac6fc8c352b0",
     5146568726808259161),
    ("Z", QQ, 100, 1234567,
     "909c56ee257dfcbf400ebec10ff644019ec1acc4b8e70fa10b33bc9b4cbc23fe",
     16533564134087047313),
    ("S3", GF(3), 50, 0,
     "e33833cba1794225fda521ad280a1c8020e6d4de12e33893b9cc1e339e92109f",
     15941490969506864475),
    ("C4", GF(2), 50, 7,
     "d0b1dd2935802f65b2a2ce4a817187a5897b4f1c8caf6ebdf1f897c07f6ef3bc",
     698587888996042957),
    ("C3", GF(5), 50, 2,
     "1f268dc0b3bdd0d72cc4e4f9525b2d6eeac08a7a94b7e430cded3e3711451e00",
     6135562333911229234),
    ("S3", GF(2), 30, 3,
     "53ad490a33ffcdbb25460813bff032cadc3c78a33f618883e517df3ed5eeb605",
     17722996555635990358),
]


@pytest.mark.parametrize("ring, field, count, seed, digest, after",
                         _SAMPLER_DIGESTS,
                         ids=[f"{r}-{f.name}-{c}-{s}"
                              for r, f, c, s, _, _ in _SAMPLER_DIGESTS])
def test_cancellation_sampler_draws_are_pinned(ring, field, count, seed,
                                               digest, after):
    # the draws of `z cancellation --ring R --count N --seed S` (max-k 5,
    # bound 3), which the command's output does not show
    group = INTEGERS if ring == "Z" else build_named_group(ring)
    rng = Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        k = rng.randint(1, 5)
        es, rs = random_cancellation_instance(rng, k, group, field, 3)
        for x in es + rs:
            h.update(x.render().encode() + b"\n")
        h.update(b"--\n")
    assert h.hexdigest() == digest
    assert rng.getrandbits(64) == after


# ---------------------------------------------------------------------------
# Windows.


def test_window_basis_counts():
    assert len(window_basis(0)) == 1
    assert len(window_basis(1)) == 8
    assert len(window_basis(2)) == 48


def test_window_basis_canonical():
    for s in window_basis(2):
        assert 0 in s.members and s.g in s.members
        assert all(abs(m) <= 2 for m in s.members)


def test_window_star_lands_in_doubled_window():
    # The window is not star-closed (({-1,0,1}, 1) stars out of bound 1),
    # but the star of a window element always fits in twice the bound and
    # starring twice returns the element.
    ws = set(window_basis(2))
    assert any(s.star() not in ws for s in ws)
    for s in ws:
        assert all(abs(m) <= 4 for m in s.star().members)
        assert s.star().star() == s


def test_window_basis_cap():
    with pytest.raises(SizeCapError):
        window_basis(12)


def test_window_space_escape_is_loud():
    space = WindowSpace(QQ, 1)
    with pytest.raises(WindowEscapeError):
        space.column(ZALG.idem(5))
    with pytest.raises(WindowEscapeError):
        space.column(ZALG.idem(-5))
    with pytest.raises(WindowEscapeError):
        space.index(SElement(INTEGERS, (-2,), 0))
    assert space.dim == 0
    col = space.column(_f(1))
    assert space.element(col) == _f(1)


# ---------------------------------------------------------------------------
# Level spans.


def test_vk_span_contains_both_signs():
    span = VkSpan(1, 6)
    assert _contains(span, _f(1))
    assert _contains(span, _f(-1))
    assert _contains(span, ZALG.zero())
    assert not _contains(span, _f(2))


def test_vk_span_contains_action_products():
    span = VkSpan(1, 4)
    x = ZALG.idem(1) * _f(2) - ZALG.idem(2) * _f(1)
    assert _contains(span, x)
    assert _contains(span, ZALG.bracket(1) * _f(1))


def test_vk_span_membership_outside_window_is_loud():
    span = VkSpan(1, 4)
    with pytest.raises(WindowEscapeError):
        _contains(span, _f(9))


def test_vk_span_cap_is_checked_before_any_product(monkeypatch):
    # the cap bounds the pairs that the rank count visits, at most
    # (2 mb + 1) k and k^2 + k, checked per loop before the count runs;
    # (4, 12), mb = 7, is refused on its 60 first-loop pairs though its
    # window holds 524 288 edges that nothing builds, and (5, 6), mb = 0,
    # on the 30 of the second loop
    def unreachable(*args):
        raise AssertionError("the level span did work before the cap check")

    monkeypatch.setattr(AlgebraElement, "__mul__", unreachable)
    monkeypatch.setattr(zcase, "level_span_rank", unreachable)
    for k, bound, cap, requested in ((4, 12, 59, 60), (5, 6, 29, 30)):
        with pytest.raises(SizeCapError) as info:
            VkSpan(k, bound, cap=cap)
        assert (info.value.limit, info.value.requested) == (cap, requested)


def test_vk_span_builds_without_products(monkeypatch):
    def no_products(self, other):
        raise AssertionError("the level span built an algebra product")

    monkeypatch.setattr(AlgebraElement, "__mul__", no_products)
    span = VkSpan(2, 8)
    assert span.rank == 5888
    assert len(span.columns) == 12288


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("k, bound, rank", [(1, 6, 768), (3, 8, 1760)],
                         ids=repr)
def test_vk_span_rank_is_independent_of_the_field(k, bound, rank, field):
    # VkSpan takes no field: both oracles, which do, reach its one rank
    # over each field; over F2 the edge orientation is invisible
    assert VkSpan(k, bound).rank == rank
    assert UnionFindSpan(k, bound, field).rank == rank
    assert EliminationSpan(k, bound, field).rank == rank


def test_vk_span_rows_registered_after_construction():
    span = VkSpan(1, 6)
    space = WindowSpace(QQ, span.bound)
    # member 6 lies beyond every edge, which reaches at most m + k = 5,
    # so its pairs are their own roots
    x = ZALG.idem(6)
    col = space.column(x)
    assert space.dim == 1
    assert root_residue(span, space, col) == col
    assert not _contains(span, x)
    assert _contains(span, ZALG.zero())


ORACLE_CASES = [(k, bound, field)
                for k in (1, 2)
                for bound in (k + 3, 2 * k + 4)
                for field in (QQ, GF(2))]
# k = 3 at bound 6: 144 columns, the one level above the benchmarked k = 2
ORACLE_CASES += [(3, 6, field) for field in (QQ, GF(2))]


@pytest.mark.parametrize("k, bound, field", ORACLE_CASES, ids=repr)
def test_union_find_oracle_edges_equal_products(k, bound, field):
    # the edge-by-edge oracle writes each r * f_j down as a signed edge;
    # every edge is the algebra product, and both oracles have one rank
    span = UnionFindSpan(k, bound, field)
    algebra = PartialGroupAlgebra(INTEGERS, field)
    fs = [_f(j, field) for j in range(1, k + 1)]
    products = [algebra.monomial(r) * f
                for r in window_basis(span.multiplier_bound) for f in fs]
    assert [span.space.element(col) for col in span.columns] == products
    assert span.rank == EliminationSpan(k, bound, field).rank


# every level k <= 3 at every bound from k + 1 to 2k + 5 whose edge count
# is under the default cap; (3, 11) holds 393 216 edges, and its rank is
# pinned by the count in test_level_span_rank_of_cap_lifted_windows
SPAN_CASES = [(k, bound)
              for k in (1, 2, 3) for bound in range(k + 1, 2 * k + 6)
              if window_size(bound - k - 1) * k <= zcase.Z_WINDOW_CAP]
# the elimination oracle forms every product; above this many it is slow
ELIMINATION_COLUMNS = 20_000


def _pair_probes(k, bound, field):
    """(B, h) - (B, g) on B = {0, g, h}, for every g < h in [-bound, bound]
    with h - g <= k + 1: one probe per edge of the window and per near
    miss, on both sides of 0 and across the multiplier bound."""
    algebra = PartialGroupAlgebra(INTEGERS, field)
    probes = []
    for g in range(-bound, bound + 1):
        for h in range(g + 1, min(g + k + 1, bound) + 1):
            members = {0, g, h}
            probes.append(algebra.monomial(SElement(INTEGERS, members, h))
                          - algebra.monomial(SElement(INTEGERS, members, g)))
    return probes


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("k, bound", SPAN_CASES, ids=repr)
def test_vk_span_matches_both_oracles(k, bound, field):
    span = VkSpan(k, bound)
    oracles = [UnionFindSpan(k, bound, field)]
    if len(span.columns) <= ELIMINATION_COLUMNS:
        oracles.append(EliminationSpan(k, bound, field))
    assert [o.rank for o in oracles] == [span.rank] * len(oracles)
    rng = Random(100 * k + bound)
    algebra = PartialGroupAlgebra(INTEGERS, field)
    samples = [random_ig_element(rng, bound, field) for _ in range(40)]
    fk1 = _f(k + 1, field)
    domain = window_basis(max(bound - 2 * k - 2, 0))
    samples += [algebra.monomial(r) * fk1 for r in domain]
    samples += _pair_probes(k, bound, field)
    verdicts = [_contains(span, x) for x in samples]
    for oracle in oracles:
        assert verdicts == [_contains(oracle, x) for x in samples]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("k, bound", SPAN_CASES, ids=repr)
def test_vk_span_roots_partition_like_union_find(k, bound):
    # on every vertex an edge touches, two vertices share a closed-form
    # root iff they share a union-find root
    oracle = UnionFindSpan(k, bound)
    span = VkSpan(k, bound)
    pairs = set()
    for (members, g), row in oracle.space.rows.items():
        pairs.add((oracle.root(row), (members, span.root(members, g))))
    uf_roots = {a for a, _ in pairs}
    assert len(pairs) == len(uf_roots) == len({b for _, b in pairs})
    assert len(oracle.space.rows) - len(pairs) == oracle.rank


# (k, bound, rank) measured on the edge-by-edge union-find with the cap
# lifted (ROADMAP, "the integer case on growing domains"); every window but
# (1, 8) is over the default cap
CAP_LIFTED_RANKS = [(1, 8, 16_384), (2, 10, 118_784), (3, 11, 155_648),
                    (3, 12, 679_936), (4, 12, 193_536), (5, 14, 1_009_664)]


@pytest.mark.parametrize("k, bound, rank", CAP_LIFTED_RANKS, ids=repr)
def test_level_span_rank_of_cap_lifted_windows(k, bound, rank):
    assert level_span_rank(k, bound - k - 1) == rank
    span = VkSpan(k, bound, cap=10**7)
    assert span.rank == rank
    assert isinstance(span.columns, range)  # nothing was built


FIELDS = [QQ, GF(2), GF(3), GF(5)]
# (k, bound, cap): the least window of each level k <= 3, and two of
# domain bound 4 (1280 monomials), the second over the default cap
QUOTIENT_WINDOWS = [(k, 2 * k + 4, zcase.Z_WINDOW_CAP) for k in (1, 2, 3)]
QUOTIENT_WINDOWS += [(1, 8, 10**7), (2, 10, 10**7)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("k, bound, cap", QUOTIENT_WINDOWS, ids=repr)
def test_quotient_check_matches_elimination_oracle(k, bound, cap, field):
    # the whole report, violations included, against products, a residue
    # matrix, its kernel_basis and an Eliminator
    report, _, _ = elimination_quotient(k, bound, field, cap=cap)
    assert quotient_check(k, bound, field, cap) == report


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("k, bound, cap", QUOTIENT_WINDOWS, ids=repr)
def test_residue_edges_are_the_products(k, bound, cap, field):
    # the fact quotient_check rests on: r f_(k+1) = (B, m+k+1) - (B, m)
    # with B = A + {m+k+1}, for every domain monomial r = (A, m)
    algebra = PartialGroupAlgebra(INTEGERS, field)
    fk1 = _f(k + 1, field)
    for r in window_basis(bound - 2 * k - 2, cap):
        head = r.g + k + 1
        b = set(r.members) | {head}
        edge = (algebra.monomial(SElement(INTEGERS, b, head))
                - algebra.monomial(SElement(INTEGERS, b, r.g)))
        assert algebra.monomial(r) * fk1 == edge, r.render()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=lambda f: f.name)
def test_ideal_products_render_as_their_pairs(field):
    # _ideal_products writes r (1 - e_(k+1)), r e_1, ..., r e_k down as
    # the algebra products, and an s2_in_s1 violation renders the pair
    # r e_i as the product y = r e_i renders itself
    algebra = PartialGroupAlgebra(INTEGERS, field)

    def element(terms):
        signs = [field.one, field.neg(field.one)]
        return sum((algebra.monomial(SElement(INTEGERS, *v), c)
                    for v, c in zip(terms, signs)), algebra.zero())

    for k in (1, 2, 3):
        for r in window_basis(2):
            ys = zcase._ideal_products(k, r.members, r.g, 2)
            gens = ideal_generators(k, field)
            assert [element(y) for y in ys] == [
                algebra.monomial(r) * z for z in gens]
            for (pair,), z in zip(ys[1:], gens[1:]):
                y = algebra.monomial(r) * z
                assert y.render() == SElement(INTEGERS, *pair).render()


@pytest.mark.parametrize("k, bound, field, cap, dims", [
    (2, 8, QQ, zcase.Z_WINDOW_CAP, (48, 5888, 32)),
    (2, 8, GF(3), zcase.Z_WINDOW_CAP, (48, 5888, 32)),
    (3, 12, QQ, 10**7, (1280, 679_936, 1008))], ids=repr)
def test_quotient_check_forms_no_product_and_no_elimination(
        monkeypatch, k, bound, field, cap, dims):
    def refuse(*args):
        raise AssertionError("quotient_check formed a product or eliminated")

    monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
    monkeypatch.setattr(Eliminator, "add", refuse)
    monkeypatch.setattr(Eliminator, "reduce", refuse)
    report = quotient_check(k, bound, field, cap)
    assert report["ok"] and report["violations"] == []
    domain_dim, vk_rank, s1 = dims
    assert (report["domain_dim"], report["vk_rank"], report["s1_dim"],
            report["s2_dim"]) == (domain_dim, vk_rank, s1, s1)


def test_vk_span_validation():
    with pytest.raises(ValueError):
        VkSpan(0, 6)
    with pytest.raises(ValueError):
        VkSpan(3, 3)


# ---------------------------------------------------------------------------
# The quotient description.


def test_quotient_check_level_one():
    report = quotient_check(1, 6)
    assert report["ok"]
    assert report["s2_in_s1"] and report["s1_in_s2"]
    assert report["violations"] == []
    assert report["domain_bound"] == 2
    assert report["s1_dim"] == report["s2_dim"] == 28


def test_quotient_check_level_two():
    report = quotient_check(2, 8)
    assert report["s2_in_s1"] and report["s1_in_s2"]
    assert report["violations"] == []


# (k, bound, domain_dim, s1 = s2): the windows of CAP_LIFTED_RANKS, whose
# dimensions were measured on the edge-by-edge union-find
@pytest.mark.parametrize("k, bound, domain_dim, s1", [
    (1, 8, 1280, 832), (2, 10, 1280, 960), (3, 11, 256, 192),
    (3, 12, 1280, 1008), (4, 12, 48, 32), (5, 14, 48, 32)], ids=repr)
def test_quotient_check_on_cap_lifted_windows(k, bound, domain_dim, s1):
    report = quotient_check(k, bound, cap=10**7)
    assert report["ok"] and report["violations"] == []
    assert (report["domain_dim"], report["s1_dim"], report["s2_dim"]) == (
        domain_dim, s1, s1)
    assert (k, bound, report["vk_rank"]) in CAP_LIFTED_RANKS


def _s2_in_s1_by_products(k, bound, field, gens):
    """The s2 elements y of ``quotient_check`` for ideal generators
    ``gens``, each with the verdict y f_(k+1) in V_k read off the product."""
    algebra = PartialGroupAlgebra(INTEGERS, field)
    span, fk1 = VkSpan(k, bound), _f(k + 1, field)
    domain = window_basis(bound - 2 * k - 2)
    inside = set(domain)
    out = []
    for r in domain:
        for z in gens(algebra):
            y = algebra.monomial(r) * z
            if not y.is_zero() and inside.issuperset(y.coeffs):
                out.append((y.render(), _contains(span, y * fk1)))
    return out


FAILURE_CASES = [(1, 6, QQ), (1, 6, GF(5)), (2, 8, QQ), (2, 8, GF(2)),
                 (2, 8, GF(3))]


@pytest.mark.parametrize("k, bound, field", FAILURE_CASES, ids=repr)
def test_quotient_check_s2_in_s1_by_linearity(monkeypatch, k, bound, field):
    # The verdict is read off the residue edge of each one-term s2
    # generator; it must agree with forming y f_(k+1) for every s2 element y.
    def ideal(algebra):
        return ideal_generators(k, algebra.field)

    verdicts = _s2_in_s1_by_products(k, bound, field, ideal)
    assert verdicts and all(ok for _, ok in verdicts)
    report = quotient_check(k, bound, field)
    assert report["s2_in_s1"] and report["ok"]
    # Perturbed: the bare r joins the generators, so the s2 vectors include
    # every domain monomial r, and exactly those with r f_(k+1) outside
    # V_k must be reported.
    def perturbed(algebra):
        return [algebra.one()] + ideal(algebra)

    want = {y for y, ok in _s2_in_s1_by_products(k, bound, field, perturbed)
            if not ok}
    assert want
    products = zcase._ideal_products
    monkeypatch.setattr(zcase, "_ideal_products",
                        lambda k, a, m, b: [((a, m),)] + products(k, a, m, b))
    report = quotient_check(k, bound, field)
    assert not report["s2_in_s1"] and not report["ok"]
    assert {v["element"] for v in report["violations"]
            if v["direction"] == "s2_in_s1"} == want
    gens = perturbed(PartialGroupAlgebra(INTEGERS, field))
    assert report == elimination_quotient(k, bound, field, gens)[0]


@pytest.mark.parametrize("k, bound, field", FAILURE_CASES, ids=repr)
def test_quotient_check_s1_in_s2_witnesses(monkeypatch, k, bound, field):
    # Perturbed: every r e_1 leaves the generators, so S2 shrinks below S1
    # and each reported witness lies in S1 and outside S2.
    products = zcase._ideal_products

    def without_e1(k, a, m, b):
        ys = products(k, a, m, b)
        del ys[1]
        return ys

    monkeypatch.setattr(zcase, "_ideal_products", without_e1)
    report = quotient_check(k, bound, field)
    gens = ideal_generators(k, field)
    del gens[1]
    oracle, s2, witnesses = elimination_quotient(k, bound, field, gens)
    assert report == oracle
    assert report["s2_in_s1"] and not report["s1_in_s2"]
    assert len(witnesses) == len(report["violations"]) > 0
    span, fk1 = VkSpan(k, bound), _f(k + 1, field)
    space = WindowSpace(field, bound)
    s2_cols = [space.column(y) for y in s2]
    for x in witnesses:
        assert _contains(span, x * fk1)
        assert in_span(space.column(x), s2_cols, field) is None


def test_quotient_check_forms_no_ideal_product_outside_the_domain(
        monkeypatch):
    # r e_i with i > 2 db puts m + i outside the domain window, so at a
    # large k each domain monomial adjoins once for R, once for
    # r (1 - e_(k+1)) and at most 2 db times for the r e_i, not k + 2
    # times; the report is the one with every product formed
    k, bound = 40, 84
    calls = []
    adjoin, products = zcase._adjoin, zcase._ideal_products

    def counted(members, x):
        calls.append(x)
        return adjoin(members, x)

    monkeypatch.setattr(zcase, "_adjoin", counted)
    report = quotient_check(k, bound)
    assert report["ok"] and report["domain_dim"] == 48
    assert len(calls) <= 48 * (2 + 2 * 2)
    monkeypatch.setattr(zcase, "_ideal_products",
                        lambda k, a, m, b: products(k, a, m, k))
    calls.clear()
    assert quotient_check(k, bound) == report
    assert len(calls) > 48 * k


def test_quotient_check_raises_if_r_keeps_a_two_term_generator(monkeypatch):
    # r - r e_1 = (A, m) - (A + {m+1}, m) is not killed by R when m+1 is
    # not in A; a two-term generator must be, so the check raises
    products = zcase._ideal_products
    monkeypatch.setattr(zcase, "_ideal_products", lambda k, a, m, b: [
        ((a, m), y) for (y,) in products(k, a, m, b)[1:2]])
    with pytest.raises(RuntimeError, match="does not kill"):
        quotient_check(1, 6)


def test_quotient_spot_memberships():
    span = VkSpan(1, 6)
    assert _contains(span, ZALG.idem(1) * _f(2))
    assert ((ZALG.one() - ZALG.idem(2)) * _f(2)).is_zero()
    # the generator [1] is in neither subspace
    assert not _contains(span, ZALG.bracket(1) * _f(2))
    domain = window_basis(2)
    space = WindowSpace(QQ, 2)
    gens = []
    zs = [ZALG.one() - ZALG.idem(2), ZALG.idem(1)]
    for r in domain:
        for z in zs:
            y = ZALG.monomial(r) * z
            if not y.is_zero() and all(abs(m) <= 2 for s in y.coeffs for m in s.members):
                gens.append(space.column(y))
    assert in_span(space.column(ZALG.bracket(1)), gens, QQ) is None


def test_quotient_check_modular():
    assert quotient_check(1, 6, GF(5))["ok"]


def test_quotient_check_validation():
    with pytest.raises(ValueError):
        quotient_check(0, 10)
    with pytest.raises(ValueError):
        quotient_check(1, 5)


# ---------------------------------------------------------------------------
# Decomposition over the f generators.


def test_ig_decompose_single_generator():
    out = ig_decompose(_f(1))
    assert set(out) == {1}
    assert out[1] == ZALG.idem(1)


def test_ig_decompose_length_two_product():
    x = ZALG.bracket(1) * ZALG.bracket(2) - ZALG.idem(1) * ZALG.idem(3)
    out = ig_decompose(x)
    assert set(out) == {3}
    assert out[3] == ZALG.idem(1) * ZALG.idem(3)


def test_ig_decompose_zero_and_errors():
    assert ig_decompose(ZALG.zero()) == {}
    with pytest.raises(ValueError):
        ig_decompose(ZALG.idem(1))


def test_ig_decompose_finite_group():
    c3 = build_named_group("C3")
    alg = PartialGroupAlgebra(c3, GF(2))
    x = alg.bracket(1) * alg.bracket(1) - alg.idem(1) * alg.idem(2)
    out = ig_decompose(x)
    total = alg.zero()
    for g, b in out.items():
        total = total + b * f_element(c3.element(g), GF(2))
    assert total == x


def test_ig_decompose_roundtrip_seeded():
    rng = Random(5)
    for _ in range(30):
        x = random_ig_element(rng)
        out = ig_decompose(x)
        total = ZALG.zero()
        for g, b in out.items():
            assert b.is_in_b()
            assert b * ZALG.idem(g) == b
            total = total + b * _f(g)
        assert total == x


def test_k_tensor_ig_vanishes():
    report = k_tensor_ig_vanishes(5)
    assert report["ok"] and report["checked"] == 10
    with pytest.raises(ValueError):
        k_tensor_ig_vanishes(0)

"""Property tests of the canonical pair kernel, drawn by Hypothesis.

The product rule (A, g)(B, h) = (A union gB, gh) is compared with the
twisted-product oracle on the integers (members in [-6, 6]) and on all
nine built-in groups, and the algebraic laws every semigroup of canonical
pairs obeys are checked on the same draws.  The algebra product, negation
and difference are compared with their term-by-term routes (``s_mul``
products summed by ``accumulate``, and the coercing constructor) over Q,
F2, F3 and F5, and the fused sum of products with the sum of single
products.  On the integers the kernel is also run on members near
+-2^61, where a mask would need 2^61 bits: it must agree with ``s_mul``,
raise where it raises, and allocate little.
Examples are derandomized, so every run sees the same inputs.
"""

import tracemalloc
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from parh.exel import (
    AlgebraElement,
    PartialGroupAlgebra,
    SElement,
    _sum_of_products,
    s_mul,
)
from parh.groups import (INTEGERS, NAMED_GROUP_NAMES, GroupError,
                         build_named_group)
from parh.linalg import GF, QQ, accumulate
from twisted_product import as_skew, skew_mul

GROUPS = {"Z": INTEGERS} | {name: build_named_group(name)
                            for name in NAMED_GROUP_NAMES}

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


def elements(group):
    if group is INTEGERS:
        return st.integers(-6, 6)
    return st.integers(0, group.order - 1)


def pairs(group):
    """Canonical pairs through the public constructor, which adjoins 1, g."""
    members = elements(group)
    return st.builds(lambda a, g: SElement(group, a, g),
                     st.frozensets(members, max_size=5), members)


def group_and_pairs(n):
    return st.sampled_from(sorted(GROUPS)).flatmap(
        lambda name: st.tuples(*[pairs(GROUPS[name])] * n))


@PROPERTY
@given(group_and_pairs(2))
def test_product_matches_twisted_oracle(xy):
    x, y = xy
    direct = s_mul(x, y)
    twisted = skew_mul(as_skew(x), as_skew(y))
    assert twisted.canonical_pair() == (direct.members, direct.g)


@PROPERTY
@given(group_and_pairs(3))
def test_product_is_associative(xyz):
    x, y, z = xyz
    assert s_mul(s_mul(x, y), z) == s_mul(x, s_mul(y, z))


@PROPERTY
@given(group_and_pairs(1))
def test_star_is_a_pseudo_inverse(xs):
    (x,) = xs
    assert s_mul(s_mul(x, x.star()), x) == x
    assert x.star().star() == x


@PROPERTY
@given(group_and_pairs(2), st.randoms(use_true_random=False))
def test_product_and_constructor_give_one_key(xy, rng):
    x, y = xy
    product = s_mul(x, y)
    shuffled = list(product.members)
    rng.shuffle(shuffled)
    rebuilt = SElement(product.group, shuffled, product.g)
    assert rebuilt == product and product == rebuilt
    assert hash(rebuilt) == hash(product)
    assert hash(product) == hash((id(product.group), product.members,
                                  product.g))
    assert len({product: 1, rebuilt: 2}) == 1
    assert accumulate(QQ, [(product, 1), (rebuilt, 2)]) == {product: 3}


# --- algebra elements -------------------------------------------------------

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


def small_elements(group):
    """Few members, so that products of terms often share a key."""
    if group is INTEGERS:
        return st.integers(-1, 1)
    return st.integers(0, min(group.order, 4) - 1)


def algebra_elements(group, field):
    members = small_elements(group)
    pair = st.builds(lambda a, g: SElement(group, a, g),
                     st.frozensets(members, max_size=2), members)
    coeff = st.integers(-2, 2)
    if field.char == 0:
        coeff = coeff | st.builds(Fraction, st.integers(-2, 2),
                                  st.integers(1, 3))
    return st.lists(st.tuples(pair, coeff), max_size=5).map(
        lambda terms: AlgebraElement(group, field, dict(terms)))


def ring_and_elements(n):
    return st.tuples(st.sampled_from(sorted(GROUPS)),
                     st.sampled_from(sorted(FIELDS))).flatmap(
        lambda gf: st.tuples(*[algebra_elements(GROUPS[gf[0]],
                                                FIELDS[gf[1]])] * n))


def termwise_product(x, y):
    return accumulate(x.field, ((s_mul(s, t), c * d)
                                for s, c in x.coeffs.items()
                                for t, d in y.coeffs.items()))


def constructor_negation(x):
    f = x.field
    return AlgebraElement(x.group, f, {s: f.neg(c)
                                       for s, c in x.coeffs.items()}).coeffs


def assert_same_terms(got, want):
    assert got == want
    assert list(got) == list(want)


@PROPERTY
@given(ring_and_elements(2))
def test_algebra_product_matches_termwise_route(xy):
    x, y = xy
    assert_same_terms((x * y).coeffs, termwise_product(x, y))


@PROPERTY
@given(ring_and_elements(2))
def test_negation_and_difference_match_constructor_route(xy):
    x, y = xy
    assert_same_terms((-x).coeffs, constructor_negation(x))
    assert_same_terms((x - y).coeffs, accumulate(x.field, list(
        x.coeffs.items()) + list(constructor_negation(y).items())))


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_product_key_that_cancels_comes_back_last(group, field):
    # (1 - e_g)(e_g + 1): e_g gets 1, cancels to 0 and is dropped, then
    # comes back after the unit, so the unit is the first key
    algebra = PartialGroupAlgebra(GROUPS[group], FIELDS[field])
    one, e = algebra.one(), algebra.idem(1)
    x, y = one - e, e + one
    product = x * y
    assert_same_terms(product.coeffs, termwise_product(x, y))
    assert list(product.coeffs) == list(x.coeffs)
    assert product == x


# --- the fused sum of products -------------------------------------------

FUSED_GROUPS = ("Z", "S3")
FUSED_FIELDS = ("Q", "F2", "F3")


def product_lists(group, field):
    """Up to four pairs, each possibly followed by its negation, so that
    whole products cancel; operands may be zero and carry brackets."""
    element = algebra_elements(group, field)
    pair = st.tuples(element, element, st.booleans())
    return st.lists(pair, max_size=4).map(lambda drawn: [
        p for x, y, cancel in drawn
        for p in ([(x, y), (-x, y)] if cancel else [(x, y)])])


@PROPERTY
@given(st.tuples(st.sampled_from(sorted(GROUPS)),
                 st.sampled_from(FUSED_FIELDS)).flatmap(
    lambda gf: st.tuples(st.just(gf), product_lists(GROUPS[gf[0]],
                                                    FIELDS[gf[1]]))))
def test_sum_of_products_matches_sum_of_products(drawn):
    (group, field), pairs = drawn
    group, field = GROUPS[group], FIELDS[field]
    want = AlgebraElement(group, field)
    for x, y in pairs:
        want = want + x * y
    got = _sum_of_products(group, field, pairs)
    assert got == want
    assert got.coeffs == accumulate(field, (
        (s_mul(s, t), c * d) for x, y in pairs
        for s, c in x.coeffs.items() for t, d in y.coeffs.items()))
    assert got.group is group and got.field == field
    assert all(c and c == field.of(c) for c in got.coeffs.values())


@pytest.mark.parametrize("field", FUSED_FIELDS)
@pytest.mark.parametrize("group", FUSED_GROUPS)
def test_sum_of_products_edge_cases(group, field):
    algebra = PartialGroupAlgebra(GROUPS[group], FIELDS[field])
    grp, f = algebra.group, algebra.field
    x = algebra.bracket(1) + algebra.idem(2)
    y = algebra.one() - algebra.bracket(2)
    zero = algebra.zero()
    assert _sum_of_products(grp, f, []).is_zero()
    assert _sum_of_products(grp, f, [(zero, y), (x, zero)]).is_zero()
    assert _sum_of_products(grp, f, [(x, y), (-x, y)]).is_zero()
    assert _sum_of_products(grp, f, [(x, y), (zero, x)]) == x * y
    assert_same_terms(_sum_of_products(grp, f, [(x, y)]).coeffs,
                      termwise_product(x, y))


@pytest.mark.parametrize("other", ["group", "field"])
def test_sum_of_products_rejects_another_algebra(other):
    algebra = PartialGroupAlgebra(GROUPS["S3"], QQ)
    stranger = (PartialGroupAlgebra(INTEGERS, QQ) if other == "group"
                else PartialGroupAlgebra(GROUPS["S3"], GF(3)))
    x = algebra.bracket(1)
    for pairs in ([(x, stranger.bracket(1))], [(stranger.one(), x)],
                  [(x, x), (stranger.zero(), x)]):
        with pytest.raises(ValueError, match="different partial group"):
            _sum_of_products(algebra.group, algebra.field, pairs)


# --- wide spreads over the integers ------------------------------------------

WIDE = 2**61


def wide_members():
    """Members near 0, +2^61 and -2^61: sums of two far ones reach the
    2^62 bound of ``Integers``, either side."""
    return (st.integers(-3, 3) | st.integers(WIDE - 3, WIDE + 3)
            | st.integers(-WIDE - 3, -WIDE + 3))


def wide_elements(field):
    members = wide_members()
    pair = st.builds(lambda a, g: SElement(INTEGERS, a, g),
                     st.frozensets(members, max_size=3), members)
    return st.lists(st.tuples(pair, st.integers(1, 2)), min_size=1,
                    max_size=3).map(
        lambda terms: AlgebraElement(INTEGERS, field, dict(terms)))


def termwise_or_error(x, y):
    try:
        return termwise_product(x, y)
    except GroupError:
        return GroupError


@PROPERTY
@given(st.sampled_from(FUSED_FIELDS).flatmap(
    lambda f: st.tuples(wide_elements(FIELDS[f]), wide_elements(FIELDS[f]))))
def test_kernel_on_wide_integer_spreads_matches_s_mul(xy):
    x, y = xy
    want = termwise_or_error(x, y)
    tracemalloc.start()
    try:
        got = _sum_of_products(INTEGERS, x.field, [(x, y)]).coeffs
    except GroupError:
        got = GroupError
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert got == want
    assert peak < 1 << 20  # a mask of these members would take 2^58 bytes


@pytest.mark.parametrize("sign", [1, -1])
def test_translation_past_the_bound_raises_through_the_kernel(sign):
    algebra = PartialGroupAlgebra(INTEGERS, QQ)
    near = algebra.bracket(sign * (2**62 - 1))
    # [g] e_(+-1): g + (+-1) crosses the bound though g * 1 = g does not
    for y in (algebra.idem(sign), algebra.bracket(sign),
              algebra.one() + algebra.idem(sign)):
        with pytest.raises(GroupError):
            _sum_of_products(INTEGERS, QQ, [(near, y)])
    # the last representable member is still accepted
    assert _sum_of_products(INTEGERS, QQ, [(near, algebra.one())]) == near

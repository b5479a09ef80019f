"""Validate the canonical pair product against the twisted-product model.

The canonical rule (A, g)(B, h) = (A union gB, gh) is the workhorse of the
whole package, so it is checked here against an independently implemented
crossed-product rule that multiplies idempotent coefficients through the
partial translations.  The two computations share no code beyond the group
tables.
"""

import random

import pytest

from parh.exel import PartialGroupAlgebra, s_mul
from parh.groups import build_named_group
from twisted_product import (as_skew, evaluate_word, evaluate_word_skew,
                             s_generator, skew_generator, skew_mul,
                             skew_star)


def all_pairs(group):
    algebra = PartialGroupAlgebra(group)
    return algebra.canonical_basis()


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C2xC2"])
def test_product_matches_twisted_model_exhaustively(name):
    group = build_named_group(name)
    elems = all_pairs(group)
    for x in elems:
        for y in elems:
            direct = s_mul(x, y)
            twisted = skew_mul(as_skew(x), as_skew(y))
            assert twisted.canonical_pair() == (direct.members, direct.g)


def test_product_matches_twisted_model_sampled_s3():
    group = build_named_group("S3")
    elems = all_pairs(group)
    rng = random.Random(0)
    for _ in range(3000):
        x, y = rng.choice(elems), rng.choice(elems)
        direct = s_mul(x, y)
        twisted = skew_mul(as_skew(x), as_skew(y))
        assert twisted.canonical_pair() == (direct.members, direct.g)


@pytest.mark.parametrize("name", ["C3", "C2xC2", "S3"])
def test_words_agree_in_both_models(name):
    group = build_named_group(name)
    algebra = PartialGroupAlgebra(group)
    rng = random.Random(7)
    n = group.order
    for _ in range(200):
        word = [rng.randrange(n) for _ in range(rng.randint(0, 5))]
        folded = evaluate_word(algebra, word)
        (pair,) = folded.coeffs
        assert folded.coeffs[pair] == algebra.field.one
        twisted = evaluate_word_skew(group, word)
        assert twisted.canonical_pair() == (pair.members, pair.g)
        # closed form: members are 1 and the prefix products
        prefixes = []
        acc = 0
        for g in word:
            acc = group.mult(acc, g)
            prefixes.append(acc)
        expect = tuple(sorted({0, *prefixes}))
        assert pair.members == expect
        assert pair.g == (prefixes[-1] if prefixes else 0)


@pytest.mark.parametrize("name", ["C3", "C2xC2"])
def test_involution_matches_twisted_model(name):
    group = build_named_group(name)
    for x in all_pairs(group):
        direct = x.star()
        twisted = skew_star(as_skew(x))
        assert twisted.canonical_pair() == (direct.members, direct.g)


@pytest.mark.parametrize("name", ["C3", "C2xC2"])
def test_involution_is_a_pseudo_inverse(name):
    group = build_named_group(name)
    for x in all_pairs(group):
        assert s_mul(s_mul(x, x.star()), x) == x
        assert s_mul(s_mul(x.star(), x), x.star()) == x.star()
        assert x.star().star() == x


@pytest.mark.parametrize("name", ["C3", "C2xC2", "S3"])
def test_defining_relations_in_the_algebra(name):
    group = build_named_group(name)
    algebra = PartialGroupAlgebra(group)
    br = algebra.bracket
    for g in group.elements:
        gi = g.inverse()
        for h in group.elements:
            hi = h.inverse()
            assert br(g) * br(h) * br(hi) == br(g * h) * br(hi)
            assert br(gi) * br(g) * br(h) == br(gi) * br(g * h)
    assert evaluate_word(algebra, []) == algebra.one()


@pytest.mark.parametrize("name", ["C3", "C2xC2", "S3"])
def test_idempotent_identities(name):
    group = build_named_group(name)
    algebra = PartialGroupAlgebra(group)
    for g in group.elements:
        e_g = algebra.idem(g)
        assert e_g * e_g == e_g
        assert algebra.bracket(g) * algebra.bracket(g.inverse()) == e_g
        for h in group.elements:
            e_h = algebra.idem(h)
            assert e_g * e_h == e_h * e_g
            # commuting past a generator translates the index
            assert algebra.bracket(g) * e_h == algebra.idem(g * h) * algebra.bracket(g)


def test_twisted_generator_squares():
    # [a][a] = e_a in the order-2 group, in both models
    group = build_named_group("C2")
    algebra = PartialGroupAlgebra(group)
    a = group.element("a")
    assert algebra.bracket(a) * algebra.bracket(a) == algebra.idem(a)
    twisted = skew_mul(skew_generator(group, a), skew_generator(group, a))
    direct = s_mul(s_generator(group, a), s_generator(group, a))
    assert twisted.canonical_pair() == (direct.members, direct.g)

"""Partial group algebra: bases, coordinates, actions, text round-trips."""

import random
from fractions import Fraction

import pytest

from parh.exel import PartialGroupAlgebra, SElement, s_mul
from parh.groups import GroupError, INTEGERS, build_named_group
from parh.linalg import GF, QQ
from idempotent_products import product_from_primitive, product_idempotent
from twisted_product import evaluate_word


DIMENSIONS = {
    "C2": 3, "C3": 8, "C4": 20, "C2xC2": 20, "C5": 48, "C6": 112, "S3": 112,
}


@pytest.mark.parametrize("name", sorted(DIMENSIONS))
def test_canonical_basis_size(name):
    algebra = PartialGroupAlgebra(build_named_group(name))
    basis = algebra.canonical_basis()
    assert len(basis) == DIMENSIONS[name]
    assert algebra.dimension() == DIMENSIONS[name]
    assert len(set(basis)) == len(basis)


def test_dimension_of_trivial_group():
    from parh.groups import FiniteGroup

    algebra = PartialGroupAlgebra(FiniteGroup([[0]], name="1"))
    assert algebra.dimension() == 1
    assert len(algebra.canonical_basis()) == 1


def test_evaluate_word_render():
    c3 = build_named_group("C3")
    algebra = PartialGroupAlgebra(c3)
    g = c3.element("g")
    assert evaluate_word(algebra, [g, g]).render() == "e{g}[g2]"
    assert evaluate_word(algebra, []).render() == "1"
    assert algebra.bracket(g).render() == "[g]"
    assert algebra.idem(g).render() == "e{g}"


def test_augmentation():
    c3 = build_named_group("C3")
    algebra = PartialGroupAlgebra(c3)
    g = c3.element("g")
    assert algebra.bracket(g).augmentation() == algebra.idem(g)
    prod = algebra.bracket(g) * algebra.bracket(g)
    assert prod.augmentation() == algebra.idem(g) * algebra.idem(g * g)
    x = algebra.bracket(g) - algebra.idem(g)
    assert x.augmentation().is_zero()
    assert x.augmentation().is_in_b()


def test_star_is_an_antihomomorphism():
    s3 = build_named_group("S3")
    algebra = PartialGroupAlgebra(s3)
    rng = random.Random(3)
    basis = algebra.canonical_basis()

    def rand_elem():
        return algebra.element(
            {rng.choice(basis): rng.randint(-3, 3) for _ in range(3)}
        )

    for g in s3.elements:
        assert algebra.bracket(g).star() == algebra.bracket(g.inverse())
    for _ in range(20):
        x, y = rand_elem(), rand_elem()
        assert (x * y).star() == y.star() * x.star()
        assert x.star().star() == x


@pytest.mark.parametrize("name", ["C3", "C2xC2"])
def test_primitive_round_trip(name):
    algebra = PartialGroupAlgebra(build_named_group(name))
    subsets = algebra.subsets_with_identity()
    for s in algebra.canonical_basis():
        if s.g != algebra.group.identity_index:
            continue
        x = algebra.monomial(s)
        coords = algebra.primitive_vector(x)
        back = algebra.from_primitive({subsets[k]: c for k, c in coords.items()})
        assert back == x


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=lambda f: f.name)
@pytest.mark.parametrize("name", ["S3", "D4", "Z"])
def test_idempotent_product_matches_honest_products(name, field):
    # I and O drawn at random, so they may overlap, repeat an element or
    # hold the identity, which all kill or leave the product alike
    group = INTEGERS if name == "Z" else build_named_group(name)
    pool = (list(range(-4, 5)) if name == "Z"
            else list(range(group.order)))
    algebra = PartialGroupAlgebra(group, field)
    rng = random.Random(f"idempotent-product-{name}-{field.name}")
    for _ in range(40):
        inside = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        outside = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        assert (algebra.idempotent_product(inside, outside)
                == product_idempotent(algebra, inside, outside)), (
            inside, outside)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=lambda f: f.name)
@pytest.mark.parametrize("name", ["C2xC2", "S3"])
def test_from_primitive_matches_honest_products(name, field):
    algebra = PartialGroupAlgebra(build_named_group(name), field)
    subsets = algebra.subsets_with_identity()
    rng = random.Random(f"from-primitive-{name}-{field.name}")
    for _ in range(10):
        coeffs = {rng.choice(subsets): rng.randint(-3, 3)
                  for _ in range(rng.randint(0, 4))}
        assert (algebra.from_primitive(coeffs)
                == product_from_primitive(algebra, coeffs)), coeffs


def test_primitive_idempotents_are_orthogonal():
    algebra = PartialGroupAlgebra(build_named_group("C3"))
    subsets = algebra.subsets_with_identity()
    prims = {a: algebra.primitive_idempotent(a) for a in subsets}
    total = algebra.zero()
    for a in subsets:
        total = total + prims[a]
        for b in subsets:
            prod = prims[a] * prims[b]
            assert prod == (prims[a] if a == b else algebra.zero())
    assert total == algebra.one()


def test_idem_is_sum_of_primitives():
    algebra = PartialGroupAlgebra(build_named_group("C2xC2"))
    group = algebra.group
    for h in group.elements:
        expect = algebra.zero()
        for a in algebra.subsets_with_identity():
            if h.index in a:
                expect = expect + algebra.primitive_idempotent(a)
        assert expect == algebra.idem(h)


@pytest.mark.parametrize("name", ["C3", "C2xC2"])
def test_conjugation_actions_on_primitives(name):
    algebra = PartialGroupAlgebra(build_named_group(name))
    group = algebra.group
    for a in algebra.subsets_with_identity():
        e_a = algebra.primitive_idempotent(a)
        for g in group.elements:
            lo, hi = algebra.bracket(g), algebra.bracket(g.inverse())
            left = lo * e_a * hi
            if g.inverse().index in a:
                shifted = tuple(sorted(group.mult(g.index, m) for m in a))
                assert left == algebra.primitive_idempotent(shifted)
            else:
                assert left.is_zero()
            right = hi * e_a * lo
            if g.index in a:
                gi = g.inverse().index
                shifted = tuple(sorted(group.mult(gi, m) for m in a))
                assert right == algebra.primitive_idempotent(shifted)
            else:
                assert right.is_zero()


def test_primitive_kills_absent_idempotents():
    algebra = PartialGroupAlgebra(build_named_group("C3"))
    group = algebra.group
    for a in algebra.subsets_with_identity():
        e_a = algebra.primitive_idempotent(a)
        for g in group.elements:
            prod = e_a * algebra.idem(g)
            assert prod == (e_a if g.index in a else algebra.zero())


def test_render_parse_round_trip_finite():
    algebra = PartialGroupAlgebra(build_named_group("C2xC2"))
    rng = random.Random(11)
    basis = algebra.canonical_basis()
    for _ in range(30):
        coeffs = {
            rng.choice(basis): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(rng.randint(0, 4))
        }
        x = algebra.element(coeffs)
        assert algebra.parse(x.render()) == x


def test_render_parse_round_trip_integers():
    algebra = PartialGroupAlgebra(INTEGERS)
    x = algebra.element(
        {
            SElement(INTEGERS, {-2, 3}, 3): Fraction(1, 2),
            SElement(INTEGERS, {0}, 0): Fraction(-2),
        }
    )
    text = x.render()
    assert "e{-2}[3]" in text
    assert algebra.parse(text) == x


def test_parse_examples():
    algebra = PartialGroupAlgebra(build_named_group("C2"))
    a = algebra.group.element("a")
    assert algebra.parse("[a]") == algebra.bracket(a)
    assert algebra.parse("2*e{a} - 1") == algebra.idem(a).scale(2) - algebra.one()
    assert algebra.parse("-[a] + [a]").is_zero()
    assert algebra.parse("1/2*[a][a]") == algebra.idem(a).scale(Fraction(1, 2))
    assert algebra.parse("0").is_zero()
    with pytest.raises(ValueError):
        algebra.parse("e{zz}")
    with pytest.raises(ValueError):
        algebra.parse("[a] @ [a]")


def test_prime_field_coefficients():
    algebra = PartialGroupAlgebra(build_named_group("C2"), GF(5))
    a = algebra.group.element("a")
    x = algebra.bracket(a).scale(3) + algebra.bracket(a).scale(4)
    assert x == algebra.bracket(a).scale(2)
    assert "2*[a]" == x.render()
    assert algebra.parse(x.render()) == x
    y = algebra.bracket(a).scale(5)
    assert y.is_zero()


def test_mixing_contexts_fails():
    a2 = PartialGroupAlgebra(build_named_group("C2"))
    a3 = PartialGroupAlgebra(build_named_group("C3"))
    with pytest.raises(ValueError):
        a2.one() + a3.one()
    a2p = PartialGroupAlgebra(build_named_group("C2"), GF(3))
    with pytest.raises(ValueError):
        a2.one() + a2p.one()


def test_integers_pairs():
    algebra = PartialGroupAlgebra(INTEGERS)
    x = evaluate_word(algebra, [2, -3])
    (pair,) = x.coeffs
    assert pair.members == (-1, 0, 2)
    assert pair.g == -1
    with pytest.raises(GroupError):
        algebra.canonical_basis()
    s = SElement(INTEGERS, {5}, -5)
    assert s.members == (-5, 0, 5)
    assert s.star().members == (0, 5, 10) and s.star().g == 5


@pytest.mark.parametrize("sign", [1, -1])
def test_integer_product_overflow_is_loud(sign):
    near = SElement(INTEGERS, (), sign * (2**62 - 1))
    step = SElement(INTEGERS, (), sign)
    with pytest.raises(GroupError):
        s_mul(near, step)
    # e_{+-1}: the translated member crosses, though the product g does not
    with pytest.raises(GroupError):
        s_mul(near, SElement(INTEGERS, (sign,), 0))
    # the last representable member is still accepted
    assert s_mul(near, SElement(INTEGERS, (), 0)) == near
    assert s_mul(step, SElement(INTEGERS, (), sign * (2**62 - 2))).g == near.g

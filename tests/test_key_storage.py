"""Algebra elements on subset keys against the same elements on pairs.

An ``AlgebraElement`` stores ``{(key, g): c}`` and makes canonical pairs
only to list or print them.  For seeded random elements x, y on C3, S3,
D4 and a window of the integers, over Q, F2 and F3, every sum, difference,
negation, product, star, augmentation and fused sum of products is built
again from its pairs through ``element()`` and from its printed form
through ``parse()``: the three must be equal, hash equally, list the same
``support()`` and print the same.  Products must also equal, term by term
and in the same order, the sum of ``s_mul`` products of the pairs, the
single-pair rule that ``tests/test_exel_oracle.py`` checks against the
twisted-product model.
"""

from random import Random

import pytest

from parh.exel import PartialGroupAlgebra, SElement, _sum_of_products, s_mul
from parh.groups import INTEGERS, build_named_group
from parh.linalg import GF, QQ, accumulate

GROUPS = {"C3": build_named_group("C3"), "S3": build_named_group("S3"),
          "D4": build_named_group("D4"), "Z": INTEGERS}
FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}


def random_pair(rng, group):
    """A pair (A, g) with up to three members besides 1, g in A; over the
    integers the members lie in [-3, 3]."""
    pool = range(-3, 4) if group is INTEGERS else range(group.order)
    members = rng.sample(pool, rng.randint(0, 3))
    return SElement(group, members,
                    rng.choice(members + [group.identity_index]))


def random_element(rng, algebra):
    """Up to four pairs with coefficients in [-3, 3], built from pairs."""
    return algebra.element({random_pair(rng, algebra.group): rng.randint(-3, 3)
                            for _ in range(rng.randint(0, 4))})


def assert_same(x, y):
    assert x == y and y == x
    assert hash(x) == hash(y)
    assert x.support() == y.support()
    assert x.render() == y.render()


def termwise_product(x, y):
    return accumulate(x.field, ((s_mul(s, t), c * d)
                                for s, c in x.coeffs.items()
                                for t, d in y.coeffs.items()))


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_key_storage_matches_pairs(group, field):
    algebra = PartialGroupAlgebra(GROUPS[group], FIELDS[field])
    rng = Random(f"{group}-{field}")
    for _ in range(40):
        x, y = random_element(rng, algebra), random_element(rng, algebra)
        product = x * y
        results = [x + y, x - y, -x, product, x.star(), x.augmentation(),
                   _sum_of_products(algebra.group, algebra.field,
                                    [(x, y), (y, x), (x, x)])]
        for r in results:
            assert_same(r, algebra.element(dict(r.coeffs.items())))
            assert_same(r, algebra.parse(r.render()))
        want = termwise_product(x, y)
        assert list(product.coeffs.items()) == list(want.items())
        assert_same(product, algebra.element(want))

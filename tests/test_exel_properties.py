"""Property tests of the canonical pair kernel, drawn by Hypothesis.

The product rule (A, g)(B, h) = (A union gB, gh) is compared with the
twisted-product oracle on the integers (members in [-6, 6]) and on S3 and
D4, and the algebraic laws every semigroup of canonical pairs obeys are
checked on the same draws.  Examples are derandomized, so every run sees
the same inputs.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from parh.exel import SElement, SkewElement, s_mul, skew_mul
from parh.groups import INTEGERS, build_named_group
from parh.linalg import QQ, accumulate

GROUPS = {"Z": INTEGERS, "S3": build_named_group("S3"),
          "D4": build_named_group("D4")}

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


def as_skew(s):
    return SkewElement(s.group, s.members, s.g)


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

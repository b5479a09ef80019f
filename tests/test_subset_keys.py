"""Subset keys: the codec of each group, and the routes that read them.

A finite group keys a subset by its mask and translates and decodes it
through tables kept on the group; the integers key it by a frozenset and
translate through ``Integers.translate``.  Both codecs are checked against
sorted tuples and their tuple ``translate``, on all nine built-in groups
and on groups past order 8, whose tables come in runs of 8 bits.  The
mask routes of ``primitive_vector`` and ``_bracket_tables`` are compared
with their tuple routes on every component.  The tuple routes are in
``tests/subset_routes.py``.
Algebra elements store ``(key, g)`` and refuse a pair of another group.
"""

import random
from itertools import combinations

import pytest

from parh import exel
from parh.exel import AlgebraElement, PartialGroupAlgebra, SElement
from parh.groupoid import _bracket_tables, build_groupoid, components, tilde_pi
from parh.groups import (INTEGERS, NAMED_GROUP_NAMES, FiniteGroup, GroupError,
                         Integers, build_named_group)
from parh.linalg import GF, QQ
from parh.zcase import (cancellation_decompose, ig_decompose,
                        random_cancellation_instance, random_ig_element)
from subset_routes import (translate, tuple_bracket_tables,
                           tuple_primitive_vector)


def _cyclic(n):
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)],
                       name=f"C{n}")


def _subsets(n):
    return [a for k in range(n + 1) for a in combinations(range(n), k)]


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_mask_codec_matches_tuples(name):
    group = build_named_group(name)
    decode = group.key_decoder()
    for a in _subsets(group.order):
        key = group.subset_key(a)
        assert key == sum(1 << m for m in a)
        assert decode(key) == a
        for g in range(group.order):
            assert decode(group.key_translator(g)(key)) == translate(group,
                                                                     g, a)


@pytest.mark.parametrize("order", [9, 16, 20])
def test_mask_codec_reads_runs_of_eight_bits(order):
    group = _cyclic(order)
    decode = group.key_decoder()
    rng = random.Random(order)
    for _ in range(200):
        a = tuple(sorted(rng.sample(range(order), rng.randint(0, order))))
        key = group.subset_key(a)
        assert decode(key) == a
        g = rng.randrange(order)
        assert decode(group.key_translator(g)(key)) == translate(group, g, a)


def test_tables_are_built_once_and_kept_on_the_group():
    group = build_named_group("S3")
    assert group.key_translator(3) is group.key_translator(3)
    assert group.key_decoder() is group.key_decoder()
    # a fresh group builds its own tables
    assert build_named_group("S3").key_decoder() is not group.key_decoder()


def test_integer_codec():
    key = INTEGERS.subset_key((3, -1, 0))
    assert key == frozenset({-1, 0, 3})
    assert INTEGERS.key_decoder()(key) == (-1, 0, 3)
    assert INTEGERS.key_translator(-2)(key) == frozenset({-3, -2, 1})
    top = INTEGERS.subset_key((0, 2**62 - 2))
    assert INTEGERS.key_translator(1)(top) == frozenset({1, 2**62 - 1})
    with pytest.raises(GroupError):
        INTEGERS.key_translator(2)(top)
    with pytest.raises(GroupError):
        INTEGERS.key_translator(-2**62 + 1)(key)


def test_elements_store_subset_keys():
    group = build_named_group("C4")
    algebra = PartialGroupAlgebra(group)
    s = SElement(group, (2,), 1)
    assert algebra.monomial(s).terms == {(0b111, 1): 1}
    # [1] e_3 = ({0, 1} | 1 + {0, 3}, 1) = ({0, 1}, 1): a mask in storage,
    # a pair in the view
    product = algebra.bracket(1) * algebra.idem(3)
    assert product.terms == {(0b11, 1): 1}
    (pair,) = product.coeffs
    assert pair == SElement(group, (0,), 1)
    assert product.coeffs[pair] == 1 and len(product.coeffs) == 1
    z = PartialGroupAlgebra(INTEGERS).monomial(SElement(INTEGERS, (3,), -1))
    assert z.terms == {(frozenset({-1, 0, 3}), -1): 1}


def test_products_and_samplers_decode_no_key(monkeypatch):
    # `z cancellation`'s sampler and decomposition and the ideal
    # decomposition run on keys alone: no pair is made, no key decoded
    def unreachable(*args):
        raise AssertionError("a pair was made or a key decoded")

    s3 = build_named_group("S3")
    ig = [random_ig_element(random.Random(seed)) for seed in range(5)]
    monkeypatch.setattr(exel, "_canonical_pair", unreachable)
    monkeypatch.setattr(SElement, "__init__", unreachable)
    monkeypatch.setattr(Integers, "key_decoder", unreachable)
    monkeypatch.setattr(s3, "key_decoder", unreachable)
    for group, field in ((INTEGERS, QQ), (s3, GF(3))):
        rng = random.Random(5)
        for k in (1, 3, 5):
            cancellation_decompose(*random_cancellation_instance(
                rng, k, group, field, 3))
    for x in ig:
        ig_decompose(x)


@pytest.mark.parametrize("make", ["constructor", "monomial", "element"])
@pytest.mark.parametrize("home, stranger", [("C3", "S3"), ("Z", "S3")])
def test_pairs_of_another_group_are_refused(make, home, stranger):
    group = INTEGERS if home == "Z" else build_named_group(home)
    algebra = PartialGroupAlgebra(group)
    s = SElement(build_named_group(stranger), (4,), 0)
    build = {"constructor": lambda: AlgebraElement(group, QQ, {s: 1}),
             "monomial": lambda: algebra.monomial(s),
             "element": lambda: algebra.element({s: 1})}[make]
    with pytest.raises(ValueError, match="different group"):
        build()


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_mask_routes_match_tuple_routes(name):
    group = build_named_group(name)
    field = GF(3) if group.order > 6 else QQ
    algebra = PartialGroupAlgebra(group, field)
    subsets = algebra.subsets_with_identity()
    sub_pos = {a: k for k, a in enumerate(subsets)}
    for a in subsets:
        x = algebra.primitive_idempotent(a)
        assert algebra.primitive_vector(x) == tuple_primitive_vector(algebra,
                                                                     x)
    for comp in components(build_groupoid(group)):
        assert (_bracket_tables(comp, algebra.subset_keys())
                == tuple_bracket_tables(comp, sub_pos)), comp
        for v in comp.vertices:
            x = tilde_pi(comp, v, field)
            assert (algebra.primitive_vector(x)
                    == tuple_primitive_vector(algebra, x)), (comp, v)

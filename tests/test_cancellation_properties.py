"""Property tests of the skew-symmetric cancellation, drawn by Hypothesis.

The seeded sampler draws every coefficient from the idempotent subalgebra
B, but the decomposition holds for any left coefficients once the
idempotents commute.  Here each r_i is built as

    r_i = x_i (1 - e_i) + sum_{j>i} y_ij e_j - sum_{j<i} y_ji e_j,

so sum r_i e_i = 0, with every x_i and y_ij carrying a bracket [g],
g != 1, and the e_i joins of monomial idempotents of B.  Groups Z, C3
and S3, fields Q, F2 and F3.  Examples are derandomized, so every run
sees the same inputs.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from parh.exel import PartialGroupAlgebra, SElement
from parh.groups import INTEGERS, build_named_group
from parh.linalg import GF, QQ
from parh.zcase import (
    cancellation_decompose,
    cancellation_reconstructs,
    combine_idempotents,
)

GROUPS = {"Z": INTEGERS, "C3": build_named_group("C3"),
          "S3": build_named_group("S3")}
FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


def _elements(group):
    if group is INTEGERS:
        return st.integers(-2, 2)
    return st.integers(0, group.order - 1)


def _member_sets(group):
    return st.frozensets(_elements(group), max_size=2)


def _idempotents(alg):
    """Joins of one or two monomial idempotents (A, 1) of B."""
    group = alg.group
    monos = st.builds(
        lambda a: alg.monomial(SElement(group, a, group.identity_index)),
        _member_sets(group))
    return st.lists(monos, min_size=1, max_size=2).map(combine_idempotents)


def _coefficients(alg):
    """[g] with g != 1, plus up to two canonical monomials."""
    group = alg.group
    elements = _elements(group)
    term = st.builds(lambda a, g, c: alg.monomial(SElement(group, a, g), c),
                     _member_sets(group), elements, st.integers(-2, 2))
    return st.builds(lambda g, terms: sum(terms, alg.bracket(g)),
                     elements.filter(lambda g: g != group.identity_index),
                     st.lists(term, max_size=2))


@st.composite
def instances(draw):
    group = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    alg = PartialGroupAlgebra(group, field)
    k = draw(st.integers(1, 4))
    es = [draw(_idempotents(alg)) for _ in range(k)]
    xs = [draw(_coefficients(alg)) for _ in range(k)]
    ys = {(i, j): draw(_coefficients(alg))
          for i in range(k) for j in range(i + 1, k)}
    one = alg.one()
    rs = []
    for i in range(k):
        r = xs[i] * (one - es[i])
        for j in range(k):
            if j > i:
                r = r + ys[(i, j)] * es[j]
            elif j < i:
                r = r - ys[(j, i)] * es[j]
        rs.append(r)
    return es, rs


@PROPERTY
@given(instances())
def test_left_coefficients_outside_b_decompose(instance):
    es, rs = instance
    total = sum((r * e for r, e in zip(rs, es)), es[0] - es[0])
    assert total.is_zero()
    result = cancellation_decompose(es, rs)
    assert result.skew_symmetric()
    assert cancellation_reconstructs(es, rs, result)

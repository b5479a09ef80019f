"""Property test of partial H_0 against ``b_tensor_dim``, drawn by
Hypothesis.

Each draw is a built-in group (order at most 8), one of its groupoid
components, the trivial or regular representation of the component's
stabilizer, and a field.  Partial H_0 of the induced module, the first
degree that ``ChainComplex`` ranks, must equal the dimension of B tensored
with the module by the independent relation-cokernel route of
``tests/bar_complex.py``.  Examples are derandomized, so every run sees
the same inputs.
"""

from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from bar_complex import b_tensor_dim
from parh.groupoid import build_groupoid, components, induce_module
from parh.groups import NAMED_GROUP_NAMES, build_named_group, regular_rep, trivial_rep
from parh.homology import partial_homology
from parh.linalg import GF, QQ

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)
FIELDS = [QQ, GF(2), GF(3), GF(5)]
REPS = {"trivial": trivial_rep, "regular": regular_rep}


@lru_cache(maxsize=None)
def _components(name):
    group = build_named_group(name)
    return group, components(build_groupoid(group))


@st.composite
def induced_modules(draw):
    group, comps = _components(draw(st.sampled_from(NAMED_GROUP_NAMES)))
    comp = draw(st.sampled_from(comps))
    field = draw(st.sampled_from(FIELDS))
    rep = REPS[draw(st.sampled_from(sorted(REPS)))]
    return group, induce_module(comp, rep(comp.stabilizer, field), field)


@PROPERTY
@given(induced_modules())
def test_partial_h0_equals_b_tensor_dimension(case):
    group, v = case
    assert partial_homology(group, v, max_degree=0).dims == [b_tensor_dim(v)]

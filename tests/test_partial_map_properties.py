"""The partial-map check of a module against the matrix-product check.

``PartialRepModule`` composes index lists when every generator is a 0/1
partial map and multiplies matrices otherwise.  Here the same inputs go
through both paths, the product path forced by patching
``_partial_maps`` to find no map, and each must give the same verdict,
the same message, the same idempotents and the same self-duality.  The
inputs are the valid modules B, regular, W⊗trivial and W⊗regular of all
nine named groups over Q, F2 and F3, seeded corruptions of them that
keep every generator a 0/1 partial map, and random partial maps on small
groups, among which are valid modules that are not self-dual and
modules that fail relation 2 before relation 1.
"""

import random
from functools import cache

import pytest

from parh import groupoid
from parh.groupoid import (PartialRepModule, b_module, build_groupoid,
                           components, induce_module, regular_module)
from parh.groups import (NAMED_GROUP_NAMES, build_named_group, regular_rep,
                         trivial_rep)
from parh.linalg import GF, QQ, SparseMatrix

FIELDS = (QQ, GF(2), GF(3))


@cache
def _modules(name: str, field) -> list[tuple[str, dict]]:
    """(label, generator matrices) of every map module of one group."""
    grp = build_named_group(name)
    out = [("B", b_module(grp, field).mats),
           ("regular", regular_module(grp, field).mats)]
    for k, comp in enumerate(components(build_groupoid(grp))):
        for rep_name, rep in (("trivial", trivial_rep), ("regular", regular_rep)):
            mod = induce_module(comp, rep(comp.stabilizer, field), field)
            out.append((f"W⊗{rep_name} {k}", mod.mats))
    return out


def _outcome(grp, field, mats, products: bool, monkeypatch) -> tuple:
    """(message or None, idems, self_dual) of one validation, on the
    product path when ``products``.  The idempotents and self-duality
    are recorded before the relation loop, so a failing check has them
    too."""
    mod = PartialRepModule.__new__(PartialRepModule)
    mod.group, mod.field, mod.dim, mod.mats = grp, field, mats[0].nrows, mats
    with monkeypatch.context() as m:
        if products:
            m.setattr(groupoid, "_partial_maps", lambda mats: None)
        try:
            mod._validate()
            message = None
        except ValueError as exc:
            message = str(exc)
    return (message, getattr(mod, "idems", None),
            getattr(mod, "self_dual", None))


def _assert_paths_agree(grp, field, mats, monkeypatch, label) -> tuple:
    assert groupoid._partial_maps(mats) is not None, label
    by_maps = _outcome(grp, field, mats, False, monkeypatch)
    by_products = _outcome(grp, field, mats, True, monkeypatch)
    assert by_maps == by_products, label
    return by_maps


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_valid_map_modules_agree_with_products(name, monkeypatch):
    grp = build_named_group(name)
    for field in FIELDS:
        for label, mats in _modules(name, field):
            message, _, self_dual = _assert_paths_agree(
                grp, field, mats, monkeypatch, (field.name, label))
            assert message is None and self_dual, (field.name, label)


def _with_column(m: SparseMatrix, j: int, col: dict) -> SparseMatrix:
    cols = list(m.cols)
    cols[j] = col
    return SparseMatrix._of_columns(m.field, m.nrows, cols)


def _swapped(m: SparseMatrix, j1: int, j2: int) -> SparseMatrix:
    cols = list(m.cols)
    cols[j1], cols[j2] = cols[j2], cols[j1]
    return SparseMatrix._of_columns(m.field, m.nrows, cols)


def _corrupt(grp, mats: dict, kind: str, rng: random.Random) -> dict | None:
    """One seeded corruption of one generator [x], or of [x] and [x^-1]
    together, that keeps every generator a 0/1 partial map; None when the
    drawn generator has no column to change."""
    bad = dict(mats)
    x = rng.randrange(grp.order)
    m = bad[x]
    full = [j for j, col in enumerate(m.cols) if col]
    if not full:
        return None
    j = rng.choice(full)
    one = m.field.one
    if kind == "redirect":
        (old,) = m.cols[j]
        if m.nrows < 2:
            return None
        new = rng.choice([r for r in range(m.nrows) if r != old])
        bad[x] = _with_column(m, j, {new: one})
    elif kind == "empty":
        bad[x] = _with_column(m, j, {})
    else:
        others = [k for k in range(m.ncols) if k != j and m.cols[k] != m.cols[j]]
        if not others:
            return None
        k = rng.choice(others)
        bad[x] = _swapped(m, j, k)
        if kind == "swap both":
            # [x]^T of the swapped map: swap the targets' columns of [x^-1]
            (i1,) = m.cols[j]
            targets = list(m.cols[k])
            if targets:
                xi = grp.inv(x)
                bad[xi] = _swapped(bad[xi], i1, targets[0])
    return bad


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_corrupted_map_modules_agree_with_products(name, monkeypatch):
    grp = build_named_group(name)
    rng = random.Random(f"partial-maps {name}")
    failures = 0
    for field in FIELDS:
        modules = _modules(name, field)
        for kind in ("redirect", "empty", "swap", "swap both"):
            for label, mats in rng.sample(modules, min(4, len(modules))):
                bad = _corrupt(grp, mats, kind, rng)
                if bad is None:
                    continue
                message, _, _ = _assert_paths_agree(
                    grp, field, bad, monkeypatch, (field.name, label, kind))
                failures += message is not None
    assert failures, name


def test_random_partial_maps_agree_with_products(monkeypatch):
    rng = random.Random("random partial maps")
    seen = set()
    for name in ("C2", "C3", "C4", "C2xC2"):
        grp = build_named_group(name)
        for _ in range(150):
            field = rng.choice(FIELDS)
            dim = rng.randint(1, 3)
            mats = {0: SparseMatrix.identity(field, dim)}
            for g in range(1, grp.order):
                targets = (rng.randrange(-1, dim) for _ in range(dim))
                mats[g] = SparseMatrix._of_columns(
                    field, dim, [{i: 1} if i >= 0 else {} for i in targets])
            message, _, self_dual = _assert_paths_agree(
                grp, field, mats, monkeypatch, (name, field.name, mats))
            seen.add((message or "valid").split(" fails")[0])
            seen.add(("self-dual" if self_dual else "not self-dual",
                      message is None))
    assert seen >= {"valid", "partial relation [g][h][h^-1]",
                    "partial relation [g^-1][g][h]",
                    ("self-dual", True), ("not self-dual", True)}

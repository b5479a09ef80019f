"""Acceptance gate: twelve numbered criteria, one test and one line each.

Each test prints "[criterion N] PASS|FAIL <summary>" before asserting, so
the verdict survives in the captured output either way, and the pytest -v
status line carries the same information through the test name.  Every
check is exact arithmetic; the only tolerances are the wall-clock budgets
asserted at the end of each test.

Criterion 5 checks that the arrow section is a section of the component
map, is multiplicative, and is a left module map on every component,
including components whose vertices do not cover the group.  All three
hold because each arrow lifts through the primitive idempotent of B taken
over the whole group (see the zeta_delta tests in test_groupoid.py).
"""

import random
import time
from itertools import product

from bar_complex import bar_differential
from homogeneous_resolution import homogeneous_differential
from morita import GroupAlgebraMatrix, elementary_matrix
from twisted_product import SkewElement, skew_mul
from parh.exel import PartialGroupAlgebra, SElement, s_mul
from parh.groupoid import (
    arrow_unit,
    build_groupoid,
    component_summary,
    components,
    lambda_delta,
    regular_module,
    tensor_b_kdelta,
    tilde_pi,
    zeta_delta,
)
from parh.groups import INTEGERS, build_named_group
from parh.homology import (
    partial_cohomology,
    resolution_identity_holds,
    verify_corollary_b,
    verify_theorem_a,
)
from parh.linalg import GF, QQ
from parh.zcase import (
    cancellation_decompose,
    cancellation_reconstructs,
    f_element,
    ig_decompose,
    quotient_check,
    random_cancellation_instance,
    random_ig_element,
    verify_f_relations,
)

F2, F3 = GF(2), GF(3)


def verdict(number, ok, summary, budget, elapsed):
    word = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {word} {summary} ({elapsed:.1f}s)")
    assert ok, f"criterion {number}: {summary}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"


def test_criterion_01_dimension_identity():
    t0 = time.perf_counter()
    bad = []
    for name in ("C2", "C3", "C4", "C2xC2", "C6", "S3"):
        group = build_named_group(name)
        n = group.order
        formula = (n + 1) * 2 ** (n - 2)
        data = component_summary(build_groupoid(group))
        if not (PartialGroupAlgebra(group).dimension() == formula
                and data["sum_of_blocks"] == formula and data["equal"]):
            bad.append(name)
    verdict(1, not bad,
            f"dimension formula and block sum agree on 6 groups {bad or ''}",
            5, time.perf_counter() - t0)


def _rep_axioms_hold(elements, mul, inv, one):
    for g, h in product(elements, repeat=2):
        pg, ph = mul[g], mul[h]
        phi = mul[inv(h)]
        if pg * ph * phi != mul[(g, h)] * phi:
            return False
        pgi = mul[inv(g)]
        if pgi * pg * ph != pgi * mul[(g, h)]:
            return False
    return mul["1"] == one


def test_criterion_02_partial_representation_axioms():
    t0 = time.perf_counter()
    bad = []
    for name in ("C2", "C3", "C4", "C5", "C2xC2"):
        group = build_named_group(name)
        algebra = PartialGroupAlgebra(group)
        table = {g: algebra.bracket(g) for g in range(group.order)}
        table.update({(g, h): algebra.bracket(group.mult(g, h))
                      for g, h in product(range(group.order), repeat=2)})
        table["1"] = algebra.bracket(0)
        if not _rep_axioms_hold(range(group.order), table, group.inv,
                                algebra.one()):
            bad.append((name, "brackets"))
        for k, comp in enumerate(components(build_groupoid(group))):
            table = {g: elementary_matrix(comp, g)
                     for g in range(group.order)}
            table.update({(g, h): elementary_matrix(comp, group.mult(g, h))
                          for g, h in product(range(group.order), repeat=2)})
            table["1"] = elementary_matrix(comp, 0)
            unit = GroupAlgebraMatrix.identity(comp.stabilizer, QQ, comp.size)
            if not (_rep_axioms_hold(range(group.order), table, group.inv,
                                     unit)):
                bad.append((name, k))
    verdict(2, not bad,
            f"generator and matrix families satisfy the axioms {bad or ''}",
            5, time.perf_counter() - t0)


def test_criterion_03_star_gives_the_inverse_matrix():
    t0 = time.perf_counter()
    bad = []
    for name in ("C2", "C3", "C4", "C5", "C2xC2"):
        group = build_named_group(name)
        for k, comp in enumerate(components(build_groupoid(group))):
            for g in range(group.order):
                if elementary_matrix(comp, group.inv(g)) != \
                        elementary_matrix(comp, g).star():
                    bad.append((name, k, g))
    verdict(3, not bad,
            f"M(g^-1) = M(g)* on every component {bad or ''}",
            5, time.perf_counter() - t0)


def test_criterion_04_vertex_sections_and_tensor():
    t0 = time.perf_counter()
    bad = []
    for name in ("C2", "C3", "C2xC2"):
        group = build_named_group(name)
        gd = build_groupoid(group)
        for k, comp in enumerate(components(gd)):
            section = all(
                lambda_delta(comp, tilde_pi(comp, v))
                == arrow_unit(gd, (v, 0))
                for v in comp.vertices)
            rep = tensor_b_kdelta(comp, QQ)
            if not (section and rep.dimension == rep.expected == comp.size
                    and rep.h_action_trivial and rep.ok):
                bad.append((name, k))
    verdict(4, not bad,
            f"projections split on vertices and the tensor has one "
            f"dimension per vertex {bad or ''}",
            30, time.perf_counter() - t0)


def test_criterion_05_arrow_sections():
    t0 = time.perf_counter()
    section_bad, product_bad, linear_bad = [], [], []
    for name in ("C2", "C3", "C4", "C2xC2"):
        group = build_named_group(name)
        gd = build_groupoid(group)
        algebra = PartialGroupAlgebra(group)
        basis = algebra.canonical_basis()
        for k, comp in enumerate(components(gd)):
            lifts = {a: zeta_delta(comp, a) for a in comp.arrows}
            units = {a: arrow_unit(gd, a) for a in comp.arrows}
            if any(lambda_delta(comp, lifts[a]) != units[a]
                   for a in comp.arrows):
                section_bad.append((name, k))
            for a1, a2 in product(comp.arrows, repeat=2):
                prod = units[a1] * units[a2]
                got = lifts[a1] * lifts[a2]
                if prod.is_zero():
                    hit = got.is_zero()
                else:
                    (arrow,) = prod.coeffs
                    hit = got == lifts[arrow]
                if not hit:
                    product_bad.append((name, k, a1, a2))
            for s in basis:
                r = algebra.monomial(s)
                projected = lambda_delta(comp, r)
                for arrow in comp.arrows:
                    image = projected * units[arrow]
                    lhs = algebra.zero()
                    for a, c in image.coeffs.items():
                        lhs = lhs + lifts[a].scale(c)
                    if lhs != r * lifts[arrow]:
                        linear_bad.append(
                            (name, k, s.render(), arrow))
                        break
                else:
                    continue
                break
    ok = not (section_bad or product_bad or linear_bad)
    clauses = (("section", section_bad), ("multiplicative", product_bad),
               ("module map", linear_bad))
    failing = [(clause, bad[0]) for clause, bad in clauses if bad]
    verdict(5, ok,
            "arrow section splits projections, is multiplicative, and is "
            f"a module map on every component; failing clauses with their "
            f"first counterexample {failing}",
            60, time.perf_counter() - t0)


def test_criterion_06_resolution_identities():
    t0 = time.perf_counter()
    bad = []
    for name in ("C2", "C3"):
        group = build_named_group(name)
        if not resolution_identity_holds(group, 3):
            bad.append((name, "homotopy"))
        for n in (2, 3, 4):
            if not (bar_differential(group, n - 1)
                    * bar_differential(group, n)).is_zero():
                bad.append((name, "bar", n))
            if not (homogeneous_differential(group, n - 1)
                    * homogeneous_differential(group, n)).is_zero():
                bad.append((name, "homogeneous", n))
    verdict(6, not bad,
            f"d^2 = 0 and sd + ds = id through degree 3 {bad or ''}",
            30, time.perf_counter() - t0)


def test_criterion_07_idempotent_coefficients_match_stabilizer_sums():
    t0 = time.perf_counter()
    cases = [("C2", F2), ("C3", F3), ("C2xC2", F2), ("S3", F2), ("S3", F3),
             ("C2", QQ), ("C3", QQ), ("C2xC2", QQ), ("S3", QQ)]
    spots = {("C2", "F2"): [2, 1, 1], ("C3", "F3"): [3, 1, 1],
             ("C2xC2", "F2"): [6, 5, 6]}
    bad = []
    for name, field in cases:
        group = build_named_group(name)
        rep = verify_corollary_b(group, field, 3)
        if not rep["ok"]:
            bad.append((name, field.name, rep["homology"], rep["cohomology"]))
        want = spots.get((name, field.name))
        if want and rep["homology"]["partial"][:3] != want:
            bad.append((name, field.name, "spot", rep["homology"]["partial"]))
    verdict(7, not bad,
            f"bar dimensions equal stabilizer sums on 9 cases, degrees "
            f"0..3, spot values hit {bad or ''}",
            600, time.perf_counter() - t0)


def test_criterion_08_induced_equals_stabilizer():
    t0 = time.perf_counter()
    from parh.groups import regular_rep, trivial_rep

    def comp_with_stab(group, order):
        for comp in components(build_groupoid(group)):
            if comp.stabilizer.order == order:
                return comp
        raise AssertionError("no such component")

    c2 = build_named_group("C2")
    c3 = build_named_group("C3")
    v4 = build_named_group("C2xC2")
    combos = [
        (c2, comp_with_stab(c2, 2), trivial_rep, F2),
        (c2, comp_with_stab(c2, 2), regular_rep, F2),
        (c3, comp_with_stab(c3, 3), trivial_rep, F3),
        (c3, comp_with_stab(c3, 1), trivial_rep, QQ),
        (v4, comp_with_stab(v4, 2), trivial_rep, F2),
        (v4, comp_with_stab(v4, 4), regular_rep, QQ),
    ]
    bad = []
    for group, comp, rep, field in combos:
        out = verify_theorem_a(group, comp, rep(comp.stabilizer, field),
                               field, 2)
        if not out["ok"]:
            bad.append((group.name, out["component_base"], rep.__name__,
                        field.name, out["homology"], out["cohomology"]))
    verdict(8, not bad,
            f"induced-module (co)homology equals the stabilizer's on "
            f"{len(combos)} combinations {bad or ''}",
            300, time.perf_counter() - t0)


def test_criterion_09_regular_coefficient_vanishing():
    t0 = time.perf_counter()
    bad = []
    for name, fields in (("C2", (QQ, F2)), ("C3", (QQ, F3))):
        group = build_named_group(name)
        for field in fields:
            rep = partial_cohomology(group, regular_module(group, field),
                                     field, 2)
            if rep.dims[1:] != [0, 0]:
                bad.append((name, field.name, rep.dims))
    verdict(9, not bad,
            f"H^1 and H^2 with whole-algebra coefficients vanish {bad or ''}",
            120, time.perf_counter() - t0)


def test_criterion_10_cancellation_decompositions():
    t0 = time.perf_counter()
    rng = random.Random(101)
    rings = [INTEGERS, build_named_group("C2"), build_named_group("C3")]
    failures = 0
    for trial in range(200):
        group = rings[trial % 3]
        k = rng.randint(1, 5)
        es, rs = random_cancellation_instance(rng, k, group, QQ, bound=3)
        result = cancellation_decompose(es, rs)
        if not (result.skew_symmetric()
                and cancellation_reconstructs(es, rs, result)):
            failures += 1
    verdict(10, failures == 0,
            f"200 seeded instances (k <= 5) reconstruct with "
            f"skew-symmetric matrices, {failures} failures",
            30, time.perf_counter() - t0)


def test_criterion_11_integer_case_suite():
    t0 = time.perf_counter()
    problems = []
    rel = verify_f_relations(5)
    if not rel["ok"]:
        problems.append(("relations", rel["failures"][:3]))
    for k in (1, 2, 3):
        rep = quotient_check(k, 2 * k + 4)
        if not (rep["ok"] and rep["s2_in_s1"] and rep["s1_in_s2"]
                and rep["violations"] == []):
            problems.append(("quotient", k, rep["violations"][:3]))
    rng = random.Random(7)
    for _ in range(100):
        x = random_ig_element(rng, bound=3)
        parts = ig_decompose(x)
        total = PartialGroupAlgebra(INTEGERS, QQ).zero()
        for g, b in parts.items():
            total = total + b * f_element(g)
        if total != x:
            problems.append(("decompose", x.render()))
            break
    verdict(11, not problems,
            f"generator relations, level quotients (k <= 3), and 100 "
            f"ideal round trips all hold {problems or ''}",
            120, time.perf_counter() - t0)


def test_criterion_12_product_oracle_gate():
    t0 = time.perf_counter()
    bad = 0
    for name in ("C2", "C3", "C4", "C2xC2"):
        group = build_named_group(name)
        elems = PartialGroupAlgebra(group).canonical_basis()
        for x, y in product(elems, repeat=2):
            direct = s_mul(x, y)
            twisted = skew_mul(SkewElement(group, x.members, x.g),
                               SkewElement(group, y.members, y.g))
            if twisted.canonical_pair() != (direct.members, direct.g):
                bad += 1
    rng = random.Random(3)

    def window_element():
        m = rng.randint(-4, 4)
        members = {0, m} | {rng.randint(-4, 4)
                            for _ in range(rng.randint(0, 3))}
        return SElement(INTEGERS, members, m)

    for _ in range(1000):
        x, y = window_element(), window_element()
        direct = s_mul(x, y)
        twisted = skew_mul(SkewElement(INTEGERS, x.members, x.g),
                           SkewElement(INTEGERS, y.members, y.g))
        if twisted.canonical_pair() != (direct.members, direct.g):
            bad += 1
    verdict(12, bad == 0,
            f"canonical product agrees with the twisted-product oracle "
            f"exhaustively (|G| <= 4) and on 1000 integer pairs, "
            f"{bad} mismatches",
            30, time.perf_counter() - t0)

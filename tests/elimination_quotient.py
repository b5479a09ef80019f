"""The level-quotient check built from algebra products and elimination.

``parh.zcase.quotient_check`` reads both subspaces of the check off graph
spans, with no algebra product.  This is the construction it replaced,
kept as an oracle for it: every product r * f_(k+1) and r * z, for z an
ideal generator, is computed in the partial group algebra, S1 is the
kernel of a residue ``SparseMatrix`` and S2 is absorbed by an
``Eliminator``.  Level-span membership is read through ``VkSpan.root``.
"""

from parh.exel import PartialGroupAlgebra
from parh.groups import INTEGERS
from parh.linalg import QQ, Eliminator, SparseMatrix, kernel_basis
from parh.zcase import Z_WINDOW_CAP, VkSpan, f_element, window_basis
from window_space import WindowSpace, root_residue


def ideal_generators(k, field=QQ):
    """1 - e_(k+1), e_1, ..., e_k: the generators of the quotient ideal."""
    algebra = PartialGroupAlgebra(INTEGERS, field)
    return [algebra.one() - algebra.idem(k + 1)] + [
        algebra.idem(i) for i in range(1, k + 1)]


def elimination_quotient(k, bound, field=QQ, gens=None, cap=Z_WINDOW_CAP):
    """The report of ``quotient_check(k, bound, field, cap)`` with S2 spanned
    by the in-window products r * z, z in ``gens`` (default
    ``ideal_generators(k, field)``), together with the S2 elements and the
    kernel vectors of S1 outside S2, as algebra elements."""
    if k < 1:
        raise ValueError("level k must be at least 1")
    if bound < 2 * k + 4:
        raise ValueError("window too small: need bound >= 2k + 4")
    if gens is None:
        gens = ideal_generators(k, field)
    domain_bound = bound - 2 * k - 2
    span = VkSpan(k, bound, cap)
    space = WindowSpace(field, bound)
    algebra = PartialGroupAlgebra(INTEGERS, field)
    fk1 = f_element(k + 1, field)
    domain = window_basis(domain_bound, cap)
    domain_pos = {s: t for t, s in enumerate(domain)}

    entries = {}
    for t, r in enumerate(domain):
        res = root_residue(span, space,
                           space.column(algebra.monomial(r) * fk1))
        for row, c in res.items():
            entries[(row, t)] = c
    residue_matrix = SparseMatrix(field, space.dim, len(domain), entries)
    s1_vectors = kernel_basis(residue_matrix)

    s2_elements, s2_vectors = [], []
    for r in domain:
        mono = algebra.monomial(r)
        for z in gens:
            y = mono * z
            if y.is_zero():
                continue
            if any(s not in domain_pos for s in y.coeffs):
                continue  # product leaves the domain window
            s2_elements.append(y)
            s2_vectors.append({domain_pos[s]: c for s, c in y.coeffs.items()})

    violations = []
    for y, vec in zip(s2_elements, s2_vectors):
        if residue_matrix.apply(vec):
            violations.append({"direction": "s2_in_s1", "element": y.render()})
    s2_elim = Eliminator(field)
    for col in s2_vectors:
        s2_elim.add(dict(col))
    witnesses = []
    for vec in s1_vectors:
        if s2_elim.reduce(dict(vec)):
            witnesses.append(sum(
                (algebra.monomial(domain[t], c) for t, c in vec.items()),
                algebra.zero()))
            combo = " + ".join(
                f"({c}) {domain[t].render()}" for t, c in sorted(vec.items()))
            violations.append({"direction": "s1_in_s2", "element": combo})
    s2_in_s1 = not any(v["direction"] == "s2_in_s1" for v in violations)
    report = {
        "k": k,
        "N": bound,
        "field": field.name,
        "domain_bound": domain_bound,
        "domain_dim": len(domain),
        "s1_dim": len(s1_vectors),
        "s2_dim": s2_elim.rank,
        "vk_rank": span.rank,
        "s2_in_s1": s2_in_s1,
        "s1_in_s2": not witnesses,
        "violations": violations,
        "ok": s2_in_s1 and not witnesses,
    }
    return report, s2_elements, witnesses

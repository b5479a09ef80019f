"""Constructive algebra of the augmentation ideal, specialized to the integers.

The augmentation ideal of the partial group algebra is generated, as a left
module, by the elements f_g = [g] - e_g.  Over the integers (written
additively, with f_i short for the generator at the group element i) the
two basic relations are

    e_i f_{i+j} = e_{i+j} f_i + [i] f_j        and        (e_i - 1) f_i = 0,

and the level filtration V_k = R f_1 + ... + R f_k is controlled by the
quotient identity  V_{k+1} / V_k = R / (R (1 - e_{k+1}) + sum R e_i).

This module provides the pieces of that story that can be checked by exact
computation:

  * the generators f_i and exhaustive verification of the relations;
  * the standard combination of commuting idempotents into a single one
    with the same span, through pairwise orthogonal summands;
  * the skew-symmetric cancellation algorithm: given commuting idempotents
    with sum r_1 e_1 + ... + r_k e_k = 0, produce a skew-symmetric matrix M
    and elements b_i with r_i = sum_j M[i][j] e_j + b_i (1 - e_i);
  * bounded-window linear algebra over the integers: V_k as a graph
    incidence span in closed form (the rank by a count over member sets,
    components by roots read off each member set, no edge built), the
    two containments behind the quotient identity as union-find ranks of
    graph spans, and decomposition of augmentation-zero elements over the
    f_i;
  * seeded samplers for property tests of all of the above.

Everything is exact.  A window bounds which canonical monomials may
appear; a product that leaves the domain window of the quotient check is
not a domain vector, so it is left out of S2, never truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random
from typing import Sequence

from .exel import (
    AlgebraElement,
    PartialGroupAlgebra,
    SElement,
    _canonical_pair,
    _sum_of_products,
)
from .groups import INTEGERS, GroupElement
from .linalg import (
    Field,
    IncidenceSpan,
    QQ,
    Scalar,
    SizeCapError,
    SparseMatrix,
    accumulate,
    kernel_basis,
)

Z_WINDOW_CAP = 200_000


def _check_window_cap(count: int, what: str, unit: str,
                      cap: int = Z_WINDOW_CAP) -> None:
    """Refuse, before any of it is built, a window structure of ``count``
    entries when that exceeds ``cap``."""
    if count > cap:
        raise SizeCapError(f"{what} would hold {count} {unit} (cap {cap})",
                           limit=cap, requested=count)


def _algebra(x: AlgebraElement) -> PartialGroupAlgebra:
    return PartialGroupAlgebra(x.group, x.field)


def f_element(g, field: Field = QQ) -> AlgebraElement:
    """The augmentation-ideal generator [g] - e_g.

    Accepts an integer (an element of the additive integer group) or a
    GroupElement of any group.  The identity gives zero.
    """
    if isinstance(g, GroupElement):
        group, idx = g.group, g.index
    elif isinstance(g, int):
        group, idx = INTEGERS, g
    else:
        raise TypeError("expected an integer or a GroupElement")
    algebra = PartialGroupAlgebra(group, field)
    return algebra.bracket(idx) - algebra.idem(idx)


def verify_f_relations(bound: int, field: Field = QQ) -> dict:
    """Exhaustive check of the basic f-relations over the integers.

    For all |i|, |j| <= bound this verifies, by algebra multiplication,

        e_i f_{i+j} = e_{i+j} f_i + [i] f_j,
        (e_i - 1) f_i = 0,
        [i] f_j = e_i f_{i+j} - e_{i+j} f_i,

    together with f_0 = 0 and augmentation zero for every f_i.  The report
    carries any counterexample instead of raising.  The (2 bound + 1)^2
    pairs (i, j) are checked against Z_WINDOW_CAP first.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    _check_window_cap((2 * bound + 1) ** 2, "f-relations", "pairs (i, j)")
    algebra = PartialGroupAlgebra(INTEGERS, field)

    def f(n: int) -> AlgebraElement:
        return f_element(n, field)

    failures: list[dict] = []
    checked = 0
    if not f(0).is_zero():
        failures.append({"identity": "f_0 = 0"})
    for i in range(-bound, bound + 1):
        if not f(i).augmentation().is_zero():
            failures.append({"i": i, "identity": "augmentation(f_i) = 0"})
        if not ((algebra.idem(i) - algebra.one()) * f(i)).is_zero():
            failures.append({"i": i, "identity": "(e_i - 1) f_i = 0"})
        checked += 2
        for j in range(-bound, bound + 1):
            lhs = algebra.idem(i) * f(i + j)
            rhs = algebra.idem(i + j) * f(i) + algebra.bracket(i) * f(j)
            if lhs != rhs:
                failures.append(
                    {"i": i, "j": j, "identity": "e_i f_{i+j} = e_{i+j} f_i + [i] f_j"}
                )
            act = algebra.bracket(i) * f(j)
            dif = algebra.idem(i) * f(i + j) - algebra.idem(i + j) * f(i)
            if act != dif:
                failures.append(
                    {"i": i, "j": j, "identity": "[i] f_j = e_i f_{i+j} - e_{i+j} f_i"}
                )
            checked += 2
    return {
        "bound": bound,
        "field": field.name,
        "checked": checked,
        "failures": failures,
        "ok": not failures,
    }


# ---------------------------------------------------------------------------
# Idempotent combination and skew-symmetric cancellation.


def _check_commuting_idempotents(es: Sequence[AlgebraElement]) -> None:
    """Raise ValueError unless every e is idempotent and they commute.

    Every input is squared except a monomial idempotent, a single term
    (A, 1) with coefficient 1, which is idempotent by the rule of
    ``s_mul``: (A union A, 1) = (A, 1).  The pairwise products are formed
    only when some input lies outside B, because B is commutative:
    (A, 1)(C, 1) = (A union C, 1) = (C, 1)(A, 1).
    """
    for e in es:
        if _is_monomial_idempotent(e):
            continue
        if e * e != e:
            raise ValueError(f"not an idempotent: {e.render()}")
    if all(e.is_in_b() for e in es):
        return
    for a, b in combinations(es, 2):
        if a * b != b * a:
            raise ValueError("idempotents do not commute")


def _is_monomial_idempotent(x: AlgebraElement) -> bool:
    """Whether x is one term (A, 1) with coefficient 1."""
    if len(x.terms) != 1:
        return False
    ((_, g), c), = x.terms.items()
    return c == x.field.one and g == x.group.identity_index


def _times(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """x * y, forming no product when an operand is zero (then it is the
    product)."""
    if x.is_zero():
        return x
    if y.is_zero():
        return y
    return x * y


def _parts(es: Sequence[AlgebraElement]) -> list[AlgebraElement]:
    """The summands q_j = e_j (1-e_1)...(1-e_{j-1}) of commuting idempotents
    e_1..e_n, unchecked; q_1..q_m depend only on e_1..e_m."""
    if not es:
        return []
    one = _algebra(es[0]).one()
    parts = [es[0]]
    shrink = None
    for prev, e in zip(es, es[1:]):
        factor = one - prev
        shrink = factor if shrink is None else _times(shrink, factor)
        parts.append(_times(shrink, e))
    return parts


def orthogonal_parts(es: Sequence[AlgebraElement]) -> list[AlgebraElement]:
    """The summands e_1, (1-e_1) e_2, ..., (1-e_1)...(1-e_{n-1}) e_n.

    The inputs must be commuting idempotents (checked; ValueError if not).
    The summands are pairwise orthogonal idempotents, and the first i of
    them sum to the join 1 - (1-e_1)...(1-e_i), which spans the same ideal
    as e_1..e_i together and absorbs each of them.
    """
    _check_commuting_idempotents(es)
    return _parts(es)


def combine_idempotents(es: Sequence[AlgebraElement]) -> AlgebraElement:
    """Combine commuting idempotents into one with the same joint span."""
    parts = orthogonal_parts(es)
    if not parts:
        raise ValueError("need at least one idempotent")
    return sum(parts[1:], parts[0])


@dataclass(frozen=True)
class CancellationResult:
    """Witness for a relation sum r_i e_i = 0 between commuting idempotents.

    matrix is skew-symmetric with zero diagonal and
    r_i = sum_j matrix[i][j] e_j + b[i] (1 - e_i) for every i.
    """

    matrix: tuple[tuple[AlgebraElement, ...], ...]
    b: tuple[AlgebraElement, ...]

    def skew_symmetric(self) -> bool:
        k = len(self.b)
        for i in range(k):
            if not self.matrix[i][i].is_zero():
                return False
            for j in range(i + 1, k):
                if self.matrix[i][j] != -self.matrix[j][i]:
                    return False
        return True


def cancellation_reconstructs(
    es: Sequence[AlgebraElement],
    rs: Sequence[AlgebraElement],
    result: CancellationResult,
) -> bool:
    """Whether the decomposition reproduces every r_i exactly.

    Each row sum b_i (1 - e_i) + sum_j M[i][j] e_j is formed in one
    ``_sum_of_products`` call, with no intermediate element per product.
    """
    if not es:
        return not result.b
    algebra = _algebra(es[0])
    one = algebra.one()
    for i, r in enumerate(rs):
        row = result.matrix[i]
        pairs = [(result.b[i], one - es[i])]
        pairs += [(row[j], e) for j, e in enumerate(es)]
        if _sum_of_products(algebra.group, algebra.field, pairs) != r:
            return False
    return True


def _cancel(es: Sequence[AlgebraElement], rs: Sequence[AlgebraElement],
            a: Sequence[AlgebraElement]) -> tuple[list, list]:
    """The closed-form M and b for a_i = r_i e_i with sum a_i = 0."""
    k = len(es)
    zero = _algebra(es[0]).zero()
    mat = [[zero] * k for _ in range(k)]
    for j, q in enumerate(_parts(es[:-1])):  # q_k is never read
        for i in range(j + 1, k):
            m = _times(a[i], q)
            mat[i][j] = m
            mat[j][i] = -m
    return mat, [r - x for r, x in zip(rs, a)]


def cancellation_decompose(
    es: Sequence[AlgebraElement], rs: Sequence[AlgebraElement]
) -> CancellationResult:
    """Decompose a vanishing sum over commuting idempotents.

    Given sum r_i e_i = 0, returns a skew-symmetric matrix M with zero
    diagonal and elements b_i such that

        r_i = sum_j M[i][j] e_j + b_i (1 - e_i).

    The split is in closed form.  With a_i = r_i e_i and the orthogonal
    parts q_j = e_j (1-e_1)...(1-e_{j-1}), M[i][j] = a_i q_j for j < i,
    M[j][i] = -M[i][j] and b_i = r_i - a_i.  Only commutation of the e's
    is used, so r_i may be any left coefficient.  As q_j e_j = q_j and
    a_j e_j = a_j, sum_j M[i][j] e_j = a_i (q_1 + ... + q_{i-1})
    - (a_{i+1} + ... + a_k) q_i.  The join q_1 + ... + q_i absorbs e_i,
    so the first term is a_i - a_i q_i; as sum_j a_j = 0 and e_j q_i = 0
    for j < i, the second is a_i q_i.  So sum_j M[i][j] e_j = a_i, and
    adding b_i (1 - e_i) = r_i (1 - e_i) gives r_i.  That is k(k-1)/2
    products for M and fewer than 2k for the q's; the a_i serve both the
    hypothesis check and M.  Every result is validated by
    ``skew_symmetric`` and ``cancellation_reconstructs``.
    """
    if len(es) != len(rs):
        raise ValueError("need one coefficient per idempotent")
    if not es:
        return CancellationResult((), ())
    _check_commuting_idempotents(es)
    a = [_times(r, e) for r, e in zip(rs, es)]
    if not sum(a[1:], a[0]).is_zero():
        raise ValueError("hypothesis fails: sum r_i e_i is not zero")
    mat, b = _cancel(es, rs, a)
    result = CancellationResult(tuple(tuple(row) for row in mat), tuple(b))
    if not result.skew_symmetric() or not cancellation_reconstructs(es, rs, result):
        raise RuntimeError("cancellation produced an invalid decomposition")
    return result


# ---------------------------------------------------------------------------
# Bounded windows over the integers.


def window_size(bound: int) -> int:
    """The number of canonical pairs (A, m) with A inside [-bound, bound].

    >>> window_size(1)
    8
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return (bound + 1) << (2 * bound)


def _window_member_sets(bound: int):
    """The member sets A inside [-bound, bound] holding 0, as sorted
    tuples: by size, then lexicographically."""
    others = [m for m in range(-bound, bound + 1) if m != 0]
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            yield tuple(sorted((0,) + extra))


def window_basis(bound: int, cap: int = Z_WINDOW_CAP) -> list[SElement]:
    """All canonical pairs (A, m) with A inside [-bound, bound].

    A always contains 0, and m runs over A.  Listed in a fixed order:
    member sets by size then lexicographically, then m.
    A size (bound + 1) 4^bound of more than 64 bits, and more than the
    cap's, is refused on its bit length N + 1 before it is formed, with
    ``requested`` the string "2^N or more".
    """
    bits = (bound + 1).bit_length() + 2 * bound
    if bits > max(64, cap.bit_length()):
        at_least = f"2^{bits - 1} or more"
        raise SizeCapError(f"window basis would hold {at_least} elements "
                           f"(cap {cap})", limit=cap, requested=at_least)
    _check_window_cap(window_size(bound), "window basis", "elements", cap)
    return [_canonical_pair(INTEGERS, members, m)
            for members in _window_member_sets(bound) for m in members]


def level_span_rank(k: int, multiplier_bound: int) -> int:
    """The rank of :class:`VkSpan`, counted without building an edge.

    With n = 2 mb + 1 members in [-mb, mb] (mb the multiplier bound), a
    member set inside [-mb, mb] adds one per consecutive pair a < b of
    its members with b - a <= k.  For a pair not straddling 0, the sets
    that hold 0, a and b and nothing strictly between a and b number
    2^(n - |{a, b, 0}| - (b - a - 1)).  A set whose only member outside
    [-mb, mb] is o in (mb, mb + k] adds one per member m in [o - k, mb],
    a star; 2^(n - 1) sets hold o and m = 0, and 2^(n - 2) hold o and
    m != 0.

    >>> level_span_rank(1, 1)
    6
    """
    mb = multiplier_bound
    n = 2 * mb + 1
    total = 0
    for a in range(-mb, mb + 1):
        for b in range(a + 1, min(a + k, mb) + 1):
            if not a < 0 < b:
                total += 1 << (n - len({a, b, 0}) - (b - a - 1))
    for o in range(mb + 1, mb + k + 1):
        for m in range(max(o - k, -mb), mb + 1):
            total += 1 << (n - 1 if m == 0 else n - 2)
    return total


class VkSpan:
    """The visible part of the level-k span V_k = R f_1 + ... + R f_k.

    For r = (A, m) in the window basis at multiplier_bound = bound - k - 1
    and 1 <= j <= k, the column r * f_j is the edge (B, m+j) - (B, m) with
    B = A + {m+j}, strictly inside the window.  So V_k is a graph incidence
    span: its rank is #vertices - #components, and x lies in it iff x sums
    to zero on each component.  An edge never changes its member set B,
    so each component lies inside one B and is read off B alone (see
    ``root``), and ``level_span_rank`` counts the rank; no edge is built
    or stored.  ``columns`` is the range of the
    window_size(multiplier_bound) * k edge columns.  The cap bounds what
    is computed: the pairs that the two loops of ``level_span_rank``
    visit, at most (2 mb + 1) k and k^2 + k, are checked before the count
    runs.

    >>> span = VkSpan(1, 3)
    >>> len(span.columns), span.rank, span.root((-1, 0, 1), 1)
    (8, 6, -1)
    """

    __slots__ = ("k", "bound", "multiplier_bound", "columns", "rank")

    def __init__(self, k: int, bound: int, cap: int = Z_WINDOW_CAP) -> None:
        if k < 1:
            raise ValueError("level k must be at least 1")
        if bound < k + 1:
            raise ValueError("window too small: need bound >= k + 1")
        self.k = k
        self.bound = bound
        self.multiplier_bound = mb = bound - k - 1
        for count in ((2 * mb + 1) * k, k * k + k):
            _check_window_cap(count, "level span rank", "pairs", cap)
        self.columns = range(window_size(mb) * k)
        self.rank = level_span_rank(k, mb)

    def root(self, members: tuple[int, ...], g: int) -> int:
        """The member h such that (members, h) is the root of the
        component of (members, g).

        Inside [-mb, mb], members m < h are joined when h - m <= k, so the
        components are the runs of sorted members with gaps <= k, each
        rooted at its least member.  A set whose only member outside
        [-mb, mb] is o in (mb, mb + k] is a star joining o to its members
        in [o - k, o - 1], rooted at o.  No edge touches any other set.
        """
        mb, k = self.multiplier_bound, self.k
        top = members[-1]
        if members[0] < -mb or top > mb + k:
            return g
        if top <= mb:
            i = members.index(g)
            while i and members[i] - members[i - 1] <= k:
                i -= 1
            return members[i]
        if members[-2] > mb:
            return g
        return top if g >= top - k else g


def _adjoin(members: tuple[int, ...], x: int) -> tuple[int, ...]:
    """The sorted member set members + {x}."""
    return members if x in members else tuple(sorted(members + (x,)))


def _ideal_products(k: int, members: tuple[int, ...], m: int,
                    bound: int) -> list[tuple]:
    """The products of r = (A, m), A = members, with the ideal generators
    1 - e_(k+1), e_1, ..., e_(min(k, 2 bound)), in that order, for r in
    the window of ``bound``: m + i leaves [-bound, bound] when i > 2 bound,
    and so does r e_i.

    A pair is written (members, g) and a product by its terms: (u,) is
    the pair u, (u, v) is u - v and () is zero.  By the product rule,
    r e_i = (A + {m+i}, m), and r (1 - e_(k+1)) = r - (A + {m+k+1}, m),
    which is zero when m+k+1 is in A.
    """
    h = k + 1
    out = [() if m + h in members
           else ((members, m), (_adjoin(members, m + h), m))]
    return out + [((_adjoin(members, m + i), m),)
                  for i in range(1, min(h, 2 * bound + 1))]


def quotient_check(k: int, bound: int, field: Field = QQ,
                   cap: int = Z_WINDOW_CAP) -> dict:
    """Window verification of the level-quotient description.

    Inside the window the multiplier r ranges over the canonical basis at
    domain_bound = bound - 2k - 2.  Two subspaces of that domain span are
    compared:

      S1 = kernel of R: r -> (r * f_{k+1} modulo the visible V_k span),
      S2 = span of the in-window products r (1 - e_{k+1}) and r e_i, i <= k.

    S2 inside S1 must hold exactly.  S1 inside S2 is expected; a failure
    is reported as a violation for review (window artifact against genuine
    counterexample) rather than raised.

    Both are graph spans, ranked by union-find (``IncidenceSpan``) with no
    algebra product and no elimination.  For r = (A, m) and
    B = A + {m+k+1}, r f_(k+1) = (B, m+k+1) - (B, m); modulo V_k each pair
    sums onto its component's root, so R sends r to the edge between
    (B, root(B, m+k+1)) and (B, root(B, m)), and s1 = |domain| - rank R.
    S2 is spanned by the pairs r e_i = (A + {m+i}, m) and the edges
    r (1 - e_(k+1)) = (A, m) - (B, m), m+k+1 not in A, each kept when all
    its terms lie in the domain.  Adjoining m+k+1 to A or to B gives B,
    so both terms of such an edge have the same R-edge and R kills it
    (checked; RuntimeError if not).  So R(S2) is the span of the R-edges
    of the r e_i: S2 lies in S1 iff each is a loop, a violation renders
    the pair, and dim(S1 meet S2) = s2 - rank R(S2), so S1 lies in S2 iff
    s1 equals that.  Only if it does not are the ``kernel_basis`` vectors
    of R listed; those outside S2 are the violations.

    >>> report = quotient_check(1, 6)
    >>> [report[key] for key in ("domain_dim", "vk_rank", "s1_dim", "s2_dim")]
    [48, 768, 28, 28]
    >>> report["ok"], report["violations"]
    (True, [])
    """
    if k < 1:
        raise ValueError("level k must be at least 1")
    if bound < 2 * k + 4:
        raise ValueError("window too small: need bound >= 2k + 4")
    domain_bound = bound - 2 * k - 2
    domain = window_basis(domain_bound, cap)
    span = VkSpan(k, bound, cap)
    pos = {(r.members, r.g): t for t, r in enumerate(domain)}

    rows: dict[tuple, int] = {}  # R's row of each (B, root), first seen first
    edges: list[tuple[int, int]] = []
    residue = IncidenceSpan(field)
    for r in domain:
        h = r.g + k + 1
        b = _adjoin(r.members, h)
        edge = (rows.setdefault((b, span.root(b, h)), len(rows)),
                rows.setdefault((b, span.root(b, r.g)), len(rows)))
        edges.append(edge)
        residue.add(*edge)

    s2, image = IncidenceSpan(field), IncidenceSpan(field)
    violations: list[dict] = []
    for r in domain:
        for y in _ideal_products(k, r.members, r.g, domain_bound):
            if not y or any(v not in pos for v in y):
                continue  # zero, or it leaves the domain window
            ts = [pos[v] for v in y]
            s2.add(*ts)
            if len(ts) == 2:
                if edges[ts[0]] != edges[ts[1]]:
                    raise RuntimeError(
                        f"R does not kill {r.render()} (1 - e_{k + 1})")
                continue
            head, tail = edges[ts[0]]
            image.add(head, tail)
            if head != tail:
                violations.append({"direction": "s2_in_s1",
                                   "element": domain[ts[0]].render()})
    s2_in_s1 = not violations
    s1_dim = len(domain) - residue.rank
    s1_in_s2 = s1_dim == s2.rank - image.rank
    if not s1_in_s2:
        one, minus_one = field.one, field.neg(field.one)
        entries = {}
        for t, (head, tail) in enumerate(edges):
            if head != tail:
                entries[(head, t)] = one
                entries[(tail, t)] = minus_one
        for vec in kernel_basis(SparseMatrix(field, len(rows), len(domain),
                                             entries)):
            if s2.residue_column(vec):
                combo = " + ".join(f"({c}) {domain[t].render()}"
                                   for t, c in sorted(vec.items()))
                violations.append({"direction": "s1_in_s2", "element": combo})
    return {
        "k": k,
        "N": bound,
        "field": field.name,
        "domain_bound": domain_bound,
        "domain_dim": len(domain),
        "s1_dim": s1_dim,
        "s2_dim": s2.rank,
        "vk_rank": span.rank,
        "s2_in_s1": s2_in_s1,
        "s1_in_s2": s1_in_s2,
        "violations": violations,
        "ok": s2_in_s1 and s1_in_s2,
    }


# ---------------------------------------------------------------------------
# Decomposition over the f generators.


def ig_decompose(x: AlgebraElement) -> dict[int, AlgebraElement]:
    """Coefficients b_g with x = sum b_g f_g, for augmentation-zero x.

    Each canonical pair (A, g) contributes (A, 1) to b_g, because
    (A, g) - (A, 1) = (A, 1) * f_g.  The returned coefficients are the
    canonical representatives: b_g e_g = b_g already, and b_g is unique
    modulo the annihilator B (1 - e_g).  Reconstruction is verified.
    """
    if not x.augmentation().is_zero():
        raise ValueError("element has nonzero augmentation")
    group, f = x.group, x.field
    e = group.identity_index
    flats: dict[int, dict] = {}
    for (key, g), c in x.terms.items():
        if g != e:
            flats.setdefault(g, {})[(key, e)] = c
    out = {g: AlgebraElement._of_clean(group, f, terms)
           for g, terms in flats.items()}
    total = _sum_of_products(group, f, (
        (b, f_element(group.element(g) if group is not INTEGERS else g, f))
        for g, b in out.items()))
    if total != x:
        raise RuntimeError("decomposition failed to reconstruct the element")
    return out


def k_tensor_ig_vanishes(bound: int, field: Field = QQ) -> dict:
    """Check that tensoring the augmentation ideal down to scalars kills it.

    The scalar augmentation of B sends every e_i with i nonzero to 0.
    Since f_i = e_i f_i exactly, each generator's coefficient slot maps
    to the scalar 0, so the induced matrix on generators is zero.  The
    2 bound generators are checked against Z_WINDOW_CAP first.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    _check_window_cap(2 * bound, "tensor check", "generators")
    algebra = PartialGroupAlgebra(INTEGERS, field)
    checked = 0
    all_zero = True
    for i in range(-bound, bound + 1):
        if i == 0:
            continue
        fi = f_element(i, field)
        if algebra.idem(i) * fi != fi:
            all_zero = False
        if _scalar_augmentation(algebra.idem(i)) != field.zero:
            all_zero = False
        checked += 1
    return {"bound": bound, "checked": checked, "all_zero": all_zero,
            "ok": all_zero}


def _scalar_augmentation(b: AlgebraElement) -> Scalar:
    """The map B -> K killing every e_i, i nonzero: (A, 1) -> [A = {1}]."""
    if not b.is_in_b():
        raise ValueError("element is not in the idempotent subalgebra")
    f = b.field
    unit = b.group.subset_key((b.group.identity_index,))
    total = f.zero
    for (key, _), c in b.terms.items():
        if key == unit:
            total = f.add(total, c)
    return total


# ---------------------------------------------------------------------------
# Seeded samplers.


def _window_members(rng: Random, group, bound: int) -> tuple[int, ...]:
    """Up to three distinct nonidentity members: from [-bound, bound] over
    the integers, whose 2 bound candidates are checked against
    Z_WINDOW_CAP before they are listed, else from the whole group."""
    if group is INTEGERS:
        _check_window_cap(2 * bound, "sampling window", "members")
        pool = [m for m in range(-bound, bound + 1) if m != 0]
    else:
        pool = [i for i in range(group.order) if i != group.identity_index]
    size = rng.randint(0, min(len(pool), 3))
    return tuple(rng.sample(pool, size))


def _random_b_key(rng: Random, group, bound: int) -> tuple:
    """The storage key ``(subset key of A, 1)`` of a random pair (A, 1),
    A drawn by ``_window_members`` with 1 adjoined."""
    e = group.identity_index
    return group.subset_key((e, *_window_members(rng, group, bound))), e


def random_b_element(rng: Random, group=INTEGERS, field: Field = QQ,
                     bound: int = 3, terms: int = 2) -> AlgebraElement:
    """A small random element of the idempotent subalgebra."""
    monomials = []
    for _ in range(rng.randint(0, terms)):
        key = _random_b_key(rng, group, bound)
        monomials.append((key, field.of(rng.randint(-2, 2))))
    return AlgebraElement._of_clean(group, field, accumulate(field, monomials))


def random_b_idempotent(rng: Random, group=INTEGERS, field: Field = QQ,
                        bound: int = 3) -> AlgebraElement:
    """A random idempotent of B: a combination of monomial idempotents."""
    monos = [
        AlgebraElement._of_clean(group, field, {
            _random_b_key(rng, group, bound): field.one})
        for _ in range(rng.randint(1, 2))
    ]
    return combine_idempotents(monos)


def random_cancellation_instance(
    rng: Random, k: int, group=INTEGERS, field: Field = QQ, bound: int = 3
) -> tuple[list[AlgebraElement], list[AlgebraElement]]:
    """A seeded instance of the cancellation hypothesis sum r_i e_i = 0.

    The r_i are sampled from the full solution space: a skew pattern of
    B-coefficients against the other idempotents plus an arbitrary
    multiple of (1 - e_i), which is everything by the decomposition
    theorem itself.  Each r_i, and the check that sum r_i e_i = 0, is one
    ``_sum_of_products`` call.
    """
    one = PartialGroupAlgebra(group, field).one()
    es = [random_b_idempotent(rng, group, field, bound) for _ in range(k)]
    cross = {
        (i, j): random_b_element(rng, group, field, bound)
        for i in range(k)
        for j in range(i + 1, k)
    }
    rs = []
    for i in range(k):
        pairs = [(random_b_element(rng, group, field, bound), one - es[i])]
        pairs += [(cross[(i, j)] if j > i else -cross[(j, i)], es[j])
                  for j in range(k) if j != i]
        rs.append(_sum_of_products(group, field, pairs))
    if not _sum_of_products(group, field, zip(rs, es)).is_zero():
        raise RuntimeError("sampler produced a non-solution")
    return es, rs


def random_ig_element(rng: Random, bound: int = 3, field: Field = QQ,
                      terms: int = 4) -> AlgebraElement:
    """A seeded window element of the augmentation ideal."""
    algebra = PartialGroupAlgebra(INTEGERS, field)
    x = algebra.zero()
    for _ in range(rng.randint(1, terms)):
        members = set(_window_members(rng, INTEGERS, bound)) | {0}
        g = rng.choice(sorted(members))
        s = SElement(INTEGERS, members, g)
        x = x + algebra.monomial(s, field.of(rng.randint(-2, 2)))
    return x - x.augmentation()

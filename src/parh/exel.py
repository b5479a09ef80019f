"""The subset semigroup of a group and its partial group algebra.

For a group G, the monoid S(G) generated by symbols [g] subject to the
partial-translation relations has a canonical form: a pair (A, g) where A
is a finite subset of G containing 1 and g.  Multiplication, involution,
and the idempotent lattice are all explicit on canonical forms, and the
linearization K S(G) is the partial group algebra once [1] is identified
with the unit, which the canonical form already does.

An algebra element stores its terms as one dict ``{(key, g): c}``, key
the subset key of A (an int mask on a finite group, a frozenset on the
integers; the group's codec in ``parh.groups``).  :class:`SElement` is
the canonical pair as a value, with sorted members: the constructors
convert it to ``(key, g)`` once, and ``support``, ``render`` and the
``coeffs`` view decode keys back into pairs, so every printed order is
that of the pairs.

Products follow the direct rule on canonical pairs.  The crossed-product
model that validates it, with the idempotent-twisting rule coded
independently, is an oracle and lives with the tests
(``tests/twisted_product.py``).

Every product of algebra elements runs through one kernel,
:func:`_sum_of_products`: for a list of pairs (x_i, y_i) it applies the
rule of :func:`s_mul` to each pair of terms on their keys and sums every
x_i y_i into one dict on ``(key, g)`` as ``linalg.accumulate`` does; that
dict is the result.  A single product :func:`_product` is its one-pair
case.  ``s_mul`` stays on member tuples, the single-pair rule and the
kernel's test oracle.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable

from .groups import GroupElement, GroupError
from .linalg import Column, Field, QQ, Scalar, accumulate


def _gidx(group, g) -> int:
    """Coerce a GroupElement, index, or name to an element index."""
    if isinstance(g, GroupElement):
        if g.group is not group:
            raise GroupError("element from a different group")
        return g.index
    if isinstance(g, str):
        return group.element(g).index
    return group.element(int(g)).index


class SElement:
    """A canonical pair (A, g): A a finite subset of G with 1, g in A.

    The constructor canonicalizes by adjoining 1 and g to the member set,
    so every reachable value satisfies the invariant.  The hash is
    computed once, at construction, as ``hash((id(group), members, g))``.

    Inside the package, :func:`_canonical_pair` adopts a member tuple that
    is already canonical (sorted, holding 1 and g) without sorting it
    again; the two routes give equal pairs with equal hashes:

    >>> from parh.groups import INTEGERS
    >>> x = SElement(INTEGERS, [3, -1], 3)
    >>> y = _canonical_pair(INTEGERS, (-1, 0, 3), 3)
    >>> x.members, x == y, hash(x) == hash(y)
    ((-1, 0, 3), True, True)

    A pair is the value that is parsed, printed and sorted (``sort_key``)
    and the operand of the oracle ``s_mul``.  An algebra element does not
    hold pairs: it stores ``(group.subset_key(members), g)``, made by
    :func:`_pair_key` when the element is built, and decodes its keys into
    pairs only to list or print them:

    >>> from parh.groups import build_named_group
    >>> c3 = build_named_group("C3")
    >>> x = PartialGroupAlgebra(c3).monomial(SElement(c3, (2,), 1))
    >>> x.terms, x.support()
    ({(7, 1): 1}, [e{g2}[g]])
    """

    __slots__ = ("group", "members", "g", "_hash")

    def __init__(self, group, members: Iterable[int], g: int) -> None:
        e = group.identity_index
        members = tuple(sorted(set(members) | {e, g}))
        self.group = group
        self.g = g
        self.members = members
        self._hash = hash((id(group), members, g))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, SElement)
            and self._hash == other._hash
            and self.group is other.group
            and self.members == other.members
            and self.g == other.g
        )

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return (len(self.members), self.members, self.g)

    def star(self) -> "SElement":
        """(A, g) -> (g^-1 A, g^-1); g^-1 A holds g^-1 and 1 already."""
        grp = self.group
        gi = grp.inv(self.g)
        members = tuple(sorted(grp.translate(gi, self.members)))
        return _canonical_pair(grp, members, gi)

    def render(self) -> str:
        e = self.group.identity_index
        name = self.group.element_name
        parts = [f"e{{{name(m)}}}" for m in self.members if m not in (e, self.g)]
        if self.g != e:
            parts.append(f"[{name(self.g)}]")
        return "".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return self.render()


def _canonical_pair(group, members: tuple[int, ...], g: int) -> SElement:
    """The pair (members, g), adopting ``members`` as it is.

    Precondition, not checked: ``members`` is a sorted tuple that holds
    the identity and g.  Callers outside this package use ``SElement``.
    """
    s = object.__new__(SElement)
    s.group = group
    s.g = g
    s.members = members
    s._hash = hash((id(group), members, g))
    return s


def _pair_key(group, s: SElement) -> tuple:
    """The storage key ``(subset key of A, g)`` of the pair s = (A, g);
    GroupError (a ValueError) if s is a pair of another group."""
    if s.group is not group:
        raise GroupError("pair from a different group")
    return group.subset_key(s.members), s.g


def s_mul(x: SElement, y: SElement) -> SElement:
    """Product of canonical pairs: (A, g)(B, h) = (A union gB, gh).

    A holds 1 and g, and gB holds g and gh, so the union is canonical
    once sorted.
    """
    grp = x.group
    if grp is not y.group:
        raise GroupError("elements of different groups")
    g = x.g
    members = set(x.members)
    if g == grp.identity_index:
        members.update(y.members)
        return _canonical_pair(grp, tuple(sorted(members)), y.g)
    members.update(grp.translate(g, y.members))
    return _canonical_pair(grp, tuple(sorted(members)), grp.mult(g, y.g))


def _sum_of_products(group, field: Field, pairs) -> "AlgebraElement":
    """The sum of x * y over ``pairs`` in the partial group algebra.

    Each pair of terms ``(lk, g)``, ``(rk, h)`` gives the canonical pair of
    ``s_mul`` as a plain ``(key, g)``: the key of A union gB is
    ``lk | rk`` when g = 1 and ``lk | translate(rk)`` otherwise,
    ``translate`` being ``group.key_translator(g)``, and gh comes from
    ``group.mult_row(g)``, fetched with it once per left term, so the
    group's overflow checks apply.  The keys of all the products are
    summed in one dict, with the reduction mod p and the drop-on-cancel
    order of ``accumulate``, and that dict is the result's storage, so
    the result equals the term-by-term sum of ``s_mul`` products with no
    key decoded.  Every operand must lie in the algebra of ``group`` and
    ``field`` (ValueError if not); a pair with a zero operand adds
    nothing.
    """
    ref = AlgebraElement._of_clean(group, field, {})
    e = group.identity_index
    translator, mult_row = group.key_translator, group.mult_row
    p = field.char
    sums: dict = {}
    get = sums.get
    for x, y in pairs:
        ref._check(x)
        ref._check(y)
        if not x.terms or not y.terms:
            continue
        right = y.terms.items()
        for (lk, g), c in x.terms.items():
            if g == e:
                translate = None
            else:
                translate, times = translator(g), mult_row(g)
            for (rk, h), d in right:
                if translate is None:
                    key = (lk | rk, h)
                else:
                    key = (lk | translate(rk), times(h))
                old = get(key)
                v = c * d if old is None else old + c * d
                if p:
                    v %= p
                if v:
                    sums[key] = v
                else:
                    del sums[key]
    return AlgebraElement._of_clean(group, field, sums)


def _product(x: "AlgebraElement", y: "AlgebraElement") -> "AlgebraElement":
    """The product x * y: the one-pair case of :func:`_sum_of_products`."""
    return _sum_of_products(x.group, x.field, ((x, y),))


class PairCoefficients(Mapping):
    """The coefficients of an element keyed by canonical pair: a read-only
    view of its terms that decodes a key only when it is read, so that
    ``len`` and truth cost nothing."""

    __slots__ = ("_x",)

    def __init__(self, x: "AlgebraElement") -> None:
        self._x = x

    def __len__(self) -> int:
        return len(self._x.terms)

    def __iter__(self):
        group = self._x.group
        decode = group.key_decoder()
        return (_canonical_pair(group, decode(key), g)
                for key, g in self._x.terms)

    def __getitem__(self, s) -> Scalar:
        x = self._x
        if isinstance(s, SElement) and s.group is x.group:
            c = x.terms.get(_pair_key(x.group, s))
            if c is not None:
                return c
        raise KeyError(s)


class AlgebraElement:
    """A finite K-linear combination of canonical pairs.

    ``terms`` maps ``(key, g)`` to a nonzero coefficient, key the subset
    key of the pair's member set; ``coeffs`` is the same combination keyed
    by :class:`SElement`, read off ``terms``.  The constructor takes the
    pairs of ``group`` (GroupError, a ValueError, for a pair of another
    group) and coerces their coefficients.

    Supports +, -, scalar and algebra multiplication, the star involution,
    and the augmentation onto the idempotent subalgebra B.
    """

    __slots__ = ("group", "field", "terms")

    def __init__(self, group, field: Field, coeffs: dict[SElement, Scalar] | None = None) -> None:
        self.group = group
        self.field = field
        self.terms: dict[tuple, Scalar] = {}
        if coeffs:
            for s, c in coeffs.items():
                key = _pair_key(group, s)
                c = field.of(c)
                if c:
                    self.terms[key] = c

    @classmethod
    def _of_clean(cls, group, field: Field, terms: dict) -> "AlgebraElement":
        """Adopt ``(key, g)`` terms whose coefficients are already in
        ``field`` and nonzero, as ``linalg.accumulate`` produces them,
        without checking again."""
        x = object.__new__(cls)
        x.group = group
        x.field = field
        x.terms = terms
        return x

    @property
    def coeffs(self) -> PairCoefficients:
        return PairCoefficients(self)

    def _check(self, other: "AlgebraElement") -> None:
        if self.group is not other.group or (self.field is not other.field
                                             and self.field != other.field):
            raise ValueError("elements of different partial group algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        terms = accumulate(self.field, chain(self.terms.items(),
                                             other.terms.items()))
        return AlgebraElement._of_clean(self.group, self.field, terms)

    def _negated_terms(self):
        """The terms (k, -c); over F_p, -c of a nonzero c is p - c."""
        p = self.field.char
        if p:
            return ((k, p - c) for k, c in self.terms.items())
        return ((k, -c) for k, c in self.terms.items())

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._of_clean(self.group, self.field,
                                        dict(self._negated_terms()))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        terms = accumulate(self.field, chain(self.terms.items(),
                                             other._negated_terms()))
        return AlgebraElement._of_clean(self.group, self.field, terms)

    def scale(self, c) -> "AlgebraElement":
        f = self.field
        c = f.of(c)
        terms = {k: f.of(f.mul(c, v))
                 for k, v in self.terms.items()} if c else {}
        return AlgebraElement._of_clean(self.group, f, terms)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return _product(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def star(self) -> "AlgebraElement":
        """(A, g) -> (g^-1 A, g^-1) on every term, a bijection of keys."""
        grp = self.group
        terms = {}
        for (key, g), c in self.terms.items():
            gi = grp.inv(g)
            terms[(grp.key_translator(gi)(key), gi)] = c
        return AlgebraElement._of_clean(grp, self.field, terms)

    def augmentation(self) -> "AlgebraElement":
        """Project onto B by flattening each (A, g) to (A, 1)."""
        e = self.group.identity_index
        terms = accumulate(self.field, (
            ((key, e), c) for (key, _), c in self.terms.items()))
        return AlgebraElement._of_clean(self.group, self.field, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_in_b(self) -> bool:
        e = self.group.identity_index
        return all(g == e for _, g in self.terms)

    def support(self) -> list[SElement]:
        return sorted(self.coeffs, key=SElement.sort_key)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.group is other.group
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.field,
                     frozenset(self.terms.items())))

    def render(self) -> str:
        if not self.terms:
            return "0"
        f = self.field
        coeffs = self.coeffs
        parts: list[str] = []
        for s in self.support():
            c = coeffs[s]
            body = s.render()
            negative = f.char == 0 and c < 0
            mag = -c if negative else c
            if body == "1":
                text = str(mag)
            elif mag == f.one:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(("-" if negative else "") + text)
            else:
                parts.append(("- " if negative else "+ ") + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return self.render()


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<idem>e\{(?P<iname>[^}]*)\})"
    r"|(?P<brk>\[(?P<bname>[^\]]*)\])|(?P<one>1)|(?P<op>[+\-*]))"
)


class PartialGroupAlgebra:
    """The partial group algebra of a group over an exact field.

    Provides the generators, the canonical and primitive-idempotent bases
    (finite groups only), coordinate conversion between them, and a parser
    for the rendered text form.
    """

    def __init__(self, group, field: Field = QQ) -> None:
        self.group = group
        self.field = field
        self._canonical: list[SElement] | None = None
        self._primitive: list[tuple[int, ...]] | None = None
        self._primitive_keys: list | None = None

    # --- constructors -------------------------------------------------

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self.group, self.field)

    def _unit_term(self, members: tuple, g: int) -> AlgebraElement:
        """The pair (members, g) with coefficient 1; ``members`` holds the
        identity and g."""
        key = self.group.subset_key(members)
        return AlgebraElement._of_clean(self.group, self.field,
                                        {(key, g): self.field.one})

    def one(self) -> AlgebraElement:
        e = self.group.identity_index
        return self._unit_term((e,), e)

    def monomial(self, s: SElement, c=1) -> AlgebraElement:
        return AlgebraElement(self.group, self.field, {s: c})

    def bracket(self, g) -> AlgebraElement:
        """The generator [g]."""
        gi = _gidx(self.group, g)
        return self._unit_term((self.group.identity_index, gi), gi)

    def idem(self, g) -> AlgebraElement:
        """The idempotent e_g = [g][g^-1]."""
        gi = _gidx(self.group, g)
        e = self.group.identity_index
        return self._unit_term((e, gi), e)

    def element(self, terms: dict) -> AlgebraElement:
        return AlgebraElement(self.group, self.field, terms)

    # --- bases (finite groups) -----------------------------------------

    def _require_finite(self) -> None:
        if not self.group.is_finite:
            raise GroupError("operation requires a finite group")

    def subsets_with_identity(self) -> list[tuple[int, ...]]:
        """All subsets of G containing 1, as sorted index tuples, lex order."""
        self._require_finite()
        if self._primitive is None:
            n = self.group.order
            rest = [i for i in range(n) if i != 0]
            subsets = []
            for k in range(len(rest) + 1):
                for extra in combinations(rest, k):
                    subsets.append(tuple(sorted((0,) + extra)))
            self._primitive = sorted(subsets)
        return self._primitive

    def subset_keys(self) -> list[int]:
        """The subset keys of ``subsets_with_identity``, in its order."""
        if self._primitive_keys is None:
            self._primitive_keys = list(map(self.group.subset_key,
                                            self.subsets_with_identity()))
        return self._primitive_keys

    def canonical_basis(self) -> list[SElement]:
        """All pairs (A, g), ordered by A lex then g ascending."""
        self._require_finite()
        if self._canonical is None:
            out = []
            for a in self.subsets_with_identity():
                for g in a:
                    out.append(SElement(self.group, a, g))
            self._canonical = out
        return self._canonical

    def dimension(self) -> int:
        """dim K_par G = (|G| + 1) * 2^(|G| - 2) for |G| >= 2, else 1."""
        self._require_finite()
        n = self.group.order
        if n == 1:
            return 1
        return (n + 1) * 2 ** (n - 2)

    # --- primitive idempotent coordinates on B ---------------------------

    def primitive_vector(self, x: AlgebraElement) -> Column:
        """Coordinates of x in B over the primitive idempotents e_A.

        Uses (C, 1) = sum of e_A over A containing C, A read as a mask:
        A contains C iff ``a & need == need``.  Raises if x is not in B.
        """
        self._require_finite()
        if not x.is_in_b():
            raise ValueError("element is not in the idempotent subalgebra B")
        keys = self.subset_keys()

        def terms():
            for (need, _), c in x.terms.items():
                for k, a in enumerate(keys):
                    if a & need == need:
                        yield k, c

        return accumulate(self.field, terms())

    def idempotent_product(self, inside: Iterable, outside: Iterable) -> AlgebraElement:
        """The product of e_i over ``inside`` and of (1 - e_o) over the set
        O of ``outside``, with no product formed: the e's commute and
        (C, 1)(D, 1) = (C union D, 1), so expanding the factors (1 - e_o)
        gives the sum over T inside O of (-1)^|T| (I union T, 1), I the
        inside elements with 1.  An element of both, or 1 in O, gives zero:
        the terms at T and at T with it added are equal and cancel.
        """
        group, f = self.group, self.field
        e = group.identity_index
        key_of = group.subset_key
        base = key_of({_gidx(group, i) for i in inside} | {e})
        rest = sorted({_gidx(group, o) for o in outside})
        signs = (f.one, f.neg(f.one))
        terms = accumulate(f, (
            ((key, e), signs[k % 2])
            for k in range(len(rest) + 1)
            for key in (base | key_of(t) for t in combinations(rest, k))))
        return AlgebraElement._of_clean(group, f, terms)

    def from_primitive(self, coeffs: dict[tuple[int, ...], Scalar]) -> AlgebraElement:
        """Rebuild sum c_A e_A as canonical pairs by inclusion-exclusion.

        e_A is the product of e_r over r in A and of (1 - e_s) over s in G
        outside A, so it is ``idempotent_product`` with O = G minus A:
        e_A = sum over T outside A of (-1)^|T| (A union T, 1).
        """
        self._require_finite()
        out = self.zero()
        for a, c in coeffs.items():
            rest = set(range(self.group.order)).difference(a)
            out = out + self.idempotent_product(a, rest).scale(c)
        return out

    def primitive_idempotent(self, a: Iterable[int]) -> AlgebraElement:
        return self.from_primitive({tuple(sorted(set(a) | {0})): self.field.one})

    # --- parsing ----------------------------------------------------------

    def parse(self, text: str) -> AlgebraElement:
        """Parse the rendered form: terms like ``2*e{a}e{b}[ab] - 1/2*[a] + 1``."""
        f = self.field
        total = self.zero()
        sign = f.one
        coeff = None
        factor = None
        pos = 0

        def flush():
            nonlocal total, sign, coeff, factor
            if coeff is None and factor is None:
                raise ValueError(f"empty term in {text!r}")
            c = coeff if coeff is not None else f.one
            x = factor if factor is not None else self.one()
            total = total + x.scale(f.mul(sign, c))
            coeff = None
            factor = None

        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse {text!r} at position {pos}")
            pos = m.end()
            if m.group("num"):
                c = f.of(Fraction(m.group("num")))
                coeff = c if coeff is None else f.mul(coeff, c)
            elif m.group("idem"):
                x = self.idem(self._name_to_index(m.group("iname")))
                factor = x if factor is None else factor * x
            elif m.group("brk"):
                x = self.bracket(self._name_to_index(m.group("bname")))
                factor = x if factor is None else factor * x
            elif m.group("one"):
                x = self.one()
                factor = x if factor is None else factor * x
            elif m.group("op"):
                op = m.group("op")
                if op == "*":
                    continue
                if coeff is None and factor is None:
                    # leading sign of the first term (or a doubled sign)
                    if op == "-":
                        sign = f.neg(sign)
                    continue
                flush()
                sign = f.one if op == "+" else f.neg(f.one)
        flush()
        return total

    def _name_to_index(self, name: str) -> int:
        name = name.strip()
        if not self.group.is_finite:
            try:
                return int(name)
            except ValueError:
                raise ValueError(f"bad integer element {name!r}") from None
        return self.group.element(name).index

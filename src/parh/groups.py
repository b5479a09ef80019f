"""Finite groups by multiplication table, plus the integers.

Groups are presented concretely: a validated Cayley table with element 0 as
the identity, or the additive group of integers for the bounded-window
material.  Elements are small handles carrying (group, index); for the
integers the index is the exponent itself.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from .linalg import Field, SparseMatrix


class GroupError(ValueError):
    """A multiplication table fails the group axioms, or a lookup fails."""


class GroupElement:
    """An element of a :class:`FiniteGroup` or of :class:`Integers`."""

    __slots__ = ("group", "index")

    def __init__(self, group, index: int) -> None:
        self.group = group
        self.index = index

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.group is not other.group:
            raise GroupError("elements of different groups")
        return GroupElement(self.group, self.group.mult(self.index, other.index))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group.inv(self.index))

    def __pow__(self, n: int) -> "GroupElement":
        out = self.group.identity
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            out = out * base
        return out

    def is_identity(self) -> bool:
        return self.index == self.group.identity_index

    @property
    def name(self) -> str:
        return self.group.element_name(self.index)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.group is other.group
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.index))

    def __lt__(self, other: "GroupElement") -> bool:
        if self.group is not other.group:
            raise GroupError("elements of different groups")
        return self.index < other.index

    def __repr__(self) -> str:
        return self.name


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j, and
    element 0 must be the identity.  The constructor checks the Latin
    square property, associativity, and inverses, so anything that gets
    built really is a group.
    """

    is_finite = True

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        names: Sequence[str] | None = None,
        name: str = "G",
    ) -> None:
        n = len(table)
        if n == 0:
            raise GroupError("empty multiplication table")
        for i, row in enumerate(table):
            if len(row) != n:
                raise GroupError(f"row {i} has length {len(row)}, expected {n}")
            for v in row:
                if not (0 <= v < n):
                    raise GroupError(f"table entry {v} outside 0..{n - 1}")
        self.table = [list(row) for row in table]
        self.name = name
        full = set(range(n))
        for i in range(n):
            if set(self.table[i]) != full:
                raise GroupError(f"row {i} is not a permutation (not a Latin square)")
            if {self.table[j][i] for j in range(n)} != full:
                raise GroupError(f"column {i} is not a permutation (not a Latin square)")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise GroupError("element 0 is not an identity")
        self._inv = [0] * n
        for i in range(n):
            found = [j for j in range(n) if self.table[i][j] == 0]
            if len(found) != 1 or self.table[found[0]][i] != 0:
                raise GroupError(f"element {i} has no two-sided inverse")
            self._inv[i] = found[0]
        for i in range(n):
            for j in range(n):
                ij = self.table[i][j]
                for k in range(n):
                    if self.table[ij][k] != self.table[i][self.table[j][k]]:
                        raise GroupError(
                            f"associativity fails at ({i}, {j}, {k})"
                        )
        if names is not None:
            if len(names) != n:
                raise GroupError("names length must match group order")
            if len(set(names)) != n:
                raise GroupError("element names must be distinct")
            self.names = list(names)
        else:
            self.names = ["1"] + [f"g{i}" for i in range(1, n)]

    identity_index = 0

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, 0)

    @property
    def elements(self) -> list[GroupElement]:
        return [GroupElement(self, i) for i in range(self.order)]

    def element(self, key: int | str) -> GroupElement:
        if isinstance(key, str):
            try:
                return GroupElement(self, self.names.index(key))
            except ValueError:
                raise GroupError(f"no element named {key!r} in {self.name}") from None
        if not (0 <= key < self.order):
            raise GroupError(f"element index {key} outside 0..{self.order - 1}")
        return GroupElement(self, key)

    def element_name(self, i: int) -> str:
        return self.names[i]

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def __repr__(self) -> str:
        return f"{self.name} (order {self.order})"


_INTEGER_BOUND = 2**62


class Integers:
    """The additive group of integers; element index = the integer itself.

    Indices are kept below 2**62 in absolute value so that products of
    indices used in hashes never silently wrap.  The bound is far beyond
    anything the bounded-window computations touch.
    """

    is_finite = False
    identity_index = 0
    name = "Z"
    order = None

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, 0)

    def element(self, i: int) -> GroupElement:
        if abs(i) >= _INTEGER_BOUND:
            raise GroupError(f"integer {i} outside the supported range")
        return GroupElement(self, i)

    def element_name(self, i: int) -> str:
        return str(i)

    def mult(self, i: int, j: int) -> int:
        k = i + j
        if abs(k) >= _INTEGER_BOUND:
            raise GroupError("integer overflow in group operation")
        return k

    def inv(self, i: int) -> int:
        return -i

    def __repr__(self) -> str:
        return "Z"


INTEGERS = Integers()


class Subgroup:
    """A subgroup of a finite group, as a sorted tuple of element indices."""

    is_finite = True
    identity_index = 0

    def __init__(self, parent: FiniteGroup, indices: Iterable[int]) -> None:
        idx = sorted(set(indices))
        if 0 not in idx:
            raise GroupError("subgroup must contain the identity")
        have = set(idx)
        for i in idx:
            if parent.inv(i) not in have:
                raise GroupError(f"subset not closed under inverse at {i}")
            for j in idx:
                if parent.mult(i, j) not in have:
                    raise GroupError(f"subset not closed under product at ({i}, {j})")
        self.parent = parent
        self.indices = tuple(idx)
        self.name = "{" + ",".join(parent.element_name(i) for i in idx) + "}"

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def identity(self) -> GroupElement:
        return self.parent.identity

    @property
    def elements(self) -> list[GroupElement]:
        return [GroupElement(self.parent, i) for i in self.indices]

    def contains(self, g: GroupElement) -> bool:
        return g.group is self.parent and g.index in self.indices

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.indices == other.indices
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.indices))

    def __repr__(self) -> str:
        return f"subgroup {self.name} of {self.parent.name}"


def subgroup_generated(parent: FiniteGroup, gens: Iterable[GroupElement | int]) -> Subgroup:
    """The subgroup generated by the given elements (indices accepted)."""
    seed = {0}
    for g in gens:
        idx = g.index if isinstance(g, GroupElement) else int(g)
        if isinstance(g, GroupElement) and g.group is not parent:
            raise GroupError("generator from a different group")
        seed.add(idx)
        seed.add(parent.inv(idx))
    closure = set(seed)
    frontier = list(closure)
    while frontier:
        nxt = []
        for i in frontier:
            for j in list(closure):
                for k in (parent.mult(i, j), parent.mult(j, i)):
                    if k not in closure:
                        closure.add(k)
                        nxt.append(k)
        frontier = nxt
    return Subgroup(parent, closure)


def translate(group, g: int, subset: Iterable[int]) -> tuple[int, ...]:
    """The left translate g * subset, as a sorted tuple of indices.

    >>> c3 = build_named_group("C3")
    >>> translate(c3, 1, (0, 2))
    (0, 1)
    """
    return tuple(sorted([group.mult(g, m) for m in subset]))


def _cyclic(n: int, names: Sequence[str], name: str) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, names=names, name=name)


def _direct_product(a: FiniteGroup, b: FiniteGroup, names: Sequence[str], name: str) -> FiniteGroup:
    pairs = [(i, j) for i in range(a.order) for j in range(b.order)]
    pos = {p: k for k, p in enumerate(pairs)}
    table = [
        [pos[(a.mult(i1, i2), b.mult(j1, j2))] for (i2, j2) in pairs]
        for (i1, j1) in pairs
    ]
    return FiniteGroup(table, names=names, name=name)


def _symmetric3() -> FiniteGroup:
    # permutations of {0,1,2} as tuples; r = 3-cycle, s = transposition
    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(3))

    e = (0, 1, 2)
    r = (1, 2, 0)
    r2 = compose(r, r)
    s = (1, 0, 2)
    elems = [e, r, r2, s, compose(r, s), compose(r2, s)]
    names = ["1", "r", "r2", "s", "rs", "r2s"]
    pos = {p: k for k, p in enumerate(elems)}
    table = [[pos[compose(p, q)] for q in elems] for p in elems]
    return FiniteGroup(table, names=names, name="S3")


def _dihedral4() -> FiniteGroup:
    # elements r^a s^b with r^4 = s^2 = 1 and s r = r^-1 s
    elems = [(a, b) for b in range(2) for a in range(4)]

    def mul(x, y):
        a1, b1 = x
        a2, b2 = y
        a = (a1 + (a2 if b1 == 0 else -a2)) % 4
        return (a, (b1 + b2) % 2)

    names = ["1", "r", "r2", "r3", "s", "rs", "r2s", "r3s"]
    pos = {p: k for k, p in enumerate(elems)}
    table = [[pos[mul(p, q)] for q in elems] for p in elems]
    return FiniteGroup(table, names=names, name="D4")


def _quaternion8() -> FiniteGroup:
    # (sign, axis) with axes 1, i, j, k
    elems = [(s, a) for s in (1, -1) for a in range(4)]
    axis_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }

    def mul(x, y):
        s1, a1 = x
        s2, a2 = y
        s3, a3 = axis_mul[(a1, a2)]
        return (s1 * s2 * s3, a3)

    names = ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]
    order = [(1, 0), (1, 1), (1, 2), (1, 3), (-1, 0), (-1, 1), (-1, 2), (-1, 3)]
    pos = {p: k for k, p in enumerate(order)}
    table = [[pos[mul(p, q)] for q in order] for p in order]
    return FiniteGroup(table, names=names, name="Q8")


def _named_groups() -> dict[str, "FiniteGroup"]:
    c2 = _cyclic(2, ["1", "a"], "C2")
    return {
        "C2": c2,
        "C3": _cyclic(3, ["1", "g", "g2"], "C3"),
        "C4": _cyclic(4, ["1", "g", "g2", "g3"], "C4"),
        "C5": _cyclic(5, ["1", "g", "g2", "g3", "g4"], "C5"),
        "C6": _cyclic(6, ["1", "g", "g2", "g3", "g4", "g5"], "C6"),
        "C2xC2": _direct_product(c2, c2, ["1", "b", "a", "ab"], "C2xC2"),
        "S3": _symmetric3(),
        "D4": _dihedral4(),
        "Q8": _quaternion8(),
    }


NAMED_GROUP_NAMES = ("C2", "C3", "C4", "C5", "C6", "C2xC2", "S3", "D4", "Q8")


def parse_cayley_table(text: str, name: str = "G") -> FiniteGroup:
    """Parse a multiplication table from text.

    Format: first non-comment line is the order n, then n lines of n
    indices; optional trailing lines ``i name`` assign element names.
    Lines starting with ``#`` are ignored.
    """
    lines = [
        ln.strip() for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise GroupError("empty Cayley table file")
    try:
        n = int(lines[0])
    except ValueError:
        raise GroupError(f"expected group order on first line, got {lines[0]!r}") from None
    if len(lines) < 1 + n:
        raise GroupError(f"expected {n} table rows, found {len(lines) - 1}")
    table = []
    for ln in lines[1 : 1 + n]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise GroupError(f"bad table row {ln!r}") from None
        table.append(row)
    names: list[str] | None = None
    rest = lines[1 + n :]
    if rest:
        names = ["1"] + [f"g{i}" for i in range(1, n)]
        for ln in rest:
            parts = ln.split(None, 1)
            if len(parts) != 2:
                raise GroupError(f"bad name line {ln!r} (expected 'index name')")
            try:
                i = int(parts[0])
            except ValueError:
                raise GroupError(f"bad name line {ln!r}") from None
            if not (0 <= i < n):
                raise GroupError(f"name line index {i} outside 0..{n - 1}")
            names[i] = parts[1].strip()
        if len(set(names)) != n:
            raise GroupError("element names must be distinct")
    return FiniteGroup(table, names=names, name=name)


def build_named_group(name: str) -> FiniteGroup:
    """A named group (C2, C3, C4, C5, C6, C2xC2, S3, D4, Q8) or a table file.

    Anything not in the registry is treated as a path to a Cayley-table
    file; a missing path is reported as an unknown group name.
    """
    registry = _named_groups()
    if name in registry:
        return registry[name]
    if os.path.exists(name):
        with open(name, encoding="utf-8") as fh:
            text = fh.read()
        return parse_cayley_table(text, name=os.path.basename(name))
    raise GroupError(
        f"unknown group {name!r}; known names: {', '.join(NAMED_GROUP_NAMES)}"
    )


def trivial_rep(h_group, field: Field) -> dict:
    """The one-dimensional trivial representation, element -> 1x1 identity."""
    one = SparseMatrix.identity(field, 1)
    return {g: one for g in h_group.elements}


def regular_rep(h_group, field: Field) -> dict:
    """The left regular representation of a finite group (or subgroup).

    Basis vectors are indexed by the elements in listed order; the matrix
    of h sends the basis vector at position of x to the position of h*x.
    """
    elems = h_group.elements
    pos = {g: k for k, g in enumerate(elems)}
    out = {}
    for h in elems:
        entries = {(pos[h * x], pos[x]): field.one for x in elems}
        out[h] = SparseMatrix(field, len(elems), len(elems), entries)
    return out

"""Group construction: named tables, validation, subgroups, the integers."""

import pytest

from parh.groups import (
    GroupElement,
    GroupError,
    INTEGERS,
    NAMED_GROUP_NAMES,
    FiniteGroup,
    Subgroup,
    build_named_group,
    parse_cayley_table,
    regular_rep,
    trivial_rep,
)
from parh.linalg import QQ, SparseMatrix


EXPECTED_ORDERS = {
    "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6,
    "C2xC2": 4, "S3": 6, "D4": 8, "Q8": 8,
}


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_named_groups_build_and_validate(name):
    g = build_named_group(name)
    assert g.order == EXPECTED_ORDERS[name]
    assert g.element_name(0) == "1"
    assert g.identity.is_identity()
    for x in g.elements:
        assert (x * x.inverse()).is_identity()


# Each named table, one row per word, and its element names, as the
# registry built them when every lookup built all nine groups.
NAMED_TABLES = {
    "C2": ("01 10", ["1", "a"]),
    "C3": ("012 120 201", ["1", "g", "g2"]),
    "C4": ("0123 1230 2301 3012", ["1", "g", "g2", "g3"]),
    "C5": ("01234 12340 23401 34012 40123", ["1", "g", "g2", "g3", "g4"]),
    "C6": ("012345 123450 234501 345012 450123 501234",
           ["1", "g", "g2", "g3", "g4", "g5"]),
    "C2xC2": ("0123 1032 2301 3210", ["1", "b", "a", "ab"]),
    "S3": ("012345 120453 201534 354021 435102 543210",
           ["1", "r", "r2", "s", "rs", "r2s"]),
    "D4": ("01234567 12305674 23016745 30127456 47650321 54761032 "
           "65472103 76543210", ["1", "r", "r2", "r3", "s", "rs", "r2s", "r3s"]),
    "Q8": ("01234567 14365072 27416305 32547610 45670123 50721436 "
           "63052741 76103254", ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]),
}


def test_named_lookup_builds_only_the_named_group(monkeypatch):
    built = []
    real = FiniteGroup.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("name"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counted)
    assert tuple(NAMED_TABLES) == NAMED_GROUP_NAMES
    for name, (rows, names) in NAMED_TABLES.items():
        built.clear()
        group = build_named_group(name)
        assert built == [name]
        assert group.table == [[int(c) for c in row] for row in rows.split()]
        assert (group.name, group.names) == (name, names)
        # each call returns a new group, with no table kept across calls
        assert build_named_group(name) is not group


def test_cyclic_structure():
    c4 = build_named_group("C4")
    g = c4.element("g")
    assert (g * g).name == "g2"
    assert (g**4).is_identity()
    assert g.inverse().name == "g3"


def test_s3_is_nonabelian():
    s3 = build_named_group("S3")
    r, s = s3.element("r"), s3.element("s")
    assert r * s != s * r
    assert (r * s).name == "rs"
    assert (s * r).name == "r2s"
    assert (r * r * r).is_identity()
    assert (s * s).is_identity()


def test_d4_relations():
    d4 = build_named_group("D4")
    r, s = d4.element("r"), d4.element("s")
    assert (r**4).is_identity()
    assert s * r == r.inverse() * s
    assert (r * s).name == "rs"


def test_q8_relations():
    q8 = build_named_group("Q8")
    i, j, k = q8.element("i"), q8.element("j"), q8.element("k")
    minus_one = q8.element("-1")
    assert i * i == minus_one
    assert i * j == k
    assert j * i == minus_one * k
    assert (minus_one * minus_one).is_identity()


def test_element_lookup_errors():
    c3 = build_named_group("C3")
    with pytest.raises(GroupError):
        c3.element("nope")
    with pytest.raises(GroupError):
        c3.element(7)
    c2 = build_named_group("C2")
    with pytest.raises(GroupError):
        c3.element(0) * c2.element(0)


def test_table_validation_rejects_non_groups():
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(GroupError):
        FiniteGroup([[1, 0], [0, 1]])  # 0 is not the identity
    # a Latin square with identity that is not a group
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(GroupError):
        FiniteGroup(loop)


def subgroup_generated(parent, gens):
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


def test_subgroup_generated():
    s3 = build_named_group("S3")
    rot = subgroup_generated(s3, [s3.element("r")])
    assert rot.order == 3
    assert rot.indices == (0, 1, 2)
    refl = subgroup_generated(s3, [s3.element("s")])
    assert refl.order == 2
    assert subgroup_generated(s3, [s3.element("r"), s3.element("s")]).order == 6
    assert subgroup_generated(s3, []).order == 1
    assert s3.element("r2").index in rot.indices
    assert s3.element("s").index not in rot.indices


def test_subgroup_rejects_non_closed():
    s3 = build_named_group("S3")
    with pytest.raises(GroupError):
        Subgroup(s3, (0, 1))  # {1, r} is not closed: r*r = r2 missing


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_mult_row_reads_the_table(name):
    g = build_named_group(name)
    for a in range(g.order):
        row = g.mult_row(a)
        assert [row(b) for b in range(g.order)] == [
            g.mult(a, b) for b in range(g.order)]


def test_integer_mult_row_keeps_the_overflow_test():
    for sign in (1, -1):
        row = INTEGERS.mult_row(sign * (2**62 - 2))
        assert row(sign) == INTEGERS.mult(sign * (2**62 - 2), sign)
        with pytest.raises(GroupError):
            row(2 * sign)


def test_integers_adapter():
    z = INTEGERS
    assert not z.is_finite
    assert z.mult(3, -5) == -2
    assert z.inv(7) == -7
    a = z.element(2)
    assert (a * a).index == 4
    assert a.inverse().index == -2
    assert z.element_name(-3) == "-3"
    with pytest.raises(GroupError):
        z.element(2**63)


def test_parse_cayley_table_with_names():
    text = """
    # the cyclic group of order 3
    3
    0 1 2
    1 2 0
    2 0 1
    1 x
    2 y
    """
    g = parse_cayley_table(text, name="custom")
    assert g.order == 3
    assert g.element("x") * g.element("x") == g.element("y")
    assert g.element_name(0) == "1"


def test_parse_cayley_table_errors():
    with pytest.raises(GroupError):
        parse_cayley_table("")
    with pytest.raises(GroupError):
        parse_cayley_table("2\n0 1")
    with pytest.raises(GroupError):
        parse_cayley_table("2\n0 1\n1 2")  # entry out of range
    with pytest.raises(GroupError):
        parse_cayley_table("x\n0")


def test_build_named_group_from_file(tmp_path):
    path = tmp_path / "c2.table"
    path.write_text("2\n0 1\n1 0\n1 t\n")
    g = build_named_group(str(path))
    assert g.order == 2
    assert g.element_name(1) == "t"


def test_build_named_group_unknown():
    with pytest.raises(GroupError):
        build_named_group("C7_missing")


def test_regular_rep_is_a_homomorphism():
    c3 = build_named_group("C3")
    u = regular_rep(c3, QQ)
    for g in c3.elements:
        for h in c3.elements:
            assert u[g] * u[h] == u[g * h]
    assert u[c3.identity] == SparseMatrix.identity(QQ, 3)


def test_trivial_rep():
    s3 = build_named_group("S3")
    h = subgroup_generated(s3, [s3.element("s")])
    u = trivial_rep(h, QQ)
    assert len(u) == 2
    for m in u.values():
        assert m == SparseMatrix.identity(QQ, 1)

"""End-to-end tests of the command-line interface.

Every invocation goes through main(argv) so the tests exercise the same
code path as the installed script: argument parsing, handler dispatch,
text and JSON emission, and the exit-code contract (0 pass, 1 failed
verification, 2 configuration error, 3 size cap).
"""

import json
from itertools import permutations

import pytest

from parh import zcase
from parh.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_OK,
    build_parser,
    main,
)
from parh.exel import PartialGroupAlgebra
from parh.groupoid import build_groupoid, components
from parh.groups import NAMED_GROUP_NAMES, parse_cayley_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# --- kpar ------------------------------------------------------------------


def test_kpar_dim_text_is_exact(capsys):
    code, out, _ = run(capsys, "kpar", "dim", "--group", "C3")
    assert code == EXIT_OK
    assert out == "dim K_par C3 = 8\n"


def test_kpar_dim_json(capsys):
    code, data, _ = run_json(capsys, "kpar", "dim", "--group", "C2")
    assert code == EXIT_OK
    assert data == {"group": "C2", "dim": 3}


def test_kpar_basis_lists_every_canonical_pair(capsys):
    code, data, _ = run_json(capsys, "kpar", "basis", "--group", "C2")
    assert code == EXIT_OK
    assert data["dim"] == 3
    assert len(data["basis"]) == 3
    code, out, _ = run(capsys, "kpar", "basis", "--group", "C2")
    assert out.splitlines()[0] == "dim K_par C2 = 3"
    assert len(out.splitlines()) == 4


def _c24_table(tmp_path):
    path = tmp_path / "c24.txt"
    path.write_text("24\n" + "\n".join(
        " ".join(str((i + j) % 24) for j in range(24)) for i in range(24)))
    return str(path)


def test_kpar_basis_cap_exits_3_before_listing(capsys, monkeypatch, tmp_path):
    def unreachable(self):
        raise AssertionError("kpar basis listed pairs before the cap")

    monkeypatch.setattr(PartialGroupAlgebra, "canonical_basis", unreachable)
    code, data, err = run_json(capsys, "kpar", "basis", "--table",
                               _c24_table(tmp_path))
    assert code == EXIT_CAP
    assert data == {"error": "size_cap", "message": err[len("size cap: "):-1],
                    "limit": 1_000_000, "requested": 25 * 2 ** 22}


def test_kpar_dim_from_table_file(capsys, tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    code, out, _ = run(capsys, "kpar", "dim", "--table", str(path))
    assert code == EXIT_OK
    assert out == "dim K_par c3 = 8\n"


# --- groups ----------------------------------------------------------------


def test_groups_list_names_every_builtin(capsys):
    code, data, _ = run_json(capsys, "groups", "list")
    assert code == EXIT_OK
    assert [g["name"] for g in data["groups"]] == list(NAMED_GROUP_NAMES)
    orders = {g["name"]: g["order"] for g in data["groups"]}
    assert orders["S3"] == 6 and orders["Q8"] == 8


def test_groups_show_table_and_inverses(capsys):
    code, data, _ = run_json(capsys, "groups", "show", "--group", "C2")
    assert code == EXIT_OK
    assert data["table"] == [["1", "a"], ["a", "1"]]
    assert data["inverses"] == {"1": "1", "a": "a"}


# --- groupoid --------------------------------------------------------------


def test_groupoid_components_block_identity(capsys):
    code, data, _ = run_json(capsys, "groupoid", "components",
                             "--group", "C3")
    assert code == EXIT_OK
    assert data["equal"] is True
    assert data["sum_of_blocks"] == data["algebra_dimension"] == 8
    assert len(data["components"]) == 3


def test_groupoid_order_cap_exits_3(capsys):
    code, _, err = run(capsys, "groupoid", "components", "--group", "S3",
                       "--max-group-order", "4")
    assert code == EXIT_CAP
    assert "cap" in err
    code, data, err = run_json(capsys, "groupoid", "components", "--group",
                               "S3", "--max-group-order", "4")
    assert code == EXIT_CAP
    assert "cap" in err
    assert data == {"error": "size_cap", "message": err[len("size cap: "):-1],
                    "limit": 4, "requested": 6}


# --- homology --------------------------------------------------------------


def test_homology_partial_with_expected_dims(capsys):
    code, data, _ = run_json(capsys, "homology", "partial", "--group", "C2",
                             "--module", "B", "--field", "F2", "--max", "3",
                             "--expect-dims", "2,1,1,1")
    assert code == EXIT_OK
    assert data["dims"] == [2, 1, 1, 1]
    assert data["checks"] == {"d2_zero": True, "homotopy_id": True}
    assert data["ok"] is True


def test_homology_wrong_expectation_exits_1(capsys):
    code, data, _ = run_json(capsys, "homology", "partial", "--group", "C2",
                             "--module", "B", "--field", "F2",
                             "--expect-dims", "9,9,9")
    assert code == EXIT_FAIL
    assert data["ok"] is False


def test_homology_cohomology_command(capsys):
    code, data, _ = run_json(capsys, "homology", "cohomology",
                             "--group", "C3", "--module", "regular",
                             "--field", "F3", "--max", "2")
    assert code == EXIT_OK
    assert data["dims"][1:] == [0, 0]


def test_homology_induced_module_needs_component(capsys):
    code, _, err = run(capsys, "homology", "partial", "--group", "C3",
                       "--module", "WxTrivial")
    assert code == EXIT_CONFIG
    assert "--component" in err
    code, _, _ = run(capsys, "homology", "partial", "--group", "C3",
                     "--module", "WxTrivial", "--component", "2")
    assert code == EXIT_OK


def test_homology_unknown_module_exits_2(capsys):
    code, _, err = run(capsys, "homology", "partial", "--group", "C2",
                       "--module", "nonsense")
    assert code == EXIT_CONFIG
    assert "module" in err
    code, data, _ = run_json(capsys, "homology", "partial", "--group", "C2",
                             "--module", "nonsense")
    assert code == EXIT_CONFIG
    assert data["error"] == "config"
    assert "module" in data["message"]
    assert data["limit"] is None and data["requested"] is None


def test_homology_column_cap_exits_3(capsys):
    code, _, err = run(capsys, "homology", "partial", "--group", "C4",
                       "--module", "regular", "--max", "3",
                       "--max-columns", "50")
    assert code == EXIT_CAP
    assert "cap" in err
    code, data, _ = run_json(capsys, "homology", "partial", "--group", "C4",
                             "--module", "regular", "--max", "3",
                             "--max-columns", "50")
    assert code == EXIT_CAP
    assert data["error"] == "size_cap"
    assert data["limit"] == 50
    assert data["requested"] > 50


def test_homology_ordinary_trivial_mod_2(capsys):
    code, data, _ = run_json(capsys, "homology", "ordinary", "--group", "C2",
                             "--rep", "trivial", "--field", "F2",
                             "--max", "3", "--co",
                             "--expect-dims", "1,1,1,1")
    assert code == EXIT_OK
    assert data["dims"] == [1, 1, 1, 1]


# --- verify ----------------------------------------------------------------


def test_verify_theorem_a_full_component(capsys):
    code, data, _ = run_json(capsys, "verify", "theorem-a", "--group", "C2",
                             "--component", "1", "--field", "F2",
                             "--max", "3")
    assert code == EXIT_OK
    assert data["stabilizer_order"] == 2
    assert data["homology"]["partial"] == data["homology"]["ordinary"]
    assert data["ok"] is True


def test_verify_theorem_a_component_out_of_range(capsys):
    code, _, err = run(capsys, "verify", "theorem-a", "--group", "C2",
                       "--component", "7")
    assert code == EXIT_CONFIG
    assert "out of range" in err


def test_verify_corollary_b_matches_documented_shape(capsys):
    code, data, _ = run_json(capsys, "verify", "corollary-b", "--group", "C2",
                             "--field", "F2", "--max", "3")
    assert code == EXIT_OK
    assert data["dims_bar"] == [2, 1, 1, 1]
    assert data["dims_sum"] == [2, 1, 1, 1]
    assert data["equal"] is True
    assert data["cohomology"]["equal"] is True


def test_verify_corollary_b_lifts_the_group_order_cap(capsys, tmp_path):
    path = tmp_path / "c9.txt"
    path.write_text("9\n" + "".join(
        " ".join(str((i + j) % 9) for j in range(9)) + "\n" for i in range(9)))
    code, data, _ = run_json(capsys, "verify", "corollary-b", "--table",
                             str(path), "--field", "F3", "--max", "1",
                             "--max-group-order", "9")
    assert code == EXIT_OK
    assert data["dims_bar"] == data["dims_sum"] == [59, 3]
    assert data["ok"] is True


def _a4_table_text():
    """A4 as the even permutations of four points, identity at 0."""
    perms = [p for p in sorted(permutations(range(4)))
             if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    pos = {p: k for k, p in enumerate(perms)}
    rows = [" ".join(str(pos[tuple(p[q[x]] for x in range(4))]) for q in perms)
            for p in perms]
    return "# A4\n12\n" + "\n".join(rows) + "\n"


def test_verify_theorem_a_runs_on_a4_full_vertex(capsys, tmp_path):
    # The homotopy certificate counts only the G block, 12^3 labels at
    # --max 2; over all subsets it would count 2048 * 12^3 and exit 3.
    path = tmp_path / "a4.txt"
    path.write_text(_a4_table_text())
    a4 = parse_cayley_table(path.read_text(), name="a4")
    comps = components(build_groupoid(a4, cap=12))
    full = next(k for k, c in enumerate(comps) if c.stabilizer.order == 12)
    code, data, _ = run_json(capsys, "verify", "theorem-a", "--table",
                             str(path), "--max-group-order", "12", "--field",
                             "F2", "--max", "2", "--component", str(full))
    assert code == EXIT_OK and data["ok"] is True
    for side in ("homology", "cohomology"):
        assert data[side]["partial"] == data[side]["ordinary"] == [1, 0, 1]


def test_verify_corollary_b_group_order_cap_exits_3(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("b_module ran before the group order cap")

    monkeypatch.setattr("parh.homology.b_module", unreachable)
    code, data, err = run_json(capsys, "verify", "corollary-b", "--group",
                               "S3", "--max-group-order", "4")
    assert code == EXIT_CAP
    assert data == {"error": "size_cap", "message": err[len("size cap: "):-1],
                    "limit": 4, "requested": 6}


REGULAR_MODULE_COMMANDS = [
    ("verify", "kpar-coeff-vanishing"),
    ("homology", "partial", "--module", "regular"),
    ("homology", "cohomology", "--module", "regular"),
]


@pytest.mark.parametrize("command", REGULAR_MODULE_COMMANDS)
def test_regular_module_group_order_cap_exits_3(capsys, monkeypatch, command):
    def unreachable(*args):
        raise AssertionError("a module was built before the group order cap")

    monkeypatch.setattr("parh.groupoid.PartialRepModule", unreachable)
    code, data, err = run_json(capsys, *command, "--group", "S3",
                               "--max-group-order", "4")
    assert code == EXIT_CAP
    assert data == {"error": "size_cap", "message": err[len("size cap: "):-1],
                    "limit": 4, "requested": 6}


@pytest.mark.parametrize("command", REGULAR_MODULE_COMMANDS)
def test_regular_module_column_cap_exits_3_before_building(capsys, monkeypatch,
                                                           command):
    def unreachable(*args):
        raise AssertionError("the regular module was built before the column cap")

    monkeypatch.setattr("parh.cli.regular_module", unreachable)
    code, data, err = run_json(capsys, *command, "--group", "D4", "--field",
                               "Q", "--max", "3")
    assert code == EXIT_CAP
    assert data == {"error": "size_cap", "message": err[len("size cap: "):-1],
                    "limit": 1_000_000, "requested": 8 ** 4 * 576}
    assert data["message"] == ("transported complex at degree 4 needs "
                               "2359296 basis columns, cap is 1000000")


@pytest.mark.parametrize("command", ["partial", "cohomology"])
def test_b_module_column_cap_exits_3_before_building(capsys, monkeypatch,
                                                     tmp_path, command):
    # the early exit equals the late one, on the complex of B built
    argv = ["homology", command, "--group", "S3", "--max", "3",
            "--max-columns", "500"]
    monkeypatch.setattr("parh.cli.check_transport_cap", lambda *args: None)
    late = run(capsys, *argv, "--json")
    monkeypatch.undo()

    def unreachable(*args):
        raise AssertionError("B was built before the column cap")

    monkeypatch.setattr("parh.cli.b_module", unreachable)
    assert run(capsys, *argv, "--json") == late
    assert late[0] == EXIT_CAP and json.loads(late[1])["requested"] == 1152
    code, data, _ = run_json(capsys, "homology", command, "--table",
                             _c24_table(tmp_path))
    assert code == EXIT_CAP
    assert data == {"error": "size_cap", "message": "transported complex at "
                    "degree 0 needs 8388608 basis columns, cap is 1000000",
                    "limit": 1_000_000, "requested": 2 ** 23}


@pytest.mark.parametrize("command,degree,requested", [
    (("homology", "partial", "--module", "W⊗regular"), 1, 12),
    (("homology", "cohomology", "--module", "W⊗trivial"), 2, 36),
    (("verify", "theorem-a", "--rep", "regular"), 1, 12),
])
def test_induced_module_column_cap_exits_3_before_building(
        capsys, monkeypatch, command, degree, requested):
    def unreachable(*args):
        raise AssertionError("the induced module was built before the cap")

    monkeypatch.setattr("parh.cli.induce_module", unreachable)
    monkeypatch.setattr("parh.homology.induce_module", unreachable)
    base = [*command, "--group", "S3", "--max-columns", "10"]
    code, data, err = run_json(capsys, *base, "--component", "14",
                               "--max", "3")
    assert code == EXIT_CAP
    # the exit the complex's own cap gave once the module was built
    message = (f"transported complex at degree {degree} needs {requested} "
               "basis columns, cap is 10")
    assert (data, err) == ({"error": "size_cap", "message": message,
                            "limit": 10, "requested": requested},
                           f"size cap: {message}\n")
    # the groupoid cap, then the component index, keep their turn first
    code, data, _ = run_json(capsys, *base, "--component", "14", "--max", "3",
                             "--max-group-order", "5")
    assert (code, data["limit"], data["requested"]) == (EXIT_CAP, 5, 6)
    code, data, _ = run_json(capsys, *base, "--component", "15", "--max", "3")
    assert code == EXIT_CONFIG and "out of range" in data["message"]
    # a negative degree is the pipelines' configuration error, as before
    monkeypatch.undo()
    code, data, _ = run_json(capsys, *base, "--component", "14", "--max", "-1")
    assert code == EXIT_CONFIG
    assert data["message"] == "max_degree must be nonnegative"


@pytest.mark.parametrize("command", REGULAR_MODULE_COMMANDS)
def test_regular_module_runs_at_the_group_order_cap(capsys, command):
    code, data, _ = run_json(capsys, *command, "--group", "S3", "--max", "1",
                             "--max-group-order", "6")
    assert code == EXIT_OK
    assert data["dims"] == [32, 0]


def test_verify_section5_all_components(capsys):
    code, data, _ = run_json(capsys, "verify", "section5", "--group", "C3")
    assert code == EXIT_OK
    assert data["ok"] is True
    assert all(c["section_identity"] for c in data["components"])
    assert all(c["tensor"]["ok"] for c in data["components"])


@pytest.mark.parametrize("field", ["F5", "Q"])
def test_verify_section5_s3_tensor_dimensions(capsys, field):
    code, data, _ = run_json(capsys, "verify", "section5", "--group", "S3",
                             "--field", field)
    assert code == EXIT_OK
    assert data["ok"] is True
    tensors = [c["tensor"] for c in data["components"]]
    assert sorted(t["dimension"] for t in tensors) == [
        1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 5]
    assert all(t["dimension"] == t["expected"] and t["ok"] for t in tensors)


def test_z_quotient_cap_exits_3_before_building(capsys, monkeypatch):
    # domain bound 12 - 2 - 2 = 8: its basis is over the cap, and is
    # refused before any monomial of it or the level span is formed
    def unreachable(*args):
        raise AssertionError("z quotient built something before the cap")

    monkeypatch.setattr(zcase, "_canonical_pair", unreachable)
    monkeypatch.setattr(zcase, "level_span_rank", unreachable)
    code, data, _ = run_json(capsys, "z", "quotient", "--k", "1",
                             "--bound", "12")
    assert code == EXIT_CAP
    assert data["error"] == "size_cap"
    assert data["requested"] == zcase.window_size(8) == 589_824
    assert data["limit"] == zcase.Z_WINDOW_CAP


def test_z_quotient_huge_bound_is_refused_on_its_bit_length(capsys,
                                                            monkeypatch):
    # domain bound 999 996: the size (b + 1) 4^b has 2 000 012 bits and is
    # refused on that count, never formed nor printed in full
    def unreachable(*args):
        raise AssertionError("the window size was formed")

    monkeypatch.setattr(zcase, "window_size", unreachable)
    code, data, err = run_json(capsys, "z", "quotient", "--k", "1",
                               "--bound", "1000000")
    assert code == EXIT_CAP
    assert data["error"] == "size_cap"
    assert data["limit"] == zcase.Z_WINDOW_CAP
    assert data["requested"] == "2^2000011 or more"
    assert err == f"size cap: {data['message']}\n"


@pytest.mark.parametrize("k, bound, domain_dim, s1, vk_rank", [
    (3, 12, 1280, 1008, 679_936),
    (4, 12, 48, 32, 193_536),
    (5, 14, 48, 32, 1_009_664)], ids=repr)
def test_z_quotient_runs_windows_whose_edges_exceed_the_cap(
        capsys, k, bound, domain_dim, s1, vk_rank):
    # the level span counts its rank and builds no edge, so the cap bounds
    # only the domain basis and the pairs that the count visits
    code, data, _ = run_json(capsys, "z", "quotient", "--k", str(k),
                             "--bound", str(bound))
    assert code == EXIT_OK and data["ok"]
    assert zcase.window_size(bound - k - 1) * k > zcase.Z_WINDOW_CAP
    assert (data["domain_dim"], data["s1_dim"], data["s2_dim"],
            data["vk_rank"]) == (domain_dim, s1, s1, vk_rank)


def test_verify_section6_module_map_boundary(capsys):
    code, data, _ = run_json(capsys, "verify", "section6", "--group", "C2")
    assert code == EXIT_OK
    assert data["ok"] is True
    by_support = {c["support_full"]: c for c in data["components"]}
    assert by_support[True]["module_map"] is True
    assert by_support[False]["module_map"] is True
    assert all(c["section_identity"] and c["multiplicative"]
               for c in data["components"])
    code, data, _ = run_json(capsys, "verify", "section6", "--group", "C4")
    assert code == EXIT_OK
    assert data["ok"] is True


SECTION6_C4_JSON = (
    '{"group": "C4", "field": "Q", "components": ['
    '{"component": 0, "base": "{1}", "support_full": false, '
    '"section_identity": true, "multiplicative": true, "module_map": true}, '
    '{"component": 1, "base": "{1,g}", "support_full": false, '
    '"section_identity": true, "multiplicative": true, "module_map": true}, '
    '{"component": 2, "base": "{1,g,g2}", "support_full": true, '
    '"section_identity": true, "multiplicative": true, "module_map": true}, '
    '{"component": 3, "base": "{1,g,g2,g3}", "support_full": true, '
    '"section_identity": true, "multiplicative": true, "module_map": true}, '
    '{"component": 4, "base": "{1,g2}", "support_full": false, '
    '"section_identity": true, "multiplicative": true, "module_map": true}'
    '], "ok": true}\n')

_TENSOR_OK = ('"h_action_trivial": true, "phi_kills_relations": true, '
              '"phi_psi_identity": true, "psi_phi_identity": true, "ok": true')
SECTION5_C3_F2_JSON = (
    '{"group": "C3", "field": "F2", "components": ['
    '{"component": 0, "base": "{1}", "section_identity": true, '
    '"tensor": {"dimension": 1, "expected": 1, ' + _TENSOR_OK + '}}, '
    '{"component": 1, "base": "{1,g}", "section_identity": true, '
    '"tensor": {"dimension": 2, "expected": 2, ' + _TENSOR_OK + '}}, '
    '{"component": 2, "base": "{1,g,g2}", "section_identity": true, '
    '"tensor": {"dimension": 1, "expected": 1, ' + _TENSOR_OK + '}}'
    '], "ok": true}\n')


@pytest.mark.parametrize("argv,expected", [
    (("verify", "section6", "--group", "C4"), SECTION6_C4_JSON),
    (("verify", "section5", "--group", "C3", "--field", "F2"),
     SECTION5_C3_F2_JSON),
], ids=["section6-C4", "section5-C3-F2"])
def test_verify_section_json_is_byte_exact(capsys, argv, expected):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    assert out == expected


def test_verify_kpar_coeff_vanishing(capsys):
    code, data, _ = run_json(capsys, "verify", "kpar-coeff-vanishing",
                             "--group", "C2", "--field", "F2", "--max", "2")
    assert code == EXIT_OK
    assert data["vanishing"] is True
    assert data["dims"][1:] == [0, 0]


# --- z ---------------------------------------------------------------------


def test_z_relations(capsys):
    code, data, _ = run_json(capsys, "z", "relations", "--bound", "3")
    assert code == EXIT_OK
    assert data["checked"] == 112
    assert data["failures"] == []


@pytest.mark.parametrize("command,bound,requested", [
    # (2b + 1)^2 pairs (i, j); 447^2 = 199 809 is under the cap
    (("relations",), 224, 449 ** 2),
    # a pool of 2b window members per draw, and 2b tensor generators
    (("cancellation", "--count", "5"), 100_001, 200_002),
    (("ig-decompose",), 100_001, 200_002),
    (("ig-decompose", "--count", "0"), 100_001, 200_002),
    (("relations",), 10 ** 20, (2 * 10 ** 20 + 1) ** 2),
    (("cancellation", "--count", "5"), 10 ** 20, 2 * 10 ** 20),
    (("ig-decompose",), 10 ** 20, 2 * 10 ** 20),
])
def test_z_bound_cap_exits_3_before_the_work(capsys, monkeypatch, command,
                                             bound, requested):
    def unreachable(*args):
        raise AssertionError("an f-generator was built before the cap")

    monkeypatch.setattr(zcase, "f_element", unreachable)
    code, data, err = run_json(capsys, "z", *command, "--bound", str(bound))
    assert code == EXIT_CAP
    assert data["error"] == "size_cap"
    assert (data["limit"], data["requested"]) == (zcase.Z_WINDOW_CAP,
                                                  requested)
    assert err == f"size cap: {data['message']}\n"


def test_z_quotient_documented_example(capsys):
    code, out, _ = run(capsys, "z", "quotient", "--k", "1", "--bound", "6")
    assert code == EXIT_OK
    assert "s2_in_s1 = true" in out
    assert "s1_in_s2 = true" in out


def test_z_quotient_text_and_json_agree(capsys):
    code, data, _ = run_json(capsys, "z", "quotient", "--k", "1",
                             "--bound", "6")
    assert code == EXIT_OK
    _, out, _ = run(capsys, "z", "quotient", "--k", "1", "--bound", "6")
    assert f"s1 dimension {data['s1_dim']}" in out
    assert f"s2 dimension {data['s2_dim']}" in out
    assert data["violations"] == []


def test_z_quotient_rejects_k_zero(capsys):
    code, _, err = run(capsys, "z", "quotient", "--k", "0", "--bound", "6")
    assert code == EXIT_CONFIG
    assert "k" in err


def test_z_cancellation_seeded(capsys):
    code, data, _ = run_json(capsys, "z", "cancellation", "--count", "15",
                             "--max-k", "3", "--seed", "9")
    assert code == EXIT_OK
    assert data["failures"] == []
    assert data["ring"] == "Z"


def test_z_cancellation_finite_ring(capsys):
    code, data, _ = run_json(capsys, "z", "cancellation", "--ring", "C2",
                             "--count", "10", "--max-k", "3", "--seed", "3",
                             "--field", "F2")
    assert code == EXIT_OK
    assert data["failures"] == []


def test_z_cancellation_reports_a_failed_decomposition(capsys, monkeypatch):
    # a wrong b makes cancellation_decompose raise RuntimeError; the trial
    # is recorded as failed instead of escaping main
    real = zcase._cancel

    def wrong_b(es, rs, a):
        mat, b = real(es, rs, a)
        one = PartialGroupAlgebra(es[0].group, es[0].field).one()
        return mat, [x + one for x in b]

    monkeypatch.setattr(zcase, "_cancel", wrong_b)
    code, data, _ = run_json(capsys, "z", "cancellation", "--count", "6",
                             "--max-k", "3", "--seed", "9")
    assert code == EXIT_FAIL
    assert data["ok"] is False
    assert data["failures"]
    assert set(data["failures"]) <= set(range(6))


@pytest.mark.parametrize("max_k", ["0", "448"])
def test_z_cancellation_refuses_max_k_before_any_draw(capsys, monkeypatch,
                                                      max_k):
    # --max-k must be positive, and each instance's k x k matrix is held
    # to the window cap (448^2 = 200 704 entries is past 200 000)
    def unreachable(*args):
        raise AssertionError("an instance was drawn before --max-k's check")

    monkeypatch.setattr("parh.cli.random_cancellation_instance", unreachable)
    code, data, _ = run_json(capsys, "z", "cancellation", "--count", "1",
                             "--max-k", max_k)
    if max_k == "0":
        assert code == EXIT_CONFIG
        assert data == {**_CONFIG_ERROR,
                        "message": "--max-k must be at least 1, got 0"}
    else:
        assert code == EXIT_CAP
        assert (data["error"], data["limit"], data["requested"]) == (
            "size_cap", 200_000, 448 ** 2)
    # one below the cap gets as far as the first draw
    with pytest.raises(AssertionError, match="drawn"):
        main(["z", "cancellation", "--count", "1", "--max-k", "447"])


def test_z_cancellation_is_reproducible(capsys):
    _, first, _ = run(capsys, "z", "cancellation", "--count", "8",
                      "--seed", "4", "--json")
    _, second, _ = run(capsys, "z", "cancellation", "--count", "8",
                       "--seed", "4", "--json")
    assert first == second


def test_z_ig_decompose(capsys):
    code, data, _ = run_json(capsys, "z", "ig-decompose", "--count", "10",
                             "--seed", "2")
    assert code == EXIT_OK
    assert data["failures"] == 0
    assert data["tensor_vanishing"] is True
    assert data["sample"]


# --- plumbing --------------------------------------------------------------


def test_unknown_group_exits_2_with_suggestion(capsys):
    code, _, err = run(capsys, "kpar", "dim", "--group", "C9")
    assert code == EXIT_CONFIG
    assert "C2" in err


def test_unknown_command_exits_2(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == EXIT_CONFIG
    assert "choose from" in err


def test_argument_error_under_json_prints_error_object(capsys):
    code, out, err = run(capsys, "kpar", "dim", "--group", "C2", "--json",
                         "--bogus")
    assert code == EXIT_CONFIG
    assert err.startswith("usage: parh")
    assert "unrecognized arguments: --bogus" in err
    assert json.loads(out) == {"error": "config",
                               "message": "unrecognized arguments: --bogus",
                               "limit": None, "requested": None}
    code, out, err = run(capsys, "homology", "partial", "--json", "--max", "x")
    assert code == EXIT_CONFIG
    assert err.startswith("usage: parh homology partial")
    assert json.loads(out)["error"] == "config"
    code, out, err = run(capsys, "kpar", "dim", "--group", "C2", "--bogus")
    assert code == EXIT_CONFIG and out == "" and "--bogus" in err
    assert main(["kpar", "dim", "--json", "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: parh kpar dim") and '"error"' not in out


def test_missing_table_file_exits_2(capsys):
    code, _, err = run(capsys, "kpar", "dim", "--table", "/no/such/file")
    assert code == EXIT_CONFIG
    assert "No such file" in err


def test_unknown_field_exits_2(capsys):
    code, _, err = run(capsys, "homology", "partial", "--group", "C2",
                       "--field", "F2.5")
    assert code == EXIT_CONFIG
    assert "field" in err


_CONFIG_ERROR = {"error": "config", "limit": None, "requested": None}


@pytest.mark.parametrize("spec", ["F0", "Fp:0"])
def test_zero_characteristic_field_exits_2(capsys, spec):
    # GF(0) would be the rationals; a field spec must name a prime
    code, out, err = run(capsys, "homology", "partial", "--group", "C2",
                         "--field", spec, "--json")
    assert code == EXIT_CONFIG
    assert "prime" in err
    message = "field characteristic must be prime, got 0"
    assert json.loads(out) == {**_CONFIG_ERROR, "message": message}


@pytest.mark.parametrize("argv", [
    ("groupoid", "components", "--max-columns", "10"),
    ("verify", "section5", "--max-columns", "10"),
    ("verify", "section6", "--max-columns", "10"),
    ("homology", "ordinary", "--max-group-order", "10"),
])
def test_caps_a_handler_does_not_read_are_not_options(capsys, argv):
    code, out, err = run(capsys, *argv, "--group", "C2", "--json")
    assert code == EXIT_CONFIG
    assert f"unrecognized arguments: {argv[2]} 10" in err
    assert json.loads(out)["error"] == "config"


@pytest.mark.parametrize("argv", [
    ("z", "cancellation", "--count", "-3"),
    ("z", "ig-decompose", "--count", "-1"),
])
def test_negative_count_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == EXIT_CONFIG
    message = f"--count must be nonnegative, got {argv[-1]}"
    assert message in err
    assert json.loads(out) == {**_CONFIG_ERROR, "message": message}


# A valid command, a rejected command line under --json, --help-schema and
# another subcommand, run in that order through one parser.
_PARSER_RUNS = [
    ("kpar", "dim", "--group", "C3", "--json"),
    ("homology", "partial", "--json", "--max", "x"),
    ("--help-schema",),
    ("verify", "corollary-b", "--group", "C2", "--max", "1", "--json"),
]


def test_parser_is_built_once_and_parses_like_a_fresh_one(capsys):
    build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in _PARSER_RUNS]
    assert build_parser.cache_info().misses == 1
    code, out, _ = shared[1]
    assert code == EXIT_CONFIG and json.loads(out)["error"] == "config"
    for argv, got in zip(_PARSER_RUNS, shared):
        build_parser.cache_clear()
        assert run(capsys, *argv) == got, argv


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verify" in out


def test_help_schema_is_valid_json(capsys):
    assert main(["--help-schema"]) == EXIT_OK
    schemas = json.loads(capsys.readouterr().out)
    assert "verify corollary-b" in schemas
    assert "z quotient" in schemas
    assert set(schemas["error (exit 2 or 3)"]) == {
        "error", "message", "limit", "requested"}


# One cheap invocation, and its exit code, per --help-schema entry.
_SCHEMA_RUNS = {
    "groups list": (EXIT_OK, "groups", "list"),
    "groups show": (EXIT_OK, "groups", "show", "--group", "C2"),
    "kpar dim": (EXIT_OK, "kpar", "dim", "--group", "C2"),
    "kpar basis": (EXIT_OK, "kpar", "basis", "--group", "C2"),
    "groupoid components": (EXIT_OK, "groupoid", "components",
                            "--group", "C2"),
    "homology partial|cohomology": (EXIT_OK, "homology", "cohomology",
                                    "--group", "C2", "--expect-dims", "2,0,0"),
    "homology ordinary": (EXIT_OK, "homology", "ordinary", "--group", "C2",
                          "--expect-dims", "1,0,0"),
    "verify theorem-a": (EXIT_OK, "verify", "theorem-a", "--group", "C2",
                         "--component", "1", "--max", "1"),
    "verify corollary-b": (EXIT_OK, "verify", "corollary-b", "--group", "C2",
                           "--max", "1"),
    "verify section5": (EXIT_OK, "verify", "section5", "--group", "C2"),
    "verify section6": (EXIT_OK, "verify", "section6", "--group", "C2"),
    "verify kpar-coeff-vanishing": (EXIT_OK, "verify", "kpar-coeff-vanishing",
                                    "--group", "C2", "--max", "1"),
    "z relations": (EXIT_OK, "z", "relations", "--bound", "2"),
    "z quotient": (EXIT_OK, "z", "quotient"),
    "z cancellation": (EXIT_OK, "z", "cancellation", "--count", "2"),
    "z ig-decompose": (EXIT_OK, "z", "ig-decompose", "--count", "2",
                       "--bound", "2"),
    "error (exit 2 or 3)": (EXIT_CONFIG, "kpar", "dim", "--group", "nope"),
}


@pytest.mark.parametrize("command", sorted(
    c for c, (_, *argv) in _SCHEMA_RUNS.items() if "--group" in argv))
def test_missing_group_exits_2(capsys, command):
    _, *argv = _SCHEMA_RUNS[command]
    i = argv.index("--group")
    code, out, err = run(capsys, *argv[:i], *argv[i + 2:], "--json")
    assert code == EXIT_CONFIG
    message = "this command needs --group or --table"
    assert err == f"error: {message}\n"
    assert json.loads(out) == {**_CONFIG_ERROR, "message": message}


def _listed_keys(spec):
    """The keys that a schema value such as "{a, b}" or "[{a, b}]" names."""
    body = spec.strip("[]")
    if not body.startswith("{") or ":" in body or "..." in body:
        return None
    return [k.strip() for k in body[1:-1].split(",")]


@pytest.mark.parametrize("command", sorted(_SCHEMA_RUNS))
def test_json_keys_match_help_schema(capsys, command):
    main(["--help-schema"])
    schemas = json.loads(capsys.readouterr().out)
    assert set(schemas) == set(_SCHEMA_RUNS)
    schema = schemas[command]
    code, *argv = _SCHEMA_RUNS[command]
    got, data, _ = run_json(capsys, *argv)
    assert got == code
    assert list(data) == list(schema)
    for key, spec in schema.items():
        keys, value = _listed_keys(spec), data[key]
        if keys is None or value == []:
            continue
        row = value[0] if isinstance(value, list) else value
        assert list(row) == keys, key


def test_every_json_report_serializes(capsys):
    invocations = [
        ("groups", "list"),
        ("groups", "show", "--group", "C3"),
        ("kpar", "basis", "--group", "C2"),
        ("groupoid", "components", "--group", "C2xC2"),
        ("homology", "ordinary", "--group", "C3", "--rep", "regular"),
        ("verify", "section5", "--group", "C2", "--field", "F5"),
        ("z", "relations", "--bound", "2", "--field", "F2"),
        ("z", "ig-decompose", "--count", "3", "--bound", "2"),
    ]
    for argv in invocations:
        code, data, _ = run_json(capsys, *argv)
        assert code == EXIT_OK, argv
        assert isinstance(data, dict) or isinstance(data, list)

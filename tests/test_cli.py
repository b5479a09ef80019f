"""End-to-end tests of the command-line interface.

Every invocation goes through main(argv) so the tests exercise the same
code path as the installed script: argument parsing, handler dispatch,
text and JSON emission, and the exit-code contract (0 pass, 1 failed
verification, 2 configuration error, 3 size cap).
"""

import json

import pytest

from parh.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_OK,
    main,
)
from parh.groups import NAMED_GROUP_NAMES


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


def test_z_quotient_cap_exits_3_before_building(capsys):
    code, data, _ = run_json(capsys, "z", "quotient", "--k", "4",
                             "--bound", "12")
    assert code == EXIT_CAP
    assert data["error"] == "size_cap"
    assert data["requested"] == 524288 > data["limit"]


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

from __future__ import annotations

import io
import json

import pytest

from paulitope import cli, fixtures
from paulitope.cli import family_to_json, main
from paulitope.fixtures import vertex_table
from paulitope.generators import majorization_constraints


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schubert_one_line(capsys):
    code, out, _ = _run(capsys, "schubert", "2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["permutation"] == "(1 2)"
    assert payload["poly"]["pretty"] == "x1"


def test_schubert_cycles(capsys):
    code, out, _ = _run(capsys, "schubert", "(2 3)")
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"]["terms"] == {"1,0,0": 1, "0,1,0": 1}
    assert payload["poly"]["pretty"] == "x1 + x2"


def test_schubert_identity(capsys):
    code, out, _ = _run(capsys, "schubert", "()", "-n", "2")
    assert code == 0
    assert json.loads(out)["poly"]["pretty"] == "1"


def test_schubert_table_matches(capsys):
    code, out, _ = _run(capsys, "schubert", "--table-s4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["rows"]) == 24
    assert all(row["match"] for row in payload["rows"])


def test_schubert_without_argument_is_usage_error(capsys):
    code, _, err = _run(capsys, "schubert")
    assert code == 2
    assert "provide a permutation" in err


def test_schubert_resource_cap_exit_code(capsys):
    code, _, err = _run(capsys, "schubert", "(12 13)")
    assert code == 3
    assert "cap" in err


def test_coeff_pauli(capsys):
    code, out, _ = _run(
        capsys, "coeff", "--a", "1,0", "--nu", "1", "-r", "2", "--v", "(1 2)", "--w", "(1 2)"
    )
    assert code == 0
    assert json.loads(out)["c"] == 1


def test_coeff_rejects_increasing_spectrum(capsys):
    code, _, err = _run(
        capsys, "coeff", "--a", "0,1", "--nu", "1", "-r", "2", "--v", "()", "--w", "()"
    )
    assert code == 2
    assert "weakly decreasing" in err


def test_coeff_oversized_v_error_names_v(capsys):
    code, _, err = _run(
        capsys, "coeff", "--a", "1,0", "--nu", "1", "-r", "2", "--v", "(1 3)", "--w", "(1 2)"
    )
    assert code == 2
    assert "v moves 3 points but the test spectrum has 2" in err


def test_coeff_nonminimal_v_error_lists_the_tied_blocks(capsys):
    code, out, err = _run(
        capsys, "coeff", "--a", "1,1", "--nu", "1", "-r", "2", "--v", "(1 2)", "--w", "(1 2)"
    )
    assert code == 2
    assert out == ""
    assert err == "error: v is not increasing on the tied blocks [[1, 2]]\n"


def test_occupation_exact_state(tmp_path, capsys):
    state = {
        "n_particles": 3,
        "levels": 6,
        "terms": [
            {"subset": [1, 2, 3], "radicand": "1/2"},
            {"subset": [1, 4, 5], "radicand": "1/4"},
            {"subset": [2, 4, 6], "radicand": "1/8"},
            {"subset": [3, 5, 6], "radicand": "1/8"},
        ],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    code, out, _ = _run(capsys, "occupation", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert len(payload["occupation_numbers"]) == 6
    assert payload["inequalities"]["table"] == "3x6"
    assert payload["inequalities"]["all_hold"] is True


def test_occupation_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, "occupation", str(path))
    assert code == 2
    assert err


def test_occupation_missing_file_exits_2(capsys):
    code, _, _ = _run(capsys, "occupation", "/nonexistent/state.json")
    assert code == 2


def test_generate_kind1(capsys):
    code, out, _ = _run(capsys, "generate", "kind1", "-N", "3", "-r", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "kind1"
    indices = {tuple(item["indices"]) for item in payload["items"]}
    assert indices == {(1, 6), (2, 5), (3, 4)}


def test_generate_majorization(capsys):
    code, out, _ = _run(capsys, "generate", "majorization", "--nu", "2,1", "-r", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload == family_to_json(majorization_constraints((2, 1), 4))
    assert [(item["indices"], item["bound"]) for item in payload["items"]] == [([1], 2)]


def test_generate_kind2_includes_certificates(capsys):
    code, out, _ = _run(capsys, "generate", "kind2", "-N", "3", "-p", "4")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["items"]) == 4
    assert len(payload["exclusions"]) == 1
    exclusion = payload["exclusions"][0]
    assert exclusion["gamma"] == [4]
    assert exclusion["counterexample"]["state"] is not None
    assert exclusion["counterexample"]["lhs"] == 3
    assert exclusion["bound"] == 2


def test_generate_requires_family_arguments(capsys):
    code, _, err = _run(capsys, "generate", "kind1", "-N", "3")
    assert code == 2
    assert "-r is required" in err
    code, _, err = _run(capsys, "generate", "kind2", "-N", "3")
    assert code == 2
    code, _, err = _run(capsys, "generate", "majorization")
    assert code == 2


def test_generate_kind2_width_cap_exits_3(capsys):
    code, _, err = _run(capsys, "generate", "kind2", "-N", "3", "-p", "8")
    assert code == 3
    assert "cap" in err


def test_polytope_borland_dennis(capsys):
    code, out, _ = _run(capsys, "polytope", "--nu", "1,1,1", "-r", "6", "-M", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged_at"] == 4
    assert payload["unmatched"] == []
    assert len(payload["polytope"]["vertices"]) == 4


def test_polytope_non_convergence_exit_code(capsys):
    code, out, _ = _run(capsys, "polytope", "--nu", "1,1,1", "-r", "6", "-M", "2")
    assert code == 1
    assert json.loads(out)["converged_at"] is None


def test_polytope_odd_cutoff_ends_the_schedule(capsys):
    code, out, _ = _run(capsys, "polytope", "--nu", "1,1,1", "-r", "6", "-M", "3")
    assert code == 1
    payload = json.loads(out)
    assert [step["M"] for step in payload["history"]] == [2, 3]
    assert payload["converged_at"] is None


def test_polytope_cutoff_below_one_exits_2(capsys):
    code, out, err = _run(capsys, "polytope", "--nu", "1,1,1", "-r", "6", "-M", "0")
    assert code == 2 and out == ""
    assert err == "error: pipeline: the cutoff M = 0 is below 1\n"


def test_polytope_level_cap_exits_3(capsys):
    code, _, err = _run(capsys, "polytope", "--nu", "1,1,1", "-r", "9", "-M", "2")
    assert code == 3
    assert "cap" in err


def test_verify_tables_single(capsys):
    code, out, _ = _run(capsys, "verify-tables", "3x6")
    assert code == 0
    assert "table 3x6: 4/4 rows ok" in out


def test_verify_tables_unknown_name(capsys):
    code, _, err = _run(capsys, "verify-tables", "7x7")
    assert code == 2
    assert "unknown table" in err


def test_verify_tables_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "verify-tables", "3x6", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["3x6"]["ok"] is True
    assert len(report["3x6"]["rows"]) == 4


def test_verify_vertices(capsys):
    code, out, _ = _run(capsys, "verify-vertices", "3x7")
    assert code == 0
    assert "vertices 3x7: 10/10 rows ok" in out


def test_verify_vertices_unknown_name(capsys):
    code, _, err = _run(capsys, "verify-vertices", "6x6")
    assert code == 2
    assert "unknown vertex table" in err


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "poly.json"
    code, out, _ = _run(capsys, "schubert", "2,1", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["poly"]["pretty"] == "x1"


def test_console_script_is_installed():
    import shutil

    assert shutil.which("paulitope") is not None


def test_occupation_fractional_index_exits_2(tmp_path, capsys):
    state = {"n_particles": 2, "levels": 4, "terms": [{"subset": [1.5, 3], "radicand": "1"}]}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    code, out, err = _run(capsys, "occupation", str(path))
    assert code == 2
    assert out == ""
    assert "wedge index must be an integer, got 1.5" in err


def test_schubert_malformed_cycles_exit_2(capsys):
    for text in ("(1 2", "1 2)", "(1 2)x(3 4)"):
        code, out, err = _run(capsys, "schubert", text)
        assert code == 2
        assert out == ""
        assert f"malformed cycle notation: {text!r}" in err


@pytest.mark.parametrize("text", ["(1 2) (3 4)", " ( 1 2 )  ( 3 4 ) "])
def test_schubert_cycles_may_be_spaced(capsys, text):
    code, out, _ = _run(capsys, "schubert", text)
    assert code == 0
    assert out == _run(capsys, "schubert", "(1 2)(3 4)")[1]
    assert json.loads(out)["permutation"] == "(1 2)(3 4)"


def test_occupation_reads_the_state_from_stdin(tmp_path, monkeypatch, capsys):
    state = {
        "n_particles": 2,
        "levels": 4,
        "terms": [{"subset": [1, 2], "radicand": "1/2"}, {"subset": [3, 4], "radicand": "1/2"}],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    code, from_file, _ = _run(capsys, "occupation", str(path))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(state)))
    code, from_stdin, _ = _run(capsys, "occupation", "-")
    assert code == 0
    assert from_stdin == from_file
    assert json.loads(from_stdin)["occupation_numbers"] == ["1/2"] * 4


def test_verify_vertices_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "verify-vertices", "3x7", "--out", str(out_path))
    assert code == 0
    assert "vertices 3x7: 10/10 rows ok" in out
    report = json.loads(out_path.read_text())
    assert list(report) == ["3x7"]
    assert report["3x7"]["ok"] is True
    rows = report["3x7"]["rows"]
    assert [row["index"] for row in rows] == list(range(1, 11))
    assert all(row["ok"] is True for row in rows)
    table = vertex_table("3x7")["rows"]
    assert [row["ratio"] for row in rows] == [list(row["ratio"]) for row in table]


def test_verify_tables_failed_row_exits_1(tmp_path, monkeypatch, capsys):
    real = fixtures.coefficient_table_raw

    def bumped(name):
        table = real(name)
        rows = [dict(table["rows"][0], c=table["rows"][0]["c"] + 1)] + table["rows"][1:]
        return dict(table, rows=rows)

    monkeypatch.setattr(fixtures, "coefficient_table_raw", bumped)
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "verify-tables", "3x6", "3x7", "--out", str(out_path))
    assert code == 1
    assert out.splitlines() == ["table 3x6: 3/4 rows FAILED", "table 3x7: 3/4 rows FAILED"]
    report = json.loads(out_path.read_text())
    assert report["3x6"]["ok"] is False
    assert [row["ok"] for row in report["3x6"]["rows"]] == [False, True, True, True]


def test_verify_vertices_failed_row_exits_1(tmp_path, monkeypatch, capsys):
    real = cli.verify_vertex
    first_ratio = vertex_table("3x7")["rows"][0]["ratio"]

    def check(state, ratio, tolerance):
        return ratio != first_ratio and real(state, ratio, tolerance=tolerance)

    monkeypatch.setattr(cli, "verify_vertex", check)
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "verify-vertices", "3x7", "--out", str(out_path))
    assert code == 1
    assert out == "vertices 3x7: 9/10 rows FAILED\n"
    report = json.loads(out_path.read_text())
    assert report["3x7"]["ok"] is False
    assert [row["ok"] for row in report["3x7"]["rows"]] == [False] + [True] * 9


def test_verify_vertices_defaults_to_4x8_then_3x8(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "verify-vertices", "--out", str(out_path))
    assert code == 0
    assert out.splitlines() == ["vertices 4x8: 22/22 rows ok", "vertices 3x8: 38/38 rows ok"]
    assert list(json.loads(out_path.read_text())) == ["4x8", "3x8"]

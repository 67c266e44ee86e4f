"""Command line interface: exit codes, JSON shapes, file outputs."""

import json
import subprocess
import sys

import pytest

from knotmorse import cli
from knotmorse.corpus import get_entry
from knotmorse.diagram import build_tait
from knotmorse.errors import InvariantViolation
from knotmorse.states import enumerate_matchings


def run(capsys, *argv):
    """Run main in process; return (exit code, parsed JSON or raw text)."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    try:
        return code, json.loads(out)
    except ValueError:
        return code, out


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_corpus_name(capsys):
    code, payload = run(capsys, "parse", "3_1")
    assert code == 0
    assert payload["crossings"] == 3
    assert payload["arcs"] == 6
    assert payload["reduced"] is True
    assert len(payload["faces"]) == 5
    assert {f["colour"] for f in payload["faces"]} == {0, 1}


def test_parse_pd_file(capsys, tmp_path):
    path = tmp_path / "trefoil.pd"
    path.write_text(get_entry("3_1").pd_text)
    code, payload = run(capsys, "parse", str(path))
    assert code == 0
    assert payload["name"] == "trefoil"
    assert payload["crossings"] == 3


def test_parse_garbage_exits_2(capsys, tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_text("not a pd code at all")
    code = cli.main(["parse", str(path)])
    assert code == 2
    assert "cannot build" in capsys.readouterr().err


def test_parse_composite_projection_file_is_reduced(capsys, tmp_path):
    path = tmp_path / "composite.pd"
    path.write_text("X(6,3,8,1) X(2,8,3,6) X(7,4,1,5) X(5,2,4,7)\n")
    code, payload = run(capsys, "parse", str(path))
    assert code == 0
    assert payload["reduced"] is True


def test_parse_missing_file_exits_2(capsys):
    code = cli.main(["parse", "no/such/file.pd"])
    assert code == 2
    assert "unknown diagram" in capsys.readouterr().err


def test_parse_nonplanar_exits_2(capsys, tmp_path):
    # valid syntax, fails the Euler check
    path = tmp_path / "bad.pd"
    path.write_text("X(1,2,3,4) X(1,2,3,4)")
    code = cli.main(["parse", str(path)])
    assert code == 2


def test_unknown_subcommand_raises_system_exit_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate", "3_1"])
    assert err.value.code == 2


def test_missing_subcommand_raises_system_exit_2():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_swap_colours_flips_the_classes_not_the_invariants(capsys):
    _, normal = run(capsys, "info", "3_1")
    _, swapped = run(capsys, "info", "3_1", "--swap-colours")
    assert (normal["black_vertices"], normal["white_vertices"]) == (3, 2)
    assert (swapped["black_vertices"], swapped["white_vertices"]) == (2, 3)
    assert swapped["counts"] == normal["counts"]


# ---------------------------------------------------------------------------
# count and info
# ---------------------------------------------------------------------------

def test_count_perfect_trefoil_is_18(capsys):
    code, payload = run(capsys, "count", "--perfect", "3_1")
    assert code == 0
    assert payload["perfect"] == {"formula": 18, "enumeration": 18, "agree": True}


def test_count_perfect_pretty_prints_the_number(capsys):
    code = cli.main(["--pretty", "count", "--perfect", "3_1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "18"


def test_count_perfect_runs_neither_all_dmf_oracle(capsys, monkeypatch):
    def unwanted(d):
        raise AssertionError("count --perfect ran an all-dMf oracle")

    monkeypatch.setattr(cli, "count_all_dmfs", unwanted)
    monkeypatch.setattr(cli, "count_via_enumeration", unwanted)
    code, payload = run(capsys, "count", "--perfect", "7_7")
    assert code == 0
    assert payload == {
        "name": "7_7",
        "perfect": {"formula": 420, "enumeration": 420, "agree": True},
    }


def test_count_both_oracles_agree(capsys):
    code, payload = run(capsys, "count", "5_1")
    assert code == 0
    assert payload["perfect"]["agree"] is True
    assert payload["all"]["agree"] is True
    assert payload["all"]["formula"] == 671


def test_count_oracle_disagreement_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_all_dmfs", lambda d: 65)
    code, payload = run(capsys, "--pretty", "count", "3_1")
    assert code == 4
    assert payload["perfect"]["agree"] is True
    assert payload["all"] == {"formula": 65, "enumeration": 64, "agree": False}


def test_info_oracle_disagreement_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_all_dmfs", lambda d: 65)
    code, payload = run(capsys, "--pretty", "info", "3_1")
    assert code == 4
    assert payload["counts"]["all"] == {"formula": 65, "enumeration": 64, "agree": False}
    assert payload["spanning_trees"] == 3
    assert payload["connectivity"]["bound"] == 0


def test_info_reports_counts_and_connectivity(capsys):
    code, payload = run(capsys, "info", "3_1")
    assert code == 0
    assert payload["spanning_trees"] == 3
    assert payload["counts"]["perfect"]["agree"] is True
    assert payload["counts"]["all"]["formula"] == 64
    assert payload["connectivity"]["bound"] == 0


def test_info_pretty_smoke(capsys):
    code, text = run(capsys, "--pretty", "info", "4_1")
    assert code == 0
    assert "4_1" in text and "connectivity bound: 1" in text


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_states_count_only(capsys):
    code, payload = run(capsys, "states", "3_1", "--filter", "perfect_dmf",
                        "--count-only")
    assert code == 0
    assert payload["count"] == 18
    assert "matchings" not in payload


def test_states_limit_truncates_but_counts_all(capsys):
    code, payload = run(capsys, "states", "3_1", "--limit", "2")
    assert code == 0
    assert len(payload["matchings"]) == 2
    t = build_tait(get_entry("3_1").diagram)
    assert payload["count"] == sum(1 for _ in enumerate_matchings(t, "all"))


def test_states_listing_matches_enumeration(capsys):
    code, payload = run(capsys, "states", "kink", "--filter", "maximal_pks")
    assert code == 0
    t = build_tait(get_entry("kink").diagram)
    want = [list(x.edges) for x in enumerate_matchings(t, "maximal_pks")]
    assert [m["edges"] for m in payload["matchings"]] == want


def test_states_bad_filter_raises_system_exit_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["states", "3_1", "--filter", "nope"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def test_moves_kauffman_marked_fig8_is_a_path_of_5(capsys):
    code, payload = run(capsys, "moves", "4_1", "--population", "kauffman",
                        "--mark", "0", "--connectivity")
    assert code == 0
    assert len(payload["nodes"]) == 5
    assert payload["connected"] is True
    assert payload["components"] == 1
    assert payload["path_graph"] is True


def test_moves_kauffman_without_mark_exits_2(capsys):
    code = cli.main(["moves", "4_1", "--population", "kauffman"])
    assert code == 2
    assert "--mark" in capsys.readouterr().err


def test_moves_mark_out_of_range_exits_2(capsys):
    code = cli.main(["moves", "4_1", "--population", "kauffman", "--mark", "99"])
    assert code == 2


def test_moves_default_population_connectivity(capsys):
    code, payload = run(capsys, "moves", "3_1", "--connectivity")
    assert code == 0
    assert payload["population"] == "perfect_dmfs"
    assert payload["connected"] is True


def test_moves_kinds_restriction(capsys):
    code, payload = run(capsys, "moves", "3_1", "--kinds", "clock")
    assert code == 0
    assert payload["kinds"] == ["clock"]
    assert all(e["move"]["kind"] == "clock" for e in payload["edges"])


def test_moves_perfect_admissible_reports_avoidance(capsys):
    code, payload = run(capsys, "moves", "3_1", "--population",
                        "perfect_admissible", "--connectivity")
    assert code == 0
    assert payload["connected"] is True
    assert "click_path_avoidance" in payload


def test_moves_dot_output(capsys, tmp_path):
    path = tmp_path / "graph.dot"
    code, _ = run(capsys, "moves", "3_1", "--dot", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("graph ") and text.rstrip().endswith("}")


# ---------------------------------------------------------------------------
# complex
# ---------------------------------------------------------------------------

def test_complex_morse_homology(capsys):
    code, payload = run(capsys, "complex", "3_1", "--kind", "morse",
                        "--homology")
    assert code == 0
    assert payload["dimension"] == 2
    assert payload["homology"]["betti"] == {"1": 4}
    assert payload["homology"]["torsion"] == {}


def test_complex_matching_counts(capsys):
    code, payload = run(capsys, "complex", "3_1", "--kind", "matching")
    assert code == 0
    assert payload["face_counts"] == [12, 39, 32]
    assert payload["euler_characteristic"] == 5


def test_complex_pure_and_facets(capsys):
    code, payload = run(capsys, "complex", "3_1", "--kind", "morse", "--pure",
                        "--facets")
    assert code == 0
    assert payload["n_facets"] == 18
    assert all(len(f) == 3 for f in payload["facets"])


def test_complex_requires_kind():
    with pytest.raises(SystemExit) as err:
        cli.main(["complex", "3_1"])
    assert err.value.code == 2


def test_complex_csv_output(capsys, tmp_path):
    path = tmp_path / "h.csv"
    code, _ = run(capsys, "complex", "5_2", "--kind", "morse", "--homology",
                  "--csv", str(path))
    assert code == 0
    rows = path.read_text().splitlines()
    assert rows[0] == "name,kind,pure,degree,rank"
    assert rows[1] == "5_2,morse,False,3,6"


def test_complex_csv_computes_homology_once(capsys, monkeypatch, tmp_path):
    calls = []
    real = cli.homology

    def counted(c, *args, **kwargs):
        calls.append(c)
        return real(c, *args, **kwargs)

    monkeypatch.setattr(cli, "homology", counted)
    code, _ = run(capsys, "complex", "4_1", "--kind", "morse", "--homology",
                  "--csv", str(tmp_path / "h.csv"))
    assert code == 0
    assert len(calls) == 1


def test_complex_invariant_violation_exits_4(capsys, monkeypatch):
    def violated(c, *args, **kwargs):
        raise InvariantViolation("negative rank in degree 1")

    monkeypatch.setattr(cli, "homology", violated)
    code = cli.main(["complex", "3_1", "--kind", "morse", "--homology"])
    captured = capsys.readouterr()
    assert code == 4
    assert "invariant violation" in captured.err
    assert captured.out == ""


def test_complex_face_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("KNOTMORSE_MAX_FACES", "10")
    code = cli.main(["complex", "5_1", "--kind", "matching", "--homology"])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_small_names_agree(capsys):
    code, payload = run(capsys, "table1", "--names", "3_1,4_1,5_1,5_2")
    assert code == 0
    assert payload["all_agree"] is True
    assert [r["name"] for r in payload["rows"]] == ["3_1", "4_1", "5_1", "5_2"]
    morse = payload["rows"][0]["columns"]["morse"]
    assert morse["computed"] == {"1": 4}
    assert morse["agree"] is True


def test_table1_unknown_name_exits_2(capsys):
    code = cli.main(["table1", "--names", "8_19"])
    assert code == 2
    assert "no reference" in capsys.readouterr().err


def test_table1_cap_exceeded_rows_are_skipped_not_failed(capsys, monkeypatch):
    monkeypatch.setenv("KNOTMORSE_MAX_FACES", "10")
    code, payload = run(capsys, "table1", "--names", "3_1,4_1")
    assert code == 0
    assert payload["all_agree"] is True
    assert all("skipped" in row for row in payload["rows"])


def test_table1_mismatch_exits_4_with_counterexample(capsys, monkeypatch):
    monkeypatch.setitem(cli.REFERENCE_HOMOLOGY["3_1"], "morse", {7: 7})
    code, payload = run(capsys, "table1", "--names", "3_1")
    assert code == 4
    assert payload["all_agree"] is False
    assert payload["counterexample"]["name"] == "3_1"
    assert payload["counterexample"]["column"] == "morse"
    assert payload["counterexample"]["computed"] == {"1": 4}


def test_table1_csv_output(capsys, tmp_path):
    path = tmp_path / "t.csv"
    code, _ = run(capsys, "table1", "--names", "3_1", "--csv", str(path))
    assert code == 0
    rows = path.read_text().splitlines()
    assert rows[0] == "name,column,degree,rank"
    assert "3_1,morse,1,4" in rows


def test_table1_pretty_marks_rows(capsys):
    code, text = run(capsys, "--pretty", "table1", "--names", "3_1")
    assert code == 0
    assert "3_1" in text and "morse=4@deg1" in text


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_selftest_passes(capsys):
    code, payload = run(capsys, "selftest", "--max-crossings", "4")
    assert code == 0
    assert payload["all_passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == ["counting", "loop_criterion", "forest_roundtrip",
                     "jordan_parity", "clock_shift", "kpw_image",
                     "click_pairs", "pure_facets", "homology_consistency"]


def test_selftest_violation_exits_4_with_counterexample(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_perfect_dmfs", lambda d: -1)
    code, payload = run(capsys, "selftest", "--max-crossings", "3")
    assert code == 4
    assert payload["check"] == "counting"
    assert "diagram" in payload["counterexample"]


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "knotmorse.cli", "count", "--perfect", "3_1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["perfect"]["formula"] == 18

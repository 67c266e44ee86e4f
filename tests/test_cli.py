"""Command line interface: exit codes, JSON shapes, file outputs."""

import hashlib
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotmorse import cli
from knotmorse.corpus import corpus_names, get_entry
from knotmorse.complexes import SimplicialComplex
from knotmorse.diagram import build_tait, parse_pd
from knotmorse.errors import InvariantViolation, ResourceLimit
from knotmorse.moves import (
    MOVE_KINDS,
    Move,
    build_move_graph,
    click_path_avoidance,
    move_graph_to_dict,
    move_graph_to_dot,
)
from knotmorse.reference import computed_row, reference_complexes
from knotmorse.states import FILTERS, enumerate_matchings

from homology_oracle import maximal_matchings, oracle_faces


def run(capsys, *argv):
    """Run main in process; return (exit code, parsed JSON or raw text)."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    try:
        return code, json.loads(out)
    except ValueError:
        return code, out


def usage_error(capsys, *argv):
    """Run main in process; require exit 2, no stdout, one `error:` line."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


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


def test_parse_non_utf8_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.pd"
    path.write_bytes(b"X(1,4,2,5) \xff\xfe")
    assert "cannot read %s" % path in usage_error(capsys, "parse", str(path))


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


@pytest.mark.parametrize("argv, message", [
    (["parse", "no/such/file.pd"], "unknown diagram 'no/such/file.pd' (not a corpus name or file)"),
    (["parse", "{tmp}/bad.pd"], "cannot read {tmp}/bad.pd: 'utf-8' codec can't decode"),
    (["parse", "{tmp}/garbage.pd"], "cannot build diagram from garbage: "),
    (["states", "3_1", "--limit", "-1"], "--limit must be at least 0, got -1"),
    (["moves", "3_1", "--mark", "2"], "--mark needs --population kauffman"),
    (["moves", "4_1", "--population", "kauffman"], "--population kauffman needs --mark <arc id>"),
    (["moves", "4_1", "--population", "kauffman", "--mark", "99"], "arc id 99 out of range"),
    (["moves", "3_1", "--kinds", "foo"], "unknown move kind 'foo', not in clock,click_loop,click_path"),
    (["moves", "3_1", "--kinds", "clock,clock"], "repeated move kind in --kinds clock,clock"),
    (["table1", "--names", "8_19"], "no reference values for: 8_19"),
    (["selftest", "--max-crossings", "0"], "--max-crossings 0 selects no corpus entry"),
    (["table1", "--names", "3_1,3_1"], "repeated corpus name in --names 3_1,3_1"),
    (["table1", "--names", "3_1,"], "empty corpus name in --names 3_1,"),
    (["table1", "--names", ",3_1"], "empty corpus name in --names ,3_1"),
    (["table1", "--names", "3_1,,4_1"], "empty corpus name in --names 3_1,,4_1"),
    (["moves", "3_1", "--kinds", "clock,"], "empty move kind in --kinds clock,"),
    (["complex", "3_1", "--kind", "morse", "--csv", "{tmp}/h.csv"], "--csv needs --homology"),
])
def test_every_usage_error_exits_2_with_one_error_line(capsys, tmp_path, argv, message):
    (tmp_path / "bad.pd").write_bytes(b"X(1,4,2,5) \xff\xfe")
    (tmp_path / "garbage.pd").write_text("not a pd code at all")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    err = usage_error(capsys, *argv)
    assert err.startswith("error: " + message.replace("{tmp}", str(tmp_path))), err


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


def test_states_negative_limit_exits_2(capsys):
    assert "--limit" in usage_error(capsys, "states", "3_1", "--limit", "-1")


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


def test_is_path_graph_needs_a_connected_graph():
    path_and_cycle = [(0, 1), (2, 3), (3, 4), (2, 4)]  # 4 edges on 5 nodes, degrees <= 2
    assert not cli._is_path_graph(5, path_and_cycle, connected=False)
    assert cli._is_path_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], connected=True)
    assert not cli._is_path_graph(4, [(0, 1), (0, 2), (0, 3)], connected=True)  # a star
    assert not cli._is_path_graph(3, [(0, 1), (1, 2), (0, 2)], connected=True)  # a cycle
    assert cli._is_path_graph(0, [], connected=True)
    assert cli._is_path_graph(1, [], connected=True)


def test_moves_connectivity_says_a_path_plus_a_cycle_is_no_path_graph(capsys, monkeypatch):
    real = cli.build_move_graph

    def path_and_cycle(*args, **kwargs):
        mg = real(*args, **kwargs)
        move = Move("click_loop", (0,))
        edges = tuple((i, j, move) for i, j in ((0, 1), (2, 3), (2, 4), (3, 4)))
        return replace(mg, nodes=mg.nodes[:5], edges=edges)

    monkeypatch.setattr(cli, "build_move_graph", path_and_cycle)
    code, payload = run(capsys, "moves", "4_1", "--population", "perfect_dmfs", "--connectivity")
    assert code == 0
    assert (payload["connected"], payload["components"]) == (False, 2)
    assert payload["path_graph"] is False


def test_moves_kauffman_without_mark_exits_2(capsys):
    code = cli.main(["moves", "4_1", "--population", "kauffman"])
    assert code == 2
    assert "--mark" in capsys.readouterr().err


@pytest.mark.parametrize("population", [[], ["--population", "perfect_admissible"]])
def test_moves_mark_without_kauffman_exits_2(capsys, population):
    err = usage_error(capsys, "moves", "3_1", "--mark", "2", *population)
    assert "--mark needs --population kauffman" in err


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


@pytest.mark.parametrize("kinds", ["foo"])
def test_moves_unknown_kind_exits_2(capsys, kinds):
    assert "unknown move kind" in usage_error(capsys, "moves", "3_1", "--kinds", kinds)


@pytest.mark.parametrize("kinds, message", [("clock,clock", "repeated"), ("", "empty move kind")])
def test_moves_repeated_or_empty_kinds_exit_2(capsys, kinds, message):
    assert message in usage_error(capsys, "moves", "3_1", "--kinds", kinds)


@pytest.mark.parametrize("kinds", [",".join(k) for r in (1, 2, 3) for k in permutations(MOVE_KINDS, r)])
def test_moves_builds_one_graph_for_any_kinds(capsys, monkeypatch, tmp_path, kinds):
    t = build_tait(get_entry("4_1").diagram)
    alone = build_move_graph(t, "perfect_admissible", kinds.split(","))
    calls = []
    monkeypatch.setattr(cli, "build_move_graph", lambda *a, **k: calls.append(a) or build_move_graph(*a, **k))
    dot = tmp_path / "graph.dot"
    code, payload = run(capsys, "moves", "4_1", "--population", "perfect_admissible",
                        "--kinds", kinds, "--dot", str(dot))
    assert code == 0 and len(calls) == 1
    # the payload and the dot file are those of a graph built with the kinds alone
    assert {k: payload[k] for k in ("diagram", "population", "kinds", "nodes", "edges")} == (
        json.loads(json.dumps(move_graph_to_dict(alone))))
    assert dot.read_text() == move_graph_to_dot(alone)
    assert payload["click_path_avoidance"] == click_path_avoidance(t, build_move_graph(t, "perfect_admissible"))


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


def test_moves_dot_into_missing_directory_exits_2(capsys, tmp_path):
    path = tmp_path / "missing_dir" / "x.dot"
    assert "missing_dir" in usage_error(capsys, "moves", "3_1", "--dot", str(path))


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


def test_complex_csv_into_missing_directory_exits_2(capsys, tmp_path):
    path = tmp_path / "missing_dir" / "x.csv"
    err = usage_error(capsys, "complex", "3_1", "--kind", "morse", "--homology",
                      "--csv", str(path))
    assert "missing_dir" in err


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


def test_complex_matching_lists_the_maximal_matchings(capsys):
    # 5_1 has maximal matchings that are not perfect
    code, payload = run(capsys, "complex", "5_1", "--kind", "matching", "--facets")
    assert code == 0
    facets = maximal_matchings(build_tait(get_entry("5_1").diagram)).facets
    assert any(len(f) < 5 for f in facets)
    assert payload["facets"] == [list(f) for f in facets]
    assert payload["n_facets"] == len(facets)


def test_face_cap_reports_its_stage_and_size(capsys, monkeypatch):
    monkeypatch.setenv("KNOTMORSE_MAX_FACES", "10")
    with pytest.raises(ResourceLimit) as raised:
        maximal_matchings(build_tait(get_entry("5_1").diagram)).faces()
    assert (raised.value.stage, raised.value.size) == ("face closure", 11)
    # the Morse complex builds its face closure; the matching complex does not
    code = cli.main(["complex", "5_1", "--kind", "morse", "--homology"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert err.endswith("; stage face closure, size 11\n")


def test_matching_tree_cap_reports_its_stage(capsys, monkeypatch):
    monkeypatch.setenv("KNOTMORSE_MAX_FACES", "10")
    code = cli.main(["complex", "5_1", "--kind", "matching", "--homology"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert err.endswith("; stage matching tree, size 11\n")


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


def test_table1_row_cap_counts_the_shared_closure_once(capsys, monkeypatch):
    # the Morse, pure Morse and pure matching columns of a row share one
    # closure, so the cap bounds the faces of the union of their closures
    d = get_entry("5_2").diagram
    union = set()
    for column in ("morse", "pure_morse", "pure_matching"):
        for level in oracle_faces(reference_complexes(d)[column]):
            union.update(level)
    cap = len(union) - 1
    monkeypatch.setenv("KNOTMORSE_MAX_FACES", str(cap))
    with pytest.raises(ResourceLimit) as raised:
        computed_row(d)
    assert (raised.value.stage, raised.value.size) == ("face closure", cap + 1)
    code, payload = run(capsys, "table1", "--names", "5_2")
    assert code == 0
    assert [row["name"] for row in payload["rows"]] == ["5_2"]
    assert "skipped" in payload["rows"][0]
    monkeypatch.setenv("KNOTMORSE_MAX_FACES", str(cap + 1))
    row = computed_row(d)
    assert {column: h.ranks() for column, h in row.items()} == cli.REFERENCE_HOMOLOGY["5_2"]


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


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_selftest_selecting_no_diagram_exits_2(capsys, cap):
    assert "selects no corpus entry" in usage_error(capsys, "selftest", "--max-crossings", cap)


def test_selftest_violation_exits_4_with_counterexample(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_perfect_dmfs", lambda d: -1)
    code, payload = run(capsys, "selftest", "--max-crossings", "3")
    assert code == 4
    assert payload["check"] == "counting"
    assert "diagram" in payload["counterexample"]
    monkeypatch.undo()
    monkeypatch.setattr(cli, "amended_poset_acyclic", lambda t, x: False)
    code, payload = run(capsys, "selftest", "--max-crossings", "3")
    assert code == 4
    assert payload["check"] == "loop_criterion"
    assert payload["counterexample"] == {"diagram": "3_1", "matching": []}


def test_selftest_kpw_image_sees_a_missing_tree_simplex(capsys, monkeypatch):
    real = cli.pure_morse_from_trees
    monkeypatch.setattr(cli, "pure_morse_from_trees",
                        lambda d: SimplicialComplex(real(d).facets[1:]))
    code, payload = run(capsys, "selftest", "--max-crossings", "3")
    assert code == 4
    assert payload == {"check": "kpw_image", "counterexample": {"diagram": "3_1"}}


def test_selftest_hands_each_check_to_the_executor_map(capsys, monkeypatch):
    # A benchmark swaps cli.ThreadPoolExecutor for a pool that times each
    # check on its own: it reads the name from ((name, check), report) pairs
    # handed to map, one pair per check, in check order.
    handed = []

    class Recording:
        def __init__(self, max_workers=None):
            assert max_workers == 1

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            outcomes = []
            for args in zip(*iterables):
                handed.append(args)
                outcomes.append(fn(*args))
            return iter(outcomes)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
    code, payload = run(capsys, "selftest", "--max-crossings", "3")
    assert code == 0 and payload["all_passed"] is True
    assert [len(args) for args in handed] == [1] * len(handed)
    names = [name for name, _ in cli._selftest_checks(3)]
    assert [args[0][0][0] for args in handed] == names
    for ((name, check), report), in handed:
        assert callable(check) and report["name"] == name
    # the reports handed over are the ones printed, filled in by the checks
    assert [args[0][1] for args in handed] == payload["checks"]


# ---------------------------------------------------------------------------
# frozen output
# ---------------------------------------------------------------------------

# sha256 of each invocation's argv line and stdout, JSON and --pretty, over
# every corpus entry up to 6 crossings (240 invocations), taken before the
# unused to_dict serialisers were deleted.
FROZEN_CLI_OUTPUT = "d2aaa930bad3a0c59bc4ed97838e6459a5419952a9248ccee01cf09c4ea21b45"


def frozen_invocations():
    for name in corpus_names():
        if get_entry(name).diagram.n_crossings > 6:
            continue
        yield ["parse", name]
        yield ["info", name]
        yield ["count", name]
        yield ["count", name, "--perfect"]
        for f in FILTERS:
            yield ["states", name, "--filter", f]
        for population in ("perfect_dmfs", "perfect_admissible"):
            yield ["moves", name, "--population", population, "--connectivity"]
        for kind in ("matching", "morse"):
            for pure in ([], ["--pure"]):
                yield ["complex", name, "--kind", kind, *pure, "--homology", "--facets"]


def test_cli_output_is_frozen(capsys):
    digest = hashlib.sha256()
    runs = 0
    for argv in frozen_invocations():
        for full in (argv, ["--pretty", *argv]):
            assert cli.main(full) == 0, full
            digest.update((" ".join(full) + "\n").encode())
            digest.update(capsys.readouterr().out.encode())
            runs += 1
    assert runs == 240
    assert digest.hexdigest() == FROZEN_CLI_OUTPUT


# sha256 of the stdout of `knotmorse table1` over the whole reference table
FROZEN_TABLE1 = "ce75fb9a1a99c47393ede60fbc4dc0ab05bc64e69a3409f5f80206e44a19a2b5"


def test_table1_output_is_frozen(capsys):
    assert cli.main(["table1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == FROZEN_TABLE1


def test_selftest_output_equals_the_benchmark_gate(capsys):
    # the benchmark's selftest workload checks its output against this file
    expected = Path(__file__).resolve().parents[1] / "perfbench" / "selftest_expected.txt"
    assert cli.main(["selftest", "--max-crossings", "6"]) == 0
    assert capsys.readouterr().out == expected.read_text()


# ---------------------------------------------------------------------------
# robustness: mutated PD text
# ---------------------------------------------------------------------------

MUTANT_SOURCES = tuple(n for n in corpus_names() if get_entry(n).crossings <= 6)
MUTANT_COMMANDS = (
    ["parse"],
    ["info"],
    ["complex", "--kind", "morse", "--homology"],
    ["moves", "--connectivity"],
)


# mutations that keep every label exactly twice, so that their mutants pass
# the arc-multiplicity check and meet the planarity and diagram checks
LABEL_KEEPING = ("permute", "rotate", "swap")


@st.composite
def mutated_pd_texts(draw):
    """A corpus code of up to 6 crossings after one to three mutations: drop
    a crossing, repeat one, relabel an arc, permute or rotate one tuple, or
    swap two arc ends across crossings.  Half the mutants draw their
    mutations from the label-keeping ones alone."""
    source = get_entry(draw(st.sampled_from(MUTANT_SOURCES))).pd_text
    crossings = [list(c) for c in parse_pd(source).crossings]
    kinds = draw(st.sampled_from((("drop", "repeat", "relabel") + LABEL_KEEPING, LABEL_KEEPING)))
    for _ in range(draw(st.integers(1, 3))):
        if not crossings:
            break
        i = draw(st.integers(0, len(crossings) - 1))
        kind = draw(st.sampled_from(kinds))
        if kind == "drop":
            del crossings[i]
        elif kind == "repeat":
            crossings.insert(i, list(crossings[i]))
        elif kind == "relabel":
            old = crossings[i][draw(st.integers(0, 3))]
            new = draw(st.integers(1, max(label for c in crossings for label in c) + 1))
            crossings = [[new if label == old else label for label in c] for c in crossings]
        elif kind == "permute":
            crossings[i] = draw(st.permutations(crossings[i]))
        elif kind == "rotate":  # the same four arcs in the same cyclic order
            k = draw(st.integers(1, 3))
            crossings[i] = crossings[i][k:] + crossings[i][:k]
        else:
            j = draw(st.integers(0, len(crossings) - 1))
            a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            crossings[i][a], crossings[j][b] = crossings[j][b], crossings[i][a]
    return " ".join("X(%d,%d,%d,%d)" % tuple(c) for c in crossings)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(text=mutated_pd_texts())
def test_mutated_pd_text_exits_with_a_documented_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.pd"
        path.write_text(text)
        for command in MUTANT_COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 2, 3, 4), (text, argv, code)


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

"""Correctness gates of the workloads, traced and untraced."""

import copy

import pytest

import inputs
import recorder
import workloads


def small_table(km, expected=None):
    bases = {name: km.corpus.get_entry(name).pd_text for name in ("3_1", "4_1")}
    return workloads.Table(km, seed=5, bases=bases, expected=expected)


class SmallSelftest(workloads.Selftest):
    ARGV = ["selftest", "--max-crossings", "4"]


@pytest.fixture(scope="module")
def small_selftest_output(km):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert km.cli.main(SmallSelftest.ARGV) == 0
    return out.getvalue()


def traced(km, run):
    """Run ``run(rec)`` with every knotmorse function wrapped in spans."""
    rec = recorder.Recorder()
    instrumentation = recorder.Instrumentation(rec)
    instrumentation.install()
    try:
        instrumentation.new_phase(0)
        return run(rec), rec
    finally:
        instrumentation.uninstall()


def test_table_gate_passes_traced_and_untraced_with_identical_answers(km):
    table = small_table(km)
    log = []
    table.run_pass(log)
    assert [(i["item"], i["ok"]) for i in log] == [("3_1", True), ("4_1", True)]

    diagrams = [d for e, d in zip(table.inputs, table.diagrams) if e["pass"] == 0]
    plain = [km.reference.computed_row(d) for d in diagrams]
    answers, rec = traced(km, lambda rec: [km.reference.computed_row(d) for d in diagrams])
    assert [{c: h.to_dict() for c, h in row.items()} for row in answers] == [
        {c: h.to_dict() for c, h in row.items()} for row in plain
    ]
    counts = rec.counts[0]
    assert counts["complexes.homology.calls"] == 8
    assert counts["complexes.faces.count"] == sum(
        sum(h.face_counts) for row in plain for h in row.values()
    )
    assert rec.self_times(0)["complexes.homology"] > 0


def test_table_gate_reports_a_corrupted_expected_value(km):
    expected = copy.deepcopy(inputs.EXPECTED_HOMOLOGY)
    expected["4_1"]["matching"] = {2: 5, 3: 2}
    log = []
    small_table(km, expected).run_pass(log)
    assert [i["ok"] for i in log] == [True, False]
    assert "matching" in log[1]["problem"]


def test_census_gate_reports_disagreement_and_disconnection():
    assert workloads.census_problem(5, 9, 5, 9, 1) is None
    assert "perfect" in workloads.census_problem(5, 9, 6, 9, 1)
    assert "all" in workloads.census_problem(5, 9, 5, 8, 1)
    assert "expected" in workloads.census_problem(162, 52288, 162, 52288, 1, (162, 52289))
    assert "components" in workloads.census_problem(5, 9, 5, 9, 2)


def test_an_item_that_raises_is_a_failure_not_a_crash(km):
    def check():
        raise km.errors.ResourceLimit("face cap")

    log = []
    workloads.run_item(km, log, "capped", check)
    workloads.run_item(km, log, "fine", lambda: None)
    assert [i["ok"] for i in log] == [False, True]
    assert log[0]["problem"].startswith("ResourceLimit")


def test_selftest_traced_and_untraced_print_the_same(km, small_selftest_output):
    selftest = SmallSelftest(km, seed=0, expected=small_selftest_output)
    log = []
    selftest.run_pass(log)
    names = [i["item"] for i in log]
    assert names[0] == "counting" and names[-1] == "output" and len(names) == 10
    assert all(i["ok"] for i in log)

    log = []
    _, rec = traced(km, lambda rec: selftest.run_pass(log, rec))
    assert all(i["ok"] for i in log)
    assert rec.counts[0]["cli.calls"] == 1
    assert rec.counts[0]["states.predicates.calls"] > 0
    items = {span[recorder.ITEM] for span in rec.spans}
    assert "homology_consistency" in items


def test_selftest_gate_reports_a_corrupted_expected_output(km, small_selftest_output):
    corrupted = small_selftest_output.replace('"pass"', '"fail"', 1)
    log = []
    SmallSelftest(km, seed=0, expected=corrupted).run_pass(log)
    assert [i["item"] for i in log if not i["ok"]] == ["output"]


def test_a_missing_function_name_records_zero(km, monkeypatch):
    monkeypatch.setitem(recorder.LAYERS, "gone", ("no_such_function",))
    rec = recorder.Recorder()
    instrumentation = recorder.Instrumentation(rec)
    instrumentation.install()
    instrumentation.uninstall()
    assert rec.spans == []

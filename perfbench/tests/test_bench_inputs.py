"""Seeded inputs: deterministic per seed, and the scramble keeps every answer."""

import random

import inputs
import pytest


def test_same_seed_same_inputs_and_other_seeds_differ(km):
    bases = {name: km.corpus.rational_pd(list(t)) for name, t in inputs.TABLE_TWISTS.items()}
    table = inputs.table_inputs(7, bases, passes=2)
    assert table == inputs.table_inputs(7, bases, passes=2)
    assert table != inputs.table_inputs(8, bases, passes=2)
    assert [(e["pass"], e["item"]) for e in table] == [(k, n) for k in (0, 1) for n in bases]
    assert len({e["pd"] for e in table}) == len(table)
    census = lambda seed: inputs.census_inputs(seed, km.corpus.torus_pd, km.corpus.rational_pd)
    assert census(7) == census(7)
    assert {str(census(s)) for s in range(10)} != {str(census(7))}


def test_census_draws_three_distinct_pool_vectors(km):
    for seed in range(20):
        items = inputs.census_inputs(seed, km.corpus.torus_pd, km.corpus.rational_pd)
        assert items[0]["pd"] == km.corpus.torus_pd(inputs.TORUS_CROSSINGS)
        drawn = [tuple(item["twists"]) for item in items[1:]]
        assert len(set(drawn)) == inputs.CENSUS_DRAWS
        assert set(drawn) <= set(inputs.CENSUS_POOL)


def test_scramble_relabels_one_to_2n_and_keeps_crossings(km):
    base = km.corpus.rational_pd([2, 1, 1, 1, 2])
    text = inputs.scramble_pd(base, random.Random(3))
    crossings = inputs.crossings_of(text)
    labels = sorted(label for c in crossings for label in c)
    assert labels == sorted(list(range(1, 15)) * 2)
    assert len(crossings) == 7
    assert text != base


@pytest.mark.parametrize("name", ["3_1", "4_1"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scramble_preserves_the_answers(km, name, seed):
    text = inputs.scramble_pd(km.corpus.get_entry(name).pd_text, random.Random(seed))
    d = km.diagram.build_diagram(km.diagram.parse_pd(text))
    row = km.reference.computed_row(d)
    assert {column: h.ranks() for column, h in row.items()} == inputs.EXPECTED_HOMOLOGY[name]
    perfect_enum, all_enum = km.counting.count_via_enumeration(d)
    assert (perfect_enum, all_enum) == km.counting.count_via_enumeration(
        km.corpus.get_entry(name).diagram
    )

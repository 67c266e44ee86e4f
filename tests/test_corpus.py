"""The built-in projection corpus and its generators."""

import dataclasses

import pytest

from knotmorse import build_diagram, corpus, is_reduced, parse_pd
from knotmorse.corpus import (
    continued_fraction_determinant,
    corpus_names,
    get_entry,
    load_corpus,
    rational_pd,
    torus_pd,
)
from knotmorse.counting import count_spanning_trees
from knotmorse.diagram import UnionFind, colour_graphs
from knotmorse.errors import InvariantViolation

EXPECTED = {
    "3_1": (3, 3),
    "4_1": (4, 5),
    "5_1": (5, 5),
    "5_2": (5, 7),
    "6_1": (6, 9),
    "6_2": (6, 11),
    "6_3": (6, 13),
    "7_1": (7, 7),
    "7_2": (7, 11),
    "7_3": (7, 13),
    "7_4": (7, 15),
    "7_5": (7, 17),
    "7_6": (7, 19),
    "7_7": (7, 21),
    "kink": (1, 1),
}


def test_corpus_contents():
    assert corpus_names() == tuple(sorted(EXPECTED))
    for name, (cr, det) in EXPECTED.items():
        e = get_entry(name)
        assert (e.crossings, e.determinant) == (cr, det)
        assert e.diagram.n_crossings == cr


def test_crossing_determinant_pairs_identify_knots():
    pairs = [(cr, det) for name, (cr, det) in EXPECTED.items() if name != "kink"]
    assert len(pairs) == len(set(pairs))


def test_every_knot_entry_is_reduced():
    for name in EXPECTED:
        if name == "kink":
            assert not is_reduced(get_entry(name).diagram)
        else:
            assert is_reduced(get_entry(name).diagram)


def arcs_on_the_curve_from_dart_0(d):
    """Arcs walked from dart (0, 0) along arcs and straight through each
    crossing, slot s to slot s + 2, until the walk is back at its start."""
    dart, arcs = 0, 0
    while True:
        lo, hi = d.arc_darts[d.dart_arc[dart]]
        c, s = divmod(lo + hi - dart, 4)
        arcs += 1
        dart = 4 * c + (s + 2) % 4
        if dart == 0:
            return arcs


def test_every_entry_is_a_single_closed_curve():
    for name in EXPECTED:
        d = get_entry(name).diagram
        assert arcs_on_the_curve_from_dart_0(d) == d.n_arcs == 2 * d.n_crossings


def test_the_hopf_link_is_not_a_single_closed_curve():
    d = build_diagram(parse_pd("X(1,2,3,4) X(2,1,4,3)"))
    assert arcs_on_the_curve_from_dart_0(d) < d.n_arcs == 4


def test_get_entry_unknown_name():
    with pytest.raises(KeyError, match="unknown corpus entry"):
        get_entry("8_19")


def test_load_corpus_is_cached():
    assert load_corpus() is load_corpus()


# load_corpus.__wrapped__ builds afresh without touching the cached corpus.

def test_twist_vector_determinant_mismatch_raises(monkeypatch):
    monkeypatch.setattr(corpus, "continued_fraction_determinant", lambda twists: 0)
    with pytest.raises(InvariantViolation):
        load_corpus.__wrapped__()


def test_repeated_crossings_and_determinant_raises(monkeypatch):
    real = corpus._make_entry
    monkeypatch.setattr(
        corpus, "_make_entry",
        lambda name, text: dataclasses.replace(real(name, text), determinant=1),
    )
    with pytest.raises(InvariantViolation):
        load_corpus.__wrapped__()


# each load-time check of an entry, with the entry's expected numbers faked
@pytest.mark.parametrize("pd_text, expected, match", [
    (torus_pd(3), (4, 3), "crossings"),
    ("X(1,2,3,4) X(2,1,4,3)", (2, 2), "closed curves"),  # the Hopf link
    (torus_pd(3), (3, 5), "determinant"),
    ("X(1,2,2,1)", (1, 1), "not reduced"),  # the kink, under a knot's name
])
def test_entry_checks_raise(monkeypatch, pd_text, expected, match):
    monkeypatch.setitem(corpus._EXPECTED, "3_1", expected)
    with pytest.raises(InvariantViolation, match=match):
        corpus._make_entry("3_1", pd_text)


# -- generators ------------------------------------------------------------

def test_torus_pd_reproduces_the_trefoil():
    assert torus_pd(3) == get_entry("3_1").pd_text


def closed_curves(d):
    """Curves of the projection: a strand runs from slot s to slot s + 2."""
    uf = UnionFind(range(d.n_arcs))
    for c in range(d.n_crossings):
        for s in (0, 1):
            uf.union(d.dart_arc[4 * c + s], d.dart_arc[4 * c + s + 2])
    return len({uf.find(a) for a in range(d.n_arcs)})


@pytest.mark.parametrize("m", range(2, 17))
def test_torus_pd_builds_the_closed_two_braid(m):
    # odd m closes to a knot, even m to a two-component link
    d = build_diagram(parse_pd(torus_pd(m)))
    assert d.n_crossings == m
    assert d.n_faces == m + 2
    assert count_spanning_trees(colour_graphs(d)[0]) == m
    assert is_reduced(d)
    assert closed_curves(d) == 2 - m % 2


def test_torus_pd_rejects_tiny():
    with pytest.raises(ValueError):
        torus_pd(1)


def test_rational_single_block_matches_torus_invariants():
    for m in (3, 5, 7):
        a = build_diagram(parse_pd(rational_pd([m])))
        b = build_diagram(parse_pd(torus_pd(m)))
        assert a.n_crossings == b.n_crossings
        assert sorted(f.degree for f in a.faces) == sorted(f.degree for f in b.faces)
        ga, gb = colour_graphs(a)[0], colour_graphs(b)[0]
        assert count_spanning_trees(ga) == count_spanning_trees(gb)


def test_rational_even_length_normalization():
    # [2,2] and its odd form [2,1,1] close to the same diagram.
    assert rational_pd([2, 2]) == rational_pd([2, 1, 1])
    d = build_diagram(parse_pd(rational_pd([2, 2])))
    assert d.n_crossings == 4
    assert count_spanning_trees(colour_graphs(d)[0]) == 5


# Frozen output of the generators: the 8-crossing twist vectors (the
# benchmark's census pool) and T(2,9), byte for byte.
FROZEN_PD = {
    (2, 2, 4): "X(1,2,3,4) X(4,3,5,6) X(2,7,8,5) X(7,9,10,8) X(6,10,11,12) "
               "X(12,11,13,14) X(14,13,15,16) X(16,15,9,1)",
    (2, 3, 3): "X(1,2,3,4) X(4,3,5,6) X(2,7,8,5) X(7,9,10,8) X(9,11,12,10) "
               "X(6,12,13,14) X(14,13,15,16) X(16,15,11,1)",
    (2, 4, 2): "X(1,2,3,4) X(4,3,5,6) X(2,7,8,5) X(7,9,10,8) X(9,11,12,10) "
               "X(11,13,14,12) X(6,14,15,16) X(16,15,13,1)",
    (3, 2, 3): "X(1,2,3,4) X(4,3,5,6) X(6,5,7,8) X(2,9,10,7) X(9,11,12,10) "
               "X(8,12,13,14) X(14,13,15,16) X(16,15,11,1)",
    (3, 3, 2): "X(1,2,3,4) X(4,3,5,6) X(6,5,7,8) X(2,9,10,7) X(9,11,12,10) "
               "X(11,13,14,12) X(8,14,15,16) X(16,15,13,1)",
    (4, 2, 2): "X(1,2,3,4) X(4,3,5,6) X(6,5,7,8) X(8,7,9,10) X(2,11,12,9) "
               "X(11,13,14,12) X(10,14,15,16) X(16,15,13,1)",
    (2, 2, 2, 2): "X(1,2,3,4) X(4,3,5,6) X(2,7,8,5) X(7,9,10,8) X(6,10,11,12) "
                  "X(12,11,13,14) X(9,15,16,13) X(14,16,15,1)",
}


@pytest.mark.parametrize("twists", sorted(FROZEN_PD))
def test_rational_pd_is_frozen(twists):
    assert rational_pd(list(twists)) == FROZEN_PD[twists]


def test_torus_pd_is_frozen():
    assert torus_pd(9) == (
        "X(1,10,2,11) X(3,12,4,13) X(5,14,6,15) X(7,16,8,17) X(9,18,10,1) "
        "X(11,2,12,3) X(13,4,14,5) X(15,6,16,7) X(17,8,18,9)"
    )


def test_rational_rejects_bad_vectors():
    with pytest.raises(ValueError):
        rational_pd([])
    with pytest.raises(ValueError):
        rational_pd([3, 0])
    with pytest.raises(ValueError):
        rational_pd([2, 1])  # even length ending in 1


def test_continued_fraction_determinants():
    assert continued_fraction_determinant([3]) == 3
    assert continued_fraction_determinant([2, 2]) == 5
    assert continued_fraction_determinant([3, 2]) == 7
    assert continued_fraction_determinant([2, 1, 1, 2]) == 13
    assert continued_fraction_determinant([2, 1, 1, 1, 2]) == 21
    # rational_pd's vectors only: nonempty, positive entries
    for bad in ([], [1, 0], [0], [2, -1]):
        with pytest.raises(ValueError, match="twist vector must be nonempty with positive entries"):
            continued_fraction_determinant(bad)
        with pytest.raises(ValueError, match="twist vector must be nonempty with positive entries"):
            rational_pd(bad)


def test_generated_determinants_match_closed_form():
    for twists in ([3, 2], [4, 2], [3, 1, 2], [3, 2, 2], [2, 2, 1, 2]):
        d = build_diagram(parse_pd(rational_pd(twists)))
        gb, _ = colour_graphs(d)
        assert count_spanning_trees(gb) == continued_fraction_determinant(twists)

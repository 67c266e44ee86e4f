"""Property and metamorphic tests over generated rational projections.

Random twist vectors of up to 12 crossings are closed by ``rational_pd`` and
then written differently: crossings reordered, each X(...) tuple rotated and
the arc labels renamed.  The projection is the same, so both dMf counts must
be too, and each transfer count must equal its closed formula; reordering
the crossings reorders the transfer's frontier.  Up to 6
crossings the perfect admissible move graph must keep its size, its number
of components and its clock moves by type and size of strand-count change,
the four complexes must keep their homology, and swapping the chequerboard
colours must keep every matching's loops and the dMf stream.  The T(2, m)
codes of ``torus_pd`` are scrambled the same way, up to m = 13 (move graphs
up to 7): their black graph is m parallel edges between two regions, the
family's extreme of a colour graph with repeated edges.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotmorse.corpus import rational_pd, torus_pd
from knotmorse.counting import (
    count_all_dmfs,
    count_perfect_dmfs,
    count_via_enumeration,
    fibonacci_family_count,
)
from knotmorse.diagram import build_diagram, build_tait, parse_pd
from knotmorse.moves import build_move_graph, verify_connectivity
from knotmorse.reference import computed_row
from knotmorse.states import enumerate_matchings, monochromatic_loops

COUNT_CROSSINGS = 12
MOVE_GRAPH_CROSSINGS = 6
SWAP_CROSSINGS = 6
TORUS_CROSSINGS = (3, 5, 7, 9, 11, 13)
TORUS_MOVE_GRAPH_CROSSINGS = 7
HOMOLOGY_CROSSINGS = 6


@st.composite
def twist_vectors(draw, max_crossings):
    """Positive twist vectors with at most max_crossings crossings in all.

    ``rational_pd`` takes an even-length vector only when it ends with at
    least 2, so a trailing 1 there is folded into the entry before it.
    """
    twists = []
    budget = max_crossings
    while budget > 0:
        twists.append(draw(st.integers(1, budget)))
        budget -= twists[-1]
        if not draw(st.booleans()):
            break
    if len(twists) % 2 == 0 and twists[-1] == 1:
        last = twists.pop()
        twists[-1] += last
    return twists


def scrambled(pd_text: str, data) -> str:
    """The same projection with crossings, rotations and labels redrawn."""
    crossings = parse_pd(pd_text).crossings
    labels = sorted({label for c in crossings for label in c})
    rename = dict(zip(labels, data.draw(st.permutations(labels), label="labels")))
    order = data.draw(st.permutations(range(len(crossings))), label="order")
    out = []
    for i in order:
        k = data.draw(st.integers(0, 3), label="rotation")
        c = crossings[i][k:] + crossings[i][:k]
        out.append("X(%d,%d,%d,%d)" % tuple(rename[label] for label in c))
    return " ".join(out)


def both_counts(pd_text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    d = build_diagram(parse_pd(pd_text))
    return count_via_enumeration(d), (count_perfect_dmfs(d), count_all_dmfs(d))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(twists=twist_vectors(COUNT_CROSSINGS), data=st.data())
def test_counts_agree_and_survive_scrambling(twists, data):
    assert sum(twists) <= COUNT_CROSSINGS
    base = rational_pd(twists)
    enumerated, formula = both_counts(base)
    assert enumerated == formula
    assert both_counts(scrambled(base, data)) == (enumerated, formula)


def move_graph_summary(pd_text: str) -> tuple[int, int, int, Counter]:
    """Nodes, edges, components and the (clock_type, |delta_j|) multiset of
    the clock edges of the perfect admissible move graph.

    An edge keeps the move from whichever end the enumeration reached first,
    and rewriting the code reorders the enumeration, so only the size of
    delta_j is an invariant, not its sign.
    """
    mg = build_move_graph(build_tait(build_diagram(parse_pd(pd_text))), "perfect_admissible")
    clocks = Counter((m.clock_type, abs(m.delta_j)) for _, _, m in mg.edges if m.kind == "clock")
    return len(mg.nodes), len(mg.edges), verify_connectivity(mg)[1], clocks


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(twists=twist_vectors(MOVE_GRAPH_CROSSINGS), data=st.data())
def test_move_graphs_survive_scrambling(twists, data):
    assert sum(twists) <= MOVE_GRAPH_CROSSINGS
    base = rational_pd(twists)
    assert move_graph_summary(scrambled(base, data)) == move_graph_summary(base)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(twists=twist_vectors(HOMOLOGY_CROSSINGS), data=st.data())
def test_homology_survives_scrambling(twists, data):
    # Relabelling gives isomorphic complexes: ranks, torsion and face counts
    # of all four must agree.
    assert sum(twists) <= HOMOLOGY_CROSSINGS
    base = rational_pd(twists)
    row = computed_row(build_diagram(parse_pd(base)))
    assert computed_row(build_diagram(parse_pd(scrambled(base, data)))) == row


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(twists=twist_vectors(SWAP_CROSSINGS))
def test_loops_and_dmfs_survive_swapping_colours(twists):
    assert sum(twists) <= SWAP_CROSSINGS
    pd = parse_pd(rational_pd(twists))
    t, swapped = (build_tait(build_diagram(pd, swap_colours=swap)) for swap in (False, True))
    assert swapped.face_colour == tuple(1 - c for c in t.face_colour)
    for m in enumerate_matchings(t, "all"):
        assert monochromatic_loops(swapped, m) == monochromatic_loops(t, m)
    assert list(enumerate_matchings(swapped, "dmf")) == list(enumerate_matchings(t, "dmf"))


@pytest.mark.parametrize("m", TORUS_CROSSINGS)
@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(data=st.data())
def test_torus_family_survives_scrambling(m, data):
    base = torus_pd(m)
    enumerated, formula = both_counts(base)
    assert enumerated == formula
    assert formula[1] == fibonacci_family_count((m - 1) // 2)
    code = scrambled(base, data)
    assert both_counts(code) == (enumerated, formula)
    if m <= TORUS_MOVE_GRAPH_CROSSINGS:
        assert move_graph_summary(code) == move_graph_summary(base)

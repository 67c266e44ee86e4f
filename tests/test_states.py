"""Matchings, loops, Jordan resolutions, forests, and the KPW construction.

Counts marked as frozen were produced by the brute-force subset oracle below
and are pinned so regressions in the streaming enumerators show up loudly.
"""

import hashlib
import json
from itertools import combinations

import pytest

from knotmorse import (
    InvalidForest,
    ForestPair,
    Matching,
    NotAcyclic,
    NotSpanning,
    build_diagram,
    build_tait,
    critical_cells,
    enumerate_matchings,
    find_nonextendable,
    forests_to_matching,
    induced_forests,
    is_admissible,
    is_dmf,
    is_maximal,
    is_perfect,
    jordan_resolution,
    kauffman_states,
    kpw,
    loop_sides,
    monochromatic_loops,
    parse_pd,
)
from knotmorse import states
from knotmorse.corpus import corpus_names, get_entry, rational_pd, torus_pd
from knotmorse.errors import InvariantViolation
from knotmorse.states import amended_poset_acyclic, matched_regions, matching_to_dict

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"
KINK = "X(1,2,2,1)"


def setup(text):
    d = build_diagram(parse_pd(text))
    return d, build_tait(d)


def oracle_matchings(t):
    """Every subset of overlay edges hitting each crossing and region once."""
    out = []
    for sz in range(t.n_crossings + 1):
        for sub in combinations(range(t.n_edges), sz):
            cs = [e // 4 for e in sub]
            rs = [t.edge_region[e] for e in sub]
            if len(set(cs)) == len(cs) and len(set(rs)) == len(rs):
                out.append(Matching(sub))
    return out


# -- enumeration against the oracle ---------------------------------------

# (all, perfect, perfect admissible, dmf, perfect dmf), frozen via the oracle
COUNTS = {
    TREFOIL: (84, 32, 18, 64, 18),
    FIG8: (332, 81, 49, 260, 45),
    KINK: (5, 4, 2, 3, 2),
}


@pytest.mark.parametrize("text", [TREFOIL, FIG8, KINK])
def test_enumeration_matches_oracle(text):
    d, t = setup(text)
    oracle = oracle_matchings(t)
    allm = list(enumerate_matchings(t, "all"))
    assert sorted(allm) == sorted(oracle)
    assert len(allm) == len(set(allm))

    perf = list(enumerate_matchings(t, "maximal_pks"))
    padm = list(enumerate_matchings(t, "perfect_admissible"))
    dmfs = list(enumerate_matchings(t, "dmf"))
    pdmf = list(enumerate_matchings(t, "perfect_dmf"))
    assert sorted(perf) == sorted(m for m in oracle if is_perfect(t, m))
    assert sorted(padm) == sorted(m for m in perf if is_admissible(t, m))
    assert sorted(dmfs) == sorted(m for m in oracle if is_dmf(t, m))
    assert sorted(pdmf) == sorted(m for m in perf if is_dmf(t, m))
    assert tuple(map(len, (allm, perf, padm, dmfs, pdmf))) == COUNTS[text]


def test_enumeration_rejects_unknown_filter():
    _, t = setup(KINK)
    with pytest.raises(ValueError, match="unknown filter"):
        list(enumerate_matchings(t, "perfect"))


def test_streams_are_lexicographic():
    _, t = setup(TREFOIL)
    seen = list(enumerate_matchings(t, "maximal_pks"))
    assert seen == sorted(seen)


def test_matching_from_edges_rejects_duplicates():
    with pytest.raises(ValueError):
        Matching.from_edges([3, 3])


def test_validation_rejects_double_booking():
    _, t = setup(TREFOIL)
    with pytest.raises(ValueError, match="matched twice"):
        critical_cells(t, Matching((0, 1)))  # same crossing
    with pytest.raises(ValueError, match="out of range"):
        critical_cells(t, Matching((99,)))


# -- the dMf condition -----------------------------------------------------

@pytest.mark.parametrize("text", [TREFOIL, FIG8, KINK])
def test_loop_criterion_equals_poset_criterion(text):
    d, t = setup(text)
    for m in enumerate_matchings(t, "all"):
        assert is_dmf(t, m, debug=True) == amended_poset_acyclic(t, m)


@pytest.mark.parametrize("name", corpus_names())
def test_pruned_streams_equal_the_filtered_full_streams(name):
    # The acyclic streams prune by an incremental arrow walk; they must
    # yield, in order, exactly what the full loop scan keeps of the
    # unpruned streams, and the poset criterion must keep the same.
    t = build_tait(get_entry(name).diagram)
    for pruned, full in (("dmf", "all"), ("perfect_dmf", "maximal_pks")):
        stream = list(enumerate_matchings(t, full))
        kept = [m for m in stream if is_dmf(t, m)]
        assert list(enumerate_matchings(t, pruned)) == kept
        assert [m for m in stream if amended_poset_acyclic(t, m)] == kept


def test_loop_criterion_disagreement_raises(monkeypatch):
    _, t = setup(TREFOIL)
    monkeypatch.setattr(states, "amended_poset_acyclic", lambda t, x: False)
    assert is_dmf(t, Matching(()))
    with pytest.raises(InvariantViolation):
        is_dmf(t, Matching(()), debug=True)


@pytest.mark.parametrize("text", [TREFOIL, FIG8, KINK])
def test_acyclic_implies_admissible(text):
    d, t = setup(text)
    for m in enumerate_matchings(t, "dmf"):
        assert is_admissible(t, m)


def test_kink_black_loop():
    # The kink's single crossing matched into its only black region supports
    # the length-two loop through both black corner edges.
    d, t = setup(KINK)
    assert monochromatic_loops(t, Matching((0,))) == ((0, 2),)
    assert monochromatic_loops(t, Matching((2,))) == ((0, 2),)
    assert monochromatic_loops(t, Matching((1,))) == ()


def test_fig8_non_dmf_perfect_admissible_states():
    # Exactly four perfect admissible states of the figure-eight support
    # loops; each supports one in either colour.
    d, t = setup(FIG8)
    bad = [m for m in enumerate_matchings(t, "perfect_admissible") if not is_dmf(t, m)]
    assert [m.edges for m in bad] == [
        (1, 5, 8, 12),
        (1, 5, 10, 14),
        (3, 7, 8, 12),
        (3, 7, 10, 14),
    ]
    assert monochromatic_loops(t, bad[0]) == ((1, 3, 5, 7), (8, 10, 12, 14))


def test_loops_alternate_matched_and_unmatched():
    for text in (TREFOIL, FIG8, KINK):
        d, t = setup(text)
        for m in enumerate_matchings(t, "all"):
            for loop in monochromatic_loops(t, m):
                assert len(loop) % 2 == 0
                colours = {t.edge_colour(e) for e in loop}
                assert len(colours) == 1
                in_m = [e in m for e in loop]
                assert in_m.count(True) == len(loop) // 2
                for i in range(len(loop)):
                    assert in_m[i] != in_m[(i + 1) % len(loop)]


# sha256 of [name, edges, loops] per matching of every corpus entry's "all"
# stream (129,261 matchings, 43,126 of them with a loop), from the
# per-colour arrow graph that monochromatic_loops peeled before the region
# map replaced it.
FROZEN_LOOPS = "08793ca3fd2ef39652f3acdf25725dbb0b9ae9b8227227ad8274eb2d77b0d70a"


def test_monochromatic_loops_are_frozen():
    digest = hashlib.sha256()
    for name in corpus_names():
        t = build_tait(get_entry(name).diagram)
        for m in enumerate_matchings(t, "all"):
            digest.update(json.dumps([name, m.edges, monochromatic_loops(t, m)]).encode())
    assert digest.hexdigest() == FROZEN_LOOPS


def test_loop_sides_hold_an_unmatched_vertex_each():
    for text in (TREFOIL, FIG8, KINK):
        d, t = setup(text)
        for m in enumerate_matchings(t, "all"):
            mr = matched_regions(t, m)
            mc = {e // 4 for e in m.edges}
            for loop in monochromatic_loops(t, m):
                for side in loop_sides(t, loop):
                    free = [
                        v
                        for v in side
                        if (v < t.n_faces and v not in mr)
                        or (v >= t.n_faces and v - t.n_faces not in mc)
                    ]
                    assert free, (m.edges, loop)


def test_fig8_loop_sides_frozen():
    _, t = setup(FIG8)
    s1, s2 = loop_sides(t, (1, 3, 5, 7))
    assert sorted(s1) == [0]
    assert sorted(s2) == [2, 4, 5, 8, 9]


def test_loop_sides_of_a_non_loop_raise():
    _, t = setup(FIG8)
    with pytest.raises(InvariantViolation, match="split"):
        loop_sides(t, ())


# -- Jordan resolutions ----------------------------------------------------

@pytest.mark.parametrize("text", [TREFOIL, FIG8, KINK])
def test_perfect_parity(text):
    # A perfect state is admissible exactly when its resolution has an odd
    # number of strands.
    d, t = setup(text)
    for m in enumerate_matchings(t, "maximal_pks"):
        J = jordan_resolution(d, m)
        assert (J.count % 2 == 1) == is_admissible(t, m)


@pytest.mark.parametrize("text", [TREFOIL, FIG8, KINK])
def test_admissible_dmf_iff_connected_resolution(text):
    d, t = setup(text)
    for m in enumerate_matchings(t, "all"):
        if is_admissible(t, m):
            assert (jordan_resolution(d, m).count == 1) == is_dmf(t, m)


def test_resolution_partitions_arcs():
    for text in (TREFOIL, FIG8, KINK):
        d, t = setup(text)
        for m in enumerate_matchings(t, "all"):
            J = jordan_resolution(d, m)
            arcs = sorted(a for comp in J.components for a in comp)
            assert arcs == list(range(d.n_arcs))
            assert len(J.resolved) == len(m)
            assert len(J.double_points) == t.n_crossings - len(m)


def test_resolution_cycles_cover_their_components():
    d, t = setup(FIG8)
    for m in enumerate_matchings(t, "maximal_pks"):
        J = jordan_resolution(d, m)
        for comp, cyc in zip(J.components, J.cycles):
            assert cyc is not None  # no double points on a perfect state
            assert len(cyc) == 4 * len(comp) // 2
            assert {dart for dart in cyc} == {
                end for a in comp for end in d.arc_ends[a]
            }


def test_trefoil_connected_resolution_frozen():
    d, t = setup(TREFOIL)
    m = Matching((2, 4, 9))
    J = jordan_resolution(d, m)
    assert J.count == 1 and J.connected
    assert J.resolved == ((0, 1), (1, 1), (2, 0))
    assert J.cycles[0] == (
        (0, 0), (1, 3), (1, 0), (2, 3), (2, 2), (1, 1),
        (1, 2), (0, 1), (0, 2), (2, 1), (2, 0), (0, 3),
    )
    dd = J.to_dict()
    assert dd["count"] == 1
    assert dd["components"][0]["arcs"] == list(range(6))


def test_opposite_dots_resolve_identically():
    d, t = setup(TREFOIL)
    # corners 1 and 3 of crossing 0 smooth the same way
    a = jordan_resolution(d, Matching((1,)))
    b = jordan_resolution(d, Matching((3,)))
    assert a.resolved == b.resolved
    assert a.components == b.components


def test_empty_matching_keeps_all_double_points():
    d, t = setup(TREFOIL)
    J = jordan_resolution(d, Matching(()))
    assert J.double_points == (0, 1, 2)
    assert J.count == 1  # the underlying curve is connected
    assert J.cycles == (None,)


# -- maximality ------------------------------------------------------------

@pytest.mark.parametrize("text", [TREFOIL, FIG8, KINK])
def test_no_small_diagram_has_nonextendable_matchings(text):
    d, t = setup(text)
    assert list(find_nonextendable(t)) == []
    allm = oracle_matchings(t)
    assert [m for m in allm if is_maximal(t, m) and not is_perfect(t, m)] == []


@pytest.mark.parametrize("name", corpus_names())
def test_nonextendable_search_equals_the_filtered_full_stream(name):
    t = build_tait(get_entry(name).diagram)
    kept = {
        m for m in enumerate_matchings(t, "all") if is_maximal(t, m) and not is_perfect(t, m)
    }
    found = list(find_nonextendable(t))
    assert len(found) == len(set(found))
    assert set(found) == kept


# sha256 of [name, filter, edges] per matching of the three perfect filters
# and find_nonextendable, in stream order, over the corpus, T(2,9), the
# 8-crossing rational vectors below and a composite projection (18,966,
# 9,222, 6,858 and 11,185 matchings), taken from the separate perfect and
# non-extendable searches before one maximal-matching search replaced both.
FROZEN_MAXIMAL_STREAMS = "af556c74084588490ed0dead9f50f4a362ca994ca5d3cc7c57342cbc5cfa08de"
EIGHT_CROSSING_VECTORS = ((2, 2, 4), (2, 3, 3), (2, 4, 2), (3, 2, 3), (3, 3, 2), (4, 2, 2), (2, 2, 2, 2))
COMPOSITE = "X(6,3,8,1) X(2,8,3,6) X(7,4,1,5) X(5,2,4,7)"


def test_maximal_streams_are_frozen():
    diagrams = [(name, get_entry(name).diagram) for name in corpus_names()]
    texts = [("T(2,9)", torus_pd(9))]
    texts += [("R%s" % (v,), rational_pd(list(v))) for v in EIGHT_CROSSING_VECTORS]
    texts.append(("composite", COMPOSITE))
    diagrams += [(name, build_diagram(parse_pd(text))) for name, text in texts]
    digest = hashlib.sha256()
    for name, d in diagrams:
        t = build_tait(d)
        for filter in ("maximal_pks", "perfect_admissible", "perfect_dmf", "nonextendable"):
            if filter == "nonextendable":
                stream = find_nonextendable(t)
            else:
                stream = enumerate_matchings(t, filter)
            for m in stream:
                digest.update(json.dumps([name, filter, m.edges]).encode())
    assert digest.hexdigest() == FROZEN_MAXIMAL_STREAMS


def test_maximal_flag_agrees_with_oracle():
    d, t = setup(FIG8)
    for m in oracle_matchings(t):
        used_c = {x // 4 for x in m.edges}
        used_r = {t.edge_region[x] for x in m.edges}
        can_extend = any(
            e // 4 not in used_c and t.edge_region[e] not in used_r
            for e in range(t.n_edges)
        )
        assert is_maximal(t, m) == (not can_extend)


# -- forests and KPW -------------------------------------------------------

@pytest.mark.parametrize("text", [TREFOIL, FIG8, KINK])
def test_forest_roundtrip(text):
    d, t = setup(text)
    for m in enumerate_matchings(t, "dmf"):
        f = induced_forests(t, m)
        assert forests_to_matching(t, f) == m


def test_induced_forests_requires_acyclic():
    d, t = setup(KINK)
    with pytest.raises(NotAcyclic):
        induced_forests(t, Matching((0,)))


def test_induced_forests_component_without_a_root_raises(monkeypatch):
    # With the loop check bypassed, the loop's component has no free region.
    d, t = setup(FIG8)
    monkeypatch.setattr(states, "monochromatic_loops", lambda t, x: ())
    with pytest.raises(InvariantViolation, match="one unmatched region"):
        induced_forests(t, Matching((1, 5, 8, 12)))


def test_trefoil_forest_frozen():
    d, t = setup(TREFOIL)
    f = induced_forests(t, Matching((2, 4, 9)))
    assert f.black_edges == (0, 1) and f.black_roots == (1,)
    assert f.white_edges == (2,) and f.white_roots == (0,)
    assert f.roots == (0, 1)


def test_forests_reject_shared_crossing():
    d, t = setup(TREFOIL)
    bad = ForestPair(black_edges=(0,), white_edges=(0,), black_roots=(1,), white_roots=(0,))
    with pytest.raises(InvalidForest, match="both colours"):
        forests_to_matching(t, bad)


def test_forests_reject_cycles_and_bad_roots():
    d, t = setup(TREFOIL)
    # all three crossings in the black triangle close a cycle
    bad = ForestPair(black_edges=(0, 1, 2), white_edges=(), black_roots=(1,), white_roots=(0, 2))
    with pytest.raises(InvalidForest, match="cycle"):
        forests_to_matching(t, bad)
    bad = ForestPair(black_edges=(0, 1), white_edges=(), black_roots=(1, 3), white_roots=(0, 2))
    with pytest.raises(InvalidForest):
        forests_to_matching(t, bad)


def test_kpw_image_is_every_perfect_dmf():
    for text in (TREFOIL, FIG8, KINK):
        d, t = setup(text)
        n_black = len(t.black_faces)
        image = set()
        for T in combinations(range(t.n_crossings), n_black - 1):
            try:
                kpw(t, T, t.black_faces[0], t.white_faces[0])
            except NotSpanning:
                continue
            for vb in t.black_faces:
                for vw in t.white_faces:
                    x = kpw(t, T, vb, vw)
                    assert is_perfect(t, x) and is_dmf(t, x)
                    b, c, w = critical_cells(t, x)
                    assert b == (vb,) and w == (vw,) and c == ()
                    image.add(x)
        assert image == set(enumerate_matchings(t, "perfect_dmf"))


def test_kpw_rejects_non_spanning_input():
    d, t = setup(TREFOIL)
    with pytest.raises(NotSpanning):
        kpw(t, (0,), 1, 0)  # too few edges
    with pytest.raises(NotSpanning):
        kpw(t, (0, 1, 2), 1, 0)  # too many
    with pytest.raises(ValueError, match="not a black region"):
        kpw(t, (0, 1), 0, 0)


def test_kpw_frozen_example():
    d, t = setup(TREFOIL)
    assert kpw(t, (0, 1), 1, 0) == Matching((2, 4, 9))


# -- Kauffman states -------------------------------------------------------

def test_trefoil_kauffman_states():
    d, t = setup(TREFOIL)
    for vb in t.black_faces:
        for vw in t.white_faces:
            ks = kauffman_states(t, vb, vw)
            assert len(ks) == 3
            for m in ks:
                assert is_dmf(t, m)
                b, c, w = critical_cells(t, m)
                assert (b, c, w) == ((vb,), (), (vw,))


def test_kauffman_states_validate_colours():
    d, t = setup(TREFOIL)
    with pytest.raises(ValueError):
        kauffman_states(t, 0, 1)


def test_matching_to_dict():
    d, t = setup(TREFOIL)
    dd = matching_to_dict(t, Matching((2, 4, 9)))
    assert dd["perfect"] and dd["admissible"] and dd["acyclic"] and dd["maximal"]
    assert dd["critical"] == {"black": [1], "crossings": [], "white": [0]}

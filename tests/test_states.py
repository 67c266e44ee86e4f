"""Matchings, loops, Jordan resolutions, forests, and the KPW construction.

Counts marked as frozen were produced by the brute-force subset oracle below
and are pinned so regressions in the streaming enumerators show up loudly.
"""

import hashlib
import json
from collections import Counter
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
    forests_to_matching,
    induced_forests,
    is_admissible,
    is_dmf,
    is_maximal,
    is_perfect,
    jordan_resolution,
    kauffman_states,
    kpw,
    monochromatic_loops,
    parse_pd,
)
from knotmorse import cli, moves, states
from knotmorse.corpus import corpus_names, get_entry, rational_pd, torus_pd
from knotmorse.diagram import BLACK
from knotmorse.states import _maximal_stream, amended_poset_acyclic, matching_to_dict
from states_oracle import (
    oracle_amended_poset_acyclic,
    oracle_forests_to_matching,
    oracle_induced_forests,
    oracle_jordan_resolution,
)

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
        assert is_dmf(t, m) == amended_poset_acyclic(t, m)


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
                colours = {t.face_colour[t.edge_region[e]] for e in loop}
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
            loops = monochromatic_loops(t, m)
            assert is_dmf(t, m) == (not loops)
            digest.update(json.dumps([name, m.edges, loops]).encode())
    assert digest.hexdigest() == FROZEN_LOOPS


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


def test_trefoil_connected_resolution_frozen():
    d, t = setup(TREFOIL)
    m = Matching((2, 4, 9))
    J = jordan_resolution(d, m)
    assert J.count == 1
    assert J.resolved == ((0, 1), (1, 1), (2, 0))


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
    assert J.resolved == ()
    assert J.count == 1  # the underlying curve is connected


# -- maximality ------------------------------------------------------------

def nonextendable(t):
    """The maximal matchings that are not perfect: the skip branch of the
    maximal stream that the Morse complex and `complex --kind matching`
    read their facets from."""
    return (x for x in _maximal_stream(t, skip=True) if len(x) < t.n_crossings)


@pytest.mark.parametrize("text", [TREFOIL, FIG8, KINK])
def test_no_small_diagram_has_nonextendable_matchings(text):
    d, t = setup(text)
    assert list(nonextendable(t)) == []
    allm = oracle_matchings(t)
    assert [m for m in allm if is_maximal(t, m) and not is_perfect(t, m)] == []


@pytest.mark.parametrize("name", corpus_names())
def test_nonextendable_search_equals_the_filtered_full_stream(name):
    t = build_tait(get_entry(name).diagram)
    kept = {
        m for m in enumerate_matchings(t, "all") if is_maximal(t, m) and not is_perfect(t, m)
    }
    found = list(nonextendable(t))
    assert len(found) == len(set(found))
    assert set(found) == kept


# sha256 of [name, filter, edges] per matching of the three perfect filters
# and the non-perfect maximal matchings, in stream order, over the corpus, T(2,9), the
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
                stream = nonextendable(t)
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


def test_trefoil_forest_frozen():
    d, t = setup(TREFOIL)
    f = induced_forests(t, Matching((2, 4, 9)))
    assert f.black_edges == (0, 1) and f.black_roots == (1,)
    assert f.white_edges == (2,) and f.white_roots == (0,)


def test_forests_reject_shared_crossing():
    d, t = setup(TREFOIL)
    bad = ForestPair(black_edges=(0,), white_edges=(0,), black_roots=(1,), white_roots=(0,))
    with pytest.raises(InvalidForest, match="both colours"):
        forests_to_matching(t, bad)


# On 3_1 the black graph is the triangle 1, 3, 4 with edges 0 = {1, 3},
# 1 = {4, 1} and 2 = {3, 4}; the white graph joins 0 and 2 three times.
BAD_FORESTS = {
    "both-colours": (((0,), (0,), (1,), (0,)), "crossings [0] appear in both colours"),
    "repeated": (((0, 0), (), (1, 4), (0, 2)), "repeated edge in forest"),
    "range": (((5,), (), (1, 4), (0, 2)), "edge id 5 out of range"),
    "cycle": (((0, 1, 2), (), (1,), (0, 2)), "edge 2 closes a cycle"),
    "root-count": (((0, 1), (), (1, 3), (0, 2)), "2 roots for 1 components"),
    "black-root": (((0, 1), (), (0,), (0, 2)), "root 0 is not a black region"),
    "white-root": (((0, 1), (2,), (1,), (1,)), "root 1 is not a white region"),
    "component": (((0,), (), (1, 3), (0, 2)), "roots must pick one vertex per component"),
}


@pytest.mark.parametrize("fault", BAD_FORESTS)
def test_forests_reject_cycles_and_bad_roots(fault):
    d, t = setup(TREFOIL)
    (black, white, black_roots, white_roots), message = BAD_FORESTS[fault]
    bad = ForestPair(black_edges=black, white_edges=white, black_roots=black_roots,
                     white_roots=white_roots)
    with pytest.raises(InvalidForest) as got:
        forests_to_matching(t, bad)
    assert str(got.value) == message


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
    # every field agrees with the public predicate it stands for
    for m in enumerate_matchings(t, "all"):
        dd = matching_to_dict(t, m)
        assert (dd["perfect"], dd["admissible"]) == (is_perfect(t, m), is_admissible(t, m))
        assert (dd["maximal"], dd["acyclic"]) == (is_maximal(t, m), is_dmf(t, m))
        black, crossings, white = critical_cells(t, m)
        assert dd["critical"] == {"black": list(black), "crossings": list(crossings), "white": list(white)}


def test_matching_to_dict_validates_each_matching_once(monkeypatch):
    t = build_tait(get_entry("4_1").diagram)
    xs = list(enumerate_matchings(t, "all"))
    validated = []
    real_checked = states._checked
    monkeypatch.setattr(states, "_checked", lambda region_of, edges: validated.append(edges)
                        or real_checked(region_of, edges))
    for x in xs:
        matching_to_dict(t, x)
    assert validated == [x.edges for x in xs]


# -- the int-indexed kernels against the package's original ones -----------

# every corpus entry, and its colour swap for up to 6 crossings
KERNEL_CASES = [pytest.param(name, False, id=name) for name in corpus_names()] + [
    pytest.param(name, True, id=name + "-swapped")
    for name in corpus_names()
    if get_entry(name).diagram.n_crossings <= 6
]


def kernel_case(name, swapped):
    d = get_entry(name).diagram
    if swapped:
        d = build_diagram(d.pd, swap_colours=True)
    return d, build_tait(d)


@pytest.mark.parametrize("name, swapped", KERNEL_CASES)
def test_resolution_and_poset_verdict_equal_the_oracle(name, swapped):
    d, t = kernel_case(name, swapped)
    for m in enumerate_matchings(t, "all"):
        assert jordan_resolution(d, m) == oracle_jordan_resolution(d, m)
        assert amended_poset_acyclic(t, m) == oracle_amended_poset_acyclic(t, m)


@pytest.mark.parametrize("name, swapped", KERNEL_CASES)
def test_forest_pair_equals_the_oracle_both_ways(name, swapped):
    d, t = kernel_case(name, swapped)
    for m in enumerate_matchings(t, "dmf"):
        f = induced_forests(t, m)
        assert f == oracle_induced_forests(t, m)
        assert forests_to_matching(t, f) == oracle_forests_to_matching(t, f) == m


def assert_dmf_sizes_equal_the_streams(d, t):
    sizes = states._dmf_sizes(t)
    by_size = Counter(len(x) for x in enumerate_matchings(t, "dmf"))
    assert sizes == [by_size[k] for k in range(d.n_crossings + 1)]
    assert sizes[-1] == sum(1 for _ in enumerate_matchings(t, "perfect_dmf"))


@pytest.mark.parametrize("name, swapped", KERNEL_CASES)
def test_dmf_size_count_equals_the_streams(name, swapped):
    assert_dmf_sizes_equal_the_streams(*kernel_case(name, swapped))


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_dmf_size_count_equals_the_streams_on_torus_codes(m):
    d = build_diagram(parse_pd(torus_pd(m)))
    assert_dmf_sizes_equal_the_streams(d, build_tait(d))


# the one-crossing kink, whose corner loop r2 == r the prune must cut, and two
# kinks in a row, whose looped region and one more cross the frontier
@pytest.mark.parametrize("code", ["X(1,1,2,2)", "X(1,2,3,1) X(2,4,4,3)"])
def test_dmf_size_count_equals_the_streams_on_kinks(code):
    d = build_diagram(parse_pd(code))
    assert_dmf_sizes_equal_the_streams(d, build_tait(d))


# sha256 of [name, edges, resolved, components] per matching of every
# corpus entry's "all" stream (129,261 matchings), the same fields that the
# union-find over (crossing, slot) darts gave before jordan_resolution
# searched int darts.
FROZEN_RESOLUTIONS = "fb7b24df3848ef75325ca1a3e9fe334f8bfbcac473b4cf699530c47ecda2510e"


def test_jordan_resolutions_are_frozen():
    digest = hashlib.sha256()
    for name in corpus_names():
        d = get_entry(name).diagram
        for m in enumerate_matchings(build_tait(d), "all"):
            j = jordan_resolution(d, m)
            row = [name, m.edges, j.resolved, j.components]
            digest.update(json.dumps(row).encode())
    assert digest.hexdigest() == FROZEN_RESOLUTIONS


@pytest.mark.parametrize("edges", [(0, 1), (0, 99), (0, 6), (-1,)],
                         ids=["crossing", "range", "region", "negative"])
@pytest.mark.parametrize("kernel", ["jordan_resolution", "amended_poset_acyclic", "is_dmf",
                                    "is_admissible", "is_maximal", "is_perfect",
                                    "critical_cells", "matching_to_dict"])
def test_kernels_reject_invalid_matchings_like_validate(kernel, edges):
    # on 3_1: crossing 0 twice, an edge id past 11, region 1 twice (edges 0, 6),
    # and an id that would read the region table from its end
    t = build_tait(get_entry("3_1").diagram)
    x = Matching(edges)
    with pytest.raises(ValueError) as want:
        monochromatic_loops(t, x)
    with pytest.raises(ValueError) as got:
        getattr(states, kernel)(t, x)
    assert str(got.value) == str(want.value)


def test_checked_rejects_a_negative_edge_id_and_accepts_the_empty_matching():
    # a negative id would index the region map from its end and pass
    d, t = setup(TREFOIL)
    with pytest.raises(ValueError, match="edge id -1 out of range"):
        states._checked(t.edge_region, (-1,))
    with pytest.raises(ValueError, match="edge id -4 out of range"):
        states._checked(t.edge_region, (0, -4))
    assert states._checked(t.edge_region, ()) == (0, 0)
    empty = Matching(())
    assert amended_poset_acyclic(t, empty) and is_admissible(t, empty)
    assert jordan_resolution(d, empty).count == 1


def test_checked_returns_the_masks_of_the_matched_crossings_and_regions():
    _, t = setup(FIG8)
    for m in enumerate_matchings(t, "all"):
        crossings, regions = states._checked(t.edge_region, m.edges)
        assert crossings == sum(1 << e // 4 for e in m.edges)
        assert regions == sum(1 << t.edge_region[e] for e in m.edges)


def test_kink_parallel_arrows_survive_a_flip():
    # At the kink its looped region meets the crossing at two opposite
    # corners, so edges 0 and 2 give the same arrow, one bit in the masks.
    # Flipping edge 0 must leave edge 2's arrow: the two then close the
    # 2-cycle that is the kink's loop (0, 2).  Clearing the shared bit
    # would lose it and call the looped matching acyclic.
    d, t = setup(KINK)
    arrows, _, _ = t.poset_tables
    assert arrows[0][:2] == arrows[2][:2] and not arrows[0][2] and not arrows[2][2]
    assert arrows[1][2] and arrows[3][2]
    for e in range(4):
        looped = bool(monochromatic_loops(t, Matching((e,))))
        assert looped == (e in (0, 2))
        assert amended_poset_acyclic(t, Matching((e,))) == (not looped)


def test_forests_reject_two_roots_in_one_component_and_none_in_another():
    # the black forest of 3_1 holds one edge, so one component has two
    # regions and the other one; rooting both ends of the edge leaves the
    # lone region unreached though the root count is right
    d, t = setup(TREFOIL)
    e = next(e for e in range(4) if t.face_colour[t.edge_region[e]] == BLACK)
    u, v = t.edge_region[e], t.edge_region[e ^ 2]
    for roots in ((u, v), (u, u)):
        bad = ForestPair(black_edges=(0,), white_edges=(), black_roots=roots,
                         white_roots=t.white_faces)
        with pytest.raises(InvalidForest, match="one vertex per component"):
            forests_to_matching(t, bad)


def test_jordan_resolution_never_calls_the_strand_kernel(monkeypatch):
    # clock_shift recounts delta_j with jordan_resolution to check the
    # arc-level kernel of moves, so it must lean neither on that kernel nor
    # on the arc pair table the kernel reads
    def refuse(d, x):
        raise AssertionError("jordan_resolution called moves._strand_roots")

    monkeypatch.setattr(moves, "_strand_roots", refuse)
    for name in corpus_names():
        d = build_diagram(get_entry(name).diagram.pd)  # nothing cached yet
        if d.n_crossings <= 6:
            for m in enumerate_matchings(build_tait(d), "all"):
                assert jordan_resolution(d, m).count >= 1
            assert "arc_pairs" not in vars(d)


def test_selftest_catches_an_even_strand_count_fault(monkeypatch, capsys):
    # Two strands too many whenever edge 0 is matched: every |delta_j| stays
    # even, and only the recount by jordan_resolution sees the fault.
    real = moves._strand_roots

    def two_too_many(d, x):
        find, count = real(d, x)
        return find, count + 2 * (0 in x.edges)

    monkeypatch.setattr(moves, "_strand_roots", two_too_many)
    assert cli.main(["selftest", "--max-crossings", "4"]) == 4
    assert json.loads(capsys.readouterr().out) == {
        "check": "clock_shift",
        "counterexample": {"diagram": "3_1", "matching": [0, 5, 8], "site": [3]},
    }

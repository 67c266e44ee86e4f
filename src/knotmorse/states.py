"""Partial Kauffman states: matchings on the Tait overlay graph.

A partial Kauffman state pairs some subset of the crossings injectively with
adjacent regions; on the overlay graph this is exactly a matching (edge set
meeting every vertex at most once, every overlay edge joining a crossing to a
region).  This module decides the properties that drive everything else:

perfect      every crossing is matched (equivalently: maximal as a pKs).
admissible   at least one region of each colour is left unmatched.
acyclic      the matching supports no monochromatic loop; acyclic matchings
             are the discrete Morse functions (dMfs) of the projection.

_checked validates a matching in one pass and returns the masks of its
matched crossings and regions, which is_perfect, is_maximal, is_admissible
and critical_cells read.  The bodies _maximal, _critical and _acyclic take
the masks or the edges already checked, so matching_to_dict validates once.

A monochromatic loop is a cycle in the overlay through regions of one colour
only, alternating matched and unmatched edges with the matched ones in x.
Corners k and k + 2 of a crossing share a colour, so the loop leaves crossing
e // 4 along edge e ^ 2, and the loops are the cycles of one map over both
colours: each matched region r, matched by edge e, steps to region
edge_region[e ^ 2].  _node_map validates a matching and builds that map with
each region's matched edge beside it; is_dmf, which reads the map alone,
builds only that half, in _acyclic.  One walker, _loop_closings, walks the map
from every matched region; a walk ends when it leaves the matched regions,
reaches a region an earlier walk finished, or meets its own path, which
closes a loop.  monochromatic_loops reads each loop off the region where it
closes, and is_dmf stops at the first such region and builds no loop.  The
acyclic streams keep the same map incrementally: a loop-free matching has no
cycle in it, so a loop in matching + e must pass through e's region r, and
the search prunes e iff the walk from edge_region[e ^ 2] comes back to r (at
once when the two coincide, the kink's loop of length one).  The count
_dmf_sizes runs the same prune as a transfer over the crossings in id order,
its state where the walks of the regions that later crossings meet end.  The
test "matched crossings form a forest in each colour graph" would prune the
same branches, but count_all_dmfs rests on it (its sum runs over the rooted
forests of the colour graphs), so the transfer does not use it: it stays an
independent check of the formula.

The Jordan resolution smooths every matched crossing (the two arc-ends beside
the dotted corner are joined, and the opposite two), keeps unmatched crossings
as double points, and partitions the arcs into strand components by a search
over arcs, each dart 4c + s stepping to the dart its smoothing joins it to or,
at a double point, to the next of the crossing's four darts.  It keeps the
smoothing and the strands, all that the clock and click statements read, and
shares no code with the arc-level strand count of moves, which it checks.
Acyclic matchings induce a rooted forest in each colour graph (edge per
crossing matched into that colour, root = the unique unmatched region of
each component); that forest pair determines the matching, which is the
bijection behind the KPW construction of perfect states from spanning
trees.  The region map is the forests' parent pointers: a region matched by
edge e hangs below edge_region[e ^ 2], and a root, unmatched, has no parent.
induced_forests and the click trees of moves read it from _node_map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .diagram import BLACK, COLOUR_NAME, WHITE, Diagram, UnionFind
from .errors import InvalidForest, NotAcyclic, NotAdmissible, NotSpanning

__all__ = [
    "Matching",
    "JordanResolution",
    "ForestPair",
    "enumerate_matchings",
    "kauffman_states",
    "monochromatic_loops",
    "amended_poset_acyclic",
    "is_dmf",
    "critical_cells",
    "jordan_resolution",
    "induced_forests",
    "forests_to_matching",
    "kpw",
    "is_perfect",
    "is_maximal",
    "is_admissible",
    "matching_to_dict",
]

FILTERS = ("all", "maximal_pks", "perfect_admissible", "dmf", "perfect_dmf")


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Matching:
    """A set of overlay edge ids, canonically a strictly increasing tuple."""

    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[int]:
        return iter(self.edges)

    def __contains__(self, e: int) -> bool:
        return e in self.edges

    @cached_property
    def mask(self) -> int:
        """Bit e set for edge e; not a field, so equality and order ignore it."""
        return sum(1 << e for e in self.edges)


def _checked(region_of: tuple[int, ...], edges: tuple[int, ...]) -> tuple[int, int]:
    """The masks (crossings, regions) that edges match; ValueError at the first
    edge that stops them being a matching: an id out of range, or a crossing
    or region met twice (a bit set twice)."""
    n = len(region_of)
    crossings = regions = 0
    for e in edges:
        if not 0 <= e < n:
            raise ValueError("edge id %d out of range" % e)
        c, r = e >> 2, region_of[e]
        if crossings >> c & 1:
            raise ValueError("crossing %d matched twice" % c)
        if regions >> r & 1:
            raise ValueError("region %d matched twice" % r)
        crossings |= 1 << c
        regions |= 1 << r
    return crossings, regions


def _is_region(d: Diagram, v: int, colour: int) -> bool:
    """Whether v is the id of a region of the colour."""
    return 0 <= v < d.n_faces and d.face_colour[v] == colour


def _node_map(d: Diagram, x: Matching) -> tuple[dict[int, int], dict[int, int]]:
    """(matched region -> its edge, matched region -> its next region) after
    validating x, the map the loops, forests and move targets read; one loop
    fills both dicts faster than two comprehensions."""
    _checked(d.edge_region, x.edges)
    region_of = d.edge_region
    out, step = {}, {}
    for e in x.edges:
        r = region_of[e]
        out[r] = e
        step[r] = region_of[e ^ 2]
    return out, step


def is_perfect(d: Diagram, x: Matching) -> bool:
    crossings, _ = _checked(d.edge_region, x.edges)
    return crossings + 1 == 1 << d.n_crossings


def is_maximal(d: Diagram, x: Matching) -> bool:
    """No overlay edge can be added (perfect states included)."""
    return _maximal(d, *_checked(d.edge_region, x.edges))


def _maximal(d: Diagram, crossings: int, regions: int) -> bool:
    return all(crossings >> (e >> 2) & 1 or regions >> r & 1 for e, r in enumerate(d.edge_region))


def is_admissible(d: Diagram, x: Matching) -> bool:
    _, used = _checked(d.edge_region, x.edges)
    white, black = d.face_masks
    return bool(white & ~used and black & ~used)


def critical_cells(d: Diagram, x: Matching) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Unmatched (black regions, crossings, white regions), each sorted."""
    return _critical(d, *_checked(d.edge_region, x.edges))


def _critical(d: Diagram, crossings: int, regions: int) -> tuple[tuple[int, ...], ...]:
    black = tuple(f for f in d.black_faces if not regions >> f & 1)
    white = tuple(f for f in d.white_faces if not regions >> f & 1)
    return black, tuple(c for c in range(d.n_crossings) if not crossings >> c & 1), white


def matching_to_dict(d: Diagram, x: Matching) -> dict:
    """x's properties from one validation; perfect and admissible are read
    off its critical cells."""
    masks = _checked(d.edge_region, x.edges)
    black, crossings, white = _critical(d, *masks)
    return {
        "edges": list(x.edges),
        "perfect": not crossings,
        "maximal": _maximal(d, *masks),
        "admissible": bool(black and white),
        "acyclic": _acyclic(d.edge_region, x.edges),
        "critical": {"black": list(black), "crossings": list(crossings), "white": list(white)},
    }


# ---------------------------------------------------------------------------
# Monochromatic loops and the dMf condition
# ---------------------------------------------------------------------------

def _loop_closings(step: dict[int, int]) -> Iterator[int]:
    """The region at which each loop of the region map step closes.

    step maps each matched region to its next region.  A walk from each
    region in turn ends when it leaves step, reaches a region an earlier walk
    finished, or meets its own path at the region yielded, one per loop.
    """
    walk_of: dict[int, int] = {}  # region -> the start of the walk that met it
    for start in step:
        r = start
        while r in step and r not in walk_of:
            walk_of[r] = start
            r = step[r]
        if walk_of.get(r) == start:
            yield r


def monochromatic_loops(d: Diagram, x: Matching) -> tuple[tuple[int, ...], ...]:
    """All supported loops, each a cyclic edge sequence, canonicalized."""
    return _loops_of(*_node_map(d, x))


def _loops_of(out: dict[int, int], step: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """The sorted loops of the region map step; out[r] is r's matched edge."""
    loops: list[tuple[int, ...]] = []
    for r in _loop_closings(step):
        # The loop runs from r back to r.
        seq: list[int] = []
        q = r
        while not seq or q != r:
            seq += (out[q], out[q] ^ 2)
            q = step[q]
        # Rotate so the smallest edge id comes first; the region map
        # already fixes the direction.
        i = seq.index(min(seq))
        loops.append(tuple(seq[i:] + seq[:i]))
    return tuple(sorted(loops))


def amended_poset_acyclic(d: Diagram, x: Matching) -> bool:
    """Acyclicity of the full poset arrow graph with matched arrows reversed.

    Base arrows run white region -> crossing -> black region; each matched
    edge reverses its arrow, in copies of the Diagram.poset_tables masks
    (a parallel twin, at a kink, keeps its bit), and sources are peeled bit
    by bit.  An independent cross-check of the loop criterion, it reads
    neither the region map nor the loops.  Raises ValueError on an invalid
    matching, through _checked."""
    _checked(d.edge_region, x.edges)
    arrows, succ, pred = d.poset_tables
    succ, pred = list(succ), list(pred)
    for e in x.edges:
        u, v, lone = arrows[e]
        if lone:  # the bits are set, so ^ clears them
            succ[u] ^= 1 << v
            pred[v] ^= 1 << u
        succ[v] |= 1 << u
        pred[u] |= 1 << v
    queue = [v for v, p in enumerate(pred) if not p]
    for v in queue:  # grows as the arrows are peeled
        bit, s = 1 << v, succ[v]
        while s:
            w = (s & -s).bit_length() - 1
            s &= s - 1
            pred[w] ^= bit
            if not pred[w]:
                queue.append(w)
    return len(queue) == len(pred)


def is_dmf(d: Diagram, x: Matching) -> bool:
    """True iff x supports no monochromatic loop (the dMf condition); the
    walk stops at the first loop and builds none."""
    _checked(d.edge_region, x.edges)
    return _acyclic(d.edge_region, x.edges)


def _acyclic(region_of: tuple[int, ...], edges: tuple[int, ...]) -> bool:
    """is_dmf on validated edges: the walk over the step half of _node_map."""
    return next(_loop_closings({region_of[e]: region_of[e ^ 2] for e in edges}), None) is None


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumerate_matchings(d: Diagram, filter: str = "all") -> Iterator[Matching]:
    """Stream all matchings passing the filter, in lexicographic edge order.

    Filters: all | maximal_pks (= perfect) | perfect_admissible | dmf
    (acyclic, any size) | perfect_dmf.
    """
    if filter not in FILTERS:
        raise ValueError("unknown filter %r (expected one of %s)" % (filter, ", ".join(FILTERS)))
    if filter in ("all", "dmf"):
        yield from _subset_stream(d, acyclic=(filter == "dmf"))
    else:
        yield from _maximal_stream(
            d,
            admissible=(filter == "perfect_admissible"),
            acyclic=(filter == "perfect_dmf"),
        )


def _closes_loop(arrow: dict[int, int], r: int, r2: int) -> bool:
    """Whether matching r with next region r2 closes a loop through r.

    arrow is the region map of the matching so far and holds no loop, so any
    new loop passes through r: follow it from r2 until it reaches r (a loop,
    r2 == r being the kink's loop of length one) or an unmatched region.
    """
    while r2 != r:
        r2 = arrow.get(r2)
        if r2 is None:
            return False
    return True


def _subset_stream(d: Diagram, acyclic: bool) -> Iterator[Matching]:
    region_of = d.edge_region
    acc: list[int] = []
    arrow: dict[int, int] = {}  # matched region -> its next region

    def rec(start: int) -> Iterator[Matching]:
        yield Matching(tuple(acc))
        for e in range(start, d.n_edges):
            r = region_of[e]
            if r in arrow:
                continue
            if acyclic and _closes_loop(arrow, r, region_of[e ^ 2]):
                # Supersets keep every supported loop; prune the subtree.
                continue
            acc.append(e)
            arrow[r] = region_of[e ^ 2]
            # No other edge of e's crossing can join: go on from the next one.
            yield from rec((e | 3) + 1)
            acc.pop()
            del arrow[r]

    yield from rec(0)


def _dmf_sizes(d: Diagram) -> list[int]:
    """sizes[k]: the number of acyclic matchings with k edges.

    The frontier lists the regions met so far that a later crossing meets; a
    state holds, at each one's position, the position where its walk along
    the region map ends: its own while unmatched, -1 at a region no later
    crossing meets, which stays unmatched and closes no loop.  Crossing c is
    left unmatched, or matches r through corner (r, r2) when r is unmatched
    and r2's walk does not end at r (r2 == r is the kink's loop), and every
    walk that ended at r then ends where r2's does.  A state's value counts
    its matchings by size, packed in an int with w bits per coefficient.
    """
    n = d.n_crossings
    region_of = d.edge_region
    last_chance = {r: e // 4 for e, r in enumerate(region_of)}  # ascending: the last wins
    w = (5 ** n).bit_length()  # one of five choices per crossing
    frontier: list[int] = []
    states = {(): 1}
    for c in range(n):
        new = [r for r in dict.fromkeys(region_of[4 * c : 4 * c + 4]) if r not in frontier]
        fresh = tuple(range(len(frontier), len(frontier) + len(new)))
        frontier += new
        corners = [(frontier.index(region_of[e]), frontier.index(region_of[e ^ 2]))
                   for e in range(4 * c, 4 * c + 4)]
        keep = [i for i, r in enumerate(frontier) if last_chance[r] > c]
        # position now -> position after c, and -1 (also the last entry) -> -1
        renumber = [keep.index(i) if i in keep else -1 for i in range(len(frontier) + 1)]
        grown: dict[tuple[int, ...], int] = {}
        for state, poly in states.items():
            end = state + fresh
            kept = [end[i] for i in keep]
            key = tuple(map(renumber.__getitem__, kept))
            grown[key] = grown.get(key, 0) + poly
            for i, j in corners:
                if end[i] == i and end[j] != i:
                    redirected = renumber.copy()
                    redirected[i] = renumber[end[j]]
                    key = tuple(map(redirected.__getitem__, kept))
                    grown[key] = grown.get(key, 0) + (poly << w)
        states = grown
        frontier = [frontier[i] for i in keep]
    return [states[()] >> k * w & (1 << w) - 1 for k in range(n + 1)]


def _maximal_stream(
    d: Diagram, skip: bool = False, admissible: bool = False, acyclic: bool = False
) -> Iterator[Matching]:
    """Maximal matchings in DFS order, crossings decided in id order.

    Each crossing tries its corner edges ascending; with skip it may then be
    left unmatched, which a maximal matching allows only once all four of its
    regions are matched by other crossings, so branches where such a region
    can no longer be matched are pruned.  Without skip every crossing is
    matched and the stream is the perfect states.  admissible keeps a region
    of each colour unmatched and acyclic prunes every edge that closes a
    monochromatic loop; both only ever cut subtrees whose leaves all fail.
    """
    n = d.n_crossings
    region_of = d.edge_region
    last_chance = {region_of[e]: e // 4 for e in range(d.n_edges)}  # ascending: the last wins
    totals = {BLACK: len(d.black_faces), WHITE: len(d.white_faces)}
    matched = {BLACK: 0, WHITE: 0}
    acc: list[int] = []
    skipped: list[int] = []
    arrow: dict[int, int] = {}  # matched region -> its next region

    def feasible(c_done: int) -> bool:
        return all(
            r in arrow or last_chance[r] > c_done
            for u in skipped
            for r in region_of[4 * u : 4 * u + 4]
        )

    def rec(c: int) -> Iterator[Matching]:
        if c == n:
            yield Matching(tuple(acc))
            return
        for e in range(4 * c, 4 * c + 4):
            r = region_of[e]
            if r in arrow:
                continue
            col = d.face_colour[r]
            if admissible and matched[col] + 1 == totals[col]:
                # Filling the last region of a colour can never be undone.
                continue
            if acyclic and _closes_loop(arrow, r, region_of[e ^ 2]):
                continue
            acc.append(e)
            arrow[r] = region_of[e ^ 2]
            matched[col] += 1
            if not skipped or feasible(c):
                yield from rec(c + 1)
            acc.pop()
            del arrow[r]
            matched[col] -= 1
        if skip:
            skipped.append(c)
            if feasible(c):
                yield from rec(c + 1)
            skipped.pop()

    yield from rec(0)


def kauffman_states(d: Diagram, v_b: int, v_w: int) -> tuple[Matching, ...]:
    """All perfect states whose unmatched regions are exactly {v_b, v_w}.

    The pair need not be adjacent; for adjacent pairs these are the Kauffman
    states of the marked diagram, and every one of them is a dMf.
    """
    if not _is_region(d, v_b, BLACK):
        raise ValueError("vertex %d is not a black region" % v_b)
    if not _is_region(d, v_w, WHITE):
        raise ValueError("vertex %d is not a white region" % v_w)
    pair = {v_b, v_w}
    return tuple(x for x in _maximal_stream(d, admissible=True)
                 if pair.isdisjoint(d.edge_region[e] for e in x.edges))


# ---------------------------------------------------------------------------
# Jordan resolutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JordanResolution:
    """Smoothing of all matched crossings; unmatched ones stay double points.

    resolved lists (crossing, parity) where parity p means arc-end slots
    {p, p+1} and {p+2, p+3} are joined.  A dot in corner k separates the two
    strands bounding that corner, so the dotted region flows through the
    crossing: p = (k + 1) mod 2.  Diagonally opposite dotted corners smooth
    identically.  components partitions the arcs into strands, each a sorted
    tuple of arc ids, in order of their least arc; count is their number.
    """

    resolved: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.components)


def jordan_resolution(d: Diagram, x: Matching) -> JordanResolution:
    """Resolve the matched crossings and search the arcs for strands.

    join[i] is the dart that dart i = 4c + s leads to: at a double point
    slot s + 1 mod 4, so that its four darts form one cycle, as in the
    template d.next_dart that join copies; at a smoothing the dart it is
    joined with, slot s ^ 1 when e is odd (p = 0) and s ^ 3 when e is even
    (p = 1, {1, 2} and {3, 0}).  A search over arcs, following the two darts
    of each arc it reaches, from each unlabelled arc in ascending order finds
    the strands in order of their least arc.  Raises ValueError on an invalid
    matching, through _checked on the corner table.
    """
    _checked(d.edge_region, x.edges)
    dart_arc, arc_darts = d.dart_arc, d.arc_darts
    join = list(d.next_dart)
    resolved: list[tuple[int, int]] = []
    for e in x.edges:
        i = e & ~3
        if e & 1:
            join[i : i + 4] = (i + 1, i, i + 3, i + 2)
            resolved.append((e >> 2, 0))
        else:
            join[i : i + 4] = (i + 3, i + 2, i + 1, i)
            resolved.append((e >> 2, 1))
    resolved.sort()  # Matching does not enforce ascending edges

    seen = [False] * d.n_arcs
    components: list[tuple[int, ...]] = []
    for a0 in range(d.n_arcs):
        if seen[a0]:
            continue
        seen[a0] = True
        arcs = [a0]
        for a in arcs:  # grows as the search goes
            i, j = arc_darts[a]
            b = dart_arc[join[i]]
            if not seen[b]:
                seen[b] = True
                arcs.append(b)
            b = dart_arc[join[j]]
            if not seen[b]:
                seen[b] = True
                arcs.append(b)
        arcs.sort()
        components.append(tuple(arcs))
    return JordanResolution(resolved=tuple(resolved), components=tuple(components))


# ---------------------------------------------------------------------------
# Forest pairs and the KPW construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForestPair:
    """Rooted orthogonal forests, one per colour graph, edges = crossing ids."""

    black_edges: tuple[int, ...]
    white_edges: tuple[int, ...]
    black_roots: tuple[int, ...]
    white_roots: tuple[int, ...]


def induced_forests(d: Diagram, x: Matching) -> ForestPair:
    """The rooted forest pair of an acyclic matching.

    Each crossing matched into a colour contributes its colour-graph edge.
    The region map is the forests' parent pointers (a region matched by edge
    e hangs below edge_region[e ^ 2]), so the roots are the unmatched regions
    of each colour, isolated ones rooting themselves: with no loop, every
    walk up the map ends at one.  Raises NotAcyclic on a supported loop and
    NotAdmissible when some colour has no unmatched region.
    """
    out, parent = _node_map(d, x)
    if next(_loop_closings(parent), None) is not None:
        raise NotAcyclic("matching supports %d monochromatic loop(s)"
                         % len(_loops_of(out, parent)))
    colour_of = d.face_colour
    edges: tuple[list[int], list[int]] = ([], [])  # crossings by colour, WHITE = 0
    for r, e in out.items():
        edges[colour_of[r]].append(e >> 2)
    black_roots = tuple(f for f in d.black_faces if f not in parent)
    white_roots = tuple(f for f in d.white_faces if f not in parent)
    if not black_roots or not white_roots:
        raise NotAdmissible("no unmatched region in some colour")
    return ForestPair(
        black_edges=tuple(sorted(edges[BLACK])),
        white_edges=tuple(sorted(edges[WHITE])),
        black_roots=black_roots,
        white_roots=white_roots,
    )


def forests_to_matching(d: Diagram, f: ForestPair) -> Matching:
    """Invert induced_forests: orient away from roots, match edges to targets.

    Each forest edge's corner edge and ends come from its colour graph, and
    the adjacency carries the corner edge at the far end, so the crossing is
    matched to the child region without a second lookup.
    """
    shared = set(f.black_edges) & set(f.white_edges)
    if shared:
        raise InvalidForest("crossings %s appear in both colours" % sorted(shared))
    n = d.n_crossings
    edges: list[int] = []
    white, black = d.plane_graphs
    for g, forest, roots in ((black, f.black_edges, f.black_roots),
                             (white, f.white_edges, f.white_roots)):
        if len(set(forest)) != len(forest):
            raise InvalidForest("repeated edge in forest")
        faces, corners, ends = g.vertices, g.corners, g.edge_ends
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in faces}
        uf = UnionFind(d.n_faces)
        for c in forest:
            if not 0 <= c < n:
                raise InvalidForest("edge id %d out of range" % c)
            u, v = ends[c]
            if not uf.union(u, v):
                raise InvalidForest("edge %d closes a cycle" % c)
            e = corners[c]
            adj[u].append((v, e ^ 2))
            adj[v].append((u, e))
        n_comps = len(faces) - len(forest)
        if len(roots) != n_comps:
            raise InvalidForest("%d roots for %d components" % (len(roots), n_comps))
        for r in roots:
            if r not in adj:
                raise InvalidForest("root %d is not a %s region" % (r, COLOUR_NAME[g.colour]))
        # Orient away from each root; a forest edge's crossing is matched to
        # the child endpoint through its corner edge there.
        seen = set(roots)
        stack = list(roots)
        while stack:
            for w, e in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    edges.append(e)
                    stack.append(w)
        if len(seen) != len(faces):  # some component has no root
            raise InvalidForest("roots must pick one vertex per component")
    edges.sort()
    x = Matching(tuple(edges))
    _checked(d.edge_region, x.edges)
    return x


def kpw(d: Diagram, T: Iterable[int], v_b: int, v_w: int) -> Matching:
    """Spanning tree of the black graph + roots -> a perfect dMf.

    T is rooted at v_b, the complementary spanning tree of the white graph at
    v_w, both oriented away from their roots, and every crossing is matched to
    its edge's target region.  Raises NotSpanning when T is not a spanning
    tree of the black graph.
    """
    tree = tuple(sorted(T))
    in_tree = set(tree)
    if len(in_tree) != len(tree) or any(not 0 <= c < d.n_crossings for c in tree):
        raise NotSpanning("edge list is not a set of crossing ids")
    n_black = len(d.black_faces)
    if len(tree) != n_black - 1:
        raise NotSpanning(
            "spanning tree of the black graph needs %d edges, got %d" % (n_black - 1, len(tree))
        )
    uf = UnionFind(d.n_faces)
    ends = d.plane_graphs[BLACK].edge_ends
    for c in tree:
        if not uf.union(*ends[c]):
            raise NotSpanning("edge %d closes a cycle in the black graph" % c)
    if not _is_region(d, v_b, BLACK):
        raise ValueError("root %d is not a black region" % v_b)
    if not _is_region(d, v_w, WHITE):
        raise ValueError("root %d is not a white region" % v_w)
    cotree = tuple(c for c in range(d.n_crossings) if c not in in_tree)
    pair = ForestPair(
        black_edges=tree,
        white_edges=cotree,
        black_roots=(v_b,),
        white_roots=(v_w,),
    )
    return forests_to_matching(d, pair)

"""Partial Kauffman states: matchings on the Tait overlay graph.

A partial Kauffman state pairs some subset of the crossings injectively with
adjacent regions; on the overlay graph this is exactly a matching (edge set
meeting every vertex at most once, every overlay edge joining a crossing to a
region).  This module decides the properties that drive everything else:

perfect      every crossing is matched (equivalently: maximal as a pKs).
admissible   at least one region of each colour is left unmatched.
acyclic      the matching supports no monochromatic loop; acyclic matchings
             are the discrete Morse functions (dMfs) of the projection.

A monochromatic loop is a cycle in the overlay through regions of one colour
only, alternating matched and unmatched edges with the matched ones in x.
Corners k and k + 2 of a crossing share a colour, so the loop leaves crossing
e // 4 along edge e ^ 2, and the loops are the cycles of one map over both
colours: each matched region r, matched by edge e, steps to region
edge_region[e ^ 2].  monochromatic_loops walks that map from every matched
region; a walk ends when it leaves the matched regions, reaches a region an
earlier walk finished, or meets its own path, which closes a loop.  The
acyclic streams keep the same map incrementally: a loop-free matching has no
cycle in it, so a loop in matching + e must pass through e's region r, and
the search prunes e iff the walk from edge_region[e ^ 2] comes back to r (at
once when the two coincide, the kink's loop of length one).  The test
"matched crossings form a forest in each colour graph" would prune the same
branches, but it is the forest theorem that count_all_dmfs rests on, so the
enumeration deliberately does not use it: the brute-force count stays an
independent check of the closed formula.

The Jordan resolution smooths every matched crossing (the two arc-ends beside
the dotted corner are joined, and the opposite two), keeps unmatched crossings
as double points, and partitions the arcs into strand components by union-find
over arc ends.  Acyclic matchings induce a rooted forest in each colour graph
(edge per crossing matched into that colour, root = the unique unmatched
region of each component); that forest pair determines the matching, which is
the bijection behind the KPW construction of perfect states from spanning
trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .diagram import BLACK, WHITE, Diagram, TaitGraph, UnionFind
from .errors import InvalidForest, InvariantViolation, NotAcyclic, NotAdmissible, NotSpanning

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
    "find_nonextendable",
    "loop_sides",
    "matched_crossings",
    "matched_regions",
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

    @classmethod
    def from_edges(cls, edges: Iterable[int]) -> "Matching":
        es = tuple(sorted(edges))
        if any(es[i] == es[i + 1] for i in range(len(es) - 1)):
            raise ValueError("duplicate edge ids in matching")
        return cls(edges=es)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[int]:
        return iter(self.edges)

    def __contains__(self, e: int) -> bool:
        return e in self.edges

    def to_dict(self) -> dict:
        return {"edges": list(self.edges)}


def _validate(t: TaitGraph, x: Matching) -> None:
    crossings: set[int] = set()
    regions: set[int] = set()
    for e in x.edges:
        if not 0 <= e < t.n_edges:
            raise ValueError("edge id %d out of range" % e)
        c, r = e // 4, t.edge_region[e]
        if c in crossings:
            raise ValueError("crossing %d matched twice" % c)
        if r in regions:
            raise ValueError("region %d matched twice" % r)
        crossings.add(c)
        regions.add(r)


def matched_crossings(t: TaitGraph, x: Matching) -> dict[int, int]:
    """Crossing -> its matched edge."""
    return {e // 4: e for e in x.edges}


def matched_regions(t: TaitGraph, x: Matching) -> dict[int, int]:
    """Region -> its matched edge."""
    return {t.edge_region[e]: e for e in x.edges}


def is_perfect(t: TaitGraph, x: Matching) -> bool:
    return len(x.edges) == t.n_crossings


def is_maximal(t: TaitGraph, x: Matching) -> bool:
    """No overlay edge can be added (perfect states included)."""
    free_r = set(range(t.n_faces)) - set(matched_regions(t, x))
    free_c = set(range(t.n_crossings)) - set(matched_crossings(t, x))
    return not any(
        t.edge_region[4 * c + k] in free_r for c in free_c for k in range(4)
    )


def is_admissible(t: TaitGraph, x: Matching) -> bool:
    mr = matched_regions(t, x)
    return any(f not in mr for f in t.black_faces) and any(
        f not in mr for f in t.white_faces
    )


def critical_cells(t: TaitGraph, x: Matching) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Unmatched (black regions, crossings, white regions), each sorted."""
    _validate(t, x)
    mr = matched_regions(t, x)
    mc = matched_crossings(t, x)
    black = tuple(f for f in t.black_faces if f not in mr)
    white = tuple(f for f in t.white_faces if f not in mr)
    crossings = tuple(c for c in range(t.n_crossings) if c not in mc)
    return black, crossings, white


def matching_to_dict(t: TaitGraph, x: Matching) -> dict:
    black, crossings, white = critical_cells(t, x)
    return {
        "edges": list(x.edges),
        "perfect": is_perfect(t, x),
        "maximal": is_maximal(t, x),
        "admissible": is_admissible(t, x),
        "acyclic": is_dmf(t, x),
        "critical": {"black": list(black), "crossings": list(crossings), "white": list(white)},
    }


# ---------------------------------------------------------------------------
# Monochromatic loops and the dMf condition
# ---------------------------------------------------------------------------

def _canonical_cycle(seq: list[int]) -> tuple[int, ...]:
    # Rotate so the smallest edge id comes first; traversal direction is
    # already fixed by the region map.
    i = seq.index(min(seq))
    return tuple(seq[i:] + seq[:i])


def monochromatic_loops(t: TaitGraph, x: Matching) -> tuple[tuple[int, ...], ...]:
    """All supported loops, each a cyclic edge sequence, canonicalized."""
    _validate(t, x)
    region_of = t.edge_region
    out = {region_of[e]: e for e in x.edges}
    walk_of: dict[int, int] = {}  # region -> the start of the walk that met it
    loops: list[tuple[int, ...]] = []
    for start in out:
        r = start
        while r in out and r not in walk_of:
            walk_of[r] = start
            r = region_of[out[r] ^ 2]
        if walk_of.get(r) == start:
            # The walk met its own path: the loop runs from r back to r.
            seq: list[int] = []
            q = r
            while not seq or q != r:
                seq += (out[q], out[q] ^ 2)
                q = region_of[out[q] ^ 2]
            loops.append(_canonical_cycle(seq))
    return tuple(sorted(loops))


def amended_poset_acyclic(t: TaitGraph, x: Matching) -> bool:
    """Acyclicity of the full poset arrow graph with matched arrows reversed.

    Base arrows run white region -> crossing -> black region; each matched
    edge reverses its arrow.  Used as an independent cross-check of the loop
    criterion.
    """
    n_nodes = t.n_faces + t.n_crossings
    succ: list[list[int]] = [[] for _ in range(n_nodes)]
    indeg = [0] * n_nodes
    in_x = set(x.edges)
    for e in range(t.n_edges):
        cv = t.n_faces + e // 4
        r = t.edge_region[e]
        if t.face_colour[r] == WHITE:
            src, dst = (cv, r) if e in in_x else (r, cv)
        else:
            src, dst = (r, cv) if e in in_x else (cv, r)
        succ[src].append(dst)
        indeg[dst] += 1
    queue = [v for v in range(n_nodes) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == n_nodes


def is_dmf(t: TaitGraph, x: Matching, debug: bool = False) -> bool:
    """True iff x supports no monochromatic loop (the dMf condition)."""
    ok = len(monochromatic_loops(t, x)) == 0
    if debug and ok != amended_poset_acyclic(t, x):
        raise InvariantViolation(
            "loop criterion and poset-graph criterion disagree on %s" % (x.edges,)
        )
    return ok


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumerate_matchings(t: TaitGraph, filter: str = "all") -> Iterator[Matching]:
    """Stream all matchings passing the filter, in lexicographic edge order.

    Filters: all | maximal_pks (= perfect) | perfect_admissible | dmf
    (acyclic, any size) | perfect_dmf.
    """
    if filter not in FILTERS:
        raise ValueError("unknown filter %r (expected one of %s)" % (filter, ", ".join(FILTERS)))
    if filter in ("all", "dmf"):
        yield from _subset_stream(t, acyclic=(filter == "dmf"))
    else:
        yield from _maximal_stream(
            t,
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


def _subset_stream(t: TaitGraph, acyclic: bool) -> Iterator[Matching]:
    region_of = t.edge_region
    acc: list[int] = []
    used_c: set[int] = set()
    arrow: dict[int, int] = {}  # matched region -> its next region

    def rec(start: int) -> Iterator[Matching]:
        yield Matching(tuple(acc))
        for e in range(start, t.n_edges):
            c, r = e // 4, region_of[e]
            if c in used_c or r in arrow:
                continue
            if acyclic and _closes_loop(arrow, r, region_of[e ^ 2]):
                # Supersets keep every supported loop; prune the subtree.
                continue
            acc.append(e)
            used_c.add(c)
            arrow[r] = region_of[e ^ 2]
            yield from rec(e + 1)
            acc.pop()
            used_c.discard(c)
            del arrow[r]

    yield from rec(0)


def _maximal_stream(
    t: TaitGraph, skip: bool = False, admissible: bool = False, acyclic: bool = False
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
    n = t.n_crossings
    region_of = t.edge_region
    last_chance = {region_of[e]: e // 4 for e in range(t.n_edges)}  # ascending: the last wins
    totals = {BLACK: len(t.black_faces), WHITE: len(t.white_faces)}
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
            col = t.face_colour[r]
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


def kauffman_states(t: TaitGraph, v_b: int, v_w: int) -> tuple[Matching, ...]:
    """All perfect states whose unmatched regions are exactly {v_b, v_w}.

    The pair need not be adjacent; for adjacent pairs these are the Kauffman
    states of the marked diagram, and every one of them is a dMf.
    """
    if t.face_colour[v_b] != BLACK:
        raise ValueError("vertex %d is not a black region" % v_b)
    if t.face_colour[v_w] != WHITE:
        raise ValueError("vertex %d is not a white region" % v_w)
    out = []
    for x in _maximal_stream(t, admissible=True):
        mr = matched_regions(t, x)
        if v_b not in mr and v_w not in mr:
            out.append(x)
    return tuple(out)


def find_nonextendable(t: TaitGraph) -> Iterator[Matching]:
    """All maximal matchings that are not perfect, lazily, in the DFS order of
    the maximal stream: crossings in id order, edges ascending, unmatched last.
    """
    yield from (x for x in _maximal_stream(t, skip=True) if len(x) < t.n_crossings)


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
    identically.  components
    partitions the arcs into strands; cycles[i] is the cyclic arc-end walk of
    component i when it carries no double point, else None.
    """

    resolved: tuple[tuple[int, int], ...]
    double_points: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    component_double_points: tuple[tuple[int, ...], ...]
    cycles: tuple[tuple[tuple[int, int], ...] | None, ...]

    @property
    def count(self) -> int:
        return len(self.components)

    @property
    def connected(self) -> bool:
        return len(self.components) == 1

    def to_dict(self) -> dict:
        return {
            "resolved": [list(p) for p in self.resolved],
            "double_points": list(self.double_points),
            "count": self.count,
            "components": [
                {
                    "arcs": list(self.components[i]),
                    "double_points": list(self.component_double_points[i]),
                    "cycle": None
                    if self.cycles[i] is None
                    else [list(d) for d in self.cycles[i]],
                }
                for i in range(self.count)
            ],
        }


def jordan_resolution(d: Diagram, x: Matching) -> JordanResolution:
    """Resolve matched crossings, union-find the arc ends into strands."""
    n = d.n_crossings
    darts = [(c, s) for c in range(n) for s in range(4)]
    uf = UnionFind(darts)
    for d1, d2 in d.arc_ends:
        uf.union(d1, d2)

    resolved: list[tuple[int, int]] = []
    matched = {}
    for e in sorted(x.edges):
        matched[e // 4] = e
    join: dict[tuple[int, int], tuple[int, int]] = {}
    for c in range(n):
        if c in matched:
            p = (matched[c] % 4 + 1) % 2
            pairs = (((c, p), (c, (p + 1) % 4)), ((c, (p + 2) % 4), (c, (p + 3) % 4)))
            for da, db in pairs:
                uf.union(da, db)
                join[da], join[db] = db, da
            resolved.append((c, p))
    double_points = tuple(c for c in range(n) if c not in matched)
    for c in double_points:
        for s in range(1, 4):
            uf.union((c, 0), (c, s))

    comp_arcs: dict[tuple[int, int], list[int]] = {}
    for a in range(d.n_arcs):
        comp_arcs.setdefault(uf.find(d.arc_ends[a][0]), []).append(a)
    comp_doubles: dict[tuple[int, int], list[int]] = {k: [] for k in comp_arcs}
    for c in double_points:
        comp_doubles[uf.find((c, 0))].append(c)

    keys = sorted(comp_arcs, key=lambda k: comp_arcs[k][0])
    components = tuple(tuple(sorted(comp_arcs[k])) for k in keys)
    component_double_points = tuple(tuple(sorted(comp_doubles[k])) for k in keys)

    cycles: list[tuple[tuple[int, int], ...] | None] = []
    for i, k in enumerate(keys):
        if component_double_points[i]:
            cycles.append(None)
            continue
        # Walk the closed strand: through an arc, then across a smoothing.
        d0 = min(min(d.arc_ends[a]) for a in components[i])
        walk: list[tuple[int, int]] = []
        cur = d0
        while True:
            walk.append(cur)
            other = d.mate[cur]
            walk.append(other)
            cur = join[other]
            if cur == d0:
                break
        cycles.append(tuple(walk))
    return JordanResolution(
        resolved=tuple(resolved),
        double_points=double_points,
        components=components,
        component_double_points=component_double_points,
        cycles=tuple(cycles),
    )


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

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(sorted(self.black_roots + self.white_roots))

    def to_dict(self) -> dict:
        return {
            "black": {"edges": list(self.black_edges), "roots": list(self.black_roots)},
            "white": {"edges": list(self.white_edges), "roots": list(self.white_roots)},
        }


def _colour_edge_ends(t: TaitGraph, c: int, colour: int) -> tuple[int, int]:
    k0, k2 = t.corner_pair(c, colour)
    return t.edge_region[4 * c + k0], t.edge_region[4 * c + k2]


def induced_forests(t: TaitGraph, x: Matching) -> ForestPair:
    """The rooted forest pair of an acyclic matching.

    Each crossing matched into a colour contributes its colour-graph edge;
    each component's unique unmatched region is its root (isolated regions
    root themselves).  Raises NotAcyclic on a supported loop, NotAdmissible
    when some colour has no unmatched region.
    """
    _validate(t, x)
    loops = monochromatic_loops(t, x)
    if loops:
        raise NotAcyclic("matching supports %d monochromatic loop(s)" % len(loops))
    if not is_admissible(t, x):
        raise NotAdmissible("no unmatched region in some colour")
    mr = matched_regions(t, x)
    out: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for colour, faces in ((BLACK, t.black_faces), (WHITE, t.white_faces)):
        edges = tuple(
            sorted(e // 4 for e in x.edges if t.edge_colour(e) == colour)
        )
        uf = UnionFind(faces)
        for c in edges:
            u, v = _colour_edge_ends(t, c, colour)
            uf.union(u, v)
        comp_unmatched: dict[int, list[int]] = {}
        for f in faces:
            unmatched = comp_unmatched.setdefault(uf.find(f), [])
            if f not in mr:
                unmatched.append(f)
        roots = []
        for comp, unmatched in sorted(comp_unmatched.items()):
            if len(unmatched) != 1:
                raise InvariantViolation(
                    "component of an acyclic matching must have one unmatched region, got %s"
                    % (unmatched,)
                )
            roots.append(unmatched[0])
        out[colour] = (edges, tuple(sorted(roots)))
    return ForestPair(
        black_edges=out[BLACK][0],
        white_edges=out[WHITE][0],
        black_roots=out[BLACK][1],
        white_roots=out[WHITE][1],
    )


def forests_to_matching(t: TaitGraph, f: ForestPair) -> Matching:
    """Invert induced_forests: orient away from roots, match edges to targets."""
    if set(f.black_edges) & set(f.white_edges):
        raise InvalidForest(
            "crossings %s appear in both colours" % sorted(set(f.black_edges) & set(f.white_edges))
        )
    edges: list[int] = []
    for colour, forest, roots, faces in (
        (BLACK, f.black_edges, f.black_roots, t.black_faces),
        (WHITE, f.white_edges, f.white_roots, t.white_faces),
    ):
        if len(set(forest)) != len(forest):
            raise InvalidForest("repeated edge in forest")
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in faces}
        uf = UnionFind(faces)
        for c in forest:
            if not 0 <= c < t.n_crossings:
                raise InvalidForest("edge id %d out of range" % c)
            u, v = _colour_edge_ends(t, c, colour)
            if not uf.union(u, v):
                raise InvalidForest("edge %d closes a cycle" % c)
            adj[u].append((c, v))
            adj[v].append((c, u))
        comps = {uf.find(v) for v in faces}
        if len(roots) != len(comps):
            raise InvalidForest(
                "%d roots for %d components" % (len(roots), len(comps))
            )
        by_comp: dict[int, list[int]] = {}
        for r in roots:
            if r not in adj:
                raise InvalidForest("root %d is not a %s region" % (r, "black" if colour == BLACK else "white"))
            by_comp.setdefault(uf.find(r), []).append(r)
        if any(len(rs) != 1 for rs in by_comp.values()) or len(by_comp) != len(comps):
            raise InvalidForest("roots must pick one vertex per component")
        # Orient away from each root; a forest edge's crossing is matched to
        # the child endpoint through its corner edge there.
        seen = set(roots)
        stack = list(roots)
        while stack:
            v = stack.pop()
            for c, w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    edges.append(t.edge_to_region(c, w, colour))
                    stack.append(w)
    x = Matching.from_edges(edges)
    _validate(t, x)
    return x


def kpw(t: TaitGraph, T: Iterable[int], v_b: int, v_w: int) -> Matching:
    """Spanning tree of the black graph + roots -> a perfect dMf.

    T is rooted at v_b, the complementary spanning tree of the white graph at
    v_w, both oriented away from their roots, and every crossing is matched to
    its edge's target region.  Raises NotSpanning when T is not a spanning
    tree of the black graph.
    """
    tree = tuple(sorted(T))
    if len(set(tree)) != len(tree) or any(not 0 <= c < t.n_crossings for c in tree):
        raise NotSpanning("edge list is not a set of crossing ids")
    n_black = len(t.black_faces)
    if len(tree) != n_black - 1:
        raise NotSpanning(
            "spanning tree of the black graph needs %d edges, got %d" % (n_black - 1, len(tree))
        )
    uf = UnionFind(t.black_faces)
    for c in tree:
        if not uf.union(*_colour_edge_ends(t, c, BLACK)):
            raise NotSpanning("edge %d closes a cycle in the black graph" % c)
    if t.face_colour[v_b] != BLACK:
        raise ValueError("root %d is not a black region" % v_b)
    if t.face_colour[v_w] != WHITE:
        raise ValueError("root %d is not a white region" % v_w)
    cotree = tuple(c for c in range(t.n_crossings) if c not in set(tree))
    pair = ForestPair(
        black_edges=tree,
        white_edges=cotree,
        black_roots=(v_b,),
        white_roots=(v_w,),
    )
    return forests_to_matching(t, pair)


# ---------------------------------------------------------------------------
# Loop complement sides
# ---------------------------------------------------------------------------

def loop_sides(t: TaitGraph, loop: tuple[int, ...]) -> tuple[frozenset[int], frozenset[int]]:
    """Vertices strictly on either side of a supported loop.

    The overlay's faces are the arc squares; removing the loop's edges from
    the square adjacency splits it into exactly two components, and every
    vertex not on the loop lies in squares of a single side.  Vertices are
    region ids and crossing vertex ids (n_faces + c).
    """
    edge_squares: dict[int, list[int]] = {e: [] for e in range(t.n_edges)}
    for sq in t.squares:
        for e in sq.edges:
            edge_squares[e].append(sq.arc)
    loop_set = set(loop)
    uf = UnionFind(range(len(t.squares)))
    for e, sqs in edge_squares.items():
        if e in loop_set:
            continue
        for other in sqs[1:]:
            uf.union(sqs[0], other)
    comps: dict[int, set[int]] = {}
    for sq in t.squares:
        comps.setdefault(uf.find(sq.arc), set()).add(sq.arc)
    if len(comps) != 2:
        raise InvariantViolation(
            "a loop must split the square adjacency in two, got %d parts" % len(comps)
        )
    on_loop = {t.edge_region[e] for e in loop_set} | {
        t.crossing_vertex(e // 4) for e in loop_set
    }
    sides = []
    for key in sorted(comps, key=lambda k: min(comps[k])):
        verts: set[int] = set()
        for a in comps[key]:
            sq = t.squares[a]
            verts.update(sq.regions)
            verts.update(t.crossing_vertex(c) for c in sq.crossings)
        sides.append(frozenset(verts - on_loop))
    if sides[0] & sides[1]:
        raise InvariantViolation("square sides must not share off-loop vertices")
    return sides[0], sides[1]

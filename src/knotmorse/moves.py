"""Clock, click-loop, click-path, and leaf-spin moves, and move graphs.

A clock move acts at a square face of the overlay whose two opposite edges of
one pattern are both matched: those leave the matching and the other opposite
pair enters.  The move is classified by its effect on the Jordan resolution:
Type III changes the strand count (by +-2 on a perfect matching); when the
count is unchanged, the two local strands rerouted at the square's crossings
either lie on one strand before the move (Type I) or on two distinct strands
(Type II).  The strand counts behind delta_j and the strands behind the Type
I/II test come from ``_strand_roots``, a union-find over arc ids that never
builds the resolution itself.  ``states.jordan_resolution``, which resolves
darts and walks every closed strand, is kept as its independent oracle: the
tests and the selftest clock check recount delta_j with it.

A click loop move toggles matched and unmatched edges along one supported
monochromatic loop; a click path move slides the unmatched region of one
colour along its tree component, re-matching every crossing on the path to
the other endpoint of its tree edge.  Neither changes the Jordan resolution.
A leaf spin acts on a subgraph of a colour graph, rotating a leaf edge around
its degree-one endpoint to the next eligible edge in the rotation system.

Move graphs collect a population of matchings as nodes and the moves staying
inside the population as undirected edges; connectivity of these graphs is
what the acceptance checks interrogate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .diagram import BLACK, WHITE, Diagram, PlaneGraph, TaitGraph, UnionFind
from .errors import (
    InvariantViolation,
    LeafOfAmbient,
    NotAcyclic,
    NotALeaf,
    NotPerfectAdmissible,
)
from .states import (
    Matching,
    _colour_edge_ends,
    _validate,
    critical_cells,
    enumerate_matchings,
    is_admissible,
    is_dmf,
    is_perfect,
    kauffman_states,
    matched_regions,
    monochromatic_loops,
)

__all__ = [
    "Move",
    "MoveGraph",
    "clock_moves",
    "click_loop_moves",
    "click_path_moves",
    "two_click_connect",
    "leaf_spin",
    "marked_arc_roots",
    "build_move_graph",
    "verify_connectivity",
    "shortest_move_sequence",
    "move_graph_to_dot",
    "move_graph_to_dict",
    "click_path_avoidance",
    "POPULATIONS",
    "MOVE_KINDS",
]

MOVE_KINDS = ("clock", "click_loop", "click_path")
POPULATIONS = ("kauffman", "perfect_dmfs", "perfect_admissible")

_COLOUR_NAME = {BLACK: "black", WHITE: "white"}


@dataclass(frozen=True)
class Move:
    """One move at one site.

    site is (arc,) for clock moves, the canonical loop for click loops,
    (colour name, path vertex sequence) for click paths, and (subgraph,
    leaf edge, direction) for leaf spins.  clock_type, delta_j and
    orientation are set on clock moves only.
    """

    kind: str
    site: tuple
    clock_type: str | None = None
    delta_j: int | None = None
    orientation: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "site": list(self.site)}
        if self.kind == "clock":
            out["clock_type"] = self.clock_type
            out["delta_j"] = self.delta_j
            out["orientation"] = self.orientation
        return out


# ---------------------------------------------------------------------------
# Clock moves
# ---------------------------------------------------------------------------

def _strand_roots(d: Diagram, x: Matching) -> tuple[Callable[[int], int], int]:
    """(root of an arc, strand count) of the Jordan resolution of x.

    The arc-level twin of jordan_resolution, exact for any matching: a
    matched crossing with corner k joins the arcs at slots {p, p+1} and
    {p+2, p+3}, p = (k + 1) % 2, and a double point joins all four.  Roots
    are looked up on demand, so a caller after the count alone pays nothing
    for them.
    """
    dart_arc = d.dart_arc
    uf = UnionFind(range(d.n_arcs))
    count = d.n_arcs
    double_points = set(range(d.n_crossings))
    for e in x.edges:
        c, p = e // 4, (e % 4 + 1) % 2
        double_points.discard(c)
        for s1, s2 in ((p, p + 1), (p + 2, (p + 3) % 4)):
            if uf.union(dart_arc[4 * c + s1], dart_arc[4 * c + s2]):
                count -= 1
    for c in double_points:
        for s in range(1, 4):
            if uf.union(dart_arc[4 * c], dart_arc[4 * c + s]):
                count -= 1
    return uf.find, count


def _rerouted_strand(d: Diagram, c: int, dot_corner: int, arc_slot: int) -> int:
    """The arc of the local strand not through the square's arc at crossing c.

    The dot at corner k smooths the crossing by joining slots {k+1, k+2} and
    {k+3, k}; the strand rerouted by the move is the one through the pair not
    containing the square arc's end.
    """
    pair_one = ((dot_corner + 1) % 4, (dot_corner + 2) % 4)
    slot = dot_corner if arc_slot in pair_one else (dot_corner + 1) % 4
    return d.dart_arc[4 * c + slot]


def clock_moves(t: TaitGraph, x: Matching) -> list[tuple[Move, Matching]]:
    """All clock moves available on x, each with the resulting matching.

    A move flips the smoothings of the square's two crossings.  Each flip
    changes |J| by at most one, and by exactly one when x is perfect.  So a
    move changes |J| by at most 2, and by 0 or +-2 when x is perfect; both
    are checked.
    """
    _validate(t, x)
    d = t.diagram
    in_x = set(x.edges)
    root: Callable[[int], int] | None = None
    before = 0
    out: list[tuple[Move, Matching]] = []
    for sq in t.squares:
        for pattern, other, orientation in (
            (sq.pattern_a, sq.pattern_b, "cw"),
            (sq.pattern_b, sq.pattern_a, "ccw"),
        ):
            if not set(pattern) <= in_x:
                continue
            if root is None:
                root, before = _strand_roots(d, x)
            y = Matching.from_edges((in_x - set(pattern)) | set(other))
            _validate(t, y)
            delta = _strand_roots(d, y)[1] - before
            if delta != 0:
                if abs(delta) > 2 or (delta not in (-2, 2) and is_perfect(t, x)):
                    raise InvariantViolation(
                        "clock move at arc %d changed |J| by %d" % (sq.arc, delta)
                    )
                ctype = "III"
            else:
                strands = []
                for e in pattern:
                    c = e // 4
                    (c1, s1), (c2, s2) = d.arc_ends[sq.arc]
                    arc_slot = s1 if c1 == c else s2
                    strands.append(_rerouted_strand(d, c, e % 4, arc_slot))
                ctype = "I" if root(strands[0]) == root(strands[1]) else "II"
            move = Move(
                kind="clock",
                site=(sq.arc,),
                clock_type=ctype,
                delta_j=delta,
                orientation=orientation,
            )
            out.append((move, y))
    return out


# ---------------------------------------------------------------------------
# Click moves
# ---------------------------------------------------------------------------

def click_loop_moves(t: TaitGraph, x: Matching) -> list[tuple[Move, Matching]]:
    """Toggle the matching along each supported monochromatic loop."""
    _validate(t, x)
    out = []
    for loop in monochromatic_loops(t, x):
        y = Matching.from_edges(set(x.edges) ^ set(loop))
        _validate(t, y)
        out.append((Move(kind="click_loop", site=tuple(loop)), y))
    return out


def _colour_adjacency(t: TaitGraph, x: Matching, colour: int) -> dict[int, list[tuple[int, int]]]:
    faces = t.black_faces if colour == BLACK else t.white_faces
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in faces}
    for e in x.edges:
        if t.edge_colour(e) == colour:
            c = e // 4
            u, v = _colour_edge_ends(t, c, colour)
            adj[u].append((c, v))
            adj[v].append((c, u))
    return adj


def _click_tree(t: TaitGraph, x: Matching, colour: int) -> tuple[dict[int, tuple[int, int] | None], list[int]]:
    """Breadth-first tree of the component of x's unmatched region of a colour.

    Returns the parent map (region -> (crossing, parent region), None at the
    root) and the regions in search order, root first.  Raises
    InvariantViolation unless exactly one region of the colour is unmatched
    and its component of the induced colour subgraph is a tree.
    """
    mr = matched_regions(t, x)
    faces = t.black_faces if colour == BLACK else t.white_faces
    unmatched = [f for f in faces if f not in mr]
    if len(unmatched) != 1:
        raise InvariantViolation(
            "a perfect admissible matching left %d unmatched %s regions"
            % (len(unmatched), _COLOUR_NAME[colour])
        )
    root = unmatched[0]
    adj = _colour_adjacency(t, x, colour)
    parent: dict[int, tuple[int, int] | None] = {root: None}
    order = [root]
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for c, w in adj[v]:
            if w not in parent:
                parent[w] = (c, v)
                order.append(w)
                queue.append(w)
    n_edges_inside = sum(len(adj[v]) for v in parent) // 2
    if n_edges_inside != len(parent) - 1:
        raise InvariantViolation(
            "the %s root component has %d vertices and %d edges, not a tree"
            % (_COLOUR_NAME[colour], len(parent), n_edges_inside)
        )
    return parent, order


def _click_step(t: TaitGraph, edges: set[int], u: int, colour: int, tree_edge: tuple[int, int]) -> None:
    """Re-match the crossing of u's tree edge from u toward its parent, in place."""
    c, p = tree_edge
    old = t.edge_to_region(c, u, colour)
    if old not in edges:
        raise InvariantViolation("path crossing %d is not matched toward region %d" % (c, u))
    edges.remove(old)
    edges.add(t.edge_to_region(c, p, colour))


def _click_move(t: TaitGraph, colour: int, path: tuple[int, ...], edges: set[int]) -> tuple[Move, Matching]:
    y = Matching.from_edges(edges)
    _validate(t, y)
    return Move(kind="click_path", site=(_COLOUR_NAME[colour], path)), y


def click_path_moves(t: TaitGraph, x: Matching) -> list[tuple[Move, Matching]]:
    """Slide the unmatched region of either colour along its tree component.

    A perfect admissible matching has exactly one unmatched region per colour
    and its component of the induced colour subgraph is the unique tree
    component; every other vertex of that tree is the target of exactly one
    move.  Raises NotPerfectAdmissible otherwise.
    """
    _validate(t, x)
    if not (is_perfect(t, x) and is_admissible(t, x)):
        raise NotPerfectAdmissible("click path moves need a perfect admissible matching")
    out: list[tuple[Move, Matching]] = []
    for colour in (BLACK, WHITE):
        parent, order = _click_tree(t, x, colour)
        # A target's path and edge set extend its parent's by one crossing,
        # re-matched from the target toward the parent.
        paths = {order[0]: (order[0],)}
        edge_sets = {order[0]: set(x.edges)}
        for u in order[1:]:
            p = parent[u][1]
            edges = set(edge_sets[p])
            _click_step(t, edges, u, colour, parent[u])
            edge_sets[u] = edges
            paths[u] = paths[p] + (u,)
            out.append(_click_move(t, colour, paths[u], edges))
    return out


def two_click_connect(
    t: TaitGraph, x: Matching, v_b: int, v_w: int
) -> tuple[tuple[Move, Matching], ...]:
    """Carry a perfect dMf to the one with critical regions (v_b, v_w).

    At most one black and one white click path move, black first; the white
    tree is untouched by the black move, so both paths exist.  Each move is
    the click_path_moves move to its target, built alone by walking the
    target's tree path up to the root.  Returns the (move, matching) steps;
    empty when the targets are already critical.
    """
    if t.face_colour[v_b] != BLACK:
        raise ValueError("target %d is not a black region" % v_b)
    if t.face_colour[v_w] != WHITE:
        raise ValueError("target %d is not a white region" % v_w)
    _validate(t, x)
    if not (is_perfect(t, x) and is_admissible(t, x)):
        raise NotPerfectAdmissible("need a perfect admissible matching")
    if not is_dmf(t, x):
        raise NotAcyclic("need an acyclic matching: every region must be reachable")
    steps: list[tuple[Move, Matching]] = []
    cur = x
    for colour, target in ((BLACK, v_b), (WHITE, v_w)):
        parent, order = _click_tree(t, cur, colour)
        if order[0] == target:
            continue
        if target not in parent:
            raise InvariantViolation("no click path reaches region %d" % target)
        edges = set(cur.edges)
        u = target
        path = [u]
        while parent[u] is not None:
            _click_step(t, edges, u, colour, parent[u])
            u = parent[u][1]
            path.append(u)
        steps.append(_click_move(t, colour, tuple(reversed(path)), edges))
        cur = steps[-1][1]
    cells = critical_cells(t, cur)
    if cells != ((v_b,), (), (v_w,)):
        raise InvariantViolation(
            "two clicks toward (%d, %d) ended at critical cells %s" % (v_b, v_w, cells)
        )
    return tuple(steps)


# ---------------------------------------------------------------------------
# Leaf spins
# ---------------------------------------------------------------------------

def leaf_spin(
    g: PlaneGraph,
    h: Iterable[int],
    leaf: int,
    direction: str,
    pivot: int | None = None,
) -> tuple[int, ...]:
    """Rotate a leaf edge of h around its degree-one endpoint.

    The replacement is the next edge in the rotation system at the pivot, in
    the given direction ("ccw" runs forward along the stored rotation, "cw"
    backward), skipping edges of h and ambient loop edges (a loop can never
    extend a forest).  When both endpoints have h-degree one the smaller
    vertex id is the pivot unless one is passed explicitly.
    """
    if direction not in ("cw", "ccw"):
        raise ValueError("direction must be 'cw' or 'ccw'")
    edges = frozenset(h)
    if leaf not in edges:
        raise NotALeaf("edge %d is not in the subgraph" % leaf)
    u, v = g.edge_ends[leaf]
    if u == v:
        raise NotALeaf("a loop edge is never a leaf")
    hdeg = {u: 0, v: 0}
    for e in edges:
        for w in g.edge_ends[e]:
            if w in hdeg:
                hdeg[w] += 1
    candidates = [w for w in sorted({u, v}) if hdeg[w] == 1]
    if pivot is not None:
        if pivot not in (u, v) or hdeg[pivot] != 1:
            raise NotALeaf("vertex %s is not a degree-one endpoint of edge %d" % (pivot, leaf))
    else:
        if not candidates:
            raise NotALeaf("edge %d has no degree-one endpoint" % leaf)
        pivot = candidates[0]
    rot = [c for c, _ in g.rotation_at[pivot]]
    hits = [i for i, e in enumerate(rot) if e == leaf]
    if len(hits) != 1:
        raise InvariantViolation(
            "edge %d appears %d times in the rotation at vertex %d" % (leaf, len(hits), pivot)
        )
    start = hits[0]
    step = 1 if direction == "ccw" else -1
    n = len(rot)
    for k in range(1, n):
        e = rot[(start + step * k) % n]
        if e == leaf or e in edges:
            continue
        eu, ev = g.edge_ends[e]
        if eu == ev:
            continue
        return tuple(sorted(edges - {leaf} | {e}))
    raise LeafOfAmbient("no edge to spin to at vertex %d" % pivot)


# ---------------------------------------------------------------------------
# Move graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MoveGraph:
    """Population of matchings plus the moves staying inside it."""

    diagram_id: str
    population: str
    kinds: tuple[str, ...]
    nodes: tuple[Matching, ...]
    edges: tuple[tuple[int, int, Move], ...]


def marked_arc_roots(t: TaitGraph, arc: int) -> tuple[int, int]:
    """The (black, white) regions flanking an arc, the roots its mark fixes."""
    d = t.diagram
    (c1, s1), _ = d.arc_ends[arc]
    left = d.face_at_corner[(c1, (s1 - 1) % 4)]
    right = d.face_at_corner[(c1, s1)]
    if t.face_colour[left] == BLACK:
        return left, right
    return right, left


def _dedupe_key(move: Move) -> tuple:
    if move.kind == "clock":
        return ("clock", move.site[0])
    if move.kind == "click_loop":
        return ("click_loop", frozenset(move.site))
    colour, path = move.site
    return ("click_path", colour, frozenset((path[0], path[-1])))


def build_move_graph(
    t: TaitGraph,
    population: str,
    kinds: Sequence[str] = MOVE_KINDS,
    v_b: int | None = None,
    v_w: int | None = None,
) -> MoveGraph:
    """Move graph over a population: kauffman (needs the marked pair v_b,
    v_w), perfect_dmfs, or perfect_admissible.  Edges are kept only when both
    endpoints belong to the population; each unordered pair of nodes keeps
    one edge per move site."""
    kinds = tuple(kinds)
    for k in kinds:
        if k not in MOVE_KINDS:
            raise ValueError("unknown move kind %r" % k)
    if population == "kauffman":
        if v_b is None or v_w is None:
            raise ValueError("the kauffman population needs v_b and v_w")
        nodes = kauffman_states(t, v_b, v_w)
    elif population == "perfect_dmfs":
        nodes = tuple(enumerate_matchings(t, "perfect_dmf"))
    elif population == "perfect_admissible":
        nodes = tuple(enumerate_matchings(t, "perfect_admissible"))
    else:
        raise ValueError(
            "unknown population %r (expected one of %s)" % (population, ", ".join(POPULATIONS))
        )
    index = {x: i for i, x in enumerate(nodes)}
    seen: dict[tuple, tuple[int, int, Move]] = {}
    for i, x in enumerate(nodes):
        found: list[tuple[Move, Matching]] = []
        if "clock" in kinds:
            found.extend(clock_moves(t, x))
        if "click_loop" in kinds:
            found.extend(click_loop_moves(t, x))
        if "click_path" in kinds:
            found.extend(click_path_moves(t, x))
        for move, y in found:
            j = index.get(y)
            if j is None:
                continue
            a, b = min(i, j), max(i, j)
            key = (a, b) + _dedupe_key(move)
            if key not in seen:
                seen[key] = (i, j, move)
    return MoveGraph(
        diagram_id=t.diagram.pd.to_text(),
        population=population,
        kinds=kinds,
        nodes=nodes,
        edges=tuple(seen[k] for k in sorted(seen, key=lambda k: (k[0], k[1], repr(k[2:])))),
    )


def _component_roots(mg: MoveGraph) -> list[int]:
    """One root per node; two nodes share a root iff moves connect them."""
    uf = UnionFind(range(len(mg.nodes)))
    for i, j, _ in mg.edges:
        uf.union(i, j)
    return [uf.find(i) for i in range(len(mg.nodes))]


def verify_connectivity(mg: MoveGraph) -> tuple[bool, int]:
    """(is connected, number of components); the empty graph counts as connected."""
    count = len(set(_component_roots(mg)))
    return count <= 1, count


def shortest_move_sequence(mg: MoveGraph, start: int, goal: int) -> tuple[Move, ...] | None:
    """Breadth-first shortest path between two node indices, for debugging."""
    if start == goal:
        return ()
    adj: dict[int, list[tuple[int, Move]]] = {i: [] for i in range(len(mg.nodes))}
    for i, j, move in mg.edges:
        adj[i].append((j, move))
        adj[j].append((i, move))
    prev: dict[int, tuple[int, Move]] = {start: (start, None)}  # type: ignore[dict-item]
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w, move in adj[v]:
            if w not in prev:
                prev[w] = (v, move)
                if w == goal:
                    seq = []
                    cur = w
                    while cur != start:
                        cur, mv = prev[cur]
                        seq.append(mv)
                    return tuple(reversed(seq))
                queue.append(w)
    return None


def click_path_avoidance(t: TaitGraph) -> dict:
    """Experimental record: how far clock and click loop moves alone go.

    Clock and click loop moves both fix the pair of unmatched regions, so the
    {clock, click_loop} graph over the perfect admissible states can only be
    connected when a single such pair occurs; the open part is whether each
    fixed-pair class is connected on its own, and that is reported per
    diagram as data, not asserted.
    """
    mg = build_move_graph(t, "perfect_admissible", kinds=("clock", "click_loop"))
    roots = _component_roots(mg)
    components = len(set(roots))
    classes: dict[tuple, set[int]] = {}
    for x, root in zip(mg.nodes, roots):
        black, _, white = critical_cells(t, x)
        classes.setdefault((black, white), set()).add(root)
    return {
        "population": "perfect_admissible",
        "kinds": ["clock", "click_loop"],
        "connected": components <= 1,
        "components": components,
        "critical_classes": len(classes),
        "each_critical_class_connected": all(len(v) == 1 for v in classes.values()),
    }


def move_graph_to_dict(mg: MoveGraph) -> dict:
    return {
        "diagram": mg.diagram_id,
        "population": mg.population,
        "kinds": list(mg.kinds),
        "nodes": [list(x.edges) for x in mg.nodes],
        "edges": [
            {"source": i, "target": j, "move": move.to_dict()} for i, j, move in mg.edges
        ],
    }


def move_graph_to_dot(mg: MoveGraph) -> str:
    lines = ["graph moves {"]
    lines.append('  label="%s | %s";' % (mg.population, mg.diagram_id))
    for i, x in enumerate(mg.nodes):
        lines.append('  n%d [label="%s"];' % (i, ",".join(map(str, x.edges))))
    for i, j, move in mg.edges:
        label = move.kind if move.kind != "clock" else "clock %s" % move.clock_type
        lines.append('  n%d -- n%d [label="%s"];' % (i, j, label))
    lines.append("}")
    return "\n".join(lines)

"""Clock, click-loop and click-path moves, and move graphs.

A clock move acts at a square face of the overlay whose two opposite edges of
one pattern are both matched: those leave the matching and the other opposite
pair enters.  The move is classified by its effect on the Jordan resolution:
Type III changes the strand count (by +-2 on a perfect matching); when the
count is unchanged, the two local strands rerouted at the square's crossings
either lie on one strand before the move (Type I) or on two distinct strands
(Type II).  The strand counts behind delta_j and the strands behind the Type
I/II test come from ``_strand_roots``, a list union-find over the arc pairs
cached in ``Diagram.arc_pairs`` that never builds the resolution.
``states.jordan_resolution``, which smooths darts, searches them for strands
and reads no such table, is kept as its independent oracle: the tests and
the selftest clock check recount delta_j with it.

A click loop move toggles matched and unmatched edges along one supported
monochromatic loop; a click path move slides the unmatched region of one
colour along its tree component, re-matching every crossing on the path
toward the root.  The trees are the region map that the loops are cycles of
(see states): a region matched by edge e hangs below edge_region[e ^ 2], and
a step toggles bits e and e ^ 2.  Neither move changes the Jordan resolution.

Move graphs collect a population of matchings as nodes and the moves staying
inside the population as undirected edges; connectivity of these graphs is
what the acceptance checks interrogate.  Each move kind is a generator of
(target edge mask, site) pairs, the mask being Matching.mask with the
flipped edges toggled, and _move makes the Move of any kind from its site
and ends.  The generators read one node map per matching: its mask, and
the region map of states._node_map, which validates the matching once and
gives region -> matched edge and region -> next region; moves builds no
region map of its own.  The clock generator also reads the squares' pattern
masks, cached on the Diagram.  The graph looks each target mask up in the
population before building anything and records an edge from its lower end
only: every move kind is involutive, so the higher end finds the same edge
back.  A graph holds each distinct move once: edges with equal moves share
one Move, which is why Move stays frozen.  The public move functions build
and validate every target instead, and two_click_connect applies the click
path targets that end at its regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Callable, Iterable, Iterator, Sequence

from .diagram import BLACK, WHITE, Diagram, UnionFind
from .errors import InvariantViolation, NotAcyclic, NotPerfectAdmissible
from .states import (
    Matching,
    _checked,
    _is_region,
    _loop_closings,
    _loops_of,
    _node_map,
    critical_cells,
    enumerate_matchings,
    kauffman_states,
)

__all__ = [
    "Move",
    "MoveGraph",
    "clock_moves",
    "click_loop_moves",
    "click_path_moves",
    "two_click_connect",
    "marked_arc_roots",
    "build_move_graph",
    "verify_connectivity",
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

    site is (arc,) for clock moves, the canonical loop for click loops, and
    (colour name, path vertex sequence) for click paths.  clock_type,
    delta_j and orientation are set on clock moves only.  A move graph
    holds each distinct move once, shared by every edge that makes it, so
    a Move must stay frozen: it compares by value, and no edge may change it.
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

    The arc-level twin of jordan_resolution, exact for any matching: it
    joins the arc pairs of d.arc_pairs, the two that each matched edge's
    smoothing joins and the three of each double point.  Roots are looked up
    on demand, so a caller after the count alone pays nothing for them.
    """
    smoothing, double_point = d.arc_pairs
    uf = UnionFind(d.n_arcs)
    smoothed, pairs = 0, []
    for e in x.edges:
        smoothed |= 1 << (e >> 2)
        pairs += smoothing[e]
    for c, point in enumerate(double_point):
        if not smoothed >> c & 1:
            pairs += point
    return uf.find, d.n_arcs - sum(starmap(uf.union, pairs))


def _rerouted_strand(d: Diagram, arc: int, e: int) -> int:
    """The arc of the local strand at edge e's crossing not through the arc.

    The dot at corner k smooths the crossing by joining slots {k+1, k+2} and
    {k+3, k}; the strand rerouted by the move is the one through the pair not
    containing the square arc's end.
    """
    c, k = e // 4, e % 4
    i, j = d.arc_darts[arc]
    arc_slot = (i if i >> 2 == c else j) & 3
    slot = k if arc_slot in ((k + 1) % 4, (k + 2) % 4) else (k + 1) % 4
    return d.dart_arc[4 * c + slot]


def _clock_targets(d: Diagram, node: tuple) -> Iterator[tuple[int, tuple]]:
    """(target mask, (square, pattern, orientation)) of each clock move."""
    mask = node[0]
    for sq, (a, b) in zip(d.squares, d.square_masks):
        # Each opposite pair of a square meets both of its crossings.
        if (mask & a) == a:
            yield mask ^ a ^ b, (sq, sq.edges[0::2], "cw")
        elif (mask & b) == b:
            yield mask ^ a ^ b, (sq, sq.edges[1::2], "ccw")


def clock_moves(d: Diagram, x: Matching) -> list[tuple[Move, Matching]]:
    """All clock moves available on x, each with the resulting matching."""
    return _built_moves(d, x, "clock", (x.mask,) + _node_map(d, x))


# ---------------------------------------------------------------------------
# Click moves
# ---------------------------------------------------------------------------

def _click_loop_targets(d: Diagram, node: tuple) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(target mask, loop) of each supported loop, as monochromatic_loops orders them."""
    mask, out, step = node
    for loop in _loops_of(out, step):
        yield mask ^ sum(1 << e for e in loop), loop


def click_loop_moves(d: Diagram, x: Matching) -> list[tuple[Move, Matching]]:
    """Toggle the matching along each supported monochromatic loop."""
    return _built_moves(d, x, "click_loop", (x.mask,) + _node_map(d, x))


def _perfect_admissible(d: Diagram, x: Matching, need: str) -> tuple:
    """(node map, unmatched black regions, unmatched white regions) of x, after
    validating it; NotPerfectAdmissible(need) unless x is perfect admissible."""
    out, step = _node_map(d, x)
    black, white = (tuple(f for f in faces if f not in out)
                    for faces in (d.black_faces, d.white_faces))
    if len(x.edges) != d.n_crossings or not (black and white):
        raise NotPerfectAdmissible(need)
    return (x.mask, out, step), black, white


def _click_forest(d: Diagram, node: tuple) -> list[list[int]]:
    """Indexed by colour, the breadth-first order of the tree of the node
    map's one unmatched region of that colour, root first.  Region u hangs
    below step[u]; a root has no parent, so the regions whose parents lead
    to it form a tree, and a region on or below a loop never does.  Children
    come in ascending order of their matched edges.  Raises
    InvariantViolation unless exactly one region of each colour is unmatched."""
    _, out, step = node
    children: dict[int, list[int]] = {}
    for u, p in step.items():
        children.setdefault(p, []).append(u)
    orders: list[list[int]] = [[], []]
    for colour, faces in ((BLACK, d.black_faces), (WHITE, d.white_faces)):
        order = orders[colour] = [f for f in faces if f not in out]
        if len(order) != 1:
            raise InvariantViolation("a perfect admissible matching left %d unmatched %s regions"
                                     % (len(order), _COLOUR_NAME[colour]))
        for v in order:  # the list grows as it is read: a breadth-first search
            order.extend(children.get(v, ()))
    return orders


def _click_path_targets(d: Diagram, node: tuple) -> Iterator[tuple[int, tuple]]:
    """(target mask, (colour name, path)) of each click path move.  A
    target's edge set and path are its tree parent's, with the target's
    matched crossing re-matched toward the parent and the target appended."""
    mask, out, step = node
    orders = _click_forest(d, node)
    for colour in (BLACK, WHITE):
        order = orders[colour]
        masks, paths = {order[0]: mask}, {order[0]: (order[0],)}
        for u in order[1:]:  # re-match u's crossing from u to its parent p
            p, e = step[u], out[u]
            masks[u] = masks[p] ^ 1 << e ^ 1 << (e ^ 2)
            paths[u] = paths[p] + (u,)
            yield masks[u], (_COLOUR_NAME[colour], paths[u])


def click_path_moves(d: Diagram, x: Matching) -> list[tuple[Move, Matching]]:
    """Slide the unmatched region of either colour along its tree component.

    A perfect admissible matching has exactly one unmatched region per colour,
    the root of its tree: the regions whose region-map parents (u matched by
    edge e hangs below d.edge_region[e ^ 2]) lead to it.  Every other vertex
    of the tree is the target of one move, which re-matches each crossing on
    its path toward the root; black first, in breadth-first order.  Raises
    NotPerfectAdmissible otherwise.
    """
    node, _, _ = _perfect_admissible(d, x, "click path moves need a perfect admissible matching")
    return _built_moves(d, x, "click_path", node)


def two_click_connect(
    d: Diagram, x: Matching, v_b: int, v_w: int
) -> tuple[tuple[Move, Matching], ...]:
    """Carry a perfect dMf to the one with critical regions (v_b, v_w).

    At most one black and one white click path move, black first: the
    click_path_moves moves on x whose paths end at v_b and at v_w.  The black
    move re-matches crossings between black regions only, so the white move's
    toggles apply on top of it unchanged.  Only the returned matchings are
    built, and the targets are read no further than the one ending at v_w.
    Returns the (move, matching) steps; empty when the targets are already
    critical.  A region that no path reaches leaves the wrong
    critical cells, which the final check reports.
    """
    if not _is_region(d, v_b, BLACK):
        raise ValueError("target %d is not a black region" % v_b)
    if not _is_region(d, v_w, WHITE):
        raise ValueError("target %d is not a white region" % v_w)
    node, black, white = _perfect_admissible(d, x, "need a perfect admissible matching")
    if next(_loop_closings(node[2]), None) is not None:
        raise NotAcyclic("need an acyclic matching: every region must be reachable")
    steps: list[tuple[Move, Matching]] = []
    cells, mask = (black, (), white), x.mask
    for target, site in _click_path_targets(d, node):
        if site[1][-1] in (v_b, v_w):
            mask ^= x.mask ^ target
            y = _matching_of(mask)
            cells = critical_cells(d, y)  # validates y
            steps.append((Move("click_path", site), y))
            if site[1][-1] == v_w:  # white targets come last
                break
    if cells != ((v_b,), (), (v_w,)):
        raise InvariantViolation(
            "two clicks toward (%d, %d) ended at critical cells %s" % (v_b, v_w, cells)
        )
    return tuple(steps)


# kind -> targets(d, (mask, out, step)), yielding (target mask, site)
_KINDS = {
    "clock": _clock_targets,
    "click_loop": _click_loop_targets,
    "click_path": _click_path_targets,
}


def _move(
    d: Diagram, kind: str, site: tuple, x: Matching, y: Matching,
    strands: Callable[[Matching], tuple], shared: dict,
) -> Move:
    """The move of one kind from x to y at a site of its targets.

    shared maps each move's fields to its one Move, and each clock site's
    (square arc, pattern) to its two rerouted arcs: the two patterns of a
    square reroute different arcs.  A click move is its site.  A clock move
    reads strands(m), which is _strand_roots(d, m), for x and y
    only.  It flips the smoothings of the square's two crossings.  Each flip
    changes |J| by at most one, and by exactly one when x is perfect.  So a
    move changes |J| by at most 2, and by 0 or +-2 when x is perfect; both
    are checked.
    """
    if kind != "clock":
        fields: tuple = (kind, site)
    else:
        sq, pattern, orientation = site
        root, before = strands(x)
        delta = strands(y)[1] - before
        if delta != 0:
            if abs(delta) > 2 or (delta not in (-2, 2) and len(x.edges) == d.n_crossings):
                raise InvariantViolation("clock move at arc %d changed |J| by %d" % (sq.arc, delta))
            ctype = "III"
        else:
            arcs = shared.get((sq.arc, pattern))
            if arcs is None:
                arcs = shared[sq.arc, pattern] = [_rerouted_strand(d, sq.arc, e)
                                                  for e in pattern]
            ctype = "I" if root(arcs[0]) == root(arcs[1]) else "II"
        fields = ("clock", (sq.arc,), ctype, delta, orientation)
    move = shared.get(fields)
    if move is None:
        move = shared[fields] = Move(*fields)
    return move


def _matching_of(mask: int) -> Matching:
    """The matching of the set bits of mask, ascending as Matching needs."""
    edges = []
    while mask:
        low = mask & -mask
        edges.append(low.bit_length() - 1)
        mask ^= low
    return Matching(tuple(edges))


def _built_moves(d: Diagram, x: Matching, kind: str, node: tuple) -> list[tuple[Move, Matching]]:
    """Every move of one kind on x, each target built and validated; node is
    x's node map, which the caller has built."""
    at_x = _strand_roots(d, x) if kind == "clock" else None  # clock moves alone read it
    strands = lambda y: at_x if y is x else _strand_roots(d, y)
    out, shared = [], {}
    for mask, site in _KINDS[kind](d, node):
        y = _matching_of(mask)
        _checked(d.edge_region, y.edges)
        out.append((_move(d, kind, site, x, y, strands, shared), y))
    return out


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


def marked_arc_roots(d: Diagram, arc: int) -> tuple[int, int]:
    """The (black, white) regions flanking an arc, the roots its mark fixes."""
    if not 0 <= arc < d.n_arcs:
        raise ValueError("arc id %d out of range" % arc)
    i = d.arc_darts[arc][0]
    left = d.edge_region[i & ~3 | (i - 1) & 3]
    right = d.edge_region[i]
    if d.face_colour[left] == BLACK:
        return left, right
    return right, left


def build_move_graph(
    d: Diagram,
    population: str,
    kinds: Sequence[str] = MOVE_KINDS,
    v_b: int | None = None,
    v_w: int | None = None,
) -> MoveGraph:
    """Move graph over a population: kauffman (needs the marked pair v_b,
    v_w), perfect_dmfs, or perfect_admissible.  Edges are kept only when both
    endpoints belong to the population, each once, as (lower node, higher
    node, move); the move is built only once its target is found, and each
    node is validated, mapped and has its strands counted once.  A move's
    ends fix the edges it toggles, so two moves with the same ends raise
    InvariantViolation.  An unknown or repeated kind raises ValueError."""
    kinds = tuple(kinds)
    for k in kinds:
        if k not in MOVE_KINDS:
            raise ValueError("unknown move kind %r" % k)
    if len(set(kinds)) < len(kinds):
        raise ValueError("repeated move kind in %s" % ",".join(kinds))
    if population == "kauffman":
        if v_b is None or v_w is None:
            raise ValueError("the kauffman population needs v_b and v_w")
        nodes = kauffman_states(d, v_b, v_w)
    elif population == "perfect_dmfs":
        nodes = tuple(enumerate_matchings(d, "perfect_dmf"))
    elif population == "perfect_admissible":
        nodes = tuple(enumerate_matchings(d, "perfect_admissible"))
    else:
        raise ValueError(
            "unknown population %r (expected one of %s)" % (population, ", ".join(POPULATIONS))
        )
    index = {x.mask: i for i, x in enumerate(nodes)}
    counted: dict[int, tuple] = {}  # strands by mask, dropped after their turn

    def strands(y: Matching) -> tuple:
        if y.mask not in counted:
            counted[y.mask] = _strand_roots(d, y)
        return counted[y.mask]

    shared: dict = {}  # one Move per distinct move of this graph; see _move
    edges: list[tuple[int, int, Move]] = []
    chosen = [k for k in MOVE_KINDS if k in kinds]
    for i, x in enumerate(nodes):
        node = (x.mask,) + _node_map(d, x)
        found: dict[int, Move] = {}  # higher end -> the move to it
        for kind in chosen:
            for mask, site in _KINDS[kind](d, node):
                # Every move kind is involutive, so a target below i has
                # recorded this edge already.
                j = index.get(mask, -1)
                if j > i:
                    if j in found:
                        raise InvariantViolation(
                            "two moves join nodes %d and %d of the %s graph" % (i, j, population)
                        )
                    found[j] = _move(d, kind, site, x, nodes[j], strands, shared)
        counted.pop(x.mask, None)
        edges += ((i, j, found[j]) for j in sorted(found))
    return MoveGraph(d.pd.to_text(), population, kinds, nodes, tuple(edges))


def _component_roots(n: int, edges: Iterable[tuple[int, int, Move]]) -> list[int]:
    """One root per node; two nodes share a root iff the edges connect them."""
    uf = UnionFind(n)
    for i, j, _ in edges:
        uf.union(i, j)
    return [uf.find(i) for i in range(n)]


def verify_connectivity(mg: MoveGraph) -> tuple[bool, int]:
    """(is connected, number of components); the empty graph counts as connected."""
    count = len(set(_component_roots(len(mg.nodes), mg.edges)))
    return count <= 1, count


def click_path_avoidance(d: Diagram, mg: MoveGraph) -> dict:
    """Experimental record: how far clock and click loop moves alone go.

    Clock and click loop moves both fix the pair of unmatched regions, so the
    {clock, click_loop} graph over the perfect admissible states can only be
    connected when a single such pair occurs; the open part is whether each
    fixed-pair class is connected on its own, and that is reported per
    diagram as data, not asserted.  mg is d's perfect admissible move graph
    with both kinds among its own; its other edges are ignored.
    """
    kinds = ("clock", "click_loop")
    if mg.population != "perfect_admissible" or not set(kinds) <= set(mg.kinds):
        raise ValueError("need a perfect admissible move graph with clock and click loop moves")
    roots = _component_roots(len(mg.nodes), (e for e in mg.edges if e[2].kind in kinds))
    components = len(set(roots))
    classes: dict[tuple, set[int]] = {}
    for x, root in zip(mg.nodes, roots):
        black, _, white = critical_cells(d, x)
        classes.setdefault((black, white), set()).add(root)
    return {
        "population": "perfect_admissible",
        "kinds": list(kinds),
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

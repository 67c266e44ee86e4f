"""The package's original move-graph builder, kept as a test oracle.

It collects every candidate move of every node from the three public move
functions, which build and validate each target matching, looks the targets
up in an index keyed by Matching, and keeps the first move met for each
(pair of nodes, site) key.  Every edge is therefore found from both ends and
nothing relies on the moves being involutive.  The public move functions
share their target generators and _move with the builder under test;
the oracle shares neither the mask index, nor the rule that records an edge
from its lower end only, nor the edge sort.

It also keeps the package's original click trees, the oracle for the ones
click_path_moves reads off the region map: a breadth-first search over the
adjacency of each colour's matched crossings, checked by edge count to be a
tree, with every step's two corners looked up by edge_to_region (the
package's overlay method edge_to_region, deleted once nothing else needed it)
and the old corner checked to be matched.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from knotmorse.diagram import BLACK, WHITE, Diagram
from knotmorse.errors import InvariantViolation
from knotmorse.moves import (
    MOVE_KINDS,
    POPULATIONS,
    Move,
    MoveGraph,
    click_loop_moves,
    click_path_moves,
    clock_moves,
)
from knotmorse.states import (
    Matching,
    enumerate_matchings,
    kauffman_states,
)

_COLOUR_NAME = {BLACK: "black", WHITE: "white"}


def edge_to_region(t: Diagram, c: int, region: int, colour: int) -> int:
    """The unique colour-corner edge of c landing in the given region.

    Valid only when exactly one corner of that colour at c touches the
    region (always true off loops of the colour graph).
    """
    k0 = 0 if t.face_colour[t.edge_region[4 * c]] == colour else 1
    hits = [4 * c + k for k in (k0, k0 + 2) if t.edge_region[4 * c + k] == region]
    if len(hits) != 1:
        raise InvariantViolation(
            "corner edge (crossing %d, region %d) is not unique: %d hits" % (c, region, len(hits))
        )
    return hits[0]


def oracle_click_tree(
    t: Diagram, x: Matching, colour: int
) -> tuple[dict[int, tuple[int, int] | None], list[int]]:
    """Breadth-first tree of the component of x's unmatched region of a colour.

    Returns the parent map (region -> (crossing, parent region), None at the
    root) and the regions in search order, root first.  Raises
    InvariantViolation unless exactly one region of the colour is unmatched
    and its component of the induced colour subgraph is a tree.
    """
    mr = {t.edge_region[e]: e for e in x.edges}
    faces = t.black_faces if colour == BLACK else t.white_faces
    unmatched = [f for f in faces if f not in mr]
    if len(unmatched) != 1:
        raise InvariantViolation(
            "a perfect admissible matching left %d unmatched %s regions"
            % (len(unmatched), _COLOUR_NAME[colour])
        )
    root = unmatched[0]
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in faces}
    for e in x.edges:
        if t.face_colour[t.edge_region[e]] == colour:
            c = e // 4
            # the corner of c of this colour among its first two
            corner = 4 * c + (t.face_colour[t.edge_region[4 * c]] != colour)
            u, v = t.edge_region[corner], t.edge_region[corner ^ 2]
            adj[u].append((c, v))
            adj[v].append((c, u))
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


def oracle_click_path_moves(t: Diagram, x: Matching) -> list[tuple[Move, Matching]]:
    """Every click path move on x, black tree first, each in search order."""
    out = []
    for colour in (BLACK, WHITE):
        parent, order = oracle_click_tree(t, x, colour)
        edges, paths = {order[0]: set(x.edges)}, {order[0]: (order[0],)}
        for u in order[1:]:
            c, p = parent[u]
            old = edge_to_region(t, c, u, colour)
            if old not in edges[p]:
                raise InvariantViolation("path crossing %d is not matched toward region %d" % (c, u))
            edges[u] = edges[p] - {old} | {edge_to_region(t, c, p, colour)}
            paths[u] = paths[p] + (u,)
            move = Move(kind="click_path", site=(_COLOUR_NAME[colour], paths[u]))
            out.append((move, Matching(tuple(sorted(edges[u])))))
    return out


def _dedupe_key(move: Move) -> tuple:
    if move.kind == "clock":
        return ("clock", move.site[0])
    if move.kind == "click_loop":
        return ("click_loop", frozenset(move.site))
    colour, path = move.site
    return ("click_path", colour, frozenset((path[0], path[-1])))


def oracle_move_graph(
    t: Diagram,
    population: str,
    kinds: Sequence[str] = MOVE_KINDS,
    v_b: int | None = None,
    v_w: int | None = None,
) -> MoveGraph:
    """The move graph over a population, from both ends of every edge."""
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
        diagram_id=t.pd.to_text(),
        population=population,
        kinds=kinds,
        nodes=nodes,
        edges=tuple(seen[k] for k in sorted(seen, key=lambda k: (k[0], k[1], repr(k[2:])))),
    )

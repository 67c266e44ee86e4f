"""The package's original move-graph builder, kept as a test oracle.

It collects every candidate move of every node from the three public move
functions, which build and validate each target matching, looks the targets
up in an index keyed by Matching, and keeps the first move met for each
(pair of nodes, site) key.  Every edge is therefore found from both ends and
nothing relies on the moves being involutive.  The public move functions
share their target generators and classifiers with the builder under test;
the oracle shares neither the mask index, nor the rule that records an edge
from its lower end only, nor the edge sort.
"""

from __future__ import annotations

from typing import Sequence

from knotmorse.diagram import TaitGraph
from knotmorse.moves import (
    MOVE_KINDS,
    POPULATIONS,
    Move,
    MoveGraph,
    click_loop_moves,
    click_path_moves,
    clock_moves,
)
from knotmorse.states import Matching, enumerate_matchings, kauffman_states


def _dedupe_key(move: Move) -> tuple:
    if move.kind == "clock":
        return ("clock", move.site[0])
    if move.kind == "click_loop":
        return ("click_loop", frozenset(move.site))
    colour, path = move.site
    return ("click_path", colour, frozenset((path[0], path[-1])))


def oracle_move_graph(
    t: TaitGraph,
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
        diagram_id=t.diagram.pd.to_text(),
        population=population,
        kinds=kinds,
        nodes=nodes,
        edges=tuple(seen[k] for k in sorted(seen, key=lambda k: (k[0], k[1], repr(k[2:])))),
    )

"""The package's original per-matching kernels, kept as test oracles.

jordan_resolution is the union-find over (crossing, slot) darts that
re-unions every arc's two ends on each call; induced_forests finds the roots
as the unmatched region of each union-find component of a colour's forest;
forests_to_matching looks up each child's corner edge with edge_to_region;
amended_poset_acyclic tests each edge's membership in a set while it builds
the arrows.  The package's kernels work on int tables instead, and the tests
check them against these on every matching of the corpus.
"""

from __future__ import annotations

from knotmorse.diagram import BLACK, WHITE, Diagram, UnionFind
from knotmorse.errors import InvalidForest, InvariantViolation, NotAcyclic, NotAdmissible
from knotmorse.states import (
    ForestPair,
    JordanResolution,
    Matching,
    _checked,
    is_admissible,
    monochromatic_loops,
)
from move_graph_oracle import edge_to_region


def colour_edge_ends(t: Diagram, c: int, colour: int) -> tuple[int, int]:
    k0 = 0 if t.face_colour[t.edge_region[4 * c]] == colour else 1
    return t.edge_region[4 * c + k0], t.edge_region[4 * c + k0 + 2]


def oracle_amended_poset_acyclic(t: Diagram, x: Matching) -> bool:
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


def oracle_jordan_resolution(d: Diagram, x: Matching) -> JordanResolution:
    n = d.n_crossings
    darts = [(c, s) for c in range(n) for s in range(4)]
    arc_ends = [tuple(divmod(i, 4) for i in darts) for darts in d.arc_darts]
    uf = UnionFind(darts)
    for d1, d2 in arc_ends:
        uf.union(d1, d2)

    resolved: list[tuple[int, int]] = []
    matched = {}
    for e in sorted(x.edges):
        matched[e // 4] = e
    for c in range(n):
        if c in matched:
            p = (matched[c] % 4 + 1) % 2
            uf.union((c, p), (c, (p + 1) % 4))
            uf.union((c, (p + 2) % 4), (c, (p + 3) % 4))
            resolved.append((c, p))
        else:
            for s in range(1, 4):
                uf.union((c, 0), (c, s))

    comp_arcs: dict[tuple[int, int], list[int]] = {}
    for a in range(d.n_arcs):
        comp_arcs.setdefault(uf.find(arc_ends[a][0]), []).append(a)
    keys = sorted(comp_arcs, key=lambda k: comp_arcs[k][0])
    return JordanResolution(
        resolved=tuple(resolved),
        components=tuple(tuple(sorted(comp_arcs[k])) for k in keys),
    )


def oracle_induced_forests(t: Diagram, x: Matching) -> ForestPair:
    _checked(t.edge_region, x.edges)
    loops = monochromatic_loops(t, x)
    if loops:
        raise NotAcyclic("matching supports %d monochromatic loop(s)" % len(loops))
    if not is_admissible(t, x):
        raise NotAdmissible("no unmatched region in some colour")
    mr = {t.edge_region[e]: e for e in x.edges}
    out: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for colour, faces in ((BLACK, t.black_faces), (WHITE, t.white_faces)):
        edges = tuple(
            sorted(e // 4 for e in x.edges if t.face_colour[t.edge_region[e]] == colour)
        )
        uf = UnionFind(faces)
        for c in edges:
            u, v = colour_edge_ends(t, c, colour)
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


def oracle_forests_to_matching(t: Diagram, f: ForestPair) -> Matching:
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
            u, v = colour_edge_ends(t, c, colour)
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
                    edges.append(edge_to_region(t, c, w, colour))
                    stack.append(w)
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edge ids in matching")
    x = Matching(tuple(sorted(edges)))
    _checked(t.edge_region, x.edges)
    return x

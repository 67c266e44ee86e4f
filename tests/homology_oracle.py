"""A second homology engine and a maximal-facet filter, kept as test oracles.

These are the package's original implementations: each boundary matrix of
the full face complex is eliminated on its own with unit pivots ordered by a
Markowitz heap, the core without unit entries goes through the package's
dense Smith normal form, and maximal facets are found by comparing every
pair.  The package no longer filters facets: ``SimplicialComplex`` takes
them as given, pairwise non-contained, so the pairwise filter now checks
that each facet list the program builds is such an antichain.  The engine
under test instead reduces only the critical cells of an element matching
and sends their whole boundary, unit entries included, to ``_dense_smith``;
here that routine sees only what unit pivots leave (on the corpus,
nothing), so a comparison of the two tests the Smith core too.
The oracle builds its own face closure, ``oracle_faces``: every nonempty
subset of each facet, as sorted tuples grouped by size; it never reads
``SimplicialComplex.faces``.  For a plain ``SimplicialComplex`` the engine
reads its own closure as int masks, so a comparison checks that closure
too.  For the matching complex, an ``IndependenceComplex``, the engine lists
no face: a matching tree on the conflict graph gives its critical cells and
a count of matchings by size its face counts, so there a comparison checks
both against the oracle's closure of ``maximal_matchings``, the maximal
members of the stream of all matchings.

``listed_morse_boundary`` is the package's earlier gradient-path boundary,
kept as written: it lists the signed faces of each cell and looks up the
partner of every face, so a comparison checks the one-pass walk of
``complexes._morse_boundary`` flow for flow.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Callable, Iterable, Mapping

from knotmorse.complexes import (
    HomologyResult,
    SimplicialComplex,
    _dense_smith,
    _max_faces,
    _over_cap,
)
from knotmorse.diagram import TaitGraph
from knotmorse.errors import InvariantViolation
from knotmorse.states import enumerate_matchings, is_maximal


def pairwise_maximal_facets(facets: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical facets not strictly contained in another, by pairwise test."""
    canonical = {tuple(sorted(f)) for f in facets}
    kept = [f for f in canonical if not any(set(f) < set(g) for g in canonical)]
    return tuple(sorted(kept, key=lambda f: (len(f), f)))


def maximal_matchings(t: TaitGraph) -> SimplicialComplex:
    """The matching complex by its facets: the maximal members of the stream
    of all matchings, which shares no code with the maximal-matching search
    or the conflict graph."""
    return SimplicialComplex(x.edges for x in enumerate_matchings(t, "all") if is_maximal(t, x))


def oracle_faces(c: SimplicialComplex) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The face closure of c's facets: every nonempty subset of each facet,
    as sorted tuples, grouped by size from one vertex up and sorted."""
    levels: list[set[tuple[int, ...]]] = [set() for _ in range(c.dimension + 1)]
    for f in c.facets:
        for k in range(1, len(f) + 1):
            levels[k - 1].update(combinations(f, k))
    return tuple(tuple(sorted(level)) for level in levels)


def _sparse_rank_and_invariants(columns: list[dict[int, int]]) -> tuple[int, tuple[int, ...]]:
    """Rank and nontrivial invariant factors of a sparse integer matrix.

    Unit pivots keep every update integral and contribute trivial factors;
    the Markowitz product (row degree - 1)(column degree - 1) orders them to
    limit fill.  Whatever remains holds no unit entry and is handed to the
    dense routine.
    """
    cols: dict[int, dict[int, int]] = {
        j: dict(col) for j, col in enumerate(columns) if col
    }
    rows: dict[int, set[int]] = {}
    for j, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(j)

    def cost(r: int, j: int) -> int:
        return (len(rows[r]) - 1) * (len(cols[j]) - 1)

    heap: list[tuple[int, int, int]] = []
    for j, col in cols.items():
        for r, v in col.items():
            if v in (1, -1):
                heap.append((cost(r, j), r, j))
    heapq.heapify(heap)
    rank = 0
    while heap:
        c0, r, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None or col.get(r) not in (1, -1):
            continue
        now = cost(r, j)
        if now > c0:
            heapq.heappush(heap, (now, r, j))
            continue
        pivot = col[r]
        pivot_col = cols.pop(j)
        for rr in pivot_col:
            rows[rr].discard(j)
        rank += 1
        for jj in tuple(rows.get(r, ())):
            target = cols[jj]
            f = target[r] * pivot
            for rr, vv in pivot_col.items():
                new = target.get(rr, 0) - f * vv
                if new:
                    if rr not in target:
                        rows.setdefault(rr, set()).add(jj)
                    target[rr] = new
                    if new in (1, -1):
                        heapq.heappush(heap, (cost(rr, jj), rr, jj))
                else:
                    if rr in target:
                        del target[rr]
                        rows[rr].discard(jj)
            if not target:
                del cols[jj]
        rows.pop(r, None)
    if not cols:
        return rank, ()
    live_rows = sorted({r for col in cols.values() for r in col})
    row_index = {r: i for i, r in enumerate(live_rows)}
    dense = [[0] * len(cols) for _ in live_rows]
    for jj, col in enumerate(sorted(cols)):
        for r, v in cols[col].items():
            dense[row_index[r]][jj] = v
    invs = _dense_smith(dense)
    return rank + len(invs), tuple(v for v in invs if v > 1)


def _boundary_columns(
    lower_index: Mapping[tuple[int, ...], int], upper: Iterable[tuple[int, ...]]
) -> list[dict[int, int]]:
    out = []
    for face in upper:
        col: dict[int, int] = {}
        for i in range(len(face)):
            sub = face[:i] + face[i + 1 :]
            col[lower_index[sub]] = (-1) ** i
        out.append(col)
    return out


def oracle_homology(c: SimplicialComplex) -> HomologyResult:
    """Reduced integer homology from per-degree Smith normal forms of the
    boundaries."""
    faces = oracle_faces(c)
    if not faces:
        return HomologyResult(betti=(), torsion=(), face_counts=())
    counts = [len(bucket) for bucket in faces]
    dim = len(faces) - 1
    ranks = [0] * (dim + 2)
    torsion: list[tuple[int, ...]] = [() for _ in range(dim + 1)]
    if counts[0]:
        ranks[0] = 1
    lower_index = {face: i for i, face in enumerate(faces[0])}
    for k in range(1, dim + 1):
        columns = _boundary_columns(lower_index, faces[k])
        ranks[k], torsion[k - 1] = _sparse_rank_and_invariants(columns)
        lower_index = {face: i for i, face in enumerate(faces[k])}
    betti = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1))
    return HomologyResult(
        betti=betti,
        torsion=tuple(torsion),
        face_counts=tuple(counts),
    )


def _signed_faces(t: int) -> list[tuple[int, int]]:
    """(<d t, g>, g) for each face g of the cell t."""
    out = []
    sign, rest = 1, t
    while rest:
        b = rest & -rest
        rest ^= b
        out.append((sign, t ^ b))
        sign = -sign
    return out


def listed_morse_boundary(cells: list[int], critical: set[int], partner: Callable[[int], int],
                          budget: int | None) -> list[dict[int, int]]:
    """The Morse boundary of each of the critical cells, by the gradient
    paths of the matching whose pairs partner gives (the upper cell of a
    lower cell, or a false value): the same contract as
    complexes._morse_boundary, computed from a list of each cell's signed
    faces, with the partner of every face looked up afresh."""
    flow: dict[int, dict[int, int]] = {}
    opened: dict[int, list[tuple[int, int]]] = {}
    for c in cells:
        stack = [c]
        while stack:
            x = stack[-1]
            if x in flow:
                stack.pop()
                continue
            terms = opened.pop(x, None)
            if terms is None:
                t = partner(x) or x
                faces = _signed_faces(t)
                unit = 1 if t == x else -next(k for k, g in faces if g == x)
                terms = [(unit * k, g) for k, g in faces if g != x and (partner(g) or g in critical)]
                todo = [g for _, g in terms if g not in critical and g not in flow]
                if todo:
                    if not opened.keys().isdisjoint(todo):
                        raise InvariantViolation(
                            "gradient paths close a cycle through the cell with mask %#x" % x)
                    opened[x] = terms
                    stack.extend(todo)
                    continue
            acc: dict[int, int] = {}
            for k, g in terms:
                for h, w in [(g, 1)] if g in critical else flow[g].items():
                    acc[h] = acc.get(h, 0) + k * w
            if len(flow) == budget:
                raise _over_cap(_max_faces(), "matching tree")
            flow[x] = {h: w for h, w in acc.items() if w}
            stack.pop()
    return [flow[c] for c in cells]

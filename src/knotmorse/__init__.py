"""Exact combinatorics of chequerboard knot projections.

Parse PD codes, build colour graphs and the Tait overlay, enumerate partial
Kauffman states and discrete Morse matchings, apply clock and click moves,
count states by Kirchhoff-style and matrix-forest determinants, and take
exact integer homology of the matching and Morse complexes.
"""

from __future__ import annotations

from .errors import (
    ArcMultiplicityError,
    ColouringConflict,
    EmptyDiagram,
    InvalidForest,
    InvariantViolation,
    KnotmorseError,
    MalformedSyntax,
    NonPlanarCode,
    NotAcyclic,
    NotAdmissible,
    NotPerfectAdmissible,
    NotSpanning,
    ResourceLimit,
)
from .diagram import (
    BLACK,
    WHITE,
    Diagram,
    Face,
    PDCode,
    PlaneGraph,
    Square,
    build_diagram,
    build_tait,
    colour_graphs,
    is_reduced,
    parse_pd,
)
from .corpus import (
    CorpusEntry,
    corpus_names,
    get_entry,
    load_corpus,
    rational_pd,
    torus_pd,
)
from .counting import (
    count_all_dmfs,
    count_perfect_dmfs,
    count_spanning_trees,
    count_via_enumeration,
    det,
    fibonacci_family_count,
    laplacian,
    spanning_trees,
)
from .complexes import (
    DEFAULT_MAX_FACES,
    HomologyResult,
    SimplicialComplex,
    connectivity_bound,
    connectivity_report,
    homology,
    matching_complex,
    morse_complex,
    pure_matching_complex,
    pure_morse_from_trees,
    pure_part,
)
from .reference import (
    COLUMNS,
    REFERENCE_HOMOLOGY,
    computed_row,
    reference_complexes,
)
from .moves import (
    Move,
    MoveGraph,
    build_move_graph,
    click_loop_moves,
    click_path_avoidance,
    click_path_moves,
    clock_moves,
    marked_arc_roots,
    move_graph_to_dict,
    move_graph_to_dot,
    two_click_connect,
    verify_connectivity,
)
from .states import (
    ForestPair,
    JordanResolution,
    Matching,
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
)

__version__ = "0.1.0"

"""Refusals of bad arguments: one row per DomainError branch that the other
tests do not reach, with the call and the message it must raise."""

import re

import numpy as np
import pytest

from flipkit import (
    Bipartite,
    BreakWitness,
    DomainError,
    FlipSpec,
    Graph,
    Partition,
    SetFamily,
    WeightFn,
    apply_flip,
    ball,
    ball_family,
    ball_partition,
    breakability_search,
    convert,
    definable_partition,
    dist_partition,
    dist_partition_matrix,
    enumerate_flips,
    greedy_scattered,
    induced,
    is_shattered,
    reconstruct_flip_spec,
    search_definable_emulation,
    sep_then_break,
    separability_search,
    small_balls_orchestrate,
    sunflower_extract,
    verify_break_witness,
)
from flipkit.conversion import ball_containment_ok
from flipkit.fileio import loads_graph
from flipkit.generators import path


def _redeclared(family: SetFamily, size: int) -> SetFamily:
    family.uniform_size = size
    return family


P3, TRIVIAL4 = path(3), Partition.trivial(4)
MISMATCH = "partition is over n=4, graph has n=3"

# id: (call, the message of its DomainError)
REFUSALS = {
    "separability-weights-length": (
        lambda: separability_search(P3, WeightFn.uniform(2), 1, 1, 1),
        "weights cover 2 vertices, graph has 3",
    ),
    "separability-negative-radius": (
        lambda: separability_search(P3, WeightFn.uniform(3), -1, 1, 1),
        "radius must be nonnegative, got -1",
    ),
    "breakability-negative-radius": (
        lambda: breakability_search(P3, [0, 2], -1, 1),
        "radius and target size must be nonnegative",
    ),
    "breakability-negative-m": (
        lambda: breakability_search(P3, [0, 2], 1, -1),
        "radius and target size must be nonnegative",
    ),
    "small-balls-weights-length": (
        lambda: small_balls_orchestrate(P3, WeightFn.uniform(2), SetFamily([(0,)]), 1, 1),
        "weights cover 2 vertices, graph has 3",
    ),
    "small-balls-0-uniform": (
        lambda: small_balls_orchestrate(P3, WeightFn.uniform(3), SetFamily([()]), 1, 1),
        "0-uniform families carry no vertices to separate",
    ),
    "small-balls-unpaddable": (
        lambda: small_balls_orchestrate(
            Graph.empty(2), WeightFn.uniform(2), SetFamily([(0, 1, 2)]), 1, 1
        ),
        "cannot pad () to size 3 with only 2 vertices",
    ),
    "sunflower-negative-m": (
        lambda: sunflower_extract(SetFamily([(0, 1)]), -1),
        "target size must be nonnegative, got -1",
    ),
    "sunflower-declared-size": (
        lambda: sunflower_extract(_redeclared(SetFamily([(0, 1)], uniform_size=2), 3), 1),
        "family sizes disagree with the declared uniformity",
    ),
    "break-witness-negative-radius": (
        lambda: verify_break_witness(
            P3, BreakWitness(Partition.trivial(3), FlipSpec(), None, (0,), (2,), -1, 1)
        ),
        "radius must be nonnegative, got -1",
    ),
    "emulation-vertex-sets": (
        lambda: search_definable_emulation(P3, path(4), 1, 1),
        "graphs must share one vertex set",
    ),
    "emulation-negative-r-max": (
        lambda: search_definable_emulation(P3, P3, -1, 1),
        "r_max must be nonnegative, got -1",
    ),
    "ball-containment-n": (
        lambda: ball_containment_ok(P3, path(4), 1),
        "graphs must share one vertex set",
    ),
    "convert-n": (lambda: convert(P3, TRIVIAL4), MISMATCH),
    "apply-flip-n": (lambda: apply_flip(P3, TRIVIAL4, FlipSpec()), MISMATCH),
    "enumerate-flips-n": (lambda: next(enumerate_flips(P3, TRIVIAL4)), MISMATCH),
    "reconstruct-flip-spec-n": (
        lambda: reconstruct_flip_spec(P3, P3, TRIVIAL4),
        "graphs and partition must share one vertex set",
    ),
    "dist-partition-matrix-n": (lambda: dist_partition_matrix(P3, TRIVIAL4), MISMATCH),
    "graph-non-square": (
        lambda: Graph(np.zeros((2, 3), dtype=bool)),
        "adjacency must be square, got shape (2, 3)",
    ),
    "graph-self-loop": (lambda: Graph.from_edges(3, [(1, 1)]), "self-loop (1,1) not allowed"),
    "bipartite-overlap": (
        lambda: Bipartite(Graph.empty(3), (0, 1), (1, 2)),
        "bipartition sides overlap",
    ),
    "partition-vertex-range": (
        lambda: Partition(2, [[0, 5]]),
        "vertex 5 out of range for n=2",
    ),
    # the first bad element is named: in the given order for edges, in the
    # canonical order (parts by least vertex, each ascending) for a partition
    "from-edges-first-bad": (
        lambda: Graph.from_edges(3, [(0, 5), (0, 1.5)]),
        "edge (0,5) out of range for n=3",
    ),
    "partition-canonical-first": (
        lambda: Partition(3, [[0, 5], [0, 1, 2]]),
        "vertex 5 out of range for n=3",
    ),
    "partition-two-parts": (
        lambda: Partition(3, [[0, 1], [1, 2]]),
        "vertex 1 appears in two parts",
    ),
    "from-edges-triple": (
        lambda: Graph.from_edges(3, [(0, 1, 2)]),
        "edge (0, 1, 2) is not a pair of vertices",
    ),
    "from-edges-scalar": (lambda: Graph.from_edges(3, [0]), "edge 0 is not a pair of vertices"),
    # an int beyond int64 is out of range, never an OverflowError
    "from-edges-beyond-int64": (
        lambda: Graph.from_edges(3, [(0, 2**70)]),
        "edge (0,1180591620717411303424) out of range for n=3",
    ),
    "loads-graph-beyond-int64": (
        lambda: loads_graph("3 1\n0 99999999999999999999999\n"),
        "line 2: edge (0,99999999999999999999999) out of range for n=3",
    ),
    "loads-graph-names-its-line": (
        lambda: loads_graph("3 2\n0 1\n\n1 1\n"),
        "line 4: self-loop (1,1) not allowed",
    ),
    "ball-vertex-range": (lambda: ball(P3, 5, 1), "vertex 5 out of range for n=3"),
    "degree-negative-vertex": (lambda: path(4).degree(-1), "vertex -1 out of range for n=4"),
    "partition-beyond-int64": (
        lambda: Partition(3, [[0, 1, 2**70], [2]]),
        "vertex 1180591620717411303424 out of range for n=3",
    ),
    "vertices-beyond-int64": (
        lambda: Graph.empty(3)._vertices([2**70, 1]),
        "vertex 1180591620717411303424 out of range for n=3",
    ),
    "bipartite-cover": (
        lambda: Bipartite(Graph.empty(2), (0, 5), (1,)),
        "bipartition sides must cover all vertices",
    ),
    "bipartite-uncrossed": (
        lambda: Bipartite(Graph.from_edges(4, [(1, 2), (0, 3)]), (0, 1, 2, 3), ()),
        "edge (0,3) does not cross the bipartition",
    ),
    "set-family-bool-size": (
        lambda: SetFamily([[0]], uniform_size=True),
        "uniform_size must be an integer, got True",
    ),
    "set-family-float-size": (
        lambda: SetFamily([[0, 1]], uniform_size=2.0),
        "uniform_size must be an integer, got 2.0",
    ),
    "set-family-negative-size": (
        lambda: SetFamily([], uniform_size=-1),
        "uniform_size must be nonnegative, got -1",
    ),
    "partition-trivial-0": (lambda: Partition.trivial(0), "cannot partition an empty vertex set"),
    "flip-spec-negative": (
        lambda: FlipSpec([(0, -1)]),
        "part indices must be nonnegative, got (0,-1)",
    ),
    "ball-negative-radius": (lambda: ball(P3, 0, -1), "radius must be nonnegative, got -1"),
    "ball-partition-negative-radius": (
        lambda: ball_partition(P3, Partition.trivial(3), 0, -1),
        "radius must be nonnegative, got -1",
    ),
    # a radius is an integer by the rule of a vertex: never a float or a bool
    "ball-float-radius": (lambda: ball(P3, 0, 1.5), "radius must be an integer, got 1.5"),
    "ball-bool-radius": (lambda: ball(P3, 0, True), "radius must be an integer, got True"),
    "ball-partition-float-radius": (
        lambda: ball_partition(P3, Partition.trivial(3), 0, 1.5),
        "radius must be an integer, got 1.5",
    ),
    "ball-family-bool-radius": (
        lambda: ball_family(P3, SetFamily([[0]]), 0, False),
        "radius must be an integer, got False",
    ),
    "separability-float-radius": (
        lambda: separability_search(P3, WeightFn.uniform(3), 1.5, 1, 1),
        "radius must be an integer, got 1.5",
    ),
    "breakability-float-radius": (
        lambda: breakability_search(P3, [0, 2], 0.5, 1),
        "radius must be an integer, got 0.5",
    ),
    "break-witness-bool-radius": (
        lambda: verify_break_witness(
            P3, BreakWitness(Partition.trivial(3), FlipSpec(), None, (0,), (2,), True, 1)
        ),
        "radius must be an integer, got True",
    ),
    "small-balls-float-radius": (
        lambda: small_balls_orchestrate(P3, WeightFn.uniform(3), SetFamily([(0,)]), 1.5, 1),
        "radius must be an integer, got 1.5",
    ),
    "small-balls-negative-radius": (
        lambda: small_balls_orchestrate(P3, WeightFn.uniform(3), SetFamily([(0,)]), -1, 1),
        "radius must be nonnegative, got -1",
    ),
    "sep-then-break-float-radius": (
        lambda: sep_then_break(P3, [0, 2], 1.5),
        "radius must be an integer, got 1.5",
    ),
    "emulation-float-r-max": (
        lambda: search_definable_emulation(P3, P3, 1.5, 1),
        "r_max must be an integer, got 1.5",
    ),
    "emulation-bool-r-max": (
        lambda: search_definable_emulation(P3, P3, True, 1),
        "r_max must be an integer, got True",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refuses_with_its_message(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


P4 = path(4)

# id: (call, the message of its DomainError); numpy reads a bool index as a
# mask, so each of these answered wrongly or raised IndexError or ValueError,
# and the sort of a collection that mixes types raised TypeError
NON_INTEGER_VERTICES = {
    "degree": (lambda: P4.degree(True), "vertex True is not an integer"),
    "neighbors": (lambda: P4.neighbors(True), "vertex True is not an integer"),
    "ball-bool": (lambda: ball(P4, True, 1), "vertex True is not an integer"),
    "ball-float": (lambda: ball(P4, 1.5, 1), "vertex 1.5 is not an integer"),
    "ball-partition": (lambda: ball_partition(P4, TRIVIAL4, True, 1), "vertex True is not an integer"),
    "definable-partition": (lambda: definable_partition(P4, [True]), "vertex True is not an integer"),
    "is-shattered": (lambda: is_shattered(P4, [True]), "vertex True is not an integer"),
    "dist-partition": (lambda: dist_partition(P4, TRIVIAL4, True, 3), "vertex True is not an integer"),
    "greedy-scattered": (lambda: greedy_scattered(P4, [True], 1), "vertex True is not an integer"),
    "partition": (lambda: Partition(4, [[True, 0], [2, 3]]), "vertex True is not an integer"),
    "definable-partition-mixed": (lambda: definable_partition(P4, ["a", 1]), "vertex 'a' is not an integer"),
    "partition-mixed": (lambda: Partition(4, [["a", 0], [1, 2, 3]]), "vertex 'a' is not an integer"),
    "induced-mixed": (lambda: induced(P4, [1, "a"]), "vertex 'a' is not an integer"),
    "set-family-mixed": (lambda: SetFamily([[1, "a"]]), "vertex 'a' is not an integer"),
    "from-edges": (
        lambda: Graph.from_edges(3, [(0, 1.5)]),
        "edge (0,1.5): vertex 1.5 is not an integer",
    ),
    "bipartite-bool-side": (
        lambda: Bipartite(Graph.empty(2), (True,), (0,)),
        "vertex True is not an integer",
    ),
    "bipartite-float-side": (
        lambda: Bipartite(Graph.empty(2), (1.0,), (0,)),
        "vertex 1.0 is not an integer",
    ),
    "indicator-bool": (
        lambda: WeightFn.indicator(3, [True]),
        "support vertex True is not an integer",
    ),
    "indicator-mixed": (
        lambda: WeightFn.indicator(3, ["a", 5]),
        "support vertex 'a' is not an integer",
    ),
}


@pytest.mark.parametrize("call, message", NON_INTEGER_VERTICES.values(), ids=NON_INTEGER_VERTICES.keys())
def test_vertices_are_integers(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_checked_vertices_are_python_ints():
    """A numpy integer is a vertex, and comes back as a Python int."""
    assert repr(Partition(3, [[np.int64(0), 1], [2]])) == "Partition(n=3, parts=((0, 1), (2,)))"
    got = Graph.empty(4)._vertices([np.int8(3), 1])
    assert got == [1, 3] and all(type(v) is int for v in got)

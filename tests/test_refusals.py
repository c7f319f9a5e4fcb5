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
    SearchBudget,
    SetFamily,
    WeightFn,
    apply_flip,
    ball,
    ball_family,
    ball_partition,
    break_from_sep,
    breakability_search,
    canonical_pairs,
    convert,
    definable_partition,
    dist_definable,
    dist_definable_matrix,
    dist_family,
    dist_family_matrix,
    dist_partition,
    dist_partition_matrix,
    enumerate_flips,
    enumerate_partitions,
    greedy_scattered,
    induced,
    is_shattered,
    num_flips,
    reconstruct_flip_spec,
    search_definable_emulation,
    sep_then_break,
    separability_search,
    shatter_function,
    small_balls_orchestrate,
    sunflower_extract,
    vc_dimension,
    verify_break_witness,
)
from flipkit import generators, verify
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
        "radius must be an integer >= 0, got -1",
    ),
    "breakability-negative-radius": (
        lambda: breakability_search(P3, [0, 2], -1, 1),
        "radius must be an integer >= 0, got -1",
    ),
    "breakability-negative-m": (
        lambda: breakability_search(P3, [0, 2], 1, -1),
        "target size m must be an integer >= 0, got -1",
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
        "target size m must be an integer >= 0, got -1",
    ),
    "sunflower-declared-size": (
        lambda: sunflower_extract(_redeclared(SetFamily([(0, 1)], uniform_size=2), 3), 1),
        "family sizes disagree with the declared uniformity",
    ),
    "break-witness-negative-radius": (
        lambda: verify_break_witness(
            P3, BreakWitness(Partition.trivial(3), FlipSpec(), None, (0,), (2,), -1, 1)
        ),
        "radius must be an integer >= 0, got -1",
    ),
    "emulation-vertex-sets": (
        lambda: search_definable_emulation(P3, path(4), 1, 1),
        "graphs must share one vertex set",
    ),
    "emulation-negative-r-max": (
        lambda: search_definable_emulation(P3, P3, -1, 1),
        "r_max must be an integer >= 0, got -1",
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
        "uniform_size must be an integer >= 0, got True",
    ),
    "set-family-float-size": (
        lambda: SetFamily([[0, 1]], uniform_size=2.0),
        "uniform_size must be an integer >= 0, got 2.0",
    ),
    "set-family-negative-size": (
        lambda: SetFamily([], uniform_size=-1),
        "uniform_size must be an integer >= 0, got -1",
    ),
    "partition-trivial-0": (lambda: Partition.trivial(0), "n must be an integer >= 1, got 0"),
    "partition-negative-n": (lambda: Partition(-1, []), "n must be an integer >= 0, got -1"),
    "partition-float-n": (
        lambda: Partition(2.0, [[0], [1]]),
        "n must be an integer >= 0, got 2.0",
    ),
    "flip-spec-negative": (
        lambda: FlipSpec([(0, -1)]),
        "part index must be an integer >= 0, got -1",
    ),
    "ball-negative-radius": (lambda: ball(P3, 0, -1), "radius must be an integer >= 0, got -1"),
    "ball-partition-negative-radius": (
        lambda: ball_partition(P3, Partition.trivial(3), 0, -1),
        "radius must be an integer >= 0, got -1",
    ),
    # a radius is an integer by the rule of a vertex: never a float or a bool
    "ball-float-radius": (lambda: ball(P3, 0, 1.5), "radius must be an integer >= 0, got 1.5"),
    "ball-bool-radius": (lambda: ball(P3, 0, True), "radius must be an integer >= 0, got True"),
    "ball-partition-float-radius": (
        lambda: ball_partition(P3, Partition.trivial(3), 0, 1.5),
        "radius must be an integer >= 0, got 1.5",
    ),
    "ball-family-bool-radius": (
        lambda: ball_family(P3, SetFamily([[0]]), 0, False),
        "radius must be an integer >= 0, got False",
    ),
    "separability-float-radius": (
        lambda: separability_search(P3, WeightFn.uniform(3), 1.5, 1, 1),
        "radius must be an integer >= 0, got 1.5",
    ),
    "breakability-float-radius": (
        lambda: breakability_search(P3, [0, 2], 0.5, 1),
        "radius must be an integer >= 0, got 0.5",
    ),
    "break-witness-bool-radius": (
        lambda: verify_break_witness(
            P3, BreakWitness(Partition.trivial(3), FlipSpec(), None, (0,), (2,), True, 1)
        ),
        "radius must be an integer >= 0, got True",
    ),
    "small-balls-float-radius": (
        lambda: small_balls_orchestrate(P3, WeightFn.uniform(3), SetFamily([(0,)]), 1.5, 1),
        "radius must be an integer >= 0, got 1.5",
    ),
    "small-balls-negative-radius": (
        lambda: small_balls_orchestrate(P3, WeightFn.uniform(3), SetFamily([(0,)]), -1, 1),
        "radius must be an integer >= 0, got -1",
    ),
    "sep-then-break-float-radius": (
        lambda: sep_then_break(P3, [0, 2], 1.5),
        "radius must be an integer >= 0, got 1.5",
    ),
    "emulation-float-r-max": (
        lambda: search_definable_emulation(P3, P3, 1.5, 1),
        "r_max must be an integer >= 0, got 1.5",
    ),
    "emulation-bool-r-max": (
        lambda: search_definable_emulation(P3, P3, True, 1),
        "r_max must be an integer >= 0, got True",
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


def _witness(radius=1, m=1) -> BreakWitness:
    return BreakWitness(Partition.trivial(3), FlipSpec(), None, (0,), (2,), radius, m)


RAW = SearchBudget(raw_partitions=True)
QUAD = [0, 1, 2, 3]

# id: (call of the argument's value, the name its refusal gives, its least
# value); every count, size and cap argument of the public API
INTEGER_ARGUMENTS = {
    "graph-from-edges-n": (lambda x: Graph.from_edges(x, []), "n", 0),
    "graph-empty-n": (lambda x: Graph.empty(x), "n", 0),
    "ball-r": (lambda x: ball(P3, 0, x), "radius", 0),
    "partition-n": (lambda x: Partition(x, []), "n", 0),
    "partition-trivial-n": (lambda x: Partition.trivial(x), "n", 1),
    "partition-singletons-n": (lambda x: Partition.singletons(x), "n", 0),
    "canonical-pairs": (lambda x: canonical_pairs(x), "num_parts", 0),
    "num-flips": (lambda x: num_flips(x), "num_parts", 0),
    "flip-spec-from-bits": (lambda x: FlipSpec.from_bits(x, 0), "num_parts", 0),
    "enumerate-flips-max-parts": (
        lambda x: next(enumerate_flips(P3, Partition.trivial(3), max_parts=x)), "the part cap", 1),
    "enumerate-partitions-n": (lambda x: enumerate_partitions(x, 2), "n", 1),
    "enumerate-partitions-max-parts": (lambda x: enumerate_partitions(3, x), "max_parts", 1),
    "set-family-uniform-size": (lambda x: SetFamily([], uniform_size=x), "uniform_size", 0),
    "dist-partition-matrix-max-parts": (
        lambda x: dist_partition_matrix(P3, Partition.trivial(3), max_parts=x), "the part cap", 1),
    "dist-partition-max-parts": (
        lambda x: dist_partition(P3, Partition.trivial(3), 0, 1, max_parts=x), "the part cap", 1),
    "dist-definable-matrix-max-parts": (
        lambda x: dist_definable_matrix(P3, [0], max_parts=x), "the part cap", 1),
    "dist-definable-max-parts": (
        lambda x: dist_definable(P3, [0], 0, 1, max_parts=x), "the part cap", 1),
    "dist-family-matrix-max-parts": (
        lambda x: dist_family_matrix(P3, SetFamily([[0]]), max_parts=x), "the part cap", 1),
    "dist-family-max-parts": (
        lambda x: dist_family(P3, SetFamily([[0]]), 0, 1, max_parts=x), "the part cap", 1),
    "ball-family-r": (lambda x: ball_family(P3, SetFamily([[0]]), 0, x), "radius", 0),
    "ball-family-max-parts": (
        lambda x: ball_family(P3, SetFamily([[0]]), 0, 1, max_parts=x), "the part cap", 1),
    "ball-partition-r": (lambda x: ball_partition(P3, Partition.trivial(3), 0, x), "radius", 0),
    "ball-partition-max-parts": (
        lambda x: ball_partition(P3, Partition.trivial(3), 0, 1, max_parts=x), "the part cap", 1),
    "shatter-function-n": (lambda x: shatter_function(P3, x), "trace size n", 0),
    "shatter-function-cap": (
        lambda x: shatter_function(P3, 1, cap=x), "the shatter-function cap", 1),
    "vc-dimension-cap": (lambda x: vc_dimension(P3, cap=x), "the VC-dimension cap", 1),
    "emulation-r-max": (lambda x: search_definable_emulation(P3, P3, x, 1), "r_max", 0),
    "emulation-s-max": (lambda x: search_definable_emulation(P3, P3, 1, x), "s_max", 0),
    "emulation-max-parts": (
        lambda x: search_definable_emulation(P3, P3, 1, 1, max_parts=x), "the part cap", 1),
    "breakability-r": (lambda x: breakability_search(P3, [0, 2], x, 1), "radius", 0),
    "breakability-m": (lambda x: breakability_search(P3, [0, 2], 1, x), "target size m", 0),
    "breakability-s-max": (
        lambda x: breakability_search(P3, [0, 2], 1, 1, SearchBudget(s_max=x)), "s_max", 0),
    "breakability-part-cap": (
        lambda x: breakability_search(P3, [0, 2], 1, 1, SearchBudget(part_cap=x)),
        "the part cap", 1),
    "breakability-n-cap": (
        lambda x: breakability_search(P3, [0, 2], 1, 1, RAW, n_cap=x), "n_cap", 1),
    # checked on every call, though only raw partitions read it
    "breakability-n-cap-definable": (
        lambda x: breakability_search(P3, [0, 2], 1, 1, n_cap=x), "n_cap", 1),
    "separability-r": (
        lambda x: separability_search(P3, WeightFn.uniform(3), x, 1, 1), "radius", 0),
    "separability-k-max": (
        lambda x: separability_search(P3, WeightFn.uniform(3), 1, 1, x), "k_max", 1),
    "separability-n-cap": (
        lambda x: separability_search(P3, WeightFn.uniform(3), 1, 1, 1, n_cap=x), "n_cap", 1),
    "separability-max-parts": (
        lambda x: separability_search(P3, WeightFn.uniform(3), 1, 1, 1, max_parts=x),
        "the part cap", 1),
    "sep-then-break-r": (lambda x: sep_then_break(P4, QUAD, x), "radius", 0),
    "sep-then-break-k-max": (lambda x: sep_then_break(P4, QUAD, 1, k_max=x), "k_max", 1),
    "sep-then-break-n-cap": (lambda x: sep_then_break(P4, QUAD, 1, n_cap=x), "n_cap", 1),
    "sep-then-break-max-parts": (
        lambda x: sep_then_break(P4, QUAD, 1, max_parts=x), "the part cap", 1),
    "sunflower-m": (lambda x: sunflower_extract(SetFamily([(0, 1)]), x), "target size m", 0),
    "small-balls-r": (
        lambda x: small_balls_orchestrate(P3, WeightFn.uniform(3), SetFamily([(0,)]), x, 1),
        "radius", 0),
    "small-balls-m-keep": (
        lambda x: small_balls_orchestrate(P3, WeightFn.uniform(3), SetFamily([(0,)]), 1, 1,
                                          SearchBudget(m_keep=x)),
        "m_keep", 1),
    "small-balls-group-size": (
        lambda x: small_balls_orchestrate(P3, WeightFn.uniform(3), SetFamily([(0,)]), 1, 1,
                                          SearchBudget(group_size=x)),
        "group_size", 1),
    "flip-spec-first-index": (lambda x: FlipSpec([(x, 0)]), "part index", 0),
    "flip-spec-second-index": (lambda x: FlipSpec([(0, x)]), "part index", 0),
    "greedy-scattered-d": (lambda x: greedy_scattered(P3, [0, 2], x), "distance d", 0),
    "break-from-sep-r": (
        lambda x: break_from_sep(P4, QUAD, x, (Partition.trivial(4), FlipSpec())), "radius", 0),
    "break-witness-radius": (lambda x: verify_break_witness(P3, _witness(radius=x)), "radius", 0),
    "break-witness-m": (lambda x: verify_break_witness(P3, _witness(m=x)), "target size m", 0),
    "gen-path": (lambda x: generators.path(x), "n", 1),
    "gen-cycle": (lambda x: generators.cycle(x), "n", 3),
    "gen-clique": (lambda x: generators.clique(x), "n", 1),
    "gen-star": (lambda x: generators.star(x), "n", 1),
    "gen-grid-rows": (lambda x: generators.grid(x, 2), "rows", 1),
    "gen-grid-cols": (lambda x: generators.grid(2, x), "cols", 1),
    "gen-hypercube": (lambda x: generators.hypercube(x), "dim", 0),
    "gen-gnp": (lambda x: generators.gnp(x, 0.5), "n", 1),
    "gen-halfgraph": (lambda x: generators.halfgraph(x), "n", 1),
    "verify-diam-complement": (lambda x: verify.verify_diam_complement(x),
                               "the diameter sweep's n", 1),
    "verify-bipartite-trichotomy": (lambda x: verify.verify_bipartite_trichotomy(x),
                                    "the bipartite sweep's max_side", 1),
    "verify-bipartite-classification": (lambda x: verify.verify_bipartite_classification(x),
                                        "the bipartite sweep's max_side", 1),
    "verify-conversion": (lambda x: verify.verify_conversion(x, 0), "the random sweep's count", 1),
    "verify-metric-axioms": (lambda x: verify.verify_metric_axioms(x, 0),
                             "the random sweep's count", 1),
    "verify-aggregation": (lambda x: verify.verify_aggregation(x, 0),
                           "the random sweep's count", 1),
    "verify-sauer-shelah": (lambda x: verify.verify_sauer_shelah(x, 0),
                            "the random sweep's count", 1),
}


@pytest.mark.parametrize("kind", ["bool", "float", "below"])
@pytest.mark.parametrize("call, what, least", INTEGER_ARGUMENTS.values(),
                         ids=INTEGER_ARGUMENTS.keys())
def test_one_integer_rule(call, what, least, kind):
    """A bool, a float or a value below its range is a DomainError that
    names the argument: never a TypeError, a ValueError, a CapExceeded or
    a run."""
    value = {"bool": True, "float": least + 0.5, "below": least - 1}[kind]
    with pytest.raises(DomainError) as info:
        call(value)
    assert type(info.value) is DomainError
    assert str(info.value) == f"{what} must be an integer >= {least}, got {value!r}"

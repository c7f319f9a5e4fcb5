"""Flip metrics: worst-case distances over all flips of a partition.

The distance between u and v under a partition is the maximum shortest-path
distance over every flip of that partition; a defining vertex set S induces
the same notion through its neighborhood-class partition, and a family of
defining sets takes the pointwise maximum over its members.  Everything here
is one exact max over the stacks of ``flips.flip_packs``, every member of a
family in one stream that, given the graph, empties each homogeneous block
(removing edges never shortens a path); the BFS folds the max over each
stack as it goes, so no per-flip distance matrix is ever stored.
``_pack_max`` is the one place that picks a stack's layout: a stack that
fills a word is built as words straight from its codes
(``flips.flip_words``) for the bit-sliced fold (``graphs._word_fold``); a
smaller one as its masks XOR the adjacency, in C order, for the folded
float32 loop (``graphs._bfs``).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from . import flips
from .errors import DomainError
from .flips import Partition, check_part_cap
from .graphs import (
    _WORD,
    INF,
    UNREACHED,
    ExtDist,
    Graph,
    _bfs,
    _check_int,
    _vertex_array,
    _word_fold,
    fold_max_distances,
    within,
)

class SetFamily:
    """A family of vertex sets, optionally required to be t-uniform."""

    __slots__ = ("sets", "uniform_size")

    def __init__(self, sets, uniform_size: int | None = None):
        sets = [list(s) for s in sets]
        _vertex_array(None, chain.from_iterable(sets))
        canon = sorted({tuple(sorted(set(s))) for s in sets})
        if uniform_size is not None:
            _check_int(uniform_size, "uniform_size")
            for s in canon:
                if len(s) != uniform_size:
                    raise DomainError(
                        f"set {s} has size {len(s)}, family declared {uniform_size}-uniform"
                    )
        self.sets = tuple(canon)
        self.uniform_size = uniform_size

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def union(self) -> frozenset[int]:
        return frozenset(v for s in self.sets for v in s)

    def __eq__(self, other):
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self.sets == other.sets

    def __repr__(self) -> str:
        return f"SetFamily({list(self.sets)!r})"


def _flip_metric(g: Graph, partitions, sources=None, depth: int | None = None) -> np.ndarray:
    """The absorbing max of the distances over every flip of each of
    ``partitions``, folded pack by pack in the BFS over the flips emptying
    each homogeneous block (a spanning subgraph, no closer anywhere).  With
    ``sources`` each pack's BFS runs only their rows, an (s, n) result,
    and a ``depth`` cuts it as in ``batched_distance_matrices``.  A cell
    UNREACHED so far is settled, so each pack starts with those cut."""
    packs = flips.flip_packs(g.n, ((None, p) for p in partitions), flips.CHUNK, adj=g.adj)
    folded = _pack_max(g, next(packs), sources, depth)
    for pieces in packs:
        pack = _pack_max(g, pieces, sources, depth, folded == UNREACHED)
        folded = fold_max_distances(np.stack([folded, pack]))
    return folded


def _pack_max(g: Graph, pieces, sources, depth, cut=None) -> np.ndarray:
    """The folded max over one pack of ``flips.flip_packs``, built in the
    layout its BFS reads: ``flips.flip_words`` for at least ``_WORD`` flips,
    else the masks XOR the adjacency, in C order, for the float32 loop.
    The word fold starts with the cells of ``cut`` settled; the float32
    loop ignores it."""
    pieces = [(labels, codes) for _, labels, codes in pieces]
    f = sum(len(codes) for _, codes in pieces)
    if f >= _WORD:
        return _word_fold(flips.flip_words(g.adj, pieces), f, sources, depth, cut)
    flipped = np.bitwise_xor(g.adj, flips.flip_adjacency_pack(g.n, pieces), order="C")
    return _bfs(flipped, fold=True, depth=depth, sources=sources)


def _pair_distance(g: Graph, u: int, v: int, partitions) -> ExtDist:
    """The (u, v) distance over ``partitions()``, the pair checked first,
    from u's row alone; INF if any flip separates it."""
    _vertex_array(g.n, (u, v))
    value = _flip_metric(g, partitions(), [u])[0, v]
    return INF if value == UNREACHED else int(value)


def _partition_list(g: Graph, p: Partition, max_parts: int | None) -> list[Partition]:
    if p.n != g.n:
        raise DomainError(f"partition is over n={p.n}, graph has n={g.n}")
    check_part_cap(len(p.parts), max_parts)
    return [p]


def dist_partition_matrix(
    g: Graph, p: Partition, *, max_parts: int | None = None
) -> np.ndarray:
    """All-pairs partition distance, sentinel-coded (-1 = INF)."""
    return _flip_metric(g, _partition_list(g, p, max_parts))


def dist_partition(
    g: Graph, p: Partition, u: int, v: int, *, max_parts: int | None = None
) -> ExtDist:
    """Maximum over all flips of the u-v distance; INF if any flip separates."""
    return _pair_distance(g, u, v, lambda: _partition_list(g, p, max_parts))


def _defining_partition(g: Graph, s, max_parts: int | None) -> np.ndarray:
    """The part labels of defining set ``s``, refused above the part cap."""
    s = g._vertices(s)
    labels = flips._definable_labels(g, s)
    check_part_cap(int(labels.max()) + 1, max_parts, f"the part count of defining set {s}")
    return labels


def dist_definable_matrix(
    g: Graph, s, *, max_parts: int | None = None
) -> np.ndarray:
    return _flip_metric(g, [_defining_partition(g, s, max_parts)])


def dist_definable(
    g: Graph, s, u: int, v: int, *, max_parts: int | None = None
) -> ExtDist:
    return _pair_distance(g, u, v, lambda: [_defining_partition(g, s, max_parts)])


def _family_partitions(g: Graph, fam: SetFamily, max_parts: int | None) -> list:
    """The members' part labels.  The empty family is the metric of the
    trivial partition, matching the defining-set metric with an empty set;
    this keeps family operations total for the orchestration code."""
    members = [_defining_partition(g, s, max_parts) for s in fam]
    return members or _partition_list(g, Partition.trivial(g.n), max_parts)


def dist_family_matrix(
    g: Graph, fam: SetFamily, *, max_parts: int | None = None
) -> np.ndarray:
    """Pointwise max over the members' metrics, folded once over all their flips."""
    return _flip_metric(g, _family_partitions(g, fam, max_parts))


def dist_family(
    g: Graph, fam: SetFamily, u: int, v: int, *, max_parts: int | None = None
) -> ExtDist:
    return _pair_distance(g, u, v, lambda: _family_partitions(g, fam, max_parts))


def _metric_ball(g: Graph, vertices, r: int, partitions) -> frozenset[int]:
    """Union of the radius-r balls around ``vertices`` (one vertex or a
    collection) in the flip metric over ``partitions()``: their rows only,
    BFS'd to depth r, which decides ``within(., r)`` exactly."""
    _check_int(r, "radius")
    vertices = g._vertices(vertices if np.iterable(vertices) else [vertices])
    rows = _flip_metric(g, partitions(), vertices, max(r, 1))
    return frozenset(np.flatnonzero(within(rows, r).any(axis=0)).tolist())


def ball_family(
    g: Graph, fam: SetFamily, vertices, r: int, *, max_parts: int | None = None
) -> frozenset[int]:
    """Family-metric ball around a vertex, or the union over a vertex set.

    For a single vertex this is the intersection of the members' balls; a
    collection of vertices gives the union of their balls.
    """
    return _metric_ball(g, vertices, r, lambda: _family_partitions(g, fam, max_parts))


def ball_partition(
    g: Graph, p: Partition, vertices, r: int, *, max_parts: int | None = None
) -> frozenset[int]:
    """Partition-metric ball around a vertex or the union over a vertex set."""
    return _metric_ball(g, vertices, r, lambda: _partition_list(g, p, max_parts))

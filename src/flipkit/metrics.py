"""Flip metrics: worst-case distances over all flips of a partition.

The distance between u and v under a partition is the maximum shortest-path
distance over every flip of that partition; a defining vertex set S induces
the same notion through its neighborhood-class partition, and a family of
defining sets takes the pointwise maximum over its members.  Everything here
is one exact max over the stacks of ``flips.flip_packs``, each distinct flip
once and every member of a family in the one stream; the BFS folds the max
over each stack as it goes, so no per-flip distance matrix is ever stored.
"""

from __future__ import annotations

import numpy as np

from . import flips
from .errors import DomainError
from .flips import Partition, check_part_cap, definable_partition
from .graphs import (
    INF,
    UNREACHED,
    ExtDist,
    Graph,
    fold_max_distances,
    max_distance_matrix,
    within,
)

class SetFamily:
    """A family of vertex sets, optionally required to be t-uniform."""

    __slots__ = ("sets", "uniform_size")

    def __init__(self, sets, uniform_size: int | None = None):
        canon = sorted({tuple(sorted(set(s))) for s in sets})
        if uniform_size is not None:
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


def _flip_metric(g: Graph, partitions) -> np.ndarray:
    """The absorbing max of the distances over every distinct flip of each
    of ``partitions``, folded inside the BFS pack by pack; the max ignores
    duplicate flips, so skipping them keeps the result exact."""
    packs = flips.flip_packs(g, ((None, p) for p in partitions), flips.CHUNK)
    return fold_max_distances(np.stack([max_distance_matrix(stack) for stack, _ in packs]))


def _pair_distance(g: Graph, u: int, v: int, metric) -> ExtDist:
    """Entry (u, v) of the all-pairs matrix that ``metric()`` computes, the
    pair checked first; INF if any flip separates it."""
    g._check_vertex(u)
    g._check_vertex(v)
    value = metric()[u, v]
    return INF if value == UNREACHED else int(value)


def dist_partition_matrix(
    g: Graph, p: Partition, *, max_parts: int | None = None
) -> np.ndarray:
    """All-pairs partition distance, sentinel-coded (-1 = INF)."""
    if p.n != g.n:
        raise DomainError(f"partition is over n={p.n}, graph has n={g.n}")
    check_part_cap(len(p.parts), max_parts)
    return _flip_metric(g, [p])


def dist_partition(
    g: Graph, p: Partition, u: int, v: int, *, max_parts: int | None = None
) -> ExtDist:
    """Maximum over all flips of the u-v distance; INF if any flip separates."""
    return _pair_distance(g, u, v, lambda: dist_partition_matrix(g, p, max_parts=max_parts))


def _defining_partition(g: Graph, s, max_parts: int | None) -> Partition:
    """The partition of defining set ``s``, refused above the part cap."""
    p = definable_partition(g, s)
    check_part_cap(len(p.parts), max_parts, f"defining set {sorted(set(s))}", "set")
    return p


def dist_definable_matrix(
    g: Graph, s, *, max_parts: int | None = None
) -> np.ndarray:
    return _flip_metric(g, [_defining_partition(g, s, max_parts)])


def dist_definable(
    g: Graph, s, u: int, v: int, *, max_parts: int | None = None
) -> ExtDist:
    return _pair_distance(g, u, v, lambda: dist_definable_matrix(g, s, max_parts=max_parts))


def dist_family_matrix(
    g: Graph, fam: SetFamily, *, max_parts: int | None = None
) -> np.ndarray:
    """Pointwise max over the members' metrics, folded once over all their flips.

    The empty family is the metric of the trivial partition, matching the
    defining-set metric with an empty set; this keeps family operations
    total for the orchestration code.
    """
    if len(fam) == 0:
        return dist_partition_matrix(g, Partition.trivial(g.n), max_parts=max_parts)
    return _flip_metric(g, [_defining_partition(g, s, max_parts) for s in fam])


def dist_family(
    g: Graph, fam: SetFamily, u: int, v: int, *, max_parts: int | None = None
) -> ExtDist:
    return _pair_distance(g, u, v, lambda: dist_family_matrix(g, fam, max_parts=max_parts))


def _metric_ball(g: Graph, vertices, r: int, metric) -> frozenset[int]:
    """Union of the radius-r balls around ``vertices`` (one vertex or a
    collection) in the all-pairs matrix that ``metric()`` computes."""
    if r < 0:
        raise DomainError(f"radius must be nonnegative, got {r}")
    if isinstance(vertices, (int, np.integer)):
        vertices = [int(vertices)]
    vertices = sorted(set(int(v) for v in vertices))
    for v in vertices:
        g._check_vertex(v)
    return frozenset(np.flatnonzero(within(metric()[vertices], r).any(axis=0)).tolist())


def ball_family(
    g: Graph, fam: SetFamily, vertices, r: int, *, max_parts: int | None = None
) -> frozenset[int]:
    """Family-metric ball around a vertex, or the union over a vertex set.

    For a single vertex this is the intersection of the members' balls; a
    collection of vertices gives the union of their balls.
    """
    return _metric_ball(g, vertices, r, lambda: dist_family_matrix(g, fam, max_parts=max_parts))


def ball_partition(
    g: Graph, p: Partition, vertices, r: int, *, max_parts: int | None = None
) -> frozenset[int]:
    """Partition-metric ball around a vertex or the union over a vertex set."""
    return _metric_ball(g, vertices, r, lambda: dist_partition_matrix(g, p, max_parts=max_parts))

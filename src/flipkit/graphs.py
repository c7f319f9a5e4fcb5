"""Dense graph representation and the basic metric toolbox.

Graphs are stored as symmetric, irreflexive boolean adjacency matrices over
vertices 0..n-1.  At desk scale this makes complementation and flipping bulk
bitwise operations, which is what every search in this package leans on.

Distances are nonnegative integers or :data:`INF` for disconnected pairs.
Internally, distance matrices use ``-1`` as the unreachable sentinel; the
public functions translate to :data:`INF` at the boundary.

There are two level loops: ``_bfs``, by float32 frontier products, either
per flip of a stack or folded to the max over it, and ``_word_fold``, the
folded loop bit-sliced 64 flips to a word.  This module folds words but
never builds them: ``flips.flip_words`` does, and ``metrics._pack_max``
is the one place that picks a flip-metric pack's loop.

The word fold settles cells: INF absorbs the max, so a cell that one flip
leaves unreached is INF whatever the other flips do.  Such a cell is no
longer pending, keeps no word of flips stepping, and may be handed to the
fold of the next pack as settled from the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DomainError

#: Distance of a disconnected pair.  Absorbing under addition and ordered
#: above every integer, so ``max`` folds treat it as a top element.
INF = math.inf

#: A shortest-path distance: a nonnegative int, or INF when disconnected.
ExtDist = int | float

#: Sentinel for INF inside integer distance matrices.
UNREACHED = -1

#: Most vertices of a dense graph: its adjacency takes n² bytes and the BFS
#: several float32 copies of it, so larger inputs are refused up front.
_MAX_DENSE_N = 1 << 12


def check_dense_n(n: int, what: str = "the vertex count") -> None:
    """Refuse a vertex count ``n`` that breaks the rule of ``_check_int``,
    and a graph on more than ``_MAX_DENSE_N`` vertices before its n²
    adjacency, or a loop over its vertex pairs, is built."""
    _check_int(n, "n")
    _check_cap(n, _MAX_DENSE_N, what)


def vertex_type_error(v) -> str | None:
    """Why ``v`` is not a vertex by its type, or None: a vertex is an int or
    a numpy integer, never a bool, which numpy would read as a mask."""
    ok = type(v) is int or isinstance(v, np.integer) or (isinstance(v, int) and type(v) is not bool)
    return None if ok else f"vertex {v!r} is not an integer"


def _check_int(x, what: str, least: int = 0) -> None:
    """The one rule for a radius, size, count or cap argument ``x``: an
    integer by the rule of ``vertex_type_error``, at least ``least``."""
    if vertex_type_error(x) or x < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {x!r}")


def _check_cap(value: int, cap: int, what: str, knob: str | None = None) -> None:
    """The one refusal of an exhaustive enumeration: ``what``, of size
    ``value``, above ``cap``.  A cap that a user sets through ``knob`` is
    first checked by ``_check_int``; a constant ceiling (no knob) costs one
    comparison."""
    if knob is not None:
        _check_int(cap, knob, 1)
    if value > cap:
        raise CapExceeded(f"{what} is {value}, above the cap {cap}"
                          + (f"; raise {knob}" if knob else ""))


def _vertex_array(n: int | None, vs, ascending=False, dups: str | None = None, edges=False,
                  where=lambda i: "") -> np.ndarray:
    """The vertices ``vs`` as an int array, (m, 2) for the pairs of ``edges``,
    or a DomainError naming the first bad element i after ``where(i)``: one
    type pass in the given order, then, with an ``n``, numpy checks of range,
    loops and, when ``dups`` ends their message, repeats.  ``ascending``
    checks types first, then the distinct vertices in ascending order."""
    vals, error = [], None
    for x in vs:
        try:
            u, v = x if edges else (x, 0)  # a vertex is checked as the pair (x, 0)
        except (TypeError, ValueError):
            error = f"edge {x!r} is not a pair of vertices"
            break
        if (type(u) is not int or type(v) is not int) and (
                error := vertex_type_error(u) or vertex_type_error(v)):
            error = f"edge ({u!r},{v!r}): {error}" if edges else error
            break
        vals += (u, v) if edges else (u,)
    if ascending and not error:
        vals = sorted(set(vals))
    try:
        a = np.array(vals, dtype=np.int64)
    except OverflowError:  # beyond int64, so out of range: compared as Python ints
        a = np.array(vals, dtype=object)
    if n is not None and not (ascending and error):
        bad = (a < 0) | (a >= n)
        if dups and len(set(vals)) < len(vals):
            o = np.argsort(a, kind="stable")
            bad[o[1:]] |= a[o[1:]] == a[o[:-1]]
        if edges:
            bad = bad[::2] | bad[1::2] | (a[::2] == a[1::2])
        if np.count_nonzero(bad):
            i = int(np.flatnonzero(bad)[0])
            if edges:
                u, v = vals[2 * i:2 * i + 2]
                error = (f"self-loop ({u},{v}) not allowed" if 0 <= u < n and 0 <= v < n
                         else f"edge ({u},{v}) out of range for n={n}")
            else:
                x = vals[i]
                error = f"vertex {x} {dups}" if 0 <= x < n else f"vertex {x} out of range for n={n}"
            raise DomainError(where(i) + error)
    if error:
        raise DomainError(where(len(vals) >> edges) + error)
    return a.reshape(-1, 2) if edges else a


class Graph:
    """An undirected simple graph on vertices ``0..n-1``.

    Instances are immutable after construction (the adjacency array is
    marked read-only), so they are safe to share across parallel workers.
    """

    __slots__ = ("n", "adj")

    def __init__(self, adj: np.ndarray):
        adj = np.asarray(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise DomainError(f"adjacency must be square, got shape {adj.shape}")
        if np.count_nonzero(adj ^ adj.T):
            raise DomainError("adjacency must be symmetric")
        if np.count_nonzero(adj.diagonal()):
            raise DomainError("self-loops are not allowed")
        adj = adj.copy()
        adj.setflags(write=False)
        self.n = adj.shape[0]
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        check_dense_n(n)
        u, v = _vertex_array(n, edges, edges=True).T
        adj = np.zeros((n, n), dtype=bool)
        adj[u, v] = adj[v, u] = True
        return cls(adj)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        check_dense_n(n)
        return cls(np.zeros((n, n), dtype=bool))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        iu, iv = np.nonzero(np.triu(self.adj))
        return list(zip(iu.tolist(), iv.tolist()))

    def num_edges(self) -> int:
        return int(self.adj.sum()) // 2

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        return np.flatnonzero(self.adj[v]).tolist()

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self.adj[v].sum())

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int or not 0 <= v < self.n:  # a plain int in range passes at once
            _vertex_array(self.n, (v,))

    def _vertices(self, vs) -> list[int]:
        """The distinct vertices of ``vs``, ascending, each checked in that order."""
        return _vertex_array(self.n, vs, ascending=True).tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"


@dataclass(frozen=True)
class Bipartite:
    """A bipartite graph whose bipartition is part of the value.

    ``graph`` spans the whole vertex universe of the object; ``left`` and
    ``right`` are disjoint, cover it, and every edge crosses sides.
    """

    graph: Graph
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left, right = (set(_vertex_array(None, side).tolist()) for side in (self.left, self.right))
        if left & right:
            raise DomainError("bipartition sides overlap")
        if left | right != set(range(self.graph.n)):
            raise DomainError("bipartition sides must cover all vertices")
        # the mask is symmetric, so its first entry in row-major order has u < v
        uncrossed = np.flatnonzero(self.graph.adj & ~_cross_pairs(self.n, left))
        if len(uncrossed):
            u, v = divmod(int(uncrossed[0]), self.n)
            raise DomainError(f"edge ({u},{v}) does not cross the bipartition")
        object.__setattr__(self, "left", tuple(sorted(left)))
        object.__setattr__(self, "right", tuple(sorted(right)))

    @property
    def n(self) -> int:
        return self.graph.n

    def cross_mask(self) -> np.ndarray:
        """Boolean (n, n) mask of the crossing vertex pairs."""
        return _cross_pairs(self.n, self.left)


def _cross_pairs(n: int, left) -> np.ndarray:
    """Boolean (n, n) mask of the pairs with exactly one end in ``left``."""
    ind = np.zeros(n, dtype=bool)
    ind[list(left)] = True
    return ind[:, None] ^ ind


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path distances as int64; -1 encodes INF."""
    return batched_distance_matrices(g.adj[None])[0].astype(np.int64)


def batched_distance_matrices(adjs: np.ndarray, depth: int | None = None) -> np.ndarray:
    """All-pairs distances for a stack of adjacency matrices (F, n, n): an
    int16 array of the same shape, -1 for unreachable pairs, one per flip.
    With a ``depth``, the BFS stops after that many levels and every pair
    farther apart than max(depth, 1) reads -1, so ``within(d, R)`` is
    exact for R <= depth."""
    return _bfs(adjs, fold=False, depth=depth)


#: Stacks of at least this many flips drop the words whose flips have only
#: settled cells left in the word fold once fewer than 3/4 of the words are
#: still live.
_COMPACT_MIN = 256

#: Flips per word of the bit-sliced fold.
_WORD = 64

#: Words (32 KiB, an L1 data cache) of the product of one block of columns
#: in a level of the word fold: a small frontier steps in a few calls, and
#: one of this size or more column by column, each temporary in cache.
_STEP_WORDS = 1 << 12


def _word_fold(a: np.ndarray, f: int, sources=None, depth: int | None = None, cut=None) -> np.ndarray:
    """The folded level loop of ``_bfs``, bit-sliced along the ``f`` flips
    of ``a``, the (W, n, n) uint64 words of ``flips.flip_words``: bit i of
    word w is flip 64w + i, so one word operation steps 64 flips.  The
    bits past f start reached, so padding is never pending.  A level ORs
    ``frontier[:, :, j] & a[:, j]`` over the columns j, in blocks of
    ``_STEP_WORDS`` // (W s n) columns reduced at once, or one column at a
    time when a block would hold one, so no temporary outgrows the larger
    of ``_STEP_WORDS`` and the (W, s, n) frontier; a stack of
    ``_COMPACT_MIN`` flips or more drops its finished words.
    A row of a flip whose last level reached nothing has ended, and the
    cells it left are settled: UNREACHED absorbs the max, whatever the
    other flips do.  Each level from the second looks for such rows
    before it steps, with two (W, s) row reductions, and only if it finds
    one clears those cells' bits, in that flip alone (in a flip still
    walking, a bit of ``left`` also marks a vertex not yet visited), and
    adds them to ``cut``, the bool (s, n) settled cells, which a caller may
    seed.  A cut cell is no longer pending, keeps no word live and reads
    UNREACHED."""
    w, n, _ = a.shape
    frontier, left = a, ~a
    left[-1] &= np.uint64((1 << (f - _WORD * (w - 1))) - 1)  # clears the bits past F
    left.reshape(w, n * n)[:, :: n + 1] = 0  # reached at level 0
    if sources is not None:
        frontier, left = a[:, sources], left[:, sources]
    dist = ((frontier[0] | left[0]) != 0).astype(np.int16)
    cut = np.zeros(dist.shape, dtype=bool) if cut is None else cut.copy()
    cutting = cut.any()
    for level in range(1, n if depth is None else depth):
        pending = left.any(0) & ~cut
        if level > 1 and np.count_nonzero(pending):
            ended = _row_or(left) & ~_row_or(frontier)  # (W, s): rows ended with cells left
            if ended.any():
                dead = left & ended[..., None]
                left ^= dead
                cut |= dead.any(0)
                pending &= ~cut
                cutting = True
            if _WORD * len(a) >= _COMPACT_MIN:
                live = ((left != 0) & ~cut).any((1, 2)) if cutting else left.any((1, 2))
                if 4 * np.count_nonzero(live) < 3 * len(a):
                    a, frontier, left = a[live], frontier[live], left[live]
        if not np.count_nonzero(pending):
            break
        dist += pending
        ft, at = frontier.transpose(2, 0, 1)[..., None], a.transpose(1, 0, 2)[:, :, None]
        block = _STEP_WORDS // left.size
        if block > 1:
            reached = np.bitwise_or.reduce(ft[:block] & at[:block], axis=0)
            for j in range(block, n, block):
                reached |= np.bitwise_or.reduce(ft[j:j + block] & at[j:j + block], axis=0)
        else:
            reached = ft[0] & at[0]
            step = np.empty_like(reached)
            for j in range(1, n):
                reached |= np.bitwise_and(ft[j], at[j], out=step)
        reached &= left
        if not np.count_nonzero(reached):
            break
        left ^= reached
        frontier = reached
    else:  # cut at the depth: what is left is farther
        pending = left.any(0)
    dist[pending | cut] = UNREACHED
    return dist


def _row_or(x: np.ndarray) -> np.ndarray:
    """The OR of (W, s, n) words over n, in an (n, W, s) copy: about twice
    as fast as a reduce along their short rows."""
    return np.bitwise_or.reduce(np.ascontiguousarray(x.transpose(2, 0, 1)), axis=0)


def _bfs(adjs, fold: bool, depth: int | None = None, sources=None) -> np.ndarray:
    """The float32 level loop.  All sources advance by float32 frontier
    products, ``frontier @ adj > 0`` on the pairs not yet reached; a pair's
    distance is 1 plus the levels at which it was unreached.  Exact at any
    n: a product entry is a sum of nonnegative terms, so it is positive iff
    one term is, however it rounds.  Unreached sets only shrink, so the max
    over flips adds ``left.any(0)`` per level.
    Distances are below n, so no ``depth`` runs levels 2..n-1; a depth runs
    levels 2..depth, and the pairs left unreached read UNREACHED.  With
    ``sources`` the frontier holds only their rows, (F, s, n).  The stack
    is taken in C order, so that the products run on contiguous matrices."""
    adjs = np.ascontiguousarray(adjs, dtype=bool)
    f, n, _ = adjs.shape
    a = frontier = adjs.astype(np.float32)
    left = ~adjs
    left.reshape(f, n * n)[:, :: n + 1] = False  # reached at level 0
    if sources is not None:
        adjs, frontier, left = adjs[:, sources], a[:, sources], left[:, sources]
    dist = (adjs[0] | left[0] if fold else adjs | left).astype(np.int16)
    for _ in range(1, n if depth is None else depth):
        pending = left.any(0) if fold else left
        if not np.count_nonzero(pending):
            return dist
        dist += pending
        reached = np.matmul(frontier, a) > 0
        reached &= left
        if not np.count_nonzero(reached):
            break
        left ^= reached
        frontier = reached.astype(np.float32)
    else:  # cut at the depth: what is left is farther
        pending = left.any(0) if fold else left
    dist[pending] = UNREACHED
    return dist


def fold_max_distances(batch: np.ndarray) -> np.ndarray:
    """Elementwise max over axis 0 of sentinel-coded distance matrices.

    -1 acts as the absorbing top element (any unreachable flip dominates).
    """
    return np.where((batch == UNREACHED).any(axis=0), UNREACHED, batch.max(axis=0))


def within(dist: np.ndarray, r: int) -> np.ndarray:
    """Mask of the entries of a sentinel-coded distance array at most ``r``."""
    return (dist != UNREACHED) & (dist <= r)


def diameters(dist: np.ndarray) -> np.ndarray:
    """The diameter of each matrix of a sentinel-coded distance stack
    (..., n, n), sentinel-coded too: UNREACHED when some pair is, and 0
    for n = 0."""
    unreached = (dist == UNREACHED).any(axis=(-2, -1))
    return np.where(unreached, UNREACHED, dist.max(axis=(-2, -1), initial=0))


#: Pieces of at most this many vertices share one padded size: a BFS call
#: costs 10-40 us, a 16-vertex piece in a stack 2-5 us (numpy, one core).
_SMALL_PIECE = 16

#: Cells (P N^2) of one padded stack at most, unless one piece alone is
#: larger: about 17 MB of BFS buffers.
_STACK_CELLS = 1 << 20


def _piece_diameters(adj: np.ndarray, pieces: list[tuple]) -> list[tuple[int, int]]:
    """``diameters`` of each piece (vs, left) of ``adj`` and of its
    complement: the subgraph induced on the vertex list ``vs``, or with
    ``left`` (positions in ``vs``) the bipartite block between those and
    the rest, complemented bipartitely.  The pieces and complements of one
    size class - at most ``_SMALL_PIECE`` vertices, or else (2^(c-1), 2^c]
    - are padded with isolated vertices to the largest of them, in stacks
    of at most ``_STACK_CELLS`` cells, each built by one gather and run by
    one BFS.  Padding changes no distance between a piece's own vertices,
    so each reads its (m, m) corner."""
    halves = [(vs, left, flip) for vs, left in pieces for flip in (False, True)]
    sizes = [len(vs) for vs, _, _ in halves]
    size_class = lambda m: (max(m, _SMALL_PIECE) - 1).bit_length()
    order = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
    out, start = [0] * len(sizes), 0
    while start < len(order):
        n = sizes[order[start]]
        stop = start + max(1, _STACK_CELLS // max(n * n, 1))
        chunk = [i for i in order[start:stop] if size_class(sizes[i]) == size_class(n)]
        start += len(chunk)
        # a pair inside a piece may hold an edge iff its two labels differ:
        # positions in a subgraph, sides in a bipartite block
        idx = np.zeros((len(chunk), n), dtype=np.intp)
        labels, flip = np.tile(np.arange(n), (len(chunk), 1)), np.zeros(len(chunk), dtype=bool)
        for j, i in enumerate(chunk):
            vs, left, flip[j] = halves[i]
            idx[j, : len(vs)] = vs
            if left is not None:
                labels[j, : len(vs)] = -1
                labels[j, list(left)] = -2
        inside = np.arange(n) < np.array([sizes[i] for i in chunk])[:, None]
        inside = inside[:, :, None] & inside[:, None]
        pairs = inside & (labels[:, :, None] != labels[:, None])
        stack = adj[idx[:, :, None], idx[:, None]] & pairs
        stack ^= pairs & flip[:, None, None]
        d = batched_distance_matrices(stack)
        d[~inside] = 0
        for i, diam in zip(chunk, diameters(d).tolist()):
            out[i] = diam
    return list(zip(out[::2], out[1::2]))


def component_labels(adjs: np.ndarray) -> np.ndarray:
    """(F, n) component labels of a stack of adjacency matrices (n >= 1): a
    vertex's label is the minimum member of its component, the first vertex
    it reaches."""
    return (batched_distance_matrices(adjs) != UNREACHED).argmax(-1)


def diameter(g: Graph) -> ExtDist:
    """Max pairwise distance; INF iff disconnected (n >= 2), 0 for n = 1."""
    if g.n == 0:
        raise DomainError("diameter of the empty graph is undefined")
    diam = int(diameters(distance_matrix(g)))
    return INF if diam == UNREACHED else diam


def ball(g: Graph, v: int, r: int) -> frozenset[int]:
    """Vertices at distance at most ``r`` from ``v``; r=0 gives {v}."""
    _check_int(r, "radius")
    g._check_vertex(v)
    return frozenset(np.flatnonzero(within(distance_matrix(g)[v], r)).tolist())


# ---------------------------------------------------------------------------
# Complements and induced subgraphs
# ---------------------------------------------------------------------------


def complement(g: Graph) -> Graph:
    adj = ~g.adj
    np.fill_diagonal(adj, False)
    return Graph(adj)


def induced(g: Graph, s) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``s`` plus the new-index -> old-vertex table."""
    order = g._vertices(s)
    return Graph(_induced_adj(g.adj, order)), tuple(order)


def _induced_adj(adj: np.ndarray, vs, left=None) -> np.ndarray:
    """``adj`` induced on the vertex list ``vs``; with ``left``, positions
    in ``vs``, only its edges between those and the rest."""
    sub = adj[np.ix_(vs, vs)]
    if left is not None:
        sub &= _cross_pairs(len(vs), left)
    return sub


def bipartite_induced(g: Graph, a, b) -> tuple[Bipartite, tuple[int, ...]]:
    """Bipartite subgraph on (a, b): only crossing edges are kept."""
    a, b = set(a), set(b)
    if a & b:
        raise DomainError("bipartite sides must be disjoint")
    a_sorted = g._vertices(a)
    order = a_sorted + g._vertices(b)
    left = tuple(range(len(a_sorted)))
    sub = _induced_adj(g.adj, order, left)
    return Bipartite(Graph(sub), left, tuple(range(len(left), len(order)))), tuple(order)

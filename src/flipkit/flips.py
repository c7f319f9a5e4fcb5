"""Vertex partitions, flip specifications, and flip application.

A flip of a graph is determined by a partition of the vertex set together
with a set of part pairs: for every chosen pair {i, j} (i = j allowed) the
adjacency between part i and part j is complemented, never touching the
diagonal.  Specs over a canonically ordered partition are plain sets of
index pairs, so they compare, dedupe, and compose by symmetric difference.

Every search and every flip metric walks one stream: ``flip_packs``
packs the distinct flips of consecutive partitions, given as part labels,
into cell-bounded stacks of pieces, and each caller builds the layout its
BFS reads; given a flip metric's graph, it empties each complete or empty
block.  ``flip_adjacency_pack`` builds masks through ``pair_index``,
from n alone, and a flip of a graph is its adjacency XOR its mask; a pack
of many pieces shifts each flip's code by its cells' pair indices, in the
narrowest unsigned dtype of its codes, through one buffer of at most
``_SHIFT_BYTES``, with no per-piece Python.  ``flip_words``, the one
builder of words, builds a flip-metric pack of 64 or more flips straight
from its codes, bit-sliced 64 flips to a word (``metrics._pack_max``
picks the layout).  ``first_flip`` judges the packs
of a search: ``candidate_packs`` of a candidate stream, or ``raw_packs``,
the packs of every partition into at most k parts, which depend on no
graph and are stored once per (n, k, CHUNK) under a byte budget.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, count, islice, repeat
from typing import Iterator

import numpy as np

from .errors import DomainError
from .graphs import _WORD, Graph, _check_cap, _check_int, _vertex_array, batched_distance_matrices

#: Default cap on partition sizes fed to exhaustive flip enumeration.
DEFAULT_MAX_PARTS = 4

#: Flips per batched stack, for every enumeration over flip specs; the BFS
#: keeps float32 copies of a stack, so 1 << 14 would raise peak memory.
CHUNK = 1 << 12

_ENV_MAX_PARTS = "FLIPKIT_MAX_PARTS"

#: How a refusal at the part cap says to raise it.
_PART_KNOB = f"max_parts or {_ENV_MAX_PARTS}"

#: The most parts a flip code holds: 11 parts have 66 pairs, a code 64 bits.
_CODE_PARTS = 10


def resolve_max_parts(max_parts: int | None = None) -> int:
    """The part cap of every exhaustive enumeration: ``max_parts`` if given,
    else FLIPKIT_MAX_PARTS if set, else 4, by the rule of ``_check_int``."""
    if max_parts is not None:
        _check_int(max_parts, "the part cap", 1)
        return max_parts
    raw = os.environ.get(_ENV_MAX_PARTS)
    if raw is None:
        return DEFAULT_MAX_PARTS
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    _check_int(cap if cap >= 1 else raw, _ENV_MAX_PARTS, 1)  # a refusal quotes the text
    return cap


def check_part_cap(parts: int, max_parts: int | None, what="the part count") -> None:
    """Refuse ``what``, which has ``parts`` parts, above the part cap."""
    _check_cap(parts, resolve_max_parts(max_parts), what, _PART_KNOB)


def _first_labels(keys) -> list[int]:
    """Each key's rank among the distinct keys, in order of first
    occurrence: the one grouping of vertices by a key, and canonical part
    labels, since parts are ordered by their minimum vertex."""
    rank: dict[object, int] = {}
    return [rank.setdefault(key, len(rank)) for key in keys]


class Partition:
    """An ordered partition of ``0..n-1`` into nonempty disjoint parts.

    Parts are canonically ordered by their minimum vertex, and each part is
    sorted ascending, so equal partitions compare equal and flip specs over
    part indices are reproducible.
    """

    __slots__ = ("n", "parts", "_part_of")

    def __init__(self, n: int, parts) -> None:
        _check_int(n, "n")
        parts = [list(p) for p in parts]
        if not all(parts):
            raise DomainError("partition contains an empty part")
        _vertex_array(None, chain.from_iterable(parts))  # before the sort compares them
        parts = sorted((sorted(set(p)) for p in parts), key=lambda p: p[0])
        flat = _vertex_array(n, chain.from_iterable(parts), dups="appears in two parts")
        if len(flat) < n:
            missing = np.setdiff1d(np.arange(n), flat).tolist()
            raise DomainError(f"partition does not cover vertices {missing}")
        labels = np.empty(n, dtype=np.int64)
        labels[flat] = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
        self._store(labels.tolist())

    def _store(self, labels: list[int]) -> None:
        """Set the partition whose canonical part labels are ``labels``."""
        parts = [[] for _ in range(max(labels, default=-1) + 1)]
        for v, i in enumerate(labels):
            parts[i].append(v)
        self.n, self.parts = len(labels), tuple(map(tuple, parts))
        self._part_of = np.array(labels, dtype=np.int64)
        self._part_of.setflags(write=False)

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        _check_int(n, "n", 1)
        return cls(n, [range(n)])

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        _check_int(n, "n")
        return cls(n, [[v] for v in range(n)])

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Build from a per-vertex label sequence (labels may be anything),
        with no check: ranked by first occurrence, the labels are canonical."""
        p = cls.__new__(cls)
        p._store(_first_labels(labels))
        return p

    def __len__(self) -> int:
        return len(self.parts)

    def part_of(self, v: int) -> int:
        return int(self._part_of[v])

    def part_labels(self) -> np.ndarray:
        return self._part_of

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """A partition is array-like as its part labels."""
        return np.array(self._part_of, dtype=dtype, copy=copy)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and self.parts == other.parts

    def __hash__(self):
        return hash((self.n, self.parts))

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, parts={self.parts})"

    def refines(self, other: "Partition") -> bool:
        """Every part of self is contained in some part of ``other``."""
        if self.n != other.n:
            return False
        return all(
            len({other.part_of(v) for v in p}) == 1 for p in self.parts
        )


@dataclass(frozen=True)
class FlipSpec:
    """A set of unordered part-index pairs to complement; loops allowed."""

    pairs: frozenset[tuple[int, int]]

    def __init__(self, pairs=()) -> None:
        normalized = set()
        for i, j in pairs:
            _check_int(i, "part index")
            _check_int(j, "part index")
            normalized.add((min(i, j), max(i, j)))
        object.__setattr__(self, "pairs", frozenset(normalized))

    @classmethod
    def from_bits(cls, num_parts: int, bits: int) -> "FlipSpec":
        """Decode a binary counter value over the canonical pair order."""
        order = canonical_pairs(num_parts)
        return cls(p for t, p in enumerate(order) if (bits >> t) & 1)

    def compose(self, other: "FlipSpec") -> "FlipSpec":
        """Composition of two flips over the same partition."""
        return FlipSpec(self.pairs ^ other.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return f"FlipSpec({sorted(self.pairs)})"


def canonical_pairs(num_parts: int) -> list[tuple[int, int]]:
    """All part-index pairs (i, j) with i <= j, in lexicographic order."""
    _check_int(num_parts, "num_parts")
    return [(i, j) for i in range(num_parts) for j in range(i, num_parts)]


def num_flips(num_parts: int) -> int:
    """Number of flip specs of a partition: 2^(p(p+1)/2).

    This counts specs, not graphs: the self pair of a singleton part
    toggles nothing, so the number of distinct flips is 2^(pairs - singleton
    parts); ``distinct_flip_codes`` enumerates those.
    """
    _check_int(num_parts, "num_parts")
    return 1 << (num_parts * (num_parts + 1) // 2)


def _counter_chunks(total: int) -> Iterator[np.ndarray]:
    """The counter values 0..total-1, ascending, in uint64 chunks of CHUNK."""
    for start in range(0, total, CHUNK):
        yield np.arange(start, min(start + CHUNK, total), dtype=np.uint64)


def _pair_count(k: int) -> int:
    """The canonical pairs of k parts, refused above the _CODE_PARTS parts
    whose pairs a 64-bit code holds."""
    _check_cap(k, _CODE_PARTS, "the part count of a flip code")
    return k * (k + 1) // 2


#: Flip streams of at most this many cells (flips times n^2) ignore a graph:
#: reading it costs more than it saves (break-even near 128 flips at n = 8).
_SHORT_STREAM = 1 << 13

#: The read-only chunks of every whole code stream with no graph (2^L <=
#: CHUNK codes over L live pairs), per (live self pairs, raw): at CHUNK =
#: 4096, 46 profiles of at most 5 parts, so at most 92 keys.  A whole stream
#: is one chunk at any CHUNK that holds it, so no smaller CHUNK reads it.
_WHOLE: dict[tuple[bytes, bool], tuple[np.ndarray, ...]] = {}


def distinct_flip_codes(p, raw=False, adj=None) -> Iterator[np.ndarray]:
    """Counter codes of the distinct flips of ``p`` (part labels or a
    Partition), ascending, in nonempty read-only chunks of at most CHUNK.

    The self pair (i, i) of a singleton part is a no-op, since flips never
    touch the diagonal.  The 2^L codes over the L remaining "live" canonical
    pairs give every distinct flip once, the counter spread over their
    positions.  Given ``adj``, a stream of over ``_SHORT_STREAM`` cells
    empties each complete or empty block (bit 1 if complete) and varies the
    rest: removing edges never shortens a path, so these flips attain every
    cell's max over all flips.  ``raw`` says ``p`` comes from
    ``partition_labels``, in order, and drops the merge repeats of
    ``_drop_merges``: a merged partition has fewer parts and a smaller
    restricted growth string, so it came earlier.  A whole stream with no
    ``adj`` is built once, into ``_WHOLE``."""
    live = np.bincount(np.asarray(p)) > 1
    k, key, ones = len(live), (live.tobytes(), raw), 0
    size = 1 << (_pair_count(k) - k + np.count_nonzero(live))
    adj = None if adj is None or size * len(adj) ** 2 <= _SHORT_STREAM else adj
    if adj is None and size <= CHUNK and key in _WHOLE:
        return iter(_WHOLE[key])
    if adj is None:
        free = np.ones(_pair_count(k), dtype=bool)
        free[_pair_table()[k - 1].diagonal()[:k]] = live  # the self pairs
    else:
        cells, edges = _pair_cells(p, k, adj)
        nonempty = edges > 0
        full = nonempty & (edges == cells)
        free, ones = nonempty ^ full, sum(1 << t for t in full.nonzero()[0].tolist())
    free = free.nonzero()[0].astype(np.uint64)
    low = min(len(free), CHUNK.bit_length() - 1)
    spread, high = _subset_sums(free[:low], ones), free[low:].tolist()

    def chunks():
        for c in range(1 << len(high)):
            codes = spread | np.uint64(sum(1 << t for b, t in enumerate(high) if c >> b & 1))
            if raw:
                codes = _drop_merges(codes, live)
            if len(codes):
                codes.setflags(write=False)
                yield codes

    if adj is not None or size > CHUNK:
        return chunks()
    _WHOLE[key] = tuple(chunks())
    return iter(_WHOLE[key])


@cache
def _counter_bits() -> np.ndarray:
    """Read-only (8, 256) uint64: row b holds bit b of the counters 0..255,
    so its leading (w, 2^w) corner holds the bits of a w-bit counter."""
    bits = np.arange(256, dtype=np.uint64) >> np.arange(8, dtype=np.uint64)[:, None] & np.uint64(1)
    bits.setflags(write=False)
    return bits


def _subset_sums(positions: np.ndarray, base: int = 0) -> np.ndarray:
    """``base`` OR each counter value 0..2^w - 1 with bit b moved to
    ``positions[b]``, w = len(positions), distinct uint64 positions that
    ``base`` leaves clear, in counter order: a table read per 8 bits or
    fewer, and a w of more than 8 splits into two halves, high and low."""
    if len(positions) > 8:
        half = len(positions) // 2
        return (_subset_sums(positions[half:], base)[:, None] | _subset_sums(positions[:half])).ravel()
    bits = _counter_bits()[: len(positions), : 1 << len(positions)]
    return np.add.reduce(bits << positions[:, None], axis=0, initial=np.uint64(base))


def _drop_merges(codes: np.ndarray, live: np.ndarray) -> np.ndarray:
    """``codes``, over parts whose self pairs are ``live``, less the merge
    repeats: the flips with two parts a < b that have the same bit to every
    other part and an a-b bit equal to their live self bits, which are also
    flips of the partition merging a and b."""
    k = len(live)
    shifts = _pair_table()[k - 1, :k, :k].astype(np.uint64)  # the pair (a, b), a = b too
    bits = ((codes >> shifts[..., None]) & np.uint64(1)).astype(bool)
    repeat = np.zeros(len(codes), dtype=bool)
    for a, b in combinations(range(k), 2):
        # bits a-c and b-c agree for each other part c, and for c = a, b where live
        cols = [c for c in range(k) if live[c] or c not in (a, b)]
        repeat |= (bits[a, cols] == bits[b, cols]).all(0)
    return codes[~repeat]


def _check_spec(p: Partition, spec: FlipSpec) -> None:
    for i, j in spec.pairs:
        if j >= len(p.parts):
            raise DomainError(
                f"spec pair ({i},{j}) out of range for a {len(p.parts)}-part partition"
            )


def _canonical_index(k, i, j):
    """The canonical index of the part pair {i, j} among k parts, elementwise."""
    i, j = np.minimum(i, j), np.maximum(i, j)
    return i * k - i * (i - 1) // 2 + j - i


@cache
def _pair_table() -> np.ndarray:
    """The read-only ``_canonical_index`` of every [top, i, j] with i, j and
    ``top`` at most _CODE_PARTS: the pairs among top + 1 parts, built on
    first use."""
    labels = np.arange(_CODE_PARTS + 1)
    table = _canonical_index(labels[:, None, None] + 1, labels[:, None], labels)
    table.setflags(write=False)
    return table


def pair_index(p) -> np.ndarray:
    """(..., n, n) int64 map from each cell (u, v) to the canonical index of
    the part pair of the labels of u and v; the diagonal, which no flip
    touches, is -1.  ``p`` is a Partition or part labels of shape (..., n),
    one partition per row.  Labels up to _CODE_PARTS, so every partition
    with a flip code, gather the map from ``_pair_table``; larger ones, as
    ``reconstruct_flip_spec`` meets, take the closed form."""
    labels = np.asarray(p)
    n = labels.shape[-1]
    top = labels.max(-1, initial=-1, keepdims=True)[..., None]
    rows, cols = labels[..., :, None], labels[..., None, :]
    try:
        index = _pair_table()[top, rows, cols]
    except IndexError:
        index = _canonical_index(top + 1, rows, cols)
    index.reshape(*labels.shape[:-1], n * n)[..., :: n + 1] = -1
    return index


def _pair_cells(p, k: int, *masks) -> list[np.ndarray]:
    """Each canonical pair's cells in ``p`` (k parts), then its cells in each (n, n) mask."""
    index = pair_index(p)
    index += 1
    return [np.bincount(cells, minlength=k * (k + 1) // 2 + 1)[1:]
            for cells in (index.ravel(), *(index[m] for m in masks))]


def apply_flip(g: Graph, p: Partition, spec: FlipSpec) -> Graph:
    """The flip of ``g`` given by complementing every pair of parts in ``spec``."""
    if p.n != g.n:
        raise DomainError(f"partition is over n={p.n}, graph has n={g.n}")
    _check_spec(p, spec)
    adj = g.adj.copy()
    for i, j in spec.pairs:
        pi = list(p.parts[i])
        pj = list(p.parts[j])
        adj[np.ix_(pi, pj)] ^= True
        if i != j:
            adj[np.ix_(pj, pi)] ^= True
    np.fill_diagonal(adj, False)
    return Graph(adj)


def enumerate_flips(
    g: Graph, p: Partition, *, max_parts: int | None = None
) -> Iterator[tuple[FlipSpec, Graph]]:
    """Yield every flip spec of ``p`` exactly once, in binary-counter order.

    Spec k includes canonical pair t iff bit t of k is set, so the identity
    flip comes first and the enumeration is reproducible.  Specs that differ
    only in the self pair of a singleton part yield the same graph.
    """
    if p.n != g.n:
        raise DomainError(f"partition is over n={p.n}, graph has n={g.n}")
    k = len(p.parts)
    check_part_cap(k, max_parts)
    for codes in _counter_chunks(num_flips(k)):
        for bits, adj in zip(codes.tolist(), flip_adjacency_batch(g, p, codes)):
            yield FlipSpec.from_bits(k, bits), Graph(adj)


def flip_packs(n: int, partitions, size: int, raw=False, adj=None) -> Iterator[list]:
    """The distinct flips of ``partitions``, ``(info, labels)`` pairs over
    ``0..n-1``, in stream and counter order, as packs of ``(info, labels,
    codes)`` pieces, which each caller builds in the layout its BFS reads.
    The first pack holds ``size`` flips, then twice the last, at most CHUNK
    flips and CHUNK * 100 cells (flips times n^2) but at least one flip.  A
    partition is drawn only while the current pack still needs flips, and a
    refusal is raised where it is drawn.  ``raw`` and ``adj`` are passed
    to ``distinct_flip_codes``."""
    most = min(CHUNK, max(1, CHUNK * 100 // max(n, 1) ** 2))
    room = size = min(size, most)
    pieces = []
    for info, labels in partitions:
        for codes in distinct_flip_codes(labels, raw, adj):
            while len(codes):
                pieces.append((info, labels, codes[:room]))
                codes, room = codes[room:], room - len(pieces[-1][2])
                if not room:
                    yield pieces
                    pieces, room = [], (size := min(2 * size, most))
    if pieces:
        yield pieces


def candidate_packs(n: int, candidates, raw=False, skip=0) -> Iterator[tuple]:
    """The packs that ``first_flip`` judges: the ``flip_packs`` of
    ``candidates``, ``(tag, partition)`` pairs, from 64 flips, as masks and
    pieces, ended by ``(None, totals)``.  A partition is given by its
    canonical part labels (or a Partition); None marks a set over the part
    cap, which is skipped.  A piece's info is ``(tag, tried, skipped,
    specs)``, the counts before its candidate, and the totals are those
    counts after the last.  The first ``skip`` packs are drawn, not built."""
    tried = skipped = specs = 0

    def draw():
        nonlocal tried, skipped, specs
        for tag, p in candidates:
            if p is None:
                skipped += 1
                continue
            labels = np.asarray(p, dtype=np.int64)
            k = int(labels.max()) + 1  # the one read of the part count
            yield (tag, tried, skipped, specs), labels
            tried, specs = tried + 1, specs + (1 << k * (k + 1) // 2)

    for pieces in islice(flip_packs(n, draw(), 64, raw), skip, None):
        yield flip_adjacency_pack(n, [(labels, codes) for _, labels, codes in pieces]), pieces
    yield None, (tried, skipped, specs)


#: The raw streams of ``raw_packs`` per (n, max_parts, CHUNK): the packs
#: stored from the start of the stream, as bit-packed masks and pieces, a
#: one-item list of their bytes, and at most one spare stream, the one that
#: yielded the last stored pack, by the index of the pack it yields next.
_RAW: dict[tuple[int, int, int], tuple[list, list, dict]] = {}

#: The bytes of packed masks, labels and codes that _RAW may hold; a pack
#: that does not fit is built and judged, but not stored.
_RAW_BUDGET = 4 << 20

_RAW_LOCK = threading.Lock()


def raw_packs(n: int, max_parts: int) -> Iterator[tuple]:
    """The ``candidate_packs`` of every partition of ``0..n-1`` into at most
    ``max_parts`` parts, merge repeats dropped.  No mask depends on a graph,
    so the stream is stored in _RAW as it is first read, pack by pack while
    _RAW holds at most _RAW_BUDGET bytes, and later reads take the stored
    packs.  A reader past them continues the spare stream, or a new one
    that draws the packs before but builds no mask of them, and keeps it
    while its packs go unstored.
    A pack read from a stream yields the masks it built, never an unpacked
    copy.  Its callers cap n."""
    key = (n, max_parts, CHUNK)
    with _RAW_LOCK:
        packs, size, spare = _RAW[key] = _RAW.get(key) or ([], [0], {})
    stream = None  # this reader's own stream, past the stored packs
    for i in count():
        if i < len(packs):
            (bits, pieces), stream, masks = packs[i], None, None
        else:
            stream = stream or spare.pop(i, None)
            if stream is None:
                stream = candidate_packs(n, zip(repeat(None), partition_labels(n, max_parts)), True, i)
            masks, pieces = next(stream)
            bits = None if masks is None else np.packbits(masks.reshape(len(masks), -1), axis=1)
            nbytes = 0 if bits is None else bits.nbytes + sum(
                labels.nbytes + codes.nbytes for _, labels, codes in pieces)
            with _RAW_LOCK:
                if i == len(packs) and sum(s[1][0] for s in _RAW.values()) + nbytes <= _RAW_BUDGET:
                    packs.append((bits, pieces))
                    size[0] += nbytes
                    spare.clear()
                    spare[i + 1], stream = stream, None
        if bits is None:
            yield None, pieces
            return
        # a stored pack is unpacked in the yield, so no local keeps it past first_flip's del
        yield (masks if masks is not None else
               np.unpackbits(bits, axis=1, count=n * n).view(bool).reshape(-1, n, n)), pieces


def first_flip(
    g: Graph, packs, first_hit, depth: int | None = None
) -> tuple[int, int, int, tuple | None]:
    """Judge ``packs``, of ``candidate_packs`` or ``raw_packs``, to the
    first flip that ``first_hit`` accepts: (candidates tried, candidates
    skipped, specs tried, hit).

    Each pack's flips ``g.adj ^ masks`` are BFS'd to ``depth`` levels (the
    largest radius ``first_hit`` reads through ``within``) and judged by
    ``first_hit`` (distance stack to first accepted index, or None) as one
    stack.  Dead self-pair specs repeat earlier graphs, and so do the merge
    repeats that a raw stream skips, so the hit is a distinct code c, and
    c + 1 of its partition's specs were tried (all ``num_flips`` of a
    missed one).  The hit is ``(tag, p, spec, apply_flip(g, p, spec))``,
    the rebuild callers re-verify on.  Drawing is pure, so no counter or
    output moves: the counts stop at the hit.
    """
    for masks, pieces in packs:
        if masks is None:
            return (*pieces, None)
        stack = np.bitwise_xor(g.adj, masks, order="C")
        del masks  # frees the mask buffer before the BFS allocates its own
        hit = first_hit(batched_distance_matrices(stack, depth))
        if hit is not None:
            for (tag, before, skips, spec_count), labels, codes in pieces:
                if hit < len(codes):
                    break
                hit -= len(codes)
            code = int(codes[hit])
            p = Partition.from_labels(labels.tolist())
            spec = FlipSpec.from_bits(len(p.parts), code)
            return before + 1, skips, spec_count + code + 1, (tag, p, spec, apply_flip(g, p, spec))
    raise RuntimeError("a pack stream ended without its totals")


def _pack_index(pieces) -> tuple[np.ndarray, np.ndarray, int, np.dtype]:
    """The (pieces, n^2) ``pair_index`` of each piece's cells, the codes in
    stack order, the pairs of the widest piece, and the narrowest unsigned
    dtype that holds them.  A pack of one piece is neither stacked nor
    concatenated."""
    if len(pieces) == 1:
        (labels, codes), = pieces
        index = pair_index(labels).reshape(1, -1)
    else:
        codes = np.concatenate([c for _, c in pieces])
        labels = np.concatenate([np.asarray(p) for p, _ in pieces]).reshape(len(pieces), -1)
        index = pair_index(labels).reshape(len(pieces), -1)
    pairs = int(index.max(initial=0)) + 1
    return index, codes, pairs, np.min_scalar_type((1 << pairs) - 1)


def _bit_rows(pieces) -> tuple[np.ndarray, np.ndarray]:
    """The ``_pack_index`` of ``pieces`` and the (pairs + 1, flips) bool
    rows of the code bits, shifted in its dtype; the diagonal's last row
    is False."""
    index, codes, pairs, dtype = _pack_index(pieces)
    rows = np.zeros((pairs + 1, len(codes)), dtype=bool)
    rows[:-1] = (codes.astype(dtype) >> np.arange(pairs, dtype=dtype)[:, None]) & dtype.type(1)
    return index, rows


#: The bytes of the one buffer in which a pack of many pieces shifts its
#: codes, a block of flips at a time, so no (flips, n^2) array of codes is
#: built: 64K cells of 2-byte codes (4 or 5 parts), 16K of 8-byte ones.
_SHIFT_BYTES = 1 << 17


def flip_adjacency_pack(n: int, pieces) -> np.ndarray:
    """Boolean (flips, n, n) masks of a stack of flips over ``0..n-1``,
    given as (partition, codes) pieces in stack order: a flip of a graph is
    its adjacency XOR its mask.  A pack of one piece gathers each cell's
    row of ``_bit_rows`` at its ``pair_index``, as a transposed view,
    flips fastest; the float32 BFS takes the XOR in C order.  A pack of
    more pieces takes its flips a block of ``_SHIFT_BYTES`` at a time:
    each flip's row of the ``pair_index`` of its piece, in the narrowest
    unsigned dtype of its codes (8 bytes a cell for 8 to 10 parts), shifts
    the flip's code right in place, and bit 0 of each shifted code is the
    cell's mask; the diagonal is cleared."""
    if len(pieces) == 1:
        index, rows = _bit_rows(pieces)
        return rows[index[0]].T.reshape(rows.shape[1], n, n)
    index, codes, _, dtype = _pack_index(pieces)
    index[:, :: n + 1] = 0  # a shift in range, not -1: the diagonal is cleared below
    index, codes = index.astype(dtype), codes.astype(dtype, copy=False)[:, None]
    piece = np.repeat(np.arange(len(pieces)), [len(c) for _, c in pieces])
    masks = np.empty((len(codes), n * n), dtype=bool)
    step = max(1, _SHIFT_BYTES // max(n * n * dtype.itemsize, 1))
    shifts = np.empty((min(step, len(codes)), n * n), dtype=dtype)
    for start in range(0, len(codes), step):
        ids = piece[start:start + step]
        block = shifts[: len(ids)]
        np.take(index, ids, axis=0, out=block, mode="clip")  # in range; "raise" would buffer
        np.right_shift(codes[start:start + step], block, out=block)
        np.bitwise_and(block, dtype.type(1), out=block)
        masks[start:start + step] = block
    masks[:, :: n + 1] = False
    return masks.reshape(len(codes), n, n)


def flip_words(adj: np.ndarray, pieces) -> np.ndarray:
    """The flips ``adj ^ flip_adjacency_pack(n, pieces)`` as the (W, n, n)
    uint64 words of ``graphs._word_fold``, bit i of word w being flip
    64w + i, without a bool stack: the ``_bit_rows`` are packed into (W,
    pairs + 1) words once, zero past F, each piece gathers its cells'
    words, masked in a word it shares with the piece before or after it
    (a pack of one piece gathers them unmasked), and the cells of edges
    are inverted.  This is the one word packer."""
    (index, rows), n, ones = _bit_rows(pieces), len(adj), ~np.uint64(0)
    packed = np.zeros((len(rows), 8 * -(-rows.shape[1] // _WORD)), dtype=np.uint8)
    packed[:, : -(-rows.shape[1] // 8)] = np.packbits(rows, axis=1, bitorder="little")
    words = packed.view("<u8").T.copy()
    if len(index) == 1:
        out = words[:, index[0]]
    else:
        out, start = np.zeros((len(words), n * n), dtype=np.uint64), 0
        for piece, (_, c) in zip(index, pieces):
            end = start + len(c)
            span = slice(start // _WORD, -(-end // _WORD))
            block = words[span, piece]
            block[0] &= ones << np.uint64(start % _WORD)
            block[-1] &= ones >> np.uint64(-end % _WORD)
            out[span] |= block
            start = end
    np.bitwise_xor(out, ones, out=out, where=adj.reshape(-1))
    return out.reshape(len(words), n, n)


def flip_adjacency_batch(
    g: Graph, p: Partition, spec_indices: np.ndarray
) -> np.ndarray:
    """The flips of ``p`` with the given counter values, as one stack of
    ``flip_adjacency_pack``; codes are uint64, so partitions with more than
    64 canonical pairs (11 or more parts) are refused whatever the cap."""
    _pair_count(len(p.parts))
    masks = flip_adjacency_pack(g.n, [(p, np.asarray(spec_indices, dtype=np.uint64))])
    return np.bitwise_xor(g.adj, masks, order="C")


def _definable_labels(g: Graph, s) -> np.ndarray:
    """The part labels of ``definable_partition(g, s)``, with no Partition,
    for ``s`` checked and sorted as ``Graph._vertices`` returns it: v in
    ``s`` keyed by v, every other vertex by its row of ``g.adj[:, s]``,
    ranked by first occurrence."""
    if g.n == 0:
        raise DomainError("definable partition of an empty graph is undefined")
    k, in_s = len(s), set(s)
    rows = g.adj[:, s].tobytes()
    keys = (v if v in in_s else rows[v * k:(v + 1) * k] for v in range(g.n))
    return np.array(_first_labels(keys), dtype=np.int64)


def definable_partition(g: Graph, s) -> Partition:
    """Singletons for ``s`` plus classes of equal neighborhood inside ``s``.

    The result has at most |s| + 2^|s| parts; empty neighborhood classes
    simply never materialize.
    """
    return Partition.from_labels(_definable_labels(g, g._vertices(s)).tolist())


def definable_candidates(
    g: Graph, s_max: int, max_parts: int | None
) -> Iterator[tuple[tuple[int, ...], np.ndarray | None]]:
    """Defining sets by ascending size, lexicographic within a size, with
    the part labels of their partitions; a set over the part cap or over
    _CODE_PARTS comes with None.  The arguments are checked at the call."""
    _check_int(s_max, "s_max")
    cap = min(resolve_max_parts(max_parts), _CODE_PARTS)
    sets = (s for size in range(min(s_max, g.n) + 1) for s in combinations(range(g.n), size))
    return ((s, labels if labels.max() < cap else None)
            for s, labels in ((s, _definable_labels(g, s)) for s in sets))


def refine(p: Partition, q: Partition) -> Partition:
    """Coarsest common refinement: nonempty pairwise intersections."""
    if p.n != q.n:
        raise DomainError(f"partitions over different universes: {p.n} vs {q.n}")
    return Partition.from_labels(zip(p.part_labels().tolist(), q.part_labels().tolist()))


def partition_labels(n: int, max_parts: int) -> Iterator[list[int]]:
    """Part labels of the partitions of ``0..n-1`` into at most ``max_parts``
    parts: restricted growth strings in counter order, trivial partition
    first.  The arguments are checked at the call."""
    _check_int(n, "n", 1)
    _check_int(max_parts, "max_parts", 1)

    def strings():
        labels = [0] * n
        while True:
            yield labels[:]
            i = n - 1
            while i and labels[i] >= min(max(labels[:i]) + 1, max_parts - 1):
                i -= 1
            if not i:
                return
            labels[i:] = [labels[i] + 1] + [0] * (n - 1 - i)

    return strings()


def enumerate_partitions(n: int, max_parts: int) -> Iterator[Partition]:
    """All partitions of ``0..n-1`` into at most ``max_parts`` parts, in
    the order of ``partition_labels``."""
    return map(Partition.from_labels, partition_labels(n, max_parts))


def reconstruct_flip_spec(g: Graph, flipped: Graph, p: Partition) -> FlipSpec:
    """Recover the spec turning ``g`` into ``flipped`` over partition ``p``,
    every pair in one pass: ``_pair_cells`` counts each pair's cells and
    its differing cells.  A pair is in the spec when all of its cells
    differ, and there is one (a singleton's self pair has none).

    Raises DomainError, naming the first such pair in canonical order, if
    some but not all cells of a pair differ, i.e. ``flipped`` is not a
    flip of ``g`` over ``p``.
    """
    if g.n != flipped.n or p.n != g.n:
        raise DomainError("graphs and partition must share one vertex set")
    i, j = np.triu_indices(len(p.parts))
    cells, differing = _pair_cells(p, len(p.parts), g.adj ^ flipped.adj)
    uneven = np.flatnonzero((differing > 0) & (differing < cells))
    if uneven.size:
        t = uneven[0]
        raise DomainError(
            f"difference is not uniform on parts ({i[t]},{j[t]}); "
            "not a flip over this partition"
        )
    return FlipSpec(zip(i[differing > 0].tolist(), j[differing > 0].tolist()))

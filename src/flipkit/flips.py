"""Vertex partitions, flip specifications, and flip application.

A flip of a graph is determined by a partition of the vertex set together
with a set of part pairs: for every chosen pair {i, j} (i = j allowed) the
adjacency between part i and part j is complemented, never touching the
diagonal.  Specs over a canonically ordered partition are plain sets of
index pairs, so they compare, dedupe, and compose by symmetric difference.

Every search and every flip metric walks one stream: ``flip_packs``
packs the distinct flips of consecutive partitions, given as part labels,
into cell-bounded stacks; ``flip_adjacency_pack`` builds every stack
through ``pair_index``.  ``first_flip`` judges the packs of a search.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import CapExceeded, DomainError
from .graphs import Graph, batched_distance_matrices

#: Default cap on partition sizes fed to exhaustive flip enumeration.
DEFAULT_MAX_PARTS = 4

#: Flips per batched stack, for every enumeration over flip specs; the BFS
#: keeps float32 copies of a stack, so 1 << 14 would raise peak memory.
CHUNK = 1 << 12

_ENV_MAX_PARTS = "FLIPKIT_MAX_PARTS"


def resolve_max_parts(max_parts: int | None = None) -> int:
    """The part cap of every exhaustive enumeration: ``max_parts`` if given,
    else FLIPKIT_MAX_PARTS if set, else 4.  A non-integer or non-positive
    cap is a DomainError."""
    source, raw, parse = "the part cap", max_parts, operator.index
    if raw is None:
        raw = os.environ.get(_ENV_MAX_PARTS, DEFAULT_MAX_PARTS)
        source, parse = _ENV_MAX_PARTS, int
    try:
        cap = parse(raw)
    except (TypeError, ValueError):
        cap = 0
    if cap < 1:
        raise DomainError(f"{source} must be a positive integer, got {raw!r}")
    return cap


def check_part_cap(parts: int, max_parts: int | None, what="partition", smaller=None) -> None:
    """Refuse ``what``, which has ``parts`` parts, above the part cap; the
    hint names only the knobs that every caller takes."""
    cap = resolve_max_parts(max_parts)
    if parts > cap:
        raise CapExceeded(
            f"{what}: {parts} parts, above the part cap {cap}; use a smaller {smaller or what} "
            f"or raise the cap with the max_parts argument or {_ENV_MAX_PARTS}"
        )


class Partition:
    """An ordered partition of ``0..n-1`` into nonempty disjoint parts.

    Parts are canonically ordered by their minimum vertex, and each part is
    sorted ascending, so equal partitions compare equal and flip specs over
    part indices are reproducible.
    """

    __slots__ = ("n", "parts", "_part_of")

    def __init__(self, n: int, parts) -> None:
        cleaned = [tuple(sorted(set(p))) for p in parts]
        if any(len(p) == 0 for p in cleaned):
            raise DomainError("partition contains an empty part")
        cleaned.sort(key=lambda p: p[0])
        seen: set[int] = set()
        for p in cleaned:
            for v in p:
                if not 0 <= v < n:
                    raise DomainError(f"vertex {v} out of range for n={n}")
                if v in seen:
                    raise DomainError(f"vertex {v} appears in two parts")
                seen.add(v)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise DomainError(f"partition does not cover vertices {missing}")
        self.n = n
        self.parts = tuple(cleaned)
        part_of = np.empty(n, dtype=np.int64)
        for i, p in enumerate(self.parts):
            part_of[list(p)] = i
        part_of.setflags(write=False)
        self._part_of = part_of

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        if n == 0:
            raise DomainError("cannot partition an empty vertex set")
        return cls(n, [range(n)])

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, [[v] for v in range(n)])

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Build from a per-vertex label sequence (labels may be anything)."""
        labels = list(labels)
        groups: dict[object, list[int]] = {}
        for v, lab in enumerate(labels):
            groups.setdefault(lab, []).append(v)
        return cls(len(labels), groups.values())

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
            if i < 0 or j < 0:
                raise DomainError(f"part indices must be nonnegative, got ({i},{j})")
            normalized.add((min(i, j), max(i, j)))
        object.__setattr__(self, "pairs", frozenset(normalized))

    @classmethod
    def from_bits(cls, num_parts: int, bits: int) -> "FlipSpec":
        """Decode a binary counter value over the canonical pair order."""
        order = canonical_pairs(num_parts)
        return cls(p for t, p in enumerate(order) if (bits >> t) & 1)

    def to_bits(self, num_parts: int) -> int:
        index = {p: t for t, p in enumerate(canonical_pairs(num_parts))}
        bits = 0
        for p in self.pairs:
            bits |= 1 << index[p]
        return bits

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
    return [(i, j) for i in range(num_parts) for j in range(i, num_parts)]


def num_flips(num_parts: int) -> int:
    """Number of flip specs of a partition: 2^(p(p+1)/2).

    This counts specs, not graphs: the self pair of a singleton part
    toggles nothing, so the number of distinct flips is 2^(pairs - singleton
    parts); ``distinct_flip_codes`` enumerates those.
    """
    return 1 << (num_parts * (num_parts + 1) // 2)


def _counter_chunks(total: int) -> Iterator[np.ndarray]:
    """The counter values 0..total-1, ascending, in uint64 chunks of CHUNK."""
    for start in range(0, total, CHUNK):
        yield np.arange(start, min(start + CHUNK, total), dtype=np.uint64)


def _pair_count(k: int) -> int:
    """The canonical pairs of k parts, refused above the 64 bits of a code."""
    npairs = k * (k + 1) // 2
    if npairs > 64:
        raise CapExceeded(f"{k} parts give {npairs} part pairs; flip codes hold at most 64")
    return npairs


def distinct_flip_codes(p) -> Iterator[np.ndarray]:
    """Counter codes of the distinct flips of ``p`` (part labels or a
    Partition), ascending, in chunks.

    The self pair (i, i) of a singleton part is a no-op, since flips never
    touch the diagonal.  The 2^L codes over the L remaining "live" canonical
    pairs give every distinct flip once, each the counter value with a zero
    bit inserted at each dead position, in the full canonical pair order.
    """
    sizes = np.bincount(np.asarray(p)).tolist()
    k = len(sizes)
    dead = [i * k - i * (i - 1) // 2 for i in range(k) if sizes[i] == 1]
    for codes in _counter_chunks(1 << (_pair_count(k) - len(dead))):
        for d in dead:
            codes = (codes & ((1 << d) - 1)) | (codes >> d << (d + 1))
        yield codes


def _check_spec(p: Partition, spec: FlipSpec) -> None:
    for i, j in spec.pairs:
        if j >= len(p.parts):
            raise DomainError(
                f"spec pair ({i},{j}) out of range for a {len(p.parts)}-part partition"
            )


def pair_index(p) -> np.ndarray:
    """(..., n, n) int64 map from each cell (u, v) to the canonical index of
    the part pair of the labels of u and v; the diagonal, which no flip
    touches, is -1.  ``p`` is a Partition or part labels of shape (..., n),
    one partition per row."""
    labels = np.asarray(p)
    k = labels.max(-1, initial=-1, keepdims=True)[..., None] + 1
    i = np.minimum(labels[..., :, None], labels[..., None, :])
    j = np.maximum(labels[..., :, None], labels[..., None, :])
    index = i * k - i * (i - 1) // 2 + j - i
    diagonal = np.arange(labels.shape[-1])
    index[..., diagonal, diagonal] = -1
    return index


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


def flip_packs(g: Graph, partitions, size: int) -> Iterator[tuple[np.ndarray, list]]:
    """The distinct flips of ``partitions``, ``(info, labels)`` pairs, in
    stream and counter order, as built stacks, each with its ``(info,
    labels, codes)`` pieces.  The first stack holds ``size`` flips, then
    twice the last, at most CHUNK flips and CHUNK * 100 cells (flips times
    n^2) but at least one flip.  A partition is drawn only while the
    current stack still needs flips, and a refusal raised while drawing is
    raised only after the stack of the flips drawn before it."""
    runs = ((info, p, codes) for info, p in partitions for codes in distinct_flip_codes(p))
    most = min(CHUNK, max(1, CHUNK * 100 // max(g.n, 1) ** 2))
    size, rest, end = min(size, most), None, None
    while end is None:
        pieces, room = [], size
        while room and end is None:
            try:
                info, labels, codes = rest or next(runs)
            except (StopIteration, CapExceeded) as exc:
                end = exc
                break
            pieces.append((info, labels, codes[:room]))
            rest = (info, labels, codes[room:]) if len(codes) > room else None
            room -= len(pieces[-1][2])
        if pieces:
            yield flip_adjacency_pack(g, [(labels, codes) for _, labels, codes in pieces]), pieces
        size = min(2 * size, most)
    if isinstance(end, CapExceeded):
        raise end


def first_flip(g: Graph, candidates, first_hit) -> tuple[int, int, int, tuple | None]:
    """Walk ``candidates``, ``(tag, partition)`` pairs, to the first flip
    that ``first_hit`` accepts: (candidates tried, candidates skipped,
    specs tried, hit).

    A partition is given by its part labels (or a Partition); None marks a
    set over the part cap, which is skipped.  The candidates' flips come
    in ``flip_packs`` of 64 flips first; each is BFS'd and judged by
    ``first_hit`` (distance stack to first accepted index, or None) as one
    stack.  Dead self-pair specs repeat earlier graphs, so the hit is a
    distinct code c, and c + 1 of its partition's specs were tried (all
    ``num_flips`` of a missed one).  The hit is ``(tag, p, spec,
    apply_flip(g, p, spec))``, the rebuild callers re-verify on.  Drawing
    is pure, so no counter or output moves: the counts stop at the hit.
    """
    tried = skipped = specs = 0

    def draw():
        nonlocal tried, skipped, specs
        for tag, p in candidates:
            if p is None:
                skipped += 1
                continue
            labels = np.asarray(p)
            yield (tag, tried, skipped, specs), labels
            tried, specs = tried + 1, specs + num_flips(int(labels.max()) + 1)

    for stack, pieces in flip_packs(g, draw(), 64):
        hit = first_hit(batched_distance_matrices(stack))
        if hit is not None:
            for (tag, before, skips, spec_count), labels, codes in pieces:
                if hit < len(codes):
                    break
                hit -= len(codes)
            code = int(codes[hit])
            p = Partition.from_labels(labels.tolist())
            spec = FlipSpec.from_bits(len(p.parts), code)
            return before + 1, skips, spec_count + code + 1, (tag, p, spec, apply_flip(g, p, spec))
    return tried, skipped, specs, None


def flip_adjacency_pack(g: Graph, pieces) -> np.ndarray:
    """Boolean (flips, n, n) adjacency matrices of a stack of flips, given
    as (partition, codes) pieces in stack order.  Each cell reads the bit
    of its flip's code at its ``pair_index``: with one row of flips per
    bit position, each piece takes its cells' rows in one gather, and no
    index the size of the stack is built."""
    codes = np.concatenate([c for _, c in pieces]).astype(np.uint64)
    index = pair_index(np.stack([np.asarray(p) for p, _ in pieces])).reshape(len(pieces), -1)
    shifts = np.arange(index.max(initial=0) + 1, dtype=np.uint64)[:, None]
    rows = ((codes >> shifts) & np.uint64(1)).astype(bool)
    cells = np.empty((g.n * g.n, len(codes)), dtype=bool)
    start = 0
    for piece, (_, c) in zip(index, pieces):
        cells[:, start:start + len(c)] = rows[piece, start:start + len(c)]
        start += len(c)
    cells[:: g.n + 1] = False
    return np.bitwise_xor(g.adj, cells.T.reshape(len(codes), g.n, g.n), order="C")


def flip_adjacency_batch(
    g: Graph, p: Partition, spec_indices: np.ndarray
) -> np.ndarray:
    """The flips of ``p`` with the given counter values, as one stack of
    ``flip_adjacency_pack``; codes are uint64, so partitions with more than
    64 canonical pairs (11 or more parts) are refused whatever the cap."""
    _pair_count(len(p.parts))
    return flip_adjacency_pack(g, [(p, np.asarray(spec_indices, dtype=np.uint64))])


def definable_partition(g: Graph, s) -> Partition:
    """Singletons for ``s`` plus classes of equal neighborhood inside ``s``.

    The result has at most |s| + 2^|s| parts; empty neighborhood classes
    simply never materialize.
    """
    s_sorted = sorted(set(s))
    for v in s_sorted:
        g._check_vertex(v)
    if g.n == 0:
        raise DomainError("definable partition of an empty graph is undefined")
    rows = g.adj[:, s_sorted]
    in_s = set(s_sorted)
    return Partition.from_labels(v if v in in_s else rows[v].tobytes() for v in range(g.n))


def definable_candidates(
    g: Graph, s_max: int, max_parts: int | None
) -> Iterator[tuple[tuple[int, ...], np.ndarray | None]]:
    """Defining sets by ascending size, lexicographic within a size, with
    the part labels of their partitions; a set over the part cap comes with
    None.  The arguments are checked at the call."""
    if s_max < 0:
        raise DomainError(f"s_max must be nonnegative, got {s_max}")
    cap = resolve_max_parts(max_parts)
    sets = (s for size in range(min(s_max, g.n) + 1) for s in combinations(range(g.n), size))
    return ((s, p.part_labels() if len(p.parts) <= cap else None)
            for s, p in ((s, definable_partition(g, s)) for s in sets))


def refine(p: Partition, q: Partition) -> Partition:
    """Coarsest common refinement: nonempty pairwise intersections."""
    if p.n != q.n:
        raise DomainError(f"partitions over different universes: {p.n} vs {q.n}")
    return Partition.from_labels(zip(p.part_labels().tolist(), q.part_labels().tolist()))


def partition_labels(n: int, max_parts: int) -> Iterator[list[int]]:
    """Part labels of the partitions of ``0..n-1`` into at most ``max_parts``
    parts: restricted growth strings in counter order, trivial partition
    first.  The arguments are checked at the call."""
    if n < 1:
        raise DomainError("cannot partition an empty vertex set")
    if max_parts < 1:
        raise DomainError(f"max_parts must be positive, got {max_parts}")

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
    """Recover the spec turning ``g`` into ``flipped`` over partition ``p``.

    Raises DomainError if the difference is not uniform on some pair of
    parts, i.e. ``flipped`` is not a flip of ``g`` over ``p``.
    """
    if g.n != flipped.n or p.n != g.n:
        raise DomainError("graphs and partition must share one vertex set")
    diff = g.adj ^ flipped.adj
    index = pair_index(p)
    pairs = []
    for t, (i, j) in enumerate(canonical_pairs(len(p.parts))):
        values = diff[index == t]
        if values.all() and values.size:
            pairs.append((i, j))
        elif values.any():
            raise DomainError(
                f"difference is not uniform on parts ({i},{j}); "
                "not a flip over this partition"
            )
    return FlipSpec(pairs)

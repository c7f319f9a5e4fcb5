"""Turning a partition metric into the metric of one concrete flip.

The conversion flips, per part, the inside of the part so that the
complement of the result has diameter at most 3, and per pair of parts a
block structure chosen so that every surviving edge joins vertices that are
close in both the original bipartite piece and its complement.  The output
is a refinement of the input partition together with a flip over it whose
edges all certify a partition-metric distance of at most 6, so balls in the
flipped graph sit inside 6x-radius balls of the partition metric.

Every diameter and connectivity the conversion decides on is read off
padded BFS stacks (``graphs._piece_diameters``), in two phases.  The first
holds every part and its complement and every pair block and its bipartite
complement; it decides the parts and classifies the pairs.  The second
holds the split blocks of the degenerate pairs and their complements, and
runs only when some pair is degenerate.  ``classify_bipartite`` and
``bipartite_flip`` run the same code on one block.  A bound is read off
the sentinel-coded readings through ``graphs.within``, and connectivity
as a reading other than ``UNREACHED``.

Also here: the exhaustive witness search for emulating an arbitrary flip by
a neighborhood-definable one with a 5x radius blowup, exposed as a budgeted
search plus an independent containment checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import DomainError
from .flips import (
    FlipSpec,
    Partition,
    candidate_packs,
    definable_candidates,
    first_flip,
    reconstruct_flip_spec,
)
from .graphs import (
    UNREACHED,
    Bipartite,
    Graph,
    _check_int,
    _induced_adj,
    _piece_diameters,
    component_labels,
    distance_matrix,
    within,
)

_PART_DIAMETER_BOUND = 3
_PAIR_DIAMETER_BOUND = 6
_EMULATION_BLOWUP = 5


class BipartiteCaseTag(Enum):
    """Structure of a bipartite graph that is disconnected along with its
    bipartite complement - or the trivial tag when it is not."""

    CONNECTED_OR_COMPLEMENT = "connected_or_complement"
    TWO_BICLIQUES = "two_bicliques"
    ISOLATED_AND_DOMINATING = "isolated_and_dominating"


@dataclass(frozen=True)
class BipartiteCase:
    """Verified classification record.

    For TWO_BICLIQUES, ``blocks`` holds ((U1, V1), (U2, V2)).  For
    ISOLATED_AND_DOMINATING, ``side`` names where the isolated vertex
    ``v_minus`` and the dominating vertex ``v_plus`` live, and ``chosen_u``
    is the lowest-index pivot on the opposite side used to split that side
    by its neighborhood (None when the opposite side is empty).
    """

    tag: BipartiteCaseTag
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    side: str | None = None
    v_minus: int | None = None
    v_plus: int | None = None
    chosen_u: int | None = None


#: The one record of the trivial case, shared by every trivial pair.
_TRIVIAL = BipartiteCase(tag=BipartiteCaseTag.CONNECTED_OR_COMPLEMENT)


def _block(b: Bipartite) -> tuple:
    """``b`` as a block (vs, left, right, diam, diam_c) of its own adjacency."""
    vs = tuple(range(b.n))
    return (vs, b.left, b.right, *_piece_diameters(b.graph.adj, [(vs, b.left)])[0])


def _classify(adj, vs, left, right, diam, diam_c) -> BipartiteCase:
    """The case of the bipartite block of ``adj`` between the positions
    ``left`` and ``right`` of the vertex list ``vs``, in positions, given
    the readings of it and of its bipartite complement."""
    if diam != UNREACHED or diam_c != UNREACHED:
        return _TRIVIAL
    block = _induced_adj(adj, vs, left)
    degree = block.sum(1).tolist()

    # Isolated vertex first, scanning the right side then the left, lowest
    # index first.  The dominating partner lives on the same side; every
    # edge crosses sides, so it has degree |other|.
    for side_name, side, other in (("right", right, left), ("left", left, right)):
        isolated = [v for v in side if not degree[v]]
        if not isolated:
            continue
        dominating = [v for v in side if degree[v] == len(other)]
        if not dominating:
            raise RuntimeError(
                "an isolated vertex has no dominating partner although both "
                "complements are disconnected; the bipartite classification is broken"
            )
        return BipartiteCase(
            tag=BipartiteCaseTag.ISOLATED_AND_DOMINATING,
            side=side_name,
            v_minus=min(isolated),
            v_plus=min(dominating),
            chosen_u=min(other) if other else None,
        )

    # components ascend by minimum member, each split into its left and right
    labels = component_labels(block[None])[0]
    left_set = set(left)
    blocks = tuple(
        (tuple(v for v in comp if v in left_set), tuple(v for v in comp if v not in left_set))
        for comp in (np.flatnonzero(labels == c).tolist() for c in np.unique(labels).tolist())
    )
    if len(blocks) != 2 or not all(u and v and block[np.ix_(u, v)].all() for u, v in blocks):
        raise RuntimeError(
            "no vertex is isolated, yet the components are not exactly two bicliques; "
            "the bipartite classification is broken"
        )
    return BipartiteCase(tag=BipartiteCaseTag.TWO_BICLIQUES, blocks=blocks)


def classify_bipartite(b: Bipartite) -> BipartiteCase:
    """Classify a bipartite graph both of whose complements are disconnected;
    when ``b`` or its bipartite complement is connected, the tag is trivial."""
    return _classify(b.graph.adj, *_block(b))


@dataclass(frozen=True)
class BipartiteFlipResult:
    """Splits of the two sides, the flipped graph, and what was decided."""

    u_split: tuple[tuple[int, ...], tuple[int, ...]]
    v_split: tuple[tuple[int, ...], tuple[int, ...]]
    flipped: Bipartite
    case: BipartiteCase
    #: (i, j) block indices, 1-based over (u_split[i-1], v_split[j-1]),
    #: whose adjacency was complemented.
    flipped_blocks: frozenset[tuple[int, int]]


def bipartite_flip(b: Bipartite) -> BipartiteFlipResult:
    """Split both sides into at most two groups and flip blocks so that every
    surviving edge joins vertices within distance 6 in both ``b`` and its
    bipartite complement.

    The split is trivial unless both ``b`` and its complement are
    disconnected; then either the two biclique components or the
    neighborhood of the lowest-index pivot determine it.  A block is flipped
    exactly when its diameter is at most 6, which leaves every nonempty
    block of the result with a complement of diameter at most 6.
    """
    adj = b.graph.adj.copy()
    ((case, u_split, v_split, flipped_blocks),) = _flip_blocks(b.graph.adj, [_block(b)], adj)
    return BipartiteFlipResult(
        u_split=u_split,
        v_split=v_split,
        flipped=Bipartite(Graph(adj), b.left, b.right),
        case=case,
        flipped_blocks=flipped_blocks,
    )


def _flip_blocks(adj: np.ndarray, blocks: list[tuple], out: np.ndarray) -> list[tuple]:
    """``bipartite_flip`` of each block (vs, left, right, diam, diam_c) of
    ``adj`` - see ``_classify`` - as (case, u_split, v_split, flipped
    blocks), in positions; the flipped blocks are complemented in ``out``.
    A block of the trivial case is its one split block and reads diam and
    diam_c; the split blocks of the other cases and their bipartite
    complements share one more ``_piece_diameters``."""
    splits, pieces = [], []
    for vs, left, right, diam, diam_c in blocks:
        case = _classify(adj, vs, left, right, diam, diam_c)
        u_split, v_split = (left, ()), (right, ())
        if case.tag is BipartiteCaseTag.TWO_BICLIQUES:
            (u1, v1), (u2, v2) = case.blocks
            u_split, v_split = (u1, u2), (v1, v2)
        elif case.chosen_u is not None:
            # the pivot's neighborhood splits the side opposite the pivot
            side = right if case.side == "right" else left
            n1 = tuple(v for v in side if adj[vs[case.chosen_u], vs[v]])
            split = (n1, tuple(v for v in side if v not in n1))
            u_split, v_split = (u_split, split) if case.side == "right" else (split, v_split)
        splits.append((case, u_split, v_split))
        if case.tag is not BipartiteCaseTag.CONNECTED_OR_COMPLEMENT:
            for _, ui, vj in _cells(u_split, v_split):
                pieces.append(([vs[v] for v in ui + vj], range(len(ui))))

    readings = iter(_piece_diameters(adj, pieces))
    results = []
    for (vs, _, _, diam, diam_c), (case, u_split, v_split) in zip(blocks, splits):
        whole = case.tag is BipartiteCaseTag.CONNECTED_OR_COMPLEMENT
        flipped_blocks = set()
        for ij, ui, vj in _cells(u_split, v_split):
            cell_d, cell_dc = (diam, diam_c) if whole else next(readings)
            if within(cell_d, _PAIR_DIAMETER_BOUND):
                rows, cols = [vs[v] for v in ui], [vs[v] for v in vj]
                out[np.ix_(rows, cols)] ^= True
                out[np.ix_(cols, rows)] ^= True
                flipped_blocks.add(ij)
            elif not within(cell_dc, _PAIR_DIAMETER_BOUND):
                raise RuntimeError(
                    "bipartite block has large diameter on both sides; "
                    "the case split above is broken"
                )
        results.append((case, u_split, v_split, frozenset(flipped_blocks)))
    return results


def _cells(u_split, v_split) -> list[tuple]:
    """The nonempty blocks ((i, j), u_i, v_j) of a split, 1-based."""
    return [
        ((i, j), ui, vj)
        for i, ui in enumerate(u_split, start=1)
        for j, vj in enumerate(v_split, start=1)
        if ui and vj
    ]


@dataclass(frozen=True)
class PartCertificate:
    part: int
    flipped: bool
    #: which branch held: the complement inside the part already had small
    #: diameter ("compl_diam_le3"), or the part itself did and was flipped
    #: ("self_diam_le3").
    branch: str


@dataclass(frozen=True)
class PairCertificate:
    """What was decided for the pair of parts ``parts`` = (x, y).

    ``case`` is in positions of the vertex list ``p.parts[x] +
    p.parts[y]``: its ``v_minus``, ``v_plus``, ``chosen_u`` and ``blocks``
    index that list.  ``left_split`` and ``right_split``, the cells of
    parts x and y, are vertex ids, each cell ascending."""

    parts: tuple[int, int]
    case: BipartiteCase
    left_split: tuple[tuple[int, ...], tuple[int, ...]]
    right_split: tuple[tuple[int, ...], tuple[int, ...]]
    flipped_blocks: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class ConversionResult:
    refined: Partition
    flipped: Graph
    #: spec over ``refined`` reproducing ``flipped`` from the input graph.
    refined_spec: FlipSpec
    part_certificates: tuple[PartCertificate, ...]
    pair_certificates: tuple[PairCertificate, ...]


def convert(g: Graph, p: Partition) -> ConversionResult:
    """Build a refinement of ``p`` and a flip over it whose every edge joins
    vertices at partition-metric distance at most 6 (at most 3 inside a
    part), hence balls of the flip sit inside 6x balls of the metric.

    The refinement collects, for each part, the common refinement of the
    two-cell splits produced for that part against every other part, so its
    size is at most |p| * 2^|p|.
    """
    if p.n != g.n:
        raise DomainError(f"partition is over n={p.n}, graph has n={g.n}")
    adj = g.adj.copy()
    # phase 1: every part and its complement, every pair block and its
    # bipartite complement
    pairs = list(combinations(range(len(p.parts)), 2))
    blocks = []
    for x, y in pairs:
        k, m = len(p.parts[x]), len(p.parts[x]) + len(p.parts[y])
        blocks.append((p.parts[x] + p.parts[y], tuple(range(k)), tuple(range(k, m))))
    pieces = [(part, None) for part in p.parts] + [(vs, left) for vs, left, _ in blocks]
    readings = _piece_diameters(g.adj, pieces)

    part_certs = []
    for x, (part, (diam, diam_c)) in enumerate(zip(p.parts, readings)):
        if within(diam_c, _PART_DIAMETER_BOUND):
            part_certs.append(PartCertificate(part=x, flipped=False, branch="compl_diam_le3"))
        else:
            if not within(diam, _PART_DIAMETER_BOUND):
                raise RuntimeError(
                    "part and its complement both have diameter above 3; "
                    "the diameter dichotomy is broken"
                )
            adj[np.ix_(part, part)] ^= ~np.eye(len(part), dtype=bool)
            part_certs.append(PartCertificate(part=x, flipped=True, branch="self_diam_le3"))

    # refined label of v: its part, then each pair {x, y} whose split puts v
    # in the second cell (trivial splits keep the second cell empty)
    labels = [(x,) for x in p.part_labels().tolist()]
    pair_certs = []
    flips = _flip_blocks(g.adj, [b + d for b, d in zip(blocks, readings[len(p.parts):])], adj)
    for (x, y), (vs, _, _), (case, u_split, v_split, flipped_blocks) in zip(pairs, blocks, flips):
        to_orig = lambda cell: tuple(sorted(vs[i] for i in cell))
        left_split = (to_orig(u_split[0]), to_orig(u_split[1]))
        right_split = (to_orig(v_split[0]), to_orig(v_split[1]))
        for v in left_split[1] + right_split[1]:
            labels[v] += (x, y)
        pair_certs.append(
            PairCertificate(
                parts=(x, y),
                case=case,
                left_split=left_split,
                right_split=right_split,
                flipped_blocks=flipped_blocks,
            )
        )

    refined = Partition.from_labels(labels)
    flipped = Graph(adj)
    refined_spec = reconstruct_flip_spec(g, flipped, refined)
    return ConversionResult(
        refined=refined,
        flipped=flipped,
        refined_spec=refined_spec,
        part_certificates=tuple(part_certs),
        pair_certificates=tuple(pair_certs),
    )


# ---------------------------------------------------------------------------
# Witness search: emulating a flip by a definable flip
# ---------------------------------------------------------------------------


def ball_containment_ok(inner: Graph, outer: Graph, r_max: int) -> bool:
    """Whether every r-ball of ``inner`` (r <= r_max) sits inside the
    5r-ball of ``outer`` around the same vertex."""
    if inner.n != outer.n:
        raise DomainError("graphs must share one vertex set")
    d_in = distance_matrix(inner)
    d_out = distance_matrix(outer)
    return bool(within(d_out, _EMULATION_BLOWUP * d_in)[within(d_in, r_max)].all())


@dataclass(frozen=True)
class EmulationWitness:
    defining_set: tuple[int, ...]
    spec: FlipSpec
    flipped: Graph


@dataclass
class EmulationSearchResult:
    witness: EmulationWitness | None
    sets_tried: int = 0
    sets_skipped: int = 0
    flips_tried: int = 0

    def __bool__(self) -> bool:
        return self.witness is not None


def search_definable_emulation(
    g: Graph,
    gprime: Graph,
    r_max: int,
    s_max: int,
    *,
    max_parts: int | None = None,
) -> EmulationSearchResult:
    """Exhaustive budgeted search for a definable flip whose balls embed
    into 5x-radius balls of ``gprime``.

    Candidate defining sets are tried by ascending size, lexicographically
    within a size; for each, flips are tried in enumeration order and the
    first witness wins.  Sets whose neighborhood-class partition exceeds the
    part cap are skipped and counted, so absence of a witness is a report,
    never an error.
    """
    if g.n != gprime.n:
        raise DomainError("graphs must share one vertex set")
    _check_int(r_max, "r_max")
    d_out = distance_matrix(gprime)

    def first_contained(dists: np.ndarray) -> int | None:
        bad = within(dists, r_max) & ~within(d_out, _EMULATION_BLOWUP * dists)
        hits = np.flatnonzero(~bad.any(axis=(1, 2)))
        return int(hits[0]) if hits.size else None

    sets, skipped, specs, hit = first_flip(
        g, candidate_packs(g.n, definable_candidates(g, s_max, max_parts)), first_contained, r_max
    )
    if hit is None:
        return EmulationSearchResult(None, sets, skipped, specs)
    s, _, spec, flipped = hit
    if not ball_containment_ok(flipped, gprime, r_max):
        raise RuntimeError("emulation witness failed re-verification")
    return EmulationSearchResult(EmulationWitness(s, spec, flipped), sets, skipped, specs)

import hashlib
import json
import random
from itertools import combinations

import pytest

import oracle
from flipkit import (
    Bipartite,
    DomainError,
    Graph,
    Partition,
    apply_flip,
    bipartite_flip,
    classify_bipartite,
    convert,
    search_definable_emulation,
)
from flipkit import conversion, graphs
from flipkit.conversion import BipartiteCaseTag, ball_containment_ok
from flipkit.flips import FlipSpec, canonical_pairs
from flipkit.generators import clique, path
from flipkit.graphs import UNREACHED
from flipkit.metrics import dist_partition_matrix
from flipkit.verify import verify_bipartite_classification
from conftest import random_graph, random_partition_labels


def bip(a_edges, left, right, n):
    return Bipartite(Graph.from_edges(n, a_edges), left, right)


class TestClassifyBipartite:
    def test_connected_is_trivial(self):
        b = bip([(0, 1)], (0,), (1,), 2)
        assert classify_bipartite(b).tag is BipartiteCaseTag.CONNECTED_OR_COMPLEMENT

    def test_two_bicliques(self):
        # K22 on {0,1}x{3,4} plus K11 on {2}x{5}
        edges = [(0, 3), (0, 4), (1, 3), (1, 4), (2, 5)]
        b = bip(edges, (0, 1, 2), (3, 4, 5), 6)
        case = classify_bipartite(b)
        assert case.tag is BipartiteCaseTag.TWO_BICLIQUES
        assert case.blocks == (((0, 1), (3, 4)), ((2,), (5,)))

    def test_isolated_and_dominating(self):
        # right side: 3 isolated, 5 dominating, 4 mixed
        edges = [(0, 5), (1, 5), (2, 5), (0, 4)]
        b = bip(edges, (0, 1, 2), (3, 4, 5), 6)
        case = classify_bipartite(b)
        assert case.tag is BipartiteCaseTag.ISOLATED_AND_DOMINATING
        assert case.side == "right"
        assert case.v_minus == 3
        assert case.v_plus == 5
        assert case.chosen_u == 0

    def test_isolated_on_left_side(self):
        # left side: 2 isolated, 0 dominating
        edges = [(0, 3), (0, 4), (1, 3)]
        b = bip(edges, (0, 1, 2), (3, 4), 5)
        case = classify_bipartite(b)
        assert case.tag is BipartiteCaseTag.ISOLATED_AND_DOMINATING
        assert case.side == "left"
        assert case.v_minus == 2
        assert case.v_plus == 0

    def test_empty_side(self):
        b = bip([], (), (0, 1), 2)
        case = classify_bipartite(b)
        assert case.tag is BipartiteCaseTag.ISOLATED_AND_DOMINATING
        assert case.chosen_u is None


class TestBipartiteFlip:
    def exhaustive_bipartites(self, a, b):
        cells = [(i, a + j) for i in range(a) for j in range(b)]
        for mask in range(1 << len(cells)):
            edges = [cells[t] for t in range(len(cells)) if (mask >> t) & 1]
            yield bip(edges, tuple(range(a)), tuple(range(a, a + b)), a + b)

    def test_edge_guarantee_exhaustive_small(self):
        # every edge of the flip joins vertices within distance 6 in both
        # the original and its bipartite complement
        for a in (1, 2, 3):
            for b_side in (1, 2, 3):
                for b in self.exhaustive_bipartites(a, b_side):
                    result = bipartite_flip(b)
                    comp = Graph(b.graph.adj ^ b.cross_mask())
                    n = b.n
                    e_orig = oracle.edges_of(b.graph)
                    e_comp = oracle.edges_of(comp)
                    for u, v in result.flipped.graph.edges():
                        assert oracle.bfs(n, e_orig, u)[v] <= 6
                        assert oracle.bfs(n, e_comp, u)[v] <= 6

    def test_splits_partition_the_sides(self):
        for a in (2, 3):
            for b_side in (2, 3):
                for b in self.exhaustive_bipartites(a, b_side):
                    result = bipartite_flip(b)
                    u1, u2 = result.u_split
                    v1, v2 = result.v_split
                    assert sorted(u1 + u2) == list(b.left)
                    assert sorted(v1 + v2) == list(b.right)

    def test_split_form(self):
        # a nontrivial left split must be the neighborhood of some right
        # vertex, and symmetrically
        for a in (2, 3):
            for b_side in (2, 3):
                for b in self.exhaustive_bipartites(a, b_side):
                    result = bipartite_flip(b)
                    u1, u2 = result.u_split
                    v1, v2 = result.v_split
                    if u2:
                        assert any(
                            set(u1) == set(b.graph.neighbors(v)) for v in b.right
                        )
                    if v2:
                        assert any(
                            set(v1) == set(b.graph.neighbors(u)) for u in b.left
                        )

    def test_two_bicliques_aligned(self):
        edges = [(0, 3), (0, 4), (1, 3), (1, 4), (2, 5)]
        b = bip(edges, (0, 1, 2), (3, 4, 5), 6)
        result = bipartite_flip(b)
        assert result.u_split == ((0, 1), (2,))
        assert result.v_split == ((3, 4), (5,))

    def test_case3_uses_lowest_pivot(self):
        edges = [(0, 5), (1, 5), (2, 5), (0, 4)]
        b = bip(edges, (0, 1, 2), (3, 4, 5), 6)
        result = bipartite_flip(b)
        assert result.u_split == ((0, 1, 2), ())
        # V1 = N(0) = {4, 5}
        assert result.v_split == ((4, 5), (3,))

    def test_connected_case_flips_whole_block(self):
        b = bip([(0, 2), (1, 2), (1, 3)], (0, 1), (2, 3), 4)
        result = bipartite_flip(b)
        assert result.case.tag is BipartiteCaseTag.CONNECTED_OR_COMPLEMENT
        # diameter of b is 3 <= 6, so the single block is flipped
        assert result.flipped_blocks == {(1, 1)}
        assert result.flipped == Bipartite(Graph(b.graph.adj ^ b.cross_mask()), b.left, b.right)

    def test_split_block_large_on_both_sides_raises(self, monkeypatch):
        # the split blocks of a degenerate case are read off the second BFS
        monkeypatch.setattr(conversion, "within", lambda dist, r: False)
        b = bip([(0, 3), (0, 4), (1, 3), (1, 4), (2, 5)], (0, 1, 2), (3, 4, 5), 6)
        with pytest.raises(RuntimeError, match="large diameter on both sides"):
            bipartite_flip(b)


class TestConvert:
    def test_k4_trivial_partition_complements(self):
        g = clique(4)
        result = convert(g, Partition.trivial(4))
        assert result.flipped.num_edges() == 0
        assert result.part_certificates[0].flipped

    def test_p5_trivial_partition_unchanged(self):
        g = path(5)
        result = convert(g, Partition.trivial(5))
        assert result.flipped == g
        assert not result.part_certificates[0].flipped

    def test_singleton_partition_clears_edges(self, rng):
        # a single-edge block has diameter 1, so it is always flipped: the
        # result is edgeless and the ball guarantee holds vacuously (keeping
        # the edge would violate it, since the all-singleton metric makes
        # adjacent pairs infinitely far in some flip)
        g = random_graph(rng, 6, 0.5)
        result = convert(g, Partition.singletons(6))
        assert result.flipped.num_edges() == 0
        assert result.refined == Partition.singletons(6)

    def test_refinement_and_replay(self, rng):
        for _ in range(25):
            n = rng.randint(2, 10)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            result = convert(g, p)
            assert result.refined.refines(p)
            assert len(result.refined.parts) <= len(p.parts) * 2 ** len(p.parts)
            assert apply_flip(g, result.refined, result.refined_spec) == result.flipped

    def test_refined_is_the_common_refinement_of_the_splits(self, rng):
        # exactly as fine as the parts and the certificates' second cells
        # demand: refined parts are the classes of (part, membership in
        # every second cell), grouped here without the library
        finer = 0
        for _ in range(40):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            result = convert(g, p)
            seconds = [
                set(split[1])
                for cert in result.pair_certificates
                for split in (cert.left_split, cert.right_split)
            ]
            classes = {}
            for v in range(n):
                key = (p.part_of(v),) + tuple(v in cell for cell in seconds)
                classes.setdefault(key, set()).add(v)
            want = {frozenset(c) for c in classes.values()}
            assert {frozenset(part) for part in result.refined.parts} == want
            finer += len(want) > len(p.parts)
        assert finer > 0

    def test_certificate_counts(self, rng):
        g = random_graph(rng, 8, 0.5)
        p = Partition.from_labels(random_partition_labels(rng, 8, 3))
        result = convert(g, p)
        k = len(p.parts)
        assert len(result.part_certificates) == k
        assert len(result.pair_certificates) == k * (k - 1) // 2

    def test_refined_respects_every_pair_split(self, rng):
        # each refined part lies inside one cell of every recorded split
        for _ in range(10):
            n = rng.randint(3, 9)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            result = convert(g, p)
            for cert in result.pair_certificates:
                for split in (cert.left_split, cert.right_split):
                    for refined_part in result.refined.parts:
                        hits = [
                            bool(set(refined_part) & set(cell))
                            for cell in split
                        ]
                        assert sum(hits) <= 1

    def test_pair_cases_are_positions_in_the_pair_block(self, rng):
        """A degenerate pair's case indexes ``parts[x] + parts[y]``: mapped
        through it, the isolated and dominating vertices, the pivot and the
        two bicliques hold in ``g``, and the pivot's neighborhood is the
        split of the opposite side, in vertex ids."""
        tags, moved = set(), 0
        while len(tags) < 2 or moved < 10:
            n = rng.randint(3, 9)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            for cert in convert(g, p).pair_certificates:
                case = cert.case
                if case.tag is BipartiteCaseTag.CONNECTED_OR_COMPLEMENT:
                    continue
                tags.add(case.tag)
                x, y = cert.parts
                vs = p.parts[x] + p.parts[y]
                adj = lambda us, ws: g.adj[list(us)][:, list(ws)]
                if case.tag is BipartiteCaseTag.TWO_BICLIQUES:
                    positions = [i for block in case.blocks for cell in block for i in cell]
                    (u1, v1), (u2, v2) = [[[vs[i] for i in cell] for cell in b] for b in case.blocks]
                    assert sorted(u1 + u2) == list(p.parts[x])
                    assert sorted(v1 + v2) == list(p.parts[y])
                    assert adj(u1, v1).all() and adj(u2, v2).all()
                    assert not adj(u1, v2).any() and not adj(u2, v1).any()
                    moved += any(vs[i] != i for i in positions)
                    continue
                side, other = p.parts[x], p.parts[y]
                if case.side == "right":
                    side, other = other, side
                v_minus, v_plus = vs[case.v_minus], vs[case.v_plus]
                assert v_minus in side and v_plus in side
                assert not adj([v_minus], other).any() and adj([v_plus], other).all()
                moved += (v_minus, v_plus) != (case.v_minus, case.v_plus)
                if case.chosen_u is not None:
                    pivot = vs[case.chosen_u]
                    assert pivot == min(other)
                    near = tuple(v for v in side if g.adj[pivot, v])
                    split = cert.right_split if case.side == "right" else cert.left_split
                    assert split == (near, tuple(v for v in side if v not in near))

    def test_edge_certificates(self, rng):
        # every flip edge has partition distance <= 6, and <= 3 inside a part
        for _ in range(15):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            result = convert(g, p)
            d = dist_partition_matrix(g, p)
            for u, v in result.flipped.edges():
                assert d[u, v] != UNREACHED
                bound = 3 if p.part_of(u) == p.part_of(v) else 6
                assert d[u, v] <= bound

    def test_soundness_against_flip_oracle(self, rng):
        # dist_P <= 6 * dist_flip for all pairs, with the partition distance
        # recomputed by the independent brute-force oracle
        for _ in range(6):
            n = rng.randint(2, 6)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 2))
            result = convert(g, p)
            d_flip = oracle.all_pairs(n, oracle.edges_of(result.flipped))
            for u in range(n):
                for v in range(n):
                    dp = oracle.dist_partition(n, oracle.edges_of(g), p.parts, u, v)
                    if d_flip[u, v] != oracle.INF:
                        assert dp <= 6 * d_flip[u, v]


class TestEmulationSearch:
    def test_identity_witnessed_by_empty_set(self, rng):
        g = random_graph(rng, 6, 0.5)
        result = search_definable_emulation(g, g, 2, 2)
        assert result.witness.defining_set == ()
        assert result.witness.flipped == g

    def test_k4_complement_witnessed_by_empty_set(self):
        g = clique(4)
        from flipkit import complement

        result = search_definable_emulation(g, complement(g), 2, 2)
        assert result.witness is not None
        assert result.witness.defining_set == ()
        assert result.witness.flipped == complement(g)

    def test_witnesses_verified_by_oracle(self, rng):
        found = 0
        for _ in range(12):
            n = rng.randint(3, 7)
            g = random_graph(rng, n, rng.random())
            labels = random_partition_labels(rng, n, 2)
            p = Partition.from_labels(labels)
            pairs = canonical_pairs(len(p.parts))
            spec = FlipSpec([q for q in pairs if rng.random() < 0.5])
            gprime = apply_flip(g, p, spec)
            result = search_definable_emulation(g, gprime, 2, 2)
            if result.witness is None:
                continue
            found += 1
            assert oracle.ball_containment(
                n,
                oracle.edges_of(result.witness.flipped),
                oracle.edges_of(gprime),
                2,
                5,
            )
        assert found > 0

    def test_containment_checker_rejects(self):
        # an edgeless inner graph has tiny balls; a path as outer graph is
        # fine, but the reverse direction fails
        inner = path(4)
        outer = Graph.empty(4)
        assert not ball_containment_ok(inner, outer, 1)
        assert ball_containment_ok(outer, inner, 3)

    def test_negative_s_max_is_a_domain_error(self):
        with pytest.raises(DomainError, match="s_max must be an integer >= 0, got -1"):
            search_definable_emulation(path(4), path(4), 1, -1)

    def test_statistics_reported(self, rng):
        g = random_graph(rng, 5, 0.5)
        result = search_definable_emulation(g, g, 1, 1)
        assert result.sets_tried >= 1
        assert result.flips_tried >= 1


class TestComposedPipeline:
    def test_witness_validity_when_found(self, rng):
        found = 0
        for _ in range(8):
            n = rng.randint(3, 7)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 2))
            conversion = convert(g, p)
            emulation = search_definable_emulation(g, conversion.flipped, 2, 2)
            assert conversion.refined.refines(p)
            if emulation.witness is None:
                continue
            found += 1
            # witness balls embed in 5x balls of the conversion flip
            assert oracle.ball_containment(
                n,
                oracle.edges_of(emulation.witness.flipped),
                oracle.edges_of(conversion.flipped),
                2,
                5,
            )
        assert found > 0


def _growth_strings(n: int, k: int):
    """Part labels of every partition of 0..n-1 into at most k parts."""
    if n == 0:
        yield []
        return
    stack = [[0]]
    while stack:
        labels = stack.pop()
        if len(labels) == n:
            yield labels
            continue
        top = max(labels)
        stack.extend(labels + [lab] for lab in reversed(range(min(top + 2, k))))


def _golden_instances():
    """Every graph on n <= 4 with every partition into at most 3 parts,
    then 1500 seeded random instances with n <= 10 and k <= 4."""
    for n in range(5):
        cells = list(combinations(range(n), 2))
        for mask in range(1 << len(cells)):
            g = Graph.from_edges(n, [c for t, c in enumerate(cells) if mask >> t & 1])
            for labels in _growth_strings(n, 3):
                yield g, (Partition.from_labels(labels) if n else Partition(0, []))
    rng = random.Random(24)
    for _ in range(1500):
        n = rng.randint(1, 10)
        density = rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
        g = Graph.from_edges(n, [c for c in combinations(range(n), 2) if rng.random() < density])
        k = rng.randint(1, min(4, n))
        labels = [rng.randrange(k) for _ in range(n)]
        labels[:k] = range(k)
        yield g, Partition.from_labels(labels)


def _canonical(result) -> dict:
    def case(c):
        return [c.tag.value, [list(map(list, b)) for b in c.blocks], c.side,
                c.v_minus, c.v_plus, c.chosen_u]

    return {
        "refined": [list(q) for q in result.refined.parts],
        "edges": result.flipped.edges(),
        "spec": sorted(result.refined_spec.pairs),
        "parts": [[c.part, c.flipped, c.branch] for c in result.part_certificates],
        "pairs": [[list(c.parts), case(c.case), [list(s) for s in c.left_split],
                   [list(s) for s in c.right_split], sorted(c.flipped_blocks)]
                  for c in result.pair_certificates],
    }


class TestGoldenConversions:
    #: sha256 over the canonical results of ``_golden_instances``, recorded
    #: with the one-graph-per-BFS conversion that preceded the padded stacks
    DIGEST = "e04bb9053d44c67c18f848dbd852072f7ced8f2b9e661a33e6e820ef65c3e6d4"

    def test_every_result_matches_the_recorded_digest(self):
        digest, tags, sizes, degenerate = hashlib.sha256(), set(), set(), 0
        for g, p in _golden_instances():
            result = convert(g, p)
            digest.update(json.dumps(_canonical(result), separators=(",", ":")).encode() + b"\n")
            pair_tags = {c.case.tag for c in result.pair_certificates}
            tags |= pair_tags
            sizes.add(g.n)
            degenerate += bool(pair_tags - {BipartiteCaseTag.CONNECTED_OR_COMPLEMENT})
        assert tags == set(BipartiteCaseTag)
        assert degenerate > 0, "no instance splits a degenerate pair's blocks"
        assert {0, 1} <= sizes
        assert digest.hexdigest() == self.DIGEST


@pytest.fixture
def bfs_calls(monkeypatch):
    """Counts of the BFS runs (``graphs._bfs``, under every entry) and of
    the classifier's ``component_labels`` calls."""
    counts = {"bfs": 0, "labels": 0}
    bfs, labels = graphs._bfs, conversion.component_labels

    def counting_bfs(*args, **kwargs):
        counts["bfs"] += 1
        return bfs(*args, **kwargs)

    def counting_labels(adjs):
        counts["labels"] += 1
        return labels(adjs)

    monkeypatch.setattr(graphs, "_bfs", counting_bfs)
    monkeypatch.setattr(conversion, "component_labels", counting_labels)
    return counts


class TestOneBfsPerPhase:
    """A conversion reads its pieces off at most two rounds of padded
    stacks, one stack per round when no piece has more than 16 vertices,
    and the classification sweep BFS's each (a, b) stack once, for its
    diameters and its connectivity: no per-piece BFS."""

    def test_convert(self, bfs_calls):
        trivial = split = 0
        for g, p in list(_golden_instances())[::4]:
            bfs_calls.update(bfs=0, labels=0)
            tags = [c.case.tag for c in convert(g, p).pair_certificates]
            bicliques = tags.count(BipartiteCaseTag.TWO_BICLIQUES)
            assert bfs_calls["labels"] == bicliques
            if set(tags) <= {BipartiteCaseTag.CONNECTED_OR_COMPLEMENT}:
                trivial += 1
                assert bfs_calls["bfs"] == (g.n > 0)
            else:
                split += 1
                assert bfs_calls["bfs"] <= 2 + bicliques
        assert trivial and split

    @pytest.mark.parametrize("max_side", [1, 2, 3])
    def test_classification_sweep(self, bfs_calls, max_side):
        # one BFS per stack (diameters and connectivity), plus the public
        # classifier's own on each degenerate graph, plus the biclique
        # labels of both
        report = verify_bipartite_classification(max_side)
        degenerate = report.counters["degenerate_cases"]
        assert bfs_calls["bfs"] == max_side ** 2 + degenerate + bfs_calls["labels"]
        assert bfs_calls["labels"] <= 2 * degenerate
        if max_side > 1:
            assert bfs_calls["labels"] > 0


class TestUnevenParts:
    """One part of 40 vertices and 40 singletons: pieces of 1 to 41
    vertices.  Padding stays within a size class and a stack within its
    cell cap, and a cap small enough to split every class changes nothing."""

    G = random_graph(random.Random(80), 80, 0.3)
    P = Partition.from_labels([0] * 40 + list(range(1, 41)))

    @pytest.mark.parametrize("cells", [graphs._STACK_CELLS, 48 * 48])
    def test_stacks_are_bounded(self, monkeypatch, cells):
        expected = _canonical(convert(self.G, self.P))
        sizes, stacks = [], []
        piece_diameters, bfs = conversion._piece_diameters, graphs.batched_distance_matrices

        def recording(adj, pieces):
            sizes.extend(len(vs) for vs, _ in pieces for _ in range(2))  # and complements
            return piece_diameters(adj, pieces)

        monkeypatch.setattr(graphs, "_STACK_CELLS", cells)
        monkeypatch.setattr(conversion, "_piece_diameters", recording)
        monkeypatch.setattr(graphs, "batched_distance_matrices",
                            lambda adjs: stacks.append(adjs.shape) or bfs(adjs))
        assert _canonical(convert(self.G, self.P)) == expected
        assert max(sizes) == 41 and min(sizes) == 1
        assert all(count * n * n <= cells for count, n, _ in stacks)
        # a stack of more than 16 vertices holds pieces of over half its size
        for count, n, _ in stacks:
            assert n <= graphs._SMALL_PIECE or count <= sum(n < 2 * m <= 2 * n for m in sizes)

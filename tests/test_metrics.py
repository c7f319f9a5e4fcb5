import numpy as np
import pytest

import oracle
from flipkit import (
    INF,
    CapExceeded,
    DomainError,
    Graph,
    Partition,
    SetFamily,
    ball_family,
    ball_partition,
    definable_partition,
    dist_definable,
    dist_definable_matrix,
    dist_family_matrix,
    dist_partition,
    dist_partition_matrix,
)
from flipkit import flips, metrics
from flipkit.flips import canonical_pairs
from flipkit.graphs import UNREACHED, fold_max_distances
from flipkit.generators import gnp, path
from conftest import random_graph, random_partition_labels


def as_ext(value):
    return INF if value == UNREACHED else int(value)


class TestDistPartition:
    def test_identity_pairs(self, rng):
        g = random_graph(rng, 6, 0.5)
        p = Partition.trivial(6)
        for v in range(6):
            assert dist_partition(g, p, v, v) == 0

    def test_p3_trivial_partition(self):
        g = path(3)
        p = Partition.trivial(3)
        # the complement flip adds the edge 0-2, so the max is the original 2
        assert dist_partition(g, p, 0, 2) == 2
        # the complement isolates the middle vertex from 0
        assert dist_partition(g, p, 0, 1) == INF

    def test_adjacent_pair_escapes(self, rng):
        # some flip always removes the edge between two vertices
        for _ in range(10):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            d = dist_partition_matrix(g, p)
            off = ~np.eye(n, dtype=bool)
            assert ((d[off] >= 2) | (d[off] == UNREACHED)).all()

    def test_matches_bruteforce_oracle(self, rng):
        cases = []
        for _ in range(10):
            n = rng.randint(2, 6)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            cases.append((g, p.parts, dist_partition_matrix(g, p)))
        # 4-5 parts on at most 6 vertices: at least two singleton parts
        for _ in range(3):
            n = rng.randint(4, 6)
            k = rng.randint(4, min(5, n))
            labels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
            rng.shuffle(labels)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(labels)
            cases.append((g, p.parts, dist_partition_matrix(g, p, max_parts=5)))
        # defining sets of size 2: two singleton parts plus neighborhood classes
        while len(cases) < 16:
            n = rng.randint(4, 6)
            g = random_graph(rng, n, rng.random())
            s = rng.sample(range(n), 2)
            parts = oracle.definable_parts(n, oracle.edges_of(g), s)
            if len(parts) <= 5:
                cases.append((g, parts, dist_definable_matrix(g, s, max_parts=5)))
        for g, parts, d in cases:
            # a vertex is at distance 0 from itself in every flip, and
            # every flip is undirected, so the oracle runs on u < v only
            assert (np.diag(d) == 0).all()
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    want = oracle.dist_partition(g.n, oracle.edges_of(g), parts, u, v)
                    assert as_ext(d[u, v]) == as_ext(d[v, u]) == want

    def test_builds_each_distinct_flip_once(self, rng, monkeypatch):
        built = []
        real = flips.flip_adjacency_pack

        def spy(g, pieces):
            adjs = real(g, pieces)
            codes = np.concatenate([codes for _, codes in pieces]).tolist()
            built.extend(zip(codes, (a.tobytes() for a in adjs)))
            return adjs

        g = random_graph(rng, 7, 0.5)
        p = Partition.from_labels([0, 1, 2, 2, 3, 3, 3])  # parts 0 and 1 are singletons
        want = dist_partition_matrix(g, p)
        monkeypatch.setattr(flips, "flip_adjacency_pack", spy)
        monkeypatch.setattr(flips, "CHUNK", 48)
        assert np.array_equal(dist_partition_matrix(g, p), want)
        live = len(canonical_pairs(4)) - 2
        codes, graphs = zip(*built)
        assert len(codes) == len(set(codes)) == len(set(graphs)) == 1 << live

    def test_stacks_are_bounded_by_cells(self, monkeypatch):
        """On 40 vertices a metric stack holds at most CHUNK * 100 cells
        (flips times n^2), 256 flips, and every distinct flip once."""
        sizes = []
        real = flips.flip_adjacency_pack

        def spy(g, pieces):
            sizes.append(sum(len(codes) for _, codes in pieces))
            return real(g, pieces)

        monkeypatch.setattr(flips, "flip_adjacency_pack", spy)
        p = Partition.from_labels([v % 5 for v in range(40)])
        dist_partition_matrix(gnp(40, 0.5, seed=7), p, max_parts=5)
        assert max(sizes) <= flips.CHUNK and max(sizes) * 40**2 <= flips.CHUNK * 100
        assert sum(sizes) == 1 << 15

    def test_cap_refusal(self):
        g = Graph.empty(5)
        with pytest.raises(CapExceeded):
            dist_partition_matrix(g, Partition.singletons(5))

    def test_refinement_monotone(self, rng):
        for _ in range(10):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 2))
            splittable = [i for i, part in enumerate(p.parts) if len(part) > 1]
            if not splittable:
                continue
            part = list(p.parts[splittable[0]])
            finer_parts = [
                list(q) for i, q in enumerate(p.parts) if i != splittable[0]
            ] + [part[:1], part[1:]]
            finer = Partition(n, finer_parts)
            coarse = dist_partition_matrix(g, p)
            fine = dist_partition_matrix(g, finer)
            coarse_inf = np.where(coarse == UNREACHED, np.inf, coarse)
            fine_inf = np.where(fine == UNREACHED, np.inf, fine)
            assert (fine_inf >= coarse_inf).all()


class TestDistDefinable:
    def test_empty_set_equals_trivial_partition(self, rng):
        g = random_graph(rng, 6, 0.5)
        want = dist_partition_matrix(g, Partition.trivial(6))
        got = dist_definable_matrix(g, [])
        assert np.array_equal(want, got)

    def test_two_adjacent_vertices_full_set(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert dist_definable(g, [0, 1], 0, 1) == INF

    def test_equals_partition_metric_of_definable_partition(self, rng):
        for _ in range(5):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.random())
            s = rng.sample(range(n), 1)
            p = definable_partition(g, s)
            if len(p.parts) > 4:
                continue
            assert np.array_equal(
                dist_definable_matrix(g, s), dist_partition_matrix(g, p)
            )

    def test_cap_refusal_suggests_smaller_set(self):
        g = path(6)
        with pytest.raises(CapExceeded, match="smaller set"):
            dist_definable_matrix(g, [0, 1, 2, 3])


class TestDistFamily:
    def test_singleton_family_is_member_metric(self, rng):
        g = random_graph(rng, 6, 0.5)
        fam = SetFamily([[2]])
        assert np.array_equal(
            dist_family_matrix(g, fam), dist_definable_matrix(g, [2])
        )

    def test_empty_family_is_trivial_partition_metric(self, rng):
        g = random_graph(rng, 5, 0.5)
        assert np.array_equal(
            dist_family_matrix(g, SetFamily([])),
            dist_partition_matrix(g, Partition.trivial(5)),
        )

    def test_family_dominates_members(self, rng):
        for _ in range(5):
            n = rng.randint(3, 7)
            g = random_graph(rng, n, rng.random())
            a, b = rng.sample(range(n), 2)
            fam = SetFamily([[a], [b]])
            d_fam = dist_family_matrix(g, fam)
            for s in ([a], [b]):
                d_s = dist_definable_matrix(g, s)
                fam_inf = np.where(d_fam == UNREACHED, np.inf, d_fam)
                s_inf = np.where(d_s == UNREACHED, np.inf, d_s)
                assert (fam_inf >= s_inf).all()

    @pytest.mark.parametrize("chunk", [None, 3], ids=["chunk-default", "chunk-3"])
    def test_family_is_the_fold_of_its_members(self, rng, monkeypatch, chunk):
        """One stream over the flips of every member folds to the max of
        the members' metrics, whether packs mix members (default CHUNK)
        or split them (CHUNK = 3)."""
        if chunk is not None:
            monkeypatch.setattr(flips, "CHUNK", chunk)
        packs = []
        real = flips.flip_adjacency_pack

        def spy(g, pieces):
            packs.append(len(pieces))
            return real(g, pieces)

        monkeypatch.setattr(flips, "flip_adjacency_pack", spy)
        families = 0
        while families < 20:
            n = rng.randint(3, 7)
            g = random_graph(rng, n, rng.random())
            sets = [rng.sample(range(n), rng.randint(1, 2)) for _ in range(rng.randint(2, 4))]
            fam = SetFamily(s for s in sets if len(definable_partition(g, s)) <= 3)
            if len(fam) < 2:
                continue
            want = fold_max_distances(np.stack([dist_definable_matrix(g, s) for s in fam]))
            packs.clear()
            assert np.array_equal(dist_family_matrix(g, fam), want)
            assert max(packs) >= 2 if chunk is None else len(packs) > len(fam)
            families += 1

    def test_family_refuses_before_it_builds(self, monkeypatch):
        """Every member is checked, its vertices and the part cap, before
        the first stack of the family is built."""
        built = []
        monkeypatch.setattr(flips, "flip_adjacency_pack", lambda g, pieces: built.append(pieces))
        with pytest.raises(CapExceeded, match=r"defining set \[0, 1, 2, 3\]: 6 parts"):
            dist_family_matrix(path(6), SetFamily([[0], [0, 1, 2, 3]]))
        with pytest.raises(DomainError, match="vertex 9 out of range"):
            dist_family_matrix(path(6), SetFamily([[0], [9]]))
        assert built == []

    def test_uniformity_validation(self):
        with pytest.raises(Exception):
            SetFamily([[0], [1, 2]], uniform_size=1)

    def test_scalar_variant_matches_matrix(self, rng):
        from flipkit import dist_family

        g = random_graph(rng, 6, 0.5)
        fam = SetFamily([[0], [3]])
        d = dist_family_matrix(g, fam)
        for u, v in [(0, 3), (1, 4), (2, 2)]:
            assert dist_family(g, fam, u, v) == as_ext(d[u, v])


class TestBalls:
    def test_ball_duality(self, rng):
        for _ in range(5):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.random())
            a = rng.sample(range(n), 1)
            fam = SetFamily([a])
            d = dist_family_matrix(g, fam)
            for v in range(n):
                for r in range(0, 4):
                    b = ball_family(g, fam, v, r)
                    for u in range(n):
                        inside = d[u, v] != UNREACHED and d[u, v] <= r
                        assert (u in b) == inside

    def test_ball_union_over_sets(self, rng):
        g = random_graph(rng, 7, 0.4)
        fam = SetFamily([[0]])
        per_vertex = [ball_family(g, fam, v, 1) for v in (1, 2)]
        assert ball_family(g, fam, [1, 2], 1) == per_vertex[0] | per_vertex[1]

    def test_partition_ball_matches_metric(self, rng):
        g = random_graph(rng, 6, 0.5)
        p = Partition.from_labels(random_partition_labels(rng, 6, 2))
        d = dist_partition_matrix(g, p)
        for v in range(6):
            b = ball_partition(g, p, v, 2)
            want = {u for u in range(6) if d[u, v] != UNREACHED and d[u, v] <= 2}
            assert b == want


class TestMetricAxioms:
    def test_symmetry_and_identity(self, rng):
        for _ in range(10):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            d = dist_partition_matrix(g, p)
            assert np.array_equal(d, d.T)
            assert (np.diag(d) == 0).all()

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            d = dist_partition_matrix(g, p).astype(float)
            d[d == UNREACHED] = np.inf
            for u in range(n):
                for v in range(n):
                    for w in range(n):
                        assert d[u, w] <= d[u, v] + d[v, w]

    def test_aggregation_on_union(self, rng):
        checked = 0
        while checked < 5:
            n = rng.randint(3, 7)
            g = random_graph(rng, n, 0.4)
            a, b = rng.sample(range(n), 2)
            if len(definable_partition(g, [a, b]).parts) > 5:
                continue
            checked += 1
            d_union = dist_definable_matrix(g, [a, b], max_parts=5).astype(float)
            d_a = dist_definable_matrix(g, [a]).astype(float)
            d_b = dist_definable_matrix(g, [b]).astype(float)
            for d in (d_union, d_a, d_b):
                d[d == UNREACHED] = np.inf
            assert (d_union >= np.maximum(d_a, d_b)).all()

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

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
    dist_family,
    dist_family_matrix,
    dist_partition,
    dist_partition_matrix,
)
from flipkit import flips, metrics
from flipkit.flips import canonical_pairs
from flipkit.graphs import UNREACHED, batched_distance_matrices, fold_max_distances, within
from flipkit.generators import gnp, path
from conftest import random_graph, random_partition_labels


def as_ext(value):
    return INF if value == UNREACHED else int(value)


def free_pairs(g, p) -> int:
    """The part pairs of ``p`` whose block in ``g`` holds some of its
    edges but not all: the pairs a flip metric's stream varies."""
    parts = Partition.from_labels(np.asarray(p).tolist()).parts
    free = 0
    for a, b in canonical_pairs(len(parts)):
        block = g.adj[np.ix_(parts[a], parts[b])]
        free += 0 < block.sum() < block.size - (len(parts[a]) if a == b else 0)
    return free


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
        codes, graphs = zip(*built)
        # the stream varies the free pairs only, every homogeneous block emptied
        assert len(codes) == len(set(codes)) == len(set(graphs)) == 1 << free_pairs(g, p)

    def test_a_short_stream_reads_no_graph(self, rng, monkeypatch):
        """On 8 vertices a partition of at most 128 distinct flips (8192
        cells) folds them all, without reading its blocks in the graph; a
        larger one reads them once."""
        read = []
        real = flips._pair_cells
        monkeypatch.setattr(flips, "_pair_cells", lambda p, k, *masks: read.append(k) or real(p, k, *masks))
        g = random_graph(rng, 8, 0.5)
        dist_partition_matrix(g, Partition.from_labels([0, 1, 2, 3, 3, 3, 3, 3]))  # 128 flips
        assert read == []
        dist_partition_matrix(g, Partition.from_labels([v % 4 for v in range(8)]))
        assert read == [4]

    def test_stacks_are_bounded_by_cells(self, monkeypatch):
        """On 40 vertices a metric stack holds at most CHUNK * 100 cells
        (flips times n^2), 256 flips, and every distinct flip once."""
        sizes = []
        real = metrics._pack_max

        def spy(g, pieces, sources, depth, cut=None):
            sizes.append(sum(len(codes) for _, _, codes in pieces))
            return real(g, pieces, sources, depth, cut)

        monkeypatch.setattr(metrics, "_pack_max", spy)
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
        with pytest.raises(CapExceeded, match="of defining set .* raise max_parts"):
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
        real = metrics._pack_max

        def spy(g, pieces, sources, depth, cut=None):
            packs.append(len(pieces))
            return real(g, pieces, sources, depth, cut)

        monkeypatch.setattr(metrics, "_pack_max", spy)
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
        monkeypatch.setattr(metrics, "_pack_max", lambda *pack: built.append(pack))
        with pytest.raises(CapExceeded, match=r"defining set \[0, 1, 2, 3\] is 6"):
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

    def test_pair_queries_match_their_matrices(self, rng):
        """Each pair query reads u's row alone; it is entry (u, v) of its
        matrix for every pair, the empty family included."""
        from flipkit import dist_family

        for _ in range(5):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            s = rng.sample(range(n), 1)
            queries = [
                (lambda u, v: dist_partition(g, p, u, v), dist_partition_matrix(g, p)),
                (lambda u, v: dist_definable(g, s, u, v), dist_definable_matrix(g, s)),
            ]
            for fam in (SetFamily([]), SetFamily([s, [rng.randrange(n)]])):
                queries.append(
                    (lambda u, v, fam=fam: dist_family(g, fam, u, v), dist_family_matrix(g, fam))
                )
            for pair, d in queries:
                for u in range(n):
                    for v in range(n):
                        assert pair(u, v) == as_ext(d[u, v])


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

    def test_rows_only_balls_match_the_full_matrix(self, rng):
        """A ball BFS's only its vertices' rows, to depth max(r, 1), and is
        the ball that the full matrix gives at every radius, for a
        partition, a family and the empty family."""
        for _ in range(6):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            cases = [(lambda vs, r: ball_partition(g, p, vs, r), dist_partition_matrix(g, p))]
            for fam in (SetFamily([]), SetFamily([rng.sample(range(n), 1), [rng.randrange(n)]])):
                cases.append(
                    (lambda vs, r, fam=fam: ball_family(g, fam, vs, r), dist_family_matrix(g, fam))
                )
            for ball_of, d in cases:
                for vs in (rng.randrange(n), rng.sample(range(n), rng.randint(0, n)), range(n)):
                    rows = [vs] if isinstance(vs, int) else sorted(vs)
                    for r in (*range(n + 2), 10**30):
                        want = set(np.flatnonzero(within(d[rows], r).any(axis=0)).tolist())
                        assert ball_of(vs, r) == want

    def test_ball_bfs_runs_its_rows_to_depth_r(self, rng, monkeypatch):
        """Spy on each pack's fold: every pack of a ball query runs one row
        per vertex to depth max(r, 1); a pair query runs u's row to the end."""
        calls = []
        real = metrics._pack_max

        def spy(g, pieces, sources, depth, cut=None):
            calls.append((None if sources is None else len(sources), depth))
            return real(g, pieces, sources, depth, cut)

        monkeypatch.setattr(metrics, "_pack_max", spy)
        g = random_graph(rng, 9, 0.4)
        p = Partition.from_labels(random_partition_labels(rng, 9, 3))
        fam = SetFamily([[0], [4]])
        for vertices, r in ((4, 0), ([1, 5, 7], 1), ([0, 8], 2), (range(9), 5)):
            for query, metric in ((ball_partition, p), (ball_family, fam)):
                del calls[:]
                query(g, metric, vertices, r)
                size = 1 if isinstance(vertices, int) else len(vertices)
                assert calls and set(calls) == {(size, max(r, 1))}
        del calls[:]
        dist_partition(g, p, 3, 8)
        assert calls and set(calls) == {(1, None)}


class TestPackLayouts:
    @pytest.mark.parametrize("chunk", [48, 64, 65, 100])
    def test_metrics_match_the_per_flip_fold(self, rng, monkeypatch, chunk):
        """A metric pack of at least 64 flips folds as the words of its
        codes, a smaller one as masks; at these CHUNK sizes the packs fall
        on both sides of that dispatch, and every matrix, pair distance and
        ball equals the fold of the per-flip distances of all the flips."""
        monkeypatch.setattr(flips, "CHUNK", chunk)
        worded = []
        real = flips.flip_words

        def spy(adj, pieces):
            worded.append(len(pieces))
            return real(adj, pieces)

        monkeypatch.setattr(flips, "flip_words", spy)
        cases = 0
        while cases < 12:
            n = rng.randint(5, 9)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 4))
            sets = [rng.sample(range(n), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
            fam = SetFamily(s for s in sets if len(definable_partition(g, s)) <= 4)
            if not len(fam):
                continue
            s = fam.sets[0]
            metrics_of = (
                ([p], p, dist_partition_matrix, dist_partition, ball_partition),
                ([s], s, dist_definable_matrix, dist_definable, None),
                (fam.sets, fam, dist_family_matrix, dist_family, ball_family),
            )
            for members, metric, matrix, pair, ball in metrics_of:
                parts = [q if q is p else definable_partition(g, q) for q in members]
                every = [(q, np.concatenate(list(flips.distinct_flip_codes(q)))) for q in parts]
                masks = flips.flip_adjacency_pack(n, every)
                want = fold_max_distances(batched_distance_matrices(g.adj ^ masks))
                assert np.array_equal(matrix(g, metric, max_parts=5), want)
                u, v = rng.randrange(n), rng.randrange(n)
                assert pair(g, metric, u, v, max_parts=5) == as_ext(want[u, v])
                for vertices, r in ((u, rng.randint(0, 3)), (sorted({u, v}), rng.randint(0, 3))):
                    rows = [vertices] if isinstance(vertices, int) else vertices
                    balls = set(np.flatnonzero(within(want[rows], r).any(axis=0)).tolist())
                    assert ball is None or ball(g, metric, vertices, r, max_parts=5) == balls
            cases += 1
        assert bool(worded) == (chunk >= 64) and (chunk < 64 or max(worded) >= 2)

    def test_many_packs_equal_one(self, rng, monkeypatch):
        """Under CHUNK = 64 a metric folds many word packs, and each starts
        with the cells UNREACHED so far cut; the partition matrix, the
        partition ball and the family matrix equal those under the default
        CHUNK, whose packs hold 64 times as many flips."""
        cases = []
        while len(cases) < 16:
            n = rng.randint(6, 10)
            g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
            p = Partition.from_labels(random_partition_labels(rng, n, 5))
            sets = [rng.sample(range(n), rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
            fam = SetFamily(s for s in sets if len(definable_partition(g, s)) <= 5)
            if len(fam):
                cases.append((g, p, fam, rng.sample(range(n), rng.randint(1, 3)), rng.randint(1, 2)))

        def run():
            return [
                (dist_partition_matrix(g, p, max_parts=5), ball_partition(g, p, vs, r, max_parts=5),
                 dist_family_matrix(g, fam, max_parts=5))
                for g, p, fam, vs, r in cases
            ]

        want = run()
        seeded = []
        real = metrics._word_fold

        def spy(a, f, sources, depth, cut):
            seeded.append(cut is not None and bool(cut.any()))
            return real(a, f, sources, depth, cut)

        monkeypatch.setattr(metrics, "_word_fold", spy)
        monkeypatch.setattr(flips, "CHUNK", 64)
        for got, expected in zip(run(), want):
            assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]
            assert np.array_equal(got[2], expected[2])
        assert sum(seeded) >= 10


@st.composite
def packed_partitions(draw):
    """gnp(6-12) with a partition into 3 to 5 parts, the first pack size of
    its flip stream, and a source list and a depth, each possibly None."""
    n = draw(st.integers(6, 12))
    g = gnp(n, draw(st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7])), draw(st.integers(0, 1 << 16)))
    k = draw(st.integers(3, 5))
    labels = draw(st.permutations(list(range(k)) + draw(
        st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))))
    sources = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    depth = draw(st.none() | st.integers(0, n))
    return g, np.array(labels), draw(st.integers(1, 100)), sources, depth


@seed(20261020)
@settings(max_examples=30, deadline=None, database=None)
@given(packed_partitions())
def test_every_pack_folds_as_its_per_flip_distances(case):
    """``metrics._pack_max`` of each pack of a partition's flip stream, on
    both sides of the 64-flip dispatch, equals the fold of the per-flip
    distances of its flips: stacks of 256 flips or more compact their
    words, and their rows finish at different levels."""
    g, labels, size, sources, depth = case
    for pieces in flips.flip_packs(g.n, [(None, labels)], size):
        masks = flips.flip_adjacency_pack(g.n, [(p, codes) for _, p, codes in pieces])
        want = fold_max_distances(batched_distance_matrices(g.adj ^ masks, depth))
        got = metrics._pack_max(g, pieces, sources, depth)
        assert np.array_equal(got, want if sources is None else want[sources])


@st.composite
def homogeneous_blocks(draw):
    """A graph on 4-9 vertices and part labels of 2-5 parts, each block of
    which is drawn empty, complete or random: a part may be an independent
    set or a clique, a cross block empty or complete, and few vertices give
    singletons.  With one or two defining sets of one or two vertices, a
    vertex pair and a radius."""
    n = draw(st.integers(4, 9))
    k = draw(st.integers(2, min(5, n)))
    labels = np.array(draw(st.permutations(list(range(k)) + draw(
        st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k)))))
    kind = np.array(draw(st.lists(st.integers(0, 2), min_size=k * k, max_size=k * k)))
    kind = np.triu(kind.reshape(k, k))
    kind = (kind + np.triu(kind, 1).T)[labels[:, None], labels]  # 0 empty, 1 complete, 2 random
    coin = np.triu(np.random.default_rng(draw(st.integers(0, 1 << 16))).random((n, n)) < 0.5, 1)
    adj = np.where(kind == 2, coin | coin.T, kind == 1)
    np.fill_diagonal(adj, False)
    sets = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True),
                         min_size=1, max_size=2))
    pair = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return Graph(adj), labels, sets, pair, draw(st.integers(0, 3))


@seed(20261021)
@settings(max_examples=40, deadline=None, database=None)
@given(homogeneous_blocks())
def test_fixed_pairs_keep_every_metric(case):
    """A flip metric folds, of a stream of more than 8192 cells (flips
    times n^2), only the flips that empty every homogeneous block; each matrix, pair distance
    and ball equals the one of the fold over every distinct flip, and on 6
    vertices or fewer, with at most 4 parts, the oracle's partition
    distance (a 5-part oracle call takes up to a second)."""
    g, labels, sets, (u, v), r = case
    p = Partition.from_labels(labels.tolist())
    fam = SetFamily(s for s in sets if len(definable_partition(g, s)) <= 5)
    assume(len(fam))

    def every(members):
        pieces = [(q, np.concatenate(list(flips.distinct_flip_codes(q)))) for q in members]
        masks = flips.flip_adjacency_pack(g.n, pieces)
        return fold_max_distances(batched_distance_matrices(g.adj ^ masks))

    metrics_of = (
        ([p], p, dist_partition_matrix, dist_partition, ball_partition),
        ([fam.sets[0]], fam.sets[0], dist_definable_matrix, dist_definable, None),
        (fam.sets, fam, dist_family_matrix, dist_family, ball_family),
    )
    for members, metric, matrix, pair, ball in metrics_of:
        want = every([q if q is p else definable_partition(g, q) for q in members])
        assert np.array_equal(matrix(g, metric, max_parts=5), want)
        assert pair(g, metric, u, v, max_parts=5) == as_ext(want[u, v])
        for vertices in (u, sorted({u, v})):
            rows = [vertices] if isinstance(vertices, int) else vertices
            balls = set(np.flatnonzero(within(want[rows], r).any(axis=0)).tolist())
            assert ball is None or ball(g, metric, vertices, r, max_parts=5) == balls
    if g.n <= 6 and len(p) <= 4:
        want = oracle.dist_partition(g.n, oracle.edges_of(g), p.parts, u, v)
        assert dist_partition(g, p, u, v, max_parts=5) == want


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

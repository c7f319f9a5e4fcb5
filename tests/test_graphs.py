import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import oracle
from flipkit import (
    INF,
    Bipartite,
    DomainError,
    Graph,
    ball,
    bipartite_induced,
    complement,
    diameter,
    distance_matrix,
    induced,
)
from flipkit.generators import clique, cycle, path, star
from flipkit import graphs
from flipkit.graphs import (
    UNREACHED,
    batched_distance_matrices,
    fold_max_distances,
    within,
)
from conftest import packed_words, random_graph


class TestGraphConstruction:
    def test_rejects_asymmetric(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(DomainError):
            Graph(adj)

    def test_rejects_self_loop(self):
        adj = np.eye(2, dtype=bool)
        with pytest.raises(DomainError):
            Graph(adj)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(DomainError):
            Graph.from_edges(2, [(0, 2)])

    def test_adjacency_is_read_only(self):
        g = path(3)
        with pytest.raises(ValueError):
            g.adj[0, 1] = False

    def test_edges_sorted_u_lt_v(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0)])
        assert g.edges() == [(0, 2), (1, 3)]


class TestBfs:
    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(30):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.random())
            want = oracle.all_pairs(n, oracle.edges_of(g))
            got = distance_matrix(g)
            for u in range(n):
                for v in range(n):
                    expected = want[u, v]
                    actual = INF if got[u, v] < 0 else got[u, v]
                    assert actual == expected


class TestBatchedDistanceMatrices:
    def test_matches_oracle_on_random_stacks(self, rng):
        shapes = [(0, 4), (3, 1), (2, 2)] + [(rng.randint(1, 6), n) for n in range(3, 13)]
        unreached = 0
        for f, n in shapes:
            graphs = [random_graph(rng, n, rng.choice((0.0, 0.1, 0.3, 0.6))) for _ in range(f)]
            adjs = np.array([g.adj for g in graphs], dtype=bool).reshape(f, n, n)
            got = batched_distance_matrices(adjs)
            assert got.shape == (f, n, n) and got.dtype == np.int16
            unreached += int((got == -1).sum())
            for g, d in zip(graphs, got):
                want = oracle.all_pairs(n, oracle.edges_of(g))
                for (u, v), expected in want.items():
                    assert (INF if d[u, v] < 0 else d[u, v]) == expected
        assert unreached  # disconnected graphs were among the inputs

    def test_depth_cut_keeps_every_ball(self, rng):
        """Cut after ``depth`` levels, the BFS decides ``within(., depth)``
        as the full one does, and reads -1 beyond max(depth, 1); the stacks
        hold disconnected flips, and the depth runs from 0 to n."""
        for n in range(1, 11):
            _, adjs = _mixed_stack(rng, rng.randint(3, 8), n)
            full = batched_distance_matrices(adjs)
            for depth in range(n + 1):
                cut = batched_distance_matrices(adjs, depth)
                assert np.array_equal(within(cut, depth), within(full, depth))
                assert np.array_equal(cut, np.where(within(full, max(depth, 1)), full, UNREACHED))


def _mixed_stack(rng, f, n):
    """``f`` graphs on ``n`` vertices mixing edgeless, complete and path
    members (finished at once, never, and late) with random ones."""
    kinds = [Graph.empty(n), clique(n), path(n)]
    members = [kinds[i] if i < 3 else random_graph(rng, n, rng.choice((0.1, 0.3, 0.6)))
               for i in range(f)]
    rng.shuffle(members)
    return members, np.array([g.adj for g in members], dtype=bool).reshape(f, n, n)


def _connected_stack(rng, f, n):
    """``f`` connected graphs on ``n`` vertices, each a path through the
    vertices in a random order plus random chords, so that the max over
    the stack is finite; an edgeless member makes it INF off the diagonal."""
    members = []
    for _ in range(f):
        order = rng.sample(range(n), n)
        chords = random_graph(rng, n, rng.choice((0.0, 0.1, 0.3))).edges()
        members.append(Graph.from_edges(n, chords + list(zip(order, order[1:]))))
    return members, np.array([g.adj for g in members], dtype=bool).reshape(f, n, n)


class TestMaxDistanceMatrix:
    """The folded max-distance matrix of the float32 loop,
    ``_bfs(fold=True)``, on stacks under a word, against the oracle and
    the per-flip kernel: mixed stacks, whose maxima are UNREACHED off the
    diagonal, and connected ones, whose maxima are finite.  The float32
    fold drops no flip, so every product it takes runs on the full stack."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes = []
        real = np.matmul
        monkeypatch.setattr(np, "matmul", lambda x, y: sizes.append(len(x)) or real(x, y))
        return sizes

    STACKS = [(_mixed_stack, f) for f in (1, 2, 3, 7, 16)] + [
        (_connected_stack, f) for f in (1, 2, 3, 7, 16, 63)]

    def test_matches_oracle_and_per_flip_fold(self, rng, sizes):
        unreached = products = 0
        for n in (1, 2, 5, 10):
            for build, f in self.STACKS:
                stack, adjs = build(rng, f, n)
                del sizes[:]
                per_flip = batched_distance_matrices(adjs)
                got = graphs._bfs(adjs, fold=True)
                assert got.shape == (n, n) and got.dtype == np.int16
                assert np.array_equal(got, fold_max_distances(per_flip))
                assert set(sizes) <= {f}
                products += len(sizes)
                if build is _connected_stack:
                    assert (got != UNREACHED).all()
                want = [oracle.all_pairs(n, oracle.edges_of(g)) for g in stack]
                for u in range(n):
                    for v in range(n):
                        assert (INF if got[u, v] < 0 else got[u, v]) == max(d[u, v] for d in want)
                        for d, h in zip(want, per_flip):
                            assert (INF if h[u, v] < 0 else h[u, v]) == d[u, v]
                unreached += int((got == -1).sum())
        assert unreached and products

    def test_source_rows_match_the_cut_fold(self, rng, sizes):
        """With ``sources`` the fold runs only their rows, an (s, n) frontier
        per flip, and reads the source rows of the per-flip fold, cut as in
        ``test_depth_cut_keeps_every_ball``; one source, several and every
        vertex, at no depth and at depths 0..n."""
        products = 0
        for n in (1, 2, 5, 9):
            for build, f in self.STACKS[2:]:
                _, adjs = build(rng, f, n)
                full = fold_max_distances(batched_distance_matrices(adjs))
                several = sorted(rng.sample(range(n), min(3, n)))
                for sources in ([rng.randrange(n)], several, list(range(n))):
                    for depth in (None, *range(n + 1)):
                        del sizes[:]
                        got = graphs._bfs(adjs, fold=True, depth=depth, sources=sources)
                        want = full[sources]
                        if depth is not None:
                            want = np.where(within(want, max(depth, 1)), want, UNREACHED)
                        assert got.shape == (len(sources), n) and got.dtype == np.int16
                        assert np.array_equal(got, want)
                        assert set(sizes) <= {f}
                        products += len(sizes)
        assert products

    def test_empty_stack_has_the_empty_per_flip_shape(self):
        assert batched_distance_matrices(np.zeros((0, 3, 3), dtype=bool)).shape == (0, 3, 3)


class TestWordFold:
    """``_word_fold`` folds a stack bit-sliced, 64 flips to a uint64 word:
    at and around the word boundaries, against the per-flip fold and, on a
    subset, the oracle; finished words are dropped as finished flips are."""

    @pytest.fixture(params=[None, 200], ids=["step-default", "step-200"])
    def step_words(self, request, monkeypatch):
        """The word fold's step at its default budget, which runs these
        stacks in blocks of many columns, and at 200 words, which runs the
        smaller ones in blocks of 2 to 8 columns and the larger ones a
        column at a time."""
        if request.param is not None:
            monkeypatch.setattr(graphs, "_STEP_WORDS", request.param)

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
    def test_word_boundaries_match_the_per_flip_fold(self, rng, n, step_words):
        stacks = [stack(rng, f, n) for f in (63, 64, 65, 127, 128, 129, 255, 256, 257, 300)
                  for stack in (_mixed_stack, _connected_stack)]
        for _, adjs in stacks:
            f, words = len(adjs), packed_words(adjs)
            three = sorted(rng.sample(range(n), min(3, n)))
            for depth in (None, *range(n + 1)):
                want = fold_max_distances(batched_distance_matrices(adjs, depth))
                for sources in (None, [], [rng.randrange(n)], three, list(range(n))):
                    rows = want if sources is None else want[sources]
                    got = graphs._word_fold(words, f, sources, depth)
                    assert got.dtype == np.int16 and np.array_equal(got, rows)

    def test_no_vertices(self):
        """Stacks on no vertices fold to the empty matrix in both loops, on
        both sides of the 64-flip dispatch; W words of no cells are built
        directly."""
        for f in (1, 63):
            assert graphs._bfs(np.zeros((f, 0, 0), dtype=bool), fold=True).shape == (0, 0)
        for f in (64, 65):
            words = np.zeros((-(-f // 64), 0, 0), dtype=np.uint64)
            assert graphs._word_fold(words, f).shape == (0, 0)

    def test_matches_oracle(self, rng):
        for f, n in ((64, 5), (129, 6), (257, 4)):
            stack, adjs = _connected_stack(rng, f, n)
            got = graphs._word_fold(packed_words(adjs), f)
            want = [oracle.all_pairs(n, oracle.edges_of(g)) for g in stack]
            for u in range(n):
                for v in range(n):
                    assert (INF if got[u, v] < 0 else got[u, v]) == max(d[u, v] for d in want)

    def test_finished_words_are_dropped(self, monkeypatch):
        """Five words whose flips all finish at once but for eight paths in
        the first word step one word after the first level; three words,
        fewer than ``_COMPACT_MIN`` flips, keep all three.  A step of one
        column at a time calls ``np.bitwise_and`` on the live words."""
        monkeypatch.setattr(graphs, "_STEP_WORDS", 1)
        steps = []
        real = np.bitwise_and
        monkeypatch.setattr(
            np, "bitwise_and", lambda x, y, **kw: steps.append(len(x)) or real(x, y, **kw))
        n = 12
        for f, last in ((300, 1), (192, 3)):
            adjs = np.array([path(n).adj] * 8 + [clique(n).adj] * (f - 8))
            words = packed_words(adjs)
            del steps[:]
            got = graphs._word_fold(words, f)
            assert steps[0] == -(-f // 64) and steps[-1] == last
            assert np.array_equal(got, fold_max_distances(batched_distance_matrices(adjs)))

    def test_a_word_is_dropped_once_all_its_rows_finish(self, monkeypatch):
        """Paths hung at vertex 0 near their middle finish row 0 by level
        8, and the rows of their ends at level 11.  The two words of
        cliques finish at once, so the stack compacts to the paths' four
        words, which still compact and must stay until their last rows
        finish, from every source list and at every depth."""
        monkeypatch.setattr(graphs, "_STEP_WORDS", 1)
        steps = []
        real = np.bitwise_and
        monkeypatch.setattr(
            np, "bitwise_and", lambda x, y, **kw: steps.append(len(x)) or real(x, y, **kw))
        n, f = 12, 384
        orders = [list(range(1, k)) + [0] + list(range(k, n)) for k in range(4, 10)]
        paths = [Graph.from_edges(n, list(zip(order, order[1:]))).adj for order in orders]
        adjs = np.array([paths[i % len(paths)] for i in range(256)] + [clique(n).adj] * 128)
        words = packed_words(adjs)
        for depth in (None, 9, 10, 11):
            want = fold_max_distances(batched_distance_matrices(adjs, depth))
            for sources in (None, [0], [0, 11], [5, 0, 1]):
                rows = want if sources is None else want[sources]
                del steps[:]
                got = graphs._word_fold(words, f, sources, depth)
                assert steps[0] == 6 and steps[-1] == 4
                assert np.array_equal(got, rows)

    def test_a_word_stops_once_only_cut_cells_remain(self, monkeypatch):
        """A flip that isolates vertex 0 ends its rows with cells left after
        the first level, so those cells are cut: UNREACHED in the max,
        whatever other flips do.  From row 0, a word of that flip and 63
        paths 0-1-...-11 stops after one level, where the paths would walk
        ten more.  Over all rows, a word of that flip and 63 cliques is
        dropped after the first level, with the six words of cliques, and
        the word of paths steps alone.  Every fold, at every depth and from
        every source list, against the per-flip fold."""
        monkeypatch.setattr(graphs, "_STEP_WORDS", 1)
        steps = []
        real = np.bitwise_and
        monkeypatch.setattr(
            np, "bitwise_and", lambda x, y, **kw: steps.append(len(x)) or real(x, y, **kw))
        n = 12
        lone = clique(n).adj.copy()
        lone[0] = lone[:, 0] = False
        walks = np.array([lone] + [path(n).adj] * 63)
        among_cliques = np.array([lone] + [clique(n).adj] * 447 + [path(n).adj] * 64)
        got = graphs._word_fold(packed_words(walks), len(walks), [0])
        assert np.array_equal(got, fold_max_distances(batched_distance_matrices(walks))[[0]])
        assert steps == [1] * (n - 1)
        del steps[:]
        got = graphs._word_fold(packed_words(among_cliques), len(among_cliques))
        assert np.array_equal(got, fold_max_distances(batched_distance_matrices(among_cliques)))
        assert steps[: n - 1] == [8] * (n - 1) and set(steps[n - 1:]) == {1}
        for adjs in (walks, among_cliques):
            words = packed_words(adjs)
            for depth in (None, 2, 3, 11):
                want = fold_max_distances(batched_distance_matrices(adjs, depth))
                for sources in (None, [0], [0, 11], [5, 0, 1]):
                    rows = want if sources is None else want[sources]
                    assert np.array_equal(graphs._word_fold(words, len(adjs), sources, depth), rows)

    def test_cut_cells_drop_words_and_a_row_ends_once(self, monkeypatch):
        """From row 0, a flip of two cliques, on 0..6 and on 7..11, ends
        its row after the first level with 7..11 left: those cells are cut.
        Two words of a clique on 0..6 with a tail 6-7-...-11 then have only
        cut cells left, and are dropped with the word of cliques, although
        their tails walk four more levels; the word of that flip and 63
        paths 0-7-...-11-1-...-6 steps alone to the end.  The row's cut bits
        are cleared as it ends, so no later level finds it ended again."""
        monkeypatch.setattr(graphs, "_STEP_WORDS", 1)
        steps, ors = [], []
        real_and, real_or = np.bitwise_and, graphs._row_or
        monkeypatch.setattr(
            np, "bitwise_and", lambda x, y, **kw: steps.append(len(x)) or real_and(x, y, **kw))
        monkeypatch.setattr(graphs, "_row_or", lambda x: ors.append(real_or(x)) or ors[-1])
        n = 12
        split = Graph.from_edges(n, [*combinations(range(7), 2), *combinations(range(7, n), 2)])
        tail = Graph.from_edges(n, [*combinations(range(7), 2), *zip(range(6, n), range(7, n))])
        order = [0, *range(7, n), *range(1, 7)]
        walk = Graph.from_edges(n, list(zip(order, order[1:])))
        adjs = np.array([split.adj] + [walk.adj] * 63 + [tail.adj] * 128 + [clique(n).adj] * 64)
        got = graphs._word_fold(packed_words(adjs), len(adjs), [0])
        assert np.array_equal(got, fold_max_distances(batched_distance_matrices(adjs))[[0]])
        assert steps[: n - 1] == [4] * (n - 1) and set(steps[n - 1:]) == {1}
        ended = [bool((left & ~frontier).any()) for left, frontier in zip(ors[::2], ors[1::2])]
        assert ended.count(True) == 1

    def test_neighbour_step_memory_is_bounded(self, rng):
        """At n = 80, the largest n at which a pack's cell bound still
        allows a word of flips, the fold of words packed beforehand peaks
        under twice the bytes of the bool stack itself; one product over
        every column at once would take (W, n, n, n) words, ten times them."""
        f, n = 64, 80
        _, adjs = _connected_stack(rng, f, n)
        words = packed_words(adjs)
        tracemalloc.start()
        try:
            graphs._word_fold(words, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * f * n * n


class TestDiameter:
    def test_cliques(self):
        for n in (2, 3, 5):
            assert diameter(clique(n)) == 1

    def test_p5(self):
        assert diameter(path(5)) == 4

    def test_edgeless_is_inf(self):
        assert diameter(Graph.empty(3)) == INF

    def test_single_vertex(self):
        assert diameter(Graph.empty(1)) == 0

    def test_empty_graph_refused(self):
        with pytest.raises(DomainError):
            diameter(Graph.empty(0))


class TestComplement:
    def test_k3_complement_edgeless(self):
        assert complement(clique(3)).num_edges() == 0

    def test_involution(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            assert complement(complement(g)) == g

    def test_p4_complement_is_p4(self):
        # path 0-1-2-3 complements to the path 2-0-3-1
        g = path(4)
        assert set(complement(g).edges()) == {(0, 2), (0, 3), (1, 3)}


class TestBipartite:
    def test_sides_must_cover(self):
        with pytest.raises(DomainError):
            Bipartite(Graph.empty(3), (0,), (1,))

    def test_edge_must_cross(self):
        with pytest.raises(DomainError):
            Bipartite(Graph.from_edges(3, [(0, 1)]), (0, 1), (2,))

    def test_full_biclique_complements_to_edgeless(self):
        b, _ = bipartite_induced(clique(4), [0, 1], [2, 3])
        assert b.graph.num_edges() == 4
        assert not (b.graph.adj ^ b.cross_mask()).any()


class TestInduced:
    def test_full_set_is_identity(self, rng):
        g = random_graph(rng, 6, 0.5)
        sub, mapping = induced(g, range(6))
        assert sub == g
        assert mapping == (0, 1, 2, 3, 4, 5)

    def test_k4_pair_is_k2(self):
        sub, mapping = induced(clique(4), [0, 1])
        assert sub.edges() == [(0, 1)]
        assert mapping == (0, 1)

    def test_c5_triple_is_path(self):
        sub, mapping = induced(cycle(5), [0, 1, 2])
        assert set(sub.edges()) == {(0, 1), (1, 2)}
        assert mapping == (0, 1, 2)

    def test_bipartite_induced_drops_inner_edges(self):
        g = clique(4)
        b, mapping = bipartite_induced(g, [0, 1], [2, 3])
        assert b.left == (0, 1) and b.right == (2, 3)
        assert set(b.graph.edges()) == {(0, 2), (0, 3), (1, 2), (1, 3)}
        assert mapping == (0, 1, 2, 3)

    def test_bipartite_induced_rejects_overlap(self):
        with pytest.raises(DomainError):
            bipartite_induced(clique(4), [0, 1], [1, 2])


class TestBall:
    def test_radius_zero(self, rng):
        g = random_graph(rng, 6, 0.5)
        for v in range(6):
            assert ball(g, v, 0) == {v}

    def test_star_center_radius_one(self):
        g = star(5)
        assert ball(g, 0, 1) == set(range(5))

    def test_p5_endpoint_radius_two(self):
        assert ball(path(5), 0, 2) == {0, 1, 2}

    def test_matches_oracle(self, rng):
        for _ in range(20):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.random())
            v = rng.randrange(n)
            r = rng.randint(0, 4)
            assert ball(g, v, r) == oracle.ball(n, oracle.edges_of(g), v, r)


class TestPieceDiameters:
    """Each piece of a graph - a subgraph or a bipartite block - and its
    complement read their own diameters off padded stacks: padding with
    isolated vertices changes no distance between a piece's own vertices."""

    @staticmethod
    def expected(g, vs, left):
        if left is None:
            piece = induced(g, vs)[0]
            pair = (piece, complement(piece))
        else:
            b, _ = bipartite_induced(g, [vs[i] for i in left],
                                     [v for i, v in enumerate(vs) if i not in left])
            pair = (b.graph, Graph(b.graph.adj ^ b.cross_mask()))
        diams = [diameter(h) if h.n else 0 for h in pair]
        return tuple(UNREACHED if diam == INF else diam for diam in diams)

    @pytest.mark.parametrize("cells", [graphs._STACK_CELLS, 64 * 64])
    def test_each_piece_reads_its_own_diameter(self, rng, monkeypatch, cells):
        monkeypatch.setattr(graphs, "_STACK_CELLS", cells)
        g = random_graph(rng, 70, 0.1)
        pieces = []
        for m in [0, 1, 2, 12, 16, 17, 33, 64] + [rng.randint(1, 40) for _ in range(60)]:
            vs = rng.sample(range(g.n), m)
            left = None if rng.random() < 0.4 else sorted(rng.sample(range(m), rng.randint(0, m)))
            pieces.append((vs, left))
        stacks = []
        bfs = graphs.batched_distance_matrices
        monkeypatch.setattr(graphs, "batched_distance_matrices",
                            lambda adjs: stacks.append(adjs.shape) or bfs(adjs))
        got = graphs._piece_diameters(g.adj, pieces)
        assert got == [self.expected(g, *piece) for piece in pieces]
        # padded within a size class, to at most twice a piece's size or to 16
        for count, n, _ in stacks:
            assert count * n * n <= cells or count == 1
        padded = sum(count * n * n for count, n, _ in stacks)
        assert padded <= 8 * sum(max(len(vs), graphs._SMALL_PIECE) ** 2 for vs, _ in pieces)
        assert len(stacks) >= 3

    def test_stacks_by_size_class(self, monkeypatch):
        stacks = []
        bfs = graphs.batched_distance_matrices
        monkeypatch.setattr(graphs, "batched_distance_matrices",
                            lambda adjs: stacks.append(adjs.shape) or bfs(adjs))
        g = path(41)
        sizes = [1, 16, 33, 3, 41, 17, 40, 32]
        got = graphs._piece_diameters(g.adj, [(list(range(m)), None) for m in sizes])
        assert [diam for diam, _ in got] == [m - 1 for m in sizes]
        # a piece and its complement share their class
        assert sorted(stacks) == [(4, 32, 32), (6, 16, 16), (6, 41, 41)]

    def test_no_pieces(self):
        assert graphs._piece_diameters(Graph.empty(3).adj, []) == []

    def test_diameters_of_a_stack(self):
        d = batched_distance_matrices(np.stack([path(4).adj, Graph.empty(4).adj]))
        assert graphs.diameters(d).tolist() == [3, UNREACHED]
        assert graphs.diameters(np.zeros((0, 0), dtype=np.int16)) == 0

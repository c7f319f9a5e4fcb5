import tracemalloc
from itertools import combinations, count, product

import numpy as np
import pytest

import oracle
from flipkit import (
    CapExceeded,
    DomainError,
    FlipSpec,
    Graph,
    Partition,
    SearchBudget,
    SetFamily,
    WeightFn,
    apply_flip,
    breakability_search,
    canonical_pairs,
    complement,
    convert,
    definable_partition,
    dist_definable_matrix,
    dist_family_matrix,
    dist_partition_matrix,
    enumerate_flips,
    enumerate_partitions,
    num_flips,
    reconstruct_flip_spec,
    refine,
    search_definable_emulation,
    separability_search,
)
from flipkit import flips, graphs, metrics
from flipkit.flips import candidate_packs, first_flip, flip_adjacency_batch, pair_index
from flipkit.graphs import UNREACHED, distance_matrix
from flipkit.generators import clique, cycle, gnp, path, star
from conftest import packed_words, random_graph, random_partition_labels


class TestPartition:
    def test_canonical_order(self):
        p = Partition(4, [[3, 2], [0, 1]])
        assert p.parts == ((0, 1), (2, 3))

    def test_rejects_empty_part(self):
        with pytest.raises(DomainError):
            Partition(2, [[0, 1], []])

    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            Partition(2, [[0, 1], [1]])

    def test_rejects_missing_vertex(self):
        with pytest.raises(DomainError):
            Partition(3, [[0, 1]])

    def test_part_of(self):
        p = Partition(4, [[0, 2], [1, 3]])
        assert [p.part_of(v) for v in range(4)] == [0, 1, 0, 1]

    def test_refines(self):
        coarse = Partition(4, [[0, 1], [2, 3]])
        fine = Partition(4, [[0], [1], [2, 3]])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)


class TestApplyFlip:
    def test_empty_spec_is_identity(self, rng):
        g = random_graph(rng, 6, 0.5)
        p = Partition.from_labels(random_partition_labels(rng, 6, 3))
        assert apply_flip(g, p, FlipSpec()) == g

    def test_full_loop_is_complement(self):
        g = clique(4)
        flipped = apply_flip(g, Partition.trivial(4), FlipSpec([(0, 0)]))
        assert flipped.num_edges() == 0
        assert flipped == complement(g)

    def test_c4_cross_pair(self):
        # cycle 0-1-2-3-0; flipping the cross pair toggles exactly the four
        # crossing vertex pairs, keeping the within-part edges 01 and 23.
        g = cycle(4)
        p = Partition(4, [[0, 1], [2, 3]])
        flipped = apply_flip(g, p, FlipSpec([(0, 1)]))
        want = oracle.flip_edges(4, oracle.edges_of(g), p.parts, [(0, 1)])
        assert oracle.edges_of(flipped) == want
        assert set(flipped.edges()) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_involution(self, rng):
        for _ in range(20):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            pairs = canonical_pairs(len(p.parts))
            spec = FlipSpec([q for q in pairs if rng.random() < 0.5])
            assert apply_flip(apply_flip(g, p, spec), p, spec) == g

    def test_composition_by_symmetric_difference(self, rng):
        for _ in range(20):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            pairs = canonical_pairs(len(p.parts))
            s1 = FlipSpec([q for q in pairs if rng.random() < 0.5])
            s2 = FlipSpec([q for q in pairs if rng.random() < 0.5])
            two_step = apply_flip(apply_flip(g, p, s1), p, s2)
            assert two_step == apply_flip(g, p, s1.compose(s2))

    def test_matches_oracle(self, rng):
        for _ in range(20):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            pairs = canonical_pairs(len(p.parts))
            chosen = [q for q in pairs if rng.random() < 0.5]
            got = apply_flip(g, p, FlipSpec(chosen))
            want = oracle.flip_edges(n, oracle.edges_of(g), p.parts, chosen)
            assert oracle.edges_of(got) == want

    def test_bad_spec_index(self):
        with pytest.raises(DomainError):
            apply_flip(path(3), Partition.trivial(3), FlipSpec([(0, 1)]))


class TestDefinablePartition:
    def test_empty_set_is_trivial(self, rng):
        g = random_graph(rng, 5, 0.5)
        assert definable_partition(g, []) == Partition.trivial(5)

    def test_empty_graph_is_a_domain_error(self):
        with pytest.raises(DomainError, match="empty graph"):
            definable_partition(Graph.empty(0), [])

    def test_star_center(self):
        g = star(4)
        p = definable_partition(g, [0])
        assert p.parts == ((0,), (1, 2, 3))

    def test_p4_middle_vertex(self):
        g = path(4)  # 0-1-2-3
        p = definable_partition(g, [1])
        assert p.parts == ((0, 2), (1,), (3,))

    def test_size_bound(self, rng):
        for _ in range(20):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.random())
            k = rng.randint(0, min(4, n))
            s = rng.sample(range(n), k)
            p = definable_partition(g, s)
            assert len(p.parts) <= len(s) + 2 ** len(s)

    def test_matches_oracle(self, rng):
        for _ in range(20):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.random())
            s = rng.sample(range(n), rng.randint(0, 3))
            got = definable_partition(g, s)
            assert list(got.parts) == oracle.definable_parts(n, oracle.edges_of(g), s)

    def test_class_count_respects_trace_bound(self, rng):
        # neighborhood classes are traces on the defining set, so their
        # count obeys the binomial-sum bound at the graph's VC-dimension
        from math import comb

        from flipkit import vc_dimension

        for _ in range(15):
            n = rng.randint(2, 10)
            g = random_graph(rng, n, rng.random())
            d = vc_dimension(g).vcdim
            k = rng.randint(0, min(4, n))
            s = set(rng.sample(range(n), k))
            p = definable_partition(g, s)
            classes = len(p.parts) - len(s)
            assert classes <= sum(comb(k, i) for i in range(min(d, k) + 1))


class TestDefinableLabels:
    """The defining-set candidates carry part labels, not Partitions: the
    labels are those of ``definable_partition``, and only a search's
    witness is built as a Partition."""

    def test_labels_are_the_partitions_labels(self, rng):
        cases = []
        for _ in range(40):
            n = rng.randint(1, 12)
            s = [rng.randrange(n) for _ in range(rng.randint(0, 5))]  # unsorted, repeats
            cases.append((random_graph(rng, n, rng.random()), s))
        for n, k in [(70, 64), (80, 70)]:  # more defining vertices than a uint64 has bits
            cases.append((random_graph(rng, n, 0.5), rng.sample(range(n), k)))
        # outside s = 0..69, vertex 70 differs from 71 and 73 only at 69, and from 72 only at 0
        common = [(u, v) for u in range(70, 74) for v in range(1, 69) if v % 3]
        g = Graph.from_edges(74, common + [(70, 69), (72, 0), (72, 69)])
        cases.append((g, range(70)))
        assert flips._definable_labels(g, range(70))[70:].tolist() == [70, 71, 72, 71]
        assert any(len(set(s)) < len(s) for _, s in cases)
        for g, s in cases:
            labels = flips._definable_labels(g, s)
            want = definable_partition(g, s).part_labels()
            assert labels.dtype == want.dtype and labels.tolist() == want.tolist(), (g.edges(), s)

    def test_refusals_keep_their_text(self):
        """The labels take a checked set; the two entries that take a
        caller's set check it first."""
        with pytest.raises(DomainError, match="^definable partition of an empty graph is undefined$"):
            flips._definable_labels(Graph.empty(0), [])
        for entry in (definable_partition, lambda g, s: metrics._defining_partition(g, s, None)):
            with pytest.raises(DomainError, match="^vertex 5 out of range for n=4$"):
                entry(path(4), [1, 5])

    @pytest.mark.parametrize("cap", [2, 3])
    def test_a_set_over_the_cap_comes_with_none(self, cap):
        # on star(4), {} has 1 part, {0} 2, {1} 3 and {1, 2} 4
        g = star(4)
        got = dict(flips.definable_candidates(g, 2, cap))
        parts = {s: len(definable_partition(g, s).parts) for s in got}
        assert len(got) == 11 and {cap, cap + 1} <= set(parts.values())
        for s, labels in got.items():
            if parts[s] > cap:
                assert labels is None
            else:
                assert labels.tolist() == definable_partition(g, s).part_labels().tolist()

    def test_a_set_over_the_code_width_comes_with_none(self, monkeypatch):
        """Under a part cap of 16, {0, 1, 2} defines 3 singletons and 8
        neighbourhood classes, 11 parts, whose codes would need 66 bits: it
        comes with None, like a set over the cap, and every set of 10 parts
        or fewer keeps its labels."""
        monkeypatch.setenv("FLIPKIT_MAX_PARTS", "16")
        g = Graph.from_edges(12, [(b, 3 + i) for i in range(8) for b in range(3) if i >> b & 1])
        got = dict(flips.definable_candidates(g, 3, None))
        assert len(got) == 299 and got[(0, 1, 2)] is None
        for s, labels in got.items():
            want = definable_partition(g, s)
            assert (labels is None) == (len(want.parts) > 10), s
            assert labels is None or labels.tolist() == want.part_labels().tolist()

    def test_a_search_builds_only_its_witness(self, monkeypatch):
        built = []
        store = Partition._store  # what every Partition is built through
        monkeypatch.setattr(Partition, "_store",
                            lambda self, labels: built.append(labels) or store(self, labels))
        g = gnp(8, 0.5, seed=11)
        found = breakability_search(g, range(8), 1, 2, SearchBudget(s_max=2))
        assert found and found.sets_tried >= 3 and len(built) == 1
        g = gnp(8, 0.5, seed=7)
        gprime = convert(g, Partition.from_labels([v % 2 for v in range(8)])).flipped
        built.clear()
        found = search_definable_emulation(g, gprime, 1, 2)
        assert found and found.sets_tried >= 3 and len(built) == 1


class TestEnumerateFlips:
    def test_counts(self, rng):
        g = random_graph(rng, 6, 0.5)
        for k in (1, 2, 3):
            p = Partition(6, [[v for v in range(6) if v % k == i] for i in range(k)])
            flips = list(enumerate_flips(g, p))
            assert len(flips) == num_flips(k) == 2 ** (k * (k + 1) // 2)
            assert len({spec.pairs for spec, _ in flips}) == len(flips)

    def test_single_part_yields_graph_and_complement(self):
        g = clique(3)
        flips = list(enumerate_flips(g, Partition.trivial(3)))
        assert [spec.pairs for spec, _ in flips] == [frozenset(), frozenset({(0, 0)})]
        assert flips[0][1] == g
        assert flips[1][1] == complement(g)

    def test_spec_order_is_binary_counter(self, rng):
        g = random_graph(rng, 5, 0.5)
        p = Partition(5, [[0, 1], [2, 3], [4]])
        order = flips.canonical_pairs(3)
        for bits, (spec, _) in enumerate(enumerate_flips(g, p)):
            assert sum(1 << order.index(pair) for pair in spec.pairs) == bits

    def test_graphs_match_specs(self, rng):
        g = random_graph(rng, 6, 0.4)
        p = Partition(6, [[0, 3], [1, 4], [2, 5]])
        for spec, flipped in enumerate_flips(g, p):
            assert flipped == apply_flip(g, p, spec)

    def test_cap_refusal_names_the_flag(self):
        g = Graph.empty(5)
        p = Partition.singletons(5)
        hint = "raise max_parts or FLIPKIT_MAX_PARTS"
        with pytest.raises(CapExceeded, match=hint):
            list(enumerate_flips(g, p))

    def test_env_var_overrides_cap(self, monkeypatch):
        g = Graph.empty(5)
        p = Partition.singletons(5)
        monkeypatch.setenv("FLIPKIT_MAX_PARTS", "5")
        assert sum(1 for _ in enumerate_flips(g, p)) == num_flips(5)


class TestOnePartCap:
    """FLIPKIT_MAX_PARTS reaches every exhaustive entry point the same way:
    at the cap an input runs, one part above it is refused or skipped."""

    @pytest.mark.parametrize("cap", [2, 5])
    def test_every_entry_point_applies_the_env_cap(self, monkeypatch, cap):
        monkeypatch.setenv("FLIPKIT_MAX_PARTS", str(cap))
        g = path(6)
        at_cap = Partition.from_labels([min(v, cap - 1) for v in range(6)])
        above = Partition.from_labels([min(v, cap) for v in range(6)])
        next(enumerate_flips(g, at_cap))
        dist_partition_matrix(g, at_cap)
        for run in (lambda: next(enumerate_flips(g, above)),
                    lambda: dist_partition_matrix(g, above)):
            with pytest.raises(CapExceeded, match=f"above the cap {cap}; raise max_parts"):
                run()

        s = [2, 3] if cap == 2 else [0, 1, 2, 3]  # 5 and 6 parts on path(6)
        with pytest.raises(CapExceeded, match=f"above the cap {cap}; raise max_parts"):
            dist_definable_matrix(g, s)
        with pytest.raises(CapExceeded, match=f"above the cap {cap}; raise max_parts"):
            dist_family_matrix(g, SetFamily([s]))

        ones = WeightFn.uniform(6)
        assert separability_search(g, ones, 1, 1, cap)
        with pytest.raises(CapExceeded, match=f"above the cap {cap}; raise max_parts"):
            separability_search(g, ones, 1, 1, cap + 1)

        # misses: every defining set of size <= 1 is tried or skipped
        skipped = sum(len(definable_partition(g, s).parts) > cap
                      for s in [()] + [(v,) for v in range(6)])
        found = breakability_search(g, range(6), 1, 6, SearchBudget())
        assert not found and (found.sets_tried, found.sets_skipped) == (7 - skipped, skipped)
        found = search_definable_emulation(g, Graph.empty(6), 1, 1)
        assert not found and (found.sets_tried, found.sets_skipped) == (7 - skipped, skipped)

    @pytest.mark.parametrize("raw", ["0", "-3", "x", "2.5"])
    def test_bad_env_cap_is_a_usage_error(self, monkeypatch, raw):
        monkeypatch.setenv("FLIPKIT_MAX_PARTS", raw)
        message = f"FLIPKIT_MAX_PARTS must be an integer >= 1, got '{raw}'"
        with pytest.raises(DomainError, match=message):
            list(enumerate_flips(path(3), Partition.trivial(3)))

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "4"])
    def test_bad_cap_argument_is_a_usage_error(self, bad):
        g, p = path(3), Partition.trivial(3)
        with pytest.raises(DomainError, match="the part cap must be an integer >= 1"):
            dist_partition_matrix(g, p, max_parts=bad)
        with pytest.raises(DomainError, match="the part cap must be an integer >= 1"):
            breakability_search(g, [0, 2], 1, 1, SearchBudget(part_cap=bad))

    def test_the_cap_is_checked_once(self, monkeypatch):
        """check_part_cap checks the cap it resolves once, and keeps both
        refusal texts: a bool argument and a non-number in the variable."""
        checked = []
        real = flips._check_int
        monkeypatch.setattr(flips, "_check_int", lambda x, *rest: checked.append(x) or real(x, *rest))
        monkeypatch.setattr(graphs, "_check_int", lambda x, *rest: checked.append(x) or real(x, *rest))
        flips.check_part_cap(3, 4)
        assert checked == [4]
        with pytest.raises(DomainError, match=r"^the part cap must be an integer >= 1, got True$"):
            flips.check_part_cap(1, True)
        monkeypatch.setenv("FLIPKIT_MAX_PARTS", "abc")
        with pytest.raises(DomainError, match=r"^FLIPKIT_MAX_PARTS must be an integer >= 1, got 'abc'$"):
            flips.check_part_cap(1, None)


class TestPairIndex:
    def test_matches_the_oracle_pair_by_pair(self, rng):
        singletons = 0
        for _ in range(30):
            n = rng.randint(1, 8)
            p = Partition.from_labels(random_partition_labels(rng, n, 5))
            singletons += sum(len(part) == 1 for part in p.parts)
            index = pair_index(p)
            pairs = canonical_pairs(len(p.parts))
            assert index.dtype == np.int64 and index.shape == (n, n)
            assert (np.diag(index) == -1).all()
            off = ~np.eye(n, dtype=bool)
            assert ((index[off] >= 0) & (index[off] < len(pairs))).all()
            for t, pair in enumerate(pairs):
                cells = {frozenset(cell) for cell in np.argwhere(index == t).tolist()}
                assert cells == oracle.flip_edges(n, (), p.parts, [pair]), (p, pair)
        assert singletons > 0


    def test_label_rows_match_their_partitions(self, rng):
        """Over a (rows, n) label array, each row maps like its partition,
        whatever the part counts of the other rows."""
        parts = [Partition.from_labels(random_partition_labels(rng, 6, 5)) for _ in range(12)]
        index = pair_index(np.stack([p.part_labels() for p in parts]))
        assert index.shape == (12, 6, 6) and len({len(p) for p in parts}) > 2
        for row, p in zip(index, parts):
            assert np.array_equal(row, pair_index(p))


    @pytest.mark.parametrize("parts", [*range(1, 12), 300])
    def test_every_part_count_maps_to_the_canonical_order(self, rng, parts):
        """Each cell maps to its pair's place in canonical_pairs, the
        diagonal to -1: through the table up to 11 parts, and through the
        closed form at 300 parts, as reconstruct_flip_spec meets."""
        labels = list(range(parts)) + [rng.randrange(parts) for _ in range(rng.randint(0, 4))]
        rng.shuffle(labels)
        order = {pair: t for t, pair in enumerate(canonical_pairs(parts))}
        want = [[-1 if u == v else order[min(a, b), max(a, b)] for v, b in enumerate(labels)]
                for u, a in enumerate(labels)]
        index = pair_index(np.array(labels))
        assert index.dtype == np.int64 and index.tolist() == want

    def test_mixed_part_counts_and_no_cells(self, rng):
        """Stacked rows of 1 to 11 parts, and the same rows with one of 13
        parts, map row by row; no vertices map no cells, one vertex its
        diagonal alone."""
        rows = [[rng.randrange(k) for _ in range(13)] for k in range(1, 12)]
        for stack in (rows, rows + [list(range(13))]):
            index = pair_index(np.array(stack))
            assert index.shape == (len(stack), 13, 13)
            for row, labels in zip(index, stack):
                assert np.array_equal(row, pair_index(np.array(labels)))
        assert pair_index(Partition(0, [])).shape == (0, 0)
        assert pair_index(np.zeros((3, 0), dtype=np.int64)).shape == (3, 0, 0)
        assert pair_index(Partition.trivial(1)).tolist() == [[-1]]
        assert pair_index(np.zeros((2, 1), dtype=np.int64)).tolist() == [[[-1]], [[-1]]]


class TestDistinctFlipCodes:
    @pytest.mark.parametrize("chunk", [3, None])
    def test_the_codes_without_dead_bits_in_chunks(self, rng, monkeypatch, chunk):
        """The codes that set no self pair of a singleton part, ascending,
        in chunks of at most CHUNK, from a Partition or from its labels."""
        if chunk is not None:
            monkeypatch.setattr(flips, "CHUNK", chunk)
        for _ in range(30):
            p = Partition.from_labels(random_partition_labels(rng, rng.randint(1, 7), 4))
            pairs = canonical_pairs(len(p))
            dead = sum(1 << t for t, (i, j) in enumerate(pairs) if i == j and len(p.parts[i]) == 1)
            want = [c for c in range(num_flips(len(p))) if not c & dead]
            for source in (p, p.part_labels().tolist()):
                chunks = list(flips.distinct_flip_codes(source))
                assert all(c.dtype == np.uint64 and 0 < len(c) <= flips.CHUNK for c in chunks)
                assert np.concatenate(chunks).tolist() == want

    @pytest.mark.parametrize("chunk", [4, None])
    def test_a_graph_fixes_each_homogeneous_block(self, rng, monkeypatch, chunk):
        """Given a graph, the codes set each complete block's bit, clear
        each empty block's, and spread the counter over the other pairs'
        positions in counter order, in chunks of CHUNK: the codes a plain
        count of each block's cells and edges gives."""
        monkeypatch.setattr(flips, "_SHORT_STREAM", 0)  # every stream reads the graph
        if chunk is not None:
            monkeypatch.setattr(flips, "CHUNK", chunk)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
            labels = random_partition_labels(rng, n, 5)
            ones, free = 0, []
            for t, (i, j) in enumerate(canonical_pairs(max(labels) + 1)):
                cells = [(u, v) for u in range(n) for v in range(n)
                         if u != v and {labels[u], labels[v]} == {i, j}]
                edges = sum(bool(g.adj[u, v]) for u, v in cells)
                ones |= (0 < edges == len(cells)) << t
                free += [t] * (0 < edges < len(cells))
            want = [ones | sum(1 << t for b, t in enumerate(free) if c >> b & 1)
                    for c in range(1 << len(free))]
            chunks = list(flips.distinct_flip_codes(np.array(labels), adj=g.adj))
            assert all(c.dtype == np.uint64 and 0 < len(c) <= flips.CHUNK for c in chunks)
            assert np.concatenate(chunks).tolist() == want

    def test_ten_parts_spread_the_counter_over_the_live_bits(self):
        """At 10 parts, 8 of them singletons, bit b of the counter lands on
        the b-th live pair; 11 parts would need 66 bits and are refused."""
        p = Partition(12, [[0], [1], [2, 10], [3], [4], [5, 11], [6], [7], [8], [9]])
        pairs = canonical_pairs(10)
        live = [t for t, (i, j) in enumerate(pairs) if i != j or len(p.parts[i]) > 1]
        first = next(flips.distinct_flip_codes(p))
        want = [sum(1 << t for b, t in enumerate(live) if c >> b & 1) for c in range(len(first))]
        assert first.tolist() == want and len(first) == flips.CHUNK
        with pytest.raises(CapExceeded, match="the part count of a flip code is 11, above the cap 10"):
            next(flips.distinct_flip_codes(Partition.singletons(11)))


class TestMergeRepeats:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_kept_codes_are_the_brute_force_filter(self, k, monkeypatch):
        """For every pattern of live self pairs up to 5 parts, the raw codes
        are the distinct flip codes whose toggles are not a flip of a
        partition that merges two parts, chunk by chunk; a whole stream of
        at most CHUNK codes comes from one table of read-only chunks, which
        a second call returns without filtering again."""
        for live in product((False, True), repeat=k):
            labels = np.repeat(np.arange(k), [2 if x else 1 for x in live])
            chunks = list(flips.distinct_flip_codes(labels))
            codes = np.concatenate(chunks)
            toggles = flips.flip_adjacency_pack(len(labels), [(labels, codes)])
            toggles = toggles.reshape(len(codes), -1)
            repeat = np.zeros(len(codes), dtype=bool)
            for i, j in combinations(range(k), 2):
                index = pair_index(np.where(labels == j, i, labels)).ravel()
                merged = np.ones(len(codes), dtype=bool)
                for t in np.unique(index[index >= 0]):
                    block = toggles[:, index == t]
                    merged &= block.all(1) | ~block.any(1)
                repeat |= merged
            kept = list(flips.distinct_flip_codes(labels, raw=True))
            assert all(len(c) for c in kept), live
            assert np.concatenate([[], *kept]).tolist() == codes[~repeat].tolist(), live
            assert not any(c.flags.writeable for c in kept)
            if len(chunks) == 1:
                with monkeypatch.context() as m:
                    m.setattr(flips, "_drop_merges", None)  # a call would fail
                    again = list(flips.distinct_flip_codes(labels, raw=True))
                assert len(again) == len(kept) and all(a is b for a, b in zip(again, kept))


class TestFlipAdjacencyBatch:
    def test_top_pair_of_ten_parts_toggles(self):
        g = Graph.empty(11)
        p = Partition(11, [[v] for v in range(9)] + [[9, 10]])
        (adj,) = flip_adjacency_batch(g, p, np.array([1 << 54], dtype=np.uint64))
        assert adj[9, 10] and adj.sum() == 2

    def test_matches_apply_flip_on_random_codes(self, rng):
        for k in range(3, 11):
            n = rng.randint(k, k + 3)
            g = random_graph(rng, n, rng.random())
            labels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
            rng.shuffle(labels)
            p = Partition.from_labels(labels)
            npairs = len(canonical_pairs(k))
            # one set bit in every 8-bit group, the top pair (bit 54 at 10
            # parts), all pairs, and random codes
            codes = [1 << lo for lo in range(0, npairs, 8)]
            codes += [1 << (npairs - 1), (1 << npairs) - 1]
            codes += [rng.getrandbits(npairs) for _ in range(6)]
            adjs = flip_adjacency_batch(g, p, np.array(codes, dtype=np.uint64))
            assert adjs.dtype == bool and adjs.shape == (len(codes), n, n)
            for code, adj in zip(codes, adjs):
                want = apply_flip(g, p, FlipSpec.from_bits(k, code))
                assert np.array_equal(adj, want.adj), (p, code)

    def test_bits_above_the_pairs_are_ignored(self, rng):
        for k in (3, 5, 10):
            n = k + 2
            g = random_graph(rng, n, 0.5)
            p = Partition.from_labels(list(range(k)) + [0, 1])
            npairs = len(canonical_pairs(k))
            codes = np.array([rng.getrandbits(npairs) for _ in range(8)], dtype=np.uint64)
            stray = np.array(
                [rng.getrandbits(64) >> npairs << npairs for _ in codes], dtype=np.uint64
            )
            assert stray.any()
            assert np.array_equal(
                flip_adjacency_batch(g, p, codes | stray), flip_adjacency_batch(g, p, codes)
            )
        # a pack of many pieces shifts every code in the dtype of its widest
        # piece: bits at and above each piece's own pairs change no mask, and
        # the diagonal stays clear where bit 0 is set
        n, pieces, strayed = 12, [], []
        for k in (1, 3, 5, 10, 2):
            p = Partition.from_labels(list(range(k)) + [rng.randrange(k) for _ in range(n - k)])
            npairs = len(canonical_pairs(k))
            codes = np.array([1, *(rng.getrandbits(npairs) for _ in range(5))], dtype=np.uint64)
            stray = np.array(
                [(rng.getrandbits(64 - npairs) | 1) << npairs for _ in codes], dtype=np.uint64
            )
            pieces.append((p, codes))
            strayed.append((p, codes | stray))
        masks = flips.flip_adjacency_pack(n, strayed)
        one_by_one = np.concatenate([flips.flip_adjacency_pack(n, [piece]) for piece in pieces])
        assert np.array_equal(masks, one_by_one)
        assert not masks[:, range(n), range(n)].any() and masks.any()

    def test_refuses_more_than_64_pairs_whatever_the_cap(self, monkeypatch):
        monkeypatch.setenv("FLIPKIT_MAX_PARTS", "11")
        g = Graph.empty(11)
        p = Partition.singletons(11)
        with pytest.raises(CapExceeded, match="the part count of a flip code is 11, above the cap 10"):
            flip_adjacency_batch(g, p, np.zeros(1, dtype=np.uint64))
        with pytest.raises(CapExceeded, match="the part count of a flip code is 11, above the cap 10"):
            dist_partition_matrix(g, p)


class TestManyPiecePacks:
    @staticmethod
    def _check(rng, n, pieces) -> np.ndarray:
        """The masks of ``pieces``, (Partition, codes) pairs: each flip is
        the reference ``apply_flip`` of its spec."""
        g = random_graph(rng, n, rng.random())
        masks = flips.flip_adjacency_pack(n, [(p.part_labels(), np.array(codes, dtype=np.uint64))
                                              for p, codes in pieces])
        assert masks.dtype == bool and masks.shape == (sum(len(c) for _, c in pieces), n, n)
        flat = iter(masks)
        for p, codes in pieces:
            for code in codes:
                want = apply_flip(g, p, FlipSpec.from_bits(len(p.parts), code))
                assert np.array_equal(g.adj ^ next(flat), want.adj), (p, code)
        return masks

    @pytest.mark.parametrize("shift_bytes", [None, 100], ids=["default", "100-bytes"])
    def test_masks_are_the_reference_flips(self, rng, monkeypatch, shift_bytes):
        """Packs of 2 to 9 pieces mixing partitions of 1 to 10 parts, some
        of one flip, on 1 to 12 vertices, their codes shifted in 8, 16, 32
        and 64 bits, built in one block or a block of 100 bytes (at most a
        few flips) at a time: every flip is its reference, flip by flip."""
        if shift_bytes:
            monkeypatch.setattr(flips, "_SHIFT_BYTES", shift_bytes)
        widths, single = set(), 0
        for _ in range(40):
            n = rng.randint(1, 12)
            pieces = []
            for _ in range(rng.randint(2, 9)):
                k = rng.randint(1, min(10, n))
                labels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
                rng.shuffle(labels)
                npairs = len(canonical_pairs(k))
                size = rng.choice([1, 1, 2, 7, 30])
                pieces.append((Partition.from_labels(labels),
                               [rng.getrandbits(npairs) for _ in range(size)]))
                single += size == 1
            k = max(len(p.parts) for p, _ in pieces)
            widths.add(np.min_scalar_type((1 << k * (k + 1) // 2) - 1).itemsize)
            self._check(rng, n, pieces)
        assert single >= 20 and widths == {1, 2, 4, 8}

    def test_one_vertex(self, rng):
        """On one vertex every flip is the one-vertex graph."""
        one = Partition.trivial(1)
        assert not self._check(rng, 1, [(one, [0, 1]), (one, [1]), (one, [0])]).any()

    def test_top_pair_of_ten_parts(self, rng):
        """Bit 54, the pair (9, 9) of 10 parts, toggles its own block in a
        pack that also holds a piece of 2 parts."""
        ten = Partition(11, [[v] for v in range(9)] + [[9, 10]])
        two = Partition.from_labels([0] * 6 + [1] * 5)
        masks = self._check(rng, 11, [(two, [1, 7]), (ten, [1 << 54, 1 << 53 | 1 << 54]), (two, [2])])
        assert masks[2, 9, 10] and masks[2].sum() == 2

    def test_memory_of_a_full_pack_is_bounded(self, rng):
        """A many-piece build of a full pack, CHUNK * 100 cells over 12
        vertices in pieces of 10 parts, whose codes are uint64, peaks under
        3 times its bool masks: the shifts are taken in a buffer of
        ``_SHIFT_BYTES``, so no (flips, n^2) array of codes, which alone
        would be 8 times the masks, is built."""
        n = 12
        f = flips.CHUNK * 100 // n**2
        pieces, left = [], f
        while left:
            size = min(left, rng.randint(1, 80))
            labels = list(range(10)) + [rng.randrange(10) for _ in range(n - 10)]
            rng.shuffle(labels)
            codes = np.array([rng.getrandbits(55) for _ in range(size)], dtype=np.uint64)
            pieces.append((np.array(flips._first_labels(labels)), codes))
            left -= size
        tracemalloc.start()
        try:
            masks = flips.flip_adjacency_pack(n, pieces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert masks.shape == (f, n, n) and len(pieces) > 50
        assert peak < 3 * masks.nbytes


class TestFlipWords:
    @pytest.mark.parametrize("n", [1, 2, 9, 80])
    def test_words_are_the_packed_masks(self, rng, n):
        """On every bit below F, the words built from the codes are the
        ``flip_adjacency_pack`` masks XOR the adjacency, packed along the
        flips: one, two and five pieces cut anywhere, inside a word too,
        over partitions of 1 to 10 parts, whose codes are shifted in 8,
        16, 32 and 64 bits."""
        parts = (1 + i % min(10, n) for i in count())
        widths = set()
        for f in (64, 65, 127, 129, 300):
            g = random_graph(rng, n, rng.random())
            for npieces in (1, 2, 5):
                cuts = sorted(rng.sample(range(1, f), npieces - 1))
                pieces = []
                for start, end in zip([0, *cuts], [*cuts, f]):
                    labels = np.array(rng.sample(range(n), n)) % next(parts)
                    pairs = int(pair_index(labels).max(initial=0)) + 1
                    widths.add(np.min_scalar_type((1 << pairs) - 1).itemsize)
                    codes = [rng.getrandbits(pairs) for _ in range(end - start)]
                    pieces.append((labels, np.array(codes, dtype=np.uint64)))
                got = flips.flip_words(g.adj, pieces)
                want = packed_words(g.adj ^ flips.flip_adjacency_pack(n, pieces))
                below = np.full((len(want), 1, 1), (1 << 64) - 1, dtype=np.uint64)
                below[-1] >>= -f % 64
                assert got.dtype == np.uint64 and got.shape == want.shape == (-(-f // 64), n, n)
                assert np.array_equal(got & below, want)
        assert widths == ({1, 2, 4, 8} if n >= 9 else {1})

    def test_no_vertices(self):
        """On no vertices a pack, of one piece or two, is F empty masks and
        W words of no cells."""
        pieces = [(np.zeros(0, dtype=np.int64), np.zeros(65, dtype=np.uint64))]
        assert flips.flip_adjacency_pack(0, pieces).shape == (65, 0, 0)
        assert flips.flip_adjacency_pack(0, pieces * 2).shape == (130, 0, 0)
        assert flips.flip_words(np.zeros((0, 0), dtype=bool), pieces).shape == (2, 0, 0)


class TestFirstFlip:
    def test_walks_the_candidate_stream_to_the_first_hit(self, monkeypatch):
        """Skipped sets before and after the hit, a miss, and a hit in the
        second chunk of a partition with a singleton part (whose dead
        self-pair codes are never built) at CHUNK = 3."""
        monkeypatch.setattr(flips, "CHUNK", 3)
        g = path(5)
        hit_partition = Partition(5, [[0], [1, 2], [3, 4]])
        stream = [("a", None), ("b", Partition.trivial(5)), ("c", None),
                  ("d", hit_partition), ("e", None), ("f", Partition.trivial(5))]
        drawn = []

        def candidates():
            for tag, p in stream:
                drawn.append(tag)
                yield tag, p

        def first_hit(dists):
            # the first flip where 0 keeps a neighbor but cannot reach 4 is
            # d's spec {(1, 1)}, code 8
            hits = np.flatnonzero((dists[:, 0, 4] == UNREACHED) & (dists[:, 0] == 1).any(-1))
            return int(hits[0]) if hits.size else None

        tried, skipped, specs, hit = first_flip(g, candidate_packs(5, candidates()), first_hit)
        # b's 2 specs, then d's codes 0..8
        assert (tried, skipped, specs) == (2, 2, 2 + 9)
        tag, p, spec, h = hit
        assert (tag, p, spec) == ("d", hit_partition, FlipSpec([(1, 1)]))
        assert h == apply_flip(g, hit_partition, spec)
        assert drawn == ["a", "b", "c", "d"]

    def test_a_miss_counts_every_spec(self):
        stream = [(None, Partition.trivial(3)), (None, None), (None, Partition.singletons(3))]
        packs = candidate_packs(3, stream)
        assert first_flip(path(3), packs, lambda dists: None) == (2, 1, 2 + 64, None)

    # A stream over path(4) with its flips in stack order: 2x2 partitions
    # have 8 distinct flips (codes 0..7), [[0], [1, 2, 3]] has 4 (codes 0,
    # 2, 4, 6; 8 specs) and the trivial partition 2.
    PACK_STREAM = [
        ("a", Partition(4, [[0, 1], [2, 3]])),  # flips 0-7
        ("b", Partition(4, [[0, 2], [1, 3]])),  # flips 8-15
        ("c", Partition(4, [[0, 3], [1, 2]])),  # flips 16-23
        ("d", None),
        ("e", Partition(4, [[0], [1, 2, 3]])),  # flips 24-27
        ("f", Partition.trivial(4)),  # flips 28-29
        ("g", None),
        ("h", Partition(4, [[0, 1], [2, 3]])),  # flips 30-37
        ("i", Partition.trivial(4)),  # flips 38-39
        ("j", None),
    ]

    @pytest.mark.parametrize("chunk", [3, 8])
    @pytest.mark.parametrize("case, flip, counts, hit, drawn", [
        # flip 24 opens pack 8 of 3 and pack 3 of 8, right after skipped d
        ("first flip after a skip", 24, (4, 1, 8 * 3 + 1), ("e", 0),
         {3: "abcde", 8: "abcdefgh"}),
        # h's flips fill packs 10-12 of 3 and packs 3-4 of 8
        ("partition across packs", 34, (6, 2, 8 * 3 + 8 + 2 + 4 + 1), ("h", 4),
         {3: "abcdefgh", 8: "abcdefghi"}),
        ("miss across packs", None, (7, 3, 8 * 3 + 8 + 2 + 8 + 2), None,
         {3: "abcdefghij", 8: "abcdefghij"}),
        # flip 27 shares pack 9 of 3 with f and pack 3 of 8 with f and h
        ("pack drew past the hit", 27, (4, 1, 8 * 3 + 6 + 1), ("e", 6),
         {3: "abcdef", 8: "abcdefgh"}),
    ])
    def test_pack_boundaries(self, monkeypatch, chunk, case, flip, counts, hit, drawn):
        """Packs of CHUNK flips cut the stream at fixed flips; the accepted
        flip, named by its place in the whole stream, maps back to its
        candidate and code wherever the cuts fall."""
        monkeypatch.setattr(flips, "CHUNK", chunk)
        g, seen, stacks, accepted = path(4), [], [], []

        def candidates():
            for tag, p in self.PACK_STREAM:
                seen.append(tag)
                yield tag, p

        def first_hit(dists):
            start = sum(stacks)
            stacks.append(len(dists))
            if flip is not None and start <= flip < start + len(dists):
                accepted.append(dists[flip - start])
                return flip - start
            return None

        tried, skipped, specs, got = first_flip(g, candidate_packs(4, candidates()), first_hit)
        assert (tried, skipped, specs) == counts
        assert "".join(seen) == drawn[chunk]
        assert all(size == chunk for size in stacks[:-1]) and 0 < stacks[-1] <= chunk
        if hit is None:
            assert got is None and sum(stacks) == 40
            return
        tag, p, spec, h = got
        want_tag, code = hit
        want_p = dict(self.PACK_STREAM)[want_tag]
        assert (tag, p, spec) == (want_tag, want_p, FlipSpec.from_bits(len(want_p), code))
        assert h == apply_flip(g, p, spec)
        assert np.array_equal(accepted[0], distance_matrix(h))

    def test_packs_double_from_64_up_to_chunk(self, monkeypatch):
        """Packs of 64, 128, 256 flips, then CHUNK, and the rest last."""
        monkeypatch.setattr(flips, "CHUNK", 256)
        sizes = []

        def miss(dists):
            sizes.append(len(dists))

        stream = [(None, Partition.trivial(4))] * 350
        assert first_flip(path(4), candidate_packs(4, stream), miss) == (350, 0, 700, None)
        assert sizes == [64, 128, 256, 252]

    def test_packs_are_bounded_by_cells(self, monkeypatch):
        """On 60 vertices a pack holds at most CHUNK * 100 cells (flips
        times n^2), 113 flips, where 10 vertices allow CHUNK flips."""
        sizes = []
        real = flips.flip_adjacency_pack

        def spy(g, pieces):
            sizes.append(sum(len(codes) for _, codes in pieces))
            return real(g, pieces)

        monkeypatch.setattr(flips, "flip_adjacency_pack", spy)
        result = breakability_search(gnp(60, 0.5, seed=7), range(60), 2, 2, SearchBudget(s_max=1))
        assert (result.witness, result.sets_tried, result.flips_tried) == (None, 61, 3842)
        assert max(sizes) * 60**2 <= flips.CHUNK * 100 < (max(sizes) + 1) * 60**2
        assert sizes[:3] == [64, 113, 113] and len(sizes) > 10

    def test_refusal_is_raised_where_it_is_drawn(self):
        """An 11-part partition, whose codes would need 66 bits, is refused
        when drawn."""
        stream = [("a", Partition.trivial(11)), ("b", Partition.singletons(11))]
        with pytest.raises(CapExceeded, match="the part count of a flip code is 11, above the cap 10"):
            first_flip(Graph.empty(11), candidate_packs(11, stream), lambda dists: None)


class TestRefine:
    def test_against_trivial(self, rng):
        n = 6
        g = random_graph(rng, n, 0.5)
        p = Partition.from_labels(random_partition_labels(rng, n, 3))
        assert refine(p, Partition.trivial(n)) == p
        assert refine(p, p) == p

    def test_crossing_partitions_give_singletons(self):
        p = Partition(4, [[0, 1], [2, 3]])
        q = Partition(4, [[0, 2], [1, 3]])
        assert refine(p, q) == Partition.singletons(4)

    def test_result_refines_both(self, rng):
        for _ in range(10):
            n = rng.randint(2, 8)
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            q = Partition.from_labels(random_partition_labels(rng, n, 3))
            r = refine(p, q)
            assert r.refines(p) and r.refines(q)

    def test_mismatched_universes(self):
        with pytest.raises(DomainError):
            refine(Partition.trivial(3), Partition.trivial(4))


class TestEnumeratePartitions:
    def test_counts_bell_numbers(self):
        # partitions of 4 elements into <= 4 parts: Bell(4) = 15
        assert sum(1 for _ in enumerate_partitions(4, 4)) == 15
        # into <= 2 parts: 2^(4-1) = 8
        assert sum(1 for _ in enumerate_partitions(4, 2)) == 8

    def test_first_is_trivial(self):
        first = next(enumerate_partitions(5, 3))
        assert first == Partition.trivial(5)

    def test_all_distinct(self):
        seen = [p.parts for p in enumerate_partitions(5, 3)]
        assert len(seen) == len(set(seen))

    def test_stream_arguments_are_checked_at_the_call(self):
        """The candidate streams refuse bad arguments when called, before
        anything draws from them."""
        with pytest.raises(DomainError, match="n must be an integer >= 1, got 0"):
            enumerate_partitions(0, 3)
        with pytest.raises(DomainError, match="max_parts must be an integer >= 1"):
            flips.partition_labels(3, 0)
        with pytest.raises(DomainError, match="s_max must be an integer >= 0"):
            flips.definable_candidates(path(3), -1, None)
        with pytest.raises(DomainError, match="the part cap must be an integer >= 1"):
            flips.definable_candidates(path(3), 1, 0)


def test_reconstruct_flip_spec_roundtrip(rng):
    for _ in range(20):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.random())
        p = Partition.from_labels(random_partition_labels(rng, n, 4))
        pairs = canonical_pairs(len(p.parts))
        spec = FlipSpec([q for q in pairs if rng.random() < 0.5])
        flipped = apply_flip(g, p, spec)
        recovered = reconstruct_flip_spec(g, flipped, p)
        assert apply_flip(g, p, recovered) == flipped


def test_reconstruct_rejects_non_flip():
    g = path(4)
    other = Graph.from_edges(4, [(0, 1)])
    with pytest.raises(DomainError):
        reconstruct_flip_spec(g, other, Partition(4, [[0, 1], [2, 3]]))


def _spec_per_pair(g, flipped, p):
    """The reference of ``reconstruct_flip_spec``, pair by pair in canonical
    order off the part labels: the spec, or the text of its DomainError."""
    diff, labels = g.adj ^ flipped.adj, p.part_labels()
    off_diagonal = ~np.eye(g.n, dtype=bool)
    pairs = []
    for i, j in canonical_pairs(len(p.parts)):
        cells = np.logical_and.outer(labels == i, labels == j)
        cells = (cells | cells.T) & off_diagonal
        values = diff[cells]
        if values.size and values.all():
            pairs.append((i, j))
        elif values.any():
            return f"difference is not uniform on parts ({i},{j}); not a flip over this partition"
    return FlipSpec(pairs)


def _check_reconstruct(g, flipped, p):
    want = _spec_per_pair(g, flipped, p)
    if isinstance(want, str):
        with pytest.raises(DomainError) as raised:
            reconstruct_flip_spec(g, flipped, p)
        assert str(raised.value) == want
    else:
        assert reconstruct_flip_spec(g, flipped, p) == want
    return want


def _singleton_loops(p):
    return {(i, i) for i, part in enumerate(p.parts) if len(part) == 1}


def test_reconstruct_recovers_the_applied_spec_less_singleton_loops(rng):
    for _ in range(40):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.random())
        p = Partition.from_labels(random_partition_labels(rng, n, 5))
        spec = FlipSpec([q for q in canonical_pairs(len(p.parts)) if rng.random() < 0.5])
        recovered = reconstruct_flip_spec(g, apply_flip(g, p, spec), p)
        assert recovered.pairs == spec.pairs - _singleton_loops(p)


def test_reconstruct_names_the_first_uneven_pair(rng):
    """Toggling a few cells of a flip leaves some pairs uneven; the error
    names the first of them in canonical order, and a pair of two
    singletons, whose two cells toggle together, stays even."""
    errors = 0
    for _ in range(60):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.random())
        p = Partition.from_labels(random_partition_labels(rng, n, 5))
        spec = FlipSpec([q for q in canonical_pairs(len(p.parts)) if rng.random() < 0.5])
        adj = apply_flip(g, p, spec).adj.copy()
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(n), 2)
            adj[u, v] ^= True
            adj[v, u] ^= True
        errors += isinstance(_check_reconstruct(g, Graph(adj), p), str)
    assert errors


def test_reconstruct_on_an_uneven_partition(rng):
    """One part of 30 vertices and 30 singletons: most pairs hold the two
    cells of one vertex pair, and a singleton's self pair none."""
    g = gnp(60, 0.5, 3)
    p = Partition(60, [range(30)] + [[v] for v in range(30, 60)])
    pairs = canonical_pairs(len(p.parts))
    spec = FlipSpec([q for q in pairs if rng.random() < 0.5])
    flipped = apply_flip(g, p, spec)
    assert _check_reconstruct(g, flipped, p).pairs == spec.pairs - _singleton_loops(p)
    adj = flipped.adj.copy()
    adj[0, 1] ^= True  # inside the big part
    adj[1, 0] ^= True
    adj[40, 50] ^= True  # two singletons: even again
    adj[50, 40] ^= True
    assert _check_reconstruct(g, Graph(adj), p) == (
        "difference is not uniform on parts (0,0); not a flip over this partition")
    adj[0, 1] = adj[1, 0] = flipped.adj[0, 1]
    adj[5, 45] ^= True  # the big part against the singleton 45, part 16
    adj[45, 5] ^= True
    assert _check_reconstruct(g, Graph(adj), p) == (
        "difference is not uniform on parts (0,16); not a flip over this partition")

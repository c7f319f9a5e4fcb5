import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oracle
from flipkit import (
    BreakWitness,
    CapExceeded,
    DomainError,
    FlipSpec,
    Graph,
    Partition,
    SearchBudget,
    SetFamily,
    WeightFn,
    apply_flip,
    break_from_sep,
    breaksep,
    breakability_search,
    definable_partition,
    greedy_scattered,
    num_flips,
    sep_then_break,
    separability_search,
    small_balls_orchestrate,
    sunflower_extract,
    verify_break_witness,
)
from flipkit.generators import clique, gnp, path, star
from flipkit.metrics import dist_family_matrix
from flipkit.graphs import UNREACHED
from conftest import random_graph, random_partition_labels


class TestWeightFn:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            WeightFn([1, -1])

    def test_total_and_of(self):
        w = WeightFn([1, 2, 3])
        assert w.total == 6
        assert w.of([0, 2]) == 4

    def test_integral_comparison_is_exact(self):
        w = WeightFn([1, 1, 1])
        # 1 <= (1/3) * 3 holds with equality; exact arithmetic must accept
        assert w.within_eps(1, Fraction(1, 3))
        assert not w.within_eps(2, Fraction(1, 3))

    def test_float_comparison_uses_tolerance(self):
        w = WeightFn([0.1, 0.2])
        bound = 0.5 * w.total
        assert w.within_eps(bound + 5e-10, 0.5)
        assert not w.within_eps(bound + 1e-6, 0.5)

    def test_eps_above_one_decides_as_one(self):
        # eps * total for a float total would overflow at this eps
        huge = Fraction(10**400)
        floats, ints = WeightFn([0.5] * 3), WeightFn([1, 2])
        assert floats.within_eps(1.5, huge) and not floats.within_eps(1.5 + 1e-6, huge)
        assert ints.within_eps(3, huge) and not ints.within_eps(4, huge)

    def test_numpy_integers_take_the_exact_path(self):
        w = WeightFn([np.int64(1), np.uint8(1), np.int32(1)])
        assert w.integral and all(type(x) is int for x in w.weights)
        assert type(w.total) is int and w.total == 3
        assert w.within_eps(1, Fraction(1, 3))

    def test_rejects_non_finite_weights(self):
        for bad in (float("nan"), float("inf"), -math.inf, np.float64("nan")):
            with pytest.raises(DomainError, match=f"weight of vertex 1 is not finite: {bad}"):
                WeightFn([1, bad, 2])

    def test_accepts_integers_of_any_size(self):
        w = WeightFn([10**400, 2**61])
        assert w.integral and w.total == 10**400 + 2**61

    def test_rejects_a_float_total_beyond_float_range(self):
        """Four weights of 1e308 sum to inf, and an integer beyond the float
        range cannot be added to a float; either would pass every ball."""
        for weights in ([1e308] * 4, [10**400, 0.5]):
            with pytest.raises(DomainError, match="the total weight overflows the float range"):
                WeightFn(weights)

    def test_rejects_bool_weights(self):
        for weights in ([True, 2], [1, np.bool_(False)]):
            with pytest.raises(DomainError, match="bool"):
                WeightFn(weights)

    def test_indicator_refuses_vertices_outside_the_graph(self):
        assert WeightFn.indicator(4, [2, 0, 2]).weights == (1, 0, 1, 0)
        for support, bad in (([0, 99, -1], -1), ([4], 4), ([1, 7, 5], 5)):
            with pytest.raises(DomainError, match=f"support vertex {bad} out of range for n=4"):
                WeightFn.indicator(4, support)

    def test_eps_balanced(self):
        """Every radius-0 ball of a balanced weighting is light."""
        w, eps = WeightFn([1, 1, 1, 1]), Fraction(1, 4)
        assert all(w.within_eps(w.of([v]), eps) for v in range(len(w)))
        w, eps = WeightFn([3, 1]), Fraction(1, 2)
        assert not all(w.within_eps(w.of([v]), eps) for v in range(len(w)))


class TestSunflower:
    def test_disjoint_sets_have_empty_core(self):
        fam = SetFamily([(0, 1), (2, 3), (4, 5)], uniform_size=2)
        result = sunflower_extract(fam, 3)
        assert result.subfamily.sets == fam.sets
        assert result.core == ()

    def test_common_element_core(self):
        fam = SetFamily([(0, 1), (0, 2), (0, 3), (0, 4)], uniform_size=2)
        result = sunflower_extract(fam, 4)
        assert result.core == (0,)
        assert result.subfamily.sets == fam.sets

    def test_mixed_family(self):
        fam = SetFamily([(0, 1), (0, 2), (0, 3), (1, 2)], uniform_size=2)
        result = sunflower_extract(fam, 3)
        assert result.subfamily.sets == ((0, 1), (0, 2), (0, 3))
        assert result.core == (0,)

    def test_failure_below_threshold(self):
        # triangle edges: no 3-sunflower among {01, 02, 12}
        fam = SetFamily([(0, 1), (0, 2), (1, 2)], uniform_size=2)
        assert sunflower_extract(fam, 3) is None

    def test_rejects_non_uniform(self):
        with pytest.raises(DomainError):
            sunflower_extract(SetFamily([(0,), (1, 2)]), 2)

    def test_zero_petals_is_the_empty_sunflower(self):
        fam = SetFamily([(0, 1), (0, 2)], uniform_size=2)
        result = sunflower_extract(fam, 0)
        assert result.subfamily.sets == () and result.subfamily.uniform_size == 2
        assert result.core == ()

    def test_empty_family(self):
        assert sunflower_extract(SetFamily([], uniform_size=3), 1) is None
        result = sunflower_extract(SetFamily([]), 0)
        assert result.subfamily.sets == () and result.core == ()
        assert result.subfamily.uniform_size == 0

    def test_guarantee_bound(self, rng):
        for _ in range(40):
            t = rng.randint(1, 3)
            m = rng.randint(1, 3)
            need = math.factorial(t) * (m - 1) ** t + 1  # greedy extraction's guarantee
            universe = rng.randint(max(6, 2 * t), 14)
            sets = set()
            attempts = 0
            while len(sets) < need and attempts < 10000:
                sets.add(tuple(sorted(rng.sample(range(universe), t))))
                attempts += 1
            if len(sets) < need:
                continue
            fam = SetFamily(sets, uniform_size=t)
            result = sunflower_extract(fam, m)
            assert result is not None
            core = set(result.core)
            members = list(result.subfamily)
            assert len(members) == m
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    assert set(members[i]) & set(members[j]) == core


class TestBreakabilitySearch:
    def test_long_path_identity_flip(self):
        g = path(12)
        result = breakability_search(g, range(12), 1, 2)
        w = result.witness
        assert w is not None
        assert w.defining_set == ()
        assert w.spec == FlipSpec()
        assert verify_break_witness(g, w)
        assert oracle.balls_disjoint(12, oracle.edges_of(g), w.a1, w.a2, 1)

    def test_clique_needs_complement(self):
        g = clique(6)
        result = breakability_search(g, range(6), 1, 2)
        w = result.witness
        assert w is not None
        assert w.defining_set == ()
        assert w.spec == FlipSpec([(0, 0)])
        flipped = apply_flip(g, w.partition, w.spec)
        assert flipped.num_edges() == 0
        assert oracle.balls_disjoint(6, oracle.edges_of(flipped), w.a1, w.a2, 1)

    def test_one_bfs_per_witness(self, monkeypatch):
        """The witness is built from the kernel pass's split, so the one
        all-pairs BFS of a hit is the re-verification's."""
        calls = []
        real = breaksep.distance_matrix
        monkeypatch.setattr(breaksep, "distance_matrix", lambda h: calls.append(h) or real(h))
        g = path(6)
        w = breakability_search(g, range(6), 1, 2).witness
        assert w is not None
        assert calls == [apply_flip(g, w.partition, w.spec)]

    def test_m_zero_trivial(self):
        g = clique(4)
        result = breakability_search(g, range(4), 1, 0)
        assert result.witness.a1 == () and result.witness.a2 == ()
        assert result.flips_tried == 1

    def test_two_probe_sets(self):
        g = path(14)
        result = breakability_search(
            g, range(4), 1, 2, w2_set=range(10, 14)
        )
        w = result.witness
        assert w is not None
        assert set(w.a1) <= set(range(4))
        assert set(w.a2) <= set(range(10, 14))
        assert verify_break_witness(g, w)

    def test_exhausted_budget_reports_stats(self):
        # star leaves stay pairwise close under both trivial flips: the
        # identity keeps them at distance 2 through the center and the
        # complement turns them into a clique
        g = star(5)
        result = breakability_search(
            g, range(1, 5), 1, 2, SearchBudget(s_max=0, part_cap=1)
        )
        assert result.witness is None
        assert result.flips_tried == 2
        assert result.sets_tried == 1

    def test_empty_probe_set(self):
        g = path(4)
        budget = SearchBudget(s_max=1, part_cap=3)
        sets = [s for s in [(), (0,), (1,), (2,), (3,)]
                if len(definable_partition(g, s).parts) <= 3]
        result = breakability_search(g, [], 1, 1, budget, w2_set=[])
        assert result.witness is None
        assert result.flips_tried == sum(
            num_flips(len(definable_partition(g, s).parts)) for s in sets
        )
        assert (result.sets_tried, result.sets_skipped) == (len(sets), 5 - len(sets))
        assert breakability_search(g, [], 1, 1, budget) == result
        found = breakability_search(g, [], 1, 0, budget).witness
        assert (found.a1, found.a2) == ((), ())

    def test_raw_partition_mode(self):
        g = clique(4)
        budget = SearchBudget(part_cap=2, raw_partitions=True)
        result = breakability_search(g, range(4), 1, 2, budget)
        assert result.witness is not None
        assert result.witness.defining_set is None
        assert verify_break_witness(g, result.witness)

    def test_witnesses_always_verified(self, rng):
        for _ in range(15):
            n = rng.randint(4, 9)
            g = random_graph(rng, n, rng.random())
            m = rng.randint(1, 2)
            r = rng.randint(1, 2)
            result = breakability_search(g, range(n), r, m, SearchBudget(s_max=1))
            if result.witness is None:
                continue
            w = result.witness
            flipped = apply_flip(g, w.partition, w.spec)
            assert len(w.a1) >= m and len(w.a2) >= m
            assert not set(w.a1) & set(w.a2)
            assert oracle.balls_disjoint(n, oracle.edges_of(flipped), w.a1, w.a2, r)


class TestBreakabilityNCap:
    def test_raw_partitions_refused_above_n_cap(self):
        """Raw partitions grow like cap^n / cap!, so they are refused above
        n_cap before any is drawn; definable candidates are not capped in n."""
        raw = SearchBudget(part_cap=4, raw_partitions=True)
        with pytest.raises(CapExceeded, match="search is 24, above the cap 10"):
            breakability_search(gnp(24, 0.5, seed=1), range(24), 1, 20, raw)
        with pytest.raises(CapExceeded, match="search is 6, above the cap 5"):
            breakability_search(path(6), range(6), 1, 2, raw, n_cap=5)
        assert breakability_search(path(6), range(6), 1, 2, raw, n_cap=6)
        assert breakability_search(path(12), range(12), 1, 2, n_cap=1)

    def test_nonpositive_n_cap_is_a_usage_error(self):
        raw = SearchBudget(raw_partitions=True)
        for n_cap in (0, -3):
            with pytest.raises(DomainError, match=f"n_cap must be an integer >= 1, got {n_cap}"):
                breakability_search(path(3), range(3), 1, 1, raw, n_cap=n_cap)


class TestSeparabilitySearch:
    def test_eps_one_identity(self, rng):
        g = random_graph(rng, 6, 0.5)
        result = separability_search(g, WeightFn.uniform(6), 2, 1, 2)
        assert result.partition == Partition.trivial(6)
        assert result.spec == FlipSpec()

    def test_k6_complement(self):
        g = clique(6)
        result = separability_search(g, WeightFn.uniform(6), 1, Fraction(2, 5), 1)
        assert result.partition == Partition.trivial(6)
        assert result.spec == FlipSpec([(0, 0)])

    def test_edgeless_identity(self):
        g = Graph.empty(5)
        result = separability_search(g, WeightFn.uniform(5), 3, Fraction(1, 5), 1)
        assert result.spec == FlipSpec()

    def test_result_rechecked_exactly(self, rng):
        for _ in range(10):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, rng.random())
            w = WeightFn([rng.randint(0, 3) for _ in range(n)])
            eps = Fraction(rng.randint(1, 3), 4)
            result = separability_search(g, w, 1, eps, 2)
            if not result:
                continue
            flipped = apply_flip(g, result.partition, result.spec)
            for v in w.small_vertices(eps):
                bw = w.of(oracle.ball(n, oracle.edges_of(flipped), v, 1))
                assert Fraction(bw) <= eps * Fraction(w.total)

    def test_integral_screen_accepts_a_ball_at_the_bound_far_above_2_53(self):
        # every ball is one vertex holding exactly total/6, far above 2^53
        w = WeightFn([1885443494880068069] * 6)
        result = separability_search(Graph.empty(6), w, 1, Fraction(1, 6), 1)
        assert result.partition == Partition.trivial(6)
        assert result.spec == FlipSpec()
        assert result.flips_tried == 1

    @pytest.mark.parametrize("weights, eps", [
        ([10**400, 1, 1, 1, 0, 2], Fraction(1, 2)),
        ([2**62, 2**62 - 1, 1, 3, 0, 5], Fraction(1, 3)),  # total 2^63 + 8: Python ints
        ([2**62, 2**62 - 9, 1, 3, 0, 4], Fraction(1, 3)),  # total 2^63 - 1: int64
        ([2**62, 2**62 - 9, 1, 3, 0, 4], Fraction(7, 2)),  # eps * total above int64
        ([7, 1, 1, 2, 0, 3], Fraction(1, 4)),
    ])
    def test_integral_screen_is_exact_at_any_size(self, rng, weights, eps):
        """For integer weights small and huge, the search matches the oracle
        under exact comparison."""
        self._matches_the_oracle(rng, weights, eps, lambda x: x <= eps * sum(weights))

    @pytest.mark.parametrize("weights, eps", [
        ([0.1, 0.2, 0.3, 0.15, 0.05, 0.2], Fraction(2, 5)),
        ([1.0, 1.0, 1.0 + 1.6e-9, 1.0, 0.0, 0.0], Fraction(1, 2)),  # 0.8e-9 above the bound
        ([1.0, 1.0, 1.0 + 2.4e-9, 1.0, 0.0, 0.0], Fraction(1, 2)),  # 1.2e-9 above the bound
        ([3e19, 1e19, 2.5e19, 7.0, 0.0, 4e19], Fraction(1, 3)),
    ])
    def test_float_screen_keeps_the_float_rule(self, rng, weights, eps):
        """For float weights, the search matches the oracle under WeightFn's
        float rule: a ball summed in vertex order is at most eps * total
        plus 1e-9."""
        self._matches_the_oracle(
            rng, weights, eps, lambda x: x <= float(eps) * sum(weights) + 1e-9)

    @staticmethod
    def _matches_the_oracle(rng, weights, eps, light_enough):
        """On random graphs, the search returns the first flip, in partition
        and counter order, after which the r-ball of every light-enough vertex
        is light enough, with the same count of specs tried; a miss tries
        every spec."""
        for _ in range(6):
            n = len(weights)
            g = random_graph(rng, n, rng.random())
            w, r, k_max = WeightFn(weights), rng.randint(0, 2), rng.randint(1, 2)
            edges = oracle.edges_of(g)
            light = [v for v in range(n) if light_enough(weights[v])]
            tried, want = 0, None
            for labels in product(range(k_max), repeat=n):
                if any(x > max(labels[:i], default=-1) + 1 for i, x in enumerate(labels)):
                    continue
                parts = [[v for v in range(n) if labels[v] == i] for i in range(max(labels) + 1)]
                pairs = [(i, j) for i in range(len(parts)) for j in range(i, len(parts))]
                for code in range(1 << len(pairs)):
                    tried += 1
                    spec = [pair for t, pair in enumerate(pairs) if code >> t & 1]
                    flipped = oracle.flip_edges(n, edges, parts, spec)
                    balls = (sorted(oracle.ball(n, flipped, v, r)) for v in light)
                    if all(light_enough(sum(weights[u] for u in b)) for b in balls):
                        want = (Partition(n, parts), FlipSpec(spec))
                        break
                if want:
                    break
            result = separability_search(g, w, r, eps, k_max)
            assert (result.partition, result.spec) == (want or (None, None))
            assert result.flips_tried == tried

    def test_nonpositive_eps_refused(self):
        for eps in (Fraction(-1), 0, -0.5):
            with pytest.raises(DomainError, match=f"eps must be positive, got {eps}"):
                separability_search(Graph.empty(3), WeightFn.uniform(3), 1, eps, 1)

    def test_infinite_eps_refused(self):
        with pytest.raises(DomainError, match="eps must be finite, got inf"):
            separability_search(Graph.empty(3), WeightFn.uniform(3), 1, math.inf, 1)

    def test_k_max_cap_refusal(self):
        with pytest.raises(CapExceeded):
            separability_search(Graph.empty(3), WeightFn.uniform(3), 1, 1, 9)

    def test_n_cap_refusal(self):
        g = Graph.empty(12)
        with pytest.raises(CapExceeded):
            separability_search(g, WeightFn.uniform(12), 1, 1, 1)

    def test_nonpositive_n_cap_is_a_usage_error(self):
        for n_cap in (0, -3):
            with pytest.raises(DomainError, match=f"n_cap must be an integer >= 1, got {n_cap}"):
                separability_search(Graph.empty(3), WeightFn.uniform(3), 1, 1, 1, n_cap=n_cap)


class TestGreedyScattered:
    def test_far_apart_probes_all_chosen(self):
        g = path(20)
        probes = [0, 7, 14]
        assert greedy_scattered(g, probes, 2) == (0, 7, 14)

    def test_clique_keeps_lowest(self):
        g = clique(5)
        assert greedy_scattered(g, range(5), 1) == (0,)

    def test_p7_trace(self):
        g = path(7)
        assert greedy_scattered(g, range(7), 2) == (0, 3, 6)

    def test_maximality(self, rng):
        for _ in range(10):
            n = rng.randint(3, 10)
            g = random_graph(rng, n, rng.random())
            d = rng.randint(1, 3)
            chosen = greedy_scattered(g, range(n), d)
            edges = oracle.edges_of(g)
            for v in range(n):
                assert any(oracle.bfs(n, edges, v)[c] <= d for c in chosen)


class TestVerifyBreakWitness:
    def test_matches_oracle_on_random_witnesses(self, rng):
        """Against oracle balls of the flipped graph, with every way a
        witness can fail: a shared probe, a side below m, meeting balls."""
        outcomes = Counter()
        for _ in range(150):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, rng.random())
            p = Partition.from_labels(random_partition_labels(rng, n, 3))
            spec = FlipSpec.from_bits(len(p.parts), rng.randrange(num_flips(len(p.parts))))
            order = rng.sample(range(n), n)
            i, j = rng.randint(1, 3), rng.randint(1, 3)
            a1, a2 = order[:i], order[i : i + j]
            if rng.random() < 0.2:
                a2.append(a1[0])
            a1, a2 = tuple(sorted(a1)), tuple(sorted(a2))
            r, m = rng.randint(0, 2), rng.randint(0, 2)
            edges = oracle.flip_edges(n, oracle.edges_of(g), p.parts, spec.pairs)
            if set(a1) & set(a2):
                outcome = "shared"
            elif min(len(a1), len(a2)) < m:
                outcome = "short"
            elif any(oracle.ball(n, edges, u, r) & oracle.ball(n, edges, v, r)
                     for u in a1 for v in a2):
                outcome = "meet"
            else:
                outcome = "ok"
            outcomes[outcome] += 1
            w = BreakWitness(p, spec, None, a1, a2, r, m)
            assert verify_break_witness(g, w) == (outcome == "ok"), (g.edges(), w)
        assert all(outcomes[o] >= 10 for o in ("shared", "short", "meet", "ok")), outcomes


class TestBreakFromSep:
    def test_scattered_case(self):
        g = Graph.empty(4)
        h = (Partition.trivial(4), FlipSpec())
        w = break_from_sep(g, range(4), 1, h)
        assert w.m == 1
        assert w.a1 == (0,) and w.a2 == (1,)
        assert verify_break_witness(g, w)

    def test_one_bfs_besides_the_verification(self, monkeypatch):
        calls = []
        real = breaksep.distance_matrix
        monkeypatch.setattr(breaksep, "distance_matrix", lambda h: calls.append(h) or real(h))
        g = Graph.empty(4)
        break_from_sep(g, range(4), 1, (Partition.trivial(4), FlipSpec()))
        assert calls == [g, g]

    def test_heavy_ball_case(self):
        g = path(14)
        h = (Partition.trivial(14), FlipSpec())
        w = break_from_sep(g, (0, 1, 12, 13), 1, h)
        assert w.a1 == (0, 1)
        assert w.a2 == (12, 13)
        assert verify_break_witness(g, w)

    def test_star_violates_precondition(self):
        g = star(5)
        h = (Partition.trivial(5), FlipSpec())
        with pytest.raises(DomainError, match="vertex 0"):
            break_from_sep(g, (1, 2, 3, 4), 1, h)

    def test_rejects_bad_probe_count(self):
        g = Graph.empty(6)
        h = (Partition.trivial(6), FlipSpec())
        with pytest.raises(DomainError):
            break_from_sep(g, range(6), 1, h)

    def test_pipeline_refuses_a_bad_probe_set_before_its_search(self, monkeypatch):
        monkeypatch.setattr(breaksep, "separability_search", None)  # a call would be a TypeError
        for probes, message in (([0, 1, 2], r"probe set size 3 is not of the form 4m\^2"),
                                ([0, 1, 2, 99], "vertex 99 out of range for n=4")):
            with pytest.raises(DomainError, match=message):
                sep_then_break(path(4), probes, 1)

    def test_pipeline_on_random_sparse_graphs(self, rng):
        successes = 0
        for _ in range(25):
            n = rng.randint(8, 12)
            g = gnp(n, 1.2 / n, seed=rng.randrange(1 << 30))
            probes = rng.sample(range(n), 4)
            result = sep_then_break(g, probes, 1, k_max=2)
            if not result:
                continue
            successes += 1
            w = result.witness
            flipped = apply_flip(g, w.partition, w.spec)
            assert len(w.a1) >= 1 and len(w.a2) >= 1
            assert not set(w.a1) & set(w.a2)
            assert oracle.balls_disjoint(n, oracle.edges_of(flipped), w.a1, w.a2, 1)
        assert successes > 0


class TestSmallBalls:
    def test_edgeless_singletons(self):
        g = Graph.empty(6)
        fam = SetFamily([(v,) for v in range(6)], uniform_size=1)
        out = small_balls_orchestrate(
            g, WeightFn.uniform(6), fam, 1, Fraction(1, 2), SearchBudget(group_size=2)
        )
        assert out
        assert out.failed_step is None

    def test_path_groups(self):
        g = path(30)
        fam = SetFamily([(v,) for v in range(0, 30, 5)], uniform_size=1)
        out = small_balls_orchestrate(
            g,
            WeightFn.uniform(30),
            fam,
            1,
            Fraction(1, 3),
            SearchBudget(group_size=2),
        )
        assert out
        assert out.breakability_calls == 3
        # re-verify the output inequality independently
        d = dist_family_matrix(g, out.defining)
        total = 30
        union_y = out.defining.union()
        for s in out.kept:
            residue = [v for v in s if v not in union_y]
            reach = set()
            for v in residue:
                for u in range(30):
                    if d[v, u] != UNREACHED and d[v, u] <= 1:
                        reach.add(u)
            assert Fraction(len(reach)) <= Fraction(1, 3) * total

    def test_adversarial_weights_select_light_group(self):
        g = path(30)
        fam = SetFamily([(v,) for v in range(0, 30, 5)], uniform_size=1)
        weights = [100 if v < 8 else 1 for v in range(30)]
        out = small_balls_orchestrate(
            g,
            WeightFn(weights),
            fam,
            1,
            Fraction(1, 3),
            SearchBudget(group_size=2),
        )
        assert out
        assert out.selected_group != 0

    def test_failure_reports_step(self):
        # star leaves resist both trivial flips, so the first breakability
        # round fails and its step is reported
        g = star(9)
        fam = SetFamily([(v,) for v in range(1, 9)], uniform_size=1)
        out = small_balls_orchestrate(
            g,
            WeightFn.uniform(9),
            fam,
            1,
            Fraction(1, 2),
            SearchBudget(s_max=0, part_cap=1, group_size=2),
        )
        assert not out
        assert out.failed_step == (0, 1, 0, 0)

    def test_group_count_is_exact(self):
        # ceil(1 / float(1/49)) is 50; 48 singletons hold no 50-sunflower
        # either, so only the reported step tells the two apart
        fam = SetFamily([(v,) for v in range(48)], uniform_size=1)
        out = small_balls_orchestrate(path(48), WeightFn.uniform(48), fam, 1, Fraction(1, 49))
        assert out.failed_step == ("sunflower", 49)

    def test_eps_below_float_range_is_positive(self):
        fam = SetFamily([(v,) for v in range(4)], uniform_size=1)
        eps = Fraction(1, 10**400)  # float(eps) is 0.0
        out = small_balls_orchestrate(path(4), WeightFn.uniform(4), fam, 1, eps)
        assert out.failed_step == ("sunflower", 10**400)

    def test_infinite_eps_refused(self):
        fam = SetFamily([(v,) for v in range(4)], uniform_size=1)
        with pytest.raises(DomainError, match="eps must be finite, got inf"):
            small_balls_orchestrate(path(4), WeightFn.uniform(4), fam, 1, math.inf)

    def test_non_uniform_rejected(self):
        g = Graph.empty(4)
        with pytest.raises(DomainError):
            small_balls_orchestrate(
                g,
                WeightFn.uniform(4),
                SetFamily([(0,), (1, 2)]),
                1,
                Fraction(1, 2),
            )

from math import comb

import pytest

import oracle
from flipkit import CapExceeded, DomainError, Graph, is_shattered, shatter_function, vc, vc_dimension
from flipkit.generators import clique, halfgraph, path, star
from conftest import random_graph


class TestShatterFunction:
    def test_size_zero_is_one(self, rng):
        g = random_graph(rng, 5, 0.5)
        assert shatter_function(g, 0) == 1

    def test_edgeless_single(self):
        # open neighborhoods are all empty, including for the probed vertex
        assert shatter_function(Graph.empty(3), 1) == 1

    def test_k3_pair(self):
        assert shatter_function(clique(3), 2) == 3

    def test_cap_refusal(self):
        g = Graph.empty(8)
        with pytest.raises(CapExceeded):
            shatter_function(g, 6)

    def test_bad_size(self):
        with pytest.raises(DomainError):
            shatter_function(Graph.empty(3), 4)

    def test_nonpositive_cap_is_a_usage_error(self):
        for cap in (0, -1):
            with pytest.raises(DomainError, match=f"cap must be an integer >= 1, got {cap}"):
                shatter_function(path(4), 1, cap=cap)

    def test_is_shattered_checks_its_vertices(self):
        # unchecked, numpy indexing wraps -1 to vertex 3 and raises IndexError on 9
        for v in (-1, 9):
            with pytest.raises(DomainError, match=f"vertex {v} out of range"):
                is_shattered(path(4), [v])

    def test_matches_oracle(self, rng):
        for _ in range(15):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.random())
            for size in range(0, min(n, 3) + 1):
                want = oracle.shatter(n, oracle.edges_of(g), size)
                assert shatter_function(g, size) == want


class TestVcDimension:
    def test_edgeless_is_zero(self):
        report = vc_dimension(Graph.empty(4))
        assert report.vcdim == 0
        assert report.witness == ()

    def test_cliques_are_one(self):
        for n in (3, 4, 6):
            assert vc_dimension(clique(n)).vcdim == 1

    def test_star_is_one(self):
        assert vc_dimension(star(4)).vcdim == 1

    def test_halfgraph_is_one(self):
        # half-graph neighborhoods form a chain of prefixes, so no 2-set
        # is shattered (oracle-confirmed)
        assert vc_dimension(halfgraph(4)).vcdim == 1

    def test_hypercube_q3_is_two(self):
        from flipkit.generators import hypercube

        assert vc_dimension(hypercube(3)).vcdim == 2

    def test_witness_is_shattered(self, rng):
        for _ in range(15):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.random())
            report = vc_dimension(g)
            assert len(report.witness) == report.vcdim
            assert is_shattered(g, report.witness)

    def test_matches_oracle(self, rng):
        for _ in range(15):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.random())
            assert vc_dimension(g).vcdim == oracle.vcdim(n, oracle.edges_of(g))

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            vc_dimension(Graph.empty(20))

    def test_empty_graph_rejected(self):
        with pytest.raises(DomainError):
            vc_dimension(Graph.empty(0))

    def test_nonpositive_cap_is_a_usage_error(self):
        for cap in (0, -1):
            with pytest.raises(DomainError, match=f"cap must be an integer >= 1, got {cap}"):
                vc_dimension(Graph.empty(3), cap=cap)

    def test_trace_counts_monotone_until_stop(self, rng):
        for _ in range(10):
            n = rng.randint(2, 10)
            g = random_graph(rng, n, rng.random())
            table = vc_dimension(g).traces_by_size
            sizes = sorted(table)
            for a, b in zip(sizes, sizes[1:]):
                assert table[a] <= table[b]

    def test_binomial_sum_bound(self, rng):
        for _ in range(10):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.random())
            report = vc_dimension(g)
            for size, value in report.traces_by_size.items():
                assert value <= 2 ** size
                if size >= report.vcdim:
                    bound = sum(comb(size, i) for i in range(report.vcdim + 1))
                    assert value <= bound


@pytest.fixture(params=[None, 3], ids=["block-default", "block-3"])
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(vc, "_BLOCK", request.param)
    return request.param


class TestBlockScan:
    """The block scan gives the oracle's maximum trace count and the first
    subset, in lexicographic order, that reaches it."""

    def test_best_subset_matches_oracle(self, rng, block):
        for _ in range(25):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.random())
            for size in range(min(n, 4) + 1):
                assert vc._shatter_value(g, size) == oracle.best_traces(n, oracle.edges_of(g), size)

    def test_report_matches_oracle(self, rng, block):
        for _ in range(25):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.random())
            edges = oracle.edges_of(g)
            report = vc_dimension(g)
            for size, value in report.traces_by_size.items():
                assert value == oracle.shatter(n, edges, size)
            value, first = oracle.best_traces(n, edges, report.vcdim)
            assert value == 1 << report.vcdim
            assert report.witness == first

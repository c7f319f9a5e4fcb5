import json
from itertools import combinations, product

import numpy as np
import pytest

from flipkit import Bipartite, Graph
from flipkit.errors import CapExceeded
from flipkit.verify import (
    RunReport,
    _graph_stack,
    verify_aggregation,
    verify_bipartite_classification,
    verify_bipartite_trichotomy,
    verify_conversion,
    verify_diam_complement,
    verify_metric_axioms,
    verify_sauer_shelah,
)


class TestRunReport:
    def test_serialization_excludes_wall_time(self):
        report = RunReport(command="verify", parameters={"x": 1}, outcome="pass")
        body = json.loads(report.serialize())
        assert "wall_time" not in body
        assert body["outcome"] == "pass"

    def test_exit_codes(self):
        assert RunReport("c", {}, "pass").exit_code == 0
        assert RunReport("c", {}, "witness").exit_code == 0
        assert RunReport("c", {}, "fail").exit_code == 1
        assert RunReport("c", {}, "refused").exit_code == 2


class TestGraphStack:
    """Graph count-1-i of a stack is graph i with every cell complemented,
    which the diam-complement and bipartite sweeps read off reversed."""

    def test_graph_i_has_the_cells_of_bit_i_and_reversed_is_the_complement(self):
        for n in range(1, 6):
            cells = list(combinations(range(n), 2))
            adjs = _graph_stack(n, cells)
            assert len(adjs) == 1 << len(cells)
            for i, adj in enumerate(adjs):
                assert Graph(adj).edges() == [c for t, c in enumerate(cells) if i >> t & 1]
            assert np.array_equal(adjs[::-1], ~adjs & ~np.eye(n, dtype=bool))

    def test_last_bipartite_graph_is_the_cross_mask(self):
        for a, b in product(range(1, 4), repeat=2):
            adjs = _graph_stack(a + b, product(range(a), range(a, a + b)))
            cross = Bipartite(Graph.empty(a + b), range(a), range(a, a + b)).cross_mask()
            assert len(adjs) == 1 << (a * b)
            assert np.array_equal(adjs[-1], cross)
            assert np.array_equal(adjs[::-1], adjs ^ cross)


class TestExhaustiveSweeps:
    def test_diam_complement_n4(self):
        report = verify_diam_complement(4)
        assert report.outcome == "pass"
        assert report.counters["graphs_checked"] == 64

    def test_diam_complement_n5_counts(self):
        report = verify_diam_complement(5)
        assert report.outcome == "pass"
        assert report.counters["graphs_checked"] == 1024

    def test_diam_complement_cap(self):
        with pytest.raises(CapExceeded):
            verify_diam_complement(7)

    def test_bipartite_trichotomy_small(self):
        report = verify_bipartite_trichotomy(2)
        assert report.outcome == "pass"
        # (1,1): 2, (1,2): 4, (2,1): 4, (2,2): 16
        assert report.counters["graphs_checked"] == 26

    def test_bipartite_classification_small(self):
        report = verify_bipartite_classification(2)
        assert report.outcome == "pass"
        assert report.counters["degenerate_cases"] > 0


class TestRandomSweeps:
    def test_conversion(self):
        report = verify_conversion(25, seed=5)
        assert report.outcome == "pass"
        assert report.counters["instances_checked"] == 25
        assert report.counters["max_ratio_times_100"] <= 600

    def test_metric_axioms(self):
        report = verify_metric_axioms(25, seed=6)
        assert report.outcome == "pass"

    def test_aggregation(self):
        report = verify_aggregation(10, seed=7)
        assert report.outcome == "pass"

    def test_sauer_shelah(self):
        report = verify_sauer_shelah(25, seed=8)
        assert report.outcome == "pass"

    def test_determinism(self):
        a = verify_conversion(10, seed=3).serialize()
        b = verify_conversion(10, seed=3).serialize()
        assert a == b

import dataclasses
import json
import math
from itertools import combinations, product

import numpy as np
import pytest

from flipkit import Bipartite, Graph, conversion, vc, verify
from flipkit.cli import main
from flipkit.conversion import BipartiteCase, BipartiteCaseTag
from flipkit.errors import CapExceeded, DomainError
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
        with pytest.raises(CapExceeded, match=r"n is 7, above the cap 6$"):
            verify_diam_complement(7)

    def test_bipartite_caps_refuse_before_any_stack(self, monkeypatch):
        monkeypatch.setattr(verify, "_graph_stack", lambda n, cells: pytest.fail("stack built"))
        for sweep in (verify_bipartite_trichotomy, verify_bipartite_classification):
            for max_side, error, end in ((0, DomainError, "got 0$"),
                                         (4, CapExceeded, "is 4, above the cap 3$")):
                with pytest.raises(error, match=end):
                    sweep(max_side)

    @pytest.mark.parametrize("sweep, size, message", [
        (verify_diam_complement, 0, "the diameter sweep's n must be an integer >= 1, got 0"),
        (verify_diam_complement, -3, "the diameter sweep's n must be an integer >= 1, got -3"),
        (verify_bipartite_trichotomy, 0, "the bipartite sweep's max_side must be an integer >= 1, got 0"),
        (verify_bipartite_classification, -1, "the bipartite sweep's max_side must be an integer >= 1, got -1"),
    ])
    def test_size_below_one_is_a_domain_error_not_a_cap(self, sweep, size, message):
        with pytest.raises(DomainError) as info:
            sweep(size)
        assert str(info.value) == message

    def test_bipartite_trichotomy_small(self):
        report = verify_bipartite_trichotomy(2)
        assert report.outcome == "pass"
        # (1,1): 2, (1,2): 4, (2,1): 4, (2,2): 16
        assert report.counters["graphs_checked"] == 26

    def test_bipartite_classification_small(self):
        report = verify_bipartite_classification(2)
        assert report.outcome == "pass"
        assert report.counters["degenerate_cases"] > 0


class TestTwoBicliquesCaseCheck:
    """verify._case_matches refuses a TWO_BICLIQUES record whose blocks do
    not describe the graph: two disjoint edges 0-2 and 1-3."""

    B = Bipartite(Graph.from_edges(4, [(0, 2), (1, 3)]), (0, 1), (2, 3))

    @staticmethod
    def case(*blocks):
        return BipartiteCase(tag=BipartiteCaseTag.TWO_BICLIQUES, blocks=blocks)

    def test_the_true_blocks_match(self):
        assert verify._case_matches(self.B, self.case(((0,), (2,)), ((1,), (3,))))

    def test_blocks_that_miss_a_vertex(self):
        assert not verify._case_matches(self.B, self.case(((0,), (2,)), ((0,), (3,))))

    def test_an_empty_block(self):
        assert not verify._case_matches(self.B, self.case(((), (2,)), ((0, 1), (3,))))

    def test_a_block_that_is_not_complete(self):
        # 1-2 is not an edge, so (0, 1) x (2,) is no biclique
        assert not verify._case_matches(self.B, self.case(((0, 1), (2,)), ((1,), (3,))))


REAL_CLASSIFY = conversion._classify


class TestIsolatedCaseCheck:
    """verify._case_matches checks the pivot of an ISOLATED_AND_DOMINATING
    record, the lowest vertex of the other side: right side 3 isolated, 5
    dominating."""

    B = Bipartite(Graph.from_edges(6, [(0, 5), (1, 5), (2, 5), (0, 4)]), (0, 1, 2), (3, 4, 5))

    @staticmethod
    def case(chosen_u, side="right", v_minus=3, v_plus=5):
        return BipartiteCase(tag=BipartiteCaseTag.ISOLATED_AND_DOMINATING, side=side,
                             v_minus=v_minus, v_plus=v_plus, chosen_u=chosen_u)

    def test_the_lowest_pivot_matches(self):
        assert verify._case_matches(self.B, self.case(0))

    @pytest.mark.parametrize("chosen_u", [1, 2, None])
    def test_another_pivot_is_refused(self, chosen_u):
        assert not verify._case_matches(self.B, self.case(chosen_u))

    def test_an_empty_other_side_has_no_pivot(self):
        b = Bipartite(Graph.empty(2), (), (0, 1))
        assert verify._case_matches(b, self.case(None, v_minus=0, v_plus=0))
        assert not verify._case_matches(b, self.case(0, v_minus=0, v_plus=0))

    @staticmethod
    def highest_pivot(adj, vs, left, right, diam, diam_c):
        case = REAL_CLASSIFY(adj, vs, left, right, diam, diam_c)
        if case.chosen_u is None:
            return case
        other = left if case.side == "right" else right
        return dataclasses.replace(case, chosen_u=max(other))

    def test_the_sweep_fails_a_classifier_with_the_wrong_pivot(self, monkeypatch):
        # both the sweep's classification and the public classifier's
        monkeypatch.setattr(verify, "_classify", self.highest_pivot)
        monkeypatch.setattr(conversion, "_classify", self.highest_pivot)
        report = verify_bipartite_classification(2)
        assert report.outcome == "fail"
        assert report.payload["tag"] == "isolated_and_dominating"

    def test_the_sweep_fails_a_public_classifier_that_disagrees(self, monkeypatch):
        monkeypatch.setattr(conversion, "_classify", self.highest_pivot)
        report = verify_bipartite_classification(2)
        assert report.outcome == "fail"
        assert report.payload["tag"] == "isolated_and_dominating"


class TestTrivialTagCheck:
    """The sweep checks the trivial tag on the connectivity of each graph
    and its complement, not on the diameters the classifier decided it
    from: diameters that read every graph as connected tag the degenerate
    ones trivial, and the connectivity check refuses that."""

    def test_the_sweep_fails_diameters_that_read_connected(self, monkeypatch):
        monkeypatch.setattr(verify, "diameters", lambda dist: np.zeros(len(dist), dtype=np.int16))
        report = verify_bipartite_classification(2)
        assert report.outcome == "fail"
        assert report.payload["tag"] == "connected_or_complement"
        a, b = report.payload["sides"]
        g = Graph.from_edges(a + b, report.payload["edges"])
        case = conversion.classify_bipartite(Bipartite(g, range(a), range(a, a + b)))
        assert case.tag is not BipartiteCaseTag.CONNECTED_OR_COMPLEMENT


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

    @pytest.mark.parametrize("sweep", [verify_conversion, verify_metric_axioms,
                                       verify_aggregation, verify_sauer_shelah])
    def test_count_below_one_is_a_domain_error(self, sweep):
        """A sweep over no instance would pass without checking anything."""
        for count in (0, -3):
            with pytest.raises(DomainError, match=f"count must be an integer >= 1, got {count}"):
                sweep(count, 0)

    def test_determinism(self):
        a = verify_conversion(10, seed=3).serialize()
        b = verify_conversion(10, seed=3).serialize()
        assert a == b


def _fails(capsys, sweep, argv, expected):
    """The sweep's whole serialized report is ``expected``, and so is the
    stdout of the CLI call, which exits 1."""
    text = json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert sweep().serialize() == text
    assert main(argv) == 1
    assert capsys.readouterr().out == text


class TestFailureReports:
    """One forced failure per lemma, through the function its check calls:
    the report names the counterexample and counts what was checked up to
    it."""

    def test_diam_complement(self, capsys, monkeypatch):
        real = verify._diam_at_most

        def diam_at_most(dist, bound):
            ok = real(dist, bound)
            ok[[5, 58]] = False  # graph 5 and its complement
            return ok

        monkeypatch.setattr(verify, "_diam_at_most", diam_at_most)
        _fails(
            capsys, lambda: verify_diam_complement(4),
            ["verify", "diam-complement", "--exhaustive", "4"],
            {
                "command": "verify",
                "parameters": {"lemma": "diam-complement", "exhaustive": 4},
                "outcome": "fail",
                "counters": {"graphs_checked": 64},
                "payload": {"n": 4, "edges": [[0, 1], [0, 3]]},
            },
        )

    def test_bipartite_trichotomy(self, capsys, monkeypatch):
        real = verify._diam_at_most

        def diam_at_most(dist, bound):
            ok = real(dist, bound)
            if bound == 6 and len(dist) == 16:  # sides (2, 2)
                ok[[7, 8]] = False  # a connected graph, its disconnected complement
            return ok

        monkeypatch.setattr(verify, "_diam_at_most", diam_at_most)
        _fails(
            capsys, lambda: verify_bipartite_trichotomy(3),
            ["verify", "bipartite-trichotomy", "--exhaustive", "3"],
            {
                "command": "verify",
                "parameters": {"lemma": "bipartite-trichotomy", "max_side": 3},
                "outcome": "fail",
                # sides (1, 1), (1, 2), (1, 3), (2, 1) and the whole (2, 2) stack
                "counters": {"graphs_checked": 2 + 4 + 8 + 4 + 16},
                "payload": {"sides": [2, 2], "edges": [[0, 2], [0, 3], [1, 2]]},
            },
        )

    def test_bipartite_classification(self, capsys, monkeypatch):
        real = verify._case_matches
        monkeypatch.setattr(
            verify, "_case_matches",
            lambda b, case: real(b, case) and (b.left != (0, 1) or b.graph.edges() != [(0, 2)]),
        )
        _fails(
            capsys, lambda: verify_bipartite_classification(2),
            ["verify", "bipartite-classification", "--exhaustive", "2"],
            {
                "command": "verify",
                "parameters": {"lemma": "bipartite-classification", "max_side": 2},
                "outcome": "fail",
                # sides (1, 1), (1, 2), then graphs 0 and 1 of (2, 1); the
                # failing graph is degenerate and counted as such
                "counters": {"graphs_checked": 2 + 4 + 2, "degenerate_cases": 3},
                "payload": {"sides": [2, 1], "edges": [[0, 2]], "tag": "isolated_and_dominating"},
            },
        )

    def test_conversion(self, capsys, monkeypatch):
        real = verify.apply_flip
        monkeypatch.setattr(
            verify, "apply_flip", lambda g, p, spec: None if g.n == 7 else real(g, p, spec)
        )
        _fails(
            capsys, lambda: verify_conversion(10, seed=2),
            ["verify", "conversion", "--random", "10", "--seed", "2"],
            {
                "command": "verify",
                "parameters": {"lemma": "conversion", "random": 10, "seed": 2},
                "outcome": "fail",
                "counters": {"instances_checked": 6, "max_ratio_times_100": 300},
                "payload": {
                    "instance": 5,
                    "edges": [
                        [0, 1], [0, 3], [0, 6], [1, 2], [1, 3], [1, 4], [1, 5],
                        [1, 6], [2, 5], [3, 5], [3, 6], [4, 5], [4, 6], [5, 6],
                    ],
                    "parts": [[0], [1, 2, 3, 4, 5, 6]],
                    "problems": ["replayed spec does not reproduce the flip"],
                },
            },
        )

    def test_metric_axioms(self, capsys, monkeypatch):
        real = verify.dist_partition_matrix

        def dist_partition_matrix(g, p, **kwargs):
            d = real(g, p, **kwargs)
            if g.n == 5:
                d[0, 0] = 2
            return d

        monkeypatch.setattr(verify, "dist_partition_matrix", dist_partition_matrix)
        _fails(
            capsys, lambda: verify_metric_axioms(10, seed=2),
            ["verify", "metric-axioms", "--random", "10", "--seed", "2"],
            {
                "command": "verify",
                "parameters": {"lemma": "metric-axioms", "random": 10, "seed": 2},
                "outcome": "fail",
                "counters": {"instances_checked": 7},
                "payload": {
                    "instance": 6,
                    "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 4], [2, 4], [3, 4]],
                    "parts": [[0, 4], [1], [2, 3]],
                    "problems": ["nonzero on the diagonal"],
                },
            },
        )

    def test_aggregation(self, capsys, monkeypatch):
        real = verify.dist_definable_matrix

        def dist_definable_matrix(g, sets, **kwargs):
            d = real(g, sets, **kwargs)
            if len(sets) == 2 and g.n == 6:
                d[:] = 0
            return d

        monkeypatch.setattr(verify, "dist_definable_matrix", dist_definable_matrix)
        _fails(
            capsys, lambda: verify_aggregation(10, seed=2),
            ["verify", "aggregation", "--random", "10", "--seed", "2"],
            {
                "command": "verify",
                "parameters": {"lemma": "aggregation", "random": 10, "seed": 2},
                "outcome": "fail",
                "counters": {"instances_checked": 10},
                "payload": {"instance": 9, "edges": [[0, 1], [1, 2]], "sets": [[5], [3]]},
            },
        )

    def test_sauer_shelah(self, capsys, monkeypatch):
        monkeypatch.setattr(vc, "comb", lambda n, k: 0 if n == 3 else math.comb(n, k))
        _fails(
            capsys, lambda: verify_sauer_shelah(10, seed=2),
            ["verify", "sauer-shelah", "--random", "10", "--seed", "2"],
            {
                "command": "verify",
                "parameters": {"lemma": "sauer-shelah", "random": 10, "seed": 2},
                "outcome": "fail",
                "counters": {"instances_checked": 3},
                "payload": {
                    "instance": 2,
                    "edges": [[0, 3], [0, 4], [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
                    "error": "trace count 5 at n=3 violates the binomial-sum bound 0",
                },
            },
        )

import pytest
from hypothesis import given, settings, strategies as st

from flipkit import CapExceeded, DomainError, Graph, Partition
from flipkit import fileio, graphs
from flipkit.generators import (
    clique,
    cycle,
    generate,
    gnp,
    grid,
    halfgraph,
    hypercube,
    path,
    star,
)


class TestGenerators:
    def test_path(self):
        g = path(5)
        assert g.n == 5 and g.num_edges() == 4

    def test_cycle(self):
        g = cycle(5)
        assert g.num_edges() == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_clique(self):
        assert clique(5).num_edges() == 10

    def test_star(self):
        g = star(6)
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_grid(self):
        g = grid(3, 4)
        assert g.n == 12
        assert g.num_edges() == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_hypercube(self):
        g = hypercube(3)
        assert g.n == 8
        assert g.num_edges() == 12
        assert all(g.degree(v) == 3 for v in range(8))

    def test_halfgraph_definition(self):
        g = halfgraph(2)
        assert set(g.edges()) == {(0, 2), (0, 3), (1, 3)}

    def test_gnp_deterministic(self):
        assert gnp(8, 0.5, seed=1) == gnp(8, 0.5, seed=1)
        assert gnp(8, 0.5, seed=1) != gnp(8, 0.5, seed=2)

    def test_generate_dispatch(self):
        assert generate("path", "5") == path(5)
        assert generate("gnp", "6", "0.5", "3") == gnp(6, 0.5, 3)

    def test_generate_rejects_unknown(self):
        with pytest.raises(DomainError):
            generate("tree", 5)

    def test_generate_rejects_bad_arity(self):
        with pytest.raises(DomainError):
            generate("path", "5", "6")


class TestGraphFormat:
    def test_roundtrip(self, rng):
        from conftest import random_graph

        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            assert fileio.loads_graph(fileio.dumps_graph(g)) == g

    def test_canonical_output(self):
        g = Graph.from_edges(3, [(2, 1), (0, 2)])
        assert fileio.dumps_graph(g) == "3 2\n0 2\n1 2\n"

    def test_rejects_edge_count_mismatch(self):
        with pytest.raises(DomainError):
            fileio.loads_graph("2 2\n0 1\n")

    def test_comments_and_blanks_ignored(self):
        text = "# a graph\n3 1\n\n0 1  # the only edge\n"
        assert fileio.loads_graph(text) == Graph.from_edges(3, [(0, 1)])


class TestPartitionFormat:
    def test_roundtrip(self):
        p = Partition(5, [[0, 2], [1], [3, 4]])
        assert fileio.loads_partition(fileio.dumps_partition(p), 5) == p

    def test_rejects_duplicate_vertex(self):
        with pytest.raises(DomainError):
            fileio.loads_partition("0 0\n0 1\n", 1)

    def test_rejects_incomplete(self):
        with pytest.raises(DomainError):
            fileio.loads_partition("0 0\n", 2)


class TestPerVertexFiles:
    """Partition and weights files share one contract: each vertex 0..n-1
    listed exactly once, a repeat named by its line."""

    @pytest.mark.parametrize("parse, what", [(fileio.loads_partition, "partition"),
                                             (fileio.loads_weights, "weights")])
    def test_one_contract(self, parse, what):
        with pytest.raises(DomainError, match=f"^line 3: vertex 1 listed twice in {what} file$"):
            parse("0 0\n1 1\n1 0\n")
        for text, n in (("0 0\n", 2), ("0 0\n2 0\n", None), ("-1 0\n0 0\n", 2),
                        ("0 0\n1 0\n", 1), ("", 1), ("10000000000000 0\n", None)):
            with pytest.raises(DomainError, match=f"^{what} file must list every vertex 0..n-1 once$"):
                parse(text, n)


class TestSpecAndWeights:
    def test_weights_roundtrip_int(self):
        ws = [3, 0, 7]
        loaded = fileio.loads_weights(fileio.dumps_weights(ws), 3)
        assert loaded == ws
        assert all(isinstance(w, int) for w in loaded)

    def test_weights_roundtrip_float(self):
        ws = [0.5, 1.25]
        loaded = fileio.loads_weights(fileio.dumps_weights(ws), 2)
        assert loaded == ws

    def test_weights_must_cover(self):
        with pytest.raises(DomainError):
            fileio.loads_weights("0 1\n", 2)

    def test_weights_reject_duplicate_vertex(self):
        with pytest.raises(DomainError, match="^line 2: vertex 0 listed twice in weights file"):
            fileio.loads_weights("0 1\n0 7\n1 1\n")

    def test_family_roundtrip(self):
        sets = [(0, 1), (2,), (3, 4, 5)]
        assert fileio.loads_family(fileio.dumps_family(sets)) == sets

    def test_vertex_set_commas_or_whitespace(self):
        assert fileio.loads_vertex_set("0,3 5\n7,\n# note\n") == [0, 3, 5, 7]
        assert fileio.loads_vertex_set("") == []


class TestMalformedInput:
    @pytest.mark.parametrize(
        "parse, text, line",
        [
            (fileio.loads_graph, "3 2\n0 1\n0 x\n", 3),
            (fileio.loads_graph, "3 1\n0 5\n", 2),
            (fileio.loads_graph, "3 1\n1 1\n", 2),
            (fileio.loads_partition, "0 0\n# comment\n\n1 0 2\n", 4),
            (fileio.loads_weights, "0 1\n1 2 3\n", 2),
            (fileio.loads_family, "0 1\n2 3.5\n", 2),
            (fileio.loads_vertex_set, "0, 1\n2,x\n", 2),
        ],
        ids=["graph", "graph_edge_range", "graph_self_loop", "partition", "weights", "family",
             "vertex_set"],
    )
    def test_names_the_line(self, parse, text, line):
        with pytest.raises(DomainError, match=f"^line {line}: "):
            parse(text)

    def test_negative_header_count(self):
        with pytest.raises(DomainError, match="^line 1: "):
            fileio.loads_graph("-1 0\n")

    # separated tokens keep every count small, so no parse allocates much
    _token = st.sampled_from(["0", "1", "2", "3", "-1", "x", "U:", "U:1", "1.5", "#"])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_token, st.sampled_from([" ", "\n"])), max_size=12))
    def test_any_text_parses_or_is_a_domain_error(self, tokens):
        """Any text parses to a value that round-trips, or is a DomainError."""
        text = "".join(token + sep for token, sep in tokens)
        for parse, dump in (
            (fileio.loads_graph, fileio.dumps_graph),
            (fileio.loads_partition, fileio.dumps_partition),
            (fileio.loads_weights, fileio.dumps_weights),
            (fileio.loads_family, fileio.dumps_family),
        ):
            try:
                value = parse(text)
            except DomainError:
                continue
            assert parse(dump(value)) == value, (parse.__name__, text)


class TestDenseVertexCeiling:
    """Graphs above the dense-vertex ceiling are refused before their n²
    adjacency or a loop over their vertex pairs is built."""

    def test_huge_inputs_refuse_at_once(self):
        with pytest.raises(CapExceeded, match="line 1: the vertex count is 200000"):
            fileio.loads_graph("200000 0\n")
        for make in (lambda: path(200000), lambda: gnp(100000, 0.5),
                     lambda: hypercube(1000), lambda: grid(10**6, 10**6),
                     lambda: halfgraph(10**6), lambda: Graph.empty(10**6)):
            with pytest.raises(CapExceeded, match="above the cap (4096|12)"):
                make()

    def test_negative_vertex_count_is_a_domain_error(self):
        for make in (lambda: Graph.from_edges(-1, []), lambda: Graph.empty(-1)):
            with pytest.raises(DomainError, match="n must be an integer >= 0, got -1"):
                make()

    @pytest.mark.parametrize("n", [8, 9])
    def test_ceiling_admits_exactly_its_vertex_count(self, monkeypatch, n):
        monkeypatch.setattr(graphs, "_MAX_DENSE_N", 8)
        builds = [
            lambda: path(n), lambda: cycle(n), lambda: clique(n), lambda: star(n),
            lambda: gnp(n, 0.5), lambda: grid(1, n), lambda: Graph.empty(n),
            lambda: Graph.from_edges(n, []), lambda: fileio.loads_graph(f"{n} 0\n"),
            lambda: hypercube(n - 5), lambda: halfgraph(n - 4),
        ]
        for build in builds:
            if n == 8:
                assert build().n <= 8
            else:
                with pytest.raises(CapExceeded, match="above the cap (8|3)"):
                    build()


class TestExports:
    def test_dot_k3(self):
        text = fileio.export_dot(clique(3))
        assert text.count(" -- ") == 3
        assert "graph G {" in text

    def test_dot_with_partition_colors(self):
        text = fileio.export_dot(path(4), Partition(4, [[0, 1], [2, 3]]))
        assert "fillcolor" in text

    def test_csv_empty_is_header_only(self):
        assert fileio.export_csv([], ["a", "b"]) == "a,b\n"

    def test_csv_rows(self):
        text = fileio.export_csv([{"a": 1, "b": 2}], ["a", "b"])
        assert text == "a,b\n1,2\n"

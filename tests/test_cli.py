import json

import pytest

from flipkit import Graph, fileio
from flipkit.cli import main
from flipkit.generators import clique, gnp, path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="g.txt"):
        p = tmp_path / name
        p.write_text(fileio.dumps_graph(g))
        return str(p)

    return write


class TestGen:
    def test_gen_path_stdout(self, capsys):
        code, out = run(capsys, "gen", "path", "5")
        assert code == 0
        assert out == "5 4\n0 1\n1 2\n2 3\n3 4\n"

    def test_gen_halfgraph(self, capsys):
        code, out = run(capsys, "gen", "halfgraph", "2")
        assert fileio.loads_graph(out).edges() == [(0, 2), (0, 3), (1, 3)]

    def test_gen_gnp_uses_global_seed(self, capsys):
        _, out1 = run(capsys, "--seed", "4", "gen", "gnp", "8", "0.5")
        _, out2 = run(capsys, "--seed", "4", "gen", "gnp", "8", "0.5")
        _, out3 = run(capsys, "--seed", "5", "gen", "gnp", "8", "0.5")
        assert out1 == out2
        assert out1 != out3

    def test_gen_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out = run(capsys, "gen", "clique", "3", "-o", str(target))
        assert code == 0 and out == ""
        assert fileio.loads_graph(target.read_text()) == clique(3)

    def test_gen_bad_params_usage_error(self, capsys):
        code, _ = run(capsys, "gen", "path", "5", "7")
        assert code == 2


class TestReports:
    def test_diam(self, capsys, graph_file):
        code, out = run(capsys, "diam", graph_file(path(5)))
        assert code == 0
        body = json.loads(out)
        assert body["payload"]["diameter"] == 4

    def test_diam_disconnected(self, capsys, graph_file):
        code, out = run(capsys, "diam", graph_file(Graph.empty(3)))
        assert json.loads(out)["payload"]["diameter"] == "inf"

    def test_vcdim_csv(self, capsys, graph_file):
        code, out = run(capsys, "vcdim", graph_file(clique(4)))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "vcdim,1"
        assert lines[1].startswith("witness,")
        assert lines[2] == "n,traces"

    def test_missing_file_is_refusal(self, capsys):
        code, _ = run(capsys, "diam", "no-such-file.txt")
        assert code == 2

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n0 1\n0 x\n")
        assert main(["diam", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err


class TestDist:
    def test_single_pair(self, capsys, graph_file, tmp_path):
        gf = graph_file(path(3))
        pf = tmp_path / "p.txt"
        pf.write_text("0 0\n1 0\n2 0\n")
        code, out = run(capsys, "dist", "--partition", str(pf), gf, "0", "2")
        assert code == 0
        assert out == "u,v,dist\n0,2,2\n"

    def test_all_pairs_with_set(self, capsys, graph_file):
        gf = graph_file(path(3))
        code, out = run(capsys, "dist", gf, "--set", "", "--all-pairs")
        assert code == 0
        assert out.count("\n") == 10  # header + 9 pairs

    def test_inf_rendering(self, capsys, graph_file, tmp_path):
        gf = graph_file(path(3))
        pf = tmp_path / "p.txt"
        pf.write_text("0 0\n1 0\n2 0\n")
        code, out = run(capsys, "dist", "--partition", str(pf), gf, "0", "1")
        assert out.endswith("0,1,inf\n")

    def test_exactly_one_mode_required(self, capsys, graph_file):
        code, _ = run(capsys, "dist", graph_file(path(3)), "0", "1")
        assert code == 2

    def test_cap_refusal_exit_code(self, capsys, graph_file, tmp_path):
        gf = graph_file(path(6))
        pf = tmp_path / "p.txt"
        pf.write_text("".join(f"{v} {v}\n" for v in range(6)))
        code, _ = run(capsys, "dist", "--partition", str(pf), gf, "0", "1")
        assert code == 2

    def test_refusal_writes_no_partial_output(self, capsys, graph_file, tmp_path):
        gf = graph_file(path(6))
        pf = tmp_path / "p.txt"
        pf.write_text("".join(f"{v} {v}\n" for v in range(6)))
        target = tmp_path / "out.csv"
        code, _ = run(
            capsys, "dist", "--partition", str(pf), gf, "0", "1", "-o", str(target)
        )
        assert code == 2
        assert not target.exists()


class TestConvert:
    def test_convert_emits_certificates(self, capsys, graph_file, tmp_path):
        gf = graph_file(gnp(8, 0.5, seed=2))
        pf = tmp_path / "p.txt"
        pf.write_text("".join(f"{v} {v % 3}\n" for v in range(8)))
        certs = tmp_path / "certs.csv"
        dot = tmp_path / "out.dot"
        code, out = run(
            capsys,
            "convert", gf, "--partition", str(pf),
            "--emit-certificates", str(certs),
            "--emit-dot", str(dot),
        )
        assert code == 0
        body = json.loads(out)
        assert body["outcome"] == "pass"
        cert_lines = certs.read_text().splitlines()
        assert cert_lines[0] == "kind,indices,case_tag,flipped"
        # one row per part plus one per unordered pair
        assert len(cert_lines) - 1 == 3 + 3
        assert dot.read_text().startswith("graph G {")


class TestSearches:
    def test_break_witness(self, capsys, graph_file, tmp_path):
        gf = graph_file(path(12))
        wf = tmp_path / "w.txt"
        wf.write_text(" ".join(map(str, range(12))))
        code, out = run(capsys, "break", gf, "--W", str(wf), "-r", "1", "-m", "2")
        assert code == 0
        body = json.loads(out)
        assert body["outcome"] == "witness"
        assert body["payload"]["a1"] and body["payload"]["a2"]

    def test_break_failure_exit_one(self, capsys, graph_file, tmp_path):
        from flipkit.generators import star

        # star leaves stay close under both budgeted flips
        gf = graph_file(star(5))
        wf = tmp_path / "w.txt"
        wf.write_text("1 2 3 4")
        code, out = run(
            capsys, "break", gf, "--W", str(wf), "-r", "1", "-m", "2",
            "--s-max", "0", "--part-cap", "1",
        )
        assert code == 1
        assert json.loads(out)["outcome"] == "fail"

    def test_separate(self, capsys, graph_file, tmp_path):
        gf = graph_file(clique(6))
        wf = tmp_path / "w.txt"
        wf.write_text(fileio.dumps_weights([1] * 6))
        code, out = run(
            capsys,
            "separate", gf, "--weights", str(wf), "-r", "1",
            "--eps", "2/5", "--k-max", "1",
        )
        assert code == 0
        body = json.loads(out)
        assert body["outcome"] == "witness"
        assert body["payload"]["spec"] == [[0, 0]]

    @pytest.mark.parametrize("eps", ["abc", "1/0"])
    def test_separate_bad_eps_is_usage_error(self, capsys, graph_file, tmp_path, eps):
        gf = graph_file(clique(4))
        wf = tmp_path / "w.txt"
        wf.write_text(fileio.dumps_weights([1] * 4))
        code = main(["separate", gf, "--weights", str(wf), "-r", "1", "--eps", eps,
                     "--k-max", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert repr(eps) in captured.err

    def test_sep2break(self, capsys, graph_file, tmp_path):
        gf = graph_file(Graph.empty(6))
        wf = tmp_path / "w.txt"
        wf.write_text("0 1 2 3")
        code, out = run(capsys, "sep2break", gf, "--W", str(wf), "-r", "1")
        assert code == 0
        body = json.loads(out)
        assert body["outcome"] == "witness"
        assert body["payload"]["m"] == 1


class TestVerifyCommand:
    def test_exhaustive(self, capsys):
        code, out = run(capsys, "verify", "diam-complement", "--exhaustive", "4")
        assert code == 0
        assert json.loads(out)["counters"]["graphs_checked"] == 64

    def test_random_with_seed(self, capsys):
        code, out = run(capsys, "--seed", "9", "verify", "sauer-shelah", "--random", "10")
        assert code == 0

    def test_wrong_mode_is_usage_error(self, capsys):
        code, _ = run(capsys, "verify", "conversion", "--exhaustive", "4")
        assert code == 2


class TestExport:
    def test_export_dot_and_csv(self, capsys, graph_file, tmp_path):
        gf = graph_file(clique(3))
        dot = tmp_path / "g.dot"
        csvf = tmp_path / "g.csv"
        code, _ = run(capsys, "export", gf, "--dot", str(dot), "--csv", str(csvf))
        assert code == 0
        assert dot.read_text().count(" -- ") == 3
        assert csvf.read_text() == "u,v\n0,1\n0,2\n1,2\n"

    def test_export_needs_target(self, capsys, graph_file):
        code, _ = run(capsys, "export", graph_file(clique(3)))
        assert code == 2


class TestDeterminism:
    COMMANDS = [
        ("verify", "diam-complement", "--exhaustive", "4"),
        ("verify", "metric-axioms", "--random", "5"),
        ("verify", "conversion", "--random", "5"),
    ]

    def test_byte_identical_reports(self, capsys):
        for argv in self.COMMANDS:
            _, out1 = run(capsys, "--seed", "11", *argv)
            _, out2 = run(capsys, "--seed", "11", *argv)
            assert out1 == out2, argv

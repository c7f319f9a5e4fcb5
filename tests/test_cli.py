import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from flipkit import Graph, fileio
from flipkit.cli import main
from flipkit.generators import clique, gnp, path, star


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

    def test_one_parser_per_process_matches_fresh_processes(self, capsys, graph_file):
        # main reuses one parser for the life of the process: every call in
        # this sequence must print what a fresh process prints for it
        g = graph_file(path(5))
        calls = [
            ["--seed", "4", "gen", "gnp", "8", "0.5"],
            ["gen", "gnp", "8", "0.5"],
            ["gen", "gnp", "8", "0.5", "--seed", "4"],
            ["dist", g, "0", "3", "--set", "0"],
            ["dist", g, "--set", "0", "--all-pairs"],
            ["gen", "nosuchkind", "3"],
            ["diam", g],
        ]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        codes = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            codes.append(code)
            out = capsys.readouterr().out
            fresh = subprocess.run([sys.executable, "-m", "flipkit.cli", *argv],
                                   capture_output=True, text=True, env=env, timeout=120)
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
        assert codes == [0, 0, 0, 0, 0, 2, 0]


@pytest.fixture
def inputs(tmp_path):
    """Paths of one input file per name, plus ``dir``: a directory."""
    texts = {
        "path6": fileio.dumps_graph(path(6)),
        "path12": fileio.dumps_graph(path(12)),
        "star5": fileio.dumps_graph(star(5)),
        "k6": fileio.dumps_graph(clique(6)),
        "empty6": fileio.dumps_graph(Graph.empty(6)),
        "halves": "".join(f"{v} {v % 2}\n" for v in range(6)),
        "singletons": "".join(f"{v} {v}\n" for v in range(6)),
        "ones": fileio.dumps_weights([1] * 6),
        "twice_weight": "0 1\n0 7\n1 1\n2 1\n3 1\n4 1\n5 1\n",
        "nan_weight": "0 1\n1 nan\n2 1\n3 1\n4 1\n5 1\n",
        "inf_weight": "0 1\n1 inf\n2 1\n3 1\n4 1\n5 1\n",
        "huge_weight": fileio.dumps_weights([10**400] + [1] * 5),
        "overflow_weight": fileio.dumps_weights([1e308] * 6),
        "half_weights": fileio.dumps_weights([0.5] * 6),
        "probes12": " ".join(map(str, range(12))),
        "leaves": "1 2 3 4",
        "quad": "0 1 2 3",
        "triple": "0 1 2",
        "quad_out_of_range": "0 1 2 99",
        "bad_probes": "0 x\n",
        "huge": "200000 0\n",
        "not_utf8": b"\xff3 0\n",
    }
    names = {"dir": str(tmp_path)}
    for name, text in texts.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        names[name] = str(tmp_path / name)
    return names


# commands whose -o/--output is a copy of stdout
COPIES_STDOUT = {"vcdim", "dist", "break", "separate", "sep2break"}

# id: (argv with {input} placeholders, exit code, stderr fragment on exit 2)
RUNS = {
    "gen": (["gen", "path", "5"], 0, None),
    "diam": (["diam", "{path6}"], 0, None),
    "vcdim": (["vcdim", "{path6}"], 0, None),
    "dist": (["dist", "{path6}", "0", "3", "--partition", "{halves}"], 0, None),
    "convert": (
        ["convert", "{path6}", "--partition", "{halves}", "--emit-dot", "{dir}/c.dot",
         "-o", "{dir}/c.txt"], 0, None,
    ),
    "break": (["break", "{path12}", "--W", "{probes12}", "-r", "1", "-m", "2"], 0, None),
    "break-miss": (
        ["break", "{star5}", "--W", "{leaves}", "-r", "1", "-m", "2", "--s-max", "0",
         "--part-cap", "1"], 1, None,
    ),
    "separate": (
        ["separate", "{k6}", "--weights", "{ones}", "-r", "1", "--eps", "2/5",
         "--k-max", "1"], 0, None,
    ),
    "sep2break": (["sep2break", "{empty6}", "--W", "{quad}", "-r", "1"], 0, None),
    "verify": (["verify", "diam-complement", "--exhaustive", "4"], 0, None),
    "export": (["export", "{path6}", "--dot", "{dir}/g.dot", "--csv", "{dir}/g.csv"], 0, None),
    "dist-cap": (
        ["dist", "{path6}", "0", "1", "--partition", "{singletons}"], 2, "refused: ",
    ),
    "verify-wrong-mode": (["verify", "conversion", "--exhaustive", "4"], 2, "error: "),
    "diam-directory": (["diam", "{dir}"], 2, "error: "),
    "diam-not-utf8": (["diam", "{not_utf8}"], 2, "not_utf8: not a UTF-8 text file"),
    "gen-into-directory": (["gen", "path", "3", "-o", "{dir}"], 2, "error: "),
    "dist-negative-vertex": (
        ["dist", "{path6}", "0", "-1", "--set", "0"], 2, "vertex -1 out of range",
    ),
    "dist-vertex-out-of-range": (
        ["dist", "{path6}", "0", "9", "--set", "0"], 2, "vertex 9 out of range",
    ),
    "dist-malformed-set": (
        ["dist", "{path6}", "--set", "0,x", "--all-pairs"], 2, "error: line 1: ",
    ),
    "break-malformed-probes": (
        ["break", "{path6}", "--W", "{bad_probes}", "-r", "1", "-m", "2"], 2,
        "error: line 1: ",
    ),
    "sep2break-malformed-probes": (
        ["sep2break", "{path6}", "--W", "{bad_probes}", "-r", "1"], 2, "error: line 1: ",
    ),
    "gen-non-integer": (["gen", "path", "abc"], 2, "error: path parameter n "),
    "gen-non-number": (["gen", "gnp", "5", "x"], 2, "error: gnp parameter p "),
    "gen-empty-path": (["gen", "path", "0"], 2, "error: n must be an integer >= 1, got 0"),
    "gen-p-above-one": (["gen", "gnp", "5", "1.5"], 2, "error: gnp needs p in [0,1], got 1.5"),
    "verify-negative-count": (
        ["verify", "conversion", "--random", "-5"], 2, "error: the random sweep's count must be an integer >= 1, got -5",
    ),
    "dist-negative-cap": (
        ["dist", "{path6}", "0", "1", "--partition", "{halves}", "--max-parts", "-3"], 2,
        "error: the part cap must be an integer >= 1, got -3",
    ),
    "dist-zero-cap": (
        ["dist", "{path6}", "0", "1", "--partition", "{halves}", "--max-parts", "0"], 2,
        "error: the part cap must be an integer >= 1, got 0",
    ),
    "break-negative-cap": (
        ["break", "{star5}", "--W", "{leaves}", "-r", "1", "-m", "2", "--part-cap", "-1"], 2,
        "error: the part cap must be an integer >= 1, got -1",
    ),
    "break-negative-s-max": (
        ["break", "{star5}", "--W", "{leaves}", "-r", "1", "-m", "1", "--s-max", "-1"], 2,
        "error: s_max must be an integer >= 0, got -1",
    ),
    "separate-zero-k-max": (
        ["separate", "{k6}", "--weights", "{ones}", "-r", "1", "--eps", "2/5",
         "--k-max", "0"], 2, "error: k_max must be an integer >= 1, got 0",
    ),
    "separate-nan-weight": (
        ["separate", "{k6}", "--weights", "{nan_weight}", "-r", "1", "--eps", "1/2",
         "--k-max", "2"], 2, "error: weight of vertex 1 is not finite: nan",
    ),
    "separate-inf-weight": (
        ["separate", "{k6}", "--weights", "{inf_weight}", "-r", "1", "--eps", "1/2",
         "--k-max", "2"], 2, "error: weight of vertex 1 is not finite: inf",
    ),
    "separate-huge-int-weight": (
        ["separate", "{k6}", "--weights", "{huge_weight}", "-r", "1", "--eps", "1/2",
         "--k-max", "2"], 0, None,
    ),
    "separate-float-overflow": (
        ["separate", "{k6}", "--weights", "{overflow_weight}", "-r", "1", "--eps", "1/2",
         "--k-max", "1"], 2, "error: the total weight overflows the float range",
    ),
    "separate-float-eps-beyond-float-range": (
        ["separate", "{path6}", "--weights", "{half_weights}", "-r", "1", "--eps", "1e400",
         "--k-max", "1"], 0, None,
    ),
    "separate-negative-eps": (
        ["separate", "{k6}", "--weights", "{ones}", "-r", "1", "--eps", "-1",
         "--k-max", "2"], 2, "error: eps must be positive, got -1",
    ),
    "separate-zero-eps": (
        ["separate", "{k6}", "--weights", "{ones}", "-r", "1", "--eps", "0",
         "--k-max", "2"], 2, "error: eps must be positive, got 0",
    ),
    "separate-duplicate-weight": (
        ["separate", "{k6}", "--weights", "{twice_weight}", "-r", "1", "--eps", "1/2",
         "--k-max", "1"], 2, "error: line 2: vertex 0 listed twice in weights file",
    ),
    "separate-negative-n-cap": (
        ["separate", "{k6}", "--weights", "{ones}", "-r", "1", "--eps", "1/2",
         "--k-max", "1", "--n-cap", "-3"], 2, "error: n_cap must be an integer >= 1, got -3",
    ),
    "vcdim-negative-cap": (
        ["vcdim", "{path6}", "--cap", "-1"], 2,
        "error: the VC-dimension cap must be an integer >= 1, got -1",
    ),
    "sep2break-negative-radius": (
        ["sep2break", "{empty6}", "--W", "{quad}", "-r", "-1"], 2,
        "error: radius must be an integer >= 0, got -1",
    ),
    "verify-both-modes": (
        ["verify", "conversion", "--random", "2", "--exhaustive", "3"], 2,
        "error: conversion takes --random N and not --exhaustive",
    ),
    "verify-zero-exhaustive": (
        ["verify", "diam-complement", "--exhaustive", "0"], 2,
        "error: the diameter sweep's n must be an integer >= 1, got 0",
    ),
    "verify-negative-exhaustive": (
        ["verify", "bipartite-trichotomy", "--exhaustive", "-1"], 2,
        "error: the bipartite sweep's max_side must be an integer >= 1, got -1",
    ),
    "gen-over-ceiling": (
        ["gen", "path", "200000"], 2,
        "refused: the vertex count is 200000, above the cap 4096",
    ),
    "diam-over-ceiling": (
        ["diam", "{huge}"], 2,
        "refused: line 1: the vertex count is 200000, above the cap 4096",
    ),
    "sep2break-n-cap": (
        ["sep2break", "{path12}", "--W", "{quad}", "-r", "1"], 2,
        "refused: the vertex count of an exhaustive partition search is 12, above the cap 10; raise n_cap",
    ),
    "break-raw-n-cap": (
        ["break", "{path12}", "--W", "{probes12}", "-r", "1", "-m", "2", "--raw-partitions"], 2,
        "refused: the vertex count of an exhaustive partition search is 12, above the cap 10; raise n_cap",
    ),
    "break-raw": (
        ["break", "{path6}", "--W", "{quad}", "-r", "1", "-m", "2", "--raw-partitions",
         "--n-cap", "6"], 0, None,
    ),
    "sep2break-zero-n-cap": (
        ["sep2break", "{empty6}", "--W", "{quad}", "-r", "1", "--n-cap", "0"], 2,
        "error: n_cap must be an integer >= 1, got 0",
    ),
    "sep2break-probe-count": (
        ["sep2break", "{path6}", "--W", "{triple}", "-r", "1"], 2,
        "error: probe set size 3 is not of the form 4m^2 for integer m >= 1",
    ),
    "sep2break-probe-out-of-range": (
        ["sep2break", "{path6}", "--W", "{quad_out_of_range}", "-r", "1"], 2,
        "error: vertex 99 out of range for n=6",
    ),
    "sep2break-negative-k-max": (
        ["sep2break", "{empty6}", "--W", "{quad}", "-r", "1", "--k-max", "-2"], 2,
        "error: k_max must be an integer >= 1, got -2",
    ),
}


class TestRunner:
    @pytest.mark.parametrize("argv, code, err", RUNS.values(), ids=RUNS.keys())
    def test_one_runner_contract(self, capsys, inputs, tmp_path, argv, code, err):
        """Exit code, repeatable stdout, one stderr line, and -o as a copy
        of stdout on exit 0 only."""
        argv = [arg.format(**inputs) for arg in argv]
        copy = tmp_path / "copy"
        outs = []
        for extra in ([], ["-o", str(copy)] if argv[0] in COPIES_STDOUT else []):
            assert main(argv + extra) == code
            captured = capsys.readouterr()
            outs.append(captured.out)
            if code == 2:
                assert captured.out == ""
                assert re.fullmatch(r"(refused|error): [^\n]*\n", captured.err)
                assert err in captured.err
            else:
                assert re.fullmatch(r"wall_time_s=\d+\.\d{3}\n", captured.err)
        assert outs[0] == outs[1]
        if argv[0] in COPIES_STDOUT and code == 0:
            assert copy.read_bytes() == outs[0].encode()
        else:
            assert not copy.exists()

    def test_separate_cap_hint_names_only_accepted_knobs(self, capsys, inputs):
        code = main(["separate", inputs["k6"], "--weights", inputs["ones"], "-r", "1",
                     "--eps", "1/2", "--k-max", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("refused: ") and "FLIPKIT_MAX_PARTS" in err
        assert "--max-parts" not in err

    def test_zero_env_cap_is_a_usage_error(self, capsys, inputs, monkeypatch):
        monkeypatch.setenv("FLIPKIT_MAX_PARTS", "0")
        assert main(["dist", inputs["path6"], "0", "1", "--partition", inputs["halves"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: FLIPKIT_MAX_PARTS must be an integer >= 1, got '0'\n"

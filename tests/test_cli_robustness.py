"""Seeded robustness run of the in-process CLI.

Every command runs on mutated graph, partition, weight, probe and family
files and on a mutated argv.  Each run must exit 0, 1 or 2 with nothing
escaping but argparse's ``SystemExit(2)``, print nothing on a refusal, and
print the same stdout when repeated on the same files.  Unmutated, ``break``
exits 1 and every other command 0.  Mutated tokens are small numbers, so
every input stays a few vertices large.
"""

import argparse
import contextlib
import io
import os
import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from flipkit.cli import build_parser, main
from flipkit.verify import LEMMA_SWEEPS

FILES = {
    "g.txt": "5 5\n0 1\n0 2\n1 3\n2 3\n3 4\n",
    "p.txt": "0 0\n1 1\n2 0\n3 1\n4 0\n",
    "w.txt": "0 1\n1 2\n2 1\n3 1\n4 3\n",
    "W.txt": "1 2 3 4\n",
    "Q.txt": "0, 2\n",
    "f.txt": "0\n1 2\n",
}

# one argv per command shape: dist takes a partition or a family
COMMANDS = {
    "gen": ["gen", "gnp", "4", "0.5", "-o", "out.txt"],
    "diam": ["diam", "g.txt"],
    "vcdim": ["vcdim", "g.txt", "--cap", "5", "-o", "out.txt"],
    "dist-partition": ["dist", "g.txt", "0", "3", "--partition", "p.txt", "--max-parts", "2"],
    "dist-family": ["dist", "g.txt", "--all-pairs", "--family", "f.txt"],
    "convert": ["convert", "g.txt", "--partition", "p.txt", "--emit-certificates", "out.csv",
                "--emit-dot", "out.dot", "-o", "out.txt"],
    "break": ["break", "g.txt", "--W", "W.txt", "--W2", "Q.txt", "-r", "1", "-m", "2",
              "--s-max", "1", "--part-cap", "3"],
    "separate": ["separate", "g.txt", "--weights", "w.txt", "-r", "1", "--eps", "1/2",
                 "--k-max", "2", "--n-cap", "5"],
    "sep2break": ["sep2break", "g.txt", "--W", "W.txt", "-r", "1", "--k-max", "2"],
    "verify": ["verify", "{lemma}", "--{mode}", "2"],
    "export": ["export", "g.txt", "--partition", "p.txt", "--dot", "out.dot", "--csv", "out.csv"],
}

FILE_TOKENS = ["0", "1", "2", "3", "4", "-1", "x", "1.5", "nan", "#", ",", "\n", " "]
ARG_TOKENS = [
    "0", "1", "2", "3", "-1", "x", "1/2", "0.5", ".", "missing.txt", *FILES, "out.txt",
    "-r", "-m", "-o", "--eps", "--k-max", "--set", "--family", "f.txt", "--all-pairs",
    "--raw-partitions", "--seed", "--exhaustive", "--random", "--partition", "--max-parts",
]


def _mutate(tokens: list[str], edits) -> list[str]:
    """Apply (operation, position, token) edits: drop, replace or insert."""
    tokens = list(tokens)
    for op, at, token in edits:
        at %= len(tokens) + 1
        if op == "insert":
            tokens.insert(at, token)
        elif tokens and at < len(tokens):
            if op == "drop":
                del tokens[at]
            else:
                tokens[at] = token
    return tokens


def _edits(pool):
    return st.lists(
        st.tuples(st.sampled_from(["drop", "replace", "insert"]), st.integers(0, 40),
                  st.sampled_from(pool)),
        min_size=1, max_size=2,
    )


@st.composite
def invocations(draw):
    """(files, argv): the input files with at most one of them mutated,
    and the argv of one command, mutated or not."""
    target = draw(st.sampled_from([None, *FILES]))
    files = {
        name: "".join(_mutate(re.findall(r"\S+|\s+", text), draw(_edits(FILE_TOKENS))))
        if name == target else text
        for name, text in FILES.items()
    }
    command = draw(st.sampled_from(sorted(COMMANDS)))
    lemma = draw(st.sampled_from(sorted(LEMMA_SWEEPS)))
    argv = [arg.format(lemma=lemma, mode=LEMMA_SWEEPS[lemma][0]) for arg in COMMANDS[command]]
    if draw(st.booleans()):
        argv = _mutate(argv, draw(_edits(ARG_TOKENS)))
    return files, argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run inside a scratch directory, so that any path a mutated argv
    names (output files included) stays there."""
    before = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cli-robustness"))
    yield
    os.chdir(before)


def _run(files, argv) -> tuple[int, str]:
    for name, text in files.items():
        with open(name, "w") as handle:
            handle.write(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return 2, out.getvalue()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
    return code, out.getvalue()


def test_every_command_is_covered():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {argv[0] for argv in COMMANDS.values()}


@seed(20261018)
@settings(max_examples=250, deadline=None, database=None)
@given(invocations())
def test_mutated_invocations_exit_cleanly_and_repeat(workdir, invocation):
    files, argv = invocation
    assert _run(files, argv) == _run(files, argv), argv

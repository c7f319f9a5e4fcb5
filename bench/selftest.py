"""Self-test of the benchmark, at tiny size.

    python3 bench/selftest.py

Checks, each in a fresh process as the benchmark itself runs:

* every workload passes its output check on the default and the held-out
  seed, and prints exactly the end-to-end metrics of BENCHMARK.json;
* the traced run prints exactly the per-layer metrics, none absent;
* a job output corrupted inside the benchmark's checker (``--corrupt``;
  nothing under ``src/`` changes) raises ``failed`` above 0;
* a copy holding only BENCHMARK.json and ``bench/`` exits non-zero
  without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "0.1", "--size", "tiny", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in ("metric", "search", "sweep"):
        for seed, trace in (("0", "0"), ("7", "0"), ("0", "1")):
            code, out = bench(ROOT, "--workload", workload, "--seed", seed, "--trace", trace)
            res = result(out)
            wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
            ok = (
                code == 0 and res is not None and res["correct"] and res["failed"] == 0
                and res["attempted"] >= 1
                and [m["name"] for m in wanted] == list(res["metrics"])
                and all(res["metrics"][m["name"]]["unit"] == m["unit"] for m in wanted)
                and "# absent" not in out
            )
            check(ok, f"{workload} seed {seed} trace {trace}: correct, all metrics")
        code, out = bench(ROOT, "--workload", workload, "--seed", "0", "--trace", "0",
                          "--corrupt")
        res = result(out)
        check(code == 0 and res is not None and res["failed"] > 0 and not res["correct"],
              f"{workload}: a corrupted output counts as failed")

    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = bench(bare, "--workload", "metric", "--seed", "0", "--trace", "0")
    check(code != 0 and result(out) is None, "without src/ the run fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Measure the current commit and write ``bench/baseline.json``.

    python3 bench/baseline.py

Runs every workload of BENCHMARK.json ``RUNS`` times untraced, each run
with its own seed (1, 2, ...), and once traced on seed 0, each run in its
own process as BENCHMARK.json's command.  For every end-to-end metric it
records the median, the quartiles and the quartile spread as a share of the
median; for the traced run, the whole per-layer table.  The environment of
the runs is recorded next to the numbers.  Exits 1 when a run fails its
output check or a spread exceeds a third of its metric's bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = BENCH / "baseline.json"
RUNS = 10


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    table = {"workloads": {}}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run(workload, seed, 0) for seed in range(1, RUNS + 1)]
        e2e = {}
        for m in SPEC["end_to_end"]:
            e2e[m["name"]] = summary([r["metrics"][m["name"]]["value"] for r in runs])
            e2e[m["name"]]["unit"] = m["unit"]
        traced = run(workload, 0, 1)
        correct = all(r["correct"] for r in runs) and traced["correct"]
        table["workloads"][workload] = {
            "runs": RUNS,
            "correct": correct,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": e2e,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        ok &= correct
        print(f"{workload}: correct={correct}")
        for name, s in e2e.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  > bound/3"
            ok &= not flag
            print(f"  {name:12s} median {s['median']:.4f} {s['unit']:3s} spread {s['spread']:.4f}"
                  f" (bound {bounds[name]}){flag}")
    env = json.loads((BENCH / "out" / f"{workload}.trace0.json").read_text())["environment"]
    table["environment"] = env
    OUT.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

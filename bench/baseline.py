#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the runs.

Run from the root of a checkout:

    python3 bench/baseline.py

For every workload in BENCHMARK.json this makes ten untraced runs with seeds
1 to 10 and one traced run with seed 1, all with the run length
BENCHMARK.json sets, and writes bench/baseline.json.  For each end-to-end
metric it records the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound.  For
each seed it records the sha256 of the outputs, so that a later commit's
outputs can be compared byte for byte.  The traced run contributes the
per-layer figures and the layers ranked by self time.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = range(1, 11)
OUT = Path("bench/baseline.json")


def run(command: list[str], workload: str, seed: int, seconds: int,
        trace: int) -> tuple[dict, dict, dict]:
    """One run: its first line, its detail line and its result line, plus the
    run's duration in the first line's ``elapsed_s``."""
    start = time.monotonic()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    head = dict(json.loads(lines[0]), elapsed_s=time.monotonic() - start)
    return head, json.loads(lines[1]), json.loads(lines[-1])


def summary(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    result = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run(spec["command"], name, seed, spec["run_seconds"], 0)
                for seed in SEEDS]
        head, _, _ = runs[0]
        result["machine"] = head["machine"]
        traced_head, traced_detail, traced = run(spec["command"], name, 1,
                                                 spec["run_seconds"], 1)
        entry = {
            "inputs_seed_1": head["inputs"],
            "longest_run_s": max(h["elapsed_s"] for h, _, _ in runs + [(traced_head, 0, 0)]),
            "correct": all(last["correct"] for _, _, last in runs) and traced["correct"],
            "output_sha256_by_seed": {seed: detail["output_sha256"]
                                      for seed, (_, detail, _) in zip(SEEDS, runs)},
            "end_to_end": {
                m["name"]: summary([last["metrics"][m["name"]]["value"]
                                    for _, _, last in runs], m["bound"])
                for m in spec["end_to_end"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "layers_by_self_time": traced_detail["detail"]["layers_by_self_time"],
        }
        result["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  (above a third of the bound)"
            print(f"{name:20s} {metric:20s} median {s['median']:10.4g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}", file=sys.stderr)
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

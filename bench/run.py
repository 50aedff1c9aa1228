#!/usr/bin/env python3
"""Seeded benchmark of the polyeval command line.

Run from the root of a checkout (the directory that holds ``src/``):

    python3 bench/run.py --workload eval_bleu --seed 1 --seconds 36 --trace 0

The benchmark writes the workload's inputs from ``--seed`` into a scratch
directory under ``bench/_runs/``, then runs the workload's polyeval commands
as users do: one child process per command, ``python -m polyeval`` with
``src`` on the path, driven by this single-threaded process.  It repeats the
command sequence for about ``--seconds`` seconds of command time and reports
medians over the repetitions.  The outputs of the first repetition are
checked by an independent oracle (bench/oracle.py); every later repetition
must reproduce them byte for byte.

With ``--trace 1`` the same commands run in-process through
``polyeval.cli.run`` instead, alternately untraced and traced
(bench/tracing.py), and the per-layer figures are reported.

Human-readable detail goes to standard output first; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The metric names and units are those of BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
RUNS = BENCH / "_runs"
WARMUP_RUNS = 3
MIN_SETUP_RUNS = 5
BUDGET_S = 170.0  # a run must end within 180 s
# Child processes get this many threads: POLYEVAL_THREADS and the BLAS and
# OpenMP pools are all capped at the CPUs this process may run on, which can
# be fewer than os.cpu_count() reports.
CPUS = len(os.sched_getaffinity(0))
THREAD_VARS = ("POLYEVAL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

EVAL = ("eval", "--examples", "examples.jsonl", "--generations", "generations.jsonl")


@dataclass(frozen=True)
class Workload:
    examples: int
    commands: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]  # files the commands write


WORKLOADS = {
    # BLEU score matrices and tie-dense assignment; decode and diversity idle.
    # Covers both the set path (top-k 10) and the top-1 path.
    "eval_bleu": Workload(
        examples=400,
        commands=(
            EVAL + ("--metric", "bleu", "--topk", "10", "--matching", "bipartite",
                    "--report", "report_topk.json"),
            EVAL + ("--metric", "bleu", "--topk", "1", "--selection", "maximum",
                    "--report", "report_top1.json"),
        ),
        outputs=("report_topk.json", "report_top1.json"),
    ),
    # Assignment on tie-free cluster-pooled matrices and per-pair embedding
    # cosine over heavily repeated texts; BLEU and decode idle.
    "eval_embed_cluster": Workload(
        examples=500,
        commands=(
            ("diversity", "--generations", "generations.jsonl", "--embeddings",
             "embeddings.jsonl", "--tau", "0.8", "--out-clusters", "clusters.jsonl",
             "--report", "report_diversity.json"),
            EVAL + ("--metric", "embed", "--embeddings", "embeddings.jsonl",
                    "--topk", "20", "--clusters", "clusters.jsonl",
                    "--report", "report_eval.json"),
        ),
        outputs=("report_diversity.json", "report_eval.json", "clusters.jsonl"),
    ),
    # Decoding does nearly all the work; textmetrics and assignment idle.
    # Diverse beam search repeats one search per example, poly sampling is
    # salted per example.
    "decode_pipeline": Workload(
        examples=300,
        commands=(
            ("normalize", "--in", "raw.jsonl", "--source", "generic",
             "--out", "unified.jsonl", "--report", "report_normalize.json"),
            ("decode", "--lm", "lm_mono.json", "--examples", "unified.jsonl",
             "--strategy", "dbs", "--out", "g_dbs.jsonl", "--report", "report_dbs.json"),
            ("decode", "--lm", "lm_poly.json", "--examples", "unified.jsonl",
             "--strategy", "poly", "--runs", "3", "--seed", "7",
             "--out", "g_poly.jsonl", "--report", "report_poly.json"),
            ("datastats", "--examples", "unified.jsonl",
             "--report", "report_datastats.json"),
        ),
        outputs=("report_normalize.json", "report_dbs.json", "report_poly.json",
                 "report_datastats.json", "unified.jsonl", "g_dbs.jsonl",
                 "g_poly.jsonl"),
    ),
}

# Layers each workload must not reach.  A traced pass that opens a span in
# one of them fails.
BYPASSED = {
    "eval_bleu": ("decode", "diversity"),
    "eval_embed_cluster": ("decode",),
    "decode_pipeline": ("textmetrics", "assignment"),
}


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline()


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def run_child(argv, cwd: Path, env: dict, until: float) -> Child:
    """Run ``python -m polyeval argv`` and reap it with its resource usage."""
    start = time.perf_counter()
    with open(cwd / "stderr.log", "ab") as err:
        proc = subprocess.Popen([sys.executable, "-m", "polyeval", *argv], cwd=cwd,
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
    signal.setitimer(signal.ITIMER_REAL, max(until - time.monotonic(), 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except Deadline:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code)


def digest(workdir: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        path = workdir / name
        h.update(name.encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def machine() -> dict:
    import numpy
    import scipy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": CPUS, "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def min_median_max(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


class Outcome:
    """Examples attempted and failed over all repetitions of a run."""

    def __init__(self, workload: Workload, check_fn, workdir: Path):
        self.workload = workload
        self.check_fn = check_fn
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.properties: dict = {}
        self.first_digest = None  # sha256 of the first repetition's outputs
        self._first_failed = 0

    def record(self, codes: list[int], problem: str | None = None) -> None:
        """Account one repetition whose commands exited with ``codes``; a
        ``problem`` fails the whole repetition."""
        n = self.workload.examples
        self.attempted += n
        if any(codes) or problem:
            self.failed += n
            self.problems.append(problem or f"command exit codes {codes}: "
                                 + self._stderr_tail())
            return
        now = digest(self.workdir, self.workload.outputs)
        if self.first_digest is None:
            self.first_digest = now
            try:
                check = self.check_fn(self.workdir)
                self._first_failed = len(check.failed)
                self.problems += check.problems
                self.properties = check.properties
            except Exception as exc:  # a malformed output must not stop the run
                self._first_failed = n
                self.problems.append(f"oracle could not read the outputs: {exc!r}")
            self.failed += self._first_failed
        elif now != self.first_digest:
            self.failed += n
            self.problems.append("a repetition changed the output bytes")
        else:
            self.failed += self._first_failed

    def _stderr_tail(self) -> str:
        try:
            lines = (self.workdir / "stderr.log").read_text().strip().splitlines()
        except OSError:
            return ""
        return lines[-1] if lines else ""


def measure(workload: Workload, outcome: Outcome, workdir: Path, seconds: int,
            until: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics over repeated command sequences."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    version = ["--version"]
    for _ in range(WARMUP_RUNS):  # compile bytecode, fill the page cache
        run_child(version, workdir, env, until)
    # one set-up sample per repetition spreads them over the whole run
    setup: list[Child] = []
    reps: list[list[Child]] = []
    start = time.monotonic()
    while True:
        setup.append(run_child(version, workdir, env, until))
        rep = [run_child(cmd, workdir, env, until) for cmd in workload.commands]
        reps.append(rep)
        outcome.record([c.code for c in rep])
        elapsed = time.monotonic() - start
        typical = elapsed / len(reps)
        if elapsed + typical > seconds or time.monotonic() + 2 * typical > until:
            break
    while len(setup) < MIN_SETUP_RUNS:
        setup.append(run_child(version, workdir, env, until))
    n = workload.examples
    rate = [n / sum(c.wall_s for c in rep) for rep in reps]
    cpu = [1000.0 * sum(c.cpu_s for c in rep) / n for rep in reps]
    rss = [max(c.rss_mb for c in rep) for rep in reps]
    fail_ratio = outcome.failed / outcome.attempted
    metrics = {
        "setup_s": statistics.median(c.wall_s for c in setup),
        "examples_per_s": statistics.median(rate),
        "cpu_ms_per_example": statistics.median(cpu),
        "peak_rss_mb": statistics.median(rss),
        "pass_ratio": 1.0 - fail_ratio,
    }
    detail = {
        "setup_s": min_median_max([c.wall_s for c in setup]),
        "examples_per_s": min_median_max(rate),
        "cpu_ms_per_example": min_median_max(cpu),
        "peak_rss_mb": min_median_max(rss),
        "fail_ratio": fail_ratio,
        "command_wall_s": {" ".join(cmd[:1] + cmd[-1:]): statistics.median(
            rep[i].wall_s for rep in reps) for i, cmd in enumerate(workload.commands)},
    }
    return metrics, detail


def trace(name: str, workload: Workload, outcome: Outcome, workdir: Path,
          seconds: int, until: float) -> tuple[dict, dict]:
    """Traced run: per-layer metrics from in-process runs of the commands.

    The program runs on one thread here.  With two threads contending for
    the interpreter lock, a span's wall time would include waiting for the
    other thread and charge that wait to whichever layer the span is in.
    Thread effects show in the untraced end-to-end metrics instead.
    """
    import polyeval
    import polyeval.cli
    import tracing

    os.environ["POLYEVAL_THREADS"] = "1"
    # a command still running at the deadline is interrupted and fails
    signal.setitimer(signal.ITIMER_REAL, max(until - time.monotonic(), 0.01))

    def one_pass(tracer=None) -> float:
        """Run the commands once; a traced pass that reaches a bypassed
        layer fails."""
        start = time.perf_counter()
        codes = []
        for cmd in workload.commands:
            try:
                codes.append(tracer.run(polyeval.cli.run, list(cmd)) if tracer
                             else polyeval.cli.run(list(cmd)))
            except Exception as exc:  # a traceback is a failed command
                print(f"{cmd[0]}: {exc!r}", file=sys.stderr)
                codes.append(1)
        wall = time.perf_counter() - start
        reached = [layer for layer in BYPASSED[name]
                   if tracer and layer in tracer.layer_self_s()]
        outcome.record(codes, f"bypassed layers ran: {reached}" if reached else None)
        return wall

    untraced, traced, figures = [], [], []
    last = None
    while True:
        untraced.append(one_pass())
        with tracing.Tracer(polyeval) as tracer:
            traced.append(one_pass(tracer))
        figures.append(tracer.metrics())
        last = tracer
        pair = untraced[-1] + traced[-1]
        if sum(untraced) + sum(traced) + pair > seconds or time.monotonic() + 2 * pair > until:
            break
    signal.setitimer(signal.ITIMER_REAL, 0)
    metrics = {key: statistics.median(f[key] for f in figures) for key in figures[0]}
    reports = [p for p in workload.outputs if p.startswith("report_")]
    jsonl = [p for p in workload.outputs if p.endswith(".jsonl")]
    metrics["report.bytes"] = sum((workdir / p).stat().st_size for p in reports)
    metrics["dataio.records_written"] = sum(
        (workdir / p).read_bytes().count(b"\n") for p in jsonl)
    for key in ("assignment.unique_share", "textmetrics.text_repeat_share"):
        metrics[key] = outcome.properties.get(key, 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)

    layers = last.layer_self_s()
    total = sum(layers.values())
    ranking = [{"layer": layer, "self_s": round(s, 4), "share": round(s / total, 4)}
               for layer, s in sorted(layers.items(), key=lambda kv: -kv[1])]
    spans_path = RUNS / f"{name}.spans.jsonl"
    last.write(spans_path)
    detail = {
        "passes": len(traced),
        "untraced_wall_s": min_median_max(untraced),
        "traced_wall_s": min_median_max(traced),
        "layers_by_self_time": ranking,
        "bypassed_layers": BYPASSED[name],
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(last.spans),
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    until = time.monotonic() + BUDGET_S

    if not (SRC / "polyeval" / "__init__.py").is_file():
        print(f"error: no polyeval sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    for var in THREAD_VARS:
        os.environ[var] = str(CPUS)
    sys.path.insert(0, str(SRC))
    import gen
    import oracle

    workload = WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUNS))
    signal.signal(signal.SIGALRM, _alarm)
    cwd = os.getcwd()
    try:
        gen.GENERATORS[args.workload](workdir, args.seed, workload.examples)
        outcome = Outcome(workload, oracle.CHECKS[args.workload], workdir)
        if args.trace:
            os.chdir(workdir)  # the commands name their files relative to it
            metrics, detail = trace(args.workload, workload, outcome, workdir,
                                    args.seconds, until)
        else:
            metrics, detail = measure(workload, outcome, workdir, args.seconds, until)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "machine": machine(),
                      "inputs": outcome.properties}))
    print(json.dumps({"detail": detail, "output_sha256": outcome.first_digest,
                      "problems": outcome.problems[:10]}))
    for key, unit in units.items():
        print(f"  {key:32s} {metrics[key]:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'fail_ratio':32s} {detail['fail_ratio']:>14.6g} ratio")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: seeded inputs, the oracle and the tracer.

Run from the root of a checkout:  python3 -m pytest -q bench
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import polyeval  # noqa: E402
import polyeval.cli  # noqa: E402
import polyeval.scoring  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SMALL = 12
INPUT_FLAGS = ("--in", "--examples", "--generations", "--embeddings", "--clusters")


def _run_workload(name: str, workdir: Path, monkeypatch) -> None:
    gen.GENERATORS[name](workdir, 5, SMALL)
    monkeypatch.chdir(workdir)
    for argv in run.WORKLOADS[name].commands:
        assert polyeval.cli.run(list(argv)) == 0


def _edit_report(path: Path, edit) -> None:
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def _edit_jsonl(path: Path, edit) -> None:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(r) + "\n" for r in edit(records)))


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_inputs_depend_on_the_seed_alone(name, tmp_path):
    dirs = [tmp_path / str(i) for i in range(3)]
    for d, seed in zip(dirs, (1, 1, 2)):
        d.mkdir()
        gen.GENERATORS[name](d, seed, SMALL)
    digests = [run.digest(d, sorted(p.name for p in d.iterdir())) for d in dirs]
    assert digests[0] == digests[1] != digests[2]


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_oracle_accepts_the_program_outputs(name, tmp_path, monkeypatch):
    _run_workload(name, tmp_path, monkeypatch)
    check = oracle.CHECKS[name](tmp_path)
    assert check.failed == set(), check.problems
    assert check.properties["examples"] == SMALL


def test_oracle_rejects_a_tampered_eval_report(tmp_path, monkeypatch):
    _run_workload("eval_bleu", tmp_path, monkeypatch)
    victim = "b00003"

    def bump_score(report):
        row = next(r for r in report["per_example"] if r["example_id"] == victim)
        row["score"] = row["score"] * 1.001 + 1e-6

    _edit_report(tmp_path / "report_topk.json", bump_score)
    assert oracle.check_eval_bleu(tmp_path).failed == {victim}

    _edit_report(tmp_path / "report_top1.json",
                 lambda r: r["per_type"].update({k: v + 0.01 for k, v in r["per_type"].items()}))
    assert len(oracle.check_eval_bleu(tmp_path).failed) == SMALL


def test_oracle_reads_corpus_units_from_the_report(tmp_path, monkeypatch):
    _run_workload("eval_bleu", tmp_path, monkeypatch)
    path = tmp_path / "report_topk.json"
    report = json.loads(path.read_text())
    assert report["overall"] == pytest.approx(100 * report["raw"]["overall"])
    # the same figures reported unscaled, without a raw block, still pass
    for key in ("overall", "per_type", "macro"):
        report[key] = report["raw"][key]
    del report["raw"]
    path.write_text(json.dumps(report))
    assert oracle.check_eval_bleu(tmp_path).failed == set()


def test_oracle_rejects_a_tampered_generations_file(tmp_path, monkeypatch):
    _run_workload("decode_pipeline", tmp_path, monkeypatch)
    assert oracle.check_decode_pipeline(tmp_path).failed == set()
    # one record dropped, one duplicated, one with an empty output, one
    # with valid beams that are not the beams of the other examples
    _edit_jsonl(tmp_path / "g_poly.jsonl", lambda rs: rs[1:] + rs[-1:])

    def break_two(records):
        records[0]["runs"] = [[""]]
        records[3]["runs"][0][0] += " again"
        return records

    _edit_jsonl(tmp_path / "g_dbs.jsonl", break_two)
    failed = oracle.check_decode_pipeline(tmp_path).failed
    assert failed == {"d00000", "d00003", f"d{SMALL - 1:05d}"}


def test_oracle_rejects_wrong_clusters(tmp_path, monkeypatch):
    _run_workload("eval_embed_cluster", tmp_path, monkeypatch)

    def merge_first_two(records):
        groups = records[2]["clusters"]
        records[2]["clusters"] = [groups[0] + groups[1]] + groups[2:]
        return records

    _edit_jsonl(tmp_path / "clusters.jsonl", merge_first_two)
    assert "e00002" in oracle.check_eval_embed_cluster(tmp_path).failed


def test_agree_compares_nine_significant_digits():
    assert oracle.agree(0.123456789, 0.123456789)
    assert oracle.agree(0.1234567891, 0.123456789)
    assert not oracle.agree(0.123456789, 0.123456792)
    assert not oracle.agree(1.0, True)
    assert oracle.agree(0.0, 0)


def test_unique_optimum_detects_ties():
    import numpy as np
    assert oracle.optimum(np.array([[1.0, 0.0], [0.0, 1.0]])) == (2.0, True)
    assert oracle.optimum(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))[1] is False


@pytest.mark.parametrize("name,busy", [
    ("eval_bleu", ("textmetrics", "assignment")),
    ("eval_embed_cluster", ("textmetrics", "assignment", "diversity")),
    ("decode_pipeline", ("decode", "diversity")),
])
def test_tracer_times_layer_crossings_and_restores(name, busy, tmp_path,
                                                    monkeypatch):
    gen.GENERATORS[name](tmp_path, 5, SMALL)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("POLYEVAL_THREADS", "1")  # self times then add up to wall
    original = polyeval.scoring.score_matrix
    with tracing.Tracer(polyeval) as tracer:
        assert polyeval.scoring.score_matrix is not original
        for argv in run.WORKLOADS[name].commands:
            assert tracer.run(polyeval.cli.run, list(argv)) == 0
    assert polyeval.scoring.score_matrix is original
    assert polyeval.dataio.read_jsonl is polyeval.cli.read_jsonl
    assert polyeval.decode.NgramLM.logprobs.__name__ == "logprobs"
    assert not hasattr(polyeval.decode.NgramLM.logprobs, "__wrapped__")

    layers = tracer.layer_self_s()
    assert all(layers.get(layer, 0.0) > 0 for layer in busy)
    assert not set(run.BYPASSED[name]) & set(layers)
    assert min(tracer.self_times()) >= -1e-9
    # every record of every JSONL file the commands read is counted, also
    # those read inside dataio by load_embeddings and load_clusters
    inputs = [argv[i + 1] for argv in run.WORKLOADS[name].commands
              for i, flag in enumerate(argv) if flag in INPUT_FLAGS]
    assert tracer.items["dataio"] == sum(
        len((tmp_path / path).read_text().splitlines())
        for path in inputs if path.endswith(".jsonl"))
    roots = [s for s in tracer.spans if s[tracing.PARENT] is None]
    assert len(roots) == len(run.WORKLOADS[name].commands)
    wall = sum(s[tracing.END] - s[tracing.START] for s in roots)
    assert sum(layers.values()) == pytest.approx(wall, rel=1e-6)

    metrics = tracer.metrics()
    if name == "decode_pipeline":
        assert metrics["decode.lm_calls"] > metrics["decode.calls"] > 0
    else:
        assert metrics["assignment.cells"] < metrics["textmetrics.cells"]
        assert metrics["assignment.p99_us"] >= metrics["assignment.p50_us"] > 0


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval_bleu", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("bypassed,fails", [(None, False), (("decode",), True)])
def test_a_traced_pass_that_reaches_a_bypassed_layer_fails(bypassed, fails, tmp_path,
                                                            monkeypatch):
    name = "decode_pipeline"
    workdir = tmp_path / "work"
    workdir.mkdir()
    gen.GENERATORS[name](workdir, 5, SMALL)
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("POLYEVAL_THREADS", "1")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "RUNS", tmp_path)
    if bypassed:
        monkeypatch.setitem(run.BYPASSED, name, bypassed)
    workload = dataclasses.replace(run.WORKLOADS[name], examples=SMALL)
    outcome = run.Outcome(workload, oracle.CHECKS[name], workdir)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        _, detail = run.trace(name, workload, outcome, workdir, 1,
                              time.monotonic() + 120)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcome.failed == (detail["passes"] * SMALL if fails else 0)
    assert any("bypassed layers ran" in p for p in outcome.problems) is fails

"""Independent output oracle for the benchmark workloads.

Eval reports are recomputed from scratch: each example's score matrix is
rebuilt from the library's per-pair BLEU or from numpy cosine on vectors read
straight from the embeddings file, cluster max-pooled where the workload
clusters, and solved with scipy's linear_sum_assignment.  The assigned mean
is the optimum divided by min(m, n), so it does not depend on how the program
breaks ties.  Files written by normalize, decode and diversity are checked
through the public core and scoring validators; diverse beam search ignores
the example, so its beams must be the same for every example.

Each check returns the ids of the examples whose output it rejects, a few
messages saying why, and the input properties the workload's behaviour
depends on.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from polyeval.core import validate_example, validate_generation_set
from polyeval.errors import PolyevalError
from polyeval.scoring import validate_clustering
from polyeval.textmetrics import bleu

TIE_TOL = 1e-9  # the program's own tie tolerance for assignment optima
TAU = 0.8  # clustering threshold the eval_embed_cluster workload passes


@dataclass
class Check:
    examples: list[str]
    failed: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    properties: dict = field(default_factory=dict)

    def reject(self, example_ids, why: str) -> None:
        self.failed.update(example_ids)
        if len(self.problems) < 10:
            self.problems.append(why)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def agree(expected: float, reported) -> bool:
    """Equal at the report's 9 significant digits.

    One unit in the 9th digit is allowed, because the program may sum the
    same terms in another order and land on the other side of a rounding
    boundary.
    """
    if isinstance(reported, bool) or not isinstance(reported, (int, float)):
        return False
    scale = max(abs(expected), abs(reported))
    if scale == 0.0:
        return True
    return abs(expected - reported) <= 10.0 ** (math.floor(math.log10(scale)) - 8)


def optimum(matrix: np.ndarray) -> tuple[float, bool]:
    """Maximal assignment total and whether the optimal pair set is unique.

    Any other optimal assignment must omit one of the found pairs, so the
    optimum is unique exactly when forbidding each found pair in turn lowers
    the total by more than the tie tolerance.
    """
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    best = float(matrix[rows, cols].sum())
    for r, c in zip(rows, cols):
        forbidden = matrix.copy()
        forbidden[r, c] = -1e9
        r2, c2 = linear_sum_assignment(forbidden, maximize=True)
        if float(forbidden[r2, c2].sum()) >= best - TIE_TOL:
            return best, False
    return best, True


def repeat_share(matrix_texts: list[list[str]]) -> float:
    """Share of texts entering score matrices already seen earlier in the
    same command; one list of texts per matrix, in command order."""
    seen: set[str] = set()
    repeats = total = 0
    for texts in matrix_texts:
        for text in texts:
            repeats += text in seen
            total += 1
            seen.add(text)
    return repeats / total if total else 0.0


# --- eval reports ---------------------------------------------------------


def _corpus_figures(check: Check, report: dict, expected: dict, what: str) -> None:
    """Compare overall/per_type/macro, reading their units from the report.

    A report that scales its corpus figures carries the unscaled ones in a
    ``raw`` block; the scale is whatever the report applies, the same for
    every figure.
    """
    raw = report.get("raw")
    base = raw if isinstance(raw, dict) else report
    ok = agree(expected["overall"], base.get("overall")) and agree(
        expected["macro"], base.get("macro"))
    per_type = base.get("per_type")
    ok = ok and isinstance(per_type, dict) and set(per_type) == set(expected["per_type"])
    ok = ok and all(agree(v, per_type[k]) for k, v in expected["per_type"].items())
    if ok and base is raw:
        if not isinstance(report.get("overall"), (int, float)) or raw["overall"] == 0:
            ok = False
        else:
            factor = report["overall"] / raw["overall"]
            shown = report.get("per_type")
            ok = (agree(factor * raw["macro"], report.get("macro"))
                  and isinstance(shown, dict) and set(shown) == set(per_type)
                  and all(agree(factor * v, shown[k]) for k, v in per_type.items()))
    for key in ("n_examples", "n_references"):
        if key in expected and report.get(key) != expected[key]:
            ok = False
    if not ok:
        check.reject(check.examples, f"{what}: corpus figures disagree with the oracle")


def _per_example_rows(check: Check, report: dict, what: str) -> dict[str, dict]:
    rows = report.get("per_example")
    if not isinstance(rows, list):
        check.reject(check.examples, f"{what}: no per_example list")
        return {}
    ids = Counter(row.get("example_id") for row in rows if isinstance(row, dict))
    bad = {eid for eid, count in ids.items() if count > 1}
    bad |= set(check.examples) - set(ids)
    if bad or len(rows) != len(check.examples) or set(ids) - set(check.examples):
        check.reject(bad or check.examples, f"{what}: per_example does not list "
                                            "each example exactly once")
    return {row["example_id"]: row for row in rows if row.get("example_id") not in bad}


def _by_type(values: list[tuple[str, float, float]]) -> tuple[dict, float]:
    """Weighted per-type means of (type, numerator, weight) rows, and macro."""
    sums: dict[str, list[float]] = {}
    for itype, num, weight in values:
        acc = sums.setdefault(itype, [0.0, 0.0])
        acc[0] += num
        acc[1] += weight
    per_type = {t: num / w for t, (num, w) in sorted(sums.items())}
    return per_type, sum(per_type.values()) / len(per_type)


def check_set_report(check: Check, report: dict, examples: list[dict],
                     matrices: dict[str, np.ndarray], what: str) -> list[bool]:
    """Oracle for a top-k > 1 bipartite report with coverage cap on.

    ``matrices`` holds each example's (cluster-pooled) score matrix.  Returns
    whether each matrix has a unique optimum.
    """
    rows = _per_example_rows(check, report, what)
    unique = []
    contributions = []
    for ex in sorted(examples, key=lambda e: e["example_id"]):
        eid = ex["example_id"]
        matrix = matrices[eid]
        total, is_unique = optimum(matrix)
        unique.append(is_unique)
        n_outs, n_refs = matrix.shape
        score = total / min(n_outs, n_refs)
        cov = min(1.0, n_outs / n_refs)
        contribution = score * cov * n_refs
        contributions.append((ex["type"], contribution, n_refs))
        row = rows.get(eid)
        if row is None:
            continue
        if not (agree(score, row.get("score")) and agree(cov, row.get("coverage"))
                and agree(contribution, row.get("contribution"))
                and row.get("n_outs") == n_outs and row.get("n_refs") == n_refs):
            check.reject([eid], f"{what}: example {eid} disagrees with the oracle")
    per_type, macro = _by_type(contributions)
    expected = {
        "overall": sum(c for _, c, _ in contributions) / sum(n for _, _, n in contributions),
        "per_type": per_type,
        "macro": macro,
        "n_examples": len(examples),
        "n_references": sum(n for _, _, n in contributions),
    }
    _corpus_figures(check, report, expected, what)
    return unique


def check_top1_report(check: Check, report: dict, examples: list[dict],
                      matrices: dict[str, np.ndarray], what: str) -> None:
    """Oracle for a top-1 report with selection=maximum."""
    rows = _per_example_rows(check, report, what)
    values = []
    for ex in sorted(examples, key=lambda e: e["example_id"]):
        eid = ex["example_id"]
        best = float(matrices[eid].max())
        values.append((ex["type"], best, 1.0))
        row = rows.get(eid)
        if row is not None and not agree(best, row.get("score")):
            check.reject([eid], f"{what}: example {eid} disagrees with the oracle")
    per_type, macro = _by_type(values)
    expected = {"overall": sum(v for _, v, _ in values) / len(values),
                "per_type": per_type, "macro": macro, "n_examples": len(examples)}
    _corpus_figures(check, report, expected, what)


def _load_report(check: Check, path: Path, what: str) -> dict | None:
    try:
        return read_json(path)
    except (OSError, ValueError) as exc:
        check.reject(check.examples, f"{what}: unreadable report ({exc})")
        return None


def _outputs(generations: list[dict]) -> dict[str, list[str]]:
    return {g["example_id"]: g["runs"][0] for g in generations}


def _describe(check: Check, examples: list[dict], outputs: dict[str, list[str]],
              cells: int, unique: list[bool], matrix_texts: list[list[str]]) -> None:
    refs = [len(ex["references"]) for ex in examples]
    outs = [len(outputs[ex["example_id"]]) for ex in examples]
    check.properties.update({
        "examples": len(examples),
        "outputs_per_example": [min(outs), max(outs)],
        "references_per_example": [min(refs), max(refs)],
        "matrix_cells": cells,
        "assignment.unique_share": sum(unique) / len(unique),
        "textmetrics.text_repeat_share": repeat_share(matrix_texts),
    })


def check_eval_bleu(workdir: Path) -> Check:
    examples = read_jsonl(workdir / "examples.jsonl")
    outputs = _outputs(read_jsonl(workdir / "generations.jsonl"))
    check = Check([ex["example_id"] for ex in examples])
    matrices = {
        ex["example_id"]: np.array([[bleu(o, r) for r in ex["references"]]
                                    for o in outputs[ex["example_id"]]])
        for ex in examples
    }
    unique: list[bool] = []
    report = _load_report(check, workdir / "report_topk.json", "eval topk 10")
    if report is not None:
        unique = check_set_report(check, report, examples, matrices, "eval topk 10")
    report = _load_report(check, workdir / "report_top1.json", "eval top 1")
    if report is not None:
        check_top1_report(check, report, examples, matrices, "eval top 1")
    # both commands build the same matrices from the same texts, so each
    # command's repeat share is that of one pass
    texts = [outputs[ex["example_id"]] + ex["references"] for ex in examples]
    _describe(check, examples, outputs, 2 * sum(m.size for m in matrices.values()),
              unique, texts)
    return check


# --- eval_embed_cluster ---------------------------------------------------


def greedy_clusters(vectors: np.ndarray, tau: float) -> list[list[int]]:
    """Single-link greedy clustering of unit vectors, scanned in order."""
    clusters: list[list[int]] = []
    for i in range(len(vectors)):
        for group in clusters:
            if np.max(vectors[group] @ vectors[i]) >= tau:
                group.append(i)
                break
        else:
            clusters.append([i])
    return clusters


def check_eval_embed_cluster(workdir: Path) -> Check:
    examples = read_jsonl(workdir / "examples.jsonl")
    outputs = _outputs(read_jsonl(workdir / "generations.jsonl"))
    check = Check([ex["example_id"] for ex in examples])
    unit = {}
    for row in read_jsonl(workdir / "embeddings.jsonl"):
        vec = np.asarray(row["vector"], dtype=float)
        unit[row["text"]] = vec / np.linalg.norm(vec)

    written: dict[str, object] = {}
    try:
        for row in read_jsonl(workdir / "clusters.jsonl"):
            written.setdefault(row.get("example_id"), []).append(row.get("clusters"))
    except (OSError, ValueError) as exc:
        check.reject(check.examples, f"clusters file unreadable ({exc})")
    matrices, matrix_texts, cells, cluster_counts, unique_pcts = {}, [], 0, [], []
    words = n_outputs = 0
    for ex in examples:
        eid = ex["example_id"]
        outs = outputs[eid]
        out_vecs = np.stack([unit[t] for t in outs])
        ref_vecs = np.stack([unit[t] for t in ex["references"]])
        groups = greedy_clusters(out_vecs, TAU)
        cluster_counts.append(len(groups))
        unique_pcts.append(100.0 * sum(len(g) == 1 for g in groups) / len(outs))
        words += sum(len(t.split()) for t in outs)
        n_outputs += len(outs)
        got = written.get(eid, [])
        try:
            ok = len(got) == 1 and validate_clustering(got[0], len(outs), eid) == groups
        except (PolyevalError, TypeError):
            ok = False
        if not ok:
            check.reject([eid], f"clusters for {eid} are invalid or not the greedy "
                                f"tau={TAU} clustering")
        full = out_vecs @ ref_vecs.T
        cells += full.size
        matrices[eid] = np.stack([full[g].max(axis=0) for g in groups])
        matrix_texts.append(outs + ex["references"])
    if set(written) - set(check.examples):
        check.reject(check.examples, "clusters file names unknown examples")

    report = _load_report(check, workdir / "report_diversity.json", "diversity")
    if report is not None:
        rows = {r.get("example_id"): r.get("n_clusters")
                for r in report.get("per_example", []) if isinstance(r, dict)}
        for eid, count in zip(check.examples, cluster_counts):
            if rows.get(eid) != count:
                check.reject([eid], f"diversity: n_clusters for {eid} is wrong")
        expected = {
            "avg_clusters": sum(cluster_counts) / len(cluster_counts),
            "pct_unique": sum(unique_pcts) / len(unique_pcts),
            "avg_words": words / n_outputs,
        }
        if report.get("n_examples") != len(examples) or not all(
                agree(v, report.get(k)) for k, v in expected.items()):
            check.reject(check.examples, "diversity: summary disagrees with the oracle")

    unique: list[bool] = []
    report = _load_report(check, workdir / "report_eval.json", "eval embed clusters")
    if report is not None:
        unique = check_set_report(check, report, examples, matrices,
                                  "eval embed clusters")
    _describe(check, examples, outputs, cells, unique, matrix_texts)
    check.properties["clusters_per_example"] = [min(cluster_counts), max(cluster_counts)]
    return check


# --- decode_pipeline ------------------------------------------------------


def _check_generations(check: Check, path: Path, mode: str, max_runs: int,
                       same_runs: bool = False) -> None:
    """Every record validates, each example appears once, and with
    ``same_runs`` every record carries the runs most records carry."""
    seen: Counter[str] = Counter()
    try:
        records = read_jsonl(path)
    except (OSError, ValueError) as exc:
        check.reject(check.examples, f"{path.name}: unreadable ({exc})")
        return
    for record in records:
        eid = str(record.get("example_id"))
        seen[eid] += 1
        try:
            gen_set, dropped = validate_generation_set(record)
            ok = (dropped == 0 and gen_set.mode.value == mode
                  and len(gen_set.runs) <= max_runs)
        except PolyevalError:
            ok = False
        if not ok:
            check.reject([eid], f"{path.name}: record for {eid} is invalid")
    if same_runs and records:
        runs = [json.dumps(r.get("runs")) for r in records]
        common = Counter(runs).most_common(1)[0][0]
        odd = [str(r.get("example_id")) for r, key in zip(records, runs) if key != common]
        if odd:
            check.reject(odd, f"{path.name}: runs differ from the other examples' "
                              f"for {odd[:3]}")
    wrong = {eid for eid in check.examples if seen[eid] != 1}
    if wrong or set(seen) - set(check.examples):
        check.reject(wrong or check.examples,
                     f"{path.name}: examples missing, repeated or unknown")


def check_decode_pipeline(workdir: Path) -> Check:
    raw = read_jsonl(workdir / "raw.jsonl")
    check = Check([r["example_id"] for r in raw])
    n = len(raw)
    try:
        unified = read_jsonl(workdir / "unified.jsonl")
    except (OSError, ValueError) as exc:
        check.reject(check.examples, f"unified.jsonl unreadable ({exc})")
        unified = []
    if [u.get("example_id") for u in unified] != check.examples:
        check.reject(check.examples, "unified.jsonl does not hold each raw example "
                                     "once, in input order")
    types: Counter[str] = Counter()
    for record, source in zip(unified, raw):
        try:
            example = validate_example(record)
            ok = len(example.references) == len(source["inferences"])
            types[example.inference_type.value] += 1
        except PolyevalError:
            ok = False
        if not ok:
            check.reject([source["example_id"]], f"unified record "
                                                 f"{source['example_id']} is invalid")
    # diverse beam search does not read the example, so every example gets
    # the same beams
    _check_generations(check, workdir / "g_dbs.jsonl", "monomorphic_diverse_beam", 1,
                       same_runs=True)
    _check_generations(check, workdir / "g_poly.jsonl", "polymorphic", 3)

    expected_reports = {
        "report_normalize.json": lambda r: r.get("examples") == n and r.get("excluded") == 0,
        "report_dbs.json": lambda r: r.get("examples") == n,
        "report_poly.json": lambda r: r.get("examples") == n,
        "report_datastats.json": lambda r: r["overall"]["examples"] == n and {
            t: row["examples"] for t, row in r["per_type"].items()} == dict(types),
    }
    for name, valid in expected_reports.items():
        report = _load_report(check, workdir / name, name)
        try:
            ok = report is None or valid(report)
        except (KeyError, TypeError, AttributeError):
            ok = False
        if not ok:
            check.reject(check.examples, f"{name}: counts disagree with the inputs")
    refs = [len(r["inferences"]) for r in raw]
    check.properties.update({"examples": n, "references_per_example": [min(refs), max(refs)]})
    return check


CHECKS = {
    "eval_bleu": check_eval_bleu,
    "eval_embed_cluster": check_eval_embed_cluster,
    "decode_pipeline": check_decode_pipeline,
}

"""Command-line interface: normalize, eval, diversity, datastats, stats,
and decode subcommands, all emitting machine-readable JSON reports.

Exit codes: 0 success, 1 validation error (bad input data), 2 I/O error.
Every report echoes the effective configuration (defaults made explicit) and
is byte-identical across reruns with the same inputs and seeds.  A command
returns only its body, warnings and outputs; ``run`` assembles the report,
and its ``config`` is every parsed flag but ``--report``, so the parser is
the one place a flag is stated.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys
from collections import Counter

from . import __version__
from .core import (
    EvalConfig,
    GenerationMode,
    example_to_record,
    get_field,
    make_generation_set,
    validate_example,
    validate_generation_set,
)
from .dataio import (
    RAW_SOURCES,
    float_array,
    jsonl_text,
    load_clusters,
    load_embeddings,
    load_keyed,
    normalize,
    read_jsonl,  # noqa: F401  kept importable as polyeval.cli.read_jsonl
    validate_raw_record,
    write_files,
)
from .decode import (
    BeamConfig,
    beam_search,
    diverse_beam_search,
    load_ngram_lm,
    pack_runs,
    sample_many,
)
from .diversity import bcubed, cluster_greedy, diversity_report, ngram_uniqueness
from .errors import (
    ExcludedType,
    PolyevalError,
    ValidationError,
)
from .report import render_report
from .scoring import corpus_score
from .stats import (
    AnnotationTable,
    binarize,
    chi_square_proportions,
    cohen_kappa,
    gwet_ac1,
    check_alpha,
    paired_t_bonferroni,
    resolve_and_repeat,
)
from .textmetrics import load_external_scores, make_metric

BLEU_NOTES = (
    "sentence-level; lowercased whitespace tokens; n=1..4 uniform weights; "
    "add-one smoothing for zero precisions at n>=2; brevity penalty "
    "exp(min(0, 1-|r|/|c|)); reported x100, raw values in [0,1]"
)


def _stable_salt(example_id: str) -> int:
    return int.from_bytes(hashlib.sha256(example_id.encode("utf-8")).digest()[:8], "big")


def _load_examples(path: str) -> list:
    def parse(record: dict) -> tuple:
        example = validate_example(record)
        return example.example_id, example

    return list(load_keyed(path, parse, "example").values())


def _load_generations(path: str) -> tuple[dict, int]:
    """Generation sets by example_id, and the duplicate outputs dropped."""
    def parse(record: dict) -> tuple:
        gen_set, dropped = validate_generation_set(record)
        return gen_set.example_id, (gen_set, dropped)

    loaded = load_keyed(path, parse, "example")
    return ({eid: gen_set for eid, (gen_set, _) in loaded.items()},
            sum(dropped for _, dropped in loaded.values()))


# --- normalize --------------------------------------------------------------


def _cmd_normalize(args) -> tuple:
    def parse(raw: dict) -> tuple:
        # an excluded type is kept as None, so its id still counts as taken
        record = validate_raw_record(raw, default_source=args.source)
        try:
            return record.example_id, normalize(record, seed=args.seed)
        except ExcludedType:
            return record.example_id, None

    examples = list(load_keyed(args.infile, parse, "example").values())
    records = [example_to_record(e) for e in examples if e is not None]
    by_type = Counter(e.inference_type.value for e in examples if e is not None)
    body = {
        "examples": len(records),
        "excluded": len(examples) - len(records),
        "by_type": dict(sorted(by_type.items())),
    }
    return body, [], {args.out: records}


# --- eval -------------------------------------------------------------------


def _scale_bleu(body: dict) -> dict:
    raw = {
        "overall": body["overall"],
        "per_type": dict(body["per_type"]),
        "macro": body["macro"],
    }
    body["overall"] = body["overall"] * 100.0
    body["per_type"] = {k: v * 100.0 for k, v in body["per_type"].items()}
    body["macro"] = body["macro"] * 100.0
    body["raw"] = raw
    return body


def _cmd_eval(args) -> tuple:
    if args.clusters is not None and args.topk <= 1:
        raise ValidationError("--clusters needs --topk > 1")
    if args.external_scores is not None and args.metric != "external":
        raise ValidationError("--external-scores needs --metric external")
    if args.embeddings is not None and args.metric != "embed":
        raise ValidationError("--embeddings needs --metric embed")
    examples = _load_examples(args.examples)
    generations, dropped = _load_generations(args.generations)

    embeddings = load_embeddings(args.embeddings) if args.embeddings else None
    external = load_external_scores(args.external_scores) if args.external_scores else None
    clusters = load_clusters(args.clusters) if args.clusters is not None else None

    if args.metric == "external":
        if external is None:
            raise ValidationError("--metric external requires --external-scores")
        metric = None
    else:
        metric = make_metric(args.metric, embeddings)

    config = EvalConfig(
        top_k=args.topk,
        selection=args.selection,
        matching=args.matching,
        coverage_cap=args.coverage_cap,
        seed=args.seed,
    )

    warnings = []
    if dropped:
        warnings.append(f"dropped_duplicate_outputs:{dropped}")
    orphans = len(set(generations) - {example.example_id for example in examples})
    if orphans:
        warnings.append(f"orphan_generations:{orphans}")

    result = corpus_score(
        examples, generations, config, metric, clusters=clusters, external=external
    )
    per_example = [
        {"example_id": s.example_id, "score": s.score} for s in result.example_scores
    ]
    body = {
        "overall": result.overall,
        "per_type": result.per_type,
        "macro": result.macro,
        "n_examples": result.n_examples,
        "per_example": per_example,
    }
    if config.top_k > 1:
        body["n_references"] = result.n_references
        for row, s in zip(per_example, result.example_scores):
            row.update(coverage=s.coverage, n_outs=s.n_outs, n_refs=s.n_refs,
                       contribution=s.contribution)
    if args.metric == "bleu":
        body = _scale_bleu(body)
        body["metric_notes"] = BLEU_NOTES
    return body, warnings, {}


# --- diversity ---------------------------------------------------------------


def _cmd_diversity(args) -> tuple:
    if args.topk < 0:
        raise ValidationError(f"--topk must be >= 0, got {args.topk}")
    if not 0.0 < args.tau < 1.0:
        raise ValidationError(f"--tau must be in (0, 1), got {args.tau}")
    generations, dropped = _load_generations(args.generations)
    embeddings = load_embeddings(args.embeddings) if args.embeddings else None
    gold = load_clusters(args.gold_clusters) if args.gold_clusters else None

    outputs_by_example = {}
    for example_id in sorted(generations):
        outputs = list(generations[example_id].runs[0])
        if args.topk:
            outputs = outputs[: args.topk]
        outputs_by_example[example_id] = outputs
    if gold is not None:
        for example_id in outputs_by_example:
            if example_id not in gold:
                raise ValidationError(
                    f"{args.gold_clusters}: no gold clustering for example {example_id!r}"
                )

    if embeddings is not None:
        clusterings = {
            eid: cluster_greedy(outs, embeddings, tau=args.tau, example_id=eid)
            for eid, outs in outputs_by_example.items()
        }
    elif gold is not None:
        clusterings = {eid: gold[eid] for eid in outputs_by_example}
    else:
        raise ValidationError("diversity needs --embeddings or --gold-clusters")

    summary = diversity_report(outputs_by_example, clusterings)
    body = {
        "avg_clusters": summary.avg_clusters,
        "pct_unique": summary.pct_unique,
        "avg_words": summary.avg_words,
        "n_examples": summary.n_examples,
        "per_example": [
            {"example_id": eid, "n_clusters": len(clusterings[eid])}
            for eid in sorted(clusterings)
        ],
    }
    if gold is not None and embeddings is not None:
        rows = []
        for eid in sorted(outputs_by_example):
            p, r, f1 = bcubed(clusterings[eid], gold[eid])
            rows.append((p, r, f1))
        body["bcubed"] = {
            "precision": sum(p for p, _, _ in rows) / len(rows),
            "recall": sum(r for _, r, _ in rows) / len(rows),
            "f1": sum(f for _, _, f in rows) / len(rows),
        }
    warnings = []
    if dropped:
        warnings.append(f"dropped_duplicate_outputs:{dropped}")
    clusters = [{"example_id": eid, "clusters": [list(g) for g in clusterings[eid]]}
                for eid in sorted(clusterings)]
    return body, warnings, {args.out_clusters: clusters} if args.out_clusters else {}


# --- datastats ----------------------------------------------------------------


def _cmd_datastats(args) -> tuple:
    examples = _load_examples(args.examples)
    table = ngram_uniqueness(examples)
    overall = table.pop("_overall")
    return {"per_type": table, "overall": overall}, [], {}


# --- stats ---------------------------------------------------------------------


def _load_annotations(path: str) -> dict:
    """rows[(task, system)][item_id] -> {annotator: label}"""
    def parse(record: dict) -> tuple:
        key = tuple(get_field(record, f, str) for f in ("task", "system", "item_id", "annotator"))
        return key, get_field(record, "label", str)

    labels = load_keyed(path, parse, "annotation")
    if not labels:
        raise ValidationError(f"{path}: no annotation rows")
    rows: dict = {}
    for (task, system, item_id, annotator), label in labels.items():
        rows.setdefault((task, system), {}).setdefault(item_id, {})[annotator] = label
    return rows


def _paired_items(items: dict) -> AnnotationTable:
    table = []
    for item_id in sorted(items):
        labels = items[item_id]
        if set(labels) != {"A", "B"}:
            raise ValidationError(
                f"item {item_id!r} needs exactly annotators A and B, has {sorted(labels)}"
            )
        table.append((item_id, labels["A"], labels["B"]))
    return AnnotationTable(tuple(table))


def _cmd_stats_agree(args) -> tuple:
    rows = _load_annotations(args.infile)
    body: dict = {}
    for task in sorted({task for task, _ in rows}):
        task_items: dict = {}
        for (t, system), items in rows.items():
            if t != task:
                continue
            for item_id, labels in items.items():
                task_items[f"{system}:{item_id}"] = labels
        pairs = [(a, b) for _, a, b in binarize(_paired_items(task_items))]
        body[task] = {
            "ac1": gwet_ac1(pairs),
            "kappa": cohen_kappa(pairs),
            "n_items": len(pairs),
        }
    return {"tasks": body}, [], {}


def _cmd_stats_mcnemar(args) -> tuple:
    rows = _load_annotations(args.infile)
    body: dict = {}
    for task in sorted({task for task, _ in rows}):
        try:
            x_items = rows[(task, "X")]
            y_items = rows[(task, "Y")]
        except KeyError:
            raise ValidationError(
                f"task {task!r} needs annotations for both systems X and Y"
            ) from None
        shared = sorted(set(x_items) & set(y_items))
        if not shared:
            raise ValidationError(f"task {task!r} has no items shared by X and Y")
        x_table = binarize(
            _paired_items({item_id: x_items[item_id] for item_id in shared})
        )
        y_table = binarize(
            _paired_items({item_id: y_items[item_id] for item_id in shared})
        )
        result = resolve_and_repeat(
            [(a, b) for _, a, b in x_table],
            [(a, b) for _, a, b in y_table],
            repeats=args.repeats,
            seed=args.seed,
            alpha=args.alpha,
        )
        body[task] = {
            "mean_rate_x": result.mean_rate_x,
            "mean_rate_y": result.mean_rate_y,
            "mean_discordance": result.mean_discordance,
            "significant": result.significant,
            "repeats": result.repeats,
            "alpha": result.alpha,
            "p_max": max(result.p_values),
            "p_min": min(result.p_values),
            "n_items": len(shared),
        }
    return {"tasks": body}, [], {}


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"{flag} must be a comma-separated integer list") from None


def _cmd_stats_prop(args) -> tuple:
    check_alpha(args.alpha)
    args.successes = _parse_int_list(args.successes, "--successes")
    args.trials = _parse_int_list(args.trials, "--trials")
    statistic, p_value = chi_square_proportions(args.successes, args.trials)
    body = {
        "statistic": statistic,
        "p_value": p_value,
        "df": len(args.trials) - 1,
        "significant": p_value < args.alpha,
    }
    return body, [], {}


def _cmd_stats_ttest(args) -> tuple:
    check_alpha(args.alpha)

    def parse(record: dict) -> tuple:
        return get_field(record, "name", str), float_array(record.get("values"), 1, "values")

    vectors = load_keyed(args.scores, parse, "name")
    results = paired_t_bonferroni(vectors, m=args.m)
    body = {
        "m": args.m if args.m is not None else len(results),
        "pairs": [
            {
                "x": r.name_x,
                "y": r.name_y,
                "t": r.t,
                "p_value": r.p_value,
                "p_adjusted": r.p_adjusted,
                "significant": r.p_adjusted < args.alpha,
            }
            for r in results
        ],
    }
    return body, [], {}


# --- decode -----------------------------------------------------------------


def _cmd_decode(args) -> tuple:
    # checked for every strategy, also where the strategy ignores the flag
    if args.seed < 0:
        raise ValidationError("seed must be >= 0")
    if args.runs < 1:
        raise ValidationError("need at least one run")
    for flag, value in (("--beams", args.beams), ("--groups", args.groups)):
        if value < 1:
            raise ValidationError(f"{flag} must be >= 1, got {value}")
    for flag, value in (("--penalty", args.penalty), ("--temperature", args.temperature)):
        if not 0 <= value < math.inf:
            raise ValidationError(f"{flag} must be >= 0 and finite, got {value}")
    poly = args.strategy == "poly"
    dbs = args.strategy == "dbs"
    if args.rep_penalty is None:
        args.rep_penalty = 5.0 if poly else 1.0
    lm = load_ngram_lm(args.lm)
    examples = _load_examples(args.examples)

    sequences = None
    if not poly or args.poly_from_beams:
        config = BeamConfig(
            beams=max(args.beams, args.runs) if poly else args.beams,
            groups=args.groups if dbs else 1,
            diversity_penalty=args.penalty if dbs else 0.0,
            repetition_penalty=args.rep_penalty,
            max_len=args.max_len,
        )
        # the scorer sees only the prefix, never the example, so one search
        # serves every example
        sequences = (
            diverse_beam_search(lm, config) if dbs
            else beam_search(lm, config, k=args.runs if poly else None)
        )

    if poly and sequences is None:
        samples = sample_many(
            lm,
            [_stable_salt(example.example_id) for example in examples],
            runs=args.runs,
            temperature=args.temperature,
            seed=args.seed,
            max_len=args.max_len,
            repetition_penalty=args.rep_penalty,
        )
        packed = (pack_runs(example.example_id, drawn)
                  for example, drawn in zip(examples, samples))
    elif not examples:
        packed = []
    elif poly:
        # one search serves every example, so one set does; the first
        # example's id names it in an error
        packed = [pack_runs(examples[0].example_id, sequences)] * len(examples)
    else:
        gen_set, dropped = make_generation_set(
            examples[0].example_id,
            GenerationMode.MONOMORPHIC_DIVERSE_BEAM if dbs
            else GenerationMode.MONOMORPHIC_BEAM,
            [[s.text for s in sequences]],
        )
        warnings = ["max_len_without_end" for s in sequences if not s.finished]
        warnings += ["dropped_duplicates"] * dropped
        packed = [(gen_set, warnings)] * len(examples)
    records = []
    warning_counts: Counter[str] = Counter()
    if not poly:
        # beam and DBS reports count force-terminated beams even when none were
        warning_counts["max_len_without_end"] = 0
    for example, (gen_set, warnings) in zip(examples, packed):
        warning_counts.update(warnings)
        records.append(
            {
                "example_id": example.example_id,
                "mode": gen_set.mode.value,
                "runs": [list(run) for run in gen_set.runs],
            }
        )
    warnings = [f"{name}:{count}" for name, count in warning_counts.items()]
    return {"examples": len(records)}, warnings, {args.out: records}


# --- parser -----------------------------------------------------------------

# Upper bounds of the flags that count loop iterations, far above the
# paper's settings (100 repeats, 3 runs, 10 beams, 32 tokens), so that no
# value makes a command loop without end; ``run`` checks them.
LOOP_LIMITS = {"--repeats": 100_000, "--runs": 1_000, "--beams": 1_000, "--max-len": 1_000}


def _at_most(flag: str) -> str:
    return f"at most {LOOP_LIMITS[flag]:,}"


def _maximum(name: str) -> str:
    """``max`` is short for ``maximum``."""
    return "maximum" if name == "max" else name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyeval",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "normalize",
        help="convert raw source records to the unified example format",
        description=(
            "Raw JSONL: {example_id, source?, utterances: [{speaker, text}], "
            "type_label, inferences: [...]}. Output JSONL: {example_id, "
            "dialogue: [{speaker, text}], type, question, answer_prefix, "
            "references}."
        ),
    )
    p.add_argument("--in", dest="infile", required=True, help="raw records (JSONL)")
    p.add_argument("--source", required=True, choices=RAW_SOURCES)
    p.add_argument("--out", required=True, help="unified examples (JSONL)")
    p.add_argument("--seed", type=int, default=0, help="seed for A/B tag assignment")
    p.add_argument("--report", default=None, help="report path (default: stdout)")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser(
        "eval",
        help="score generations against reference sets",
        description=(
            "Generations JSONL: {example_id, mode, runs: [[...], ...]}. "
            "External scores JSONL: {example_id, scores: [[...], ...]} "
            "(outputs x references, row-major). Clusters JSONL: {example_id, "
            "clusters: [[output_index, ...], ...]}."
        ),
    )
    p.add_argument("--examples", required=True)
    p.add_argument("--generations", required=True)
    p.add_argument("--metric", default="bleu", choices=("bleu", "embed", "external"))
    p.add_argument("--topk", type=int, default=1)
    p.add_argument("--selection", default="maximum", type=_maximum,
                   choices=("maximum", "order"), help="max is short for maximum")
    p.add_argument("--matching", default="bipartite", type=_maximum,
                   choices=("bipartite", "maximum"), help="max is short for maximum")
    p.add_argument("--clusters", default=None, help="cluster-constrained evaluation")
    p.add_argument("--no-coverage-cap", dest="coverage_cap", action="store_false")
    p.add_argument("--embeddings", default=None)
    p.add_argument("--external-scores", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("diversity", help="cluster outputs and measure diversity")
    p.add_argument("--generations", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--tau", type=float, default=0.8)
    p.add_argument("--topk", type=int, default=0, help="truncate outputs (0 = all)")
    p.add_argument("--gold-clusters", default=None)
    p.add_argument("--out-clusters", default=None, help="write predicted clusters")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_diversity)

    p = sub.add_parser("datastats", help="corpus n-gram uniqueness statistics")
    p.add_argument("--examples", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_datastats)

    p = sub.add_parser(
        "stats",
        help="annotation agreement and significance tests",
        description=(
            "Annotations JSONL: {item_id, task: reasonability|novelty, "
            "system: X|Y, annotator: A|B, label}."
        ),
    )
    stats_sub = p.add_subparsers(dest="stats_command", required=True)

    q = stats_sub.add_parser("agree", help="Gwet AC1 and Cohen's kappa per task")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--report", default=None)
    q.set_defaults(func=_cmd_stats_agree)

    q = stats_sub.add_parser(
        "mcnemar", help="matched-pairs test with random disagreement resolution"
    )
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--repeats", type=int, default=100, help=_at_most("--repeats"))
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--alpha", type=float, default=0.05)
    q.add_argument("--report", default=None)
    q.set_defaults(func=_cmd_stats_mcnemar)

    q = stats_sub.add_parser("prop", help="pooled chi-square proportions test")
    q.add_argument("--successes", required=True, help="comma list, e.g. 93,75")
    q.add_argument("--trials", required=True, help="comma list, e.g. 100,100")
    q.add_argument("--alpha", type=float, default=0.05)
    q.add_argument("--report", default=None)
    q.set_defaults(func=_cmd_stats_prop)

    q = stats_sub.add_parser(
        "ttest", help="Bonferroni-corrected paired t-tests over score vectors"
    )
    q.add_argument(
        "--scores", required=True, help="JSONL rows {name, values: [...]}"
    )
    q.add_argument("--m", type=int, default=None, help="comparisons (default: #pairs)")
    q.add_argument("--alpha", type=float, default=0.05)
    q.add_argument("--report", default=None)
    q.set_defaults(func=_cmd_stats_ttest)

    p = sub.add_parser(
        "decode",
        help="generate outputs from a toy LM config",
        description=(
            "LM config JSON: {order, vocab, end_token, cond: [{context: "
            "[...], probs: {token: p}}, ...]}."
        ),
    )
    p.add_argument("--lm", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--strategy", required=True, choices=("beam", "dbs", "poly"))
    p.add_argument("--beams", type=int, default=10, help=_at_most("--beams"))
    p.add_argument("--groups", type=int, default=10)
    p.add_argument("--penalty", type=float, default=0.5)
    p.add_argument(
        "--rep-penalty", type=float, default=None,
        help="repetition penalty (default 1.0; 5.0 for poly)",
    )
    p.add_argument("--runs", type=int, default=3, help=_at_most("--runs"))
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--max-len", type=int, default=32, help=_at_most("--max-len"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--poly-from-beams", action="store_true",
        help="derive polymorphic runs from top beams instead of sampling",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_decode)

    return parser


# parsed values that are not flags of the subcommand
_NOT_FLAGS = ("command", "stats_command", "func", "report")


def run(argv: list[str]) -> int:
    """Run one subcommand.  Its JSONL outputs and report are rendered in full
    before any file is opened, then written all or none; a report without
    ``--report`` goes to stdout last."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag, limit in LOOP_LIMITS.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None and value > limit:
                raise ValidationError(f"{flag} must be <= {limit}, got {value}")
        body, warnings, outputs = args.func(args)
        report = {
            "tool": (f"stats.{args.stats_command}" if args.command == "stats"
                     else args.command),
            "version": __version__,
            "config": {("in" if name == "infile" else name): value
                       for name, value in vars(args).items() if name not in _NOT_FLAGS},
            "warnings": sorted(warnings),
            **body,
        }
        texts = {path: jsonl_text(records) for path, records in outputs.items()}
        report_text = render_report(report)
        if args.report is not None:
            texts[args.report] = report_text
        write_files(texts)
        if args.report is None:
            sys.stdout.write(report_text)
        return 0
    except PolyevalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))

"""Command-line interface: normalize, eval, diversity, datastats, stats,
and decode subcommands, all emitting machine-readable JSON reports.

Exit codes: 0 success, 1 validation error (bad input data), 2 I/O error.
Every report echoes the effective configuration (defaults made explicit) and
is byte-identical across reruns with the same inputs and seeds.  A command
returns only its body, warnings and outputs; ``run`` assembles the report,
and its ``config`` is every parsed flag but ``--report``, so the parser is
the one place a flag is stated.  ``RANGES`` is the one place a numeric
flag's accepted range is stated: ``run`` checks it before the command reads
any file, and it is the flag's ``--help`` text.  ``core.FORMATS`` states
each input file's format, shown by the ``--help`` of each subcommand.

Every subcommand uses ``core``, ``dataio``, ``errors`` and ``report``, which
load with this module.  ``IMPORTS`` names what each subcommand takes from the
other layers; ``run`` loads the running subcommand's names, through this
module's ``__getattr__``, just before it calls the subcommand, so
``normalize`` never loads ``decode``.  For every name of ``IMPORTS``,
``getattr(polyeval.cli, name)`` is the layer's own object: that is how
``bench/tracing.py`` finds the names to wrap in this namespace, and ``run``
keeps a name that is already set.
"""
from __future__ import annotations

import argparse
import importlib
import sys
from collections import Counter

from . import __version__
from .core import (
    FORMATS,
    EvalConfig,
    GenerationMode,
    check_shape,
    describe,
    example_to_record,
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
from .errors import PolyevalError, ValidationError
from .report import render_report

# by subcommand, the layers it uses beyond those above and the names it
# takes from each
IMPORTS = {
    "eval": {"scoring": ("corpus_score",),
             "textmetrics": ("load_external_scores", "make_metric")},
    "diversity": {"diversity": ("bcubed", "cluster_greedy", "diversity_report")},
    "datastats": {"diversity": ("ngram_uniqueness",)},
    "stats agree": {"stats": ("LABEL_SETS", "binarize", "cohen_kappa", "gwet_ac1")},
    "stats mcnemar": {"stats": ("LABEL_SETS", "binarize", "resolve_and_repeat")},
    "stats prop": {"stats": ("chi_square_proportions",)},
    "stats ttest": {"stats": ("paired_t_bonferroni",)},
    "decode": {"decode": ("BeamConfig", "diverse_beam_search", "load_ngram_lm",
                          "pack_runs", "sample_many")},
}
_LAYER_OF = {name: layer for layers in IMPORTS.values()
             for layer, names in layers.items() for name in names}


def __getattr__(name: str):
    """A name of ``IMPORTS``, imported from its layer on first use and kept
    in this module's globals (PEP 562)."""
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer = importlib.import_module(f".{_LAYER_OF[name]}", __package__)
    value = globals()[name] = getattr(layer, name)
    return value


BLEU_NOTES = (
    "sentence-level; lowercased whitespace tokens; n=1..4 uniform weights; "
    "add-one smoothing for zero precisions at n>=2; brevity penalty "
    "exp(min(0, 1-|r|/|c|)); reported x100, raw values in [0,1]"
)


def _stable_salt(example_id: str) -> int:
    import hashlib

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
        return record.example_id, normalize(record, seed=args.seed)

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
    if args.metric == "embed" and args.embeddings is None:
        raise ValidationError("--metric embed requires --embeddings")
    if args.metric == "external" and args.external_scores is None:
        raise ValidationError("--metric external requires --external-scores")
    examples = _load_examples(args.examples)
    generations, dropped = _load_generations(args.generations)

    embeddings = load_embeddings(args.embeddings) if args.embeddings is not None else None
    external = (load_external_scores(args.external_scores)
                if args.external_scores is not None else None)
    clusters = load_clusters(args.clusters) if args.clusters is not None else None
    metric = None if args.metric == "external" else make_metric(args.metric, embeddings)

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
    if args.embeddings is None and args.gold_clusters is None:
        raise ValidationError("diversity needs --embeddings or --gold-clusters")
    generations, dropped = _load_generations(args.generations)
    embeddings = load_embeddings(args.embeddings) if args.embeddings is not None else None
    gold = load_clusters(args.gold_clusters) if args.gold_clusters is not None else None

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
    else:
        clusterings = {eid: gold[eid] for eid in outputs_by_example}

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
        rows = [bcubed(clusterings[eid], gold[eid]) for eid in sorted(outputs_by_example)]
        body["bcubed"] = {name: sum(row[i] for row in rows) / len(rows)
                          for i, name in enumerate(("precision", "recall", "f1"))}
    warnings = []
    if dropped:
        warnings.append(f"dropped_duplicate_outputs:{dropped}")
    clusters = [{"example_id": eid, "clusters": [list(g) for g in clusterings[eid]]}
                for eid in sorted(clusterings)]
    return body, warnings, ({args.out_clusters: clusters}
                            if args.out_clusters is not None else {})


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
        check_shape(record, FORMATS["annotations"])
        task, label = record["task"], record["label"]
        if label not in LABEL_SETS[task]:
            raise ValidationError(f"label {label!r} is not a {task} label")
        return (task, record["system"], record["item_id"], record["annotator"]), label

    labels = load_keyed(path, parse, "annotation")
    if not labels:
        raise ValidationError(f"{path}: no annotation rows")
    rows: dict = {}
    for (task, system, item_id, annotator), label in labels.items():
        rows.setdefault((task, system), {}).setdefault(item_id, {})[annotator] = label
    return rows


def _paired_items(items: dict) -> list[tuple[str, str, str]]:
    table = []
    for item_id in sorted(items):
        labels = items[item_id]
        if set(labels) != {"A", "B"}:
            raise ValidationError(
                f"item {item_id!r} needs exactly annotators A and B, has {sorted(labels)}"
            )
        table.append((item_id, labels["A"], labels["B"]))
    return table


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
        x_side, y_side = (
            [(a, b) for _, a, b in binarize(_paired_items({i: items[i] for i in shared}))]
            for items in (x_items, y_items))
        result = resolve_and_repeat(
            x_side, y_side, repeats=args.repeats, seed=args.seed, alpha=args.alpha)
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
    def parse(record: dict) -> tuple:
        check_shape(record, FORMATS["ttest_scores"])
        return record["name"], float_array(record["values"], "values")

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
    poly = args.strategy == "poly"
    dbs = args.strategy == "dbs"
    if args.rep_penalty is None:
        args.rep_penalty = 5.0 if poly else 1.0
    # beam and poly-from-beams are the one-group case of diverse beam search
    config = BeamConfig(
        beams=max(args.beams, args.runs) if poly else args.beams,
        groups=args.groups if dbs else 1,
        diversity_penalty=args.penalty if dbs else 0.0,
        repetition_penalty=args.rep_penalty,
        max_len=args.max_len,
    ) if not poly or args.poly_from_beams else None
    lm = load_ngram_lm(args.lm)
    examples = _load_examples(args.examples)

    if config is not None:
        # the scorer sees only the prefix, never the example, so one search
        # and one set serve every example; the first example's id names the
        # set in an error
        sequences = diverse_beam_search(lm, config)[: args.runs if poly else None]
        mode = (GenerationMode.POLYMORPHIC if poly else GenerationMode.MONOMORPHIC_DIVERSE_BEAM
                if dbs else GenerationMode.MONOMORPHIC_BEAM)
        packed = ([pack_runs(examples[0].example_id, sequences, mode=mode)] * len(examples)
                  if examples else [])
    else:
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

# The accepted interval of every int and float flag, by subcommand: ``run``
# checks it before the command reads any file, also where the command
# ignores the flag, and it ends the flag's help.  The loop counts are bounded
# far above the paper's settings (100 repeats, 3 runs, 10 beams, 32 tokens),
# so that no value makes a command loop without end, and --m stops at 1e308,
# so that a p-value times --m is a float.  A flag left at None
# (--rep-penalty, --m) is not checked.
RANGES = {
    "normalize": {"--seed": "(-inf, inf)"},
    "eval": {"--topk": "[1, inf)", "--seed": f"[0, {2**64 - 1}]"},
    "diversity": {"--tau": "(0, 1)", "--topk": "[0, inf)"},
    "stats mcnemar": {"--repeats": "[1, 100000]", "--seed": "[0, inf)", "--alpha": "(0, 1)"},
    "stats prop": {"--alpha": "(0, 1)"},
    "stats ttest": {"--m": "[1, 1e308]", "--alpha": "(0, 1)"},
    "decode": {"--beams": "[1, 1000]", "--groups": "[1, inf)", "--penalty": "[0, inf)",
               "--rep-penalty": "[1, inf)", "--runs": "[1, 1000]",
               "--temperature": "[0, inf)", "--max-len": "[1, 1000]", "--seed": "[0, inf)"},
}


def _inside(interval: str, value) -> bool:
    """Whether ``value`` lies in ``interval``, such as "[1, 1000]" or "(0, 1)".
    NaN lies in none, and an integer end is compared as an integer."""
    low, high = (int(end) if end.lstrip("-").isdigit() else float(end)
                 for end in interval[1:-1].split(", "))
    return (low < value if interval[0] == "(" else low <= value) and (
        value < high if interval[-1] == ")" else value <= high)


def _number(parser: argparse.ArgumentParser, flag: str, kind: type, default,
            help: str | None = None) -> None:
    """Add a numeric flag; its ``RANGES`` interval, keyed by the subcommand
    words of ``parser.prog``, ends its help."""
    interval = RANGES[parser.prog.partition(" ")[2]][flag]
    parser.add_argument(flag, type=kind, default=default,
                        help=f"{help}; in {interval}" if help else f"in {interval}")


def _maximum(name: str) -> str:
    """``max`` is short for ``maximum``."""
    return "maximum" if name == "max" else name


def _file(parser: argparse.ArgumentParser, flag: str, fmt: str, help: str,
          **kwargs) -> None:
    """Add a file flag of the ``FORMATS`` format ``fmt``, shown by --help."""
    parser.add_argument(flag, help=help, **kwargs)
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.epilog = (f"{parser.epilog or 'input formats:'}\n  {flag} ({fmt}):\n"
                     f"{describe(FORMATS[fmt])}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyeval",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    examples = "unified examples (JSONL)"
    generations = ("generation sets (JSONL); mode is one of "
                   + ", ".join(m.value for m in GenerationMode))
    embeddings = ("text vectors (JSONL); a row gives its key, the sha256 hex of "
                  "the normalized text, or the text itself, not both")

    p = sub.add_parser("normalize",
                       help="convert raw source records to the unified example format")
    _file(p, "--in", "raw_records", "raw records (JSONL); a record without source "
          "takes --source, and an utterance without speaker is unnamed",
          dest="infile", required=True)
    p.add_argument("--source", required=True, choices=RAW_SOURCES)
    p.add_argument("--out", required=True, help="unified examples (JSONL): the "
                   "examples format, with each type's question and answer_prefix")
    _number(p, "--seed", int, 0, "seed for A/B tag assignment")
    p.add_argument("--report", default=None, help="report path (default: stdout)")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("eval", help="score generations against reference sets")
    _file(p, "--examples", "examples", examples, required=True)
    _file(p, "--generations", "generations", generations, required=True)
    p.add_argument("--metric", default="bleu", choices=("bleu", "embed", "external"))
    _number(p, "--topk", int, 1)
    p.add_argument("--selection", default="maximum", type=_maximum,
                   choices=("maximum", "order"), help="max is short for maximum")
    p.add_argument("--matching", default="bipartite", type=_maximum,
                   choices=("bipartite", "maximum"), help="max is short for maximum")
    _file(p, "--clusters", "clusters", "cluster-constrained evaluation: clusters of "
          "each example's outputs, by output index from 0 (JSONL)", default=None)
    p.add_argument("--no-coverage-cap", dest="coverage_cap", action="store_false")
    _file(p, "--embeddings", "embeddings", embeddings, default=None)
    _file(p, "--external-scores", "external_scores", "score matrices (JSONL): one "
          "row per output, one column per reference", default=None)
    _number(p, "--seed", int, 0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("diversity", help="cluster outputs and measure diversity")
    _file(p, "--generations", "generations", generations, required=True)
    _file(p, "--embeddings", "embeddings", embeddings, default=None)
    _number(p, "--tau", float, 0.8)
    _number(p, "--topk", int, 0, "truncate outputs (0 = all)")
    _file(p, "--gold-clusters", "clusters", "gold clusters of each example's "
          "outputs, by output index from 0 (JSONL)", default=None)
    p.add_argument("--out-clusters", default=None,
                   help="write predicted clusters (JSONL, the clusters format)")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_diversity)

    p = sub.add_parser("datastats", help="corpus n-gram uniqueness statistics")
    _file(p, "--examples", "examples", examples, required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_datastats)

    p = sub.add_parser("stats", help="annotation agreement and significance tests")
    stats_sub = p.add_subparsers(dest="stats_command", required=True)
    annotations = ("annotations (JSONL), one label per item, system and annotator; "
                   "README lists each task's labels")

    q = stats_sub.add_parser("agree", help="Gwet AC1 and Cohen's kappa per task")
    _file(q, "--in", "annotations", annotations, dest="infile", required=True)
    q.add_argument("--report", default=None)
    q.set_defaults(func=_cmd_stats_agree)

    q = stats_sub.add_parser(
        "mcnemar", help="matched-pairs test with random disagreement resolution"
    )
    _file(q, "--in", "annotations", annotations, dest="infile", required=True)
    _number(q, "--repeats", int, 100)
    _number(q, "--seed", int, 0)
    _number(q, "--alpha", float, 0.05)
    q.add_argument("--report", default=None)
    q.set_defaults(func=_cmd_stats_mcnemar)

    q = stats_sub.add_parser("prop", help="pooled chi-square proportions test")
    q.add_argument("--successes", required=True, help="comma list, e.g. 93,75")
    q.add_argument("--trials", required=True, help="comma list, e.g. 100,100")
    _number(q, "--alpha", float, 0.05)
    q.add_argument("--report", default=None)
    q.set_defaults(func=_cmd_stats_prop)

    q = stats_sub.add_parser(
        "ttest", help="Bonferroni-corrected paired t-tests over score vectors"
    )
    _file(q, "--scores", "ttest_scores", "score vectors (JSONL), one per system", required=True)
    _number(q, "--m", int, None, "comparisons (default: #pairs)")
    _number(q, "--alpha", float, 0.05)
    q.add_argument("--report", default=None)
    q.set_defaults(func=_cmd_stats_ttest)

    p = sub.add_parser("decode", help="generate outputs from a toy LM config")
    _file(p, "--lm", "lm", "toy LM config, one JSON object; a cond row gives the "
          "next-token probabilities after its context, the last order-1 tokens",
          required=True)
    _file(p, "--examples", "examples", examples, required=True)
    p.add_argument("--strategy", required=True, choices=("beam", "dbs", "poly"))
    _number(p, "--beams", int, 10)
    _number(p, "--groups", int, 10)
    _number(p, "--penalty", float, 0.5)
    _number(p, "--rep-penalty", float, None,
            "repetition penalty (default 1.0; 5.0 for poly)")
    _number(p, "--runs", int, 3)
    _number(p, "--temperature", float, 1.0)
    _number(p, "--max-len", int, 32)
    _number(p, "--seed", int, 0)
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
        command = (f"stats {args.stats_command}" if args.command == "stats"
                   else args.command)
        for flag, interval in RANGES.get(command, {}).items():
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is not None and not _inside(interval, value):
                raise ValidationError(f"{flag} must be in {interval}, got {value}")
        for names in IMPORTS.get(command, {}).values():
            for name in names:
                if name not in globals():  # a replaced name stays as it is
                    __getattr__(name)
        body, warnings, outputs = args.func(args)
        report = {
            "tool": command.replace(" ", "."),
            "version": __version__,
            "config": {("in" if name == "infile" else name): value
                       for name, value in vars(args).items() if name not in _NOT_FLAGS},
            "warnings": sorted(warnings),
            **body,
        }
        texts = [(path, jsonl_text(records)) for path, records in outputs.items()]
        report_text = render_report(report)
        if args.report is not None:
            texts.append((args.report, report_text))
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

"""The end-to-end pipeline executed against the bundled fixture corpus.

Shared by the golden-file generator (tests/fixtures/gen_fixtures.py) and the
acceptance suite, which re-runs every step in a scratch directory and
compares all outputs byte-for-byte against the committed golden files.
All paths are relative: steps must run with the working directory set to a
folder containing INPUT_FILES.

``write_jsonl`` is the one JSONL writer of the tests and the fixture
generator: canonical lines, written all or nothing as the CLI writes.
"""

INPUT_FILES = [
    "raw_corpus.jsonl",
    "toy_mono.lm.json",
    "toy_poly.lm.json",
    "embeddings.jsonl",
]

PIPELINE = [
    (
        "normalize",
        [
            "normalize", "--in", "raw_corpus.jsonl", "--source", "generic",
            "--out", "unified.jsonl", "--seed", "13",
            "--report", "report_normalize.json",
        ],
    ),
    (
        "decode_beam",
        [
            "decode", "--lm", "toy_mono.lm.json", "--examples", "unified.jsonl",
            "--strategy", "beam", "--beams", "10", "--max-len", "8",
            "--seed", "7", "--out", "g_beam.jsonl",
            "--report", "report_decode_beam.json",
        ],
    ),
    (
        "decode_dbs",
        [
            "decode", "--lm", "toy_mono.lm.json", "--examples", "unified.jsonl",
            "--strategy", "dbs", "--beams", "10", "--groups", "10",
            "--penalty", "0.5", "--max-len", "8", "--seed", "7",
            "--out", "g_dbs.jsonl", "--report", "report_decode_dbs.json",
        ],
    ),
    (
        "decode_poly",
        [
            "decode", "--lm", "toy_poly.lm.json", "--examples", "unified.jsonl",
            "--strategy", "poly", "--runs", "3", "--temperature", "1.0",
            "--max-len", "12", "--seed", "7", "--out", "g_poly.jsonl",
            "--report", "report_decode_poly.json",
        ],
    ),
    (
        "eval_top1_max",
        [
            "eval", "--examples", "unified.jsonl", "--generations", "g_beam.jsonl",
            "--metric", "bleu", "--topk", "1", "--selection", "maximum",
            "--report", "report_eval_top1_max.json",
        ],
    ),
    (
        "eval_top1_order",
        [
            "eval", "--examples", "unified.jsonl", "--generations", "g_poly.jsonl",
            "--metric", "bleu", "--topk", "1", "--selection", "order",
            "--report", "report_eval_top1_order.json",
        ],
    ),
    (
        "eval_top5_bipartite",
        [
            "eval", "--examples", "unified.jsonl", "--generations", "g_dbs.jsonl",
            "--metric", "bleu", "--topk", "5", "--matching", "bipartite",
            "--report", "report_eval_top5_bipartite.json",
        ],
    ),
    (
        "eval_top5_max",
        [
            "eval", "--examples", "unified.jsonl", "--generations", "g_dbs.jsonl",
            "--metric", "bleu", "--topk", "5", "--matching", "maximum",
            "--report", "report_eval_top5_max.json",
        ],
    ),
    (
        "diversity",
        [
            "diversity", "--generations", "g_dbs.jsonl",
            "--embeddings", "embeddings.jsonl", "--tau", "0.8", "--topk", "5",
            "--out-clusters", "clusters.jsonl", "--report", "report_diversity.json",
        ],
    ),
    (
        "eval_top5_cluster",
        [
            "eval", "--examples", "unified.jsonl", "--generations", "g_dbs.jsonl",
            "--metric", "bleu", "--topk", "5", "--matching", "bipartite",
            "--clusters", "clusters.jsonl",
            "--report", "report_eval_top5_cluster.json",
        ],
    ),
    (
        "datastats",
        [
            "datastats", "--examples", "unified.jsonl",
            "--report", "report_datastats.json",
        ],
    ),
]

OUTPUT_FILES = [
    "unified.jsonl",
    "g_beam.jsonl",
    "g_dbs.jsonl",
    "g_poly.jsonl",
    "clusters.jsonl",
    "report_normalize.json",
    "report_decode_beam.json",
    "report_decode_dbs.json",
    "report_decode_poly.json",
    "report_eval_top1_max.json",
    "report_eval_top1_order.json",
    "report_eval_top5_bipartite.json",
    "report_eval_top5_max.json",
    "report_eval_top5_cluster.json",
    "report_diversity.json",
    "report_datastats.json",
]


def run_pipeline(workdir):
    """Run every step with the CLI entry point; returns (step, exit_code)s."""
    import os

    from polyeval.cli import run

    results = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in PIPELINE:
            results.append((name, run(argv)))
    finally:
        os.chdir(cwd)
    return results


def write_jsonl(path, records) -> None:
    from polyeval.dataio import jsonl_text, write_files

    write_files([(path, jsonl_text(records))])

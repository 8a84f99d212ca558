"""Batch command line front end.

Three subcommands: ``score`` runs metrics over hypothesis/reference
files, ``correlate`` computes correlation matrices over a score table,
and ``report`` concatenates score tables into one table for
``correlate``.

``score`` takes its metrics from one table, ``METRICS``: each entry
holds the column label, the tsv scale, whether the metric needs the
synonym lexicon, and how to run it. BLEU and EBLEU return their own
per-sentence scores; the per-sentence score of NIST, TER, METEOR, LEPOR
and RIBES is the metric run on a one-pair corpus.

Exit codes: 0 success, 1 data error, 2 usage error. Output is fully
deterministic; identical inputs produce byte-identical output. In tsv
mode scores are printed times 100 with two decimals, except NIST which
stays on its natural scale; json carries raw values, with ``null`` for
a score that is undefined (TER of non-empty hypotheses whose references
are all empty), so the output is always strict JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .bleu import BleuConfig, bleu_score
from .corpus import (
    ParallelCorpus,
    SynonymLexicon,
    TokenizerConfig,
    load_parallel_corpus,
    load_synonym_lexicon,
)
from .ebleu import EbleuConfig, ebleu_score
from .errors import DegenerateTableError, MTEvalError, TableFormatError
from .refmetrics import (
    lepor_score,
    meteor_score,
    nist_score,
    ribes_score,
    ter_score,
)
from .stats import (
    ContingencyTable,
    ScoreTable,
    correlation_matrix,
    discretize,
    goodman_kruskal_lambda,
    read_raw_table,
    read_score_table,
)


class _UsageError(Exception):
    pass


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# score


def _json_score(value: float) -> float | None:
    """A score for JSON output: null where it is undefined (NaN or infinite)."""
    return value if math.isfinite(value) else None


class Metric(NamedTuple):
    """How ``score`` runs one metric and shows its result.

    ``run(corpus, lexicon, args)`` returns ``(score, per_sentence or None,
    details or None)``. It calls its scorer by this module's global name,
    so the scorer is looked up when the metric runs, not when the table
    is built. A metric whose ``run`` gives no per-sentence list is scored
    per sentence by that same ``run`` on one-pair corpora.
    """

    label: str
    scale: int  # tsv cells show the score times this
    needs_lexicon: bool
    run: Callable[
        [ParallelCorpus, SynonymLexicon, argparse.Namespace],
        tuple[float, list[float] | None, dict | None],
    ]


def _run_bleu(corpus, lexicon, args):
    result = bleu_score(
        corpus, BleuConfig(max_order=args.max_ngram, smoothing_epsilon=args.epsilon)
    )
    return result.corpus_score, result.per_sentence, result.details


def _run_ebleu(corpus, lexicon, args):
    cfg = EbleuConfig(
        max_order=args.max_ngram,
        synonym_score=args.synonym_score,
        rare_words_percent=args.rare_words_percent,
        rare_words_score=args.rare_words_score,
        smoothing_epsilon=args.epsilon,
    )
    result = ebleu_score(corpus, lexicon, cfg)
    return result.corpus_score, result.per_sentence, result.details


def _run_meteor(corpus, lexicon, args):
    # A shallow copy of the flat result, in field order; ``asdict`` would
    # deep-copy it, at 15 times the cost, on every one-pair call.
    details = dict(vars(meteor_score(corpus, lexicon)))
    return details.pop("score"), None, details


# NIST is unbounded and reported on its own scale; everything else is a
# [0, 1] style score shown as a percentage.
METRICS = {
    "ebleu": Metric("EBLEU", 100, True, _run_ebleu),
    "bleu": Metric("BLEU", 100, False, _run_bleu),
    "nist": Metric("NIST", 1, False, lambda c, *_: (nist_score(c), None, None)),
    "ter": Metric("TER", 100, False, lambda c, *_: (ter_score(c), None, None)),
    "meteor": Metric("METEOR", 100, True, _run_meteor),
    "lepor": Metric("LEPOR", 100, False, lambda c, *_: (lepor_score(c), None, None)),
    "ribes": Metric("RIBES", 100, False, lambda c, *_: (ribes_score(c), None, None)),
}


def _run_metric(
    name: str,
    corpus: ParallelCorpus,
    lexicon: SynonymLexicon,
    args: argparse.Namespace,
) -> tuple[float, list[float] | None, dict | None]:
    run = METRICS[name].run
    score, per_sentence, details = run(corpus, lexicon, args)
    if args.per_sentence and per_sentence is None:
        one_pair = (ParallelCorpus((pair,), corpus.ref_count) for pair in corpus.pairs)
        per_sentence = [run(sub, lexicon, args)[0] for sub in one_pair]
    return score, per_sentence, details


def _config_echo(args: argparse.Namespace, metrics: list[str]) -> dict:
    return {
        "metrics": metrics,
        "hyp": args.hyp,
        "refs": args.ref,
        "lexicon": args.lexicon,
        "max_ngram": args.max_ngram,
        "synonym_score": args.synonym_score,
        "rare_words_percent": args.rare_words_percent,
        "rare_words_score": args.rare_words_score,
        "epsilon": args.epsilon,
        "lowercase": args.lowercase,
        "split_punct": args.split_punct,
    }


def _echo_str(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


def cmd_score(args: argparse.Namespace) -> int:
    metrics = list(dict.fromkeys(args.metric))
    needing = [m for m, metric in METRICS.items() if metric.needs_lexicon]
    if not args.lexicon and any(m in needing for m in metrics):
        raise _UsageError("--lexicon is required when scoring " + " or ".join(needing))
    tok_cfg = TokenizerConfig(
        lowercase=args.lowercase, split_punctuation=args.split_punct
    )
    corpus = load_parallel_corpus(args.hyp, args.ref, tok_cfg)
    lexicon = (
        load_synonym_lexicon(args.lexicon, tok_cfg)
        if args.lexicon
        else SynonymLexicon.empty()
    )
    results = {name: _run_metric(name, corpus, lexicon, args) for name in metrics}
    stats = {
        "pairs": len(corpus),
        "ref_count": corpus.ref_count,
        "hypothesis_tokens": corpus.hypothesis_token_count(),
        "reference_tokens": corpus.reference_token_count(),
    }
    config = _config_echo(args, metrics)

    if args.format == "json":
        payload = {
            "config": config,
            "corpus": stats,
            "metrics": {
                name: {
                    "score": _json_score(score),
                    **(
                        {"per_sentence": [_json_score(v) for v in per_sentence]}
                        if args.per_sentence
                        else {}
                    ),
                    **({"details": details} if details is not None else {}),
                }
                for name, (score, per_sentence, details) in results.items()
            },
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        def cells(values) -> str:
            return "\t".join(
                f"{v * METRICS[m].scale:.2f}" for m, v in zip(metrics, values)
            )

        lines = [
            "# " + " ".join(f"{k}={v}" for k, v in stats.items()),
            "# " + " ".join(f"{k}={_echo_str(v)}" for k, v in config.items()),
            "\t".join(METRICS[m].label for m in metrics),
            cells(score for score, _, _ in results.values()),
        ]
        if args.per_sentence:
            lines.append("# per-sentence")
            lines += map(cells, zip(*(scores for _, scores, _ in results.values())))
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# correlate


def _triangular(matrix) -> list[list[float]]:
    return [[cell.coefficient for cell in row] for row in matrix]


def _triangular_p(matrix) -> list[list[float | None]]:
    return [[cell.two_tailed_p for cell in row] for row in matrix]


def _lambda_matrices(
    table: ScoreTable, bins: int
) -> tuple[list[list[float | None]], list[list[float | None]]]:
    """lambda(column metric | row metric) for every ordered pair."""
    categories = [
        discretize(table.column_at(j), bins) for j in range(len(table.metric_names))
    ]
    values: list[list[float | None]] = []
    variances: list[list[float | None]] = []
    for row_cats in categories:
        value_row: list[float | None] = []
        variance_row: list[float | None] = []
        for col_cats in categories:
            contingency = ContingencyTable.from_categories(row_cats, col_cats, bins)
            try:
                lam, var = goodman_kruskal_lambda(contingency)
            except DegenerateTableError:
                lam, var = None, None
            value_row.append(lam)
            variance_row.append(var)
        values.append(value_row)
        variances.append(variance_row)
    return values, variances


def _matrix_block(title: str, names: tuple[str, ...], rows) -> list[str]:
    lines = [f"# {title}", "\t" + "\t".join(names)]
    for name, row in zip(names, rows):
        cells = ["nan" if v is None else f"{v:.4f}" for v in row]
        lines.append(name + "\t" + "\t".join(cells))
    return lines


def cmd_correlate(args: argparse.Namespace) -> int:
    table = read_score_table(args.table)
    kinds = ["pearson", "spearman"] if args.kind == "both" else [args.kind]
    matrices = {kind: correlation_matrix(table, kind) for kind in kinds}

    if args.format == "json":
        payload: dict = {
            "table": args.table,
            "metrics": list(table.metric_names),
            "rows": len(table.rows),
        }
        for kind in kinds:
            payload[kind] = _triangular(matrices[kind])
        if "spearman" in kinds:
            payload["spearman_p"] = _triangular_p(matrices["spearman"])
        if args.gk_lambda:
            values, variances = _lambda_matrices(table, args.bins)
            payload["lambda"] = {
                "bins": args.bins,
                "values": values,
                "variances": variances,
            }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        lines: list[str] = []
        for kind in kinds:
            lines += _matrix_block(
                kind, table.metric_names, _triangular(matrices[kind])
            )
        if "spearman" in kinds:
            lines += _matrix_block(
                "spearman-p", table.metric_names, _triangular_p(matrices["spearman"])
            )
        if args.gk_lambda:
            values, _ = _lambda_matrices(table, args.bins)
            lines += _matrix_block(
                f"lambda bins={args.bins}", table.metric_names, values
            )
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args: argparse.Namespace) -> int:
    tables = [read_raw_table(path) for path in args.inputs]
    header = tables[0][0]
    for path, (other_header, _) in zip(args.inputs, tables):
        if other_header != header:
            raise TableFormatError(
                f"{path}: columns {other_header} do not match {header}"
            )
    lines = ["\t".join(header)]
    for _, rows in tables:
        lines += ["\t".join(row) for row in rows]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mteval",
        description="Score translation output and correlate evaluation metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="score a corpus with one or more metrics")
    score.add_argument("--hyp", required=True, metavar="PATH", help="hypothesis file")
    score.add_argument(
        "--ref",
        action="append",
        required=True,
        metavar="PATH",
        help="reference file, repeat for multiple references",
    )
    score.add_argument(
        "--metric",
        action="append",
        required=True,
        choices=sorted(METRICS),
        help="metric to run, repeatable",
    )
    score.add_argument("--lexicon", metavar="PATH", help="synonym lexicon file")
    score.add_argument(
        "--max-ngram",
        type=int,
        default=4,
        metavar="N",
        help="n-gram order of BLEU and EBLEU only; NIST always uses order 5",
    )
    score.add_argument("--synonym-score", type=float, default=0.90, metavar="F")
    score.add_argument("--rare-words-percent", type=float, default=0.10, metavar="F")
    score.add_argument("--rare-words-score", type=float, default=1.10, metavar="F")
    score.add_argument("--epsilon", type=float, default=0.0, metavar="F")
    score.add_argument("--lowercase", action="store_true")
    score.add_argument("--split-punct", action="store_true")
    score.add_argument("--per-sentence", action="store_true")
    score.add_argument("--format", choices=("json", "tsv"), default="tsv")
    score.add_argument("--out", metavar="PATH")
    score.set_defaults(func=cmd_score)

    correlate = sub.add_parser(
        "correlate", help="correlation matrices over a score table"
    )
    correlate.add_argument("--table", required=True, metavar="PATH")
    correlate.add_argument(
        "--kind", choices=("pearson", "spearman", "both"), default="pearson"
    )
    correlate.add_argument(
        "--lambda",
        dest="gk_lambda",
        action="store_true",
        help="also compute the lambda association matrix",
    )
    correlate.add_argument("--bins", type=int, default=10, metavar="K")
    correlate.add_argument("--format", choices=("json", "tsv"), default="tsv")
    correlate.add_argument("--out", metavar="PATH")
    correlate.set_defaults(func=cmd_correlate)

    report = sub.add_parser("report", help="concatenate score tables")
    report.add_argument(
        "--in",
        dest="inputs",
        action="append",
        required=True,
        metavar="PATH",
        help="score table, repeatable",
    )
    report.add_argument("--out", metavar="PATH")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        # ValueError surfaces config validation (weight sums, ranges)
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (MTEvalError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())

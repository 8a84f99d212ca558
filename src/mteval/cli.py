"""Batch command line front end.

Three subcommands: ``score`` runs metrics over hypothesis/reference
files, ``correlate`` computes correlation matrices over a score table,
and ``report`` concatenates score tables into one table for
``correlate``.

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

METRIC_LABELS = {
    "ebleu": "EBLEU",
    "bleu": "BLEU",
    "nist": "NIST",
    "ter": "TER",
    "meteor": "METEOR",
    "lepor": "LEPOR",
    "ribes": "RIBES",
}

# NIST is unbounded and reported on its own scale; everything else is a
# [0, 1] style score shown as a percentage.
_UNSCALED = {"nist"}


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


def _format_cell(name: str, value: float) -> str:
    scale = 1.0 if name in _UNSCALED else 100.0
    return f"{value * scale:.2f}"


def _per_sentence_scores(
    name: str, corpus: ParallelCorpus, lexicon: SynonymLexicon
) -> list[float]:
    """The metric formula restricted to each pair in turn."""
    scores = []
    for pair in corpus.pairs:
        sub = ParallelCorpus(pairs=(pair,), ref_count=corpus.ref_count)
        if name == "nist":
            scores.append(nist_score(sub))
        elif name == "ter":
            scores.append(ter_score(sub))
        elif name == "meteor":
            scores.append(meteor_score(sub, lexicon).score)
        elif name == "lepor":
            scores.append(lepor_score(sub))
        elif name == "ribes":
            scores.append(ribes_score(sub))
    return scores


def _run_metric(
    name: str,
    corpus: ParallelCorpus,
    lexicon: SynonymLexicon,
    args: argparse.Namespace,
) -> dict:
    if name == "bleu":
        result = bleu_score(
            corpus,
            BleuConfig(max_order=args.max_ngram, smoothing_epsilon=args.epsilon),
        )
        return {
            "score": result.corpus_score,
            "per_sentence": result.per_sentence,
            "details": result.details,
        }
    if name == "ebleu":
        cfg = EbleuConfig(
            max_order=args.max_ngram,
            synonym_score=args.synonym_score,
            rare_words_percent=args.rare_words_percent,
            rare_words_score=args.rare_words_score,
            smoothing_epsilon=args.epsilon,
        )
        result = ebleu_score(corpus, lexicon, cfg)
        return {
            "score": result.corpus_score,
            "per_sentence": result.per_sentence,
            "details": result.details,
        }
    if name == "meteor":
        res = meteor_score(corpus, lexicon)
        score = res.score
        details = {
            "precision": res.precision,
            "recall": res.recall,
            "matched_unigrams": res.matched_unigrams,
            "chunk_count": res.chunk_count,
            "penalty": res.penalty,
        }
    elif name == "nist":
        score, details = nist_score(corpus), None
    elif name == "ter":
        score, details = ter_score(corpus), None
    elif name == "lepor":
        score, details = lepor_score(corpus), None
    elif name == "ribes":
        score, details = ribes_score(corpus), None
    else:
        raise _UsageError(f"unknown metric {name!r}")
    per_sentence = (
        _per_sentence_scores(name, corpus, lexicon) if args.per_sentence else None
    )
    return {"score": score, "per_sentence": per_sentence, "details": details}


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
    if any(m in ("ebleu", "meteor") for m in metrics) and not args.lexicon:
        raise _UsageError("--lexicon is required when scoring ebleu or meteor")
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
                    "score": _json_score(results[name]["score"]),
                    **(
                        {
                            "per_sentence": [
                                _json_score(v) for v in results[name]["per_sentence"]
                            ]
                        }
                        if args.per_sentence
                        else {}
                    ),
                    **(
                        {"details": results[name]["details"]}
                        if results[name]["details"] is not None
                        else {}
                    ),
                }
                for name in metrics
            },
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        lines = [
            "# " + " ".join(f"{k}={v}" for k, v in stats.items()),
            "# " + " ".join(f"{k}={_echo_str(v)}" for k, v in config.items()),
            "\t".join(METRIC_LABELS[m] for m in metrics),
            "\t".join(_format_cell(m, results[m]["score"]) for m in metrics),
        ]
        if args.per_sentence:
            lines.append("# per-sentence")
            for i in range(len(corpus)):
                lines.append(
                    "\t".join(
                        _format_cell(m, results[m]["per_sentence"][i]) for m in metrics
                    )
                )
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
        text = json.dumps(payload, indent=2) + "\n"
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
        choices=sorted(METRIC_LABELS),
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

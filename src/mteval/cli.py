"""Batch command line front end.

Two subcommands: ``score`` runs metrics over hypothesis/reference
files, and ``correlate`` computes correlation matrices over the rows of
one or more score tables, refusing tables scored differently.

``score`` takes its metrics from one table, ``METRICS``: each entry
holds the tsv scale, whether the metric needs the synonym lexicon, and
how to run it; its column label is its name in capitals. Each metric
runs once per ``score`` invocation; with ``--per-sentence`` its
per-sentence scores come from that same corpus pass. Metrics run in the
table's order, NIST before BLEU, which reads NIST's matches when both
run at ``--max-ngram`` 5 or below; the output keeps ``--metric`` order.

Exit codes: 0 success, 1 data error, 2 usage error. Output is fully
deterministic; identical inputs produce byte-identical output. In tsv
mode scores are printed times 100 with two decimals, except NIST which
stays on its natural scale; json carries raw values, with ``null`` for
a score that is undefined (TER of non-empty hypotheses whose references
are all empty), so the output is always strict JSON.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .bleu import bleu_score
from .corpus import (
    PER_SENTENCE_MARKER,
    ParallelCorpus,
    SynonymLexicon,
    TokenizerConfig,
    load_parallel_corpus,
    load_synonym_lexicon,
)
from .ebleu import EbleuConfig, ebleu_score
from .errors import EmptyCorpusError, MTEvalError, prefixed
from .ngram import MAX_ORDER
from .refmetrics import (
    NIST_ORDER,
    lepor_score,
    meteor_score,
    nist_score,
    ribes_score,
    ter_score,
)

# The statistics and ``json`` are imported where used, so ``score`` loads neither.


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

    ``run(corpus, lexicon, cfg, per_sentence, matched)`` takes the run's
    one validated ``EbleuConfig``, which holds every scorer option, and
    returns ``(score, details or None)``, a ``MetricScore`` where the
    scorer gives one. It hands ``per_sentence`` to the scorer, which,
    given a list, appends each pair's score to it, in corpus order, from
    the same corpus pass. ``matched`` is one list when both NIST and BLEU
    run and ``--max-ngram`` is at most NIST's order 5, else ``None``:
    NIST fills it with each pair's clipped matches per order, BLEU reads
    them. It calls its scorer once, by this module's global name, so the
    scorer is looked up when the metric runs, not when the table is built.
    """

    scale: int  # tsv cells show the score times this
    needs_lexicon: bool
    run: Callable[
        [ParallelCorpus, SynonymLexicon, EbleuConfig, list[float] | None, list | None],
        tuple[float, dict | None],
    ]


# Metrics run in this order. NIST is unbounded and reported on its own
# scale; everything else is a [0, 1] style score shown as a percentage.
METRICS = {
    "ebleu": Metric(
        100, True, lambda c, lex, cfg, s, m: ebleu_score(c, lex, cfg, per_sentence=s)
    ),
    "nist": Metric(
        1, False, lambda c, lex, cfg, s, m: (
            nist_score(c, per_sentence=s, matched_per_order=m), None
        )
    ),
    "bleu": Metric(
        100, False, lambda c, lex, cfg, s, m: bleu_score(
            c, cfg.bleu_config(), per_sentence=s, matched_per_order=m
        )
    ),
    "ter": Metric(
        100, False, lambda c, lex, cfg, s, m: (ter_score(c, per_sentence=s), None)
    ),
    "meteor": Metric(
        100, True, lambda c, lex, cfg, s, m: meteor_score(c, lex, per_sentence=s)
    ),
    "lepor": Metric(
        100, False, lambda c, lex, cfg, s, m: (lepor_score(c, per_sentence=s), None)
    ),
    "ribes": Metric(
        100, False, lambda c, lex, cfg, s, m: (ribes_score(c, per_sentence=s), None)
    ),
}


def _config_echo(
    args: argparse.Namespace, cfg: EbleuConfig, metrics: list[str]
) -> dict:
    return {
        "metrics": metrics,
        "hyp": args.hyp,
        "refs": args.ref,
        "lexicon": args.lexicon,
        "max_ngram": cfg.max_order,
        "synonym_score": cfg.synonym_score,
        "rare_words_percent": cfg.rare_words_percent,
        "rare_words_score": cfg.rare_words_score,
        "epsilon": cfg.smoothing_epsilon,
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
    cfg = EbleuConfig(**{field: getattr(args, field) for field in EbleuConfig._fields})
    metrics = list(dict.fromkeys(args.metric))
    needing = [m for m, metric in METRICS.items() if metric.needs_lexicon]
    if not args.lexicon and any(m in needing for m in metrics):
        raise ValueError("--lexicon is required when scoring " + " or ".join(needing))
    tok_cfg = TokenizerConfig(
        lowercase=args.lowercase, split_punctuation=args.split_punct
    )
    corpus = load_parallel_corpus(args.hyp, args.ref, tok_cfg)
    if not corpus:
        raise EmptyCorpusError(f"{args.hyp}: no lines to score")
    lexicon = (
        load_synonym_lexicon(args.lexicon, tok_cfg)
        if args.lexicon
        else SynonymLexicon({})
    )
    both = {"nist", "bleu"} <= set(metrics)
    matched = [] if both and cfg.max_order <= NIST_ORDER else None
    results = {}
    for name in sorted(metrics, key=list(METRICS).index):
        per_sentence = [] if args.per_sentence else None
        score, details = METRICS[name].run(corpus, lexicon, cfg, per_sentence, matched)
        results[name] = score, per_sentence, details
    results = {name: results[name] for name in metrics}
    stats = {
        "pairs": len(corpus),
        "ref_count": len(args.ref),
        "hypothesis_tokens": corpus.hypothesis_token_count(),
        "reference_tokens": corpus.reference_token_count(),
    }
    config = _config_echo(args, cfg, metrics)

    if args.format == "json":
        import json

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
            "\t".join(m.upper() for m in metrics),
            cells(score for score, _, _ in results.values()),
        ]
        if args.per_sentence:
            lines.append(PER_SENTENCE_MARKER)
            lines += map(cells, zip(*(scores for _, scores, _ in results.values())))
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# correlate


def cmd_correlate(args: argparse.Namespace) -> int:
    if args.bins < 2:
        raise ValueError(f"--bins must be at least 2, got {args.bins}")
    from .stats import correlation_matrix, lambda_matrices, read_score_table

    table = read_score_table(*args.table)
    names = table.metric_names
    kinds = ["pearson", "spearman"] if args.kind == "both" else [args.kind]
    with prefixed(", ".join(args.table)):
        matrices = {kind: correlation_matrix(table, kind) for kind in kinds}
        lambdas = lambda_matrices(table, args.bins) if args.gk_lambda else None
    # (json key, json value, tsv title, tsv rows), in output order
    blocks = []
    for kind, matrix in matrices.items():
        rows = [[cell.coefficient for cell in row] for row in matrix]
        blocks.append((kind, rows, kind, rows))
    if "spearman" in matrices:
        p_rows = [[cell.two_tailed_p for cell in row] for row in matrices["spearman"]]
        blocks.append(("spearman_p", p_rows, "spearman-p", p_rows))
    if lambdas is not None:
        values, variances = lambdas
        lam = dict(bins=args.bins, values=values, variances=variances)
        blocks.append(("lambda", lam, f"lambda bins={args.bins}", values))

    if args.format == "json":
        import json

        payload = dict(tables=args.table, metrics=list(names), rows=len(table.rows))
        payload.update((key, value) for key, value, _, _ in blocks)
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        lines: list[str] = []
        for _, _, title, rows in blocks:
            lines += [f"# {title}", "\t" + "\t".join(names)]
            for name, row in zip(names, rows):
                cells = ["nan" if v is None else f"{v:.4f}" for v in row]
                lines.append(name + "\t" + "\t".join(cells))
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
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
    # Each scorer option is stored under its EbleuConfig field, which gives its default.
    score.add_argument(
        "--max-ngram",
        dest="max_order",
        type=int,
        metavar="N",
        help=f"n-gram order from 1 to {MAX_ORDER}, of BLEU and EBLEU only; "
        f"NIST always uses order {NIST_ORDER}",
    )
    score.add_argument("--synonym-score", type=float, metavar="F")
    score.add_argument("--rare-words-percent", type=float, metavar="F")
    score.add_argument("--rare-words-score", type=float, metavar="F")
    score.add_argument("--epsilon", dest="smoothing_epsilon", type=float, metavar="F")
    score.add_argument("--lowercase", action="store_true")
    score.add_argument("--split-punct", action="store_true")
    score.add_argument("--per-sentence", action="store_true")
    score.add_argument("--format", choices=("json", "tsv"), default="tsv")
    score.add_argument("--out", metavar="PATH")
    score.set_defaults(func=cmd_score, **EbleuConfig._field_defaults)

    correlate = sub.add_parser(
        "correlate", help="correlation matrices over merged score tables"
    )
    correlate.add_argument(
        "--table", action="append", required=True, metavar="PATH",
        help="score table, repeatable: the rows of every table, in order",
    )
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

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # a scorer option out of its range, or a missing --lexicon
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (MTEvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())

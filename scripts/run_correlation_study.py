#!/usr/bin/env python3
"""Reproduce the metric correlation study from the bundled score tables.

Loads the two per-direction score tables shipped under tests/data,
merges them, and prints Pearson and Spearman matrices plus the lambda
association of EBLEU with every other metric. Every published
coefficient (tests/data/published_correlations.json, which the
acceptance tests read too) is printed next to the computed one with
their delta.

Run from the repository root:

    python scripts/run_correlation_study.py
"""

import json
from pathlib import Path

from mteval import (
    correlation_matrix,
    discretize,
    goodman_kruskal_lambda,
    pearson,
    read_score_table,
    spearman,
)
from mteval.stats import ScoreTable

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def print_matrix(title: str, table: ScoreTable, kind: str) -> None:
    print(f"\n{title}")
    matrix = correlation_matrix(table, kind)
    names = table.metric_names
    print("\t" + "\t".join(names))
    for name, row in zip(names, matrix):
        print(name + "\t" + "\t".join(f"{cell.coefficient:+.4f}" for cell in row))


def compare(
    header: str, table: ScoreTable, correlate, base: str, published: dict[str, float]
) -> None:
    print(f"\n{header}")
    print(f"{'metric':8s} {'computed':>9s} {'published':>9s} {'delta':>7s}")
    for metric, reference in published.items():
        value = correlate(table.column(base), table.column(metric)).coefficient
        print(f"{metric:8s} {value:+9.4f} {reference:+9.4f} {abs(value - reference):7.4f}")


def main() -> None:
    published = json.loads(
        (DATA / "published_correlations.json").read_text(encoding="utf-8")
    )
    pl_en_path, en_pl_path = DATA / "pl_en_scores.tsv", DATA / "en_pl_scores.tsv"
    pl_en = read_score_table(pl_en_path)
    merged = read_score_table(pl_en_path, en_pl_path)

    print(f"loaded {len(pl_en.rows)} + {len(read_score_table(en_pl_path).rows)} runs, "
          f"{len(merged.metric_names)} metrics")

    print_matrix("Pearson, Polish to English runs", pl_en, "pearson")
    compare(
        "EBLEU pairings vs published per-direction coefficients",
        pl_en, pearson, "EBLEU", published["pearson_pl_en"]["EBLEU"],
    )

    print_matrix("Pearson, both directions merged", merged, "pearson")
    compare(
        "EBLEU pairings vs published merged coefficients\n"
        "(the published RIBES cell is not derivable from these tables)",
        merged, pearson, "EBLEU", published["pearson_merged"]["EBLEU"],
    )

    print_matrix("Spearman, both directions merged", merged, "spearman")
    ebleu = merged.column("EBLEU")
    print("\ntwo-tailed significance of the EBLEU pairings")
    for metric in published["spearman_merged"]["EBLEU"]:
        result = spearman(ebleu, merged.column(metric))
        print(f"  EBLEU x {metric:8s} p = {result.two_tailed_p:.2e} (n = {result.n})")
    for base, coefficients in published["spearman_merged"].items():
        compare(
            f"{base} pairings vs published merged rank coefficients",
            merged, spearman, base, coefficients,
        )

    bins = 4
    print(f"\nlambda association, EBLEU as the predicted variable ({bins} bins)")
    ebleu_cats = discretize(ebleu, bins)
    for metric in ("BLEU", "NIST", "TER", "METEOR", "RIBES"):
        cats = discretize(merged.column(metric), bins)
        lam, var = goodman_kruskal_lambda(cats, ebleu_cats)
        print(f"  lambda(EBLEU | {metric:8s}) = {lam:.3f} (var {var:.4f})")


if __name__ == "__main__":
    main()

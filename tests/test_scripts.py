"""The repository's scripts, run in-process against the bundled data."""

import json
import re
import runpy
from collections import Counter
from pathlib import Path

from mteval import read_score_table
from mteval.stats import lambda_matrices

ROOT = Path(__file__).resolve().parents[1]

# metric, computed, published, delta: one row of the study's comparisons
DELTA_ROW = re.compile(r"^(\S+) +([+-]\d+\.\d{4}) +([+-]\d+\.\d{4}) +(\d+\.\d{4})$")


def test_correlation_study_prints_a_delta_for_every_published_coefficient(
    capsys, data_dir
):
    runpy.run_path(str(ROOT / "scripts" / "run_correlation_study.py"), run_name="__main__")
    rows = [m.groups() for m in map(DELTA_ROW.match, capsys.readouterr().out.splitlines()) if m]

    published = json.loads(
        (data_dir / "published_correlations.json").read_text(encoding="utf-8")
    )
    expected = Counter(
        (metric, f"{value:+.4f}")
        for bases in published.values()
        for coefficients in bases.values()
        for metric, value in coefficients.items()
    )
    assert Counter((metric, reference) for metric, _, reference, _ in rows) == expected
    for _, computed, reference, delta in rows:
        assert abs(abs(float(computed) - float(reference)) - float(delta)) <= 1e-4


def test_correlation_study_lambda_lines_are_the_ebleu_column_of_lambda_matrices(
    capsys, data_dir
):
    runpy.run_path(str(ROOT / "scripts" / "run_correlation_study.py"), run_name="__main__")
    lines = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("  lambda(EBLEU | ")
    ]

    merged = read_score_table(data_dir / "pl_en_scores.tsv", data_dir / "en_pl_scores.tsv")
    values, variances = lambda_matrices(merged, 4)
    names = merged.metric_names
    ebleu = names.index("EBLEU")
    expected = [
        f"  lambda(EBLEU | {metric:8s}) = {values[i][ebleu]:.3f}"
        f" (var {variances[i][ebleu]:.4f})"
        for metric in ("BLEU", "NIST", "TER", "METEOR", "RIBES")
        for i in [names.index(metric)]
    ]
    assert lines == expected

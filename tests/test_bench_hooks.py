"""The benchmark's traced run still finds every hook it patches.

``bench/traced.py --trace`` replaces module attributes of ``mteval``
(the CLI's loaders and scorers, EBLEU's rare-word set and substitution,
BLEU's ``extract_ngrams``) with timing wrappers, so removing or renaming
any of them fails that run. This runs it on a tiny corpus with all
seven metrics and reads only ``bench/``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "bench" / "traced.py"
METRICS = ("ebleu", "bleu", "nist", "ter", "meteor", "lepor", "ribes")


def scorer_layers() -> list[str]:
    """The layer names of ``SCORERS`` in ``bench/traced.py``, read without importing it."""
    for node in ast.parse(TRACED.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SCORERS" for t in node.targets
        ):
            return list(ast.literal_eval(node.value).values())
    raise AssertionError("bench/traced.py defines no SCORERS")


def test_traced_run_records_every_hook(tmp_path):
    hyp, ref, lex = tmp_path / "hyp.txt", tmp_path / "ref.txt", tmp_path / "syn.txt"
    hyp.write_text("this is a exam\nthe cat sat on mat the\n", encoding="utf-8")
    ref.write_text("this is a quiz\nthe cat sat on the mat\n", encoding="utf-8")
    lex.write_text("exam, test, quiz, examination\n", encoding="utf-8")
    report = tmp_path / "report.json"
    argv = [
        sys.executable, str(TRACED), str(report), "--trace", "--",
        "score", *(arg for name in METRICS for arg in ("--metric", name)),
        "--hyp", str(hyp), "--ref", str(ref), "--lexicon", str(lex),
        "--out", str(tmp_path / "out.tsv"),
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text(encoding="utf-8"))
    assert data["rc"] == 0
    spans = {name for name, *_ in data["spans"]}
    layers = scorer_layers()
    assert len(layers) == len(METRICS)
    expected = {f"{layer}.corpus" for layer in layers} | {
        "corpus.load",
        "corpus.lexicon",
        "corpus.rare",
        "ebleu.substitute",
        "ngram.extract",
    }
    assert expected <= spans, sorted(expected - spans)

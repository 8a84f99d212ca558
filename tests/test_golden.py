"""The committed benchmark golden outputs, reproduced in-process.

``bench/golden/seven_metrics.json`` is the ``score --format json
--per-sentence`` output of all seven metrics on the benchmark's small
golden corpus, and ``bench/golden/digests.json`` holds the sha256 of each
benchmark workload's output per corpus seed. Every benchmark run checks
its output against them byte for byte, so a last-bit float drift in any
scorer fails here first. The benchmark's files are only read.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from mteval import bleu, corpus, ebleu, ngram, refmetrics
from mteval.cli import main
from helpers import compensated_sum

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def run_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("run_bench")


def score_generated(run_bench, workload, seed: int, work: Path, monkeypatch) -> bytes:
    """The CLI's output for ``workload`` on the corpus of ``seed``."""
    run_bench.generate(seed, workload.profile, work)
    monkeypatch.chdir(work)
    assert main(workload.argv("out.txt")) == 0
    return (work / "out.txt").read_bytes()


def test_seven_metric_golden_file(run_bench, tmp_path, monkeypatch):
    got = score_generated(
        run_bench, run_bench.GOLDEN_WORKLOAD, run_bench.GOLDEN_SEED, tmp_path, monkeypatch
    )
    assert got == (BENCH / "golden" / "seven_metrics.json").read_bytes()


@pytest.mark.parametrize("name", ["suite-corpus", "suite-sentence", "ter-reorder"])
def test_workload_digest_of_corpus_zero(run_bench, tmp_path, monkeypatch, name):
    workload = run_bench.WORKLOADS[name]
    table = json.loads((BENCH / "golden" / "digests.json").read_text(encoding="utf-8"))
    assert table[name]["fingerprint"] == workload.fingerprint()
    score_generated(run_bench, workload, 0, tmp_path, monkeypatch)
    assert run_bench.digest(tmp_path / "out.txt") == table[name]["seeds"]["0"]


def test_golden_file_does_not_depend_on_the_builtin_sum(run_bench, tmp_path, monkeypatch):
    """The golden output holds when ``sum()`` compensates float rounding, as it
    does from Python 3.12 on: no scorer may add floats with ``sum()``."""
    for module in (refmetrics, ebleu, bleu, corpus, ngram):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    got = score_generated(
        run_bench, run_bench.GOLDEN_WORKLOAD, run_bench.GOLDEN_SEED, tmp_path, monkeypatch
    )
    assert got == (BENCH / "golden" / "seven_metrics.json").read_bytes()

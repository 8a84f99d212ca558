"""The committed benchmark golden outputs, reproduced in-process.

``bench/golden/seven_metrics.json`` is the ``score --format json
--per-sentence`` output of all seven metrics on the benchmark's small
golden corpus, and ``bench/golden/digests.json`` holds the sha256 of each
benchmark workload's output per corpus seed. Every benchmark run checks
its output against them byte for byte, so a last-bit float drift in any
scorer fails here first. The golden file is also checked on every other
Python 3.10-3.13 interpreter found on this host, as is a corpus written
here whose sentences differ in length from their references, and that
corpus is scored again under three ``PYTHONHASHSEED`` values. The
benchmark's files are only read.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mteval import bleu, corpus, ebleu, ngram, refmetrics
from mteval.cli import main
from helpers import compensated_sum

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


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


def other_interpreters() -> list[str]:
    """One interpreter per minor version of Python 3.10-3.13 other than the
    running one: pyenv's builds under ``$PYENV_ROOT``, then ``python3.1X``
    on ``PATH``. One that fails to start, as a pyenv shim may, is left out."""
    root = os.environ.get("PYENV_ROOT")
    candidates = sorted(glob.glob(f"{root}/versions/3.1*/bin/python3")) if root else []
    candidates += filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 14)))
    found: dict[tuple[int, ...], str] = {}
    for exe in candidates:
        try:
            probe = subprocess.run(
                [exe, "-c", "import sys; print(*sys.version_info[:2])"],
                capture_output=True, text=True, timeout=30,
            )
            version = tuple(map(int, probe.stdout.split()))
        except (OSError, subprocess.TimeoutExpired, ValueError):
            continue
        if probe.returncode == 0 and (3, 10) <= version <= (3, 13):
            found.setdefault(version, exe)
    found.pop(tuple(sys.version_info[:2]), None)
    return list(found.values())


def test_golden_file_on_every_other_interpreter(run_bench, tmp_path):
    """README's claim: outputs are byte-identical on Python 3.10 to 3.13.
    All of them share this host's C library, so its ``exp``, ``log`` and
    ``log2``; other platforms are not covered."""
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other Python 3.10-3.13 interpreter found")
    run_bench.generate(run_bench.GOLDEN_SEED, run_bench.GOLDEN_WORKLOAD.profile, tmp_path)
    expected = (BENCH / "golden" / "seven_metrics.json").read_bytes()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for k, exe in enumerate(interpreters):
        out = f"out{k}.json"
        argv = [exe, "-B", "-m", "mteval", *run_bench.GOLDEN_WORKLOAD.argv(out)]
        child = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert child.returncode == 0, (exe, child.stderr)
        assert (tmp_path / out).read_bytes() == expected, exe


# Every hypothesis of the golden corpus has its references' length, so it
# leaves the length terms at their neutral values: NIST's ``y * y`` factor,
# BLEU's brevity penalty, EBLEU's length score and LEPOR's length penalty.
UNEQUAL_VOCAB = "the a cat dog sat ran on far mat home big old".split()
UNEQUAL_ARGV = [
    "score", "--hyp", "hyp.txt", "--ref", "ref0.txt", "--ref", "ref1.txt",
    "--lexicon", "lexicon.txt", "--format", "json", "--per-sentence",
    *(flag for metric in ("ebleu", "bleu", "nist", "ter", "meteor", "lepor", "ribes")
      for flag in ("--metric", metric)),
]


def write_unequal_length_corpus(work: Path) -> None:
    """Write 60 pairs into ``work`` for ``UNEQUAL_ARGV``: short, long and
    empty hypotheses, each with two references of other lengths, which in
    every fourth pair are equally close to the hypothesis length; and a
    two-line lexicon."""
    rng = random.Random(23)

    def reference(hyp: list[str], length: int) -> str:
        kept = [w if rng.random() < 0.7 else rng.choice(UNEQUAL_VOCAB) for w in hyp]
        extra = [rng.choice(UNEQUAL_VOCAB) for _ in range(length - len(hyp))]
        return " ".join((kept + extra)[:length])

    lines: list[list[str]] = [[], [], []]
    for i in range(60):
        h = 0 if i == 0 else rng.choice((rng.randint(2, 4), rng.randint(12, 30)))
        hyp = [rng.choice(UNEQUAL_VOCAB) for _ in range(h)]
        if i % 4 == 1:
            d = rng.randint(1, h - 1)
            lengths = [h - d, h + d]
        else:
            lengths = [max(1, h + rng.randint(-2, 6)), h + rng.randint(3, 12)]
        rng.shuffle(lengths)
        texts = [" ".join(hyp)] + [reference(hyp, n) for n in lengths]
        for column, text in zip(lines, texts):
            column.append(text)
    for name, column in zip(("hyp.txt", "ref0.txt", "ref1.txt"), lines):
        (work / name).write_text("\n".join(column) + "\n", encoding="utf-8")
    (work / "lexicon.txt").write_text("cat, dog\nsat, ran, on\n", encoding="utf-8")


def score_unequal_lengths(work: Path, monkeypatch) -> bytes:
    monkeypatch.chdir(work)
    assert main([*UNEQUAL_ARGV, "--out", "out.json"]) == 0
    return (work / "out.json").read_bytes()


def test_unequal_lengths_do_not_depend_on_the_builtin_sum(tmp_path, monkeypatch):
    write_unequal_length_corpus(tmp_path)
    expected = score_unequal_lengths(tmp_path, monkeypatch)
    metrics = json.loads(expected)["metrics"]
    assert metrics["bleu"]["details"]["brevity_penalty"] < 1.0
    assert metrics["ebleu"]["details"]["length_score"] < 0.0
    for module in (refmetrics, ebleu, bleu, corpus, ngram):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert score_unequal_lengths(tmp_path, monkeypatch) == expected


def test_unequal_lengths_on_every_other_interpreter(tmp_path, monkeypatch):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other Python 3.10-3.13 interpreter found")
    write_unequal_length_corpus(tmp_path)
    expected = score_unequal_lengths(tmp_path, monkeypatch)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for k, exe in enumerate(interpreters):
        out = f"out{k}.json"
        argv = [exe, "-B", "-m", "mteval", *UNEQUAL_ARGV, "--out", out]
        child = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert child.returncode == 0, (exe, child.stderr)
        assert (tmp_path / out).read_bytes() == expected, exe


def test_seven_metrics_do_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    """Sets and dicts of words iterate in an order that ``PYTHONHASHSEED``
    decides; no score, per-sentence score or detail may follow it."""
    write_unequal_length_corpus(tmp_path)
    expected = score_unequal_lengths(tmp_path, monkeypatch)
    for seed in ("0", "1", "4294967295"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed}
        argv = [sys.executable, "-B", "-m", "mteval", *UNEQUAL_ARGV, "--out", f"out{seed}.json"]
        child = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert child.returncode == 0, (seed, child.stderr)
        assert (tmp_path / f"out{seed}.json").read_bytes() == expected, seed

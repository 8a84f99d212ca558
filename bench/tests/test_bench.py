"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import make_golden  # noqa: E402
import run_bench  # noqa: E402
import traced  # noqa: E402
from corpusgen import generate  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_a_function_of_the_seed(tmp_path):
    profile = dataclasses.replace(run_bench.SUITE_PROFILE, pairs=40)
    generate(7, profile, tmp_path / "a")
    generate(7, profile, tmp_path / "b")
    generate(8, profile, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    a, c = _files(tmp_path / "a"), _files(tmp_path / "c")
    assert a.keys() == c.keys()
    assert all(a[name] != c[name] for name in a)


def test_seed_changes_content_not_lengths(tmp_path):
    profile = dataclasses.replace(run_bench.TER_PROFILE, pairs=50)
    lengths = []
    for seed in (1, 2):
        generate(seed, profile, tmp_path / str(seed))
        lines = (tmp_path / str(seed) / "ref0.txt").read_text().splitlines()
        lengths.append(sorted(len(line.split()) for line in lines))
    assert lengths[0] == lengths[1] == profile.lengths()


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run_bench, "MIN_SAMPLES", 1)


@pytest.mark.parametrize("name", sorted(run_bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_workload_runs_end_to_end(quick, monkeypatch, tmp_path, name, trace):
    workload = run_bench.WORKLOADS[name]
    small = dataclasses.replace(workload, profile=dataclasses.replace(workload.profile, pairs=12))
    # The committed digests are for the full-size profile; the smoke size is
    # checked against the same CLI run in this process.
    expected = run_bench.digest(make_golden.score(small, 3, tmp_path))
    monkeypatch.setattr(run_bench, "golden_digests", lambda w: {"3": expected})
    result = run_bench.run(small, seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert metrics["corpus.pairs"] == 12
        scorer_calls = {"suite-corpus": 6, "suite-sentence": 6 + 4 * 12, "ter-reorder": 1 + 12}
        assert metrics["cli.scorer_calls"] == scorer_calls[name]
        # cli.main's own time is argument parsing, the one-pair corpora and
        # formatting; a layer left unwrapped would be counted here instead.
        scored = metrics["trace.wall_s"] - metrics["import.mteval_s"]
        assert metrics["cli.self_s"] < 0.2 * scored
    else:
        assert all(value > 0 for value in metrics.values())


def test_golden_check_rejects_a_perturbed_output(tmp_path, monkeypatch):
    golden = tmp_path / "golden"
    shutil.copytree(run_bench.GOLDEN, golden)
    monkeypatch.setattr(run_bench, "GOLDEN", golden)
    assert run_bench.check_golden_file(tmp_path / "ok")
    text = (golden / "seven_metrics.json").read_text()
    # one changed digit in the first score
    at = text.index('"score": ') + len('"score": ') + 4
    digit = str((int(text[at]) + 1) % 10)
    (golden / "seven_metrics.json").write_text(text[:at] + digit + text[at + 1 :])
    assert not run_bench.check_golden_file(tmp_path / "bad")


def test_output_check_rejects_a_changed_byte(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("EBLEU\n41.00\n")
    check = run_bench.OutputCheck(run_bench.digest(out))
    assert check(0, out)
    assert not check(1, out)
    out.write_text("EBLEU\n41.01\n")
    assert not check(0, out)


def test_every_seed_has_a_committed_digest():
    for workload in run_bench.WORKLOADS.values():
        digests = run_bench.golden_digests(workload)
        assert sorted(map(int, digests)) == list(range(run_bench.GOLDEN_SEEDS))


def test_runs_without_a_committed_digest_fail(quick):
    workload = run_bench.WORKLOADS["ter-reorder"]
    changed = dataclasses.replace(workload, profile=dataclasses.replace(workload.profile, pairs=5))
    assert run_bench.golden_digests(changed) == {}
    result = run_bench.run(changed, seed=0, seconds=0, trace=False)
    assert not result["correct"] and result["failed"] > 0


def test_wrappers_are_restored_after_a_traced_run(tmp_path, monkeypatch):
    import mteval.bleu
    import mteval.cli
    import mteval.ebleu

    modules = (mteval.cli, mteval.ebleu, mteval.bleu)
    before = [dict(vars(m)) for m in modules]
    generate(0, run_bench.GOLDEN_PROFILE, tmp_path)
    monkeypatch.chdir(tmp_path)
    report = traced.run(run_bench.GOLDEN_WORKLOAD.argv("out.json"), trace=True)
    assert report["rc"] == 0 and len(report["spans"]) > 1
    expected = (run_bench.GOLDEN / "seven_metrics.json").read_bytes()
    assert (tmp_path / "out.json").read_bytes() == expected
    assert [dict(vars(m)) for m in modules] == before


def test_wrappers_are_restored_when_the_run_raises():
    def scorer(corpus):
        raise RuntimeError("scorer failed")

    module = types.ModuleType("fake")
    module.scorer = scorer
    tracer = traced.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed([(module, "scorer", "layer", None)]):
            assert module.scorer is not scorer
            module.scorer(None)
    assert module.scorer is scorer
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    self_s, calls, _ = traced._self_times(spans)
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls["b"] == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert traced.tail_percentile(200) == 95.0
    assert traced.tail_percentile(1000) == 99.0
    assert traced.tail_percentile(12) == 50.0

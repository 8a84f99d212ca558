"""One in-process ``mteval score`` run in a fresh interpreter, traced or not.

Run as a script by ``run_bench.py``::

    python3 bench/traced.py REPORT [--trace] -- <mteval argv>

It times ``import mteval.cli``, then calls ``mteval.cli.main(argv)``.
With ``--trace`` it first replaces the module attributes the code looks
up at call time with wrappers that record a span per call (name, start,
end, parent) and a few counters, and restores them afterwards. Spans stay
in memory and go to the REPORT file as JSON when the run ends.

``summarize`` turns a list of such reports into per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

from corpusgen import percentile

# scorer attribute of mteval.cli -> layer name
SCORERS = {
    "ebleu_score": "ebleu",
    "bleu_score": "bleu",
    "nist_score": "refmetrics.nist",
    "meteor_score": "refmetrics.meteor",
    "lepor_score": "refmetrics.lepor",
    "ribes_score": "refmetrics.ribes",
    "ter_score": "refmetrics.ter",
}
REF_METRICS = ("nist", "meteor", "lepor", "ribes", "ter")

# Percentiles tried for a tail figure, highest first; the tail is the
# highest one with at least ten samples beyond it.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """Spans and counters recorded by wrappers around module attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str | Callable, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` recorded as a span; ``name`` may be computed from the call's args."""

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            span = Span(label, time.perf_counter(), 0.0, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counters, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets: list[tuple[ModuleType, str, str | Callable, Callable | None]]):
        """Replace each ``module.attr`` by a recording wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def mteval_targets(tracer: Tracer, cli: ModuleType, ebleu: ModuleType, bleu: ModuleType) -> list:
    """The call-time lookups of ``mteval score`` that mark a layer boundary."""

    def loaded(counters, corpus):
        counters["corpus.pairs"] += len(corpus)
        counters["corpus.hyp_tokens"] += corpus.hypothesis_token_count()
        counters["corpus.ref_tokens"] += corpus.reference_token_count()

    def scorer_name(layer):
        # A call on anything but the whole loaded corpus is a one-pair call
        # from the per-sentence pass.
        def name(args):
            whole = len(args[0]) == tracer.counters["corpus.pairs"]
            return f"{layer}.{'corpus' if whole else 'sentence'}"

        return name

    def bump(key, amount):
        return lambda counters, result: counters.update({key: amount(result)})

    return [
        (cli, "load_parallel_corpus", "corpus.load", loaded),
        (cli, "load_synonym_lexicon", "corpus.lexicon", bump("corpus.lexicon_words", len)),
        (ebleu, "build_rare_word_set", "corpus.rare",
         bump("ebleu.rare_words", lambda r: len(r.words))),
        (ebleu, "synonym_substitute", "ebleu.substitute",
         bump("ebleu.substitutions", lambda r: len(r.substituted_positions))),
        (bleu, "extract_ngrams", "ngram.extract", None),
    ] + [(cli, attr, scorer_name(layer), None) for attr, layer in SCORERS.items()]


def run(argv: list[str], trace: bool) -> dict:
    """Import and run the CLI in this process; the report as a dict."""
    t0 = time.perf_counter()
    import mteval.bleu
    import mteval.cli
    import mteval.ebleu

    t1 = time.perf_counter()
    tracer = Tracer()
    if trace:
        with tracer.installed(mteval_targets(tracer, mteval.cli, mteval.ebleu, mteval.bleu)):
            rc = tracer.wrap("cli.main", mteval.cli.main)(argv)
    else:
        rc = mteval.cli.main(argv)
    t2 = time.perf_counter()
    return {
        "rc": rc,
        "import_s": t1 - t0,
        "wall_s": t2 - t0,
        "spans": [[s.name, s.start, s.end, s.parent] for s in tracer.spans],
        "counters": dict(tracer.counters),
    }


def _self_times(spans: list) -> tuple[Counter, Counter, list[float]]:
    """Per-name self time and call count, and every TER one-pair duration."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    self_s: Counter = Counter()
    calls: Counter = Counter()
    ter_pairs = []
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] += end - start - child[i]
        calls[name] += 1
        if name == "refmetrics.ter.sentence":
            ter_pairs.append(end - start)
    return self_s, calls, ter_pairs


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten of ``count`` samples beyond it."""
    for pct in _TAIL_LADDER:
        if count * (1 - pct / 100) >= 10:
            return pct
    return 50.0


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced report."""
    self_s, calls, ter_pairs = _self_times(report["spans"])
    counters = report["counters"]
    m = {
        "import.mteval_s": report["import_s"],
        "corpus.load_s": self_s["corpus.load"],
        "corpus.lexicon_s": self_s["corpus.lexicon"],
        "corpus.rare_s": self_s["corpus.rare"],
        "ebleu.corpus_s": self_s["ebleu.corpus"],
        "ebleu.substitute_s": self_s["ebleu.substitute"],
        "bleu.corpus_s": self_s["bleu.corpus"],
        "ngram.extract_s": self_s["ngram.extract"],
    }
    for metric in REF_METRICS:
        m[f"refmetrics.{metric}.corpus_s"] = self_s[f"refmetrics.{metric}.corpus"]
        m[f"refmetrics.{metric}.sentence_s"] = self_s[f"refmetrics.{metric}.sentence"]
        m[f"refmetrics.{metric}.sentence_calls"] = calls[f"refmetrics.{metric}.sentence"]
    tail = tail_percentile(len(ter_pairs))
    m["refmetrics.ter.pair_ms.p50"] = 1000 * percentile(ter_pairs, 50) if ter_pairs else 0.0
    m["refmetrics.ter.pair_ms.tail"] = 1000 * percentile(ter_pairs, tail) if ter_pairs else 0.0
    m["refmetrics.ter.pair_ms.tail_pct"] = tail if ter_pairs else 0.0
    m["cli.self_s"] = self_s["cli.main"]
    m["trace.wall_s"] = report["wall_s"]
    for key in ("corpus.pairs", "corpus.hyp_tokens", "corpus.ref_tokens", "corpus.lexicon_words",
                "ebleu.substitutions", "ebleu.rare_words"):
        m[key] = counters.get(key, 0)
    m["ngram.extract_calls"] = calls["ngram.extract"]
    m["cli.scorer_calls"] = sum(
        calls[f"{layer}.{kind}"] for layer in SCORERS.values() for kind in ("corpus", "sentence")
    )
    return m


def unit(metric: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if metric.endswith("_s"):
        return "s"
    if ".pair_ms." in metric:
        return "pct" if metric.endswith("tail_pct") else "ms"
    return "count"


def summarize(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Median of every per-layer metric over the traced reports, plus overhead."""
    per_run = [layer_metrics(r) for r in traced]
    out = {key: statistics.median(run[key] for run in per_run) for key in per_run[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(r["wall_s"] for r in untraced)
    return out


if __name__ == "__main__":
    report_path, *rest = sys.argv[1:]
    split = rest.index("--")
    report = run(rest[split + 1 :], trace="--trace" in rest[:split])
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)

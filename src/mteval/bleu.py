"""Corpus-level BLEU: brevity penalty times weighted geometric n-gram precision.

Per-order statistics are pooled across the corpus (clipped matches and
hypothesis totals are summed before dividing), the standard resolution
for corpus scoring. The score is ``bp * exp(sum_n w_n * log(p_n))`` and
collapses to zero when any pooled precision is zero and no smoothing is
enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import EvalPair, ParallelCorpus
from .errors import EmptyCorpusError
from .ngram import extract_ngrams, max_ref_counts


@dataclass(frozen=True)
class BleuConfig:
    """Maximum n-gram order, per-order weights, and optional smoothing.

    ``weights`` defaults to uniform 1/N. A positive ``smoothing_epsilon``
    replaces a zero pooled precision with ``epsilon / hypothesis n-gram
    total`` instead of zeroing the whole score.
    """

    max_order: int = 4
    weights: tuple[float, ...] | None = None
    smoothing_epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {self.max_order}")
        if self.smoothing_epsilon < 0.0:
            raise ValueError("smoothing_epsilon must be non-negative")
        if self.weights is not None:
            if len(self.weights) != self.max_order:
                raise ValueError(
                    f"need {self.max_order} weights, got {len(self.weights)}"
                )
            if any(w <= 0.0 for w in self.weights):
                raise ValueError("weights must be positive")
            if abs(math.fsum(self.weights) - 1.0) > 1e-9:
                raise ValueError("weights must sum to one")

    def resolved_weights(self) -> tuple[float, ...]:
        if self.weights is not None:
            return self.weights
        return tuple(1.0 / self.max_order for _ in range(self.max_order))


@dataclass
class MetricScore:
    """Corpus-level score with a per-sentence breakdown and intermediates."""

    metric_name: str
    corpus_score: float
    per_sentence: list[float]
    details: dict = field(default_factory=dict)


def brevity_penalty(c: int, r: float) -> float:
    """1 when the candidate is longer than the reference, exp(1 - r/c) otherwise.

    An empty candidate against a non-empty reference scores 0 by
    convention.
    """
    if c > r:
        return 1.0
    if c == 0:
        return 0.0 if r > 0 else 1.0
    return math.exp(1.0 - r / c)


def effective_reference_length(hyp_length: int, ref_lengths: Sequence[int]) -> int:
    """The reference length closest to the hypothesis length, ties to shorter."""
    return min(ref_lengths, key=lambda rl: (abs(rl - hyp_length), rl))


def _pair_order_stats(pair: EvalPair, max_order: int) -> list[tuple[int, int]]:
    """(clipped matches, hypothesis total) per order 1..max_order for one pair."""
    stats = []
    for n in range(1, max_order + 1):
        hyp_counts = extract_ngrams(pair.hypothesis, n)
        total = sum(hyp_counts.counts.values())
        if total == 0:
            stats.append((0, 0))
            continue
        best = max_ref_counts(pair.references, n).get
        clipped = sum(
            min(count, best(gram, 0)) for gram, count in hyp_counts.counts.items()
        )
        stats.append((clipped, total))
    return stats


def _combine(
    matched: Sequence[int],
    totals: Sequence[int],
    weights: Sequence[float],
    bp: float,
    epsilon: float,
) -> tuple[float, list[float]]:
    """Weighted log-average of the per-order precisions, scaled by ``bp``."""
    precisions = []
    log_sum = 0.0
    dead = False
    for m, t, w in zip(matched, totals, weights):
        p = m / t if t else 0.0
        precisions.append(p)
        if p == 0.0:
            if epsilon > 0.0 and t > 0:
                p = min(1.0, epsilon / t)
            else:
                dead = True
                continue
        log_sum += w * math.log(p)
    score = 0.0 if dead else bp * math.exp(log_sum)
    return score, precisions


def bleu_score(corpus: ParallelCorpus, cfg: BleuConfig = BleuConfig()) -> MetricScore:
    """Corpus BLEU with pooled per-order statistics.

    The effective reference length of each pair is the reference length
    closest to its hypothesis length (ties to shorter), summed over the
    corpus. Per-sentence entries apply the same formula restricted to a
    single pair.
    """
    if not corpus.pairs:
        raise EmptyCorpusError("cannot score an empty corpus")
    weights = cfg.resolved_weights()
    per_pair = []
    matched = [0] * cfg.max_order
    totals = [0] * cfg.max_order
    hyp_len = 0
    ref_len = 0
    for pair in corpus.pairs:
        stats = _pair_order_stats(pair, cfg.max_order)
        c = len(pair.hypothesis)
        r = effective_reference_length(c, [len(ref) for ref in pair.references])
        per_pair.append((stats, c, r))
        for i, (m, t) in enumerate(stats):
            matched[i] += m
            totals[i] += t
        hyp_len += c
        ref_len += r

    bp = brevity_penalty(hyp_len, ref_len)
    corpus_score, precisions = _combine(
        matched, totals, weights, bp, cfg.smoothing_epsilon
    )
    per_sentence = [
        _combine(
            [m for m, _ in stats],
            [t for _, t in stats],
            weights,
            brevity_penalty(c, r),
            cfg.smoothing_epsilon,
        )[0]
        for stats, c, r in per_pair
    ]
    return MetricScore(
        metric_name="bleu",
        corpus_score=corpus_score,
        per_sentence=per_sentence,
        details={
            "precisions": precisions,
            "brevity_penalty": bp,
            "hyp_length": hyp_len,
            "ref_length": ref_len,
            "matched": matched,
            "totals": totals,
        },
    )

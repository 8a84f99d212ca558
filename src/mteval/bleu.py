"""Corpus-level BLEU: brevity penalty times weighted geometric n-gram precision.

Per-order statistics are pooled across the corpus (clipped matches and
hypothesis totals are summed before dividing), the standard resolution
for corpus scoring: each pair gives its statistics as the columns of
``order_columns``, and ``corpus.reduce_pairs`` adds them up before the
formula scores the totals. The score is ``bp * exp(sum_n w_n *
log(p_n))`` and collapses to zero when any pooled precision is zero and
no smoothing is enabled.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .corpus import EvalPair, ParallelCorpus, reduce_pairs
from .ngram import clipped_counts, max_ref_counts, window_total
# bench/traced.py times BLEU's n-gram counting through this module-global name.
from .ngram import window_counts as extract_ngrams
from .records import checked


@checked
class BleuConfig(NamedTuple):
    """Maximum n-gram order, per-order weights, and optional smoothing.

    ``weights`` defaults to uniform 1/N. A positive ``smoothing_epsilon``,
    below 1, floors a zero pooled precision at ``epsilon / t``, t the
    hypothesis n-gram total, but an order with no n-grams (t = 0) still
    zeroes the score.
    """

    max_order: int = 4
    weights: tuple[float, ...] | None = None
    smoothing_epsilon: float = 0.0

    def _check(self) -> None:
        if self.max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {self.max_order}")
        # Chained range checks: NaN fails every comparison, so it is rejected.
        # An epsilon of 1 or more would floor a zero precision at 1/t or
        # more, scoring a hypothesis that shares no word as a match.
        if not 0.0 <= self.smoothing_epsilon < 1.0:
            raise ValueError("smoothing_epsilon must be finite and in [0, 1)")
        if self.weights is not None:
            if len(self.weights) != self.max_order:
                raise ValueError(
                    f"need {self.max_order} weights, got {len(self.weights)}"
                )
            if not all(0.0 < w < math.inf for w in self.weights):
                raise ValueError("weights must be finite and positive")
            if abs(math.fsum(self.weights) - 1.0) > 1e-9:
                raise ValueError("weights must sum to one")

    def resolved_weights(self) -> tuple[float, ...]:
        if self.weights is not None:
            return self.weights
        return tuple(1.0 / self.max_order for _ in range(self.max_order))


class _MetricScoreFields(NamedTuple):
    metric_name: str
    corpus_score: float
    per_sentence: list[float]
    details: dict


class MetricScore(_MetricScoreFields):
    """Corpus-level score with a per-sentence breakdown and intermediates;
    ``details`` defaults to a new empty dict for each instance."""

    __slots__ = ()

    def __new__(cls, metric_name, corpus_score, per_sentence, details=None):
        details = {} if details is None else details
        return super().__new__(cls, metric_name, corpus_score, per_sentence, details)


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
    """(clipped matches, hypothesis total) per order 1..max_order for one pair.

    The reference tables count only the hypothesis n-grams (``keep``), so
    they stop at the hypothesis length.
    """
    hyp = extract_ngrams(pair.hypothesis, max_order)
    best = max_ref_counts(pair.references, min(max_order, len(pair.hypothesis)), hyp)
    matched = [0] * max_order
    for gram, m in clipped_counts(hyp, best):
        matched[len(gram) - 1] += m
    c = len(pair.hypothesis)
    return [(m, window_total(c, n)) for n, m in enumerate(matched, start=1)]


def modified_precision(pair: EvalPair, n: int) -> float:
    """Clipped matches divided by total hypothesis n-grams of order ``n``.

    Zero when the hypothesis has no n-grams of that order.
    """
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    matched, total = _pair_order_stats(pair, n)[-1]
    return matched / total if total else 0.0


def order_columns(pair: EvalPair, orders: Sequence[tuple]) -> list:
    """The columns ``m_1..m_N, t_1..t_N, c, r`` of a pair's BLEU-style
    statistics, from its per-order ``(matched, total)``: ``c`` is the
    hypothesis length and ``r`` its effective reference length."""
    c = len(pair.hypothesis)
    r = effective_reference_length(c, [len(ref) for ref in pair.references])
    return [m for m, _ in orders] + [t for _, t in orders] + [c, r]


def bleu_score(corpus: ParallelCorpus, cfg: BleuConfig = BleuConfig()) -> MetricScore:
    """Corpus BLEU with pooled per-order statistics.

    The effective reference length of each pair is the reference length
    closest to its hypothesis length (ties to shorter), summed over the
    corpus. A per-sentence score is the formula applied to that pair's
    columns alone (see ``order_columns``).
    """
    weights = cfg.resolved_weights()
    n = cfg.max_order

    def pair_stats(pair):
        return order_columns(pair, _pair_order_stats(pair, n))

    def score(columns):
        matched, totals = columns[:n], columns[n : 2 * n]
        hyp_len, ref_len = columns[2 * n :]
        bp = brevity_penalty(hyp_len, ref_len)
        # Weighted log-average of the per-order precisions, scaled by bp.
        precisions = []
        log_sum = 0.0
        dead = False
        for m, t, w in zip(matched, totals, weights):
            p = m / t if t else 0.0
            precisions.append(p)
            if p == 0.0:
                if cfg.smoothing_epsilon > 0.0 and t > 0:
                    p = cfg.smoothing_epsilon / t
                else:
                    dead = True
                    continue
            log_sum += w * math.log(p)
        return 0.0 if dead else bp * math.exp(log_sum), {
            "precisions": precisions,
            "brevity_penalty": bp,
            "hyp_length": hyp_len,
            "ref_length": ref_len,
            "matched": matched,
            "totals": totals,
        }

    per_sentence: list[float] = []
    corpus_score, details = reduce_pairs(corpus, pair_stats, score, per_sentence)
    return MetricScore("bleu", corpus_score, per_sentence, details)

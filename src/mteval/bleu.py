"""Corpus-level BLEU: brevity penalty times weighted geometric n-gram precision.

Per-order statistics are pooled across the corpus (clipped matches and
hypothesis totals are summed before dividing), the standard resolution
for corpus scoring: each pair gives its statistics as the columns of
``order_columns``, and ``corpus.reduce_pairs`` adds them up before the
formula scores the totals. The score is ``bp * exp(sum_n w_n *
log(p_n))`` and collapses to zero when any pooled precision is zero and
no smoothing is enabled.
A pair's clipped matches are NIST's (Doddington 2002) summed per order,
so ``bleu_score`` can read them from ``refmetrics.nist_score``'s pass.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

from .corpus import EvalPair, ParallelCorpus, reduce_pairs
from .ngram import check_order, clipped_counts, matches_per_order, max_ref_counts
from .ngram import window_total
# bench/traced.py times hypothesis n-gram counting, BLEU's and NIST's, through
# this module-global name.
from .ngram import window_counts as extract_ngrams
from .records import checked


@checked
class BleuConfig(NamedTuple):
    """Maximum n-gram order, per-order weights, and optional smoothing.

    ``weights`` defaults to uniform 1/N. A positive ``smoothing_epsilon``,
    a normal float below 1, floors a zero pooled precision at
    ``epsilon / t``, t the hypothesis n-gram total, but an order with no
    n-grams (t = 0) still zeroes the score.
    """

    max_order: int = 4
    weights: tuple[float, ...] | None = None
    smoothing_epsilon: float = 0.0

    def _check(self) -> None:
        check_order(self.max_order)
        # Chained range checks: NaN fails every comparison, so it is rejected.
        # An epsilon of 1 or more floors a zero precision at 1/t or more and a
        # zero EBLEU order score at 1: a hypothesis sharing no word would match.
        # A subnormal epsilon can floor it at epsilon / t = 0.0, whose log fails.
        eps = self.smoothing_epsilon
        if not (eps == 0.0 or sys.float_info.min <= eps < 1.0):
            raise ValueError(
                "smoothing_epsilon must be finite, 0 or a normal float below 1,"
                f" got {eps}"
            )
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


class MetricScore(NamedTuple):
    """A corpus score and the intermediates its formula computed."""

    corpus_score: float
    details: dict


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


def _clipped_matches(pair: EvalPair, max_order: int) -> list[int]:
    """The clipped matches per order 1..max_order of one pair.

    The reference tables count only the hypothesis n-grams (``keep``), so
    they stop at the hypothesis length.
    """
    hyp = extract_ngrams(pair.hypothesis, max_order)
    top = min(max_order, len(pair.hypothesis))
    best = max_ref_counts(pair.references, top, hyp)
    return matches_per_order(clipped_counts(hyp, best), max_order)


def modified_precision(pair: EvalPair, n: int) -> float:
    """Clipped matches divided by total hypothesis n-grams of order ``n``.

    Zero when the hypothesis has no n-grams of that order.
    """
    check_order(n, "n-gram order")
    total = window_total(len(pair.hypothesis), n)
    return _clipped_matches(pair, n)[-1] / total if total else 0.0


def order_columns(pair: EvalPair, matched: Sequence[float]) -> list:
    """The columns ``m_1..m_N, t_1..t_N, c, r`` of a pair's BLEU-style
    statistics, from its per-order ``matched``: ``t_n`` is the number of
    order-``n`` hypothesis windows, ``c`` the hypothesis length and ``r``
    its effective reference length."""
    c = len(pair.hypothesis)
    r = effective_reference_length(c, [len(ref) for ref in pair.references])
    totals = [window_total(c, n) for n in range(1, len(matched) + 1)]
    return [*matched, *totals, c, r]


def bleu_score(
    corpus: ParallelCorpus,
    cfg: BleuConfig = BleuConfig(),
    *,
    per_sentence: list[float] | None = None,
    matched_per_order: Sequence[Sequence[int]] | None = None,
) -> MetricScore:
    """Corpus BLEU with pooled per-order statistics.

    The effective reference length of each pair is the reference length
    closest to its hypothesis length (ties to shorter), summed over the
    corpus. A pair's columns are ``order_columns`` of its clipped matches.
    Given a ``per_sentence`` list, each pair's score, the formula applied
    to that pair's columns alone, is appended to it from the same pass.

    Given ``matched_per_order``, as ``refmetrics.nist_score`` fills it,
    each pair's clipped matches are the first ``cfg.max_order`` of its
    entry, the same as counting them, and no n-gram is counted. Raises
    ``ValueError`` unless it has one entry per pair, each that long.
    """
    weights = cfg.resolved_weights()
    n = cfg.max_order
    if matched_per_order is None:
        matches = (_clipped_matches(pair, n) for pair in corpus.pairs)
    elif len(matched_per_order) != len(corpus) or any(
        len(matched) < n for matched in matched_per_order
    ):
        raise ValueError(f"need matches of {n} orders for each of {len(corpus)} pairs")
    else:
        matches = (matched[:n] for matched in matched_per_order)

    def pair_stats(pair):  # reduce_pairs runs in corpus order
        return order_columns(pair, next(matches))

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

    return MetricScore(*reduce_pairs(corpus, pair_stats, score, per_sentence))

"""Synonym- and rarity-aware BLEU variant with a log/exp cumulative score.

Three enhancements on top of plain n-gram precision:

* hypothesis words absent from the references are replaced by the
  synonym with the most remaining reference occurrences, and every
  match through a substituted word is discounted by ``synonym_score``;
* a matched n-gram containing at least one rare reference word has its
  credit multiplied once by ``rare_words_score``, with each order score
  clamped to 1 so sentence and corpus scores stay in [0, 1];
* order scores combine through a running log sum, giving cumulative
  scores ``C_i = (B_1 * ... * B_i)^(1/i) * exp(len_score)`` where
  ``len_score = min(0, 1 - ref_length / hyp_length)`` penalizes short
  output.

With an empty lexicon, a neutral rare-word bonus and no smoothing, the
corpus score equals uniform-weight BLEU. Smoothing floors a zero order
score at epsilon; BLEU floors a zero precision at epsilon / t, or not at t = 0.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, chain, compress
from operator import ne, sub
from typing import NamedTuple, Sequence

from .bleu import BleuConfig, MetricScore, order_columns
from .corpus import (
    EvalPair,
    ParallelCorpus,
    RareWordSet,
    SynonymLexicon,
    TokenSeq,
    build_rare_word_set,
    reduce_pairs,
)
from .errors import OrderMismatchError
from .ngram import _merge_max, max_ref_counts, order_windows, window_total
from .records import checked


@checked
class EbleuConfig(NamedTuple):
    max_order: int = 4
    synonym_score: float = 0.90
    rare_words_percent: float = 0.10
    rare_words_score: float = 1.10
    smoothing_epsilon: float = 0.0

    def _check(self) -> None:
        self.bleu_config()  # the order and the smoothing, by BLEU's rules
        if not 0.0 <= self.synonym_score <= 1.0:
            raise ValueError("synonym_score must be in [0, 1]")
        if not 0.0 < self.rare_words_percent <= 1.0:
            raise ValueError("rare_words_percent must be in (0, 1]")
        # Chained range checks: NaN fails every comparison, so it is rejected.
        if not 1.0 <= self.rare_words_score < math.inf:
            raise ValueError("rare_words_score must be finite and >= 1")

    def bleu_config(self) -> BleuConfig:
        """BLEU's config at this order and smoothing, which BLEU's rules check."""
        return BleuConfig(self.max_order, smoothing_epsilon=self.smoothing_epsilon)


class SubstitutionTrace(NamedTuple):
    """A hypothesis after synonym substitution, with the touched positions."""

    modified_hypothesis: TokenSeq
    substituted_positions: frozenset[int]


def synonym_substitute(pair: EvalPair, lexicon: SynonymLexicon) -> SubstitutionTrace:
    """Replace unmatched hypothesis words by their best-supported synonyms.

    Walks the hypothesis left to right against a per-word budget of
    reference occurrences (the maximum count over the references). A
    word with remaining budget is a match and consumes one occurrence.
    A word with none is replaced by the synonym holding the highest
    remaining budget, ties broken lexicographically, if any synonym has
    budget left; the replacement consumes an occurrence so two
    hypothesis words never claim the same reference word. The
    hypothesis length never changes.
    """
    refs = pair.references
    budget = _merge_max(Counter(refs[0]), map(Counter, refs[1:]))
    modified = list(pair.hypothesis)
    substituted: set[int] = set()
    for i, word in enumerate(modified):
        if budget[word] > 0:
            budget[word] -= 1
            continue
        candidates = [s for s in lexicon.synonyms(word) if budget[s] > 0]
        if not candidates:
            continue
        best = min(candidates, key=lambda s: (-budget[s], s))
        modified[i] = best
        budget[best] -= 1
        substituted.add(i)
    return SubstitutionTrace(
        modified_hypothesis=tuple(modified),
        substituted_positions=frozenset(substituted),
    )


def _pair_order_stats(
    trace: SubstitutionTrace,
    references: Sequence[TokenSeq],
    max_order: int,
    rare: RareWordSet,
    cfg: EbleuConfig,
) -> list[float]:
    """The weighted clipped matches per order 1..max_order of one pair.

    Each window of the modified hypothesis carries a weight: the synonym
    discount once per substituted position inside it, and the rare-word
    bonus once if it contains any rare word. A window's substitution
    count and rare-word flag are each one subtraction of prefix sums over
    the hypothesis (substituted positions and rare words before each
    position), built once for every order, and only the windows whose
    n-gram occurs in a reference are visited. Clipping caps how many
    instances of an n-gram may score at the pair's ``max_ref_counts``,
    dropping the lowest weights first. The reference tables count only
    the hypothesis's windows, and orders past the hypothesis length have
    no windows and score ``0.0`` without work.
    """
    hyp = trace.modified_hypothesis
    grams = [list(order) for order in order_windows(hyp, max_order)]
    allowed = max_ref_counts(references, len(grams), set(chain.from_iterable(grams)))
    substituted = map(trace.substituted_positions.__contains__, range(len(hyp)))
    subs = list(accumulate(substituted, initial=0))
    rares = list(accumulate(map(rare.words.__contains__, hyp), initial=0))
    # discount[k] is the weight of a window with k substituted positions.
    discount = [cfg.synonym_score**k for k in range(len(grams) + 1)]
    stats = []
    for n, order in enumerate(grams, start=1):
        weighted = zip(order, map(sub, subs[n:], subs), map(ne, rares[n:], rares))
        instances: dict[tuple, list[float]] = {}
        for gram, k, has_rare in compress(weighted, map(allowed.__contains__, order)):
            weight = discount[k]
            if has_rare:
                weight *= cfg.rare_words_score
            instances.setdefault(gram, []).append(weight)
        matched = 0.0
        for gram, weights in instances.items():
            if len(weights) == 1:  # kept at any cap; no weight is -0.0, so 0.0 + w is w
                matched += weights[0]
                continue
            cap = allowed[gram]
            weights.sort(reverse=True)
            kept = 0.0  # added in order: sum() compensates from Python 3.12
            for weight in weights[:cap]:
                kept += weight
            matched += kept
        stats.append(matched)
    return stats + [0.0] * (max_order - len(grams))


def _clamped_precision(matched: float, total: int) -> float:
    """``matched / total`` clamped to 1, and 0 for an order with no n-grams."""
    return min(1.0, matched / total) if total else 0.0


def ebleu_order_score(
    trace: SubstitutionTrace,
    pair: EvalPair,
    n: int,
    rare: RareWordSet,
    cfg: EbleuConfig,
) -> float:
    """Weighted modified precision for one order, clamped to [0, 1]."""
    if n < 1 or n > cfg.max_order:
        raise OrderMismatchError(f"order {n} outside 1..{cfg.max_order}")
    matched = _pair_order_stats(trace, pair.references, n, rare, cfg)[-1]
    return _clamped_precision(matched, window_total(len(trace.modified_hypothesis), n))


def ebleu_length_score(ref_length: float, hyp_length: int) -> float:
    """min(0, 1 - ref_length / hyp_length); zero unless the output is short."""
    if hyp_length <= 0:
        raise ValueError("hyp_length must be positive")
    return min(0.0, 1.0 - ref_length / hyp_length)


def ebleu_cumulative(order_scores: Sequence[float], len_score: float) -> list[float]:
    """Running log/exp combination of order scores.

    C_i = exp((log B_1 + ... + log B_i) / i + len_score), which equals
    the geometric mean of the first i order scores times
    exp(len_score). A zero order score zeroes every C from that order
    on; callers floor scores beforehand if smoothing is wanted.
    """
    out: list[float] = []
    log_sum = 0.0
    dead = False
    for i, b in enumerate(order_scores, start=1):
        if b <= 0.0:
            dead = True
        if dead:
            out.append(0.0)
            continue
        log_sum += math.log(b)
        out.append(math.exp(log_sum / i + len_score))
    return out


def ebleu_score(
    corpus: ParallelCorpus,
    lexicon: SynonymLexicon,
    cfg: EbleuConfig = EbleuConfig(),
    *,
    rare_words: RareWordSet | None = None,
    per_sentence: list[float] | None = None,
) -> MetricScore:
    """Corpus score: C_N over order scores pooled across all pairs.

    The rare-word set is built from the corpus references at
    ``cfg.rare_words_percent`` unless one is passed in. Reference length
    uses the same closest-length rule as BLEU, and a pair's statistics are
    the same columns (``bleu.order_columns``). Given a ``per_sentence``
    list, each pair's score, the formula applied to that pair's columns
    alone, weighed with the corpus's rare-word set, is appended to it from
    the same pass; it equals ``ebleu_score`` of the one-pair corpus when
    that set is passed as ``rare_words``.
    """
    if rare_words is None:
        rare_words = build_rare_word_set(
            corpus.all_references(), cfg.rare_words_percent
        )

    n = cfg.max_order

    def pair_stats(pair):
        trace = synonym_substitute(pair, lexicon)
        matched = _pair_order_stats(trace, pair.references, n, rare_words, cfg)
        return order_columns(pair, matched)

    def score(columns):
        matched, totals = columns[:n], columns[n : 2 * n]
        hyp_len, ref_len = columns[2 * n :]
        order_scores = list(map(_clamped_precision, matched, totals))
        if hyp_len == 0:
            cumulative, len_score = [0.0] * n, 0.0
        else:
            len_score = ebleu_length_score(ref_len, hyp_len)
            eps = cfg.smoothing_epsilon
            floored = [max(b, eps) for b in order_scores]
            cumulative = ebleu_cumulative(floored, len_score)
        return cumulative[-1], {
            "order_scores": order_scores,
            "cumulative_scores": cumulative,
            "length_score": len_score,
            "hyp_length": hyp_len,
            "ref_length": ref_len,
            "rare_word_count": len(rare_words.words),
        }

    return MetricScore(*reduce_pairs(corpus, pair_stats, score, per_sentence))

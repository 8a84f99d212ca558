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

With an empty lexicon and a neutral rare-word bonus the corpus score
equals uniform-weight BLEU.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .bleu import MetricScore, effective_reference_length
from .corpus import (
    EvalPair,
    ParallelCorpus,
    RareWordSet,
    SynonymLexicon,
    TokenSeq,
    build_rare_word_set,
)
from .errors import EmptyCorpusError, OrderMismatchError
from .ngram import max_ref_counts, windows


@dataclass(frozen=True)
class EbleuConfig:
    max_order: int = 4
    synonym_score: float = 0.90
    rare_words_percent: float = 0.10
    rare_words_score: float = 1.10
    smoothing_epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {self.max_order}")
        if not 0.0 <= self.synonym_score <= 1.0:
            raise ValueError("synonym_score must be in [0, 1]")
        if not 0.0 < self.rare_words_percent <= 1.0:
            raise ValueError("rare_words_percent must be in (0, 1]")
        if self.rare_words_score < 1.0:
            raise ValueError("rare_words_score must be >= 1")
        if self.smoothing_epsilon < 0.0:
            raise ValueError("smoothing_epsilon must be non-negative")


@dataclass(frozen=True)
class SubstitutionTrace:
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
    budget: Counter = Counter()
    for ref in pair.references:
        for word, count in Counter(ref).items():
            if count > budget[word]:
                budget[word] = count
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


def _order_stats(
    trace: SubstitutionTrace,
    pair: EvalPair,
    n: int,
    rare: RareWordSet,
    cfg: EbleuConfig,
) -> tuple[float, int]:
    """(weighted clipped matches, hypothesis n-gram total) for one order.

    Each window of the modified hypothesis carries a weight: the synonym
    discount once per substituted position inside it, and the rare-word
    bonus once if it contains any rare word. Clipping caps how many
    instances of an n-gram may score, dropping the lowest weights first.
    """
    hyp = trace.modified_hypothesis
    total = max(0, len(hyp) - n + 1)
    if total == 0:
        return 0.0, 0
    allowed = max_ref_counts(pair.references, n)
    substituted = trace.substituted_positions
    rare_words = rare.words
    instances: dict[tuple, list[float]] = {}
    for i, gram in enumerate(windows(hyp, n)):
        if gram not in allowed:
            continue
        # synonym_score ** 0 is 1.0, so a pair without substitutions
        # skips the count.
        weight = (
            cfg.synonym_score ** sum(1 for j in range(i, i + n) if j in substituted)
            if substituted
            else 1.0
        )
        if not rare_words.isdisjoint(gram):
            weight *= cfg.rare_words_score
        instances.setdefault(gram, []).append(weight)
    matched = 0.0
    for gram, weights in instances.items():
        cap = allowed[gram]
        weights.sort(reverse=True)
        matched += sum(weights[:cap])
    return matched, total


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
    matched, total = _order_stats(trace, pair, n, rare, cfg)
    if total == 0:
        return 0.0
    return min(1.0, matched / total)


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


def _cumulative_score(
    order_scores: Sequence[float],
    hyp_length: int,
    ref_length: float,
    cfg: EbleuConfig,
) -> tuple[float, list[float], float]:
    if hyp_length == 0:
        return 0.0, [0.0] * len(order_scores), 0.0
    len_score = ebleu_length_score(ref_length, hyp_length)
    eps = cfg.smoothing_epsilon
    floored = [min(1.0, max(b, eps)) if eps > 0.0 else b for b in order_scores]
    cumulative = ebleu_cumulative(floored, len_score)
    return cumulative[-1], cumulative, len_score


def ebleu_score(
    corpus: ParallelCorpus,
    lexicon: SynonymLexicon,
    cfg: EbleuConfig = EbleuConfig(),
    *,
    rare_words: RareWordSet | None = None,
) -> MetricScore:
    """Corpus score: C_N over order scores pooled across all pairs.

    The rare-word set is built from the corpus references at
    ``cfg.rare_words_percent`` unless one is passed in. Reference length
    uses the same closest-length rule as BLEU. Per-sentence entries
    apply the identical computation to a single pair.
    """
    if not corpus.pairs:
        raise EmptyCorpusError("cannot score an empty corpus")
    if rare_words is None:
        rare_words = build_rare_word_set(
            corpus.all_references(), cfg.rare_words_percent
        )
    per_pair = []
    matched = [0.0] * cfg.max_order
    totals = [0] * cfg.max_order
    hyp_len = 0
    ref_len = 0
    for pair in corpus.pairs:
        trace = synonym_substitute(pair, lexicon)
        stats = [
            _order_stats(trace, pair, n, rare_words, cfg)
            for n in range(1, cfg.max_order + 1)
        ]
        c = len(pair.hypothesis)
        r = effective_reference_length(c, [len(ref) for ref in pair.references])
        per_pair.append((stats, c, r))
        for i, (m, t) in enumerate(stats):
            matched[i] += m
            totals[i] += t
        hyp_len += c
        ref_len += r

    order_scores = [
        min(1.0, m / t) if t else 0.0 for m, t in zip(matched, totals)
    ]
    corpus_score, cumulative, len_score = _cumulative_score(
        order_scores, hyp_len, ref_len, cfg
    )
    per_sentence = []
    for stats, c, r in per_pair:
        pair_orders = [min(1.0, m / t) if t else 0.0 for m, t in stats]
        per_sentence.append(_cumulative_score(pair_orders, c, r, cfg)[0])
    return MetricScore(
        metric_name="ebleu",
        corpus_score=corpus_score,
        per_sentence=per_sentence,
        details={
            "order_scores": order_scores,
            "cumulative_scores": cumulative,
            "length_score": len_score,
            "hyp_length": hyp_len,
            "ref_length": ref_len,
            "rare_word_count": len(rare_words.words),
        },
    )

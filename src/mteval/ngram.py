"""N-gram extraction, reference-clipped counting, and modified precision.

The one n-gram counting path of the package. ``windows`` yields the
order-``n`` windows of a sentence, built at C level by zipping ``n``
shifted slices; ``window_counts`` counts them, and ``max_ref_counts``
merges the references of a pair into the elementwise maximum that
clipping caps against. BLEU counts the hypothesis through
``extract_ngrams`` and the references through ``max_ref_counts``. EBLEU
weighs the ``windows`` of its substituted hypothesis and clips them
against ``max_ref_counts``. NIST clips each pair with ``window_counts``
and ``max_ref_counts``, then pools the reference ``windows`` it scores.
All functions are pure and safe for per-sentence data parallelism.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .corpus import EvalPair
from .errors import OrderMismatchError

NGram = tuple[str, ...]


@dataclass
class NGramCounts:
    order: int
    counts: Counter = field(default_factory=Counter)


def windows(tokens: Sequence[str], n: int) -> Iterator[NGram]:
    """Every contiguous window of length ``n``, left to right (none if n < 1).

    A sentence shorter than ``n`` has none and builds no slice, so its
    cost does not grow with ``n``.
    """
    if n > len(tokens):
        return iter(())
    return zip(*[tokens[i:] for i in range(n)])


def window_counts(tokens: Sequence[str], n: int) -> Counter:
    """Windows of length ``n`` with multiplicity, in first-occurrence order."""
    return Counter(windows(tokens, n))


def _merge_max(merged: Counter, tables: Iterable[Counter]) -> Counter:
    """Raise each count of ``merged`` in place to its maximum over ``tables``."""
    get = merged.get
    for table in tables:
        for gram, count in table.items():
            if count > get(gram, 0):
                merged[gram] = count
    return merged


def max_ref_counts(refs: Sequence[Sequence[str]], n: int) -> Counter:
    """Elementwise maximum of the order-``n`` window counts of ``refs``."""
    if not refs:
        return Counter()
    return _merge_max(
        window_counts(refs[0], n), (window_counts(ref, n) for ref in refs[1:])
    )


def extract_ngrams(tokens: Sequence[str], n: int) -> NGramCounts:
    """Count every contiguous window of length ``n`` with multiplicity."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return NGramCounts(order=n, counts=window_counts(tokens, n))


def max_counts(counts_list: Sequence[NGramCounts]) -> Counter:
    """Elementwise maximum over several count tables of the same order."""
    return _merge_max(Counter(), (nc.counts for nc in counts_list))


def clipped_match_count(
    hyp_counts: NGramCounts, ref_counts_list: Sequence[NGramCounts]
) -> int:
    """Sum of hypothesis n-gram counts clipped at the best reference count.

    Each hypothesis n-gram contributes min(hypothesis count, max count
    over the references), which prevents credit inflation by repetition.
    """
    for rc in ref_counts_list:
        if rc.order != hyp_counts.order:
            raise OrderMismatchError(
                f"cannot clip order-{hyp_counts.order} counts against order-{rc.order} counts"
            )
    best = max_counts(ref_counts_list)
    return sum(min(count, best[gram]) for gram, count in hyp_counts.counts.items())


def modified_precision(pair: EvalPair, n: int) -> float:
    """Clipped matches divided by total hypothesis n-grams of order ``n``.

    Zero when the hypothesis has no n-grams of that order.
    """
    hyp_counts = extract_ngrams(pair.hypothesis, n)
    total = sum(hyp_counts.counts.values())
    if total == 0:
        return 0.0
    refs = [extract_ngrams(ref, n) for ref in pair.references]
    return clipped_match_count(hyp_counts, refs) / total

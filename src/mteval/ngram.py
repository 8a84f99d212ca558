"""N-gram extraction, reference-clipped counting, and modified precision.

The one n-gram counting and clipping path of the package. ``windows``
yields the order-``n`` windows of a sentence, built at C level by
zipping ``n`` shifted slices, and ``window_total`` counts them;
``window_counts`` tallies them, and ``max_ref_counts`` merges a pair's
references into the elementwise maximum that clipping caps at.
``clipped_counts`` is the clipping rule (Papineni et al. 2002) behind
BLEU's and NIST's matches, ``clipped_match_count`` and
``modified_precision``. EBLEU caps its weighted windows at
``max_ref_counts`` by a rule of its own, dropping the lowest weights
first. All functions are pure and safe for per-sentence data parallelism.
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


def window_total(length: int, n: int) -> int:
    """How many order-``n`` windows a sentence of ``length`` tokens has."""
    return max(0, length - n + 1)


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


def clipped_counts(hyp_counts: Counter, best: Counter) -> Iterator[tuple[NGram, int]]:
    """Each hypothesis n-gram with its count clipped at ``best``, the
    maximum count in any reference: ``(gram, min(count, best[gram]))``
    in first-occurrence order."""
    get = best.get
    for gram, count in hyp_counts.items():
        cap = get(gram, 0)
        yield gram, (count if count < cap else cap)  # min(), without a call per n-gram


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
    best = _merge_max(Counter(), (rc.counts for rc in ref_counts_list))
    return sum(m for _, m in clipped_counts(hyp_counts.counts, best))


def modified_precision(pair: EvalPair, n: int) -> float:
    """Clipped matches divided by total hypothesis n-grams of order ``n``.

    Zero when the hypothesis has no n-grams of that order.
    """
    hyp_counts = extract_ngrams(pair.hypothesis, n)
    total = window_total(len(pair.hypothesis), n)
    if total == 0:
        return 0.0
    best = max_ref_counts(pair.references, n)
    return sum(m for _, m in clipped_counts(hyp_counts.counts, best)) / total

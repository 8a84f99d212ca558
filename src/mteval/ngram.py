"""N-gram windows, per-sentence n-gram tables, and reference clipping.

The one n-gram counting and clipping path of the package, and the
bound ``MAX_ORDER`` on an n-gram order, which ``bleu.BleuConfig`` checks.
``order_windows`` gives the windows of every order 1..N of a sentence,
built at C level from one set of shifted slices: the order-``n``
windows zip the first ``n`` of them, so a sentence of N or more tokens
takes N slices, not the N(N+1)/2 of building each order on its own.
``window_total`` counts an order's windows. ``all_windows`` chains those
orders, shorter orders first, and ``window_counts`` tallies them into
one table per sentence; an n-gram's order is its length, so the orders
share the table without a key of their own. ``max_ref_counts`` merges a
pair's reference tables into the elementwise maximum that clipping caps
at. ``bleu.clip_pair``, which clips a pair for BLEU and NIST, merges
them through ``_merge_max`` and keeps them, because NIST weighs the pair
on its own by the same tables, summed over its matched n-grams.
``pooled_counts`` counts n-grams over many sentences pooled, from each
sentence's windows.
``clipped_counts`` is the clipping rule (Papineni et al. 2002) behind
BLEU's and NIST's matches, and ``matches_per_order`` sums a pair's
matches per order for BLEU. EBLEU caps its weighted windows at
``max_ref_counts`` by a rule of its own, dropping the lowest weights
first. All functions are pure and safe for per-sentence data
parallelism.

Clipping only asks how often a reference holds an n-gram that the
hypothesis has, so BLEU, EBLEU and NIST pass the hypothesis n-grams as
``keep`` and a reference table counts only those n-grams: the n-grams
of a reference that no hypothesis window can match are never stored.
Words loaded by ``corpus.load_parallel_corpus`` are one object per
distinct word, so comparing two n-gram keys compares their words by
identity.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Container, Iterable, Iterator, Sequence

NGram = tuple[str, ...]

# Each pair carries columns per order, whatever its length, so orders are capped.
MAX_ORDER = 1000


def window_total(length: int, n: int) -> int:
    """How many order-``n`` windows a sentence of ``length`` tokens has."""
    return max(0, length - n + 1)


def order_windows(tokens: Sequence[str], max_order: int) -> list[Iterator[NGram]]:
    """The windows of each order 1..``max_order``, one iterator per order.

    The ``min(max_order, len(tokens))`` shifted slices are taken once and
    order ``n`` zips the first ``n`` of them. Orders past the sentence
    length have no windows and get no iterator, so the cost does not grow
    with ``max_order``.
    """
    shifted = [tokens[i:] for i in range(min(max_order, len(tokens)))]
    return [zip(*shifted[:n]) for n in range(1, len(shifted) + 1)]


def all_windows(tokens: Sequence[str], max_order: int) -> Iterator[NGram]:
    """The windows of every order 1..``max_order``, shorter orders first."""
    return chain.from_iterable(order_windows(tokens, max_order))


def window_counts(
    tokens: Sequence[str], max_order: int, keep: Container[NGram] | None = None
) -> Counter:
    """The n-grams of every order 1..``max_order`` with multiplicity, shorter
    orders first and each order in first-occurrence order.

    With ``keep``, only the n-grams in ``keep`` are counted: the full
    table restricted to ``keep``, in the same order.
    """
    grams = all_windows(tokens, max_order)
    return Counter(grams if keep is None else filter(keep.__contains__, grams))


def pooled_counts(
    sentences: Iterable[Sequence[str]], max_order: int, keep: Container[NGram]
) -> Counter:
    """The n-grams in ``keep`` of every order 1..``max_order``, counted over
    all ``sentences`` pooled: each sentence's ``all_windows``, so no window
    spans two sentences."""
    grams = chain.from_iterable(all_windows(tokens, max_order) for tokens in sentences)
    return Counter(filter(keep.__contains__, grams))


def _merge_max(merged: Counter, tables: Iterable[Counter]) -> Counter:
    """Raise each count of ``merged`` in place to its maximum over ``tables``."""
    get = merged.get
    for table in tables:
        for gram, count in table.items():
            if count > get(gram, 0):
                merged[gram] = count
    return merged


def max_ref_counts(
    refs: Sequence[Sequence[str]], max_order: int, keep: Container[NGram] | None = None
) -> Counter:
    """Elementwise maximum of the ``window_counts`` tables of ``refs``,
    each restricted to ``keep`` when it is given."""
    if not refs:
        return Counter()
    return _merge_max(
        window_counts(refs[0], max_order, keep),
        (window_counts(ref, max_order, keep) for ref in refs[1:]),
    )


def clipped_counts(hyp_counts: Counter, best: Counter) -> list[tuple[NGram, int]]:
    """Each hypothesis n-gram found in ``best``, the maximum count in any
    reference, with its count clipped there: ``(gram, min(count,
    best[gram]))`` in the hypothesis's first-occurrence order.

    An n-gram absent from ``best``, or at a count of zero there, clips to
    zero and is skipped, so ``best`` may be restricted to the hypothesis
    n-grams (``keep``) and the matches come out the same.
    """
    get = best.get
    # min() without a call per n-gram.
    return [
        (gram, count if count < cap else cap)
        for gram, count in hyp_counts.items()
        if (cap := get(gram))
    ]


def matches_per_order(
    matches: Iterable[tuple[NGram, int]], max_order: int
) -> list[int]:
    """The clipped counts of ``matches`` summed per order 1..``max_order``."""
    matched = [0] * max_order
    for gram, m in matches:
        matched[len(gram) - 1] += m
    return matched

"""N-gram windows, per-sentence n-gram tables, and reference clipping.

The one n-gram counting and clipping path of the package. ``windows``
yields the order-``n`` windows of a sentence, built at C level by
zipping ``n`` shifted slices, and ``window_total`` counts them.
``all_windows`` chains the windows of every order from 1 to N, shorter
orders first, and ``window_counts`` tallies them into one table per
sentence; an n-gram's order is its length, so the orders share the
table without a key of their own. ``max_ref_counts`` merges a pair's
reference tables into the elementwise maximum that clipping caps at.
``clipped_counts`` is the clipping rule (Papineni et al. 2002) behind
BLEU's and NIST's matches and ``bleu.modified_precision``. EBLEU caps
its weighted windows at ``max_ref_counts`` by a rule of its own,
dropping the lowest weights first. All functions are pure and safe for
per-sentence data parallelism.

Clipping only asks how often a reference holds an n-gram that the
hypothesis has, so BLEU and NIST pass the hypothesis table as ``keep``
and a reference table counts only those n-grams: the n-grams of a
reference that no hypothesis window can match are never stored. Words
loaded by ``corpus.load_parallel_corpus`` are one object per distinct
word, so comparing two n-gram keys compares their words by identity.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Container, Iterable, Iterator, Sequence

NGram = tuple[str, ...]


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


def all_windows(tokens: Sequence[str], max_order: int) -> Iterator[NGram]:
    """The windows of every order 1..``max_order``, shorter orders first.

    Orders past the sentence length have no windows and are not visited,
    so the cost does not grow with ``max_order``.
    """
    return chain.from_iterable(
        windows(tokens, n) for n in range(1, min(max_order, len(tokens)) + 1)
    )


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


def clipped_counts(hyp_counts: Counter, best: Counter) -> Iterator[tuple[NGram, int]]:
    """Each hypothesis n-gram found in ``best``, the maximum count in any
    reference, with its count clipped there: ``(gram, min(count,
    best[gram]))`` in the hypothesis's first-occurrence order.

    An n-gram absent from ``best``, or at a count of zero there, clips to
    zero and is skipped, so ``best`` may be restricted to the hypothesis
    n-grams (``keep``) and the matches come out the same.
    """
    get = best.get
    for gram, count in hyp_counts.items():
        cap = get(gram)
        if cap:
            yield gram, (count if count < cap else cap)  # min(), without a call per n-gram

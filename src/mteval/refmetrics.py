"""Reference metrics: NIST, TER, METEOR, LEPOR, and RIBES (as NKT).

Faithful reimplementations of the published formulas, not bug-for-bug
ports of the original tools. Each scorer is one ``pair_stats``, a pure
function of one pair that gives its statistics as columns, and one
``score`` formula from one set of columns to ``(score, details)``, run
by ``corpus.reduce_pairs``, which adds up the columns of every pair.
METEOR returns a ``MetricScore``, the others a bare score. Only given a
``per_sentence`` list does a scorer append every pair's own score to it
from the same pass: the formula applied to that pair's columns alone.
TER, METEOR, LEPOR and RIBES leave that to ``reduce_pairs``; NIST clips
each pair through ``bleu.clip_pair``, scores it inside its ``pair_stats``,
weighing it by the reference tables that clipped it, summed over its
matched n-grams, and can hand BLEU its clipped matches per order
(``matched_per_order``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from typing import Mapping, Sequence

from . import bleu
from .bleu import MetricScore, brevity_penalty, effective_reference_length
from .corpus import ParallelCorpus, SynonymLexicon, TokenSeq, reduce_pairs
from .ngram import NGram, matches_per_order, pooled_counts, window_total


# ---------------------------------------------------------------------------
# NIST

# NIST's n-gram order, Doddington's (2002) N = 5.
NIST_ORDER = 5


def _average_length(references: Sequence[TokenSeq]) -> float:
    return sum(len(ref) for ref in references) / len(references)


def _nist_formula(
    matches: list[tuple[NGram, int]],
    ref_counts: Mapping[NGram, int],
    ref_tokens: int,
    hyp_len: int,
    avg_ref_len: float,
    hyp_totals: Sequence[int],
) -> float:
    """NIST from its matches and the reference counts they are weighed by.

    ``ref_counts`` counts, over the references the weights are taken from,
    every matched n-gram and its prefix, and ``ref_tokens`` is their token
    count. The information of the matches is summed per order in match
    order, and the orders are summed in order.
    """
    if hyp_len == 0 or avg_ref_len == 0.0:
        return 0.0
    matched_info = [0.0] * (len(hyp_totals) + 1)
    for gram, m in matches:
        n = len(gram)
        numer = ref_tokens if n == 1 else ref_counts[gram[:-1]]
        matched_info[n] += m * math.log2(numer / ref_counts[gram])
    information = 0.0  # added in order: sum() compensates from Python 3.12
    for info, total in zip(matched_info[1:], hyp_totals):
        if total > 0:
            information += info / total
    # ``y * y``, bracketed as written, not ``** 2``: pow() need not round correctly.
    b = math.log(2.0 / 3.0)
    beta = math.log(0.5) / (b * b)
    y = math.log(min(hyp_len / avg_ref_len, 1.0))
    return information * math.exp(beta * (y * y))


def nist_score(
    corpus: ParallelCorpus,
    *,
    per_sentence: list[float] | None = None,
    matched_per_order: list[list[int]] | None = None,
) -> float:
    """Information-weighted n-gram co-occurrence score of n-grams up to
    order 5 (Doddington 2002).

    A matched n-gram w1..wn carries log2(count(w1..wn-1) / count(w1..wn))
    computed over the pooled reference corpus, so rare word sequences
    weigh more; the order-1 numerator is the total reference token
    count. Per order, matched information is divided by the hypothesis
    n-gram total, the orders are summed, and the result is scaled by a
    length factor exp(beta * log(min(c/r, 1))^2) that reaches 0.5 when
    the hypothesis is two thirds of the average reference length.

    A pair's columns are its matches, its hypothesis length, its average
    reference length and its hypothesis n-gram total per order. Its
    matches are its hypothesis n-grams that occur in a reference, clipped
    against its references (whose tables count only the hypothesis
    n-grams), recorded as (n-gram, clipped count) in scoring order in one
    list, the order of a match being the length of its n-gram. The prefix
    w1..wn-1 of a matched n-gram occurs in the same hypothesis and
    reference, so it is a matched (n-1)-gram itself: the corpus score
    counts the references of the whole corpus for the matched n-grams
    only, in one pass, then sums the information of the matches per order
    in corpus order, so scores are those of pooling every reference
    n-gram, bit for bit.

    A per-sentence score is the formula applied to that pair's columns
    alone, its information weights taken from its own references.
    ``pair_stats`` computes it, not ``reduce_pairs``. A pair is clipped
    by ``bleu.clip_pair``, BLEU's rule, in every run, and the reference
    tables it clipped at, each restricted to the hypothesis n-grams, summed
    over its matched n-grams weigh it. A matched n-gram's prefix is matched
    too, so the sums hold every count the weights divide by.

    Given a ``matched_per_order`` list, each pair's matches summed per
    order 1..5, BLEU's clipped matches, are appended to it.
    """

    def pair_stats(pair):
        c = len(pair.hypothesis)
        totals = [window_total(c, n) for n in range(1, NIST_ORDER + 1)]
        avg_ref_len = _average_length(pair.references)
        matches, (first, *rest) = bleu.clip_pair(pair, NIST_ORDER)
        if matched_per_order is not None:
            matched_per_order.append(matches_per_order(matches, NIST_ORDER))
        if per_sentence is not None:
            # The tables hold the matched n-grams alone, so this sums over them.
            summed = dict(first)
            for table in rest:
                for gram, count in table.items():
                    summed[gram] = summed.get(gram, 0) + count
            ref_tokens = sum(map(len, pair.references))
            per_sentence.append(
                _nist_formula(matches, summed, ref_tokens, c, avg_ref_len, totals)
            )
        return [matches, c, avg_ref_len] + totals

    def score(columns):
        matches, hyp_len, avg_ref_len, *hyp_totals = columns
        needed = {gram for gram, _ in matches}
        # Orders past the longest match count nothing.
        top = max(map(len, needed), default=0)
        references = corpus.all_references()
        ref_counts = pooled_counts(references, top, needed)
        ref_tokens = sum(map(len, references))
        nist = _nist_formula(
            matches, ref_counts, ref_tokens, hyp_len, avg_ref_len, hyp_totals
        )
        return nist, None

    return reduce_pairs(corpus, pair_stats, score)[0]


# ---------------------------------------------------------------------------
# TER

_MAX_SHIFT_PHRASE = 10
_MAX_SHIFT_DISTANCE = 50


def _advance(
    masks: Sequence[int],
    full: int,
    state: tuple[int, int, int] | None = None,
    columns: list[tuple[int, int, int]] | None = None,
) -> int:
    """Feed ``masks`` through the edit-distance recurrence from a column state.

    Bit-parallel form of Myers (1999) for global edit distance (Hyyrö
    2003): the reference is the pattern, one Python int per vertical
    delta vector holds a whole DP column, so each token costs a constant
    number of big-int operations. A token is its pattern bit-vector, its
    mask: bit j set where the reference's word j is the token's word.
    ``full`` has one bit per reference word. ``state`` is ``(vp, vn,
    k)``: ``vp``/``vn`` mark the +1/-1 differences down column ``k``,
    ``hp``/``hn`` those across to the next; it defaults to the column of
    the empty prefix. A column's top cell is ``k``, so its last cell, the
    distance, is ``k`` plus its vertical differences. Returns the distance
    after the last token; when ``columns`` is given, the state it starts
    from and the state after each token are appended to it.
    """
    vp, vn, k = (full, 0, 0) if state is None else state
    if columns is not None:
        columns.append((vp, vn, k))
    for eq in masks:
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = (vn | ~(xh | vp)) << 1 | 1
        hn = (vp & xh) << 1
        vp = (hn | ~(xv | hp)) & full
        vn = hp & xv
        k += 1
        if columns is not None:
            columns.append((vp, vn, k))
    return k + vp.bit_count() - vn.bit_count()


def _bag_distance(masks: Sequence[int], ref_len: int) -> int:
    """max(|H - R|, |R - H|) over the word multisets of a hypothesis given
    as its ``masks`` and a reference of ``ref_len`` words: no sequence with
    the words of the hypothesis is fewer edits than this from it. A mask's
    popcount is its word's count in the reference, 0 for a word it lacks."""
    surplus = sum(
        max(count - mask.bit_count(), 0) for mask, count in Counter(masks).items()
    )
    return max(surplus, surplus + ref_len - len(masks))


def _best_shift(
    current: tuple[int, ...],
    full: int,
    columns: list[tuple[int, int, int]],
    distance: int,
) -> tuple[int, int, int] | None:
    """The first candidate shift ``(i, length, pos)`` of ``current``, a
    hypothesis as its masks, with the largest gain, or None when no
    candidate lowers the distance.

    Token i's candidate positions j are the set bits of its mask, in
    ascending order, and a phrase extends while the next token's mask has
    the next bit set. ``columns`` holds the column state before each token
    of ``current`` and then after its last; ``distance`` is the edit
    distance of ``current`` that they end at.
    """
    n = len(current)
    best_gain = 0
    best = None
    for i, mask in enumerate(current):
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if i == j or abs(i - j) > _MAX_SHIFT_DISTANCE:
                continue
            run = 1
            while (
                i + run < n
                and current[i + run] >> (j + run) & 1
                and run < _MAX_SHIFT_PHRASE
            ):
                run += 1
            for length in range(1, run + 1):
                pos = min(j, n - length)
                if 2 * min(length, abs(pos - i)) <= best_gain:
                    continue
                block = current[i : i + length]
                if pos < i:
                    p, q = pos, i + length
                    window = block + current[pos:i]
                else:
                    p, q = i, pos + length
                    window = current[i + length : q] + block
                if window == current[p:q]:
                    continue
                gain = distance - _advance(window + current[q:], full, columns[p])
                if gain > best_gain:
                    best_gain, best = gain, (i, length, pos)
    return best


def _shifted_edit_count(hyp: TokenSeq, ref: TokenSeq, cutoff: float = math.inf) -> int:
    """Greedy best-first phrase shifts (one edit each) plus edit distance.

    A candidate moves a phrase current[i:i+L] equal to ref[j:j+L] to
    position ``pos = min(j, n - L)`` of the n - L remaining tokens, for
    every run length L up to the phrase cap and every |i - j| up to the
    move distance cap. Candidates come in order of i, then j, then L, and
    one is chosen only if it strictly beats the best gain so far.

    Each hypothesis word becomes its reference mask once (bit j set where
    ``ref[j]`` is the word, 0 for a word ``ref`` lacks), and the search
    works on these integers alone: two masks are equal exactly when their
    reference words are, and the words ``ref`` lacks all cost the same in
    the edit distance. No candidate sequence is built. One pass over
    ``current`` stores the column state before each of its tokens. A
    candidate equals ``current`` before column ``p = min(i, pos)`` and
    from column ``q = max(i, pos) + L`` on, so its distance resumes from
    the stored state at ``p`` over its changed window and then
    ``current[q:]``. The move is L deletions plus L insertions, or the
    same for the ``|pos - i|`` tokens it jumps, so by the triangle
    inequality it lowers the distance by at most ``2 * min(L, |pos - i|)``;
    a candidate whose bound does not exceed the best gain is skipped
    unevaluated, and so is one whose window of masks equals
    ``current[p:q]`` (a move inside a run of repeated words, or one that
    swaps only words ``ref`` lacks), which gains nothing. A shift keeps the
    multiset of words, so no candidate is closer to ``ref`` than the bag
    distance, and the search stops once the distance is at most one
    above it. There a shift gains at most 1 and costs 1 edit, so
    ``edits + distance`` is the same whether it is taken or not. These
    steps are exact, and a candidate that repeats an earlier sequence has
    that sequence's gain and so never wins; the chosen shifts are those
    of building and scoring every distinct candidate in full.
    The result is at least ``edits + floor``, so once that reaches
    ``cutoff`` the search returns it: not the count, but no smaller than
    ``cutoff``, for a caller that keeps the smaller of the two.
    """
    ref_len = len(ref)
    masks: dict[str, int] = {}
    for j, word in enumerate(ref):
        masks[word] = masks.get(word, 0) | 1 << j
    current = tuple([masks.get(word, 0) for word in hyp])
    full = (1 << ref_len) - 1
    floor = _bag_distance(current, ref_len)
    edits = 0
    while True:
        if edits + floor >= cutoff:
            return edits + floor
        columns: list[tuple[int, int, int]] = []
        distance = _advance(current, full, columns=columns)
        if distance <= floor + 1:
            break
        best = _best_shift(current, full, columns, distance)
        if best is None:
            break
        i, length, pos = best
        rest = current[:i] + current[i + length :]
        current = rest[:pos] + current[i : i + length] + rest[pos:]
        edits += 1
    return edits + distance


def ter_score(
    corpus: ParallelCorpus, *, per_sentence: list[float] | None = None
) -> float:
    """Translation edit rate: edits per average reference word, lower is better.

    Per pair, the edit count is minimized over the references; insert,
    delete, substitute, and phrase shift each cost one. Shifts are chosen
    greedily, each step taking the first candidate with the largest drop
    in word edit distance. That distance comes from the bit-parallel
    algorithm of Myers (1999) in Hyyrö's (2003) edit distance form, and
    the search runs on the hypothesis as its words' reference masks, each
    word mapped once to the bit-vector of its positions in the reference
    (0 for a word the reference lacks). Each
    candidate's distance resumes from the current sequence's stored
    column at its first changed word, a candidate is skipped when the
    size of its move bounds its gain to no more than the best so far,
    and the search ends when the distance is at most one above the bag
    distance of the two word multisets, which no shift can go below:
    from there a shift would save no more than the edit it costs, and
    once its edits plus that distance reach the pair's best count so far.
    All of it is exact: scores equal those of scoring every candidate
    sequence in full with the textbook O(n*m) dynamic program.

    The corpus score is the summed edits over the summed average
    reference lengths: 0 for no edits against a zero length, ``inf``
    for some. A pair's columns are its edits and its average reference
    length; a per-sentence score is the formula applied to them alone.
    """

    def pair_stats(pair):
        edits = math.inf
        for ref in pair.references:
            edits = min(edits, _shifted_edit_count(pair.hypothesis, ref, edits))
        return edits, _average_length(pair.references)

    def score(columns):
        edits, ref_len = columns
        if ref_len == 0.0:
            return (0.0 if edits == 0 else math.inf), None
        return edits / ref_len, None

    return reduce_pairs(corpus, pair_stats, score, per_sentence)[0]


# ---------------------------------------------------------------------------
# METEOR


def _positions(ref: TokenSeq) -> dict[str, list[int]]:
    """Each word of ``ref`` mapped to its positions in ascending order."""
    positions: dict[str, list[int]] = {}
    for j, word in enumerate(ref):
        positions.setdefault(word, []).append(j)
    return positions


def _exact_alignment(hyp: TokenSeq, free: dict[str, list[int]]) -> list[int | None]:
    """Each hypothesis word's leftmost free position of the same word,
    taken from ``free`` (``_positions`` of the reference), or None."""
    return [free[word].pop(0) if free.get(word) else None for word in hyp]


def _align_unigrams(
    hyp: TokenSeq, ref: TokenSeq, lexicon: SynonymLexicon
) -> list[tuple[int, int]]:
    """Two-stage one-to-one alignment: exact words first, then synonyms.

    Left to right, each hypothesis word takes the leftmost free reference
    position of its word; then each word left over takes the leftmost
    free position of any of its synonyms. Every take of a word, in either
    stage, is that word's leftmost free position, so it is the head of
    the word's ascending list of free positions, and the leftmost free
    position over a synonym set is the smallest of its words' heads.
    """
    free = _positions(ref)
    aligned = _exact_alignment(hyp, free)
    for i, word in enumerate(hyp):
        if aligned[i] is not None:
            continue
        best = None
        for synonym in lexicon.synonyms(word):
            slots = free.get(synonym)
            if slots and (best is None or slots[0] < best[0]):
                best = slots
        if best is not None:
            aligned[i] = best.pop(0)
    return [(i, j) for i, j in enumerate(aligned) if j is not None]


def _chunk_count(alignment: list[tuple[int, int]]) -> int:
    """Number of runs adjacent in both hypothesis and reference."""
    if not alignment:
        return 0
    chunks = 1
    for (i1, j1), (i2, j2) in zip(alignment, alignment[1:]):
        if not (i2 == i1 + 1 and j2 == j1 + 1):
            chunks += 1
    return chunks


def meteor_score(
    corpus: ParallelCorpus,
    lexicon: SynonymLexicon,
    *,
    per_sentence: list[float] | None = None,
) -> MetricScore:
    """Harmonic precision/recall with a fragmentation penalty.

    Unigrams align in stages (exact, then synonym) against the
    best-scoring reference of each pair, each word taking the leftmost
    free position it may match: the head of some word's ascending list
    of free positions (see ``_align_unigrams``), found without a scan.
    With pooled precision P, recall R, matches M and chunks C the score
    is (10PR / (R + 9P)) * (1 - 0.5 * C / M), and 0 when nothing matches.

    A pair's columns are its matches, chunks and lengths against the
    reference whose own columns score highest, the first on a tie. A
    per-sentence score is the formula applied to that pair's columns.
    """

    def score(columns):
        matches, chunks, hyp_len, ref_len = columns
        precision = matches / hyp_len if hyp_len else 0.0
        recall = matches / ref_len if ref_len else 0.0
        penalty = value = 0.0
        if matches and precision and recall:
            penalty = 0.5 * chunks / matches
            harmonic = 10.0 * precision * recall / (recall + 9.0 * precision)
            value = harmonic * (1.0 - penalty)
        return value, dict(
            precision=precision, recall=recall, matched_unigrams=matches,
            chunk_count=chunks, penalty=penalty,
        )

    def pair_stats(pair):
        best = best_score = None
        for ref in pair.references:
            alignment = _align_unigrams(pair.hypothesis, ref, lexicon)
            columns = (
                len(alignment),
                _chunk_count(alignment),
                len(pair.hypothesis),
                len(ref),
            )
            ref_score = score(columns)[0]
            if best_score is None or ref_score > best_score:
                best, best_score = columns, ref_score
        return best

    return MetricScore(*reduce_pairs(corpus, pair_stats, score, per_sentence))


# ---------------------------------------------------------------------------
# LEPOR


def _position_alignment(hyp: TokenSeq, ref: TokenSeq) -> tuple[float, int]:
    """Sum of |normalized position differences| and the match count.

    Each hypothesis token takes the free reference position of its word
    with the smallest key ``(|hyp_pos - (j+1)/ref_n|, j)``; unmatched
    tokens contribute zero. That position is found by bisecting the
    word's ascending list of free positions at ``hyp_pos`` and comparing
    only the two neighbours of the insertion point. The float keys allow
    this. Each quotient ``x = (j+1)/ref_n`` is correctly rounded, so
    distinct ``j`` give values at least ``1/ref_n - 2**-53`` apart and
    ``x`` strictly increases with ``j``. The rounded ``|hyp_pos - x|``
    changes by that gap less at most ``2**-53``, so for any ``ref_n``
    below ``2**51`` it strictly decreases while ``x < hyp_pos`` and
    strictly increases from there on. The smallest key left of the
    insertion point is therefore its left neighbour, and right of it its
    right neighbour; a tie between the two goes to the smaller ``j``.
    """
    free = _positions(ref)
    hyp_n, ref_n = len(hyp), len(ref)

    def ref_pos(j: int) -> float:
        return (j + 1) / ref_n

    total_diff = 0.0
    matches = 0
    for i, word in enumerate(hyp):
        slots = free.get(word)
        if not slots:
            continue
        hyp_pos = (i + 1) / hyp_n
        k = 0
        if len(slots) > 1:
            k = bisect_left(slots, hyp_pos, key=ref_pos)
            if k == len(slots) or (
                k > 0 and hyp_pos - ref_pos(slots[k - 1]) <= ref_pos(slots[k]) - hyp_pos
            ):
                k -= 1
        j = slots.pop(k)
        matches += 1
        total_diff += abs(hyp_pos - ref_pos(j))
    return total_diff, matches


def lepor_score(
    corpus: ParallelCorpus, *, per_sentence: list[float] | None = None
) -> float:
    """Length penalty times position-difference penalty times the harmonic
    mean of recall and precision, LEPOR's Harmonic(alpha R, beta P) at
    alpha = beta = 1 (Han et al. 2012).

    Matching is against the closest-length reference of each pair, the
    first of BLEU's effective reference length (ties to shorter), each
    token taking the nearest free position of its word from that word's
    own list of free positions. The length penalty is BLEU's brevity
    penalty of the shorter total length against the longer (ratios of
    average sentence lengths equal ratios of the totals). The position
    penalty is exp(-NPD) where NPD is the total normalized position
    difference per hypothesis token. Zero when either unigram precision
    or recall is zero. A pair's columns are its position difference,
    matches and lengths; a per-sentence score is the formula applied to
    them alone.
    """

    def pair_stats(pair):
        hyp_len = len(pair.hypothesis)
        r = effective_reference_length(hyp_len, [len(ref) for ref in pair.references])
        ref = next(ref for ref in pair.references if len(ref) == r)
        diff, m = _position_alignment(pair.hypothesis, ref)
        return diff, m, hyp_len, r

    def score(columns):
        total_diff, matches, hyp_total, ref_total = columns
        if matches == 0 or hyp_total == 0 or ref_total == 0:
            return 0.0, None
        precision = matches / hyp_total
        recall = matches / ref_total
        npd = total_diff / hyp_total
        harmonic = 2.0 / (1.0 / recall + 1.0 / precision)
        penalty = brevity_penalty(min(hyp_total, ref_total), max(hyp_total, ref_total))
        return penalty * math.exp(-npd) * harmonic, None

    return reduce_pairs(corpus, pair_stats, score, per_sentence)[0]


# ---------------------------------------------------------------------------
# RIBES


def _order_alignment(hyp: TokenSeq, ref: TokenSeq) -> list[int]:
    """Aligned reference positions in hypothesis order, one-to-one.

    Each hypothesis word takes the leftmost free position of the same
    word, METEOR's exact stage; a word found once in both sentences
    gets its only position this way, as no other token competes for it.
    """
    return [j for j in _exact_alignment(hyp, _positions(ref)) if j is not None]


def _kendall_tau(seq: Sequence[int]) -> float:
    """Tau of distinct values against their order (Knight 1966): the earlier
    values below each value are those left of its place in the sorted prefix."""
    n = len(seq)
    concordant = 0
    prefix: list[int] = []
    for value in seq:
        k = bisect_left(prefix, value)
        concordant += k
        prefix.insert(k, value)
    pairs = n * (n - 1) // 2
    return (2 * concordant - pairs) / pairs


def ribes_score(
    corpus: ParallelCorpus, *, per_sentence: list[float] | None = None
) -> float:
    """RIBES as NKT (Isozaki et al. 2010): normalized Kendall's tau of word
    order, scaled by precision^0.25, the paper's alpha.

    Each word aligns to the leftmost free reference position of the same
    word, the head of that word's ascending list of free positions (see
    ``_order_alignment``). Per pair Kendall's tau over aligned
    reference positions is mapped to [0, 1] via (coefficient + 1) / 2 and
    multiplied by unigram precision raised to 0.25; the best
    reference wins and pairs with fewer than two aligned words score
    zero. A pair's columns are its best score and a count of 1, so the
    corpus score is the mean over pairs, and a per-sentence score, the
    formula applied to one pair's columns, is that pair's best score.
    """

    def pair_stats(pair):
        best = 0.0
        for ref in pair.references:
            aligned = _order_alignment(pair.hypothesis, ref)
            if len(aligned) < 2:
                continue
            normalized = (_kendall_tau(aligned) + 1.0) / 2.0
            precision = len(aligned) / len(pair.hypothesis)
            best = max(best, normalized * precision**0.25)
        return best, 1

    def score(columns):
        total, count = columns
        return total / count, None

    return reduce_pairs(corpus, pair_stats, score, per_sentence)[0]

"""Reference metrics: NIST, TER, METEOR, LEPOR, and RIBES.

Faithful reimplementations of the published formulas, not bug-for-bug
ports of the original tools. Scoring is pure per pair; corpus reduction
is a sum or mean.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .corpus import EvalPair, ParallelCorpus, SynonymLexicon, TokenSeq
from .errors import EmptyCorpusError


# ---------------------------------------------------------------------------
# NIST


def _window_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _pair_max_ref_counts(pair: EvalPair, n: int) -> Counter:
    merged: Counter = Counter()
    for ref in pair.references:
        for gram, count in _window_counts(ref, n).items():
            if count > merged[gram]:
                merged[gram] = count
    return merged


def nist_score(corpus: ParallelCorpus, max_order: int = 5) -> float:
    """Information-weighted n-gram co-occurrence score.

    A matched n-gram w1..wn carries log2(count(w1..wn-1) / count(w1..wn))
    computed over the pooled reference corpus, so rare word sequences
    weigh more; the order-1 numerator is the total reference token
    count. Per order, matched information is divided by the hypothesis
    n-gram total, the orders are summed, and the result is scaled by a
    length factor exp(beta * log(min(c/r, 1))^2) that reaches 0.5 when
    the hypothesis is two thirds of the average reference length.
    """
    if not corpus.pairs:
        raise EmptyCorpusError("cannot score an empty corpus")
    ref_counts: list[Counter] = [Counter() for _ in range(max_order + 1)]
    total_ref_tokens = 0
    for ref in corpus.all_references():
        total_ref_tokens += len(ref)
        for n in range(1, max_order + 1):
            ref_counts[n].update(_window_counts(ref, n))

    def info(gram: tuple) -> float:
        n = len(gram)
        numer = total_ref_tokens if n == 1 else ref_counts[n - 1][gram[:-1]]
        return math.log2(numer / ref_counts[n][gram])

    matched_info = [0.0] * (max_order + 1)
    hyp_totals = [0] * (max_order + 1)
    hyp_len = 0
    avg_ref_len = 0.0
    for pair in corpus.pairs:
        hyp_len += len(pair.hypothesis)
        avg_ref_len += sum(len(ref) for ref in pair.references) / len(pair.references)
        for n in range(1, max_order + 1):
            hyp = _window_counts(pair.hypothesis, n)
            hyp_totals[n] += sum(hyp.values())
            best = _pair_max_ref_counts(pair, n)
            for gram, count in hyp.items():
                m = min(count, best[gram])
                if m:
                    matched_info[n] += m * info(gram)

    if hyp_len == 0 or avg_ref_len == 0.0:
        return 0.0
    score = sum(
        matched_info[n] / hyp_totals[n]
        for n in range(1, max_order + 1)
        if hyp_totals[n] > 0
    )
    beta = math.log(0.5) / math.log(2.0 / 3.0) ** 2
    ratio = min(hyp_len / avg_ref_len, 1.0)
    return score * math.exp(beta * math.log(ratio) ** 2)


# ---------------------------------------------------------------------------
# TER

_MAX_SHIFT_PHRASE = 10
_MAX_SHIFT_DISTANCE = 50


def _reference_masks(ref: Sequence[str]) -> dict[str, int]:
    """Per-token match masks of ``ref``: bit j is set where ref[j] is the token."""
    masks: dict[str, int] = {}
    for j, word in enumerate(ref):
        masks[word] = masks.get(word, 0) | (1 << j)
    return masks


def _edit_distance(seq: Sequence[str], masks: dict[str, int], ref_len: int) -> int:
    """Word-level Levenshtein distance from ``seq`` to a reference, unit costs.

    Bit-parallel form of Myers (1999) for global edit distance (Hyyrö
    2003): the reference is the pattern, one Python int per vertical
    delta vector holds a whole DP column, so each token of ``seq`` costs
    a constant number of big-int operations. ``vp``/``vn`` mark the +1/-1
    differences down the current column, ``hp``/``hn`` those across to
    it, and ``distance`` follows the column's last cell. ``masks`` comes
    from ``_reference_masks(ref)`` and ``ref_len`` is ``len(ref)``.
    """
    if ref_len == 0:
        return len(seq)
    full = (1 << ref_len) - 1
    last = 1 << (ref_len - 1)
    vp, vn = full, 0
    distance = ref_len
    for word in seq:
        eq = masks.get(word, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & full
        vn = hp & xv
    return distance


def _candidate_shifts(
    hyp: Sequence[str], ref: Sequence[str]
) -> Iterator[tuple[str, ...]]:
    """Sequences reachable by moving one reference-matching phrase of ``hyp``.

    A phrase hyp[i:i+L] equal to ref[j:j+L] is removed and reinserted at
    the matching reference position, for every run length up to the
    phrase cap and move distance cap.
    """
    seen: set[tuple[str, ...]] = set()
    for i in range(len(hyp)):
        for j in range(len(ref)):
            if hyp[i] != ref[j] or i == j:
                continue
            if abs(i - j) > _MAX_SHIFT_DISTANCE:
                continue
            run = 0
            while (
                i + run < len(hyp)
                and j + run < len(ref)
                and hyp[i + run] == ref[j + run]
                and run < _MAX_SHIFT_PHRASE
            ):
                run += 1
            for length in range(1, run + 1):
                block = tuple(hyp[i : i + length])
                rest = tuple(hyp[:i]) + tuple(hyp[i + length :])
                pos = min(j, len(rest))
                shifted = rest[:pos] + block + rest[pos:]
                if shifted not in seen:
                    seen.add(shifted)
                    yield shifted


def _shifted_edit_count(hyp: TokenSeq, ref: TokenSeq) -> int:
    """Greedy best-first phrase shifts (one edit each) plus edit distance.

    The reference's match masks are built once and serve the first
    distance, every shift candidate and every greedy iteration.
    """
    masks = _reference_masks(ref)
    ref_len = len(ref)
    current: tuple[str, ...] = tuple(hyp)
    edits = 0
    distance = _edit_distance(current, masks, ref_len)
    while distance > 0:
        best_gain = 0
        best_seq = None
        for candidate in _candidate_shifts(current, ref):
            gain = distance - _edit_distance(candidate, masks, ref_len)
            if gain > best_gain:
                best_gain, best_seq = gain, candidate
        if best_seq is None:
            break
        edits += 1
        current = best_seq
        distance -= best_gain
    return edits + distance


def ter_score(corpus: ParallelCorpus) -> float:
    """Translation edit rate: edits per average reference word, lower is better.

    Per pair, the edit count is minimized over the references; insert,
    delete, substitute, and phrase shift each cost one. Shifts are chosen
    greedily, each step taking the first candidate with the largest drop
    in word edit distance. That distance comes from the bit-parallel
    algorithm of Myers (1999) in Hyyrö's (2003) edit distance form,
    which is exact: scores equal those of the textbook O(n*m) dynamic
    program.
    """
    if not corpus.pairs:
        raise EmptyCorpusError("cannot score an empty corpus")
    total_edits = 0
    total_ref_len = 0.0
    for pair in corpus.pairs:
        total_edits += min(
            _shifted_edit_count(pair.hypothesis, ref) for ref in pair.references
        )
        total_ref_len += sum(len(ref) for ref in pair.references) / len(
            pair.references
        )
    if total_ref_len == 0.0:
        return 0.0 if total_edits == 0 else math.inf
    return total_edits / total_ref_len


# ---------------------------------------------------------------------------
# METEOR


@dataclass
class MeteorResult:
    precision: float
    recall: float
    matched_unigrams: int
    chunk_count: int
    penalty: float
    score: float


def _align_unigrams(
    hyp: TokenSeq, ref: TokenSeq, lexicon: SynonymLexicon
) -> list[tuple[int, int]]:
    """Two-stage one-to-one alignment: exact words first, then synonyms."""
    taken = [False] * len(ref)
    aligned: dict[int, int] = {}
    for i, word in enumerate(hyp):
        for j, ref_word in enumerate(ref):
            if not taken[j] and ref_word == word:
                aligned[i] = j
                taken[j] = True
                break
    for i, word in enumerate(hyp):
        if i in aligned:
            continue
        synonyms = lexicon.synonyms(word)
        if not synonyms:
            continue
        for j, ref_word in enumerate(ref):
            if not taken[j] and ref_word in synonyms:
                aligned[i] = j
                taken[j] = True
                break
    return sorted(aligned.items())


def _chunk_count(alignment: list[tuple[int, int]]) -> int:
    """Number of runs adjacent in both hypothesis and reference."""
    if not alignment:
        return 0
    chunks = 1
    for (i1, j1), (i2, j2) in zip(alignment, alignment[1:]):
        if not (i2 == i1 + 1 and j2 == j1 + 1):
            chunks += 1
    return chunks


def _meteor_formula(matches: int, chunks: int, hyp_len: int, ref_len: int) -> float:
    if matches == 0 or hyp_len == 0 or ref_len == 0:
        return 0.0
    p = matches / hyp_len
    r = matches / ref_len
    return (10.0 * p * r / (r + 9.0 * p)) * (1.0 - 0.5 * chunks / matches)


def meteor_score(corpus: ParallelCorpus, lexicon: SynonymLexicon) -> MeteorResult:
    """Harmonic precision/recall with a fragmentation penalty.

    Unigrams align in stages (exact, then synonym) against the
    best-scoring reference of each pair. With pooled precision P, recall
    R, matches M and chunks C the score is (10PR / (R + 9P)) *
    (1 - 0.5 * C / M), and 0 when nothing matches.
    """
    if not corpus.pairs:
        raise EmptyCorpusError("cannot score an empty corpus")
    matches = 0
    chunks = 0
    hyp_len = 0
    ref_len = 0
    for pair in corpus.pairs:
        best = None
        for ref in pair.references:
            alignment = _align_unigrams(pair.hypothesis, ref, lexicon)
            m = len(alignment)
            c = _chunk_count(alignment)
            s = _meteor_formula(m, c, len(pair.hypothesis), len(ref))
            if best is None or s > best[0]:
                best = (s, m, c, len(ref))
        assert best is not None
        matches += best[1]
        chunks += best[2]
        hyp_len += len(pair.hypothesis)
        ref_len += best[3]
    precision = matches / hyp_len if hyp_len else 0.0
    recall = matches / ref_len if ref_len else 0.0
    if matches == 0 or precision == 0.0 or recall == 0.0:
        return MeteorResult(precision, recall, matches, chunks, 0.0, 0.0)
    penalty = 0.5 * chunks / matches
    score = (10.0 * precision * recall / (recall + 9.0 * precision)) * (1.0 - penalty)
    return MeteorResult(precision, recall, matches, chunks, penalty, score)


# ---------------------------------------------------------------------------
# LEPOR


@dataclass(frozen=True)
class LeporConfig:
    """Weights on recall and precision inside the harmonic mean."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError("alpha and beta must be positive")


def _length_penalty(hyp_total: int, ref_total: int) -> float:
    """exp(1 - r/c) for short output, exp(1 - c/r) for long, 1 at equality.

    Ratios of average sentence lengths equal ratios of the totals, so
    totals are compared directly.
    """
    if hyp_total == ref_total:
        return 1.0
    if hyp_total < ref_total:
        return math.exp(1.0 - ref_total / hyp_total)
    return math.exp(1.0 - hyp_total / ref_total)


def _position_alignment(hyp: TokenSeq, ref: TokenSeq) -> tuple[float, int]:
    """Sum of |normalized position differences| and the match count.

    Each hypothesis token takes the nearest not-yet-consumed reference
    position holding the same word; unmatched tokens contribute zero.
    """
    positions: dict[str, list[int]] = {}
    for j, word in enumerate(ref):
        positions.setdefault(word, []).append(j)
    consumed = [False] * len(ref)
    hyp_n, ref_n = len(hyp), len(ref)
    total_diff = 0.0
    matches = 0
    for i, word in enumerate(hyp):
        free = [j for j in positions.get(word, ()) if not consumed[j]]
        if not free:
            continue
        hyp_pos = (i + 1) / hyp_n
        j = min(free, key=lambda j: (abs(hyp_pos - (j + 1) / ref_n), j))
        consumed[j] = True
        matches += 1
        total_diff += abs(hyp_pos - (j + 1) / ref_n)
    return total_diff, matches


def _closest_reference(pair: EvalPair) -> TokenSeq:
    hyp_len = len(pair.hypothesis)
    return min(pair.references, key=lambda ref: (abs(len(ref) - hyp_len), len(ref)))


def lepor_score(corpus: ParallelCorpus, cfg: LeporConfig = LeporConfig()) -> float:
    """Length penalty times position-difference penalty times harmonic(aR, bP).

    Matching is against the closest-length reference of each pair. The
    position penalty is exp(-NPD) where NPD is the total normalized
    position difference per hypothesis token. Zero when either unigram
    precision or recall is zero.
    """
    if not corpus.pairs:
        raise EmptyCorpusError("cannot score an empty corpus")
    total_diff = 0.0
    matches = 0
    hyp_total = 0
    ref_total = 0
    for pair in corpus.pairs:
        ref = _closest_reference(pair)
        diff, m = _position_alignment(pair.hypothesis, ref)
        total_diff += diff
        matches += m
        hyp_total += len(pair.hypothesis)
        ref_total += len(ref)
    if matches == 0 or hyp_total == 0 or ref_total == 0:
        return 0.0
    precision = matches / hyp_total
    recall = matches / ref_total
    npd = total_diff / hyp_total
    harmonic = (cfg.alpha + cfg.beta) / (cfg.alpha / recall + cfg.beta / precision)
    return _length_penalty(hyp_total, ref_total) * math.exp(-npd) * harmonic


# ---------------------------------------------------------------------------
# RIBES


@dataclass(frozen=True)
class RibesConfig:
    """Precision exponent and the rank correlation used on word order."""

    alpha: float = 0.25
    correlation_kind: str = "kendall"

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.correlation_kind not in ("kendall", "spearman"):
            raise ValueError("correlation_kind must be 'kendall' or 'spearman'")


def _order_alignment(hyp: TokenSeq, ref: TokenSeq) -> list[int]:
    """Aligned reference positions in hypothesis order, one-to-one.

    Words occurring exactly once in both sentences align directly;
    remaining words take the leftmost unconsumed position of the same
    word.
    """
    hyp_counts = Counter(hyp)
    ref_counts = Counter(ref)
    positions: dict[str, list[int]] = {}
    for j, word in enumerate(ref):
        positions.setdefault(word, []).append(j)
    taken = [False] * len(ref)
    aligned: dict[int, int] = {}
    for i, word in enumerate(hyp):
        if hyp_counts[word] == 1 and ref_counts[word] == 1:
            j = positions[word][0]
            aligned[i] = j
            taken[j] = True
    for i, word in enumerate(hyp):
        if i in aligned:
            continue
        for j in positions.get(word, ()):
            if not taken[j]:
                aligned[i] = j
                taken[j] = True
                break
    return [j for _, j in sorted(aligned.items())]


def _kendall_tau(seq: Sequence[int]) -> float:
    n = len(seq)
    concordant = 0
    for a in range(n - 1):
        for b in range(a + 1, n):
            if seq[a] < seq[b]:
                concordant += 1
    pairs = n * (n - 1) // 2
    return (2 * concordant - pairs) / pairs


def _spearman_rho(seq: Sequence[int]) -> float:
    n = len(seq)
    order = sorted(range(n), key=seq.__getitem__)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r + 1
    d2 = sum((rank[i] - (i + 1)) ** 2 for i in range(n))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def ribes_score(corpus: ParallelCorpus, cfg: RibesConfig = RibesConfig()) -> float:
    """Normalized rank correlation of word order, scaled by precision^alpha.

    Per pair the correlation over aligned reference positions is mapped
    to [0, 1] via (coefficient + 1) / 2 and multiplied by unigram
    precision raised to ``alpha``; the best reference wins and pairs
    with fewer than two aligned words score zero. The corpus score is
    the mean over pairs.
    """
    if not corpus.pairs:
        raise EmptyCorpusError("cannot score an empty corpus")
    correlate = _kendall_tau if cfg.correlation_kind == "kendall" else _spearman_rho
    total = 0.0
    for pair in corpus.pairs:
        best = 0.0
        for ref in pair.references:
            aligned = _order_alignment(pair.hypothesis, ref)
            if len(aligned) < 2:
                continue
            normalized = (correlate(aligned) + 1.0) / 2.0
            precision = len(aligned) / len(pair.hypothesis)
            best = max(best, normalized * precision**cfg.alpha)
        total += best
    return total / len(corpus.pairs)

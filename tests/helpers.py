"""Small corpus builders and reference oracles shared across test modules."""

from __future__ import annotations

import builtins
import contextlib
import functools
import math
import operator
import random
from collections import Counter, deque
from unittest import mock

import pytest
from hypothesis import strategies as st

from mteval import BleuConfig, EvalPair, ParallelCorpus, bleu_score, tokenize
from mteval.errors import DegenerateTableError


def import_scipy_stats():
    """``scipy.stats``, the oracle of a few tests, which are skipped where it
    cannot be imported: not installed, or built for another Python."""
    try:
        import scipy.stats
    except ImportError as exc:
        lines = str(exc).strip().splitlines() or [repr(exc)]
        pytest.skip(f"scipy.stats: {lines[-1]}")  # numpy's message ends with the cause
    return scipy.stats


@contextlib.contextmanager
def recorded_calls(module, name: str):
    """Within the block, ``module.name`` records the positional arguments of
    each call in the list it yields, then runs as before."""
    original = getattr(module, name)
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with mock.patch.object(module, name, record):
        yield calls


def pair_of(hyp: str, *refs: str) -> EvalPair:
    return EvalPair(
        hypothesis=tokenize(hyp), references=tuple(tokenize(r) for r in refs)
    )


def corpus_of(*rows: tuple) -> ParallelCorpus:
    """Each row is (hypothesis, ref1[, ref2, ...]) as plain strings."""
    pairs = tuple(pair_of(*row) for row in rows)
    return ParallelCorpus(pairs=pairs)


def bleu_precision(pair: EvalPair, n: int) -> float:
    """BLEU's modified precision of order ``n`` for one pair, as its one
    entry point gives it: ``details["precisions"]`` of the one-pair corpus."""
    corpus = ParallelCorpus((pair,))
    return bleu_score(corpus, BleuConfig(max_order=n)).details["precisions"][n - 1]


def left_sum(values):
    """``0.0 + v1 + v2 + ...``, which ``sum()`` of floats is up to Python 3.11."""
    return functools.reduce(operator.add, values, 0.0)


def compensated_sum(iterable, /, start=0):
    """A ``sum()`` that compensates float rounding, as the builtin does from
    Python 3.12 on (here exactly, by ``math.fsum``)."""
    items = list(iterable)
    if any(isinstance(item, float) for item in items):
        return math.fsum([start, *items])
    return builtins.sum(items, start)


def random_sentence(rng: random.Random, vocab: list[str], max_len: int, min_len: int = 0) -> str:
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(min_len, max_len)))


def random_corpus(
    rng: random.Random,
    vocab: list[str],
    max_pairs: int,
    max_len: int,
    min_len: int = 1,
) -> ParallelCorpus:
    rows = [
        (
            random_sentence(rng, vocab, max_len, min_len),
            random_sentence(rng, vocab, max_len, min_len),
        )
        for _ in range(rng.randint(1, max_pairs))
    ]
    return corpus_of(*rows)


# A 2,000-token line of distinct words, and the same line with the five
# words at 105-109 moved in front of those at 100-104.
_LONG_WORDS = [f"w{i}" for i in range(2000)]
LONG_LINE = " ".join(_LONG_WORDS)
LONG_MOVED_LINE = " ".join(
    _LONG_WORDS[:100] + _LONG_WORDS[105:110] + _LONG_WORDS[100:105] + _LONG_WORDS[110:]
)
# Empty lines on either side and one-token lines.
EDGE_LINES = [("", "a b"), ("a b", ""), ("", ""), ("a", "a"), ("a", "b")]


@st.composite
def small_corpora(draw, alphabet: str = "abc", max_pairs: int = 4, max_len: int = 12):
    """Corpora of 1-``max_pairs`` pairs over a vocabulary of the first
    1-``len(alphabet)`` letters, each pair drawing its own 1-3 references:
    repeated tokens, empty hypotheses and references, one-pair corpora
    and pairs with different numbers of references are all common."""
    vocab = alphabet[: draw(st.integers(1, len(alphabet)))]
    sentence = st.lists(st.sampled_from(vocab), max_size=max_len).map(tuple)
    refs = st.lists(sentence, min_size=1, max_size=3).map(tuple)
    pairs = draw(st.lists(st.builds(EvalPair, sentence, refs), min_size=1, max_size=max_pairs))
    return ParallelCorpus(pairs=tuple(pairs))


def block_moved_pair(
    rng: random.Random, vocab: list[str], ref_len: int
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A random reference and a hypothesis made from it by 1-4 block moves
    of up to 8 tokens, then up to ref_len // 8 substitutions, insertions
    or deletions."""
    ref = [rng.choice(vocab) for _ in range(ref_len)]
    hyp = list(ref)
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(1, min(8, len(hyp)))
        i = rng.randrange(len(hyp) - length + 1)
        block = hyp[i : i + length]
        del hyp[i : i + length]
        pos = rng.randint(0, len(hyp))
        hyp[pos:pos] = block
    for _ in range(rng.randint(0, ref_len // 8)):
        k = rng.randrange(len(hyp))
        op = rng.choice(("sub", "ins", "del"))
        if op == "sub":
            hyp[k] = rng.choice(vocab)
        elif op == "ins":
            hyp.insert(k, rng.choice(vocab))
        elif len(hyp) > 1:
            del hyp[k]
    return tuple(hyp), tuple(ref)


# --- Oracles: the n-gram scoring code as it stood before the counting moved
# into ``mteval.ngram``. Copied unchanged (apart from names) from
# ``mteval.refmetrics.nist_score`` with its ``_window_counts`` and
# ``_pair_max_ref_counts``, and from ``mteval.ebleu._order_stats``. Tests
# compare the library against these with ``==``, so any change to the
# order or kind of float operations shows as a failure.


def _oracle_window_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _oracle_pair_max_ref_counts(pair, n):
    merged = Counter()
    for ref in pair.references:
        for gram, count in _oracle_window_counts(ref, n).items():
            if count > merged[gram]:
                merged[gram] = count
    return merged


def oracle_nist_score(corpus, max_order=5):
    ref_counts = [Counter() for _ in range(max_order + 1)]
    total_ref_tokens = 0
    for ref in corpus.all_references():
        total_ref_tokens += len(ref)
        for n in range(1, max_order + 1):
            ref_counts[n].update(_oracle_window_counts(ref, n))

    def info(gram):
        n = len(gram)
        numer = total_ref_tokens if n == 1 else ref_counts[n - 1][gram[:-1]]
        return math.log2(numer / ref_counts[n][gram])

    matched_info = [0.0] * (max_order + 1)
    hyp_totals = [0] * (max_order + 1)
    hyp_len = 0
    avg_ref_len = 0.0
    for pair in corpus:
        hyp_len += len(pair.hypothesis)
        avg_ref_len += sum(len(ref) for ref in pair.references) / len(pair.references)
        for n in range(1, max_order + 1):
            hyp = _oracle_window_counts(pair.hypothesis, n)
            hyp_totals[n] += sum(hyp.values())
            best = _oracle_pair_max_ref_counts(pair, n)
            for gram, count in hyp.items():
                m = min(count, best[gram])
                if m:
                    matched_info[n] += m * info(gram)

    if hyp_len == 0 or avg_ref_len == 0.0:
        return 0.0
    score = left_sum(
        matched_info[n] / hyp_totals[n]
        for n in range(1, max_order + 1)
        if hyp_totals[n] > 0
    )
    b = math.log(2.0 / 3.0)
    beta = math.log(0.5) / (b * b)
    y = math.log(min(hyp_len / avg_ref_len, 1.0))
    return score * math.exp(beta * (y * y))


def oracle_ebleu_order_stats(trace, pair, n, rare, cfg):
    hyp = trace.modified_hypothesis
    total = max(0, len(hyp) - n + 1)
    if total == 0:
        return 0.0, 0
    allowed = Counter()
    for ref in pair.references:
        counts = Counter(tuple(ref[j : j + n]) for j in range(len(ref) - n + 1))
        for gram, count in counts.items():
            if count > allowed[gram]:
                allowed[gram] = count
    instances = {}
    for i in range(total):
        gram = tuple(hyp[i : i + n])
        weight = cfg.synonym_score ** sum(
            1 for j in range(i, i + n) if j in trace.substituted_positions
        )
        if any(token in rare.words for token in gram):
            weight *= cfg.rare_words_score
        instances.setdefault(gram, []).append(weight)
    matched = 0.0
    for gram, weights in instances.items():
        cap = allowed[gram]
        if cap <= 0:
            continue
        weights.sort(reverse=True)
        matched += left_sum(weights[:cap])
    return matched, total


# --- Oracles: word-level Levenshtein distance, and the fewest edits over
# every sequence of block moves, found by exhaustive search.


def dp_edit_distance(a, b):
    """Plain Levenshtein, written independently of the implementation."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[-1][-1]


def all_block_moves(seq):
    n = len(seq)
    for i in range(n):
        for length in range(1, n - i + 1):
            block = seq[i : i + length]
            rest = seq[:i] + seq[i + length :]
            for pos in range(len(rest) + 1):
                moved = rest[:pos] + block + rest[pos:]
                if moved != seq:
                    yield moved


def optimal_shift_edits(hyp, ref):
    """Exhaustive search: min over shift sequences of shifts + edit distance."""
    hyp, ref = tuple(hyp), tuple(ref)
    best = dp_edit_distance(hyp, ref)
    seen = {hyp: 0}
    queue = deque([hyp])
    while queue:
        current = queue.popleft()
        moves = seen[current]
        if moves + 1 >= best:
            continue
        for moved in all_block_moves(current):
            if moved in seen:
                continue
            seen[moved] = moves + 1
            best = min(best, moves + 1 + dp_edit_distance(moved, ref))
            queue.append(moved)
    return best


# --- Oracle: TER's greedy shift search as it stood when every candidate
# sequence was built in full and deduplicated. Copied unchanged (apart
# from names) from ``mteval.refmetrics._candidate_shifts`` and the greedy
# loop of ``_shifted_edit_count``, with the edit distance passed in.

_ORACLE_MAX_SHIFT_PHRASE = 10
_ORACLE_MAX_SHIFT_DISTANCE = 50


def _oracle_candidate_shifts(hyp, ref):
    seen = set()
    for i in range(len(hyp)):
        for j in range(len(ref)):
            if hyp[i] != ref[j] or i == j:
                continue
            if abs(i - j) > _ORACLE_MAX_SHIFT_DISTANCE:
                continue
            run = 0
            while (
                i + run < len(hyp)
                and j + run < len(ref)
                and hyp[i + run] == ref[j + run]
                and run < _ORACLE_MAX_SHIFT_PHRASE
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


def oracle_shifted_edit_count(hyp, ref, edit_distance):
    """``edit_distance(seq, ref)`` is any exact word-level Levenshtein."""
    current = tuple(hyp)
    edits = 0
    distance = edit_distance(current, ref)
    while distance > 0:
        best_gain = 0
        best_seq = None
        for candidate in _oracle_candidate_shifts(current, ref):
            gain = distance - edit_distance(candidate, ref)
            if gain > best_gain:
                best_gain, best_seq = gain, candidate
        if best_seq is None:
            break
        edits += 1
        current = best_seq
        distance -= best_gain
    return edits + distance


# --- Oracles: METEOR's, LEPOR's and RIBES's word alignment as it stood when
# each hypothesis word scanned the reference. Copied unchanged (apart from
# names) from ``mteval.refmetrics._align_unigrams``, ``_position_alignment``,
# ``_order_alignment`` and ``_kendall_tau``.


def oracle_align_unigrams(hyp, ref, lexicon):
    """Two-stage one-to-one alignment: exact words first, then synonyms."""
    taken = [False] * len(ref)
    aligned = {}
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


def oracle_position_alignment(hyp, ref):
    positions = {}
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


# --- Oracle: LEPOR's alignment as it stood when each token ran ``min`` over
# its word's free positions. Copied unchanged (apart from the name) from
# ``mteval.refmetrics._position_alignment``.


def oracle_min_free_position_alignment(hyp, ref):
    free = {}
    for j, word in enumerate(ref):
        free.setdefault(word, []).append(j)
    hyp_n, ref_n = len(hyp), len(ref)
    total_diff = 0.0
    matches = 0
    for i, word in enumerate(hyp):
        slots = free.get(word)
        if not slots:
            continue
        hyp_pos = (i + 1) / hyp_n
        if len(slots) == 1:
            j = slots.pop()
        else:
            j = min(slots, key=lambda j: (abs(hyp_pos - (j + 1) / ref_n), j))
            slots.remove(j)
        matches += 1
        total_diff += abs(hyp_pos - (j + 1) / ref_n)
    return total_diff, matches


def oracle_order_alignment(hyp, ref):
    hyp_counts = Counter(hyp)
    ref_counts = Counter(ref)
    positions = {}
    for j, word in enumerate(ref):
        positions.setdefault(word, []).append(j)
    taken = [False] * len(ref)
    aligned = {}
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


def oracle_kendall_tau(seq):
    n = len(seq)
    concordant = 0
    for a in range(n - 1):
        for b in range(a + 1, n):
            if seq[a] < seq[b]:
                concordant += 1
    pairs = n * (n - 1) // 2
    return (2 * concordant - pairs) / pairs


# --- Oracles: BLEU, LEPOR and RIBES as they stood when their weights were
# config fields (``BleuConfig.weights``, ``LeporConfig(alpha, beta)``,
# ``RibesConfig(alpha)``): the score formulas of ``mteval.bleu.bleu_score``,
# ``mteval.refmetrics.lepor_score`` and ``ribes_score`` with the weights as
# arguments, over statistics from the scanning oracles above, added up in
# corpus order.


def oracle_bleu_score(corpus, weights, smoothing_epsilon=0.0):
    max_order = len(weights)
    matched = [0] * max_order
    totals = [0] * max_order
    hyp_len = ref_len = 0
    for pair in corpus:
        c = len(pair.hypothesis)
        hyp_len += c
        ref_len += min((len(ref) for ref in pair.references), key=lambda rl: (abs(rl - c), rl))
        for n in range(1, max_order + 1):
            hyp = _oracle_window_counts(pair.hypothesis, n)
            best = _oracle_pair_max_ref_counts(pair, n)
            matched[n - 1] += sum(min(count, best[gram]) for gram, count in hyp.items())
            totals[n - 1] += sum(hyp.values())
    if hyp_len > ref_len:
        bp = 1.0
    elif hyp_len == 0:
        bp = 0.0 if ref_len > 0 else 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    log_sum = 0.0
    dead = False
    for m, t, w in zip(matched, totals, weights):
        p = m / t if t else 0.0
        if p == 0.0:
            if smoothing_epsilon > 0.0 and t > 0:
                p = smoothing_epsilon / t
            else:
                dead = True
                continue
        log_sum += w * math.log(p)
    return 0.0 if dead else bp * math.exp(log_sum)


def oracle_lepor_score(corpus, alpha, beta):
    total_diff = 0.0
    matches = hyp_total = ref_total = 0
    for pair in corpus:
        c = len(pair.hypothesis)
        r = min((len(ref) for ref in pair.references), key=lambda rl: (abs(rl - c), rl))
        ref = next(ref for ref in pair.references if len(ref) == r)
        diff, m = oracle_position_alignment(pair.hypothesis, ref)
        total_diff += diff
        matches += m
        hyp_total += c
        ref_total += r
    if matches == 0 or hyp_total == 0 or ref_total == 0:
        return 0.0
    precision = matches / hyp_total
    recall = matches / ref_total
    npd = total_diff / hyp_total
    harmonic = (alpha + beta) / (alpha / recall + beta / precision)
    # BLEU's brevity penalty of the shorter length against the longer
    penalty = math.exp(1.0 - max(hyp_total, ref_total) / min(hyp_total, ref_total))
    return penalty * math.exp(-npd) * harmonic


def oracle_ribes_score(corpus, alpha):
    total = 0.0
    for pair in corpus:
        best = 0.0
        for ref in pair.references:
            aligned = oracle_order_alignment(pair.hypothesis, ref)
            if len(aligned) < 2:
                continue
            normalized = (oracle_kendall_tau(aligned) + 1.0) / 2.0
            precision = len(aligned) / len(pair.hypothesis)
            best = max(best, normalized * precision**alpha)
        total += best
    return total / len(corpus)


def oracle_goodman_kruskal_lambda(counts):
    """lambda(C|R) and its variance, scanning every cell of the dense
    table ``counts[row][col]``; raises ``DegenerateTableError`` when one
    column holds every count."""
    n = sum(map(sum, counts))
    col_totals = [sum(row[j] for row in counts) for j in range(len(counts[0]))]
    r = max(col_totals)
    best_col = col_totals.index(r)
    if n == r:
        raise DegenerateTableError("no column variation, lambda undefined")
    row_maxima = [max(row) for row in counts]
    row_best_cols = [row.index(m) for row, m in zip(counts, row_maxima)]
    sum_maxima = sum(row_maxima)
    lam = (sum_maxima - r) / (n - r)
    agreeing = sum(
        m for m, j in zip(row_maxima, row_best_cols) if j == best_col
    )
    variance = (
        (n - sum_maxima) * (sum_maxima + r - 2 * agreeing) / (n - r) ** 3
    )
    return lam, max(0.0, variance)

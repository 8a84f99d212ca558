import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mteval import (
    LeporConfig,
    RibesConfig,
    SynonymLexicon,
    lepor_score,
    meteor_score,
    nist_score,
    ribes_score,
    ter_score,
)
from mteval.errors import EmptyCorpusError
from mteval.refmetrics import (
    _edit_distance,
    _length_penalty,
    _position_alignment,
    _reference_masks,
    _shifted_edit_count,
)
from mteval import ParallelCorpus
from helpers import block_moved_pair, corpus_of, random_corpus

VOCAB = list("abcdef")
EMPTY = SynonymLexicon.empty()


# --- independent oracles -----------------------------------------------------


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


# --- NIST --------------------------------------------------------------------


class TestNist:
    def test_identical_distinct_words(self):
        corpus = corpus_of(("red green blue", "red green blue"))
        # each unigram match weighs log2(3/1); higher orders weigh zero
        assert nist_score(corpus) == pytest.approx(math.log2(3), abs=1e-12)

    def test_no_overlap_scores_zero(self):
        assert nist_score(corpus_of(("x y z", "a b c"))) == 0.0

    def test_duplicated_corpus_unchanged(self):
        corpus = corpus_of(("a b c", "a b x"), ("p q", "p r"))
        doubled = ParallelCorpus(pairs=corpus.pairs + corpus.pairs, ref_count=1)
        assert nist_score(doubled) == pytest.approx(nist_score(corpus), abs=1e-12)

    def test_rarer_matches_weigh_more(self):
        # "q" appears once in the references, "a" four times
        common = corpus_of(("a", "a a a a q x y z"))
        rare = corpus_of(("q", "a a a a q x y z"))
        assert nist_score(rare) > nist_score(common)

    def test_short_hypothesis_penalized(self):
        full = corpus_of(("a b c d e f", "a b c d e f"))
        short = corpus_of(("a b c d", "a b c d e f"))
        assert nist_score(short) < nist_score(full)

    def test_brevity_factor_is_half_at_two_thirds(self):
        # 4 matched tokens against a 6-token all-distinct reference: the
        # order-1 term is log2(6), higher orders weigh zero, and the
        # 2/3 length ratio halves the total
        short = corpus_of(("a b c d", "a b c d e f"))
        assert nist_score(short) == pytest.approx(math.log2(6) * 0.5, abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            nist_score(ParallelCorpus(pairs=(), ref_count=1))


# --- TER ---------------------------------------------------------------------


class TestTer:
    def test_identity_is_zero(self):
        assert ter_score(corpus_of(("a b c", "a b c"))) == 0.0

    def test_single_substitution(self):
        assert ter_score(corpus_of(("a b c d e", "a b x d e"))) == pytest.approx(
            0.2, abs=1e-12
        )

    def test_phrase_shift_costs_one(self):
        assert ter_score(corpus_of(("c d a b", "a b c d"))) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_best_reference_wins(self):
        corpus = corpus_of(("a b c", "x y z", "a b c"))
        assert ter_score(corpus) == 0.0

    def test_normalizes_by_average_reference_length(self):
        corpus = corpus_of(("a b", "a x", "a x y z x y"))
        # one substitution, reference lengths 2 and 6 average to 4
        assert ter_score(corpus) == pytest.approx(1 / 4, abs=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            ter_score(ParallelCorpus(pairs=(), ref_count=1))

    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(st.sampled_from("abcd"), max_size=6),
        st.lists(st.sampled_from("abcd"), max_size=6),
    )
    def test_greedy_bracketed_by_oracles(self, hyp, ref):
        greedy = _shifted_edit_count(tuple(hyp), tuple(ref))
        assert optimal_shift_edits(hyp, ref) <= greedy <= dp_edit_distance(
            tuple(hyp), tuple(ref)
        )


def bit_parallel_distance(hyp, ref):
    return _edit_distance(hyp, _reference_masks(ref), len(ref))


def _sequences_over(vocab_size):
    # explicit lengths so that word boundaries at 64 and 128 bits are crossed
    words = st.sampled_from("abc"[:vocab_size])
    return st.integers(0, 140).flatmap(
        lambda n: st.lists(words, min_size=n, max_size=n)
    )


# 30 pairs with reference lengths spread evenly over 5..80 tokens
_PIN_VOCAB = [f"w{v}" for v in range(16)]
_PINNED_PAIRS = [
    block_moved_pair(random.Random(20260 + k), _PIN_VOCAB, 5 + 75 * k // 29)
    for k in range(30)
]
# Recorded by running the O(n*m) dynamic-programming TER shift search
# (the implementation before the bit-parallel edit distance) on these pairs.
_PINNED_EDITS = [
    1, 1, 3, 2, 3, 1, 3, 5, 5, 7, 6, 9, 9, 10, 11,
    13, 5, 10, 5, 7, 4, 25, 4, 13, 6, 3, 16, 11, 10, 20,
]


class TestTerEditDistance:
    @pytest.mark.parametrize(
        "hyp, ref",
        [
            ((), ()),
            (("x",), ()),
            ((), ("x",)),
            (("a",) * 70, ()),
            ((), ("a", "b") * 70),
        ],
    )
    def test_empty_side_matches_dp(self, hyp, ref):
        assert bit_parallel_distance(hyp, ref) == dp_edit_distance(hyp, ref)

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(1, 3).flatmap(
            lambda k: st.tuples(_sequences_over(k), _sequences_over(k))
        )
    )
    def test_matches_dp_on_repetitive_sequences(self, pair):
        hyp, ref = pair
        assert bit_parallel_distance(hyp, ref) == dp_edit_distance(hyp, ref)

    def test_shifted_edit_count_pinned(self):
        assert [_shifted_edit_count(h, r) for h, r in _PINNED_PAIRS] == _PINNED_EDITS


# --- METEOR ------------------------------------------------------------------


class TestMeteor:
    def test_identical_four_tokens(self):
        result = meteor_score(corpus_of(("the cat sat here", "the cat sat here")), EMPTY)
        assert result.matched_unigrams == 4
        assert result.chunk_count == 1
        assert result.penalty == pytest.approx(0.125, abs=1e-12)
        assert result.score == pytest.approx(0.875, abs=1e-12)

    def test_identity_value_depends_on_match_count(self):
        result = meteor_score(corpus_of(("a b c d e f g h", "a b c d e f g h")), EMPTY)
        assert result.score == pytest.approx(1 - 0.5 / 8, abs=1e-12)

    def test_no_overlap_scores_zero(self):
        assert meteor_score(corpus_of(("x y", "a b")), EMPTY).score == 0.0

    def test_synonym_stage_aligns_misses(self):
        lexicon = SynonymLexicon(
            entries={"exam": frozenset({"quiz"}), "quiz": frozenset({"exam"})}
        )
        result = meteor_score(corpus_of(("this is a exam", "this is a quiz")), lexicon)
        assert result.matched_unigrams == 4
        assert result.chunk_count == 1
        assert result.score == pytest.approx(0.875, abs=1e-12)

    def test_fragmentation_raises_the_penalty(self):
        contiguous = meteor_score(corpus_of(("a b c d", "a b c d")), EMPTY)
        scrambled = meteor_score(corpus_of(("b a d c", "a b c d")), EMPTY)
        assert scrambled.chunk_count > contiguous.chunk_count
        assert scrambled.score < contiguous.score

    def test_best_reference_selected_per_pair(self):
        corpus = corpus_of(("a b c d", "x y z w", "a b c d"))
        assert meteor_score(corpus, EMPTY).score == pytest.approx(0.875, abs=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            meteor_score(ParallelCorpus(pairs=(), ref_count=1), EMPTY)


# --- LEPOR -------------------------------------------------------------------


class TestLepor:
    def test_identical_sentences_score_one(self):
        assert lepor_score(corpus_of(("a b c", "a b c"))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_length_penalty_branch_short(self):
        assert _length_penalty(5, 10) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_length_penalty_branch_long(self):
        assert _length_penalty(10, 5) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_length_penalty_continuity_near_equality(self):
        r = 100
        low = _length_penalty(r - 1, r)
        high = _length_penalty(r + 1, r)
        assert math.exp(-1 / (r - 1)) - 1e-12 <= low <= 1.0
        assert math.exp(-1 / r) - 1e-12 <= high <= 1.0

    def test_swapped_words_pay_the_position_penalty(self):
        # both words match, normalized displacements are 0.5 each
        assert lepor_score(corpus_of(("b a", "a b"))) == pytest.approx(
            math.exp(-0.5), abs=1e-12
        )

    def test_position_alignment_consumes_nearest(self):
        diff, matches = _position_alignment(("b", "a"), ("a", "b"))
        assert matches == 2
        assert diff == pytest.approx(1.0, abs=1e-12)

    def test_zero_overlap_scores_zero(self):
        assert lepor_score(corpus_of(("x y", "a b"))) == 0.0

    def test_weights_shift_the_balance(self):
        corpus = corpus_of(("a b x x", "a b"))
        recall_heavy = lepor_score(corpus, LeporConfig(alpha=9.0, beta=1.0))
        precision_heavy = lepor_score(corpus, LeporConfig(alpha=1.0, beta=9.0))
        # precision is 1/2, recall is 1; weighting recall higher helps
        assert recall_heavy > precision_heavy

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            lepor_score(ParallelCorpus(pairs=(), ref_count=1))


# --- RIBES -------------------------------------------------------------------


class TestRibes:
    def test_identical_sentences_score_one(self):
        assert ribes_score(corpus_of(("a b c d", "a b c d"))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_exact_reversal_scores_zero(self):
        assert ribes_score(corpus_of(("d c b a", "a b c d"))) == 0.0

    def test_one_adjacent_swap(self):
        got = ribes_score(
            corpus_of(("a b d c", "a b c d")), RibesConfig(alpha=0.0)
        )
        assert got == pytest.approx(5 / 6, abs=1e-12)

    def test_precision_exponent_discounts_noise(self):
        corpus = corpus_of(("a b x", "a b"))
        strict = ribes_score(corpus, RibesConfig(alpha=1.0))
        lax = ribes_score(corpus, RibesConfig(alpha=0.0))
        assert strict == pytest.approx(lax * (2 / 3), abs=1e-12)

    def test_spearman_variant_agrees_on_extremes(self):
        cfg = RibesConfig(alpha=0.25, correlation_kind="spearman")
        assert ribes_score(corpus_of(("a b c d", "a b c d")), cfg) == 1.0
        assert ribes_score(corpus_of(("d c b a", "a b c d")), cfg) == 0.0

    def test_fewer_than_two_aligned_words_scores_zero(self):
        assert ribes_score(corpus_of(("a", "a"))) == 0.0

    def test_duplicate_words_align_left_to_right(self):
        assert ribes_score(corpus_of(("a a b", "a a b"))) == 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RibesConfig(alpha=2.0)
        with pytest.raises(ValueError):
            RibesConfig(correlation_kind="pearson")

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            ribes_score(ParallelCorpus(pairs=(), ref_count=1))


# --- cross-metric ranges -----------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**31))
def test_all_metrics_stay_in_range(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, VOCAB, max_pairs=3, max_len=6)
    assert nist_score(corpus) >= 0.0
    assert ter_score(corpus) >= 0.0
    assert 0.0 <= meteor_score(corpus, EMPTY).score <= 1.0
    assert 0.0 <= lepor_score(corpus) <= 1.0
    assert 0.0 <= ribes_score(corpus) <= 1.0

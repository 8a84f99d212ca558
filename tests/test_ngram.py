from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mteval import (
    BleuConfig,
    ParallelCorpus,
    bleu_score,
    clipped_match_count,
    extract_ngrams,
    modified_precision,
    tokenize,
)
from mteval.errors import OrderMismatchError
from mteval.ngram import max_ref_counts, window_counts, windows
from helpers import pair_of, small_corpora

TOKENS = st.lists(st.sampled_from("abcde"), max_size=8)
ORDERS = st.integers(min_value=1, max_value=4)


def brute_force_ngrams(tokens, n):
    """Independent window enumeration."""
    grams = {}
    for i in range(len(tokens)):
        window = tuple(tokens[i : i + n])
        if len(window) == n:
            grams[window] = grams.get(window, 0) + 1
    return grams


def brute_force_clipped(hyp, refs, n):
    hyp_grams = brute_force_ngrams(hyp, n)
    total = 0
    for gram, count in hyp_grams.items():
        best = 0
        for ref in refs:
            best = max(best, brute_force_ngrams(ref, n).get(gram, 0))
        total += min(count, best)
    return total


class TestExtractNgrams:
    def test_bigram_windows(self):
        got = extract_ngrams(tokenize("the cat is here"), 2)
        assert got.order == 2
        assert dict(got.counts) == {
            ("the", "cat"): 1,
            ("cat", "is"): 1,
            ("is", "here"): 1,
        }

    def test_repeated_unigram_multiplicity(self):
        got = extract_ngrams(("the",) * 7, 1)
        assert dict(got.counts) == {("the",): 7}

    def test_window_longer_than_sentence(self):
        assert dict(extract_ngrams(("a", "b"), 3).counts) == {}

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            extract_ngrams(("a",), 0)

    @given(TOKENS, ORDERS)
    def test_total_multiplicity(self, tokens, n):
        total = sum(extract_ngrams(tokens, n).counts.values())
        assert total == max(0, len(tokens) - n + 1)


@st.composite
def small_vocab_sentences(draw, min_count, max_count):
    """1-3 token lists (empty ones included) over a shared 1-3-word vocabulary."""
    vocab = draw(st.sampled_from(("a", "ab", "abc")))
    sentence = st.lists(st.sampled_from(vocab), max_size=10)
    return draw(st.lists(sentence, min_size=min_count, max_size=max_count))


# Orders past the longest sentence (10 tokens) included.
WIDE_ORDERS = st.integers(min_value=1, max_value=12)


class TestWindowCounts:
    def test_empty_tokens(self):
        assert window_counts((), 1) == {}

    def test_order_longer_than_sentence(self):
        assert window_counts(("a", "b"), 3) == {}

    def test_unigrams(self):
        assert window_counts(("b", "a", "b"), 1) == {("b",): 2, ("a",): 1}

    def test_order_past_the_sentence_builds_no_slices(self):
        # One slice per order would make a large --max-ngram cost time in
        # the order itself, on every sentence and reference.
        class SliceCounting(Sequence):
            slices = 0

            def __init__(self, items):
                self.items = tuple(items)

            def __len__(self):
                return len(self.items)

            def __getitem__(self, index):
                if isinstance(index, slice):
                    SliceCounting.slices += 1
                return self.items[index]

        tokens = SliceCounting("abc")
        assert list(windows(tokens, 10**6)) == []
        assert SliceCounting.slices <= len(tokens) + 1

    @given(small_vocab_sentences(1, 1), WIDE_ORDERS)
    def test_matches_brute_force_in_first_occurrence_order(self, sentences, n):
        tokens = sentences[0]
        got = window_counts(tokens, n)
        want = brute_force_ngrams(tokens, n)
        assert dict(got) == want
        assert list(got) == list(want)


class TestMaxRefCounts:
    def test_no_references(self):
        assert max_ref_counts([], 2) == {}

    def test_takes_the_larger_count_of_either_reference(self):
        got = max_ref_counts([("a", "a", "b"), ("b", "b", "c")], 1)
        assert dict(got) == {("a",): 2, ("b",): 2, ("c",): 1}

    @given(small_vocab_sentences(1, 3), WIDE_ORDERS)
    def test_matches_brute_force_in_first_occurrence_order(self, refs, n):
        want = {}
        for ref in refs:
            for gram, count in brute_force_ngrams(ref, n).items():
                want[gram] = max(want.get(gram, 0), count)
        got = max_ref_counts(refs, n)
        assert dict(got) == want
        assert list(got) == list(want)


class TestClippedMatchCount:
    REF1 = tokenize("the cat is on the mat")
    REF2 = tokenize("there is a cat on the mat")

    def test_clips_at_best_reference_count(self):
        hyp = extract_ngrams(("the",) * 7, 1)
        refs = [extract_ngrams(self.REF1, 1), extract_ngrams(self.REF2, 1)]
        assert clipped_match_count(hyp, refs) == 2

    def test_full_match_against_single_reference(self):
        tokens = tokenize("a b c a")
        hyp = extract_ngrams(tokens, 2)
        assert clipped_match_count(hyp, [extract_ngrams(tokens, 2)]) == 3

    def test_bigram_partial_overlap(self):
        hyp = extract_ngrams(tokenize("the cat is here"), 2)
        ref = extract_ngrams(self.REF1, 2)
        assert clipped_match_count(hyp, [ref]) == 2

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            clipped_match_count(
                extract_ngrams(("a",), 1), [extract_ngrams(("a", "b"), 2)]
            )

    @given(TOKENS, st.lists(TOKENS, min_size=1, max_size=3), ORDERS)
    def test_matches_brute_force(self, hyp, refs, n):
        got = clipped_match_count(
            extract_ngrams(hyp, n), [extract_ngrams(r, n) for r in refs]
        )
        assert got == brute_force_clipped(hyp, refs, n)

    @given(TOKENS, st.lists(TOKENS, min_size=1, max_size=3), TOKENS, ORDERS)
    def test_adding_a_reference_never_decreases(self, hyp, refs, extra, n):
        hyp_counts = extract_ngrams(hyp, n)
        base = clipped_match_count(hyp_counts, [extract_ngrams(r, n) for r in refs])
        more = clipped_match_count(
            hyp_counts, [extract_ngrams(r, n) for r in refs + [extra]]
        )
        assert more >= base

    @given(TOKENS, st.lists(TOKENS, min_size=1, max_size=3), ORDERS)
    def test_bounded_by_both_sides(self, hyp, refs, n):
        hyp_counts = extract_ngrams(hyp, n)
        ref_counts = [extract_ngrams(r, n) for r in refs]
        clipped = clipped_match_count(hyp_counts, ref_counts)
        hyp_total = sum(hyp_counts.counts.values())
        best_total = sum(
            max(rc.counts.get(g, 0) for rc in ref_counts)
            for g in {g for rc in ref_counts for g in rc.counts}
        )
        assert 0 <= clipped <= min(hyp_total, best_total)


class TestModifiedPrecision:
    def test_overgenerated_common_word(self):
        pair = pair_of(
            "the the the the the the the",
            "the cat is on the mat",
            "there is a cat on the mat",
        )
        assert modified_precision(pair, 1) == pytest.approx(2 / 7, abs=1e-12)

    def test_bigram_example(self):
        pair = pair_of("the cat is here", "the cat is on the mat")
        assert modified_precision(pair, 2) == pytest.approx(2 / 3, abs=1e-12)

    def test_identical_sentences(self):
        pair = pair_of("a b c d", "a b c d")
        for n in range(1, 5):
            assert modified_precision(pair, n) == 1.0

    def test_empty_hypothesis_scores_zero(self):
        assert modified_precision(pair_of("", "a b"), 1) == 0.0

    @given(TOKENS, st.lists(TOKENS, min_size=1, max_size=3), ORDERS)
    def test_stays_in_unit_interval(self, hyp, refs, n):
        p = modified_precision(pair_of(" ".join(hyp), *(" ".join(r) for r in refs)), n)
        assert 0.0 <= p <= 1.0


class TestOneClippingRule:
    @settings(deadline=None, max_examples=150)
    @given(small_corpora(max_len=8), st.integers(1, 4))
    def test_equals_bleu_matched_and_totals(self, corpus, order):
        # One clipping path: the ngram functions and BLEU's statistics of
        # the one-pair corpus agree exactly.
        for pair in corpus.pairs:
            details = bleu_score(
                ParallelCorpus((pair,), corpus.ref_count), BleuConfig(max_order=order)
            ).details
            for n in range(1, order + 1):
                matched, total = details["matched"][n - 1], details["totals"][n - 1]
                hyp = extract_ngrams(pair.hypothesis, n)
                refs = [extract_ngrams(ref, n) for ref in pair.references]
                assert clipped_match_count(hyp, refs) == matched
                assert sum(hyp.counts.values()) == total
                precision = modified_precision(pair, n)
                assert precision == (matched / total if total else 0.0)
                assert precision == details["precisions"][n - 1]

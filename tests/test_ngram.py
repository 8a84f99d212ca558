from collections import Counter
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mteval import (
    BleuConfig,
    EbleuConfig,
    ParallelCorpus,
    SynonymLexicon,
    bleu_score,
    ebleu_score,
    modified_precision,
    nist_score,
    tokenize,
)
from mteval import bleu, ebleu, ngram, refmetrics
from mteval.ngram import (
    clipped_counts,
    max_ref_counts,
    order_windows,
    window_counts,
    window_total,
)
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


def brute_force_all_orders(tokens, n):
    """The brute-force windows of orders 1..n in one dict, shorter orders first."""
    grams = {}
    for k in range(1, n + 1):
        grams.update(brute_force_ngrams(tokens, k))
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


def clipped_total(hyp, refs, n):
    """Order-``n`` clipped matches through the path the scorers run."""
    clipped = clipped_counts(window_counts(hyp, n), max_ref_counts(refs, n))
    return sum(m for gram, m in clipped if len(gram) == n)


class TestExtractNgrams:
    def test_bigram_windows(self):
        got = window_counts(tokenize("the cat is here"), 2)
        assert list(got.items()) == [
            (("the",), 1),
            (("cat",), 1),
            (("is",), 1),
            (("here",), 1),
            (("the", "cat"), 1),
            (("cat", "is"), 1),
            (("is", "here"), 1),
        ]

    def test_repeated_unigram_multiplicity(self):
        assert dict(window_counts(("the",) * 7, 1)) == {("the",): 7}

    def test_window_longer_than_sentence(self):
        got = window_counts(("a", "b"), 3)
        assert [gram for gram in got if len(gram) == 3] == []

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            modified_precision(pair_of("a", "a"), 0)

    @given(TOKENS, ORDERS)
    def test_total_multiplicity(self, tokens, n):
        counts = window_counts(tokens, n)
        for k in range(1, n + 1):
            order_total = sum(c for gram, c in counts.items() if len(gram) == k)
            assert order_total == max(0, len(tokens) - k + 1)
        assert sum(counts.values()) == sum(window_total(len(tokens), k) for k in range(1, n + 1))


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
        assert window_counts((), 4) == {}

    def test_order_longer_than_sentence(self):
        assert window_counts(("a", "b"), 3) == window_counts(("a", "b"), 2)

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
        assert len(order_windows(tokens, 10**6)) == len(tokens)
        assert SliceCounting.slices == len(tokens)
        # All orders share one set of shifted slices: orders 1..3 take 3,
        # not 1 + 2 + 3.
        SliceCounting.slices = 0
        assert window_counts(tokens, 10**6) == window_counts("abc", 3)
        assert SliceCounting.slices == len(tokens)
        SliceCounting.slices = 0
        assert max_ref_counts([tokens, tokens], 10**6) == window_counts("abc", 3)
        assert SliceCounting.slices == 2 * len(tokens)
        # A sentence longer than the order takes one slice per order: 5 at
        # order 5, where building each order on its own takes 15.
        tokens = SliceCounting("abcdefgh")
        for max_order in range(1, 12):
            SliceCounting.slices = 0
            assert window_counts(tokens, max_order) == window_counts("abcdefgh", max_order)
            assert SliceCounting.slices == min(max_order, len(tokens))

    @given(small_vocab_sentences(1, 1), WIDE_ORDERS)
    def test_matches_brute_force_in_first_occurrence_order(self, sentences, n):
        tokens = sentences[0]
        got = window_counts(tokens, n)
        want = brute_force_all_orders(tokens, n)
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
            for gram, count in brute_force_all_orders(ref, n).items():
                want[gram] = max(want.get(gram, 0), count)
        got = max_ref_counts(refs, n)
        assert dict(got) == want
        assert list(got) == list(want)


# Orders 1-6 over a three-letter alphabet, so n-grams repeat within and
# across sentences.
KEEP_TOKENS = st.lists(st.sampled_from("abc"), max_size=10)
KEEP_ORDERS = st.integers(min_value=1, max_value=6)


class TestKeep:
    """Tables restricted to the n-grams a hypothesis has (``keep``)."""

    @given(KEEP_TOKENS, KEEP_TOKENS, KEEP_ORDERS)
    def test_window_counts_is_the_full_table_restricted_in_order(self, tokens, other, n):
        keep = window_counts(other, n)
        got = window_counts(tokens, n, keep)
        want = [(gram, count) for gram, count in window_counts(tokens, n).items() if gram in keep]
        assert list(got.items()) == want

    @given(KEEP_TOKENS, st.lists(KEEP_TOKENS, min_size=1, max_size=3), KEEP_ORDERS)
    def test_max_ref_counts_is_the_full_table_restricted(self, hyp, refs, n):
        keep = window_counts(hyp, n)
        full = max_ref_counts(refs, n)
        assert max_ref_counts(refs, n, keep) == {g: c for g, c in full.items() if g in keep}

    @given(KEEP_TOKENS, st.lists(KEEP_TOKENS, min_size=1, max_size=3), KEEP_ORDERS)
    def test_clipping_against_the_restricted_table_keeps_every_match(self, hyp, refs, n):
        hyp_counts = window_counts(hyp, n)
        got = list(clipped_counts(hyp_counts, max_ref_counts(refs, n, hyp_counts)))
        full = clipped_counts(hyp_counts, max_ref_counts(refs, n))
        assert got == [(gram, m) for gram, m in full if m]
        assert all(m > 0 for _, m in got)


class TestClippedMatchCount:
    REF1 = tokenize("the cat is on the mat")
    REF2 = tokenize("there is a cat on the mat")

    def test_clips_at_best_reference_count(self):
        assert clipped_total(("the",) * 7, [self.REF1, self.REF2], 1) == 2

    def test_full_match_against_single_reference(self):
        tokens = tokenize("a b c a")
        assert clipped_total(tokens, [tokens], 2) == 3

    def test_bigram_partial_overlap(self):
        assert clipped_total(tokenize("the cat is here"), [self.REF1], 2) == 2

    @given(TOKENS, st.lists(TOKENS, min_size=1, max_size=3), ORDERS)
    def test_matches_brute_force(self, hyp, refs, n):
        assert clipped_total(hyp, refs, n) == brute_force_clipped(hyp, refs, n)

    @given(TOKENS, st.lists(TOKENS, min_size=1, max_size=3), TOKENS, ORDERS)
    def test_adding_a_reference_never_decreases(self, hyp, refs, extra, n):
        assert clipped_total(hyp, refs + [extra], n) >= clipped_total(hyp, refs, n)

    @given(TOKENS, st.lists(TOKENS, min_size=1, max_size=3), ORDERS)
    def test_bounded_by_both_sides(self, hyp, refs, n):
        clipped = clipped_total(hyp, refs, n)
        hyp_total = sum(c for g, c in window_counts(hyp, n).items() if len(g) == n)
        best_total = sum(c for g, c in max_ref_counts(refs, n).items() if len(g) == n)
        assert best_total == sum(
            max(brute_force_ngrams(r, n).get(g, 0) for r in refs)
            for g in {g for r in refs for g in brute_force_ngrams(r, n)}
        )
        assert 0 <= clipped <= min(hyp_total, best_total)


class TestOneTablePerSentence:
    """Each scorer counts a sentence's n-grams of every order in one table."""

    HYP, REF1, REF2 = ("a b c a b", "a b c d", "b c a")

    @pytest.mark.parametrize("max_order", [1, 4])
    @pytest.mark.parametrize("metric", ["bleu", "ebleu", "nist"])
    def test_one_table_per_reference_and_hypothesis(self, monkeypatch, metric, max_order):
        corpus = ParallelCorpus((pair_of(self.HYP, self.REF1, self.REF2),), 2)
        run = {
            "bleu": lambda: bleu_score(corpus, BleuConfig(max_order=max_order)),
            "ebleu": lambda: ebleu_score(
                corpus, SynonymLexicon.empty(), EbleuConfig(max_order=max_order)
            ),
            "nist": lambda: nist_score(corpus, max_order),
        }[metric]
        tables = Counter()
        original = ngram.window_counts

        def counting(tokens, *args):
            tables[" ".join(tokens)] += 1
            return original(tokens, *args)

        for module in (ngram, bleu, ebleu, refmetrics):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counting)
        run()
        # EBLEU counts its substituted hypothesis by window, not by table.
        want = {self.REF1: 1, self.REF2: 1} | ({} if metric == "ebleu" else {self.HYP: 1})
        assert tables == want


class TestOrdersPastTheHypothesis:
    @pytest.mark.parametrize("metric", ["bleu", "ebleu", "nist"])
    def test_build_no_windows(self, monkeypatch, metric):
        # At order 50 a 3-token hypothesis has windows of orders 1-3 only,
        # and no longer reference window can match one of them.
        built = []
        original = ngram.order_windows

        def recording(tokens, max_order):
            orders = original(tokens, max_order)
            built.append((" ".join(tokens), len(orders)))
            return orders

        for module in (ngram, ebleu):
            monkeypatch.setattr(module, "order_windows", recording)
        corpus = ParallelCorpus((pair_of("a b c", "a b c d e f"),), 1)
        if metric == "bleu":
            details = bleu_score(corpus, BleuConfig(max_order=50)).details
            assert details["precisions"] == [1.0] * 3 + [0.0] * 47
        elif metric == "ebleu":
            cfg = EbleuConfig(max_order=50, rare_words_score=1.0)
            details = ebleu_score(corpus, SynonymLexicon.empty(), cfg).details
            assert details["order_scores"] == [1.0] * 3 + [0.0] * 47
        else:
            assert nist_score(corpus, 50) == nist_score(corpus, 3)
        assert set(built) == {("a b c", 3), ("a b c d e f", 3)}


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
            hyp = window_counts(pair.hypothesis, order)
            for n in range(1, order + 1):
                matched, total = details["matched"][n - 1], details["totals"][n - 1]
                assert clipped_total(pair.hypothesis, pair.references, n) == matched
                assert sum(c for g, c in hyp.items() if len(g) == n) == total
                precision = modified_precision(pair, n)
                assert precision == (matched / total if total else 0.0)
                assert precision == details["precisions"][n - 1]

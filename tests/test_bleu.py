import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mteval import (
    BleuConfig,
    ParallelCorpus,
    bleu_score,
    brevity_penalty,
    effective_reference_length,
    nist_score,
)
from mteval import bleu
from mteval.errors import EmptyCorpusError
from helpers import (
    EDGE_LINES,
    LONG_LINE,
    LONG_MOVED_LINE,
    corpus_of,
    random_corpus,
    small_corpora,
)

VOCAB = list("abcdefg")


class TestBrevityPenalty:
    def test_longer_candidate_unpenalized(self):
        assert brevity_penalty(11, 10) == 1.0

    def test_short_candidate(self):
        assert brevity_penalty(5, 10) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_equal_lengths(self):
        assert brevity_penalty(10, 10) == 1.0

    def test_empty_candidate(self):
        assert brevity_penalty(0, 5) == 0.0
        assert brevity_penalty(0, 0) == 1.0


class TestEffectiveReferenceLength:
    def test_closest_wins(self):
        assert effective_reference_length(7, [3, 6, 20]) == 6

    def test_tie_goes_to_shorter(self):
        assert effective_reference_length(5, [4, 6]) == 4


class TestBleuScore:
    def test_identical_pair_is_one(self):
        corpus = corpus_of(("a b c d e", "a b c d e"))
        assert bleu_score(corpus).corpus_score == pytest.approx(1.0, abs=1e-12)

    def test_unigram_synonym_miss(self):
        corpus = corpus_of(("this is a exam", "this is a quiz"))
        score = bleu_score(corpus, BleuConfig(max_order=1))
        assert score.corpus_score == pytest.approx(0.75, abs=1e-12)

    def test_zero_precision_zeroes_the_score(self):
        corpus = corpus_of(("a b", "b a"))
        score = bleu_score(corpus, BleuConfig(max_order=2))
        assert score.corpus_score == 0.0
        assert score.details["precisions"][1] == 0.0

    def test_smoothing_rescues_zero_precision(self):
        corpus = corpus_of(("a b", "b a"))
        score = bleu_score(corpus, BleuConfig(max_order=2, smoothing_epsilon=0.1))
        assert 0.0 < score.corpus_score < 1.0

    @settings(deadline=None, max_examples=60)
    @given(small_corpora(), st.integers(1, 4), st.sampled_from([0.0, 0.1]))
    def test_per_sentence_matches_singleton_corpus(self, corpus, max_order, epsilon):
        # bit for bit
        cfg = BleuConfig(max_order=max_order, smoothing_epsilon=epsilon)
        sink = []
        bleu_score(corpus, cfg, per_sentence=sink)
        assert sink == [
            bleu_score(ParallelCorpus((pair,), corpus.ref_count), cfg).corpus_score
            for pair in corpus.pairs
        ]

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            bleu_score(ParallelCorpus(pairs=(), ref_count=1))

    def test_uniform_weight_geometric_mean_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            corpus = random_corpus(rng, VOCAB, max_pairs=5, max_len=10, min_len=4)
            score = bleu_score(corpus)
            precisions = score.details["precisions"]
            if any(p == 0.0 for p in precisions):
                assert score.corpus_score == 0.0
                continue
            geo = score.details["brevity_penalty"] * math.prod(precisions) ** (
                1 / len(precisions)
            )
            assert score.corpus_score == pytest.approx(geo, abs=1e-12)

    def test_pair_order_is_irrelevant(self):
        rng = random.Random(11)
        corpus = random_corpus(rng, VOCAB, max_pairs=8, max_len=10, min_len=2)
        shuffled = list(corpus.pairs)
        rng.shuffle(shuffled)
        permuted = ParallelCorpus(pairs=tuple(shuffled), ref_count=1)
        assert bleu_score(permuted).corpus_score == pytest.approx(
            bleu_score(corpus).corpus_score, abs=1e-12
        )

    def test_duplicating_every_pair_is_a_no_op(self):
        rng = random.Random(13)
        corpus = random_corpus(rng, VOCAB, max_pairs=6, max_len=10, min_len=2)
        doubled = ParallelCorpus(pairs=corpus.pairs + corpus.pairs, ref_count=1)
        assert bleu_score(doubled).corpus_score == pytest.approx(
            bleu_score(corpus).corpus_score, abs=1e-12
        )

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_score_stays_in_unit_interval(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng, VOCAB, max_pairs=4, max_len=8)
        score = bleu_score(corpus, BleuConfig(max_order=2))
        assert 0.0 <= score.corpus_score <= 1.0

    def test_formula_runs_per_pair_only_for_a_sink(self, monkeypatch):
        # The formula is wrapped where ``bleu_score`` looks it up.
        calls = []

        def counting(*args):
            calls.append(args)
            return brevity_penalty(*args)

        monkeypatch.setattr(bleu, "brevity_penalty", counting)
        corpus = corpus_of(("a b c", "a b c"), ("a b", "b a"), ("c", "a c"))
        bleu_score(corpus)
        assert len(calls) == 1
        bleu_score(corpus, per_sentence=[])
        assert len(calls) == 1 + len(corpus) + 1


class TestNistMatches:
    """BLEU's clipped matches read from a list NIST filled."""

    @settings(deadline=None, max_examples=80)
    @given(
        small_corpora(),
        st.integers(1, 5),
        st.sampled_from([0.0, 0.1]),
        st.booleans(),
    )
    def test_scores_equal_counting_them(self, corpus, max_order, epsilon, sentences):
        # bit for bit, in score, details and per-sentence scores
        cfg = BleuConfig(max_order=max_order, smoothing_epsilon=epsilon)
        matched = []
        nist_score(corpus, 5, matched_per_order=matched)
        assert len(matched) == len(corpus)
        counted_sink = [] if sentences else None
        read_sink = [] if sentences else None
        counted = bleu_score(corpus, cfg, per_sentence=counted_sink)
        read = bleu_score(corpus, cfg, per_sentence=read_sink, matched_per_order=matched)
        assert read.corpus_score == counted.corpus_score
        assert read.details == counted.details
        assert read_sink == counted_sink

    def test_reads_the_entries_and_counts_no_ngram(self, monkeypatch):
        corpus = corpus_of(("a b c", "a b c"), ("a b", "b a"))
        matched = [[3, 2, 1, 0, 0], [2, 0, 0, 0, 0]]

        def fail(*args):
            raise AssertionError("counted an n-gram table")

        monkeypatch.setattr(bleu, "extract_ngrams", fail)
        monkeypatch.setattr(bleu, "max_ref_counts", fail)
        score = bleu_score(corpus, BleuConfig(max_order=2), matched_per_order=matched)
        assert score.details["matched"] == [5, 2]
        assert score.details["totals"] == [5, 3]

    @pytest.mark.parametrize(
        "matched",
        [
            [],
            [[1, 1, 0, 0, 0]],
            [[1, 1, 0, 0, 0]] * 3,
            [[1, 1, 0, 0, 0], [1, 1, 0]],
            [[1, 1, 0], [1, 1, 0]],
        ],
    )
    def test_wrong_length_or_short_entry_is_rejected(self, matched):
        corpus = corpus_of(("a b c", "a b c"), ("a b", "b a"))
        with pytest.raises(ValueError):
            bleu_score(corpus, BleuConfig(max_order=4), matched_per_order=matched)


class TestOrderColumns:
    """A pair's totals are its hypothesis windows of each order, however
    many orders its matches cover."""

    @staticmethod
    def check(pair, max_order):
        columns = bleu.order_columns(pair, bleu._clipped_matches(pair, max_order))
        c = len(pair.hypothesis)
        expected = [max(0, c - n + 1) for n in range(1, max_order + 1)]
        assert columns[max_order : 2 * max_order] == expected

    @settings(deadline=None, max_examples=100)
    @given(small_corpora(), st.integers(1, 8))
    def test_small_corpora(self, corpus, max_order):
        for pair in corpus.pairs:
            self.check(pair, max_order)

    @pytest.mark.parametrize("max_order", range(1, 9))
    @pytest.mark.parametrize("line", EDGE_LINES)
    def test_edge_lines(self, line, max_order):
        self.check(corpus_of(line).pairs[0], max_order)


class TestEdgeLines:
    # An empty line matches nothing and a one-token line has no n-gram above
    # order 1, so without smoothing BLEU-4 reads zero on every one of them.
    @pytest.mark.parametrize("line, bleu1", zip(EDGE_LINES, [0.0, 0.0, 0.0, 1.0, 0.0]))
    def test_empty_and_one_token_lines(self, line, bleu1):
        corpus = corpus_of(line)
        for cfg, expected in ((BleuConfig(), 0.0), (BleuConfig(max_order=1), bleu1)):
            sink = []
            result = bleu_score(corpus, cfg, per_sentence=sink)
            assert (result.corpus_score, sink) == (expected, [expected])

    def test_smoothing_leaves_an_order_without_ngrams_at_zero(self):
        # "a" has no bigram (t = 0), and smoothing floors only at epsilon / t
        corpus = corpus_of(("a", "a"), ("b c d e f", "b c d e f"))
        sink = []
        bleu_score(corpus, BleuConfig(smoothing_epsilon=0.1), per_sentence=sink)
        assert sink == [0.0, 1.0]

    def test_long_pair(self):
        assert bleu_score(corpus_of((LONG_LINE, LONG_LINE))).corpus_score == 1.0
        moved = bleu_score(corpus_of((LONG_MOVED_LINE, LONG_LINE))).corpus_score
        # each of the three boundaries of the moved block breaks n-1 n-grams
        log_precisions = [
            math.log((2001 - n - 3 * (n - 1)) / (2001 - n)) for n in range(1, 5)
        ]
        assert moved == pytest.approx(math.exp(sum(log_precisions) / 4), rel=1e-12)

class TestBleuConfig:
    def test_uniform_default_weights(self):
        assert BleuConfig(max_order=4).resolved_weights() == (0.25,) * 4

    def test_weight_count_must_match_order(self):
        with pytest.raises(ValueError):
            BleuConfig(max_order=2, weights=(1.0,))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BleuConfig(max_order=2, weights=(0.9, 0.2))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            BleuConfig(max_order=2, weights=(1.2, -0.2))

    # A subnormal epsilon can floor a zero precision at epsilon / t = 0.0.
    def test_epsilon_is_zero_or_a_normal_float(self):
        with pytest.raises(ValueError, match="smoothing_epsilon .* got 5e-324"):
            BleuConfig(smoothing_epsilon=5e-324)
        corpus = corpus_of(("the cat sat on", "a dog ran far"))
        tiny = BleuConfig(smoothing_epsilon=sys.float_info.min)
        assert 0.0 < bleu_score(corpus, tiny).corpus_score < sys.float_info.min
        assert bleu_score(corpus, BleuConfig()).corpus_score == 0.0

    def test_explicit_weights_used(self):
        corpus = corpus_of(("a b c", "a b x"))
        skewed = bleu_score(corpus, BleuConfig(max_order=2, weights=(0.9, 0.1)))
        uniform = bleu_score(corpus, BleuConfig(max_order=2))
        assert skewed.corpus_score > uniform.corpus_score

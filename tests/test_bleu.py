import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mteval import (
    BleuConfig,
    ParallelCorpus,
    bleu_score,
    brevity_penalty,
    effective_reference_length,
)
from mteval.errors import EmptyCorpusError
from helpers import EDGE_LINES, LONG_LINE, LONG_MOVED_LINE, corpus_of, random_corpus

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

    def test_per_sentence_matches_singleton_corpus(self):
        corpus = corpus_of(("a b c x", "a b c d"), ("p q", "p q r"))
        score = bleu_score(corpus, BleuConfig(max_order=2))
        for pair, sentence_score in zip(corpus.pairs, score.per_sentence):
            singleton = ParallelCorpus(pairs=(pair,), ref_count=1)
            expected = bleu_score(singleton, BleuConfig(max_order=2)).corpus_score
            assert sentence_score == pytest.approx(expected, abs=1e-12)

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



class TestEdgeLines:
    # An empty line matches nothing and a one-token line has no n-gram above
    # order 1, so without smoothing BLEU-4 reads zero on every one of them.
    @pytest.mark.parametrize("line, bleu1", zip(EDGE_LINES, [0.0, 0.0, 0.0, 1.0, 0.0]))
    def test_empty_and_one_token_lines(self, line, bleu1):
        corpus = corpus_of(line)
        for cfg, expected in ((BleuConfig(), 0.0), (BleuConfig(max_order=1), bleu1)):
            result = bleu_score(corpus, cfg)
            assert (result.corpus_score, result.per_sentence) == (expected, [expected])

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

    def test_explicit_weights_used(self):
        corpus = corpus_of(("a b c", "a b x"))
        skewed = bleu_score(corpus, BleuConfig(max_order=2, weights=(0.9, 0.1)))
        uniform = bleu_score(corpus, BleuConfig(max_order=2))
        assert skewed.corpus_score > uniform.corpus_score

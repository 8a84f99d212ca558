import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mteval import (
    BleuConfig,
    EbleuConfig,
    LeporConfig,
    ParallelCorpus,
    RareWordSet,
    SynonymLexicon,
    bleu_score,
    build_rare_word_set,
    ebleu_cumulative,
    ebleu_length_score,
    ebleu_order_score,
    ebleu_score,
    synonym_substitute,
)
from mteval import ebleu
from mteval.bleu import order_columns
from mteval.ebleu import _pair_order_stats
from mteval.errors import EmptyCorpusError, OrderMismatchError
from helpers import (
    EDGE_LINES,
    LONG_LINE,
    LONG_MOVED_LINE,
    compensated_sum,
    corpus_of,
    oracle_ebleu_order_stats,
    pair_of,
    random_corpus,
    small_corpora,
)

EXAM_LEXICON = SynonymLexicon(
    entries={
        "exam": frozenset({"test", "quiz", "examination"}),
        "test": frozenset({"exam"}),
        "quiz": frozenset({"exam"}),
        "examination": frozenset({"exam"}),
    }
)
NO_RARE = RareWordSet.empty()
NEUTRAL_RARE = EbleuConfig(max_order=1, synonym_score=0.9, rare_words_score=1.0)
VOCAB = list("abcdefgh")

PAIRED_LEXICON = SynonymLexicon(
    entries={
        "a": frozenset({"b"}),
        "b": frozenset({"a"}),
        "c": frozenset({"d"}),
        "d": frozenset({"c"}),
        "e": frozenset({"f"}),
        "f": frozenset({"e"}),
    }
)


class TestSynonymSubstitute:
    def test_replaces_miss_with_reference_synonym(self):
        trace = synonym_substitute(
            pair_of("this is a exam", "this is a quiz"), EXAM_LEXICON
        )
        assert trace.modified_hypothesis == ("this", "is", "a", "quiz")
        assert trace.substituted_positions == frozenset({3})

    def test_empty_lexicon_changes_nothing(self):
        pair = pair_of("this is a exam", "this is a quiz")
        trace = synonym_substitute(pair, SynonymLexicon.empty())
        assert trace.modified_hypothesis == pair.hypothesis
        assert trace.substituted_positions == frozenset()

    def test_reference_occurrences_are_consumed(self):
        trace = synonym_substitute(pair_of("a exam exam", "a quiz"), EXAM_LEXICON)
        assert trace.modified_hypothesis == ("a", "quiz", "exam")
        assert trace.substituted_positions == frozenset({1})

    def test_exact_matches_consume_before_synonyms(self):
        trace = synonym_substitute(pair_of("quiz exam", "quiz"), EXAM_LEXICON)
        assert trace.modified_hypothesis == ("quiz", "exam")
        assert trace.substituted_positions == frozenset()

    def test_highest_remaining_count_wins(self):
        lexicon = SynonymLexicon(
            entries={"x": frozenset({"p", "q"})}
        )
        trace = synonym_substitute(pair_of("x", "q p q"), lexicon)
        assert trace.modified_hypothesis == ("q",)

    def test_count_ties_break_lexicographically(self):
        lexicon = SynonymLexicon(entries={"x": frozenset({"p", "q"})})
        trace = synonym_substitute(pair_of("x", "q p"), lexicon)
        assert trace.modified_hypothesis == ("p",)

    def test_best_reference_count_spans_references(self):
        trace = synonym_substitute(
            pair_of("exam exam", "quiz", "quiz quiz"), EXAM_LEXICON
        )
        assert trace.modified_hypothesis == ("quiz", "quiz")
        assert trace.substituted_positions == frozenset({0, 1})

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_hypothesis_length_never_changes(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng, VOCAB, max_pairs=4, max_len=10)
        for pair in corpus.pairs:
            trace = synonym_substitute(pair, PAIRED_LEXICON)
            assert len(trace.modified_hypothesis) == len(pair.hypothesis)
            for i in trace.substituted_positions:
                assert trace.modified_hypothesis[i] in PAIRED_LEXICON.synonyms(
                    pair.hypothesis[i]
                )


class TestOrderScore:
    def test_unigram_synonym_discount(self):
        pair = pair_of("this is a exam", "this is a quiz")
        trace = synonym_substitute(pair, EXAM_LEXICON)
        score = ebleu_order_score(trace, pair, 1, NO_RARE, NEUTRAL_RARE)
        assert score == pytest.approx((1 + 1 + 1 + 0.9) / 4, abs=1e-12)

    def test_bigram_inherits_the_discount(self):
        pair = pair_of("this is a exam", "this is a quiz")
        trace = synonym_substitute(pair, EXAM_LEXICON)
        cfg = EbleuConfig(max_order=2, synonym_score=0.9, rare_words_score=1.0)
        score = ebleu_order_score(trace, pair, 2, NO_RARE, cfg)
        assert score == pytest.approx((1 + 1 + 0.9) / 3, abs=1e-12)

    def test_rare_bonus_is_clamped_to_one(self):
        pair = pair_of("roman empire", "roman empire")
        trace = synonym_substitute(pair, SynonymLexicon.empty())
        rare = RareWordSet(
            words=frozenset({"roman"}), source_vocab_size=2, percent=0.5
        )
        cfg = EbleuConfig(max_order=2, rare_words_score=1.1)
        assert ebleu_order_score(trace, pair, 2, rare, cfg) == 1.0

    def test_rare_bonus_counts_once_per_ngram(self):
        pair = pair_of("roman empire x", "roman empire y")
        trace = synonym_substitute(pair, SynonymLexicon.empty())
        rare = RareWordSet(
            words=frozenset({"roman", "empire"}), source_vocab_size=3, percent=0.9
        )
        cfg = EbleuConfig(max_order=2, rare_words_score=1.5)
        # one matched bigram holding two rare words still gets the bonus once
        assert ebleu_order_score(trace, pair, 2, rare, cfg) == pytest.approx(
            1.5 / 2, abs=1e-12
        )

    def test_clipping_drops_lowest_weight_instances_first(self):
        # two instances of the same bigram, one discounted by a synonym
        # substitution; with room for only one, the full-weight instance
        # survives the clip
        pair = pair_of("c b a b", "a b x")
        lexicon = SynonymLexicon(entries={"c": frozenset({"a"}), "a": frozenset({"c"})})
        trace = synonym_substitute(pair, lexicon)
        assert trace.modified_hypothesis == ("a", "b", "a", "b")
        assert trace.substituted_positions == frozenset({0})
        cfg = EbleuConfig(max_order=2, synonym_score=0.5, rare_words_score=1.0)
        score = ebleu_order_score(trace, pair, 2, NO_RARE, cfg)
        assert score == pytest.approx(1.0 / 3, abs=1e-12)

    def test_order_beyond_config_rejected(self):
        pair = pair_of("a b", "a b")
        trace = synonym_substitute(pair, SynonymLexicon.empty())
        with pytest.raises(OrderMismatchError):
            ebleu_order_score(trace, pair, 3, NO_RARE, EbleuConfig(max_order=2))


def assert_order_stats_match_oracle(corpus, lexicon, rare, cfg):
    """Every order of every pair's one-pass matches, and of the totals of
    its columns, equals the oracle's."""
    n = cfg.max_order
    for pair in corpus.pairs:
        trace = synonym_substitute(pair, lexicon)
        got = _pair_order_stats(trace, pair.references, n, rare, cfg)
        expected = [
            oracle_ebleu_order_stats(trace, pair, k, rare, cfg) for k in range(1, n + 1)
        ]
        assert got == [matched for matched, _ in expected]
        assert order_columns(pair, got)[n : 2 * n] == [total for _, total in expected]


class TestOrderStatsBitIdentity:
    @settings(deadline=None, max_examples=300)
    @given(
        small_corpora(alphabet="abcdef"),
        st.frozensets(st.sampled_from("abcdef")),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([0.9, 0.5, 0.0, 1.0]),
        st.sampled_from([1.1, 1.0, 1.7]),
    )
    def test_small_corpora(self, corpus, rare_words, max_order, synonym, bonus):
        cfg = EbleuConfig(
            max_order=max_order, synonym_score=synonym, rare_words_score=bonus
        )
        rare = RareWordSet(words=rare_words, source_vocab_size=6, percent=1.0)
        assert_order_stats_match_oracle(corpus, PAIRED_LEXICON, rare, cfg)

    @pytest.mark.parametrize("seed", range(10))
    def test_longer_corpora(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng, VOCAB, max_pairs=40, max_len=30)
        cfg = EbleuConfig(max_order=5, rare_words_percent=0.3)
        rare = build_rare_word_set(corpus.all_references(), cfg.rare_words_percent)
        assert_order_stats_match_oracle(corpus, PAIRED_LEXICON, rare, cfg)

    def test_clipped_weights_add_left_to_right(self, monkeypatch):
        """The kept weights of an n-gram add up as ``0.0 + w1 + w2 + ...``
        on every Python version, not by a compensated ``sum()``."""
        monkeypatch.setattr(ebleu, "sum", compensated_sum, raising=False)
        # Three of the four "x" are substituted: weights 1.0, 0.9, 0.9, 0.9.
        corpus = corpus_of(("x y y y", "x x x x"))
        lexicon = SynonymLexicon({"x": frozenset({"y"}), "y": frozenset({"x"})})
        result = ebleu_score(corpus, lexicon, EbleuConfig(rare_words_score=1.0))
        assert result.details["order_scores"][0] == (0.0 + 1.0 + 0.9 + 0.9 + 0.9) / 4


class TestLengthScore:
    def test_equal_lengths(self):
        assert ebleu_length_score(10, 10) == 0.0

    def test_short_hypothesis_penalized(self):
        assert ebleu_length_score(10, 5) == pytest.approx(-1.0, abs=1e-12)

    def test_long_hypothesis_unpenalized(self):
        assert ebleu_length_score(5, 10) == 0.0

    def test_empty_hypothesis_rejected(self):
        with pytest.raises(ValueError):
            ebleu_length_score(5, 0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "config, field",
    [
        (BleuConfig, "smoothing_epsilon"),
        (EbleuConfig, "smoothing_epsilon"),
        (EbleuConfig, "rare_words_score"),
        (LeporConfig, "alpha"),
        (LeporConfig, "beta"),
    ],
)
def test_non_finite_config_value_rejected(config, field, value):
    with pytest.raises(ValueError, match="finite"):
        config(**{field: value})


# At an epsilon of 1 or more, "zz yy xx ww vv uu" against "the cat sat
# on the mat", which share no word, scored EBLEU 1.0 (and BLEU 0.955 at 5).
@pytest.mark.parametrize("value", [1.0, 5.0])
@pytest.mark.parametrize("config", [BleuConfig, EbleuConfig])
def test_smoothing_epsilon_of_one_or_more_rejected(config, value):
    with pytest.raises(ValueError, match="finite"):
        config(smoothing_epsilon=value)


def test_bleu_config_carries_the_order_and_smoothing():
    cfg = EbleuConfig(max_order=3, synonym_score=0.5, smoothing_epsilon=0.1)
    assert cfg.bleu_config() == BleuConfig(3, smoothing_epsilon=0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_bleu_weight_rejected(value):
    with pytest.raises(ValueError):
        BleuConfig(max_order=2, weights=(value, 0.5))


class TestCumulative:
    def test_published_sequence(self):
        got = ebleu_cumulative([0.70, 0.55, 0.37, 0.28], 0.0)
        # the reference sequence is printed truncated, not rounded:
        # C4 = 0.4469 displays as 0.44
        assert [math.floor(c * 100) / 100 for c in got] == [0.70, 0.62, 0.52, 0.44]
        assert got[3] == pytest.approx(0.4469, abs=0.0005)

    def test_all_ones_is_identity(self):
        assert ebleu_cumulative([1.0, 1.0, 1.0, 1.0], 0.0) == [1.0] * 4

    def test_length_score_multiplies_through(self):
        got = ebleu_cumulative([0.70, 0.55], -1.0)
        assert got[1] == pytest.approx(math.sqrt(0.70 * 0.55) * math.exp(-1.0), abs=1e-4)
        assert got[1] == pytest.approx(0.2283, abs=0.0005)

    def test_zero_order_score_zeroes_the_tail(self):
        got = ebleu_cumulative([0.5, 0.0, 0.8], 0.0)
        assert got[0] > 0.0
        assert got[1] == 0.0
        assert got[2] == 0.0

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=-3.0, max_value=0.0),
    )
    def test_matches_closed_form(self, scores, len_score):
        got = ebleu_cumulative(scores, len_score)
        for i, c in enumerate(got, start=1):
            closed = math.prod(scores[:i]) ** (1 / i) * math.exp(len_score)
            assert c == pytest.approx(closed, abs=1e-12)


class TestEbleuScore:
    def test_synonym_worked_example(self):
        corpus = corpus_of(("this is a exam", "this is a quiz"))
        score = ebleu_score(corpus, EXAM_LEXICON, NEUTRAL_RARE)
        assert score.corpus_score == pytest.approx(0.975, abs=1e-12)

    def test_default_rare_bonus_lifts_the_same_example_to_one(self):
        # at the default 10 percent cut the tiny reference vocabulary
        # already contributes a rare word, so the bonus compensates the
        # synonym discount and the clamp caps the score
        corpus = corpus_of(("this is a exam", "this is a quiz"))
        score = ebleu_score(corpus, EXAM_LEXICON, EbleuConfig(max_order=1))
        assert score.corpus_score == 1.0

    def test_identical_hypothesis_scores_one(self):
        corpus = corpus_of(("a b c d e", "a b c d e"))
        cfg = EbleuConfig(rare_words_score=1.0)
        assert ebleu_score(corpus, SynonymLexicon.empty(), cfg).corpus_score == 1.0

    def test_explicit_rare_set_overrides_construction(self):
        corpus = corpus_of(("roman empire", "roman empire"))
        cfg = EbleuConfig(max_order=1, rare_words_score=1.5)
        neutral = ebleu_score(
            corpus, SynonymLexicon.empty(), cfg, rare_words=RareWordSet.empty()
        )
        assert neutral.corpus_score == 1.0
        built = ebleu_score(corpus, SynonymLexicon.empty(), cfg)
        assert built.details["rare_word_count"] == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            ebleu_score(
                ParallelCorpus(pairs=(), ref_count=1), SynonymLexicon.empty()
            )

    def test_smoothing_floors_zero_orders(self):
        corpus = corpus_of(("a b", "b a"))
        cfg = EbleuConfig(max_order=2, rare_words_score=1.0, smoothing_epsilon=0.01)
        score = ebleu_score(corpus, SynonymLexicon.empty(), cfg)
        assert 0.0 < score.corpus_score < 1.0

    @settings(deadline=None, max_examples=60)
    @given(
        small_corpora(alphabet="abcdef"), st.integers(1, 4), st.sampled_from([0.0, 0.05])
    )
    def test_per_sentence_matches_singleton_corpus(self, corpus, max_order, epsilon):
        # Bit for bit when the one-pair call weighs with the corpus's
        # rare-word set, which a bonus other than 1 makes count.
        cfg = EbleuConfig(
            max_order=max_order, rare_words_score=1.3, smoothing_epsilon=epsilon
        )
        rare = build_rare_word_set(corpus.all_references(), cfg.rare_words_percent)
        sink = []
        ebleu_score(corpus, PAIRED_LEXICON, cfg, per_sentence=sink)
        assert sink == [
            ebleu_score(
                ParallelCorpus((pair,), corpus.ref_count),
                PAIRED_LEXICON,
                cfg,
                rare_words=rare,
            ).corpus_score
            for pair in corpus.pairs
        ]

    @pytest.mark.parametrize("regime", ["short", "long", "mixed"])
    def test_degenerates_to_uniform_bleu(self, regime):
        rng = random.Random(hash(regime) & 0xFFFF)
        for _ in range(30):
            if regime == "short":
                rows = [
                    (
                        " ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 5))),
                        " ".join(rng.choice(VOCAB) for _ in range(rng.randint(6, 10))),
                    )
                    for _ in range(rng.randint(1, 5))
                ]
                corpus = corpus_of(*rows)
            elif regime == "long":
                rows = [
                    (
                        " ".join(rng.choice(VOCAB) for _ in range(rng.randint(6, 10))),
                        " ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 5))),
                    )
                    for _ in range(rng.randint(1, 5))
                ]
                corpus = corpus_of(*rows)
            else:
                corpus = random_corpus(rng, VOCAB, max_pairs=5, max_len=10)
            cfg = EbleuConfig(rare_words_score=1.0)
            enhanced = ebleu_score(corpus, SynonymLexicon.empty(), cfg)
            plain = bleu_score(corpus, BleuConfig())
            assert enhanced.corpus_score == pytest.approx(
                plain.corpus_score, abs=1e-9
            )

    def test_monotone_in_synonym_score(self):
        rng = random.Random(101)
        for _ in range(40):
            corpus = random_corpus(rng, VOCAB, max_pairs=4, max_len=8)
            low, high = sorted((rng.random(), rng.random()))
            s_low = ebleu_score(
                corpus,
                PAIRED_LEXICON,
                EbleuConfig(synonym_score=low, rare_words_score=1.0),
            )
            s_high = ebleu_score(
                corpus,
                PAIRED_LEXICON,
                EbleuConfig(synonym_score=high, rare_words_score=1.0),
            )
            assert s_high.corpus_score >= s_low.corpus_score - 1e-12

    def test_monotone_in_rare_words_score(self):
        rng = random.Random(103)
        for _ in range(40):
            corpus = random_corpus(rng, VOCAB, max_pairs=4, max_len=8)
            low, high = sorted((1.0 + rng.random(), 1.0 + rng.random()))
            b_low = ebleu_score(
                corpus, PAIRED_LEXICON, EbleuConfig(rare_words_score=low)
            ).details["order_scores"]
            b_high = ebleu_score(
                corpus, PAIRED_LEXICON, EbleuConfig(rare_words_score=high)
            ).details["order_scores"]
            for lo, hi in zip(b_low, b_high):
                assert hi >= lo - 1e-12

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_scores_stay_in_unit_interval(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng, VOCAB, max_pairs=4, max_len=8)
        sink = []
        score = ebleu_score(
            corpus, PAIRED_LEXICON, EbleuConfig(max_order=2), per_sentence=sink
        )
        assert 0.0 <= score.corpus_score <= 1.0
        for b in score.details["order_scores"]:
            assert 0.0 <= b <= 1.0
        for c in score.details["cumulative_scores"]:
            assert 0.0 <= c <= 1.0
        for s in sink:
            assert 0.0 <= s <= 1.0

    def test_formula_runs_per_pair_only_for_a_sink(self, monkeypatch):
        # The formula is wrapped where ``ebleu_score`` looks it up; every
        # hypothesis is non-empty, so each score reaches it.
        calls = []

        def counting(*args):
            calls.append(args)
            return ebleu_cumulative(*args)

        monkeypatch.setattr(ebleu, "ebleu_cumulative", counting)
        corpus = corpus_of(("a b c", "a b c"), ("a b", "b a"), ("c", "a c"))
        ebleu_score(corpus, PAIRED_LEXICON)
        assert len(calls) == 1
        ebleu_score(corpus, PAIRED_LEXICON, per_sentence=[])
        assert len(calls) == 1 + len(corpus) + 1


class TestEdgeLines:
    # As BLEU, with the one-token synonym scoring the synonym weight.
    @pytest.mark.parametrize("line, ebleu1", zip(EDGE_LINES, [0.0, 0.0, 0.0, 1.0, 0.9]))
    def test_empty_and_one_token_lines(self, line, ebleu1):
        corpus = corpus_of(line)
        for max_order, expected in ((4, 0.0), (1, ebleu1)):
            cfg = EbleuConfig(max_order=max_order, rare_words_score=1.0)
            sink = []
            result = ebleu_score(corpus, PAIRED_LEXICON, cfg, per_sentence=sink)
            assert (result.corpus_score, sink) == (expected, [expected])

    def test_smoothing_floors_an_order_without_ngrams(self):
        # unlike BLEU, which leaves this line at 0.0: orders 2-4 of "a" are
        # floored at epsilon, so the score is (1 * 0.1**3) ** (1/4)
        corpus = corpus_of(("a", "a"), ("b c d e f", "b c d e f"))
        cfg = EbleuConfig(smoothing_epsilon=0.1, rare_words_score=1.0)
        sink = []
        ebleu_score(corpus, SynonymLexicon.empty(), cfg, per_sentence=sink)
        assert sink[0] == pytest.approx(0.1**0.75, rel=1e-12)
        assert sink[1] == 1.0

    def test_long_pair(self):
        same = corpus_of((LONG_LINE, LONG_LINE))
        assert ebleu_score(same, PAIRED_LEXICON).corpus_score == 1.0
        moved = corpus_of((LONG_MOVED_LINE, LONG_LINE))
        cfg = EbleuConfig()
        rare = build_rare_word_set(moved.all_references(), cfg.rare_words_percent)
        assert_order_stats_match_oracle(moved, PAIRED_LEXICON, rare, cfg)

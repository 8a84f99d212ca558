import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mteval import (
    BleuConfig,
    EbleuConfig,
    MetricScore,
    RareWordSet,
    SynonymLexicon,
    bleu_score,
    ebleu_score,
    lepor_score,
    meteor_score,
    nist_score,
    ribes_score,
    ter_score,
)
from mteval import ngram, refmetrics
from mteval.bleu import brevity_penalty
from mteval.errors import EmptyCorpusError
from mteval.refmetrics import (
    _advance,
    _align_unigrams,
    _bag_distance,
    _kendall_tau,
    _order_alignment,
    _position_alignment,
    _shifted_edit_count,
)
from mteval import EvalPair, ParallelCorpus
from helpers import (
    EDGE_LINES,
    LONG_LINE,
    LONG_MOVED_LINE,
    all_block_moves,
    block_moved_pair,
    corpus_of,
    dp_edit_distance,
    optimal_shift_edits,
    oracle_align_unigrams,
    oracle_kendall_tau,
    oracle_lepor_score,
    oracle_min_free_position_alignment,
    oracle_nist_score,
    oracle_order_alignment,
    oracle_position_alignment,
    oracle_ribes_score,
    oracle_shifted_edit_count,
    random_corpus,
    recorded_calls,
    small_corpora,
)

VOCAB = list("abcdef")
EMPTY = SynonymLexicon({})


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
        doubled = ParallelCorpus(pairs=corpus + corpus)
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
            nist_score(ParallelCorpus(pairs=()))

    @settings(deadline=None, max_examples=300)
    @given(small_corpora())
    def test_bit_identical_to_pooling_every_reference_ngram(self, corpus):
        assert nist_score(corpus) == oracle_nist_score(corpus)

    @pytest.mark.parametrize("seed", range(10))
    def test_bit_identical_on_longer_corpora(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng, list("abcdefgh"), max_pairs=40, max_len=30)
        assert nist_score(corpus) == oracle_nist_score(corpus)

    # A lone reference token carries no information: log2(1/1) = 0.
    @pytest.mark.parametrize("line", EDGE_LINES)
    def test_empty_and_one_token_lines(self, line):
        corpus = corpus_of(line)
        assert nist_score(corpus) == oracle_nist_score(corpus) == 0.0

    def test_long_pair(self):
        same = corpus_of((LONG_LINE, LONG_LINE))
        # every unigram weighs log2(2000/1); higher orders weigh zero
        assert nist_score(same) == pytest.approx(math.log2(2000), rel=1e-12)
        for corpus in (same, corpus_of((LONG_MOVED_LINE, LONG_LINE))):
            assert nist_score(corpus) == oracle_nist_score(corpus)

    def test_length_factor_squares_by_multiplication(self):
        # Here log(7/83) ** 2, through the C library's pow(), and y * y give
        # factors that differ in the last bits; the formula and the oracle
        # both multiply.
        ref = " ".join(f"w{i}" for i in range(83))
        corpus = corpus_of((" ".join(ref.split()[:7]), ref))
        assert nist_score(corpus) == 4.044270462209442e-11
        assert nist_score(corpus) == oracle_nist_score(corpus)

    def test_orders_past_the_longest_match_build_no_windows(self, monkeypatch):
        # The pooled reference counts stop at the longest matched n-gram
        # (order 3 here), so NIST's order 5 builds no window past it.
        slices = []
        original = ngram.order_windows

        def recording(tokens, max_order):
            orders = original(tokens, max_order)
            slices.append((" ".join(tokens), len(orders)))
            return orders

        monkeypatch.setattr(ngram, "order_windows", recording)
        corpus = corpus_of(("a b c", "a b c d"), ("b c", "c b c"))
        assert nist_score(corpus) == oracle_nist_score(corpus, 3)
        # Each hypothesis and its reference up to the hypothesis length,
        # then every reference pooled up to the longest match.
        run = [("a b c", 3), ("a b c d", 3), ("b c", 2), ("c b c", 2)]
        run += [("a b c d", 3), ("c b c", 3)]
        assert slices == run

    def test_per_sentence_scores_window_each_sentence_once(self, monkeypatch):
        # One table per reference both clips a pair and weighs it, so a run
        # with per-sentence scores builds the windows of a corpus-only run.
        slices = []
        original = ngram.order_windows

        def recording(tokens, max_order):
            orders = original(tokens, max_order)
            slices.append((" ".join(tokens), len(orders)))
            return orders

        monkeypatch.setattr(ngram, "order_windows", recording)
        corpus = corpus_of(("a b c", "a b c d", "b c a"), ("b c", "c b c", "b"))
        sink = []
        nist_score(corpus, per_sentence=sink)
        # Each hypothesis and its references up to the hypothesis length,
        # then every reference pooled up to the longest match.
        run = [("a b c", 3), ("a b c d", 3), ("b c a", 3)]
        run += [("b c", 2), ("c b c", 2), ("b", 1)]
        run += [("a b c d", 3), ("b c a", 3), ("c b c", 3), ("b", 1)]
        assert slices == run and len(sink) == 2
        slices.clear()
        nist_score(corpus)
        assert slices == run

    def test_no_ngram_spans_two_references(self):
        # References end in "a" where the next begins with "b", within a
        # pair and across pairs, and every hypothesis holds "a b": the
        # pooled counts of "a b" must not see the joins.
        corpus = corpus_of(("a b", "c a", "b a b a"), ("a b", "b d", "a b a"))
        sink = []
        assert nist_score(corpus, per_sentence=sink) == oracle_nist_score(corpus)
        assert sink == [
            oracle_nist_score(ParallelCorpus((pair,)))
            for pair in corpus
        ]

    def test_per_sentence_scores_pool_the_references_once(self, monkeypatch):
        # Each pair's weights come from the tables that clip it, so only the
        # corpus score pools references.
        calls = []
        original = ngram.pooled_counts

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(refmetrics, "pooled_counts", counting)
        corpus = corpus_of(("a b c", "a b c d"), ("b c", "c b c"), ("a", "b"))
        sink = []
        nist_score(corpus, per_sentence=sink)
        assert len(calls) == 1 and len(sink) == 3

    @settings(deadline=None, max_examples=300)
    @given(
        small_corpora(alphabet="ab", max_len=8)
        | small_corpora(alphabet="abcd", max_len=4)
        | st.lists(st.sampled_from(EDGE_LINES), min_size=1, max_size=4).map(
            lambda lines: corpus_of(*lines)
        ),
    )
    # "a b" occurs twice in one reference and once in the other.
    @example(corpus_of(("a b a b", "a b a b a", "b a b"), ("a", "b", "a")))
    # "a" occurs once, twice and three times in the three references, so
    # its sum, its maximum and its first reference's count all differ.
    @example(corpus_of(("a b", "a b", "a a b", "a a a b"), ("b a", "b", "a", "b a")))
    def test_per_sentence_equals_one_pair_oracle(self, corpus):
        # Two-word vocabularies repeat matched n-grams within and across
        # references, so a pair's summed counts differ from its clipping
        # maxima; orders run past the hypothesis length.
        sink = []
        assert nist_score(corpus, per_sentence=sink) == oracle_nist_score(corpus)
        assert sink == [
            oracle_nist_score(ParallelCorpus((pair,)))
            for pair in corpus
        ]


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
            ter_score(ParallelCorpus(pairs=()))

    # Deleting or inserting every word costs one edit per word, and an
    # empty hypothesis against an empty reference needs none; a non-empty
    # hypothesis against empty references is undefined.
    @pytest.mark.parametrize(
        "line, ter", zip(EDGE_LINES, [1.0, math.inf, 0.0, 0.0, 1.0])
    )
    def test_empty_and_one_token_lines(self, line, ter):
        assert ter_score(corpus_of(line)) == ter

    # Distinct words, not a small repeated vocabulary: on those the shift
    # search has no useful bound on its running time.
    def test_long_pair(self):
        assert ter_score(corpus_of((LONG_LINE, LONG_LINE))) == 0.0
        assert ter_score(corpus_of((LONG_MOVED_LINE, LONG_LINE))) == 1 / 2000

    def test_reference_at_the_cutoff_is_not_searched(self):
        # The first reference is 1 edit away; the second's bag distance
        # is 2, so its search stops before its first edit-distance column.
        # Both references have 4 words, so the masks tell them apart.
        hyp, ref1, ref2 = ("a", "b", "c", "d"), ("a", "b", "c", "x"), ("b", "a", "y", "z")
        with recorded_calls(refmetrics, "_advance") as searched:
            assert ter_score(corpus_of(("a b c d", "a b c x", "b a y z"))) == 1 / 4
        assert [args[0] for args in searched] == [reference_masks(hyp, ref1)]
        assert reference_masks(hyp, ref1) != reference_masks(hyp, ref2)
        assert _bag_distance(reference_masks(hyp, ref2), 4) == 2

    def test_builds_no_position_index(self):
        corpus = corpus_of(("a b c d", "a b c x", "b a y z"), ("a a b", "b a a", "a b"))
        with recorded_calls(refmetrics, "_positions") as calls:
            ter_score(corpus, per_sentence=[])
        assert len(calls) == 0

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.sampled_from("abc"), max_size=8),
        st.lists(st.sampled_from("abc"), max_size=8),
        st.integers(0, 9),
    )
    # An empty reference, with cutoffs below, at and above the hypothesis length.
    @example([], [], 0)
    @example(["a", "b", "a"], [], 0)
    @example(["a", "b", "a"], [], 2)
    @example(["a", "b", "a"], [], 3)
    @example(["a", "b", "a"], [], 4)
    def test_cut_off_search_keeps_the_minimum(self, hyp, ref, cutoff):
        # A search stopped at the cutoff returns no less than it, so the
        # smaller of the two is the full search's, capped at the cutoff.
        # Against an empty reference every word is deleted.
        full = _shifted_edit_count(tuple(hyp), tuple(ref))
        assert ref or full == len(hyp)
        cut = _shifted_edit_count(tuple(hyp), tuple(ref), cutoff)
        assert min(cutoff, cut) == min(cutoff, full)

    @settings(deadline=None, max_examples=100)
    @given(small_corpora())
    def test_multi_reference_edits_are_the_minimum_of_full_searches(self, corpus):
        sink = []
        ter_score(corpus, per_sentence=sink)
        for pair, value in zip(corpus, sink):
            edits = min(_shifted_edit_count(pair.hypothesis, r) for r in pair.references)
            avg = sum(map(len, pair.references)) / len(pair.references)
            assert value == (edits / avg if avg else (0.0 if edits == 0 else math.inf))

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


def reference_masks(hyp, ref):
    """Each word of ``hyp`` as its mask: bit j set where ``ref[j]`` is the word."""
    masks = {}
    for j, word in enumerate(ref):
        masks[word] = masks.get(word, 0) | 1 << j
    return tuple(masks.get(word, 0) for word in hyp)


def bit_parallel_distance(hyp, ref):
    """Word edit distance by ``_advance`` from the empty prefix of ``ref``."""
    return _advance(reference_masks(hyp, ref), (1 << len(ref)) - 1)


def _sequences_over(vocab_size, max_len=140):
    # explicit lengths so that word boundaries at 64 and 128 bits are crossed
    words = st.sampled_from("abcd"[:vocab_size])
    return st.integers(0, max_len).flatmap(
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

    def test_advance_calls_stay_within_the_counted_baseline(self):
        # The counts of the search that looked a word's mask up per token.
        with recorded_calls(refmetrics, "_advance") as calls:
            assert [_shifted_edit_count(h, r) for h, r in _PINNED_PAIRS] == _PINNED_EDITS
        assert len(calls) <= 23_761
        r = random.Random(1)
        hyp = tuple(r.choice("ab") for _ in range(40))
        ref = tuple(r.choice("ab") for _ in range(40))
        with recorded_calls(refmetrics, "_advance") as calls:
            assert _shifted_edit_count(hyp, ref) == 9
        assert len(calls) <= 6_327


def _moves(n, m):
    """Every move (i, j, L) on lengths n and m, matching the reference or not."""
    for i in range(n):
        for length in range(1, n - i + 1):
            for j in range(m):
                yield i, j, length


def _moved(current, i, j, length):
    """The candidate of (i, j, L), built the way the shift search once built it."""
    block = current[i : i + length]
    rest = current[:i] + current[i + length :]
    pos = min(j, len(rest))
    return rest[:pos] + block + rest[pos:], pos


class TestShiftSearch:
    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.tuples(_sequences_over(k, 70), _sequences_over(k, 70))
        )
    )
    def test_equals_building_every_candidate(self, pair):
        hyp, ref = pair
        assert _shifted_edit_count(hyp, ref) == oracle_shifted_edit_count(
            hyp, ref, bit_parallel_distance
        )

    # Over one or two words the bag distance is often reached, so both
    # stops at the floor run.
    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(1, 2).flatmap(
            lambda k: st.tuples(_sequences_over(k, 24), _sequences_over(k, 24))
        )
    )
    def test_equals_building_every_candidate_on_two_words(self, pair):
        hyp, ref = pair
        assert _shifted_edit_count(hyp, ref) == oracle_shifted_edit_count(
            hyp, ref, bit_parallel_distance
        )

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.tuples(_sequences_over(k, 10), _sequences_over(k, 10))
        )
    )
    def test_bag_distance_bounds_every_shifted_sequence(self, pair):
        hyp, ref = pair
        floor = _bag_distance(reference_masks(hyp, ref), len(ref))
        assert floor == max(
            sum((Counter(hyp) - Counter(ref)).values()),
            sum((Counter(ref) - Counter(hyp)).values()),
        )
        assert floor <= dp_edit_distance(hyp, ref)
        for moved in all_block_moves(hyp):
            assert floor <= dp_edit_distance(moved, ref)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_building_every_candidate_on_long_pairs(self, seed):
        vocab = [f"w{v}" for v in range(40)]
        hyp, ref = block_moved_pair(random.Random(7100 + seed), vocab, 80 + 70 * seed // 19)
        assert _shifted_edit_count(hyp, ref) == oracle_shifted_edit_count(
            hyp, ref, bit_parallel_distance
        )

    # Words the reference lacks all have mask 0, so candidates that differ
    # only in which of them sits where are skipped as unchanged.
    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(st.sampled_from("abcdxyz"), max_size=16).map(tuple),
        st.lists(st.sampled_from("abcd"), max_size=16).map(tuple),
    )
    @example(("x", "b", "y", "a", "z"), ("a", "b"))
    def test_equals_building_every_candidate_with_words_the_reference_lacks(
        self, hyp, ref
    ):
        assert _shifted_edit_count(hyp, ref) == oracle_shifted_edit_count(
            hyp, ref, dp_edit_distance
        )

    def test_no_scan_one_above_the_bag_distance(self):
        # "a b" is 2 edits from "b c" and the bag distance is 1: a shift
        # could save at most 1 edit and costs 1, so the search stops unscanned.
        with recorded_calls(refmetrics, "_best_shift") as scans:
            assert _shifted_edit_count(("a", "b"), ("b", "c")) == 2
        assert len(scans) == 0

    def test_every_scan_starts_two_above_the_bag_distance(self):
        with recorded_calls(refmetrics, "_best_shift") as scans:
            assert [_shifted_edit_count(h, r) for h, r in _PINNED_PAIRS] == _PINNED_EDITS
        gaps = [
            distance - _bag_distance(current, full.bit_length())
            for current, full, _, distance in scans
        ]
        assert all(distance == _advance(c, f) for c, f, _, distance in scans)
        assert gaps and min(gaps) >= 2

    def check_resumed_moves(self, current, ref, moves):
        """A candidate's distance resumes from ``current``'s stored column
        at its first changed word, and its gain is at most twice the
        smaller of the block length and the distance it moves."""
        full = (1 << len(ref)) - 1
        columns = []
        distance = _advance(reference_masks(current, ref), full, columns=columns)
        assert len(columns) == len(current) + 1
        assert distance == dp_edit_distance(current, ref)
        for i, j, length in moves:
            candidate, pos = _moved(current, i, j, length)
            p, q = min(i, pos), max(i, pos) + length
            assert candidate[:p] == current[:p] and candidate[q:] == current[q:]
            expected = bit_parallel_distance(candidate, ref)
            masks = reference_masks(candidate[p:], ref)
            assert _advance(masks, full, columns[p]) == expected
            assert distance - expected <= 2 * min(length, abs(pos - i))

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.tuples(_sequences_over(k, 12), _sequences_over(k, 12))
        )
    )
    def test_every_move_resumes_exactly(self, pair):
        current, ref = pair
        if ref:
            self.check_resumed_moves(current, ref, _moves(len(current), len(ref)))

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_moves_resume_exactly_across_the_word_boundary(self, data):
        # references of 60-70 tokens put the top bit on either side of 64
        words = st.sampled_from("abc")
        current = data.draw(st.lists(words, min_size=1, max_size=70).map(tuple))
        ref = data.draw(st.lists(words, min_size=60, max_size=70).map(tuple))
        moves = []
        for _ in range(20):
            i = data.draw(st.integers(0, len(current) - 1))
            j = data.draw(st.integers(0, len(ref) - 1))
            moves.append((i, j, data.draw(st.integers(1, len(current) - i))))
        self.check_resumed_moves(current, ref, moves)


# --- METEOR ------------------------------------------------------------------


class TestMeteor:
    def test_identical_four_tokens(self):
        result = meteor_score(corpus_of(("the cat sat here", "the cat sat here")), EMPTY)
        assert result.details["matched_unigrams"] == 4
        assert result.details["chunk_count"] == 1
        assert result.details["penalty"] == pytest.approx(0.125, abs=1e-12)
        assert result.corpus_score == pytest.approx(0.875, abs=1e-12)

    def test_identity_value_depends_on_match_count(self):
        result = meteor_score(corpus_of(("a b c d e f g h", "a b c d e f g h")), EMPTY)
        assert result.corpus_score == pytest.approx(1 - 0.5 / 8, abs=1e-12)

    def test_no_overlap_scores_zero(self):
        assert meteor_score(corpus_of(("x y", "a b")), EMPTY).corpus_score == 0.0

    def test_synonym_stage_aligns_misses(self):
        lexicon = SynonymLexicon(
            entries={"exam": frozenset({"quiz"}), "quiz": frozenset({"exam"})}
        )
        result = meteor_score(corpus_of(("this is a exam", "this is a quiz")), lexicon)
        assert result.details["matched_unigrams"] == 4
        assert result.details["chunk_count"] == 1
        assert result.corpus_score == pytest.approx(0.875, abs=1e-12)

    def test_fragmentation_raises_the_penalty(self):
        contiguous = meteor_score(corpus_of(("a b c d", "a b c d")), EMPTY)
        scrambled = meteor_score(corpus_of(("b a d c", "a b c d")), EMPTY)
        assert scrambled.details["chunk_count"] > contiguous.details["chunk_count"]
        assert scrambled.corpus_score < contiguous.corpus_score

    def test_best_reference_selected_per_pair(self):
        corpus = corpus_of(("a b c d", "x y z w", "a b c d"))
        assert meteor_score(corpus, EMPTY).corpus_score == pytest.approx(
            0.875, abs=1e-12
        )

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            meteor_score(ParallelCorpus(pairs=()), EMPTY)


# --- LEPOR -------------------------------------------------------------------


class TestLepor:
    def test_identical_sentences_score_one(self):
        assert lepor_score(corpus_of(("a b c", "a b c"))) == pytest.approx(
            1.0, abs=1e-12
        )

    # LEPOR's length penalty is BLEU's brevity penalty of the shorter
    # length against the longer. Each matched word below sits at the same
    # normalized position in hypothesis and reference, so the position
    # penalty is 1 and only the length penalty and harmonic mean remain.
    def test_length_penalty_branch_short(self):
        corpus = corpus_of(("a b c d e", "x a x b x c x d x e"))
        # precision 1, recall 1/2, length penalty exp(1 - 10/5)
        assert lepor_score(corpus) == pytest.approx(math.exp(-1.0) * 2 / 3, abs=1e-12)

    def test_length_penalty_branch_long(self):
        corpus = corpus_of(("x a x b x c x d x e", "a b c d e"))
        # precision 1/2, recall 1, length penalty exp(1 - 10/5)
        assert lepor_score(corpus) == pytest.approx(math.exp(-1.0) * 2 / 3, abs=1e-12)

    def test_length_penalty_continuity_near_equality(self):
        r = 100
        low, equal, high = (
            brevity_penalty(min(h, r), max(h, r)) for h in (r - 1, r, r + 1)
        )
        assert math.exp(-1 / (r - 1)) - 1e-12 <= low <= 1.0
        assert math.exp(-1 / r) - 1e-12 <= high <= 1.0
        assert equal == 1.0

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

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            lepor_score(ParallelCorpus(pairs=()))


# --- RIBES -------------------------------------------------------------------


class TestRibes:
    def test_identical_sentences_score_one(self):
        assert ribes_score(corpus_of(("a b c d", "a b c d"))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_exact_reversal_scores_zero(self):
        assert ribes_score(corpus_of(("d c b a", "a b c d"))) == 0.0

    def test_one_adjacent_swap(self):
        # every word aligns, so the precision factor is 1
        got = ribes_score(corpus_of(("a b d c", "a b c d")))
        assert got == pytest.approx(5 / 6, abs=1e-12)

    def test_precision_exponent_discounts_noise(self):
        # tau 1 over the two aligned words, precision 2/3 to the power 0.25
        corpus = corpus_of(("a b x", "a b"))
        assert ribes_score(corpus) == pytest.approx((2 / 3) ** 0.25, abs=1e-12)

    def test_fewer_than_two_aligned_words_scores_zero(self):
        assert ribes_score(corpus_of(("a", "a"))) == 0.0

    def test_duplicate_words_align_left_to_right(self):
        assert ribes_score(corpus_of(("a a b", "a a b"))) == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            ribes_score(ParallelCorpus(pairs=()))


# --- LEPOR and RIBES at their published weights ------------------------------


# LEPOR at alpha = beta = 1 (Han et al. 2012) and RIBES at alpha = 0.25
# (Isozaki et al. 2010), by the formulas with the weights as arguments.
_WEIGHTED_ORACLES = {
    "lepor": (lepor_score, lambda corpus: oracle_lepor_score(corpus, 1.0, 1.0)),
    "ribes": (ribes_score, lambda corpus: oracle_ribes_score(corpus, 0.25)),
}


@pytest.mark.parametrize("name", sorted(_WEIGHTED_ORACLES))
@settings(deadline=None, max_examples=200)
@given(corpus=small_corpora(alphabet="abcd", max_len=10))
def test_equals_the_formula_at_the_published_weights(name, corpus):
    # corpus and per-sentence scores, bit for bit, over pairs and
    # references of unequal lengths
    scorer, oracle = _WEIGHTED_ORACLES[name]
    sink = []
    assert scorer(corpus, per_sentence=sink) == oracle(corpus)
    assert sink == [
        oracle(ParallelCorpus((pair,))) for pair in corpus
    ]


# --- word alignment against the old reference scans ---------------------------


def alignment_scores(corpus, lexicon):
    """METEOR, LEPOR and RIBES of ``corpus``."""
    return meteor_score(corpus, lexicon), lepor_score(corpus), ribes_score(corpus)


def oracle_alignment_scores(corpus, lexicon):
    """The same scores with the old scanning alignments in place."""
    with mock.patch.multiple(
        refmetrics,
        _align_unigrams=oracle_align_unigrams,
        _order_alignment=oracle_order_alignment,
        _position_alignment=oracle_position_alignment,
        _kendall_tau=oracle_kendall_tau,
    ):
        return alignment_scores(corpus, lexicon)


@st.composite
def lexicons(draw):
    """Synonym sets over the corpus letters a-d and an absent word e,
    neither symmetric nor irreflexive: a word may be its own synonym, and
    sets overlap."""
    words = st.sampled_from("abcde")
    return SynonymLexicon(
        entries=draw(st.dictionaries(words, st.frozensets(words, max_size=4)))
    )


def check_alignments(hyp, ref, lexicon):
    assert _align_unigrams(hyp, ref, lexicon) == oracle_align_unigrams(hyp, ref, lexicon)
    assert _position_alignment(hyp, ref) == oracle_min_free_position_alignment(hyp, ref)
    assert _position_alignment(hyp, ref) == oracle_position_alignment(hyp, ref)
    aligned = _order_alignment(hyp, ref)
    assert aligned == oracle_order_alignment(hyp, ref)
    if len(aligned) >= 2:
        assert _kendall_tau(aligned) == oracle_kendall_tau(aligned)


# An empty hypothesis, an empty reference, one-token lines and a
# 2,000-token pair over a two-word vocabulary.
_LONG = random.Random(5150)
_EDGE_PAIRS = {
    "empty-hypothesis": ((), ("a", "b")),
    "empty-reference": (("a", "b"), ()),
    "both-empty": ((), ()),
    "one-token": (("a",), ("a",)),
    "one-token-synonym": (("a",), ("b",)),
    "one-token-unmatched": (("a",), ("c",)),
    "long-two-word": (
        tuple(_LONG.choice("ab") for _ in range(2000)),
        tuple(_LONG.choice("ab") for _ in range(2000)),
    ),
}
_TWO_WORD_LINE = st.lists(st.sampled_from("ab"), max_size=80).map(tuple)
_AB_SYNONYMS = SynonymLexicon(entries={"a": frozenset("b"), "b": frozenset("a")})


class TestAlignmentOracles:
    @settings(deadline=None, max_examples=300)
    @given(small_corpora(alphabet="abcd", max_len=12), lexicons())
    def test_alignments_equal_scanning_the_reference(self, corpus, lexicon):
        for pair in corpus:
            for ref in pair.references:
                check_alignments(pair.hypothesis, ref, lexicon)

    @settings(deadline=None, max_examples=200)
    @given(small_corpora(alphabet="abcd", max_len=12), lexicons())
    def test_scores_equal_scanning_the_reference(self, corpus, lexicon):
        assert alignment_scores(corpus, lexicon) == oracle_alignment_scores(
            corpus, lexicon
        )

    @settings(deadline=None, max_examples=300)
    @given(_TWO_WORD_LINE, _TWO_WORD_LINE)
    def test_nearest_free_position_on_long_two_word_lines(self, hyp, ref):
        # Lines of different lengths over two words put many free positions
        # at equal distances on both sides of a token.
        assert _position_alignment(hyp, ref) == oracle_min_free_position_alignment(
            hyp, ref
        )

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(-50, 50), unique=True, min_size=2, max_size=60))
    def test_kendall_tau_counts_every_pair(self, values):
        assert _kendall_tau(values) == oracle_kendall_tau(values)

    @pytest.mark.parametrize("name", sorted(_EDGE_PAIRS))
    @pytest.mark.parametrize("lexicon", [EMPTY, _AB_SYNONYMS], ids=["no-synonyms", "ab-synonyms"])
    def test_edge_pairs(self, name, lexicon):
        hyp, ref = _EDGE_PAIRS[name]
        check_alignments(hyp, ref, lexicon)
        corpus = ParallelCorpus(pairs=(EvalPair(hyp, (ref,)),))
        assert alignment_scores(corpus, lexicon) == oracle_alignment_scores(
            corpus, lexicon
        )

    def test_edge_pairs_as_one_corpus(self):
        pairs = tuple(EvalPair(hyp, (ref,)) for hyp, ref in _EDGE_PAIRS.values())
        corpus = ParallelCorpus(pairs=pairs)
        assert alignment_scores(corpus, _AB_SYNONYMS) == oracle_alignment_scores(
            corpus, _AB_SYNONYMS
        )


# --- per-sentence scores from the corpus pass --------------------------------

_SMALL_LEXICON = SynonymLexicon(
    entries={"a": frozenset("bd"), "b": frozenset("a"), "c": frozenset("c")}
)
# A fixed rare-word set, so that a one-pair corpus weighs as the whole corpus does.
_SMALL_RARE = RareWordSet(frozenset("c"))
# name -> scorer(corpus, **kwargs), each one that takes a ``per_sentence`` sink
_SINK_SCORERS = {
    "bleu": bleu_score,
    "ebleu": lambda c, **kw: ebleu_score(
        c, _SMALL_LEXICON, EbleuConfig(rare_words_score=1.3), rare_words=_SMALL_RARE,
        **kw,
    ),
    # BLEU and EBLEU at the other orders --max-ngram can set, past the
    # hypothesis length included
    **{
        f"bleu-{n}": (lambda c, n=n, **kw: bleu_score(c, BleuConfig(max_order=n), **kw))
        for n in (1, 2, 3, 5)
    },
    **{
        f"ebleu-{n}": (
            lambda c, n=n, **kw: ebleu_score(
                c, _SMALL_LEXICON, EbleuConfig(max_order=n, rare_words_score=1.3),
                rare_words=_SMALL_RARE, **kw,
            )
        )
        for n in (1, 2, 3, 5)
    },
    "nist": nist_score,
    "ter": ter_score,
    "meteor": lambda c, **kw: meteor_score(c, _SMALL_LEXICON, **kw),
    "lepor": lepor_score,
    "ribes-kendall": ribes_score,
}


def _value(result):
    return result.corpus_score if isinstance(result, MetricScore) else result


class TestPerSentenceSink:
    @pytest.mark.parametrize("name", sorted(_SINK_SCORERS))
    @settings(deadline=None, max_examples=60)
    @given(corpus=small_corpora())
    def test_sink_equals_scoring_one_pair_corpora(self, name, corpus):
        # bit for bit, TER's inf included, and the corpus score unchanged
        scorer = _SINK_SCORERS[name]
        sink = []
        assert scorer(corpus, per_sentence=sink) == scorer(corpus)
        assert sink == [
            _value(scorer(ParallelCorpus((pair,))))
            for pair in corpus
        ]

    # empty and one-token lines in one corpus, TER's inf among them
    @pytest.mark.parametrize("name", sorted(_SINK_SCORERS))
    def test_sink_on_edge_lines_as_one_corpus(self, name):
        scorer = _SINK_SCORERS[name]
        sink = []
        scorer(corpus_of(*EDGE_LINES), per_sentence=sink)
        assert sink == [_value(scorer(corpus_of(line))) for line in EDGE_LINES]


# --- cross-metric ranges -----------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**31))
def test_all_metrics_stay_in_range(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, VOCAB, max_pairs=3, max_len=6)
    assert nist_score(corpus) >= 0.0
    assert ter_score(corpus) >= 0.0
    assert 0.0 <= meteor_score(corpus, EMPTY).corpus_score <= 1.0
    assert 0.0 <= lepor_score(corpus) <= 1.0
    assert 0.0 <= ribes_score(corpus) <= 1.0

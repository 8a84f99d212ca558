import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mteval import (
    EvalPair,
    ParallelCorpus,
    TokenizerConfig,
    build_rare_word_set,
    load_parallel_corpus,
    load_synonym_lexicon,
    tokenize,
)
from mteval.corpus import reduce_pairs
from mteval.errors import (
    EmptyCorpusError,
    InvalidPercentError,
    LineCountMismatchError,
    MalformedLineError,
)

FULL = TokenizerConfig(lowercase=True, split_punctuation=True)


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("The cat.", FULL) == ("the", "cat", ".")

    def test_empty_line(self):
        assert tokenize("") == ()

    def test_defaults_plain_words(self):
        assert tokenize("this is a exam") == ("this", "is", "a", "exam")

    def test_each_punctuation_mark_is_its_own_token(self):
        cfg = TokenizerConfig(split_punctuation=True)
        assert tokenize("wait... really?!", cfg) == (
            "wait", ".", ".", ".", "really", "?", "!",
        )

    def test_punctuation_kept_without_flag(self):
        assert tokenize("The cat.") == ("The", "cat.")

    @given(st.text())
    def test_idempotent_on_own_output(self, line):
        for cfg in (TokenizerConfig(), FULL):
            tokens = tokenize(line, cfg)
            assert tokenize(" ".join(tokens), cfg) == tokens
            assert all(tok and not any(ch.isspace() for ch in tok) for tok in tokens)


def reduce_rows(rows, score, per_sentence=None):
    """``reduce_pairs`` over a corpus whose i-th pair has the columns ``rows[i]``."""
    corpus = ParallelCorpus(
        tuple(EvalPair((str(i),), (("ref",),)) for i in range(len(rows))), 1
    )
    return reduce_pairs(
        corpus, lambda pair: rows[int(pair.hypothesis[0])], score, per_sentence
    )


def first_column(columns):
    return columns[0], None


class TestReducePairs:
    def test_float_column_adds_in_corpus_order_uncompensated(self):
        # math.fsum, or sum() from Python 3.12 on, would give 1.0; a
        # one-pair corpus repeats its pair's float operations only with
        # plain `+=` from zero in corpus order.
        assert reduce_rows([[1e16], [1.0], [-1e16]], first_column) == (0.0, None)

    def test_list_columns_concatenate_in_corpus_order(self):
        rows = [[["a"], 1], [["b", "c"], 2], [[], 3]]
        assert reduce_rows(rows, lambda columns: (columns, None))[0] == [
            ["a", "b", "c"],
            6,
        ]

    def test_no_pair_columns_are_mutated(self):
        rows = [[["a"], 1.5], [["b"], 2.5]]
        reduce_rows(rows, first_column, [])
        assert rows == [[["a"], 1.5], [["b"], 2.5]]

    def test_per_sentence_scores_each_pair_alone(self):
        rows = [(1, ["x"]), (2, ["y", "z"]), (3, [])]
        per_sentence = []
        got = reduce_rows(
            rows, lambda columns: (columns[0] + len(columns[1]), None), per_sentence
        )
        assert per_sentence == [2, 4, 3]
        assert got == (9, None)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            reduce_pairs(ParallelCorpus((), 1), lambda pair: [1], first_column)


class TestLoadParallelCorpus:
    def test_pairs_align_by_line(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref1 = tmp_path / "ref1.txt"
        ref2 = tmp_path / "ref2.txt"
        hyp.write_text("a b\nc d\ne\n", encoding="utf-8")
        ref1.write_text("a x\nc y\ne z\n", encoding="utf-8")
        ref2.write_text("p\nq\nr\n", encoding="utf-8")
        corpus = load_parallel_corpus(hyp, [ref1, ref2])
        assert len(corpus) == 3
        assert corpus.ref_count == 2
        assert corpus.pairs[1].hypothesis == ("c", "d")
        assert corpus.pairs[1].references == (("c", "y"), ("q",))

    def test_line_count_mismatch(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a\nb\nc\n", encoding="utf-8")
        ref.write_text("a\nb\n", encoding="utf-8")
        with pytest.raises(LineCountMismatchError):
            load_parallel_corpus(hyp, [ref])

    def test_empty_files(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("", encoding="utf-8")
        ref.write_text("", encoding="utf-8")
        corpus = load_parallel_corpus(hyp, [ref])
        assert len(corpus) == 0

    def test_crlf_accepted(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_bytes(b"a b\r\nc d\r\n")
        ref.write_bytes(b"a b\r\nc d\r\n")
        corpus = load_parallel_corpus(hyp, [ref])
        assert [p.hypothesis for p in corpus] == [("a", "b"), ("c", "d")]

    @pytest.mark.parametrize(
        "separator", ["\x85", "\u2028", "\u2029", "\v", "\f", "\x1c", "\x1d", "\x1e"]
    )
    def test_only_newlines_end_a_line(self, tmp_path, separator):
        # str.splitlines() also breaks at these; a file of two LF lines
        # must stay two pairs, with the separator read as whitespace
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text(f"the cat{separator}sat\nhello world\n", encoding="utf-8", newline="")
        ref.write_text(f"the cat sat\nhello{separator}world\n", encoding="utf-8", newline="")
        corpus = load_parallel_corpus(hyp, [ref])
        assert [p.hypothesis for p in corpus] == [("the", "cat", "sat"), ("hello", "world")]
        assert [p.references[0] for p in corpus] == [("the", "cat", "sat"), ("hello", "world")]

    def test_mixed_newlines_and_no_final_newline(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_bytes(b"a b\r\nc d")
        ref.write_bytes(b"a b\rc d\n")
        corpus = load_parallel_corpus(hyp, [ref])
        assert [p.hypothesis for p in corpus] == [("a", "b"), ("c", "d")]

    def test_utf8_bom_is_not_part_of_the_first_token(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_bytes(b"\xef\xbb\xbfthe cat sat down\n")
        ref.write_text("the cat sat down\n", encoding="utf-8")
        corpus = load_parallel_corpus(hyp, [ref])
        assert corpus.pairs[0].hypothesis == ("the", "cat", "sat", "down")

    def test_needs_a_reference_file(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_parallel_corpus(hyp, [])

    @pytest.mark.parametrize(
        "cfg",
        [
            TokenizerConfig(),
            TokenizerConfig(lowercase=True),
            TokenizerConfig(split_punctuation=True),
            FULL,
        ],
    )
    def test_equal_words_are_one_object(self, tmp_path, cfg):
        # Every word is a fresh str from str.split() or str.join(), so
        # sharing one object per word is the loader's doing. Multi-letter
        # words: CPython shares its one-character strings anyway.
        texts = [
            "The cat sat on the mat.\nthe dog, the cat\n",
            "the cat is on THE mat\nA dog and the cat.\n",
            "there is a cat on the mat.\ncat dog the\n",
        ]
        paths = []
        for k, text in enumerate(texts):
            paths.append(tmp_path / f"file{k}.txt")
            paths[-1].write_text(text, encoding="utf-8")
        corpus = load_parallel_corpus(paths[0], paths[1:], cfg)
        sentences = [s for pair in corpus for s in (pair.hypothesis, *pair.references)]
        # Tokens are tokenize's, sentence for sentence (hypothesis, then
        # each reference, line by line).
        lines = [text.splitlines() for text in texts]
        assert sentences == [tokenize(f[i], cfg) for i in range(2) for f in lines]
        first = {}
        for word in (word for sentence in sentences for word in sentence):
            assert first.setdefault(word, word) is word
        assert {"the", "cat"} <= first.keys()


# Line ends as the readers take them, and what lines may hold besides
# words: separators that str.splitlines() would break at but that are
# whitespace inside a line, and a byte order mark, which is a character
# like any other except at the very start of a file.
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
IN_LINE_SPACE = st.sampled_from([" ", "\t", "  ", "\x85", "\u2028", "\u2029", "\f"])
WORD = st.sampled_from(["a", "b", "cd", "\ufeffa", "b\ufeff"])


def lines_of(text: str) -> list[str]:
    """The lines of a file's text: one leading BOM dropped, broken at LF,
    CRLF and CR only, with no empty line after a final line end."""
    lines = re.split(r"\r\n|\r|\n", text.removeprefix("\ufeff"))
    return lines[:-1] if lines[-1] == "" else lines


@st.composite
def file_text(draw, lines: list[str]) -> str:
    """``lines`` joined by drawn line ends, the last one maybe missing, and
    a drawn leading BOM."""
    ends = [draw(LINE_END) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return ("\ufeff" if draw(st.booleans()) else "") + "".join(
        line + end for line, end in zip(lines, ends)
    )


@st.composite
def corpus_line(draw) -> str:
    """Words with drawn in-line whitespace between, before and after them."""
    words = draw(st.lists(WORD, max_size=4))
    gaps = [draw(IN_LINE_SPACE) for _ in words]
    edges = draw(st.lists(IN_LINE_SPACE, max_size=2))
    return "".join(edges) + "".join(gap + word for gap, word in zip(gaps, words))


@st.composite
def corpus_files(draw) -> tuple[str, list[str]]:
    """Hypothesis file text and 1-3 reference file texts, usually of one
    line count."""
    count = draw(st.integers(0, 5))
    counts = [count] * draw(st.integers(2, 4))
    if draw(st.integers(0, 4)) == 0:
        counts[draw(st.integers(0, len(counts) - 1))] = draw(st.integers(0, 5))
    texts = [
        draw(file_text(draw(st.lists(corpus_line(), min_size=n, max_size=n))))
        for n in counts
    ]
    return texts[0], texts[1:]


@st.composite
def lexicon_line(draw) -> str:
    """A blank or comment line, or a synonym line over three words, which
    may repeat a word, list one word twice only ("a, a") or hold one word."""
    if draw(st.booleans()):
        return draw(st.sampled_from(["", " ", "\t", "\x85", "#", "# a, b", "  #a,b"]))
    words = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=4))
    separator = st.sampled_from([",", ", ", " ,", "\t,\t"])
    return words[0] + "".join(draw(separator) + word for word in words[1:])


class TestParserFuzz:
    @settings(
        deadline=None,
        max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=corpus_files())
    def test_drawn_corpora_read_back_or_raise_line_count_mismatch(self, tmp_path, drawn):
        hyp_text, ref_texts = drawn
        paths = []
        for k, text in enumerate([hyp_text, *ref_texts]):
            paths.append(tmp_path / f"file{k}.txt")
            paths[-1].write_bytes(text.encode("utf-8"))
        expected = [
            [tuple(line.split()) for line in lines_of(text)]
            for text in [hyp_text, *ref_texts]
        ]
        if any(len(lines) != len(expected[0]) for lines in expected):
            with pytest.raises(LineCountMismatchError):
                load_parallel_corpus(paths[0], paths[1:])
            return
        corpus = load_parallel_corpus(paths[0], paths[1:])
        assert corpus.ref_count == len(ref_texts)
        assert [pair.hypothesis for pair in corpus] == expected[0]
        assert [pair.references for pair in corpus] == list(zip(*expected[1:]))

    @settings(
        deadline=None,
        max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(lines=st.lists(lexicon_line(), max_size=6), data=st.data())
    def test_drawn_lexicons_read_back_or_raise_malformed_line(self, tmp_path, lines, data):
        text = data.draw(file_text(lines))
        path = tmp_path / "syn.txt"
        path.write_bytes(text.encode("utf-8"))
        entries: dict[str, set[str]] = {}
        valid = True
        for line in lines_of(text):
            if not line.strip() or line.strip().startswith("#"):
                continue
            words = [field.strip() for field in line.split(",")]
            valid &= len(set(words)) >= 2
            for word in words:
                entries.setdefault(word, set()).update(set(words) - {word})
        if not valid:
            with pytest.raises(MalformedLineError):
                load_synonym_lexicon(path)
            return
        lexicon = load_synonym_lexicon(path)
        assert lexicon.entries == {w: frozenset(s) for w, s in entries.items()}


class TestSynonymLexicon:
    def _load(self, tmp_path, text, cfg=TokenizerConfig()):
        path = tmp_path / "syn.txt"
        path.write_text(text, encoding="utf-8")
        return load_synonym_lexicon(path, cfg)

    def test_synset_line(self, tmp_path):
        lex = self._load(tmp_path, "exam, test, quiz, examination\n")
        assert lex.synonyms("exam") == frozenset({"test", "quiz", "examination"})
        assert "exam" in lex.synonyms("quiz")

    def test_empty_file(self, tmp_path):
        lex = self._load(tmp_path, "")
        assert len(lex) == 0
        assert lex.synonyms("anything") == frozenset()

    def test_sets_merge_per_headword_not_transitively(self, tmp_path):
        lex = self._load(tmp_path, "a, b\nb, c\n")
        assert lex.synonyms("b") == frozenset({"a", "c"})
        assert lex.synonyms("a") == frozenset({"b"})
        assert lex.synonyms("c") == frozenset({"b"})

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        lex = self._load(tmp_path, "# comment\n\na, b\n")
        assert lex.synonyms("a") == frozenset({"b"})

    def test_single_word_line_raises(self, tmp_path):
        with pytest.raises(MalformedLineError):
            self._load(tmp_path, "alone\n")

    def test_multiword_field_raises(self, tmp_path):
        with pytest.raises(MalformedLineError):
            self._load(tmp_path, "new york, city\n")

    def test_utf8_bom_is_not_part_of_the_first_headword(self, tmp_path):
        path = tmp_path / "syn.txt"
        path.write_bytes(b"\xef\xbb\xbfcat, feline\n")
        lex = load_synonym_lexicon(path)
        assert set(lex.entries) == {"cat", "feline"}

    def test_no_self_synonyms(self, tmp_path):
        lex = self._load(tmp_path, "a, a, b\n")
        assert "a" not in lex.synonyms("a")

    def test_entries_normalized_like_corpus_text(self, tmp_path):
        lex = self._load(tmp_path, "Exam, Quiz\n", TokenizerConfig(lowercase=True))
        assert lex.synonyms("exam") == frozenset({"quiz"})

    @given(
        st.lists(
            st.lists(
                st.text(alphabet="abcdefg", min_size=1, max_size=4),
                min_size=2,
                max_size=5,
            ).filter(lambda ws: len(set(ws)) >= 2),
            max_size=6,
        )
    )
    def test_symmetric_and_irreflexive(self, tmp_path_factory, synsets):
        path = tmp_path_factory.mktemp("lex") / "syn.txt"
        path.write_text(
            "".join(", ".join(ws) + "\n" for ws in synsets), encoding="utf-8"
        )
        lex = load_synonym_lexicon(path)
        for word, syns in lex.entries.items():
            assert word not in syns
            for other in syns:
                assert word in lex.synonyms(other)


class TestBuildRareWordSet:
    def test_takes_the_low_frequency_tail(self):
        refs = [tokenize("the cat the"), tokenize("the dog")]
        rare = build_rare_word_set(refs, 0.5)
        assert rare.words == frozenset({"cat", "dog"})
        assert rare.source_vocab_size == 3

    def test_full_percent_takes_everything(self):
        refs = [tokenize("a b b")]
        assert build_rare_word_set(refs, 1.0).words == frozenset({"a", "b"})

    def test_empty_references(self):
        rare = build_rare_word_set([], 0.5)
        assert rare.words == frozenset()
        assert rare.source_vocab_size == 0

    @pytest.mark.parametrize("percent", [0.0, -0.1, 1.5])
    def test_invalid_percent(self, percent):
        with pytest.raises(InvalidPercentError):
            build_rare_word_set([tokenize("a")], percent)

    def test_ceil_keeps_at_least_one_word(self):
        rare = build_rare_word_set([tokenize("a b c d")], 0.01)
        assert len(rare.words) == 1

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdef"), max_size=10), min_size=1, max_size=5
        ),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_frequency_downward_closed(self, ref_lists, percent):
        refs = [tuple(ref) for ref in ref_lists]
        rare = build_rare_word_set(refs, percent)
        freq: dict[str, int] = {}
        for ref in refs:
            for word in ref:
                freq[word] = freq.get(word, 0) + 1
        included = [freq[w] for w in rare.words]
        excluded = [freq[w] for w in freq if w not in rare.words]
        if included and excluded:
            assert min(excluded) >= max(included)
        assert len(rare.words) == math.ceil(percent * len(freq))

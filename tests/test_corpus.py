import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mteval import (
    TokenizerConfig,
    build_rare_word_set,
    load_parallel_corpus,
    load_synonym_lexicon,
    tokenize,
)
from mteval.errors import (
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

"""Corpus loading, tokenization, and derived lexical resources.

Hypothesis and reference files are UTF-8 plain text, one sentence per
line (LF, CRLF or CR). A synonym lexicon file holds one synonym set per
line, comma separated; blank lines and lines starting with ``#`` are
skipped. A byte order mark at the start of any of these files is
dropped. All loaded objects are immutable and safe to share between
concurrent scorers. ``reduce_pairs`` is the scoring loop every metric
runs over a corpus: it pools each pair's statistic columns into running
totals and applies the metric's score formula to the totals.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    EmptyCorpusError,
    InvalidPercentError,
    LineCountMismatchError,
    MalformedLineError,
)
from .records import Frozen, checked

TokenSeq = tuple[str, ...]
"""An ordered sequence of normalized tokens for one sentence."""


class TokenizerConfig(NamedTuple):
    lowercase: bool = False
    split_punctuation: bool = False


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(raw_line: str, cfg: TokenizerConfig = TokenizerConfig()) -> TokenSeq:
    """Split a line of text into tokens.

    Tokens are whitespace delimited. With ``split_punctuation`` every
    punctuation character becomes a token of its own; with ``lowercase``
    the line is case-folded first. Deterministic, and idempotent on its
    own space-joined output.
    """
    if cfg.lowercase:
        raw_line = raw_line.casefold()
    chunks = raw_line.split()
    if not cfg.split_punctuation:
        return tuple(chunks)
    tokens: list[str] = []
    for chunk in chunks:
        run: list[str] = []
        for ch in chunk:
            if _is_punctuation(ch):
                if run:
                    tokens.append("".join(run))
                    run = []
                tokens.append(ch)
            else:
                run.append(ch)
        if run:
            tokens.append("".join(run))
    return tuple(tokens)


@checked
class EvalPair(NamedTuple):
    """One hypothesis sentence with its aligned reference sentences."""

    hypothesis: TokenSeq
    references: tuple[TokenSeq, ...]

    def _check(self) -> None:
        if not self.references:
            raise ValueError("an evaluation pair needs at least one reference")


class ParallelCorpus(Frozen):
    """Line-aligned hypothesis/reference pairs with a uniform reference count."""

    __slots__ = ("pairs", "ref_count")

    def __init__(self, pairs: tuple[EvalPair, ...], ref_count: int) -> None:
        self._set(pairs, ref_count)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def all_references(self) -> list[TokenSeq]:
        return [ref for pair in self.pairs for ref in pair.references]

    def hypothesis_token_count(self) -> int:
        return sum(len(pair.hypothesis) for pair in self.pairs)

    def reference_token_count(self) -> int:
        return sum(len(ref) for ref in self.all_references())


def reduce_pairs(
    corpus: ParallelCorpus,
    pair_stats: Callable[[EvalPair], Sequence],
    score: Callable[[Sequence], tuple[float, Any]],
    per_sentence: list[float] | None = None,
) -> tuple[float, Any]:
    """``score`` of the pooled ``pair_stats`` columns of every pair.

    The one scoring loop of every metric, and the only code that adds
    statistics across pairs. ``pair_stats`` gives a pair's statistics as
    a flat sequence of columns, each a number, pooled by addition, or a
    ``list`` (not a tuple, whose ``+=`` copies), pooled by concatenation;
    ``score(columns)`` turns one set of columns into ``(score,
    details)``. Each running total starts from a zero of its column's
    type and takes ``+=`` in corpus order, never ``sum()`` or
    ``math.fsum``, which compensate float rounding. No column is
    ``-0.0``, the one float that ``0.0 +`` changes, so a one-pair corpus
    scores its own columns bit for bit. When ``per_sentence`` is a list,
    each pair's score, ``score(columns)[0]`` of its own columns, is
    appended to it in corpus order. A pair's columns are dropped once
    added. Raises :class:`EmptyCorpusError` on an empty corpus.
    """
    if not corpus.pairs:
        raise EmptyCorpusError("cannot score an empty corpus")
    totals = None
    for pair in corpus.pairs:
        columns = pair_stats(pair)
        if per_sentence is not None:
            per_sentence.append(score(columns)[0])
        if totals is None:
            # Fresh zeros (0, 0.0, []): a list total that started as the
            # first pair's own list would be extended in place.
            totals = [type(column)() for column in columns]
        for i, column in enumerate(columns):
            totals[i] += column
    return score(totals)


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file, a leading byte order mark dropped.

    Lines end at LF, CRLF or a lone CR only. ``str.splitlines`` would
    also break at U+0085, U+2028, U+2029, form feed, vertical tab and
    U+001C-U+001E, which would misalign line-paired files; here those
    stay in their line, where tokenization reads them as whitespace.
    """
    with open(path, encoding="utf-8-sig") as fh:
        return [line.removesuffix("\n") for line in fh]


def load_parallel_corpus(
    hyp_path: str | Path,
    ref_paths: Sequence[str | Path],
    cfg: TokenizerConfig = TokenizerConfig(),
) -> ParallelCorpus:
    """Build a corpus from one hypothesis file and one or more reference files.

    Line i of every reference file is paired with line i of the
    hypothesis file. Equal words anywhere in the corpus are one ``str``
    object, mapped through one dict per call, so the n-gram tables of the
    scorers compare their keys' words by identity; the dict is dropped on
    return. Raises :class:`LineCountMismatchError` when any file disagrees
    on line count; I/O and decoding errors propagate.
    """
    if not ref_paths:
        raise ValueError("at least one reference file is required")
    hyp_lines = read_lines(hyp_path)
    ref_lines = [read_lines(p) for p in ref_paths]
    for path, lines in zip(ref_paths, ref_lines):
        if len(lines) != len(hyp_lines):
            raise LineCountMismatchError(
                f"{path}: {len(lines)} lines, expected {len(hyp_lines)} (from {hyp_path})"
            )
    one_word = {}.setdefault

    def words(line: str) -> TokenSeq:
        tokens = tokenize(line, cfg)
        return tuple(map(one_word, tokens, tokens))

    pairs = tuple(
        EvalPair(
            hypothesis=words(line),
            references=tuple(words(lines[i]) for lines in ref_lines),
        )
        for i, line in enumerate(hyp_lines)
    )
    return ParallelCorpus(pairs=pairs, ref_count=len(ref_paths))


class SynonymLexicon(Frozen):
    """Word to synonym-set mapping, symmetric and irreflexive."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, frozenset[str]]) -> None:
        self._set(entries)

    def synonyms(self, word: str) -> frozenset[str]:
        return self.entries.get(word, frozenset())

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def empty(cls) -> "SynonymLexicon":
        return cls(entries={})


def load_synonym_lexicon(
    path: str | Path, cfg: TokenizerConfig = TokenizerConfig()
) -> SynonymLexicon:
    """Load a synonym lexicon, applying the symmetric closure per line.

    Every word on a line becomes a synonym of every other word on that
    line; sets merge per headword across lines, with no transitive
    closure between lines. Fields pass through the same tokenizer
    normalization as corpus text. A non-blank, non-comment line with
    fewer than two words, or a field that does not normalize to exactly
    one word, raises :class:`MalformedLineError`.
    """
    entries: dict[str, set[str]] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            words: list[str] = []
            for field in line.split(","):
                tokens = tokenize(field, cfg)
                if len(tokens) != 1:
                    raise MalformedLineError(
                        f"{path}:{lineno}: field {field.strip()!r} is not a single word"
                    )
                words.append(tokens[0])
            if len(set(words)) < 2:
                raise MalformedLineError(
                    f"{path}:{lineno}: a synonym set needs at least two distinct words"
                )
            for word in words:
                group = entries.setdefault(word, set())
                group.update(w for w in words if w != word)
    return SynonymLexicon(entries={w: frozenset(s) for w, s in entries.items()})


class RareWordSet(NamedTuple):
    """The lowest-frequency tail of the distinct reference vocabulary."""

    words: frozenset[str]
    source_vocab_size: int
    percent: float

    def __contains__(self, word: str) -> bool:
        return word in self.words

    @classmethod
    def empty(cls) -> "RareWordSet":
        return cls(words=frozenset(), source_vocab_size=0, percent=1.0)


def build_rare_word_set(references: Iterable[TokenSeq], percent: float) -> RareWordSet:
    """Select the rarest ``percent`` of the distinct reference vocabulary.

    Distinct words are ordered by frequency descending with ties broken
    lexicographically ascending; the final ``ceil(percent * vocab)``
    entries of that ordering form the set.
    """
    if not 0.0 < percent <= 1.0:
        raise InvalidPercentError(f"percent must be in (0, 1], got {percent}")
    freq: Counter[str] = Counter()
    for ref in references:
        freq.update(ref)
    vocab = sorted(freq, key=lambda w: (-freq[w], w))
    take = math.ceil(percent * len(vocab))
    tail = vocab[len(vocab) - take :]
    return RareWordSet(
        words=frozenset(tail), source_vocab_size=len(vocab), percent=percent
    )

"""Corpus loading, tokenization, and derived lexical resources.

Hypothesis and reference files are UTF-8 plain text, one sentence per
line (LF, CRLF or CR). A synonym lexicon file holds one synonym set per
line, comma separated; blank lines and lines starting with ``#`` are
skipped. A byte order mark at the start of any of these files is
dropped, and so is every U+FEFF of a lexicon line before the line is
read as blank, comment or words. All loaded objects are immutable and
safe to share between concurrent scorers. A ``ParallelCorpus`` is the
tuple of its ``EvalPair``s; a ``SynonymLexicon`` is not a tuple, since
its ``len`` counts headwords. ``reduce_pairs`` is the scoring loop every
metric runs over a corpus: it pools each pair's statistic columns into
running totals and applies the metric's score formula to the totals.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from itertools import chain, groupby
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DecodeError,
    EmptyCorpusError,
    LineCountMismatchError,
    MalformedLineError,
)
from .records import checked

TokenSeq = tuple[str, ...]
"""An ordered sequence of normalized tokens for one sentence."""


class TokenizerConfig(NamedTuple):
    lowercase: bool = False
    split_punctuation: bool = False


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(raw_line: str, cfg: TokenizerConfig = TokenizerConfig()) -> TokenSeq:
    """Split a line of text into tokens.

    Text that is the same is read the same: every U+FEFF is dropped and
    the line is put in Normalization Form C (UAX #15), after case folding
    with ``lowercase``. Other format characters, such as U+200B, stay.
    Tokens are whitespace delimited. With ``split_punctuation`` every
    punctuation character becomes a token of its own. Deterministic, and
    idempotent on its own space-joined output.
    """
    raw_line = raw_line.replace("\ufeff", "")
    if cfg.lowercase:
        raw_line = raw_line.casefold()
    chunks = unicodedata.normalize("NFC", raw_line).split()
    if not cfg.split_punctuation:
        return tuple(chunks)
    tokens: list[str] = []
    for chunk in chunks:
        for punctuation, run in groupby(chunk, _is_punctuation):
            tokens += run if punctuation else ["".join(run)]
    return tuple(tokens)


@checked
class EvalPair(NamedTuple):
    """One hypothesis sentence with its aligned reference sentences."""

    hypothesis: TokenSeq
    references: tuple[TokenSeq, ...]

    def _check(self) -> None:
        if not self.references:
            raise ValueError("an evaluation pair needs at least one reference")


class ParallelCorpus(tuple):
    """Line-aligned hypothesis/reference pairs: the tuple of its ``EvalPair``s."""

    __slots__ = ()

    def __new__(cls, pairs: Iterable[EvalPair]) -> ParallelCorpus:
        return super().__new__(cls, pairs)

    def __repr__(self) -> str:
        return f"ParallelCorpus(pairs={tuple(self)!r})"

    def all_references(self) -> list[TokenSeq]:
        return [ref for pair in self for ref in pair.references]

    def hypothesis_token_count(self) -> int:
        return sum(len(pair.hypothesis) for pair in self)

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
    if not corpus:
        raise EmptyCorpusError("cannot score an empty corpus")
    totals = None
    for pair in corpus:
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
    Raises :class:`DecodeError`, naming the file, when it is not UTF-8.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return [line.removesuffix("\n") for line in fh]
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise DecodeError(
            f"{path}: not UTF-8 text: byte 0x{byte:02x}, {exc.reason}"
        ) from None


def content_lines(lines: Sequence[str]) -> list[tuple[int, str]]:
    """The stripped ``lines`` of a ``read_lines`` file with their 1-based
    line numbers, every U+FEFF dropped first, as ``tokenize`` drops it,
    then blank lines and ``#`` comment lines skipped."""
    return [
        (lineno, text)
        for lineno, line in enumerate(lines, start=1)
        if (text := line.replace("\ufeff", "").strip()) and not text.startswith("#")
    ]


PER_SENTENCE_MARKER = "# per-sentence"
"""The line of ``score --per-sentence`` tsv output between the corpus row
and the sentence rows; a score table that holds it is refused."""


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
    on line count and :class:`DecodeError` on a file that is not UTF-8;
    I/O errors propagate.
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

    return ParallelCorpus(
        EvalPair(
            hypothesis=words(line),
            references=tuple(words(lines[i]) for lines in ref_lines),
        )
        for i, line in enumerate(hyp_lines)
    )


class SynonymLexicon:
    """Word to synonym-set mapping, symmetric and irreflexive.

    Immutable, but not a tuple: ``len`` counts headwords, which would
    break a NamedTuple's ``_make`` and ``_replace``.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, frozenset[str]]) -> None:
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is type(self) and other.entries == self.entries

    def __repr__(self) -> str:
        return f"SynonymLexicon(entries={self.entries!r})"

    def __reduce__(self):
        return SynonymLexicon, (self.entries,)

    def synonyms(self, word: str) -> frozenset[str]:
        return self.entries.get(word, frozenset())

    def __len__(self) -> int:
        return len(self.entries)


def load_synonym_lexicon(
    path: str | Path, cfg: TokenizerConfig = TokenizerConfig()
) -> SynonymLexicon:
    """Load a synonym lexicon, applying the symmetric closure per line.

    Every word on a line becomes a synonym of every other word on that
    line; sets merge per headword across lines, with no transitive
    closure between lines. Fields pass through the same tokenizer
    normalization as corpus text. A non-blank, non-comment line with
    fewer than two words, or a field that does not normalize to exactly
    one word, raises :class:`MalformedLineError`. Lines end as in corpus
    files (``read_lines``).
    """
    entries: dict[str, set[str]] = {}
    for lineno, line in content_lines(read_lines(path)):
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


def _check_percent(percent: float) -> None:
    """The one rule for a rare-word share, ``EbleuConfig``'s and
    ``build_rare_word_set``'s: raise ``ValueError`` unless it is in (0, 1]."""
    # A chained range check: NaN fails every comparison, so it is rejected.
    if not 0.0 < percent <= 1.0:
        raise ValueError("rare_words_percent must be in (0, 1]")


def build_rare_word_set(references: Iterable[TokenSeq], percent: float) -> RareWordSet:
    """Select the rarest ``percent`` of the distinct reference vocabulary.

    Distinct words are ordered by frequency descending with ties broken
    lexicographically ascending; the final ``ceil(percent * vocab)``
    entries of that ordering form the set. Raises ``ValueError`` unless
    ``percent`` is in (0, 1].
    """
    _check_percent(percent)
    freq = Counter(chain.from_iterable(references))
    vocab = sorted(freq, key=lambda w: (-freq[w], w))
    take = math.ceil(percent * len(vocab))
    tail = vocab[len(vocab) - take :]
    return RareWordSet(frozenset(tail))

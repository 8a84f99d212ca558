"""Metamorphic relations (Chen, Cheung and Yiu 1998): changes to the input
that must leave every score as it is, compared by ``==``.

Reordering the references of each pair, every pair in an order of its
own, must not move a score; ordering the ``--ref`` files is the case of
one order for all. BLEU, EBLEU, NIST, TER and RIBES hold this today. LEPOR and
METEOR break a tie by taking the first reference, so for them the
relation stands as strict expected failures on the two smallest known
counterexamples, until the tie rules of ROADMAP item 8 land.

Renaming the words, the lexicon's too, by a map that keeps their order
must not move any of the seven scores: a scorer reads words only by
equality, and EBLEU and its rare-word set break ties by word order.

A copy of the first reference added as the last must not move BLEU,
METEOR, LEPOR or RIBES: the copy adds no n-gram count above the maximum,
no new reference length, and no better score, and where METEOR and LEPOR
break a tie by the first reference, the one that won before still comes
first. NIST and TER pool or average over the references, and EBLEU's
rare-word set counts them, so the copy moves those by definition.

Text that is the same must score the same: putting any lines, the
lexicon's too, in Normalization Form D (UAX #15), or putting a U+FEFF in
front of any lines, must not move any of the seven scores.
"""

import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mteval import (
    EbleuConfig,
    EvalPair,
    ParallelCorpus,
    SynonymLexicon,
    bleu_score,
    ebleu_score,
    lepor_score,
    meteor_score,
    nist_score,
    ribes_score,
    ter_score,
    tokenize,
)
from helpers import corpus_of, pair_of, small_corpora

_LEXICON = SynonymLexicon(
    entries={"a": frozenset("bd"), "b": frozenset("a"), "d": frozenset("a")}
)
# name -> scorer(corpus, lexicon, **kwargs) for each of the seven metrics;
# EBLEU builds its rare-word set from the references.
_SCORERS = {
    "bleu": lambda c, lex, **kw: bleu_score(c, **kw),
    "ebleu": lambda c, lex, **kw: ebleu_score(
        c, lex, EbleuConfig(rare_words_percent=0.5, rare_words_score=1.3), **kw
    ),
    "nist": lambda c, lex, **kw: nist_score(c, **kw),
    "ter": lambda c, lex, **kw: ter_score(c, **kw),
    "meteor": meteor_score,
    "lepor": lambda c, lex, **kw: lepor_score(c, **kw),
    "ribes": lambda c, lex, **kw: ribes_score(c, **kw),
}
_ORDER_FREE = ("bleu", "ebleu", "nist", "ribes", "ter")
_COPY_FREE = ("bleu", "lepor", "meteor", "ribes")
_SMALL_CORPORA = small_corpora(alphabet="abcd", max_len=10)


def scores(name, corpus, lexicon=_LEXICON):
    """The corpus result and the per-sentence scores of metric ``name``."""
    sink = []
    return _SCORERS[name](corpus, lexicon, per_sentence=sink), sink


def with_pairs(corpus: ParallelCorpus, change) -> ParallelCorpus:
    """``corpus`` with ``change(pair)`` in place of each pair."""
    return ParallelCorpus(tuple(map(change, corpus)))


def reordered(pair: EvalPair, order) -> EvalPair:
    """``pair`` with its reference ``order[k]`` in place ``k``."""
    return pair._replace(references=tuple(pair.references[k] for k in order))


def with_references_in_order(corpus: ParallelCorpus, order) -> ParallelCorpus:
    """``corpus`` with reference ``order[k]`` of every pair in place ``k``,
    as when the ``--ref`` files are given in that order."""
    return with_pairs(corpus, lambda pair: reordered(pair, order))


@pytest.mark.parametrize("name", _ORDER_FREE)
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_reordering_the_references_moves_no_score(name, data):
    corpus = data.draw(_SMALL_CORPORA)
    # One order per pair: pairs may hold different numbers of references.
    orders = [data.draw(st.permutations(range(len(pair.references)))) for pair in corpus]
    permuted = ParallelCorpus(tuple(map(reordered, corpus, orders)))
    assert scores(name, permuted) == scores(name, corpus)


# Four distinct words of one to three letters, sorted: the new names of
# a, b, c and d, in their order.
_NEW_NAMES = st.lists(
    st.text("abcdxyz", min_size=1, max_size=3), min_size=4, max_size=4, unique=True
).map(sorted)


@pytest.mark.parametrize("name", sorted(_SCORERS))
@settings(deadline=None, max_examples=150)
@given(corpus=_SMALL_CORPORA, new_names=_NEW_NAMES)
def test_renaming_the_words_in_order_moves_no_score(name, corpus, new_names):
    rename = dict(zip("abcd", new_names)).__getitem__

    def renamed_pair(pair):
        return EvalPair(
            tuple(map(rename, pair.hypothesis)),
            tuple(tuple(map(rename, ref)) for ref in pair.references),
        )

    lexicon = SynonymLexicon(
        entries={
            rename(word): frozenset(map(rename, synonyms))
            for word, synonyms in _LEXICON.entries.items()
        }
    )
    renamed = scores(name, with_pairs(corpus, renamed_pair), lexicon)
    assert renamed == scores(name, corpus)


@pytest.mark.parametrize("name", _COPY_FREE)
@settings(deadline=None, max_examples=150)
@given(corpus=_SMALL_CORPORA)
def test_a_copy_of_the_first_reference_added_last_moves_no_score(name, corpus):
    def with_copy(pair):
        return pair._replace(references=(*pair.references, pair.references[0]))

    assert scores(name, with_pairs(corpus, with_copy)) == scores(name, corpus)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 8: LEPOR aligns against the first reference of the"
    " effective length, so this pair scores 0.5 one way and 0.6065306597126334"
    " the other",
)
def test_lepor_does_not_depend_on_reference_order():
    forward = corpus_of(("a b c d", "a b x y", "c d a b"))
    assert lepor_score(with_references_in_order(forward, (1, 0))) == lepor_score(forward)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 8: a pair that scores 0 against every reference takes"
    " the first one's length into the pooled recall, so this corpus scores"
    " 0.17241379310344826 one way and 0.25 the other",
)
def test_meteor_does_not_depend_on_reference_order():
    forward = corpus_of(("b", "a a", "c"), ("c", "a", "c"))
    empty = SynonymLexicon({})
    reordered = with_references_in_order(forward, (1, 0))
    assert meteor_score(reordered, empty) == meteor_score(forward, empty)


# Words with canonical decompositions, in NFC: the text of a, b, c and d.
_ACCENTED = dict(zip("abcd", ["caf\u00e9", "\u00e9", "e", "\u00f1\u00f6"]))


def lines_of(corpus: ParallelCorpus) -> list[tuple[str, ...]]:
    """Each pair as its text lines, hypothesis first, in ``_ACCENTED`` words."""
    return [
        tuple(" ".join(map(_ACCENTED.get, s)) for s in (pair.hypothesis, *pair.references))
        for pair in corpus
    ]


def accented(lines, change, changed) -> tuple[ParallelCorpus, SynonymLexicon]:
    """The corpus of ``lines``, tokenized, with ``change`` applied to line k
    of pair i where ``changed[i][k]``, and ``_LEXICON`` in ``_ACCENTED``
    words with ``change`` applied to every field when ``changed[-1]``."""
    corpus = ParallelCorpus(
        tuple(
            pair_of(*(change(line) if flag else line for line, flag in zip(pair, flags)))
            for pair, flags in zip(lines, changed)
        )
    )
    field = change if changed[-1] else (lambda word: word)

    def word(name):
        return tokenize(field(_ACCENTED[name]))[0]

    lexicon = SynonymLexicon(
        entries={word(w): frozenset(map(word, s)) for w, s in _LEXICON.entries.items()}
    )
    return corpus, lexicon


def changed_lines(data, lines):
    """A drawn flag for each line of ``lines`` and one for the lexicon."""
    flags = [
        data.draw(st.lists(st.booleans(), min_size=len(pair), max_size=len(pair)))
        for pair in lines
    ]
    return [*flags, data.draw(st.booleans())]


@pytest.mark.parametrize(
    "change",
    [
        lambda line: unicodedata.normalize("NFD", line),
        lambda line: "\ufeff" + line,
    ],
    ids=["nfd", "byte-order-mark"],
)
@pytest.mark.parametrize("name", sorted(_SCORERS))
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_the_same_text_moves_no_score(name, change, data):
    lines = lines_of(data.draw(_SMALL_CORPORA))
    unchanged = accented(lines, change, [[False] * len(p) for p in lines] + [False])
    corpus, lexicon = accented(lines, change, changed_lines(data, lines))
    assert scores(name, corpus, lexicon) == scores(name, *unchanged)

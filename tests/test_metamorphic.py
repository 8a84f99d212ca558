"""Metamorphic relations: changes to the input that must leave every score
as it is, compared by ``==``.

Reordering the references (the ``--ref`` files) of a corpus must not move
a score. BLEU, EBLEU, NIST, TER and RIBES hold this today. LEPOR and
METEOR break a tie by taking the first reference, so for them the
relation stands as strict expected failures on the two smallest known
counterexamples, until the tie rules of ROADMAP item 8 land.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mteval import (
    EbleuConfig,
    ParallelCorpus,
    SynonymLexicon,
    bleu_score,
    ebleu_score,
    lepor_score,
    meteor_score,
    nist_score,
    ribes_score,
    ter_score,
)
from helpers import corpus_of, small_corpora

_LEXICON = SynonymLexicon(
    entries={"a": frozenset("bd"), "b": frozenset("a"), "d": frozenset("a")}
)
# name -> scorer(corpus, **kwargs) for each metric that holds the relation;
# EBLEU builds its rare-word set from the references.
_ORDER_FREE_SCORERS = {
    "bleu": bleu_score,
    "ebleu": lambda c, **kw: ebleu_score(
        c, _LEXICON, EbleuConfig(rare_words_percent=0.5, rare_words_score=1.3), **kw
    ),
    "nist": nist_score,
    "ter": ter_score,
    "ribes": ribes_score,
}


def with_references_in_order(corpus: ParallelCorpus, order) -> ParallelCorpus:
    """``corpus`` with reference ``order[k]`` of every pair in place ``k``,
    as when the ``--ref`` files are given in that order."""
    pairs = tuple(
        pair._replace(references=tuple(pair.references[k] for k in order))
        for pair in corpus.pairs
    )
    return ParallelCorpus(pairs=pairs, ref_count=corpus.ref_count)


@pytest.mark.parametrize("name", sorted(_ORDER_FREE_SCORERS))
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_reordering_the_references_moves_no_score(name, data):
    corpus = data.draw(small_corpora(alphabet="abcd", max_len=10))
    order = data.draw(st.permutations(range(corpus.ref_count)))
    scorer = _ORDER_FREE_SCORERS[name]
    sink, reordered_sink = [], []
    result = scorer(corpus, per_sentence=sink)
    reordered = scorer(with_references_in_order(corpus, order), per_sentence=reordered_sink)
    assert reordered == result
    assert reordered_sink == sink


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
    empty = SynonymLexicon.empty()
    reordered = with_references_in_order(forward, (1, 0))
    assert meteor_score(reordered, empty) == meteor_score(forward, empty)

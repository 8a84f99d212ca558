"""The public records: immutable, compared, hashed and shown by value, and
validated wherever one is built, ``_replace`` and ``_make`` included."""

import copy
import math
import pickle

import pytest

from mteval import (
    BleuConfig,
    CorrelationResult,
    EbleuConfig,
    EvalPair,
    MetricScore,
    ParallelCorpus,
    RareWordSet,
    ScoreTable,
    SubstitutionTrace,
    SynonymLexicon,
    TokenizerConfig,
)

PAIR = EvalPair(("a", "b"), (("a",),))

# Each record type built from fixed values, with its repr.
PINNED = [
    (lambda: TokenizerConfig(lowercase=True),
     "TokenizerConfig(lowercase=True, split_punctuation=False)"),
    (lambda: EvalPair(("a", "b"), (("a",),)),
     "EvalPair(hypothesis=('a', 'b'), references=(('a',),))"),
    (lambda: ParallelCorpus((PAIR,)),
     "ParallelCorpus(pairs=(EvalPair(hypothesis=('a', 'b'), references=(('a',),)),))"),
    (lambda: SynonymLexicon({"exam": frozenset({"quiz"})}),
     "SynonymLexicon(entries={'exam': frozenset({'quiz'})})"),
    (lambda: RareWordSet(frozenset({"quiz"})),
     "RareWordSet(words=frozenset({'quiz'}))"),
    (lambda: BleuConfig(max_order=2),
     "BleuConfig(max_order=2, smoothing_epsilon=0.0)"),
    (lambda: MetricScore(0.5, {"matched": [1]}),
     "MetricScore(corpus_score=0.5, details={'matched': [1]})"),
    (lambda: EbleuConfig(smoothing_epsilon=0.1),
     "EbleuConfig(max_order=4, synonym_score=0.9, rare_words_percent=0.1,"
     " rare_words_score=1.1, smoothing_epsilon=0.1)"),
    (lambda: SubstitutionTrace(("a", "quiz"), frozenset({1})),
     "SubstitutionTrace(modified_hypothesis=('a', 'quiz'),"
     " substituted_positions=frozenset({1}))"),
    (lambda: CorrelationResult(0.5, 3),
     "CorrelationResult(coefficient=0.5, n=3, two_tailed_p=None)"),
    (lambda: ScoreTable(("a", "b"), ((1.0, 2.0),)),
     "ScoreTable(metric_names=('a', 'b'), rows=((1.0, 2.0),))"),
]
IDS = [text[: text.index("(")] for _, text in PINNED]
CONFIGS = [TokenizerConfig, BleuConfig, EbleuConfig]

# A valid record and field changes that its constructor rejects.
INVALID = [
    (BleuConfig(), {"max_order": 0}),
    (BleuConfig(), {"smoothing_epsilon": 1.0}),
    (BleuConfig(), {"smoothing_epsilon": math.nan}),
    (BleuConfig(), {"max_order": 1001}),
    (BleuConfig(), {"smoothing_epsilon": -0.1}),
    (EbleuConfig(), {"max_order": 0}),
    (EbleuConfig(), {"synonym_score": 1.5}),
    (EbleuConfig(), {"synonym_score": -0.1}),
    (EbleuConfig(), {"rare_words_percent": 0.0}),
    (EbleuConfig(), {"rare_words_percent": 1.5}),
    (EbleuConfig(), {"rare_words_score": 0.5}),
    (EbleuConfig(), {"rare_words_score": math.inf}),
    # Unchecked, this epsilon scores a hypothesis that shares no word 100.00.
    (EbleuConfig(), {"smoothing_epsilon": 1.0}),
    (PAIR, {"references": ()}),
    (ScoreTable(("a", "b"), ((1.0, 2.0),)), {"rows": ((1.0,),)}),
    # Subnormal: BLEU's floor epsilon / t can round to 0.0, whose log it takes.
    (BleuConfig(), {"smoothing_epsilon": 5e-324}),
    (EbleuConfig(), {"smoothing_epsilon": 5e-324}),
]


def first_field(text: str) -> str:
    return text[text.index("(") + 1 : text.index("=")]


@pytest.mark.parametrize("build, text", PINNED, ids=IDS)
def test_repr_is_pinned(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", PINNED, ids=IDS)
def test_assignment_raises(build, text):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, first_field(text), None)
    with pytest.raises(AttributeError):
        record.unknown_field = None
    assert repr(record) == text


@pytest.mark.parametrize("build, text", PINNED, ids=IDS)
def test_equal_instances_compare_equal(build, text):
    assert build() == build()
    assert not build() != build()


@pytest.mark.parametrize("build, text", PINNED, ids=IDS)
def test_pickle_round_trip(build, text):
    # ``==`` alone cannot tell a corpus from a plain tuple of its pairs.
    record = build()
    copies = [copy.copy(record), copy.deepcopy(record)] + [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for duplicate in copies:
        assert duplicate == record
        assert type(duplicate) is type(record)


@pytest.mark.parametrize("config", CONFIGS)
def test_configs_hash(config):
    assert hash(config()) == hash(config())
    assert {config(): 1}[config()] == 1


# The other records whose fields all hold hashable values.
HASHABLE = ["EvalPair", "ParallelCorpus", "RareWordSet", "SubstitutionTrace",
            "CorrelationResult", "ScoreTable"]


@pytest.mark.parametrize(
    "build, text",
    [entry for entry, name in zip(PINNED, IDS) if name in HASHABLE],
    ids=[name for name in IDS if name in HASHABLE],
)
def test_hashable_records_hash(build, text):
    assert hash(build()) == hash(build())
    assert {build(): 1}[build()] == 1


@pytest.mark.parametrize("valid, change", INVALID)
def test_validators_run_on_every_build(valid, change):
    with pytest.raises(ValueError):
        type(valid)(**{**valid._asdict(), **change})
    with pytest.raises(ValueError):
        valid._replace(**change)
    with pytest.raises(ValueError):
        type(valid)._make({**valid._asdict(), **change}.values())


def test_corpus_and_lexicon_sizes_count_their_items():
    other = EvalPair(("c",), (("c",),))
    corpus = ParallelCorpus((PAIR, other, PAIR))
    assert len(corpus) == 3
    assert list(corpus) == [PAIR, other, PAIR]
    assert corpus[1] is other
    assert tuple(corpus) == (PAIR, other, PAIR)
    lexicon = SynonymLexicon({"exam": frozenset({"quiz"}), "quiz": frozenset({"exam"})})
    assert len(lexicon) == 2

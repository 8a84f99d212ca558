"""Machine translation evaluation toolkit.

A synonym- and rarity-aware BLEU variant next to the classic reference
metrics (BLEU, NIST, TER, METEOR, LEPOR, RIBES) and the correlation
statistics used to compare them, with a batch CLI.
"""

from .bleu import (
    BleuConfig,
    MetricScore,
    bleu_score,
    brevity_penalty,
    effective_reference_length,
)
from .corpus import (
    EvalPair,
    ParallelCorpus,
    RareWordSet,
    SynonymLexicon,
    TokenizerConfig,
    TokenSeq,
    build_rare_word_set,
    load_parallel_corpus,
    load_synonym_lexicon,
    tokenize,
)
from .ebleu import (
    EbleuConfig,
    SubstitutionTrace,
    ebleu_cumulative,
    ebleu_length_score,
    ebleu_score,
    synonym_substitute,
)
from .refmetrics import (
    lepor_score,
    meteor_score,
    nist_score,
    ribes_score,
    ter_score,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: the statistics in __all__ load on first use, never for scoring.
    if name in __all__:
        from . import stats

        return getattr(stats, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BleuConfig",
    "CorrelationResult",
    "EbleuConfig",
    "EvalPair",
    "MetricScore",
    "ParallelCorpus",
    "RareWordSet",
    "ScoreTable",
    "SubstitutionTrace",
    "SynonymLexicon",
    "TokenSeq",
    "TokenizerConfig",
    "bleu_score",
    "brevity_penalty",
    "build_rare_word_set",
    "correlation_matrix",
    "discretize",
    "ebleu_cumulative",
    "ebleu_length_score",
    "ebleu_score",
    "effective_reference_length",
    "goodman_kruskal_lambda",
    "lepor_score",
    "load_parallel_corpus",
    "load_synonym_lexicon",
    "meteor_score",
    "nist_score",
    "pearson",
    "read_score_table",
    "ribes_score",
    "spearman",
    "synonym_substitute",
    "ter_score",
    "tokenize",
]

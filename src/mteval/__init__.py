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
    modified_precision,
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
    ebleu_order_score,
    ebleu_score,
    synonym_substitute,
)
from .refmetrics import (
    LeporConfig,
    MeteorResult,
    RibesConfig,
    lepor_score,
    meteor_score,
    nist_score,
    ribes_score,
    ter_score,
)
from .stats import (
    ContingencyTable,
    CorrelationResult,
    ScoreTable,
    correlation_matrix,
    discretize,
    goodman_kruskal_lambda,
    pearson,
    read_score_table,
    spearman,
)

__version__ = "0.1.0"

__all__ = [
    "BleuConfig",
    "ContingencyTable",
    "CorrelationResult",
    "EbleuConfig",
    "EvalPair",
    "LeporConfig",
    "MeteorResult",
    "MetricScore",
    "ParallelCorpus",
    "RareWordSet",
    "RibesConfig",
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
    "ebleu_order_score",
    "ebleu_score",
    "effective_reference_length",
    "goodman_kruskal_lambda",
    "lepor_score",
    "load_parallel_corpus",
    "load_synonym_lexicon",
    "meteor_score",
    "modified_precision",
    "nist_score",
    "pearson",
    "read_score_table",
    "ribes_score",
    "spearman",
    "synonym_substitute",
    "ter_score",
    "tokenize",
]

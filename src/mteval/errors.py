"""Exception types shared across the toolkit."""


class MTEvalError(Exception):
    """Base class for all toolkit errors."""


class LineCountMismatchError(MTEvalError):
    """Hypothesis and reference files disagree on line count."""


class MalformedLineError(MTEvalError):
    """A synonym lexicon line does not hold at least two single words."""


class InvalidPercentError(MTEvalError):
    """Rare-word percentage outside (0, 1]."""


class OrderMismatchError(MTEvalError):
    """N-gram collections of different orders were combined."""


class EmptyCorpusError(MTEvalError):
    """A metric was asked to score a corpus with no sentence pairs."""


class LengthMismatchError(MTEvalError):
    """Correlation inputs differ in length or are shorter than two."""


class NonFiniteValueError(MTEvalError):
    """A correlation input holds NaN or an infinity."""


class ZeroVarianceError(MTEvalError):
    """A correlation input is constant, so the coefficient is undefined."""


class DegenerateTableError(MTEvalError):
    """All contingency mass sits in one column, so lambda is undefined."""


class InsufficientDistinctValuesError(MTEvalError):
    """Fewer distinct values than requested bins."""


class TableFormatError(MTEvalError):
    """A score table file is empty, ragged, or non-numeric."""

"""Exception types shared across the toolkit."""

from contextlib import contextmanager


class MTEvalError(Exception):
    """Base class for all toolkit errors."""


@contextmanager
def prefixed(label: str):
    """Re-raise an :class:`MTEvalError` of the block with ``label: `` before its message."""
    try:
        yield
    except MTEvalError as exc:
        raise type(exc)(f"{label}: {exc}") from None


class LineCountMismatchError(MTEvalError):
    """Hypothesis and reference files disagree on line count."""


class DecodeError(MTEvalError):
    """An input file is not UTF-8 text."""


class MalformedLineError(MTEvalError):
    """A synonym lexicon line does not hold at least two single words."""


class EmptyCorpusError(MTEvalError):
    """A metric was asked to score a corpus with no sentence pairs."""


class LengthMismatchError(MTEvalError):
    """Paired inputs differ in length, or a correlation has fewer than two."""


class NonFiniteValueError(MTEvalError):
    """A correlation or discretization input holds NaN or an infinity."""


class ZeroVarianceError(MTEvalError):
    """A correlation input is constant, so the coefficient is undefined."""


class DegenerateTableError(MTEvalError):
    """Every observed pair has the same column category, so lambda is undefined."""


class InsufficientDistinctValuesError(MTEvalError):
    """Fewer distinct values than requested bins."""


class TableFormatError(MTEvalError):
    """A score table file is empty, ragged or non-numeric, or differs from the
    first table of a merge in its header or in how its runs were scored."""

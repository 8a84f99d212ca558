"""Correlation statistics over metric score tables.

Product-moment correlation, rank correlation with tie handling, and the
asymmetric Goodman-Kruskal lambda association measure for discretized
scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DegenerateTableError,
    InsufficientDistinctValuesError,
    LengthMismatchError,
    NonFiniteValueError,
    ZeroVarianceError,
)


@dataclass(frozen=True)
class CorrelationResult:
    coefficient: float
    n: int
    two_tailed_p: float | None = None


@dataclass(frozen=True)
class ScoreTable:
    """Runs-by-metrics score matrix feeding the correlation analysis."""

    metric_names: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        width = len(self.metric_names)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(
                    f"row of width {len(row)} in a table of {width} metrics"
                )

    def column(self, name: str) -> list[float]:
        j = self.metric_names.index(name)
        return [row[j] for row in self.rows]

    def column_at(self, j: int) -> list[float]:
        return [row[j] for row in self.rows]


def _check_vectors(x: Sequence[float], y: Sequence[float]) -> int:
    if len(x) != len(y):
        raise LengthMismatchError(f"vectors of length {len(x)} and {len(y)}")
    if len(x) < 2:
        raise LengthMismatchError("need at least two observations")
    if not all(map(math.isfinite, x)) or not all(map(math.isfinite, y)):
        raise NonFiniteValueError("correlation input holds NaN or an infinity")
    return len(x)


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Product-moment correlation:
    sum((x-mx)(y-my)) / sqrt(sum((x-mx)^2) * sum((y-my)^2)).
    """
    n = _check_vectors(x, y)
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    sxy = math.fsum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    sxx = math.fsum((a - mean_x) ** 2 for a in x)
    syy = math.fsum((b - mean_y) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVarianceError("correlation is undefined for a constant vector")
    # two roots: the product sxx * syy can underflow to zero or overflow
    coefficient = sxy / (math.sqrt(sxx) * math.sqrt(syy))
    coefficient = max(-1.0, min(1.0, coefficient))
    return CorrelationResult(coefficient=coefficient, n=n)


def _average_ranks(values: Sequence[float]) -> list[float]:
    """Ranks starting at 1, ties sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def _two_tailed_p(coefficient: float, n: int) -> float:
    # lazy: loading scipy dominates CLI start-up and only this p-value needs it
    from scipy.stats import t as student_t

    if n <= 2:
        return 1.0
    denom = 1.0 - coefficient * coefficient
    if denom <= 0.0:
        return 0.0
    t_stat = coefficient * math.sqrt((n - 2) / denom)
    return float(2.0 * student_t.sf(abs(t_stat), n - 2))


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Rank correlation with average ranks for ties.

    Without ties the closed form 1 - 6*sum(d^2) / (n(n^2-1)) applies;
    with ties the product-moment formula runs on the ranks. The
    two-tailed significance comes from t = r*sqrt((n-2)/(1-r^2)) against
    a Student-t distribution with n-2 degrees of freedom.
    """
    n = _check_vectors(x, y)
    if len(set(x)) == 1 or len(set(y)) == 1:
        raise ZeroVarianceError("all ranks tied in one vector")
    ranks_x = _average_ranks(x)
    ranks_y = _average_ranks(y)
    if len(set(x)) == n and len(set(y)) == n:
        d2 = math.fsum((a - b) ** 2 for a, b in zip(ranks_x, ranks_y))
        coefficient = 1.0 - 6.0 * d2 / (n * (n * n - 1))
        coefficient = max(-1.0, min(1.0, coefficient))
    else:
        coefficient = pearson(ranks_x, ranks_y).coefficient
    return CorrelationResult(
        coefficient=coefficient, n=n, two_tailed_p=_two_tailed_p(coefficient, n)
    )


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-tabulation of two categorical variables."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.counts) < 2 or any(len(row) < 2 for row in self.counts):
            raise ValueError("need at least a 2x2 table")
        width = len(self.counts[0])
        if any(len(row) != width for row in self.counts):
            raise ValueError("ragged contingency table")
        if any(c < 0 for row in self.counts for c in row):
            raise ValueError("negative cell count")

    @property
    def n(self) -> int:
        return sum(c for row in self.counts for c in row)

    @classmethod
    def from_categories(
        cls, a: Sequence[int], b: Sequence[int], size: int
    ) -> "ContingencyTable":
        counts = [[0] * size for _ in range(size)]
        for i, j in zip(a, b):
            counts[i][j] += 1
        return cls(counts=tuple(tuple(row) for row in counts))


def goodman_kruskal_lambda(table: ContingencyTable) -> tuple[float, float]:
    """Asymmetric lambda(C|R): proportional error reduction in predicting the
    column category once the row category is known, with its asymptotic
    variance.

    lambda = (sum of row maxima - max column marginal) / (n - max column
    marginal). The variance term restricts the row-maxima sum to rows
    whose best column is the overall best column; argmax ties resolve to
    the lowest index.
    """
    counts = table.counts
    n = table.n
    col_totals = [sum(row[j] for row in counts) for j in range(len(counts[0]))]
    r = max(col_totals)
    best_col = col_totals.index(r)
    if n == r:
        raise DegenerateTableError("no column variation, lambda undefined")
    row_maxima = [max(row) for row in counts]
    row_best_cols = [row.index(m) for row, m in zip(counts, row_maxima)]
    sum_maxima = sum(row_maxima)
    lam = (sum_maxima - r) / (n - r)
    agreeing = sum(
        m for m, j in zip(row_maxima, row_best_cols) if j == best_col
    )
    variance = (
        (n - sum_maxima) * (sum_maxima + r - 2 * agreeing) / (n - r) ** 3
    )
    return lam, max(0.0, variance)


def discretize(values: Sequence[float], bin_count: int) -> list[int]:
    """Equal-frequency bin labels 0..bin_count-1, ties going to the lower bin.

    Every occurrence of a value gets the bin of its first position in
    sorted order.
    """
    if bin_count < 2:
        raise ValueError(f"bin_count must be >= 2, got {bin_count}")
    if len(set(values)) < bin_count:
        raise InsufficientDistinctValuesError(
            f"{len(set(values))} distinct values for {bin_count} bins"
        )
    n = len(values)
    first_rank: dict[float, int] = {}
    for idx, v in enumerate(sorted(values)):
        if v not in first_rank:
            first_rank[v] = idx
    return [first_rank[v] * bin_count // n for v in values]


def correlation_matrix(
    table: ScoreTable, kind: str = "pearson"
) -> list[list[CorrelationResult]]:
    """Pairwise coefficients for all metric pairs, lower triangular.

    Row i holds entries for columns 0..i; the diagonal is 1 by
    definition.
    """
    if kind == "pearson":
        correlate = pearson
    elif kind == "spearman":
        correlate = spearman
    else:
        raise ValueError(f"unknown correlation kind {kind!r}")
    columns = [table.column_at(j) for j in range(len(table.metric_names))]
    matrix: list[list[CorrelationResult]] = []
    for i in range(len(columns)):
        row = [correlate(columns[i], columns[j]) for j in range(i)]
        row.append(CorrelationResult(coefficient=1.0, n=len(table.rows)))
        matrix.append(row)
    return matrix

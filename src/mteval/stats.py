"""Correlation statistics over metric score tables.

Score-table files and their one reader, which also merges them;
product-moment correlation, rank correlation with tie handling and its
two-tailed Student-t significance (Lentz's continued fraction for the
incomplete beta, Numerical Recipes 6.4), and the asymmetric
Goodman-Kruskal lambda of two category sequences such as discretized
scores, counted from the observed category pairs, never a bins x bins
table.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .corpus import PER_SENTENCE_MARKER, content_lines, read_lines
from .errors import (
    DegenerateTableError,
    InsufficientDistinctValuesError,
    LengthMismatchError,
    NonFiniteValueError,
    TableFormatError,
    ZeroVarianceError,
    prefixed,
)
from .records import checked


class CorrelationResult(NamedTuple):
    coefficient: float
    n: int
    two_tailed_p: float | None = None


@checked
class ScoreTable(NamedTuple):
    """Runs-by-metrics score matrix feeding the correlation analysis."""

    metric_names: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def _check(self) -> None:
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


def _scored_with(lines: list[str]) -> dict[str, str] | None:
    """The scoring options in the two echo lines that ``score`` writes atop
    a table, or None for a table without them: ``ref_count`` from the
    first, and every field after the second's last `` max_ngram=``, which
    follows the hyp, refs and lexicon paths, so these split on spaces."""
    first, second = (lines[:2] + ["", ""])[:2]
    _, found, options = second.rpartition(" max_ngram=")
    if not (first.startswith("# pairs=") and second.startswith("# metrics=") and found):
        return None
    counts = dict(field.partition("=")[::2] for field in first[2:].split())
    fields = (field.partition("=")[::2] for field in ("max_ngram=" + options).split())
    return {"ref_count": counts.get("ref_count"), **dict(fields)}


def _read_table(path: str | Path) -> tuple[list[str], dict | None, list[tuple]]:
    """Header names, scoring options (``_scored_with``) and rows of a table."""
    # Every U+FEFF dropped, as ``content_lines`` drops it, so a marker or
    # echo line that starts with one is still read as one.
    lines = [line.replace("\ufeff", "") for line in read_lines(path)]
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == PER_SENTENCE_MARKER:
            raise TableFormatError(
                f"{path}:{lineno}: {PER_SENTENCE_MARKER!r} marks score"
                " --per-sentence output, not a score table"
            )
    content = content_lines(lines)
    if len(content) < 2:
        raise TableFormatError(f"{path}: need a header row and at least one data row")
    header = content[0][1].split()
    duplicates = sorted({name for name in header if header.count(name) > 1})
    if duplicates:
        raise TableFormatError(
            f"{path}: metric name {duplicates[0]!r} appears more than once in the header"
        )
    rows = []
    for lineno, line in content[1:]:
        where, cells = f"{path}:{lineno}", line.split()
        if len(cells) != len(header):
            raise TableFormatError(
                f"{where}: row has {len(cells)} cells, header has {len(header)}"
            )
        row = []
        for cell in cells:
            try:
                row.append(float(cell))
            except ValueError:
                raise TableFormatError(f"{where}: non-numeric cell {cell!r}") from None
            if not math.isfinite(row[-1]):
                raise TableFormatError(f"{where}: non-finite cell {cell!r}")
        rows.append(tuple(row))
    return header, _scored_with(lines), rows


def read_score_table(path: str | Path, *more_paths: str | Path) -> ScoreTable:
    """The rows of one or more score table files, in order, as one table.

    Lines end as in corpus files (``corpus.read_lines``); every U+FEFF is
    dropped, then comments are skipped. :class:`TableFormatError`
    names the file of a header naming a metric twice, the file line of a
    bad row or of the marker line of ``score --per-sentence`` output, and
    a table that differs from the first in its header, in a scoring
    option that ``score`` echoes, or in having echo lines at all.
    """
    header, options, rows = _read_table(path)
    for other in more_paths:
        other_header, other_options, other_rows = _read_table(other)
        if other_header != header:
            raise TableFormatError(f"{other}: columns {other_header} do not match {header}")
        if other_options != options:
            if options is None or other_options is None:
                differs = f"has {'no ' if other_options is None else ''}echo lines"
            else:
                both = {**options, **other_options}
                key = next(k for k in both if options.get(k) != other_options.get(k))
                differs = f"scored with {key}={other_options.get(key)}"
            raise TableFormatError(f"{other}: {differs}, unlike {path}")
        rows += other_rows
    return ScoreTable(metric_names=tuple(header), rows=tuple(rows))


def _check_vectors(x: Sequence[float], y: Sequence[float]) -> int:
    if len(x) != len(y):
        raise LengthMismatchError(f"vectors of length {len(x)} and {len(y)}")
    if len(x) < 2:
        raise LengthMismatchError("need at least two observations")
    if not all(map(math.isfinite, x)) or not all(map(math.isfinite, y)):
        raise NonFiniteValueError("correlation input holds NaN or an infinity")
    return len(x)


def _scaled(values: Sequence[float]) -> Sequence[float]:
    """``values`` if their squares stay normal floats, else ``values`` times
    the power of two that puts the largest magnitude in [0.5, 1)."""
    _, exponent = math.frexp(max(map(abs, values)))
    if abs(exponent) <= 256:
        return values
    return [math.ldexp(v, -exponent) for v in values]


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Product-moment correlation:
    sum((x-mx)(y-my)) / sqrt(sum((x-mx)^2) * sum((y-my)^2)), where a
    vector whose squares would overflow or underflow is scaled first.
    """
    n = _check_vectors(x, y)
    x, y = _scaled(x), _scaled(y)
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    sxy = math.fsum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    sxx = math.fsum((a - mean_x) * (a - mean_x) for a in x)
    syy = math.fsum((b - mean_y) * (b - mean_y) for b in y)
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


def _log_gamma_ratio(z: float, h: float) -> float:
    """lgamma(z + h) - lgamma(z); for large z through Stirling's series
    (Abramowitz & Stegun 6.1.41), as the two lgamma values would cancel."""
    if z < 50.0:
        return math.lgamma(z + h) - math.lgamma(z)
    w, v = 1.0 / (z + h), 1.0 / z
    series = (w - v) / 12.0 - (w**3 - v**3) / 360.0 + (w**5 - v**5) / 1260.0
    return (z - 0.5) * math.log1p(h / z) + h * math.log(z + h) - h + series


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), given x and y = 1 - x.

    The continued fraction of Abramowitz & Stegun 26.5.8, evaluated by
    Lentz's method with a zero denominator replaced by a tiny one (Press
    et al., Numerical Recipes, 6.4). It converges fast for x below
    (a+1)/(a+b+2); above that, I_x(a, b) = 1 - I_y(b, a). Each logarithm
    is taken of whichever of x and y keeps its digits.
    """
    if x == 0.0 or y == 0.0:
        return 0.0 if x == 0.0 else 1.0
    swap = x >= (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, y = b, a, y, x
    f, c, d = 1.0, 1.0, 0.0
    # measured: at most 108 terms for nu up to 1e8, either side; a 2.7x margin
    for j in range(1, 300):
        m = j // 2
        if j % 2:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / ((1.0 + term * d) or 1e-300)
        c = (1.0 + term / c) or 1e-300
        f *= c * d
        if abs(c * d - 1.0) < 3e-16:
            break
    else:
        raise ArithmeticError(f"incomplete beta did not converge at a={a}, x={x}")
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    log_front = _log_gamma_ratio(max(a, b), min(a, b)) - math.lgamma(min(a, b))
    result = math.exp(log_front + a * log_x + b * log_y) / (a * f)
    return 1.0 - result if swap else result


def _two_tailed_p(coefficient: float, n: int) -> float:
    """P(|T| >= |t|) for t = r*sqrt(nu/(1-r^2)) under Student's t, nu = n-2.

    That is I_x(nu/2, 1/2) at x = nu/(nu + t^2) (Abramowitz & Stegun 26.7.1)
    by Lentz's method; x and 1 - x = t^2/(nu + t^2) are formed separately.
    """
    if n <= 2:
        return 1.0
    denom = 1.0 - coefficient * coefficient
    if denom <= 0.0:
        return 0.0
    nu = n - 2
    t2 = coefficient * coefficient * nu / denom
    return _incomplete_beta(nu / 2.0, 0.5, nu / (nu + t2), t2 / (nu + t2))


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Rank correlation with average ranks for ties.

    Without ties the closed form 1 - 6*sum(d^2) / (n(n^2-1)) applies;
    with ties the product-moment formula runs on the ranks. The
    two-tailed significance comes from t = r*sqrt((n-2)/(1-r^2)) against
    a Student-t distribution with n-2 degrees of freedom.
    """
    n = _check_vectors(x, y)
    ranks_x = _average_ranks(x)
    ranks_y = _average_ranks(y)
    if len(set(x)) == n and len(set(y)) == n:
        d2 = math.fsum((a - b) * (a - b) for a, b in zip(ranks_x, ranks_y))
        coefficient = 1.0 - 6.0 * d2 / (n * (n * n - 1))
        coefficient = max(-1.0, min(1.0, coefficient))
    else:
        coefficient = pearson(ranks_x, ranks_y).coefficient
    return CorrelationResult(
        coefficient=coefficient, n=n, two_tailed_p=_two_tailed_p(coefficient, n)
    )


def goodman_kruskal_lambda(
    rows: Sequence[int], cols: Sequence[int]
) -> tuple[float, float]:
    """Asymmetric lambda(C|R) of the paired categories ``rows[k]``, ``cols[k]``
    (such as two ``discretize`` outputs): proportional error reduction in
    predicting the column category once the row category is known, with
    its asymptotic variance.

    lambda = (sum of row maxima - max column marginal) / (n - max column
    marginal) over the table of observed pairs. The variance term
    restricts the row-maxima sum to rows whose best column is the overall
    best column; argmax ties resolve to the lowest category.
    """
    if len(rows) != len(cols):
        raise LengthMismatchError(f"categories of length {len(rows)} and {len(cols)}")
    lam, variance = _lambda(Counter(zip(rows, cols)))
    if lam is None:
        raise DegenerateTableError("no column variation, lambda undefined")
    return lam, variance


def _lambda(cells: Mapping[tuple[int, int], int]) -> tuple[float | None, float | None]:
    """``goodman_kruskal_lambda`` of the table whose nonzero cells are
    ``{(row, col): count}``, or ``(None, None)`` when one column holds
    every count; it reads only the cells, never a whole row or column."""
    col_totals: Counter[int] = Counter()
    row_best: dict[int, tuple[int, int]] = {}  # row -> (-its maximum, lowest argmax)
    for (i, j), count in cells.items():
        col_totals[j] += count
        row_best[i] = min(row_best.get(i, (-count, j)), (-count, j))
    n, r = sum(col_totals.values()), max(col_totals.values(), default=0)
    if n == r:
        return None, None
    best_col = min(j for j, total in col_totals.items() if total == r)
    sum_maxima = -sum(m for m, _ in row_best.values())
    agreeing = -sum(m for m, j in row_best.values() if j == best_col)
    variance = (n - sum_maxima) * (sum_maxima + r - 2 * agreeing) / (n - r) ** 3
    return (sum_maxima - r) / (n - r), max(0.0, variance)


def discretize(values: Sequence[float], bin_count: int) -> list[int]:
    """Equal-frequency bin labels 0..bin_count-1, ties going to the lower bin.

    Every occurrence of a value gets the bin of its first position in
    sorted order. NaN and infinities raise :class:`NonFiniteValueError`,
    as they do for the correlations.
    """
    if bin_count < 2:
        raise ValueError(f"bin_count must be >= 2, got {bin_count}")
    if not all(map(math.isfinite, values)):
        raise NonFiniteValueError("discretize input holds NaN or an infinity")
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
    definition. An error of a coefficient names its two metrics.
    """
    if kind == "pearson":
        correlate = pearson
    elif kind == "spearman":
        correlate = spearman
    else:
        raise ValueError(f"unknown correlation kind {kind!r}")
    names = table.metric_names
    columns = [table.column_at(j) for j in range(len(names))]
    matrix: list[list[CorrelationResult]] = []
    for i in range(len(columns)):
        row = []
        for j in range(i):
            with prefixed(f"metrics {names[j]!r} and {names[i]!r}"):
                row.append(correlate(columns[i], columns[j]))
        row.append(CorrelationResult(coefficient=1.0, n=len(table.rows)))
        matrix.append(row)
    return matrix


def lambda_matrices(
    table: ScoreTable, bins: int
) -> tuple[list[list[float | None]], list[list[float | None]]]:
    """lambda(column metric | row metric) and its variance for every ordered
    pair, on each column discretized into ``bins``; None where undefined.
    An error names its metric."""
    categories = []
    for j, name in enumerate(table.metric_names):
        with prefixed(f"metric {name!r}"):
            categories.append(discretize(table.column_at(j), bins))
    cells = [[_lambda(Counter(zip(r, c))) for c in categories] for r in categories]
    values = [[lam for lam, _ in row] for row in cells]
    return values, [[var for _, var in row] for row in cells]

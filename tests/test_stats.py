import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mteval import (
    ScoreTable,
    correlation_matrix,
    discretize,
    goodman_kruskal_lambda,
    pearson,
    read_score_table,
    spearman,
)
from mteval.errors import (
    DegenerateTableError,
    InsufficientDistinctValuesError,
    LengthMismatchError,
    NonFiniteValueError,
    TableFormatError,
    ZeroVarianceError,
)
from mteval import stats
from mteval.cli import main
from mteval.stats import _two_tailed_p, lambda_matrices
from helpers import import_scipy_stats, oracle_goodman_kruskal_lambda

FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
VECTORS = st.lists(FLOATS, min_size=3, max_size=30)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]).coefficient == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]).coefficient == pytest.approx(-1.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(LengthMismatchError):
            pearson([1], [2])

    def test_constant_vector(self):
        with pytest.raises(ZeroVarianceError):
            pearson([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(NonFiniteValueError):
            pearson([1.0, bad, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(NonFiniteValueError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0, bad])

    def test_self_correlation_is_one(self):
        x = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert pearson(x, x).coefficient == pytest.approx(1.0, abs=1e-12)

    def test_affine_transform_gives_sign(self):
        x = [3.0, 1.0, 4.0, 1.5, 9.0]
        y_pos = [2.5 * v + 7 for v in x]
        y_neg = [-0.5 * v + 1 for v in x]
        assert pearson(x, y_pos).coefficient == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, y_neg).coefficient == pytest.approx(-1.0, abs=1e-12)

    def test_matches_library_oracle(self):
        scipy_stats = import_scipy_stats()
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(3, 25)
            x = [rng.uniform(-10, 10) for _ in range(n)]
            y = [rng.uniform(-10, 10) for _ in range(n)]
            expected = scipy_stats.pearsonr(x, y).statistic
            assert pearson(x, y).coefficient == pytest.approx(expected, abs=1e-10)

    def test_squares_are_correctly_rounded(self):
        # A C library ``pow`` need not round correctly: on some hosts the
        # deviation 30.93333333333333 of y squares to 956.871111111111
        # through ``** 2`` but to the correctly rounded 956.8711111111108
        # through ``d * d``, which moves this coefficient by one ulp.
        x, y = [81.41, 32.37, 33.59], [85.6, 42.49, 35.91]
        assert pearson(x, y).coefficient == 0.9896481766377726

    def test_tiny_variances_do_not_underflow(self):
        x = [0.0, 0.0, 3.3534962271440695e-103]
        assert pearson(x, x).coefficient == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "scale",
        [2.0**-1070, 2.0**-600, 2.0**600, 2.0**1020],
        ids=["2**-1070", "2**-600", "2**600", "2**1020"],
    )
    def test_values_near_the_float_limits_give_the_scale_free_coefficient(self, scale):
        # Their squares would underflow to zero or overflow.
        x, y = [1.0, 2.0, 0.0, 1.5], [3.0, -1.0, 2.0, 2.5]
        expected = pearson(x, y).coefficient
        scaled = [v * scale for v in x]
        assert pearson(scaled, y).coefficient == pytest.approx(expected, abs=1e-15)
        assert pearson(y, scaled).coefficient == pytest.approx(expected, abs=1e-15)

    @given(VECTORS, VECTORS)
    def test_bounded(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        try:
            coefficient = pearson(x, y).coefficient
        except ZeroVarianceError:
            # constant input, or variance underflowed to zero
            return
        assert abs(coefficient) <= 1.0


class TestSpearman:
    def test_monotone_function_is_one(self):
        assert spearman([1, 2, 3], [1, 8, 27]).coefficient == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(NonFiniteValueError):
            spearman([1.0, bad, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(NonFiniteValueError):
            spearman([1.0, 2.0, 3.0, 4.0], [bad, 2.0, 3.0, 4.0])

    def test_reversal_is_minus_one(self):
        assert spearman([1, 2, 3], [30, 20, 10]).coefficient == pytest.approx(-1.0)

    def test_small_disagreement(self):
        # rank differences (1, -1, 1, -1): 1 - 6*4 / (4*15) = 0.6
        assert spearman([1, 2, 3, 4], [2, 1, 4, 3]).coefficient == pytest.approx(0.6)

    def test_monotone_transform_invariance(self):
        rng = random.Random(9)
        x = [rng.uniform(0, 10) for _ in range(15)]
        y = [rng.uniform(0, 10) for _ in range(15)]
        base = spearman(x, y).coefficient
        assert spearman([math.exp(v) for v in x], y).coefficient == pytest.approx(
            base, abs=1e-12
        )
        assert spearman(x, [v**3 for v in y]).coefficient == pytest.approx(
            base, abs=1e-12
        )

    def test_no_ties_closed_form_equals_rank_pearson(self):
        scipy_stats = import_scipy_stats()
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(3, 20)
            x = rng.sample(range(1000), n)
            y = rng.sample(range(1000), n)
            closed = spearman(x, y).coefficient
            ranks_x = scipy_stats.rankdata(x)
            ranks_y = scipy_stats.rankdata(y)
            via_pearson = pearson(list(ranks_x), list(ranks_y)).coefficient
            assert closed == pytest.approx(via_pearson, abs=1e-12)

    def test_ties_use_average_ranks(self):
        scipy_stats = import_scipy_stats()
        x = [1, 1, 2, 3]
        y = [4, 5, 6, 7]
        expected = scipy_stats.spearmanr(x, y).statistic
        assert spearman(x, y).coefficient == pytest.approx(expected, abs=1e-12)

    def test_p_value_matches_library_oracle(self):
        scipy_stats = import_scipy_stats()
        rng = random.Random(33)
        for _ in range(25):
            n = rng.randint(5, 26)
            x = [rng.uniform(0, 100) for _ in range(n)]
            y = [rng.uniform(0, 100) for _ in range(n)]
            got = spearman(x, y)
            oracle = scipy_stats.spearmanr(x, y)
            assert got.coefficient == pytest.approx(oracle.statistic, abs=1e-10)
            assert got.two_tailed_p == pytest.approx(oracle.pvalue, abs=1e-8)

    @pytest.mark.parametrize("nu", [1, 2])
    def test_p_value_matches_closed_forms(self, nu):
        # The Student-t tail has closed forms for nu = 1 and nu = 2. As r
        # approaches 1, p falls far below what an absolute tolerance sees.
        grid = [1e-9, 0.001, 0.1, 0.3, 0.5, 0.7, 0.9]
        grid += [1.0 - 10.0**-k for k in range(1, 16)]
        for r in grid + [-r for r in grid]:
            t = abs(r) * math.sqrt(nu / (1.0 - r * r))
            if nu == 1:
                expected = 2.0 / math.pi * math.atan2(1.0, t)
            else:
                s = math.sqrt(2.0 + t * t)
                expected = 2.0 / (s * (s + t))
            assert _two_tailed_p(r, nu + 2) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_p_value_where_x_falls_on_the_switch(self):
        scipy_stats = import_scipy_stats()
        # r = 0.5 at n = 9 gives x = 3/4 and 1 - x = 1/4 exactly, the
        # switch points of both I_x(7/2, 1/2) and I_{1-x}(1/2, 7/2).
        got = spearman(range(1, 10), [6, 3, 2, 4, 5, 1, 9, 8, 7])
        assert got.coefficient == 0.5
        oracle = 2.0 * scipy_stats.t.sf(math.sqrt(7.0 / 3.0), 7)
        assert got.two_tailed_p == pytest.approx(oracle, rel=1e-12)
        # r^2 = 3/(n+3) puts x on the switch for every n in exact arithmetic
        for n in range(3, 200):
            r = math.sqrt(3.0 / (n + 3))
            t = r * math.sqrt((n - 2) / (1.0 - r * r))
            oracle = 2.0 * scipy_stats.t.sf(t, n - 2)
            assert _two_tailed_p(r, n) == pytest.approx(oracle, rel=1e-11)

    def test_p_value_edge_cases(self):
        assert _two_tailed_p(0.0, 10) == 1.0
        assert _two_tailed_p(0.4, 2) == 1.0
        assert _two_tailed_p(1.0, 10) == _two_tailed_p(-1.0, 10) == 0.0

    def test_perfect_correlation_p_is_zero(self):
        assert spearman([1, 2, 3, 4], [1, 2, 3, 4]).two_tailed_p == 0.0

    def test_all_tied_raises(self):
        # A constant column has ties, so Pearson on its ranks rejects it.
        message = "correlation is undefined for a constant vector"
        with pytest.raises(ZeroVarianceError, match=message):
            spearman([5, 5, 5], [1, 2, 3])
        with pytest.raises(ZeroVarianceError, match=message):
            spearman([1, 2, 3], [5, 5, 5])


@st.composite
def count_tables(draw) -> tuple[tuple[int, ...], ...]:
    """2-8 by 2-8 tables of counts 0-5: dense, mostly zero (zero rows and
    columns), of two values (tied row maxima and column totals), or with
    every count in one column (degenerate)."""
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["dense", "sparse", "tied", "one column"]))
    cell = {
        "sparse": st.sampled_from([0, 0, 0, 0, 1, 5]),
        "tied": st.sampled_from([0, 2]),
    }.get(kind, st.integers(0, 5))
    counts = [[draw(cell) for _ in range(cols)] for _ in range(rows)]
    if kind == "one column":
        keep = draw(st.integers(0, cols - 1))
        counts = [[c if j == keep else 0 for j, c in enumerate(row)] for row in counts]
    return tuple(map(tuple, counts))


def category_pairs(counts) -> tuple[list[int], list[int]]:
    """The row and column categories of one observation per counted unit
    of the dense table ``counts[row][col]``."""
    cells = [
        (i, j) for i, row in enumerate(counts) for j, c in enumerate(row) for _ in range(c)
    ]
    return [i for i, _ in cells], [j for _, j in cells]


def lambda_of_table(counts):
    return goodman_kruskal_lambda(*category_pairs(counts))


def dense_counts(rows, cols, size):
    """The ``size`` x ``size`` table of the category pairs."""
    counts = [[0] * size for _ in range(size)]
    for i, j in zip(rows, cols):
        counts[i][j] += 1
    return counts


def oracle_lambda_or_none(counts):
    try:
        return oracle_goodman_kruskal_lambda(counts)
    except DegenerateTableError:
        return None, None


class TestGoodmanKruskalLambda:
    def test_perfect_prediction(self):
        lam, var = lambda_of_table(((5, 0), (0, 5)))
        assert lam == 1.0
        assert var == 0.0

    def test_independence(self):
        lam, _ = lambda_of_table(((2, 2), (2, 2)))
        assert lam == 0.0

    def test_partial_association(self):
        lam, _ = lambda_of_table(((3, 1), (1, 2)))
        assert lam == pytest.approx(1 / 3)

    def test_single_nonzero_row_scores_zero(self):
        lam, _ = lambda_of_table(((3, 2), (0, 0)))
        assert lam == 0.0

    def test_single_nonzero_column_is_degenerate(self):
        with pytest.raises(DegenerateTableError):
            lambda_of_table(((3, 0), (2, 0)))

    def test_in_unit_interval_on_random_tables(self):
        rng = random.Random(17)
        for _ in range(100):
            rows = rng.randint(2, 5)
            cols = rng.randint(2, 5)
            counts = tuple(
                tuple(rng.randint(0, 9) for _ in range(cols)) for _ in range(rows)
            )
            n = sum(map(sum, counts))
            col_totals = [sum(row[j] for row in counts) for j in range(cols)]
            if n == 0 or n == max(col_totals):
                continue
            lam, var = lambda_of_table(counts)
            assert 0.0 <= lam <= 1.0
            assert var >= 0.0

    @pytest.mark.parametrize("rows, cols", [([0, 1], [1]), ([0], [0, 1]), ([], [0])])
    def test_category_sequences_of_unequal_length_rejected(self, rows, cols):
        # zip would drop the unpaired categories and score the rest.
        with pytest.raises(LengthMismatchError, match="categories of length"):
            goodman_kruskal_lambda(rows, cols)

    def test_no_observations_is_degenerate(self):
        with pytest.raises(DegenerateTableError):
            goodman_kruskal_lambda([], [])

    @settings(deadline=None, max_examples=500)
    @given(table=count_tables(), seed=st.randoms(use_true_random=False))
    def test_equals_the_dense_oracle(self, table, seed):
        # Any order of the observations gives the same table.
        rows, cols = category_pairs(table)
        order = list(range(len(rows)))
        seed.shuffle(order)
        rows, cols = [rows[k] for k in order], [cols[k] for k in order]
        expected = oracle_lambda_or_none(table)
        if expected == (None, None):
            with pytest.raises(DegenerateTableError):
                goodman_kruskal_lambda(rows, cols)
        else:
            assert goodman_kruskal_lambda(rows, cols) == expected

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_lambda_matrices_equal_the_dense_oracle(self, data):
        # Few distinct scores: the discretized tables have empty bins and ties.
        n = data.draw(st.integers(2, 30))
        column = st.lists(st.integers(0, 7), min_size=n, max_size=n)
        columns = data.draw(
            st.lists(column.filter(lambda c: len(set(c)) >= 2), min_size=1, max_size=4)
        )
        bins = data.draw(st.integers(2, min(len(set(c)) for c in columns)))
        table = ScoreTable(
            metric_names=tuple(f"m{j}" for j in range(len(columns))),
            rows=tuple(tuple(map(float, row)) for row in zip(*columns)),
        )
        categories = [discretize(c, bins) for c in columns]
        expected = [
            [
                oracle_lambda_or_none(dense_counts(r, c, bins))
                for c in categories
            ]
            for r in categories
        ]
        values, variances = lambda_matrices(table, bins)
        assert values == [[lam for lam, _ in row] for row in expected]
        assert variances == [[var for _, var in row] for row in expected]

    def test_lambda_matrices_and_correlate_build_no_table(
        self, monkeypatch, capsys, pl_en_table_path
    ):
        # The lambda reads the observed category pairs, never a bins x bins
        # table: each core call gets at most one cell per row, where a dense
        # 4 x 4 table of these 12 rows would hold 16.
        table = read_score_table(pl_en_table_path)
        seen = []
        core = stats._lambda

        def counted(cells):
            seen.append(len(cells))
            return core(cells)

        monkeypatch.setattr(stats, "_lambda", counted)
        values, _ = lambda_matrices(table, 4)
        assert values[0][1] is not None
        argv = ["correlate", "--table", str(pl_en_table_path), "--lambda", "--bins", "4"]
        assert main(argv) == 0
        assert "# lambda bins=4" in capsys.readouterr().out
        goodman_kruskal_lambda(*(discretize(table.column_at(j), 4) for j in (0, 1)))
        width = len(table.metric_names)
        assert len(seen) == 2 * width * width + 1
        assert 0 < max(seen) <= len(table.rows)


class TestDiscretize:
    def test_median_split(self):
        assert discretize([1, 2, 3, 4], 2) == [0, 0, 1, 1]

    def test_ties_fall_to_the_lower_bin(self):
        assert discretize([5, 5, 5, 9], 2) == [0, 0, 0, 1]

    def test_one_value_per_bin(self):
        assert discretize([3, 1, 2], 3) == [2, 0, 1]

    def test_insufficient_distinct_values(self):
        with pytest.raises(InsufficientDistinctValuesError):
            discretize([1, 1, 1], 2)

    def test_bin_count_below_two(self):
        with pytest.raises(ValueError):
            discretize([1, 2, 3], 1)

    def test_labels_in_range(self):
        rng = random.Random(2)
        values = [rng.uniform(0, 1) for _ in range(40)]
        labels = discretize(values, 10)
        assert all(0 <= lab < 10 for lab in labels)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1, 3])
    def test_non_finite_value_rejected_wherever_it_sits(self, bad, where):
        # NaN compares unequal to everything, so sorting around it puts
        # 3.0 below 1.0 in some positions and not in others.
        values = [3.0, 1.0, 2.0]
        values.insert(where, bad)
        with pytest.raises(NonFiniteValueError):
            discretize(values, 2)

    def test_lambda_matrices_reject_a_nan_as_correlation_does(self):
        table = ScoreTable(
            metric_names=("a", "b"),
            rows=((3.0, 1.0), (math.nan, 2.0), (1.0, 3.0), (2.0, 4.0)),
        )
        with pytest.raises(NonFiniteValueError, match="metric 'a'"):
            lambda_matrices(table, 2)
        with pytest.raises(NonFiniteValueError, match="metrics 'a' and 'b'"):
            correlation_matrix(table)


class TestCorrelationMatrix:
    def test_fixture_entries(self, pl_en_table_path):
        table = read_score_table(pl_en_table_path)
        matrix = correlation_matrix(table, "pearson")
        names = table.metric_names
        nist_row = names.index("NIST")
        ter_row = names.index("TER")
        ebleu_col = names.index("EBLEU")
        assert matrix[nist_row][ebleu_col].coefficient == pytest.approx(
            0.9675, abs=0.005
        )
        assert matrix[ter_row][ebleu_col].coefficient == pytest.approx(
            -0.9746, abs=0.005
        )

    def test_diagonal_is_one(self, pl_en_table_path):
        table = read_score_table(pl_en_table_path)
        for i, row in enumerate(correlation_matrix(table, "pearson")):
            assert len(row) == i + 1
            assert row[i].coefficient == 1.0

    def test_duplicated_column_correlates_perfectly(self):
        table = ScoreTable(
            metric_names=("m1", "m2"),
            rows=((1.0, 1.0), (2.0, 2.0), (5.0, 5.0)),
        )
        matrix = correlation_matrix(table, "pearson")
        assert matrix[1][0].coefficient == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind_rejected(self):
        table = ScoreTable(metric_names=("a", "b"), rows=((1.0, 2.0), (3.0, 4.0)))
        with pytest.raises(ValueError):
            correlation_matrix(table, "kendall")

    def test_ragged_table_rejected(self):
        with pytest.raises(ValueError):
            ScoreTable(metric_names=("a", "b"), rows=((1.0,),))


# Score-table files drawn from their structure: header names (one may be
# duplicated), rows of finite numbers or of bad cells, ragged or not,
# interleaved comment and blank lines, mixed separators and line ends, and
# an optional byte order mark.
NAME = st.text(alphabet="abXY_1é", min_size=1, max_size=4)
GOOD_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: (repr(v), v)),
    st.integers(-999, 999).map(lambda v: (str(v), float(v))),
)
BAD_CELL = st.sampled_from(
    ["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "x", "1.2.3", "--", "0x10"]
).map(lambda cell: (cell, None))
FILLER = st.sampled_from(["", "   ", "\t", "#", "# comment", "  # 1 2 3"])


@st.composite
def table_files(draw) -> tuple[str, ScoreTable | None]:
    """File text and the table it holds, or None where it holds no valid table."""
    names = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    valid = True
    if draw(st.booleans()) and draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
        valid = False
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        defect = draw(st.sampled_from(["none", "none", "none", "ragged", "bad cell"]))
        width = len(names)
        if defect == "ragged":
            width = draw(st.sampled_from([width + 1, max(1, width - 1)]))
        cells = draw(st.lists(GOOD_CELL, min_size=width, max_size=width))
        if defect == "bad cell":
            cells[draw(st.integers(0, width - 1))] = draw(BAD_CELL)
        valid &= width == len(names) and all(v is not None for _, v in cells)
        rows.append(cells)
    valid &= bool(rows)
    lines = [names] + [[text for text, _ in row] for row in rows]
    lines = [
        draw(st.sampled_from(["", " ", "\t"]))
        + draw(st.sampled_from(["\t", " ", "  ", " \t "])).join(line)
        for line in lines
    ]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(FILLER))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = "\ufeff" + text
    table = ScoreTable(
        metric_names=tuple(names),
        rows=tuple(tuple(v for _, v in row) for row in rows),
    ) if valid else None
    return text, table


class TestScoreTableReader:
    @settings(
        deadline=None,
        max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=table_files())
    def test_drawn_tables_read_back_or_raise_table_format_error(self, tmp_path, drawn):
        text, expected = drawn
        path = tmp_path / "table.tsv"
        path.write_bytes(text.encode("utf-8"))
        if expected is None:
            with pytest.raises(TableFormatError):
                read_score_table(path)
        else:
            assert read_score_table(path) == expected

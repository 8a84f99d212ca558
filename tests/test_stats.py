import math
import random

import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from mteval import (
    ContingencyTable,
    ScoreTable,
    correlation_matrix,
    discretize,
    goodman_kruskal_lambda,
    pearson,
    spearman,
)
from mteval.cli import read_score_table
from mteval.errors import (
    DegenerateTableError,
    InsufficientDistinctValuesError,
    LengthMismatchError,
    NonFiniteValueError,
    ZeroVarianceError,
)

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
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(3, 25)
            x = [rng.uniform(-10, 10) for _ in range(n)]
            y = [rng.uniform(-10, 10) for _ in range(n)]
            expected = scipy.stats.pearsonr(x, y).statistic
            assert pearson(x, y).coefficient == pytest.approx(expected, abs=1e-10)

    def test_tiny_variances_do_not_underflow(self):
        x = [0.0, 0.0, 3.3534962271440695e-103]
        assert pearson(x, x).coefficient == pytest.approx(1.0)

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
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(3, 20)
            x = rng.sample(range(1000), n)
            y = rng.sample(range(1000), n)
            closed = spearman(x, y).coefficient
            ranks_x = scipy.stats.rankdata(x)
            ranks_y = scipy.stats.rankdata(y)
            via_pearson = pearson(list(ranks_x), list(ranks_y)).coefficient
            assert closed == pytest.approx(via_pearson, abs=1e-12)

    def test_ties_use_average_ranks(self):
        x = [1, 1, 2, 3]
        y = [4, 5, 6, 7]
        expected = scipy.stats.spearmanr(x, y).statistic
        assert spearman(x, y).coefficient == pytest.approx(expected, abs=1e-12)

    def test_p_value_matches_library_oracle(self):
        rng = random.Random(33)
        for _ in range(25):
            n = rng.randint(5, 26)
            x = [rng.uniform(0, 100) for _ in range(n)]
            y = [rng.uniform(0, 100) for _ in range(n)]
            got = spearman(x, y)
            oracle = scipy.stats.spearmanr(x, y)
            assert got.coefficient == pytest.approx(oracle.statistic, abs=1e-10)
            assert got.two_tailed_p == pytest.approx(oracle.pvalue, abs=1e-8)

    def test_perfect_correlation_p_is_zero(self):
        assert spearman([1, 2, 3, 4], [1, 2, 3, 4]).two_tailed_p == 0.0

    def test_all_tied_raises(self):
        with pytest.raises(ZeroVarianceError):
            spearman([5, 5, 5], [1, 2, 3])


class TestGoodmanKruskalLambda:
    def test_perfect_prediction(self):
        lam, var = goodman_kruskal_lambda(ContingencyTable(counts=((5, 0), (0, 5))))
        assert lam == 1.0
        assert var == 0.0

    def test_independence(self):
        lam, _ = goodman_kruskal_lambda(ContingencyTable(counts=((2, 2), (2, 2))))
        assert lam == 0.0

    def test_partial_association(self):
        lam, _ = goodman_kruskal_lambda(ContingencyTable(counts=((3, 1), (1, 2))))
        assert lam == pytest.approx(1 / 3)

    def test_single_nonzero_row_scores_zero(self):
        lam, _ = goodman_kruskal_lambda(ContingencyTable(counts=((3, 2), (0, 0))))
        assert lam == 0.0

    def test_single_nonzero_column_is_degenerate(self):
        with pytest.raises(DegenerateTableError):
            goodman_kruskal_lambda(ContingencyTable(counts=((3, 0), (2, 0))))

    def test_in_unit_interval_on_random_tables(self):
        rng = random.Random(17)
        for _ in range(100):
            rows = rng.randint(2, 5)
            cols = rng.randint(2, 5)
            counts = tuple(
                tuple(rng.randint(0, 9) for _ in range(cols)) for _ in range(rows)
            )
            table = ContingencyTable(counts=counts)
            col_totals = [sum(row[j] for row in counts) for j in range(cols)]
            if table.n == 0 or table.n == max(col_totals):
                continue
            lam, var = goodman_kruskal_lambda(table)
            assert 0.0 <= lam <= 1.0
            assert var >= 0.0

    def test_table_validation(self):
        with pytest.raises(ValueError):
            ContingencyTable(counts=((1,),))
        with pytest.raises(ValueError):
            ContingencyTable(counts=((1, 2), (3,)))
        with pytest.raises(ValueError):
            ContingencyTable(counts=((1, -2), (3, 4)))


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

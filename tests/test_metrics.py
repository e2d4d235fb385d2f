"""Metrics rows, CSV round trips, windowing, rate fits, and seed aggregation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avgrl.envs import four_state_easy, tabular_policy
from avgrl.errors import InsufficientData, InvalidSpec, OracleFailure, ParseError
from avgrl.features import make_features
from avgrl.mdp import FiniteMdp
from avgrl.metrics import (
    AGGREGATE_HEADER,
    CSV_HEADER,
    MetricsRow,
    aggregate_runs,
    exact_metrics_row,
    _mean_by_t,
    rate_slope,
    read_metrics_csv,
    read_table,
    rows_to_csv,
    windowed_geomean,
    windowed_value_at,
    write_metrics_csv,
)


def make_row(t, seed=0):
    rng = np.random.default_rng(seed + t)
    vals = rng.uniform(-1, 1, size=7)
    return MetricsRow(t, *[float(v) for v in vals], wall_ns=int(1000 + t))


class TestExactMetricsRow:
    def test_zero_iterate_values(self):
        # theta = 0, v = 0, L = 0 on the ring: the uniform-policy gain is 1/4,
        # the critic error is the squared fixed-point norm 477/169, and the
        # actor field vanishes exactly because rewards are action-independent
        # and the scores average to zero
        mdp = four_state_easy()
        pol = tabular_policy(mdp)
        fmap = make_features("one_hot_reduced", mdp)
        row = exact_metrics_row(mdp, pol, fmap, t=1, theta=np.zeros(8),
                                v=np.zeros(3), L=0.0, delta_abs_mean=0.3, wall_ns=5, memo=[])
        assert row.L_theta == pytest.approx(0.25, abs=1e-12)
        assert row.avg_err_sq == pytest.approx(0.0625, abs=1e-12)
        assert row.critic_err_sq == pytest.approx(477.0 / 169.0, abs=1e-12)
        assert row.M_norm_sq == 0.0
        assert row.v_norm == 0.0
        assert row.delta_abs_mean == 0.3
        assert row.wall_ns == 5

    def test_tracks_current_average(self):
        mdp = four_state_easy()
        pol = tabular_policy(mdp)
        fmap = make_features("one_hot_reduced", mdp)
        row = exact_metrics_row(mdp, pol, fmap, t=1, theta=np.zeros(8),
                                v=np.zeros(3), L=0.25, delta_abs_mean=0.0, wall_ns=0, memo=[])
        assert row.avg_err_sq == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("L", [1e160, np.float64(1e160)])
    def test_non_finite_columns_refused(self, L):
        # rewards of +-1e160 and iterates near 1e160 are finite, but the
        # squared errors and ||v|| overflow; the row used to carry inf into
        # the CSV with RuntimeWarnings.  A Python float's power raises
        # OverflowError where numpy's returns inf: either way a typed error
        mdp = FiniteMdp(np.full((2, 1, 2), 0.5), np.array([[1e160], [-1e160]]),
                        reward_bound=1e160)
        pol, fmap = tabular_policy(mdp), make_features("one_hot_reduced", mdp)
        with pytest.raises(OracleFailure) as err:
            exact_metrics_row(mdp, pol, fmap, t=500, theta=np.zeros(2), v=np.array([-1.5e160]),
                              L=L, delta_abs_mean=1e160, wall_ns=0, memo=[])
        assert str(err.value) == ("the row has non-finite columns: avg_err_sq=inf "
                                  "critic_err_sq=inf v_norm=inf")

    def test_non_finite_delta_mean_refused(self):
        mdp = four_state_easy()
        pol, fmap = tabular_policy(mdp), make_features("one_hot_reduced", mdp)
        with pytest.raises(OracleFailure, match=r"non-finite columns: delta_abs_mean=nan$"):
            exact_metrics_row(mdp, pol, fmap, t=1, theta=np.zeros(8), v=np.zeros(3), L=0.0,
                              delta_abs_mean=math.nan, wall_ns=0, memo=[])


class TestCsvRoundTrip:
    def test_header_frozen(self):
        assert CSV_HEADER == ("t,L_t,L_theta,avg_err_sq,critic_err_sq,"
                              "M_norm_sq,v_norm,delta_abs_mean,wall_ns")

    def test_repr_floats_round_trip(self, tmp_path):
        # awkward values: accumulated rounding, tiny magnitudes, thirds
        rows = [
            MetricsRow(1, 0.1 + 0.2, 1.0 / 3.0, 1e-300, 2.8224852071005957,
                       0.0, 5e-324, -0.0, 17),
            MetricsRow(10, -1.5, 0.7380000000000007, 1.0, 0.5, 0.25, 2.0, 3.0, 42),
        ]
        path = tmp_path / "rows.csv"
        write_metrics_csv(str(path), rows)
        cols = read_metrics_csv(str(path))
        assert cols["t"].tolist() == [1.0, 10.0]
        assert cols["L_t"][0] == 0.1 + 0.2
        assert cols["L_theta"][0] == 1.0 / 3.0
        assert cols["avg_err_sq"][0] == 1e-300
        assert cols["critic_err_sq"][0] == 2.8224852071005957
        assert cols["v_norm"][0] == 5e-324
        assert cols["L_theta"][1] == 0.7380000000000007

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("t,foo\n1,2\n")
        with pytest.raises(ParseError, match="header"):
            read_metrics_csv(str(path))

    def test_read_table_diagnostics(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ParseError, match="empty"):
            read_table(str(empty))

        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match=":3"):
            read_table(str(ragged))

        words = tmp_path / "words.csv"
        words.write_text("a,b\n1,x\n")
        with pytest.raises(ParseError, match="non-numeric"):
            read_table(str(words))

        with pytest.raises(ParseError, match="cannot read"):
            read_table(str(tmp_path / "absent.csv"))

    def test_blank_line_mid_file(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("a,b\n1,2\n\n3,4\n")
        with pytest.raises(ParseError, match=r"blank\.csv:3: expected 2 fields, got 0"):
            read_table(str(path))

    def test_one_column_blank_line(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("t\n1\n\n3\n")
        with pytest.raises(ParseError, match=r"one\.csv:3:"):
            read_table(str(path))

    @pytest.mark.parametrize("text, message", [
        # the field count check runs over every line before any cell is read
        ("a,b\n1,x\n3,4\n5\n", r"f\.csv:4: expected 2 fields, got 1"),
        ("a,b\n1,x\n3,4\n\n5,6\n", r"f\.csv:4: expected 2 fields, got 0"),
        ('a,b\n"1,2"\n', r"f\.csv: non-numeric cell \(could not convert string '1,2'"),
        ("t\nx\n1\n\n", r"f\.csv:4: expected 1 fields, got 0"),
        ("t\n\n", r"f\.csv:2: expected 1 fields, got 0"),
        ("a,b\n1,x\n3,4\n", r"f\.csv: non-numeric cell \(could not convert string 'x'"),
    ])
    def test_error_precedence(self, tmp_path, text, message):
        # loadtxt skips a blank line and warns on no data: neither may hide the
        # line, and no warning may escape
        path = tmp_path / "f.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError, match=message):
                read_table(str(path))
        assert caught == []

    @pytest.mark.parametrize("cell", ["2 # c", "1_0", "0x10", "", "2j"])
    def test_non_numeric_cells(self, tmp_path, cell):
        # '#' starts no comment, and an underscore is no digit separator
        path = tmp_path / "cells.csv"
        path.write_text(f"a,b\n1,{cell}\n")
        with pytest.raises(ParseError, match="non-numeric"):
            read_table(str(path))

    def test_cell_grammar(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text('"t",x\n"2", 1.5 \n+1e3,-inf\n.5,nan\n')
        cols = read_table(str(path))
        assert list(cols) == ["t", "x"]
        assert cols["t"].tolist() == [2.0, 1000.0, 0.5]
        assert cols["x"][:2].tolist() == [1.5, -math.inf]
        assert math.isnan(cols["x"][2])

    def test_header_only_empty_columns(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("t,x\n")
        cols = read_table(str(path))
        assert list(cols) == ["t", "x"]
        assert all(col.shape == (0,) and col.dtype == float for col in cols.values())

    def test_single_column_and_row(self, tmp_path):
        path = tmp_path / "single.csv"
        path.write_text("t\n7")  # no final newline
        cols = read_table(str(path))
        assert cols["t"].tolist() == [7.0]

    def test_repeated_column_names(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("t,x,x\n1,2,3\n")
        with pytest.raises(ParseError, match=r"repeated column names \['x'\]"):
            read_table(str(path))

    def test_serialization_shape(self):
        text = rows_to_csv([make_row(5)])
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "5"


class TestWindowing:
    def test_constant_series(self):
        ts = np.array([10.0, 20.0, 50.0, 100.0])
        ys = np.full(4, 3.0)
        wt, wv = windowed_geomean(ts, ys)
        assert np.array_equal(wt, ts)
        assert np.allclose(wv, 3.0)

    def test_two_point_window(self):
        # at t = 20 the window (2, 20] holds both samples: geomean sqrt(4*9)=6
        ts = np.array([10.0, 20.0])
        ys = np.array([4.0, 9.0])
        _, wv = windowed_geomean(ts, ys)
        assert wv[1] == pytest.approx(6.0, rel=1e-12)

    def test_nonpositive_dropped(self):
        ts = np.array([10.0, 20.0, 25.0, 30.0])
        ys = np.array([0.0, -1.0, -math.inf, 8.0])
        wt, wv = windowed_geomean(ts, ys)
        assert wt.tolist() == [30.0]
        assert wv[0] == pytest.approx(8.0)

    @staticmethod
    def by_definition(ts, ys):
        """(t, w) row by row: a mask over (t/10, t] and y > 0, then exp of the
        correctly rounded mean of the logs."""
        order = np.argsort(ts)
        sts, sys_ = ts[order], ys[order]
        return [(t, math.exp(math.fsum(np.log(sys_[mask])) / mask.sum()))
                for t in sts.tolist()
                for mask in [(sts > t / 10.0) & (sts <= t) & (sys_ > 0.0)] if mask.any()]

    def test_matches_per_row_mask(self):
        # ties in t and zeros in y included, bit for bit
        rng = np.random.default_rng(7)
        for n in (1, 9, 300):
            ts = rng.integers(1, 40, size=n) * 10.0
            ys = rng.lognormal(size=n)
            ys[rng.random(n) < 0.2] = 0.0
            wt, wv = windowed_geomean(ts, ys)
            assert list(zip(wt.tolist(), wv.tolist())) == self.by_definition(ts, ys)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(1, 60),
                              st.one_of(st.sampled_from([0.0, -1.0, 1.0]),
                                        st.builds(math.ldexp, st.floats(0.5, 1.0),
                                                  st.integers(-1000, 1000)))),
                    min_size=1, max_size=80))
    def test_equals_exact_window_sums(self, samples):
        # ties in t, zeros, negatives, single-sample windows and y from
        # 2**-1000 to 2**1000, bit for bit
        ts = np.array([t for t, _ in samples], dtype=float) ** 2
        ys = np.array([y for _, y in samples])
        wt, wv = windowed_geomean(ts, ys)
        assert list(zip(wt.tolist(), wv.tolist())) == self.by_definition(ts, ys)

    def test_infinite_sample_refused(self):
        with pytest.raises(InvalidSpec, match="not finite"):
            windowed_geomean(np.array([1.0, 2.0]), np.array([1.0, math.inf]))

    def test_nan_sample_refused(self):
        # NaN > 0 is false, so a NaN used to be dropped as if nonpositive
        ts, ys = np.arange(1.0, 21.0), np.ones(20)
        ys[5] = math.nan
        with pytest.raises(InvalidSpec, match="a sample is NaN"):
            windowed_geomean(np.array([1.0, 2.0, 3.0]), np.array([1.0, math.nan, 4.0]))
        with pytest.raises(InvalidSpec, match="a sample is NaN"):
            windowed_value_at(ts, ys, 10.0)
        with pytest.raises(InvalidSpec, match="a sample is NaN"):
            rate_slope(ts, ys, t_min=1.0)

    def test_value_at_nearest(self):
        ts = np.array([10.0, 100.0, 1000.0])
        ys = np.array([1.0, 4.0, 16.0])
        assert windowed_value_at(ts, ys, 90.0) == pytest.approx(4.0)
        with pytest.raises(InsufficientData):
            windowed_value_at(ts, np.zeros(3), 10.0)


class TestMeanByT:
    @pytest.mark.parametrize("n_files", [1, 5, 9])
    def test_matches_per_t_mean(self, n_files):
        # unequal, unsorted t grids around a shared core give groups of every
        # size up to n_files; nine samples cross the 8-way block of numpy's
        # pairwise sum
        rng = np.random.default_rng(n_files)
        columns = []
        for _ in range(n_files):
            extra = rng.choice(np.arange(11, 60) * 10.0, size=rng.integers(5, 40), replace=False)
            ts = rng.permutation(np.concatenate([np.arange(1, 11) * 10.0, extra]))
            columns.append((ts, rng.lognormal(size=len(ts)) * 1e3 ** rng.random(len(ts))))
        by_t = {}
        for ts, ys in columns:
            for t, y in zip(ts.tolist(), ys.tolist()):
                by_t.setdefault(t, []).append(y)
        want_t = sorted(by_t)
        want_y = [np.mean(by_t[t]) for t in want_t]
        got_t, got_y = _mean_by_t(columns)
        assert got_t.tolist() == want_t
        assert got_y.tolist() == want_y
        assert max(len(v) for v in by_t.values()) == n_files

    def test_no_rows(self):
        got_t, got_y = _mean_by_t([(np.empty(0), np.empty(0))])
        assert got_t.shape == got_y.shape == (0,)


class TestRateSlope:
    def grid(self):
        return np.unique(np.round(np.geomspace(10, 1e6, 60)).astype(int)).astype(float)

    def test_recovers_half_power(self):
        ts = self.grid()
        est = rate_slope(ts, ts ** -0.5, t_min=100.0)
        assert est.slope == pytest.approx(-0.5, abs=0.01)
        assert est.r_squared > 0.999
        assert est.n_rows >= 10

    def test_recovers_scaled_power(self):
        ts = self.grid()
        est = rate_slope(ts, 3.7 * ts ** -0.8, t_min=100.0, metric="critic_err_sq")
        assert est.slope == pytest.approx(-0.8, abs=0.01)
        assert est.metric == "critic_err_sq"

    def test_insufficient_rows(self):
        ts = np.array([10.0, 100.0, 1000.0])
        with pytest.raises(InsufficientData):
            rate_slope(ts, ts ** -0.5, t_min=1.0)


class TestAggregateRuns:
    def test_hand_mean_and_se(self):
        # two seeds at t = 5 with L_t values 1 and 3: mean 2, sample std
        # sqrt(2), standard error sqrt(2)/sqrt(2) = 1
        r1 = [MetricsRow(5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10)]
        r2 = [MetricsRow(5, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 20)]
        text = aggregate_runs([r1, r2])
        lines = text.strip().split("\n")
        assert lines[0] == AGGREGATE_HEADER
        assert "wall_ns" not in lines[0]
        parts = lines[1].split(",")
        assert parts[0] == "5"
        assert float(parts[1]) == pytest.approx(2.0)  # L_t_mean
        assert float(parts[2]) == pytest.approx(1.0)  # L_t_se

    def test_single_seed_zero_se(self):
        text = aggregate_runs([[make_row(7)]])
        parts = text.strip().split("\n")[1].split(",")
        ses = [float(x) for x in parts[2::2]]
        assert all(se == 0.0 for se in ses)

    def test_order_independent(self):
        r1 = [make_row(t, seed=1) for t in (10, 20)]
        r2 = [make_row(t, seed=2) for t in (10, 20)]
        assert aggregate_runs([r1, r2]) == aggregate_runs([r2, r1])

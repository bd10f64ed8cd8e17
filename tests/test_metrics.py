"""PRD / SSD / MAD anchors, naive-loop oracles, and report aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moediff.metrics import evaluate, mad, prd, ssd, write_report


def loop_ssd(x, xh):
    total = 0.0
    for a, b in zip(np.ravel(x), np.ravel(xh)):
        total += (a - b) ** 2
    return total


def loop_mad(x, xh):
    worst = 0.0
    for a, b in zip(np.ravel(x), np.ravel(xh)):
        worst = max(worst, abs(a - b))
    return worst


class TestSsd:
    def test_identical_zero(self, rng):
        x = rng.standard_normal(16)
        assert ssd(x, x) == 0.0

    def test_direct_sum(self):
        assert ssd(np.array([1.0, 2.0]), np.zeros(2)) == 5.0

    def test_matches_loop_oracle(self, rng):
        x, xh = rng.standard_normal((2, 1000))
        assert abs(ssd(x, xh) - loop_ssd(x, xh)) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ssd(np.ones(3), np.ones(4))


class TestPrd:
    def test_identical_zero(self, rng):
        x = rng.standard_normal(8) + 2.0
        assert prd(x, x) == 0.0

    def test_zero_prediction_is_exactly_100(self, rng):
        x = rng.standard_normal(32)
        assert prd(x, np.zeros_like(x)) == 100.0

    def test_three_four_anchor(self):
        assert abs(prd(np.array([3.0, 4.0]), np.array([3.0, 0.0])) - 80.0) <= 1e-9

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            prd(np.zeros(4), np.ones(4))

    def test_error_scale_covariance(self, rng):
        x = rng.standard_normal(64)
        e = rng.standard_normal(64)
        assert abs(prd(x, x + 2.0 * e) - 2.0 * prd(x, x + e)) <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(
        x=arrays(np.float64, (12,), elements=st.floats(-10, 10)),
        xh=arrays(np.float64, (12,), elements=st.floats(-10, 10)),
    )
    def test_cross_metric_identity(self, x, xh):
        # ssd == (prd/100)^2 * sum(x^2) under the uncentered convention.
        if float((x**2).sum()) <= 1e-12:
            return
        lhs = ssd(x, xh)
        rhs = (prd(x, xh) / 100.0) ** 2 * float((x**2).sum())
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)


class TestMad:
    def test_identical_zero(self, rng):
        x = rng.standard_normal(8)
        assert mad(x, x) == 0.0

    def test_max_of_differences(self):
        assert mad(np.array([1.0, 5.0]), np.array([2.0, 2.0])) == 3.0

    def test_matches_loop_oracle(self, rng):
        x, xh = rng.standard_normal((2, 500))
        assert mad(x, xh) == loop_mad(x, xh)

    @settings(max_examples=50, deadline=None)
    @given(
        x=arrays(np.float64, (10,), elements=st.floats(-5, 5)),
        xh=arrays(np.float64, (10,), elements=st.floats(-5, 5)),
    )
    def test_mad_bounded_by_root_ssd(self, x, xh):
        assert mad(x, xh) <= math.sqrt(ssd(x, xh)) + 1e-12


class TestEvaluate:
    def test_perfect_prediction_all_zero(self, rng):
        truth = rng.standard_normal((3, 2, 8))
        report = evaluate(truth, truth.copy())
        for row in report.per_sample:
            assert (row.prd, row.ssd, row.mad) == (0.0, 0.0, 0.0)
        assert report.aggregate.ssd == 0.0

    def test_single_sample_aggregate_equals_sample(self, rng):
        truth = rng.standard_normal((1, 2, 16))
        pred = rng.standard_normal((1, 2, 16))
        report = evaluate(truth, pred)
        assert report.aggregate == report.per_sample[0]

    def test_three_sample_hand_arithmetic(self):
        truth = np.zeros((3, 1, 2))
        truth[0, 0] = [3.0, 4.0]
        truth[1, 0] = [1.0, 0.0]
        truth[2, 0] = [0.0, 2.0]
        pred = truth.copy()
        pred[0, 0] = [3.0, 0.0]  # ssd 16, prd 80, mad 4
        pred[1, 0] = [0.0, 0.0]  # ssd 1, prd 100, mad 1
        pred[2, 0] = [0.0, 1.0]  # ssd 1, prd 50, mad 1
        report = evaluate(truth, pred)
        assert report.aggregate.ssd == pytest.approx(6.0)
        assert report.aggregate.prd == pytest.approx((80.0 + 100.0 + 50.0) / 3.0)
        assert report.aggregate.mad == pytest.approx(2.0)

    def test_region_restriction(self):
        truth = np.ones((1, 1, 4))
        pred = np.array([[[1.0, 0.0, 1.0, 5.0]]])
        region = np.array([[[1.0, 0.0, 1.0, 0.0]]])  # entries 1 and 3 are missing
        report = evaluate(truth, pred, region=region)
        assert report.per_sample[0].ssd == pytest.approx(1.0 + 16.0)
        assert report.per_sample[0].mad == pytest.approx(4.0)

    def test_empty_region_rejected(self, rng):
        truth = rng.standard_normal((2, 1, 4))
        with pytest.raises(ValueError, match="empty missing region"):
            evaluate(truth, truth, region=np.ones_like(truth))

    def test_non_binary_region_rejected(self, rng):
        truth = rng.standard_normal((1, 1, 4))
        with pytest.raises(ValueError, match="region must contain only 0.0 and 1.0"):
            evaluate(truth, truth, region=np.array([[[0.0, 0.5, 1.0, 1.0]]]))

    def test_csv_layout(self, rng, tmp_path):
        truth = rng.standard_normal((2, 1, 4))
        write_report(tmp_path / "metrics.csv", evaluate(truth, truth))
        lines = (tmp_path / "metrics.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "index,prd,ssd,mad"
        assert len(lines) == 4
        assert lines[-1].startswith("aggregate,")

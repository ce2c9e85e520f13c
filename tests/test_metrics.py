import dataclasses
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from confloss import confidence as confidence_module
from confloss import (
    BinaryMask,
    Grid1,
    Grid2,
    epe_map,
    full_report,
    magnitude_map,
)
from confloss.fields import _CHUNK
from confloss.metrics import BAD_P_THRESHOLDS, OUTLIER_THRESHOLDS

THRESHOLDS = sorted({*OUTLIER_THRESHOLDS, *BAD_P_THRESHOLDS})


def report_of(e, mag=None, valid=None, region=None):
    """full_report on a flow pair whose error map is exactly `e` and whose GT
    magnitude is exactly `mag` (default 0): gt = (mag, 0), pred = (mag, e)."""
    e = np.asarray(e, dtype=float)
    mag = np.zeros_like(e) if mag is None else np.asarray(mag, dtype=float)
    gt = Grid2(np.stack([mag, np.zeros_like(e)], axis=-1))
    pred = Grid2(np.stack([mag, e], axis=-1))
    valid = BinaryMask.full(*e.shape) if valid is None else BinaryMask(np.asarray(valid))
    region = None if region is None else BinaryMask(np.asarray(region))
    return full_report(pred, gt, valid, region=region)


class TestEpeMap:
    def test_perfect(self):
        gt = Grid2(np.random.default_rng(0).normal(size=(3, 3, 2)))
        assert (epe_map(gt, gt).data == 0).all()

    def test_three_four_five(self):
        pred = Grid2.zeros(1, 1)
        gt = Grid2.constant(1, 1, 3.0, 4.0)
        assert epe_map(pred, gt).data[0, 0] == pytest.approx(5.0)

    def test_unit(self):
        pred = Grid2.zeros(1, 1)
        gt = Grid2.constant(1, 1, 1.0, 0.0)
        assert epe_map(pred, gt).data[0, 0] == 1.0

    def test_stereo_absolute_error(self):
        e = epe_map(Grid1.full(1, 2, 1.0), Grid1(np.array([[3.0, -1.0]])))
        np.testing.assert_array_equal(e.data, [[2.0, 2.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            epe_map(Grid2.zeros(2, 2), Grid2.zeros(3, 3))


class TestAggregateEpe:
    """The report's mean error and its matched/unmatched split."""

    def test_uniform(self):
        assert report_of(np.full((4, 4), 2.0)).epe == 2.0

    def test_mean_of_two(self):
        assert report_of([[1.0, 3.0]]).epe == 2.0

    def test_singleton_region(self):
        report = report_of([[1.0, 3.0]], region=[[False, True]])
        assert report.matched_epe == 3.0 and report.unmatched_epe == 1.0
        assert report.pixel_counts == {"valid": 2, "matched": 1, "unmatched": 1}

    def test_empty_region_is_not_available(self):
        report = report_of(np.ones((2, 2)), valid=np.zeros((2, 2), bool),
                           region=[[True, False], [True, False]])
        assert report.epe is None
        assert report.matched_epe is None and report.unmatched_epe is None
        assert report.pixel_counts == {"valid": 0, "matched": 0, "unmatched": 0}
        # a region with no valid pixel is not available; its complement is
        report = report_of([[1.0, 3.0]], valid=[[False, True]], region=[[True, False]])
        assert report.matched_epe is None and report.unmatched_epe == 3.0
        assert report.pixel_counts == {"valid": 1, "matched": 0, "unmatched": 1}

    def test_region_split_recombines(self):
        rng = np.random.default_rng(4)
        valid = rng.random((6, 6)) > 0.2
        report = report_of(rng.random((6, 6)), valid=valid, region=rng.random((6, 6)) > 0.5)
        n_m, n_u = report.pixel_counts["matched"], report.pixel_counts["unmatched"]
        assert n_m + n_u == report.pixel_counts["valid"] == valid.sum()
        m, u = report.matched_epe, report.unmatched_epe
        assert report.epe == pytest.approx((m * n_m + u * n_u) / (n_m + n_u), abs=1e-9)

    def test_region_shape_mismatch(self):
        with pytest.raises(ValueError):
            report_of(np.ones((2, 2)), region=np.ones((2, 3), bool))


class TestOutlierRate:
    """The report's strict-threshold percentages (flow's px, stereo's bad-p)."""

    def test_all_zero(self):
        report = report_of(np.zeros((3, 3)))
        assert set(report.outlier_rates) == set(THRESHOLDS)
        assert all(rate == 0.0 for rate in report.outlier_rates.values())

    def test_two_of_three(self):
        rate = report_of([[0.5, 2.0, 4.0]]).outlier_rates[1.0]
        assert rate == pytest.approx(200.0 / 3.0)

    def test_strictly_greater(self):
        for t in THRESHOLDS:
            rates = report_of([[t]]).outlier_rates
            assert rates == {s: 100.0 if s < t else 0.0 for s in THRESHOLDS}

    def test_no_valid_pixels(self):
        report = report_of(np.ones((1, 1)), valid=[[False]])
        assert all(rate is None for rate in report.outlier_rates.values())
        assert report.fl_all is None
        assert report.speed_binned_epe == (None, None, None)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_monotone_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        rates = report_of(rng.exponential(2.0, (5, 5))).outlier_rates
        ordered = [rates[t] for t in THRESHOLDS]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))


class TestFlAll:
    def test_both_conditions_hold(self):
        assert report_of([[5.0]], mag=[[10.0]]).fl_all == 100.0

    def test_relative_condition_fails(self):
        assert report_of([[4.0]], mag=[[100.0]]).fl_all == 0.0

    def test_absolute_condition_fails(self):
        assert report_of([[3.0]], mag=[[1.0]]).fl_all == 0.0

    def test_zero_error_never_outlier(self):
        assert report_of(np.zeros((2, 2)), mag=np.full((2, 2), 50.0)).fl_all == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_bounded_by_3px_rate(self, seed):
        rng = np.random.default_rng(seed)
        report = report_of(rng.exponential(3.0, (6, 6)), mag=rng.exponential(20.0, (6, 6)),
                           valid=rng.random((6, 6)) > 0.2)
        if report.pixel_counts["valid"] == 0:
            return
        assert report.fl_all <= report.outlier_rates[3.0]


class TestSpeedBins:
    def test_single_bin(self):
        report = report_of(np.ones((2, 2)), mag=np.full((2, 2), 5.0))
        assert report.speed_binned_epe == (1.0, None, None)

    def test_one_pixel_per_bin(self):
        report = report_of([[1.0, 2.0, 3.0]], mag=[[5.0, 20.0, 50.0]])
        assert report.speed_binned_epe == (1.0, 2.0, 3.0)

    def test_boundary_values(self):
        # 10 and 40 both belong to the middle bin; the values beside them do not
        report = report_of([[1.0, 2.0]], mag=[[10.0, 40.0]])
        assert report.speed_binned_epe == (None, 1.5, None)
        below, above = np.nextafter(10.0, 0.0), np.nextafter(40.0, 100.0)
        report = report_of([[1.0, 2.0]], mag=[[below, above]])
        assert report.speed_binned_epe == (1.0, None, 2.0)


class TestStereoMetrics:
    """The report on disparity maps: bad-p rates and the mean absolute error."""

    @staticmethod
    def stereo_report(e):
        e = Grid1(np.asarray(e, dtype=float))
        return full_report(e, Grid1.zeros(e.height, e.width), BinaryMask.full(e.height, e.width))

    def test_perfect(self):
        report = self.stereo_report(np.zeros((2, 2)))
        assert report.epe == 0.0
        assert all(report.outlier_rates[t] == 0.0 for t in BAD_P_THRESHOLDS)

    def test_single_pixel_threshold_walk(self):
        report = self.stereo_report([[1.5]])
        rates = report.outlier_rates
        assert rates[0.5] == 100.0 and rates[1.0] == 100.0
        assert rates[2.0] == 0.0 and rates[3.0] == 0.0
        assert report.epe == 1.5

    def test_small_uniform_error(self):
        report = self.stereo_report(np.full((3, 3), 0.4))
        assert report.outlier_rates[0.5] == 0.0
        assert report.epe == pytest.approx(0.4)


def _none_or_close(got, want):
    if want is None:
        return got is None
    return got == pytest.approx(want, abs=1e-12)


class TestFullReport:
    def test_report_fields_populated(self):
        rng = np.random.default_rng(8)
        pred = Grid2(rng.normal(0, 3, (8, 8, 2)))
        gt = Grid2(rng.normal(0, 3, (8, 8, 2)))
        valid = BinaryMask.full(8, 8)
        region = BinaryMask(rng.random((8, 8)) > 0.5)
        report = full_report(pred, gt, valid, region=region)
        assert report.epe is not None and report.epe >= 0
        assert set(report.outlier_rates) == {0.5, 1.0, 2.0, 3.0, 5.0}
        assert report.pixel_counts["valid"] == 64
        assert (report.pixel_counts["matched"] + report.pixel_counts["unmatched"]) == 64
        for rate in report.outlier_rates.values():
            assert 0.0 <= rate <= 100.0

    def test_no_region_gives_na_split(self):
        gt = Grid2.zeros(2, 2)
        report = full_report(gt, gt, BinaryMask.full(2, 2))
        assert report.matched_epe is None and report.unmatched_epe is None

    @given(st.integers(0, 2**32 - 1), st.sampled_from([Grid2, Grid1]),
           st.sampled_from([0.8, 0.0]))
    @settings(max_examples=25)
    @example(seed=1, grid=Grid1, p_valid=0.8)
    @example(seed=2, grid=Grid2, p_valid=0.0)
    def test_matches_bruteforce(self, seed, grid, p_valid):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(1, 9), rng.integers(1, 9)
        shape = (h, w, 2) if grid is Grid2 else (h, w)
        pred = grid(rng.normal(0, 5, shape))
        gt = grid(rng.normal(0, 15, shape))
        valid = BinaryMask(rng.random((h, w)) < p_valid)
        region = BinaryMask(rng.random((h, w)) > 0.5)
        report = full_report(pred, gt, valid, region=region)
        e = oracles.epe(pred.data.tolist(), gt.data.tolist())
        mag = oracles.epe(gt.data.tolist(), np.zeros_like(gt.data).tolist())
        v = valid.data.tolist()
        matched = (valid.data & region.data).tolist()
        unmatched = (valid.data & ~region.data).tolist()
        assert _none_or_close(report.epe, oracles.mean_over(e, v))
        for t in THRESHOLDS:
            assert report.outlier_rates[t] == oracles.outlier_rate(e, v, t)
        assert report.fl_all == oracles.fl_all(e, mag, v)
        for got, want in zip(report.speed_binned_epe, oracles.speed_bins(e, mag, v)):
            assert _none_or_close(got, want)
        assert _none_or_close(report.matched_epe, oracles.mean_over(e, matched))
        assert _none_or_close(report.unmatched_epe, oracles.mean_over(e, unmatched))
        assert report.pixel_counts == {"valid": sum(map(sum, v)),
                                       "matched": sum(map(sum, matched)),
                                       "unmatched": sum(map(sum, unmatched))}


def _exact(value):
    """A report value with its type, floats as their bit pattern."""
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    return type(value), struct.pack("<d", value) if type(value) is float else value


# Frame shapes of one row band and of several (bands of about _CHUNK pixels,
# down to one row per band on a frame wider than _CHUNK).
ONE_BAND = ((1, 1), (7, 9), (64, 64))
MANY_BANDS = ((3 * (_CHUNK // 512) + 5, 512), (2 * (_CHUNK // 1024) + 1, 1024), (3, _CHUNK + 7))
assert all(h > max(1, _CHUNK // w) for h, w in MANY_BANDS)


class TestBandedReport:
    """full_report on row bands equals the whole-frame frozen copy bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), grid=st.sampled_from([Grid2, Grid1]),
           shape=st.sampled_from(ONE_BAND + MANY_BANDS),
           p_valid=st.sampled_from([1.0, 0.7, 0.0]),
           p_region=st.sampled_from([None, 0.0, 0.5, 1.0]),
           gt_scale=st.sampled_from([1.0, 20.0, 80.0]))
    @settings(max_examples=40, deadline=None)
    @example(seed=3, grid=Grid2, shape=MANY_BANDS[0], p_valid=0.0, p_region=0.5, gt_scale=20.0)
    @example(seed=4, grid=Grid1, shape=MANY_BANDS[1], p_valid=0.7, p_region=1.0, gt_scale=1.0)
    @example(seed=5, grid=Grid2, shape=MANY_BANDS[2], p_valid=1.0, p_region=0.0, gt_scale=80.0)
    @example(seed=6, grid=Grid1, shape=ONE_BAND[2], p_valid=0.7, p_region=None, gt_scale=20.0)
    def test_equals_whole_frame_copy(self, seed, grid, shape, p_valid, p_region, gt_scale):
        rng = np.random.default_rng(seed)
        full = shape + ((2,) if grid is Grid2 else ())
        gt = grid(rng.normal(0.0, gt_scale, full))
        pred = grid(gt.data + rng.normal(0.0, 3.0, full))
        valid = BinaryMask(rng.random(shape) < p_valid)
        region = None if p_region is None else BinaryMask(rng.random(shape) < p_region)
        want = _exact(oracles.whole_frame_report(
            pred.data, gt.data, valid.data, None if region is None else region.data))
        for workers in (1, 2, 3):
            with mock.patch.object(confidence_module, "_WORKERS", workers):
                report = full_report(pred, gt, valid, region=region)
            assert _exact(dataclasses.asdict(report)) == want, workers
            assert list(report.outlier_rates) == THRESHOLDS


def test_magnitude_map_flow_and_stereo():
    g2 = Grid2.constant(1, 1, 3.0, 4.0)
    assert magnitude_map(g2).data[0, 0] == pytest.approx(5.0)
    g1 = Grid1.full(1, 1, -2.0)
    assert magnitude_map(g1).data[0, 0] == 2.0

import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from confloss import confidence as confidence_module
from confloss import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    BinaryMask,
    CycleParams,
    Grid1,
    Grid2,
    WeightSpec,
    build_weights,
    confidence_db_flow,
    confidence_db_stereo,
    confidence_oa,
    confidence_oa_stereo,
    cycle_terms,
    disparity_to_flow,
    evaluate_loss,
    occlusion_mask,
)
from confloss.fields import _CHUNK, sample_values

flows = st.floats(min_value=-10, max_value=10, allow_nan=False, width=32)


def flow_pairs(max_side=8):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda hw: st.tuples(arrays(np.float64, (hw[0], hw[1], 2), elements=flows),
                             arrays(np.float64, (hw[0], hw[1], 2), elements=flows)))


def _stereo_pair(hw):
    h, w = hw
    # Warp targets x - d_lr on the frame edges, one ulp outside them, and
    # anywhere from left of the frame to right of it (negative disparities).
    edges = [0.0, w - 1.0, -5e-324, np.nextafter(w - 1.0, np.inf)]
    targets = st.one_of(st.sampled_from(edges), st.floats(-2.0, w + 1.0))
    xs = np.arange(w, dtype=np.float64)
    return st.tuples(arrays(np.float64, hw, elements=targets).map(lambda t: xs - t),
                     arrays(np.float64, hw, elements=st.floats(-1.0, 10.0, width=32)))


def stereo_pairs(max_side=8):
    """(d_lr, d_rl) arrays; d_lr is drawn through its warp targets."""
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(_stereo_pair)


class TestCycleParams:
    def test_defaults(self):
        p = CycleParams()
        assert p.gamma1 == 0.01 and p.gamma2 == 0.5

    def test_invariants(self):
        with pytest.raises(ValueError):
            CycleParams(gamma1=-0.1)
        with pytest.raises(ValueError):
            CycleParams(gamma2=0.0)


class TestErrorConfidence:
    def test_perfect_prediction(self):
        gt = Grid2(np.random.default_rng(1).normal(size=(4, 4, 2)))
        m = confidence_db_flow(gt, gt, BinaryMask.full(4, 4))
        np.testing.assert_array_equal(m.data, np.ones((4, 4)))

    def test_unit_error(self):
        pred = Grid2.zeros(1, 1)
        gt = Grid2.constant(1, 1, 1.0, 0.0)
        m = confidence_db_flow(pred, gt, BinaryMask.full(1, 1))
        assert m.data[0, 0] == pytest.approx(math.exp(-1), rel=1e-12)

    def test_three_four_error(self):
        pred = Grid2.zeros(1, 1)
        gt = Grid2.constant(1, 1, 3.0, 4.0)
        m = confidence_db_flow(pred, gt, BinaryMask.full(1, 1))
        assert m.data[0, 0] == pytest.approx(math.exp(-25), rel=1e-12)

    def test_invalid_pixels_zeroed(self):
        valid = BinaryMask(np.array([[True, False]]))
        m = confidence_db_flow(Grid2.zeros(1, 2), Grid2.zeros(1, 2), valid)
        np.testing.assert_array_equal(m.data, [[1.0, 0.0]])

    def test_stereo_values(self):
        pred = Grid1.zeros(1, 3)
        gt = Grid1(np.array([[0.0, 1.0, 10.0]]))
        m = confidence_db_stereo(pred, gt, BinaryMask.full(1, 3))
        assert m.data[0, 0] == 1.0
        assert m.data[0, 1] == pytest.approx(math.exp(-1), rel=1e-12)
        assert m.data[0, 2] == pytest.approx(math.exp(-100), rel=1e-6)
        assert (m.data >= 0).all() and (m.data <= 1).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            confidence_db_flow(Grid2.zeros(2, 2), Grid2.zeros(3, 3),
                               BinaryMask.full(2, 2))

    @given(flow_pairs(), st.data())
    def test_flow_bit_equal_to_frozen(self, pair, data):
        # confidence_db_flow as it was before it worked in place (a frozen copy).
        pred, gt = pair
        valid = data.draw(arrays(bool, pred.shape[:2]))
        d = gt - pred
        frozen = np.where(valid, np.exp(-(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])), 0.0)
        m = confidence_db_flow(Grid2(pred), Grid2(gt), BinaryMask(valid))
        np.testing.assert_array_equal(m.data.view(np.int64), frozen.view(np.int64))

    @given(st.floats(0.01, 5), st.floats(0.01, 5))
    @example(0.01, 0.010000000000000002)  # one ulp apart: both map to 0.9999000049998333
    def test_strictly_decreasing_in_error(self, e1, e2):
        lo, hi = sorted((e1, e2))
        if lo == hi:
            return
        gt = Grid1.zeros(1, 2)
        pred = Grid1(np.array([[lo, hi]]))
        m = confidence_db_stereo(pred, gt, BinaryMask.full(1, 2))
        assert m.data[0, 0] >= m.data[0, 1]
        # Strict wherever float64 resolves exp(-lo^2) from exp(-hi^2).
        if hi * hi - lo * lo > 1e-12:
            assert m.data[0, 0] > m.data[0, 1]


class TestCycleTerms:
    def test_consistent_pixel(self):
        fw = Grid2.constant(1, 5, 2.0, 0.0)
        bw = Grid2.constant(1, 5, -2.0, 0.0)
        num, den, valid = cycle_terms(fw, bw)
        assert valid.data[0, 0] and valid.data[0, 2]
        assert num.data[0, 0] == 0.0
        assert den.data[0, 0] == pytest.approx(0.58, abs=1e-15)

    def test_inconsistent_pixel(self):
        fw = Grid2.constant(1, 8, 5.0, 0.0)
        bw = Grid2.zeros(1, 8)
        num, den, valid = cycle_terms(fw, bw)
        assert valid.data[0, 0]
        assert num.data[0, 0] == pytest.approx(25.0)
        assert den.data[0, 0] == pytest.approx(0.75)

    def test_zero_flows(self):
        num, den, valid = cycle_terms(Grid2.zeros(3, 3), Grid2.zeros(3, 3))
        assert (num.data == 0).all()
        np.testing.assert_allclose(den.data, 0.5)
        assert valid.data.all()


class TestOcclusionMask:
    def test_consistent_is_matched(self):
        fw = Grid2.constant(2, 6, 2.0, 0.0)
        bw = Grid2.constant(2, 6, -2.0, 0.0)
        mask = occlusion_mask(fw, bw)
        # Warp targets of the last two columns leave the frame.
        np.testing.assert_array_equal(mask.data[:, :4], True)
        np.testing.assert_array_equal(mask.data[:, 4:], False)

    def test_inconsistent_is_occluded(self):
        fw = Grid2.constant(1, 8, 5.0, 0.0)
        bw = Grid2.zeros(1, 8)
        assert not occlusion_mask(fw, bw).data[0, 0]  # 25 >= 0.75

    def test_off_frame_is_occluded(self):
        fw = Grid2.constant(3, 3, 50.0, 0.0)
        bw = Grid2.zeros(3, 3)
        assert not occlusion_mask(fw, bw).data.any()

    @given(flow_pairs())
    def test_matches_bruteforce(self, pair):
        fw_arr, bw_arr = pair
        mask = occlusion_mask(Grid2(fw_arr), Grid2(bw_arr))
        _, _, _, expected = oracles.cycle_check(fw_arr.tolist(), bw_arr.tolist(),
                                                0.01, 0.5)
        np.testing.assert_array_equal(mask.data, np.array(expected))


class TestCycleConfidence:
    def test_consistent_pixel_full_confidence(self):
        fw = Grid2.constant(1, 5, 2.0, 0.0)
        bw = Grid2.constant(1, 5, -2.0, 0.0)
        m = confidence_oa(fw, bw)
        assert m.data[0, 0] == 1.0

    def test_ratio_value(self):
        fw = Grid2.constant(1, 8, 5.0, 0.0)
        bw = Grid2.zeros(1, 8)
        m = confidence_oa(fw, bw)
        assert m.data[0, 0] == pytest.approx(math.exp(-25 / 0.75), rel=1e-12)

    def test_unit_ratio(self):
        # Equal numerator and denominator: confidence exp(-1).
        num, den, _ = cycle_terms(Grid2.constant(1, 4, 2.0, 0.0),
                                  Grid2.constant(1, 4, -2.0, 0.0))
        assert math.exp(-0.58 / 0.58) == pytest.approx(math.exp(-1))

    def test_out_of_bounds_zero(self):
        fw = Grid2.constant(2, 2, 10.0, 0.0)
        bw = Grid2.zeros(2, 2)
        assert (confidence_oa(fw, bw).data == 0).all()

    @given(flow_pairs())
    def test_range_and_threshold_equivalence(self, pair):
        fw_arr, bw_arr = pair
        fw, bw = Grid2(fw_arr), Grid2(bw_arr)
        m = confidence_oa(fw, bw)
        assert (m.data >= 0).all() and (m.data <= 1).all()
        _, _, valid = cycle_terms(fw, bw)
        mask = occlusion_mask(fw, bw)
        # matched <=> ratio < 1 <=> confidence > exp(-1), on valid targets
        expected = valid.data & (m.data > math.exp(-1))
        np.testing.assert_array_equal(mask.data, expected)

    @given(flow_pairs())
    def test_matches_bruteforce(self, pair):
        fw_arr, bw_arr = pair
        m = confidence_oa(Grid2(fw_arr), Grid2(bw_arr))
        expected = oracles.confidence_oa(fw_arr.tolist(), bw_arr.tolist(), 0.01, 0.5)
        np.testing.assert_allclose(m.data, np.array(expected), atol=1e-12)


class TestStereoCycleConfidence:
    def test_consistent_constant_pair(self):
        d = Grid1.full(4, 8, 2.0)
        m = confidence_oa_stereo(d, d)
        assert (m.data[:, 2:] == 1.0).all()
        assert (m.data[:, :2] == 0.0).all()  # targets left of the frame

    def test_mismatched_pixel(self):
        d_lr = Grid1.full(1, 8, 5.0)
        d_rl = Grid1.zeros(1, 8)
        m = confidence_oa_stereo(d_lr, d_rl)
        assert m.data[0, 6] == pytest.approx(math.exp(-25 / 0.75), rel=1e-12)

    def test_zero_disparities(self):
        m = confidence_oa_stereo(Grid1.zeros(3, 3), Grid1.zeros(3, 3))
        np.testing.assert_array_equal(m.data, np.ones((3, 3)))

    def test_equals_flow_path(self):
        rng = np.random.default_rng(7)
        d_lr = Grid1(rng.uniform(0, 3, (5, 7)))
        d_rl = Grid1(rng.uniform(0, 3, (5, 7)))
        from confloss import LEFT_TO_RIGHT, RIGHT_TO_LEFT, disparity_to_flow
        via_flow = confidence_oa(disparity_to_flow(d_lr, LEFT_TO_RIGHT),
                                 disparity_to_flow(d_rl, RIGHT_TO_LEFT))
        np.testing.assert_array_equal(confidence_oa_stereo(d_lr, d_rl).data,
                                      via_flow.data)

    @given(stereo_pairs())
    @example((np.zeros((1, 1)), np.zeros((1, 1))))             # target 0 = w-1
    @example((np.full((1, 1), 5e-324), np.zeros((1, 1))))      # one ulp left of 0
    @example((np.full((1, 1), -5e-324), np.ones((1, 1))))      # one ulp right of w-1
    @example((np.array([[0.0, 1.0, 2.0], [-2.0, -1.0, 0.0]]),  # targets 0, then w-1
              np.array([[0.5, 1.0, -1.0], [2.0, 0.0, 3.0]])))
    @example((np.array([[5e-324, 1.0, -np.spacing(2.0)]]),     # one ulp outside both edges
              np.array([[0.0, 1.0, 2.0]])))
    def test_terms_equal_embedded_path(self, pair):
        d_lr, d_rl = Grid1(pair[0]), Grid1(pair[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # negative disparities
            got = cycle_terms(d_lr, d_rl)
            want = cycle_terms(disparity_to_flow(d_lr, LEFT_TO_RIGHT),
                               disparity_to_flow(d_rl, RIGHT_TO_LEFT))
        for g, e in zip(got, want):
            assert np.array_equal(g.data, e.data)

    @pytest.mark.parametrize("negative", (("d_lr",), ("d_rl",), ("d_lr", "d_rl")))
    def test_negative_disparity_warns_once_per_map(self, negative):
        maps = {name: Grid1.full(2, 3, -1.0 if name in negative else 1.0)
                for name in ("d_lr", "d_rl")}
        with pytest.warns(RuntimeWarning, match="disparity map contains negative entries") as rec:
            confidence_oa_stereo(maps["d_lr"], maps["d_rl"])
        assert len(rec) == len(negative)


# Every public entry that checks a disparity pair, called on (d_lr, d_rl).
NEGATIVE_DISPARITY_ENTRIES = {
    "cycle_terms": cycle_terms,
    "confidence_oa": confidence_oa,
    "occlusion_mask": occlusion_mask,
    "build_weights": lambda d_lr, d_rl: build_weights(
        WeightSpec.stereo_defaults("mask_sum"), d_lr, d_rl, BinaryMask.full(*d_lr.shape), d_rl),
    "evaluate_loss": lambda d_lr, d_rl: evaluate_loss(
        d_lr, d_rl, BinaryMask.full(*d_lr.shape), WeightSpec.stereo_defaults("oa"), d_rl),
}


class TestNegativeDisparityWarningLocation:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("entry", sorted(NEGATIVE_DISPARITY_ENTRIES))
    def test_reported_at_the_callers_line(self, entry, workers, monkeypatch):
        monkeypatch.setattr(confidence_module, "_WORKERS", workers)
        h, w = 3 * (_CHUNK // 100), 100
        d_lr, d_rl = Grid1.full(h, w, -1.0), Grid1.full(h, w, 2.0)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            NEGATIVE_DISPARITY_ENTRIES[entry](d_lr, d_rl)
        assert [(str(r.message), r.filename) for r in rec] == [
            ("disparity map contains negative entries", __file__)]

    def test_two_call_sites_both_show_under_default_filter(self):
        d_lr, d_rl = Grid1.full(2, 3, -1.0), Grid1.full(2, 3, 2.0)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("default")  # once per location, as in a plain interpreter
            cycle_terms(d_lr, d_rl)
            cycle_terms(d_lr, d_rl)
        assert [r.filename for r in rec] == [__file__] * 2
        assert rec[0].lineno + 1 == rec[1].lineno


class TestMixedPairs:
    @pytest.mark.parametrize("check", (cycle_terms, confidence_oa, occlusion_mask))
    @pytest.mark.parametrize("pair", ((Grid2.zeros(3, 3), Grid1.zeros(3, 3)),
                                      (Grid1.zeros(3, 3), Grid2.zeros(3, 3))))
    def test_rejected(self, check, pair):
        with pytest.raises(ValueError, match="same grid type"):
            check(*pair)


def whole_frame_terms(f_fw, f_bw, params=CycleParams()):
    """cycle_terms' formulas on whole-frame arrays through the public 2-D
    sampler, as the check was computed before it ran in row bands. Stereo is
    sampled at integer row coordinates, so its oracle does not share the row
    kernel of the check."""
    h, w = f_fw.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    if isinstance(f_fw, Grid2):
        f = f_fw.data
        b, target_valid = sample_values(f_bw.data, xs + f[..., 0], ys + f[..., 1])
        fu, fv, bu, bv = f[..., 0], f[..., 1], b[..., 0], b[..., 1]
        num = (fu + bu) ** 2 + (fv + bv) ** 2
        mag2 = (fu * fu + fv * fv) + (bu * bu + bv * bv)
    else:
        d = f_fw.data
        b, target_valid = sample_values(f_bw.data, xs - d, ys)
        num = (b - d) ** 2
        mag2 = d * d + b * b
    return num, mag2 * params.gamma1 + params.gamma2, target_valid


def banded_pair(task):
    """A seeded pair of a frame about five bands tall (the last one short).
    Some warp targets land on the last column or row, one ulp past them,
    or far off-frame; the backward data holds signed zeros."""
    rng = np.random.default_rng(41)
    w = 301
    h = 5 * (_CHUNK // w) + 7
    cols = np.arange(w, dtype=np.float64)
    rows = np.arange(h, dtype=np.float64)[:, None]
    pick = rng.random((h, w))
    if task == "stereo":
        d_lr = rng.uniform(0.0, 12.0, (h, w))
        # Targets x - d at column 0, one ulp left of it, on the last column
        # and far off-frame.
        d_lr[pick < 0.05] = np.broadcast_to(cols, (h, w))[pick < 0.05]
        d_lr[(pick >= 0.05) & (pick < 0.08)] = 1e6
        d_lr[:, 0][pick[:, 0] < 0.5] = 5e-324
        d_lr[:, -1][pick[:, -1] < 0.5] = 0.0
        d_rl = rng.uniform(0.0, 12.0, (h, w))
        d_rl[rng.random((h, w)) < 0.2] = -0.0
        return Grid1(d_lr), Grid1(d_rl)
    f = rng.normal(0.0, 6.0, (h, w, 2))
    last_col, last_row = pick < 0.05, (pick >= 0.05) & (pick < 0.1)
    f[..., 0][last_col] = (w - 1.0 - cols + 0.0 * rows)[last_col]
    f[..., 1][last_row] = (h - 1.0 - rows + 0.0 * cols)[last_row]
    f[..., 0][(pick >= 0.1) & (pick < 0.12)] = 1e6
    f[-1, :, 1] = np.where(pick[-1] < 0.5, 0.0, np.spacing(h - 1.0))
    b = rng.normal(0.0, 6.0, (h, w, 2))
    b[rng.random((h, w, 2)) < 0.2] = -0.0
    return Grid2(f), Grid2(b)


class TestRowBands:
    @pytest.mark.parametrize("task", ("flow", "stereo"))
    def test_worker_count_leaves_bytes_unchanged(self, task, monkeypatch):
        f_fw, f_bw = banded_pair(task)
        want = whole_frame_terms(f_fw, f_bw)
        assert want[2].any() and not want[2].all()  # off-frame targets present
        kernel = "_bilinear_points" if task == "flow" else "_linear_rows"
        real_kernel = getattr(confidence_module, kernel)
        threads = set()

        def recording_kernel(*args):
            threads.add(threading.current_thread())
            return real_kernel(*args)

        monkeypatch.setattr(confidence_module, kernel, recording_kernel)
        for workers in (1, 2, 3):
            monkeypatch.setattr(confidence_module, "_WORKERS", workers)
            threads.clear()
            got = cycle_terms(f_fw, f_bw)
            for g, e in zip(got, want):
                assert g.data.dtype == e.dtype and g.data.shape == e.shape
                assert g.data.tobytes() == e.tobytes(), workers
            # The calling thread walks the first block, threads of its own
            # the others.
            assert threading.current_thread() in threads
            assert (len(threads) > 1) == (workers > 1)

    def test_small_frame_stays_on_calling_thread(self, monkeypatch):
        monkeypatch.setattr(confidence_module, "_WORKERS", 2)
        h, w = 64, 64
        assert h * w < _CHUNK
        threads = set()
        real_kernel = confidence_module._bilinear_points
        monkeypatch.setattr(confidence_module, "_bilinear_points",
                            lambda *a: threads.add(threading.current_thread())
                            or real_kernel(*a))
        cycle_terms(Grid2.zeros(h, w), Grid2.zeros(h, w))
        assert threads == {threading.current_thread()}

    @pytest.mark.parametrize("row", (0, -1), ids=("first_row", "last_row"))
    @pytest.mark.parametrize("task", ("flow", "stereo"))
    def test_overflow_raises_in_caller(self, task, row, monkeypatch):
        # numpy's error state is per thread: the other blocks must run under
        # the caller's, or toytrain.train would miss a divergence. Row 0 lies
        # in the calling thread's own block, the last row in another thread's.
        # The other threads are slowed down, so that an error raised before
        # they were joined would find them still running.
        monkeypatch.setattr(confidence_module, "_WORKERS", 2)
        kernel = "_bilinear_points" if task == "flow" else "_linear_rows"
        real_kernel = getattr(confidence_module, kernel)
        caller, started = threading.current_thread(), set()

        def slow_kernel(*args):
            if threading.current_thread() is not caller:
                started.add(threading.current_thread())
                time.sleep(0.1)
            return real_kernel(*args)

        monkeypatch.setattr(confidence_module, kernel, slow_kernel)
        h, w = 3 * (_CHUNK // 100), 100
        if task == "flow":
            data = np.zeros((h, w, 2))
            data[row] = 1e200
            pair = (Grid2(data),) * 2
        else:
            data = np.zeros((h, w))
            data[row] = 1e200
            pair = (Grid1(data),) * 2
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            cycle_terms(*pair)
        assert started and not any(t.is_alive() for t in started)
        with np.errstate(over="ignore"):
            num, _, _ = cycle_terms(*pair)
        assert (np.isinf(num.data[row]).all()
                and np.isfinite(np.delete(num.data, row, axis=0)).all())

    def test_no_thread_outlives_the_check(self):
        # In a fresh interpreter, so that no other test's threads are counted.
        src = str(Path(confidence_module.__file__).resolve().parents[1])
        code = textwrap.dedent("""\
            import sys, threading
            sys.path.insert(0, sys.argv[1])
            from confloss import Grid2, confidence, cycle_terms
            seen, real_kernel = set(), confidence._bilinear_points
            def recording_kernel(*args):
                seen.add(threading.current_thread())
                return real_kernel(*args)
            confidence._bilinear_points = recording_kernel
            confidence._WORKERS = 2
            cycle_terms(*(Grid2.zeros(3 * (confidence._CHUNK // 100), 100),) * 2)
            print(len(seen), threading.active_count())
        """)
        out = subprocess.run([sys.executable, "-c", code, src], check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out == "2 1\n"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_check_in_forked_child_finishes(self, monkeypatch):
        monkeypatch.setattr(confidence_module, "_WORKERS", 2)
        pair = (Grid2.zeros(3 * (_CHUNK // 100), 100),) * 2
        cycle_terms(*pair)  # the parent has run a banded check before it forks
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            code = 1
            try:
                cycle_terms(*pair)
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's cycle check did not finish")
        assert os.waitstatus_to_exitcode(status) == 0

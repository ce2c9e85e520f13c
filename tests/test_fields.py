import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from confloss import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    BinaryMask,
    Grid1,
    Grid2,
    backward_warp,
    disparity_to_flow,
    hflip,
    reverse_disparity_restore,
)
from confloss.confidence import cycle_terms
from confloss.fields import _CHUNK, _linear_rows, sample_values

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, width=32)


def grid1_arrays(max_side=8):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda hw: arrays(np.float64, (hw[0], hw[1]), elements=finite))


def grid2_arrays(max_side=8):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda hw: arrays(np.float64, (hw[0], hw[1], 2), elements=finite))


class TestGridConstruction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Grid1(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            Grid2(np.full((2, 2, 2), np.inf))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Grid2(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Grid1(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            BinaryMask(np.zeros((2, 2)))  # not boolean

    @pytest.mark.parametrize("cls, arr", [
        (Grid1, np.zeros(3)),
        (Grid1, np.zeros((2, 2, 1))),
        (BinaryMask, np.zeros(3, dtype=bool)),
        (BinaryMask, np.zeros((2, 2, 2), dtype=bool)),
    ])
    def test_rejects_wrong_number_of_dimensions(self, cls, arr):
        with pytest.raises(ValueError, match=rf"{cls.__name__} expects shape \(H, W\)"):
            cls(arr)

    def test_data_is_immutable(self):
        g = Grid1.zeros(2, 2)
        with pytest.raises(ValueError):
            g.data[0, 0] = 1.0

    @pytest.mark.parametrize("cls, arr", [
        (Grid2, np.arange(12.0).reshape(2, 3, 2)),
        (Grid1, np.arange(6.0).reshape(2, 3)),
        (BinaryMask, np.array([[True, False, True], [False, True, False]])),
    ])
    def test_public_constructor_copies(self, cls, arr):
        g = cls(arr)
        assert arr.flags.writeable and not np.shares_memory(g.data, arr)
        before = g.data.copy()
        arr[0, 0] = ~arr[0, 0] if arr.dtype == bool else -7.0
        np.testing.assert_array_equal(g.data, before)

    @pytest.mark.parametrize("grid", [
        Grid2._own(np.moveaxis(np.arange(24.0).reshape(2, 3, 4), 0, -1)),  # train's layout
        Grid2(np.arange(24.0).reshape(3, 4, 2)),
        Grid1(np.arange(6.0).reshape(2, 3)),
        BinaryMask(np.array([[True, False, True], [False, True, False]])),
    ])
    def test_unpickles_read_only_with_the_same_strides(self, grid):
        back = pickle.loads(pickle.dumps(grid))
        assert type(back) is type(grid)
        assert back.data.dtype == grid.data.dtype and back.data.strides == grid.data.strides
        np.testing.assert_array_equal(back.data, grid.data)
        assert not back.data.flags.writeable

    def test_mask_and_rejects_mismatched_shapes(self):
        # Broadcasting would turn (4, 1) & (1, 3) into a (4, 3) mask.
        with pytest.raises(ValueError, match="dimension mismatch"):
            BinaryMask.full(4, 1) & BinaryMask.full(1, 3)


class TestBilinearSample:
    """Single points through sample_values."""

    def test_exact_at_lattice_point(self):
        arr = np.arange(12.0).reshape(3, 4)
        value, ok = sample_values(arr, 3, 2)
        assert ok and value == arr[2, 3]

    def test_cell_center_average(self):
        value, ok = sample_values(np.array([[0.0, 1.0], [2.0, 3.0]]), 0.5, 0.5)
        assert ok and value == pytest.approx(1.5)

    def test_out_of_bounds_is_flagged_zero(self):
        for x, y in ((-0.01, 0), (0, 2.0001)):
            value, ok = sample_values(np.ones((3, 3)), x, y)
            assert value == 0.0 and not ok

    def test_vector_grid(self):
        value, ok = sample_values(Grid2.constant(2, 2, 1.0, -2.0).data, 0.25, 0.75)
        assert ok and value.shape == (2,)
        np.testing.assert_allclose(value, [1.0, -2.0])

    @given(grid1_arrays(), st.integers(0, 7), st.integers(0, 7))
    def test_lattice_identity_random(self, arr, x, y):
        h, w = arr.shape
        x, y = x % w, y % h
        value, ok = sample_values(arr, x, y)
        assert ok and value == arr[y, x]

    @given(grid1_arrays(), st.floats(0, 1, allow_nan=False), st.integers(0, 7))
    def test_linear_along_rows(self, arr, t, y):
        h, w = arr.shape
        if w < 2:
            return
        y = y % h
        v, ok = sample_values(arr, t, y)
        assert ok
        expected = arr[y, 0] * (1 - t) + arr[y, 1] * t
        assert v == pytest.approx(expected, abs=1e-9)

    @given(grid1_arrays(), st.floats(-0.49, 7.49), st.floats(-0.49, 7.49))
    def test_matches_oracle(self, arr, x, y):
        value, ok = sample_values(arr, x, y)
        expected = oracles.bilinear(arr.tolist(), x, y)
        assert ok == expected[1]
        assert value == pytest.approx(expected[0], abs=1e-9)


def fancy_index_sample(data, xs, ys):
    """sample_values as first written, with 2-D fancy indexing and [..., None]
    broadcasts; kept frozen so that rewrites must reproduce its bits."""
    h, w = data.shape[:2]
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    inb = (xs >= 0.0) & (xs <= w - 1.0) & (ys >= 0.0) & (ys <= h - 1.0)
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xc).astype(np.intp)
    y0 = np.floor(yc).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xc - x0
    fy = yc - y0
    if data.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
    top = data[y0, x0] * (1.0 - fx) + data[y0, x1] * fx
    bot = data[y1, x0] * (1.0 - fx) + data[y1, x1] * fx
    values = top * (1.0 - fy) + bot * fy
    if data.ndim == 3:
        return np.where(inb[..., None], values, 0.0), inb
    return np.where(inb, values, 0.0), inb


def coordinates(n):
    """Sample coordinates along an axis of n pixels: anywhere around the frame,
    on the last pixel, or one ulp outside either edge."""
    edges = [0.0, n - 1.0, np.nextafter(n - 1.0, np.inf), np.nextafter(0.0, -np.inf),
             -1.0, float(n)]
    return st.one_of(st.floats(-1.5, n + 0.5), st.sampled_from(edges))


@st.composite
def sampling_cases(draw):
    """(data, xs, ys): (H, W) or (H, W, 2) data, 0-d or (R, C) coordinates."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shape = (h, w) if draw(st.booleans()) else (h, w, 2)
    data = draw(arrays(np.float64, shape, elements=finite))
    if draw(st.booleans()):
        return data, np.float64(draw(coordinates(w))), np.float64(draw(coordinates(h)))
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    xs = np.array(draw(st.lists(coordinates(w), min_size=r * c, max_size=r * c)))
    ys = np.array(draw(st.lists(coordinates(h), min_size=r * c, max_size=r * c)))
    return data, xs.reshape(r, c), ys.reshape(r, c)


class TestSampleValuesBits:
    @given(sampling_cases())
    @example((np.array([[1.0, 2.0]]), np.float64(1.0), np.float64(0.0)))
    @example((np.array([[[5.0, -0.0]]]), np.array([[0.0, -1e-300, 0.0]]),
              np.array([[0.0, 0.0, np.nextafter(0.0, 1.0)]])))
    @example((np.array([[[1.0, -2.0]], [[3.0, 4.0]]]), np.array([0.0, 1e-300]),
              np.array([1.0, np.nextafter(1.0, 2.0)])))
    def test_equals_fancy_index_version(self, case):
        data, xs, ys = case
        got, got_inb = sample_values(data, xs, ys)
        want, want_inb = fancy_index_sample(data, xs, ys)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(got_inb, want_inb)


def chunked_case(channels):
    """(data, xs, ys) with 2 * _CHUNK + 1000 points, so the sampler works
    through two full chunks and a remainder. Data holds signed zeros; about
    a third of the coordinates sit on an edge, one ulp outside it, at -0.0
    or far off-frame, the rest anywhere around the frame."""
    rng = np.random.default_rng(7)
    h, w = 7, 9
    data = rng.normal(size=(h, w) + channels)
    data[rng.random(data.shape) < 0.3] = -0.0
    points = (_CHUNK // 4 + 125, 8)

    def axis(n):
        coords = rng.uniform(-1.5, n + 0.5, points)
        edges = np.array([0.0, -0.0, n - 1.0, np.nextafter(n - 1.0, np.inf),
                          np.nextafter(0.0, -np.inf), -1e6, 1e6, 2.0])
        pick = rng.random(points) < 0.35
        coords[pick] = rng.choice(edges, pick.sum())
        return coords

    return data, axis(w), axis(h)


@pytest.mark.parametrize("channels", [(), (2,)])
def test_sample_values_across_chunks(channels):
    data, xs, ys = chunked_case(channels)
    assert 2 * _CHUNK < xs.size < 3 * _CHUNK
    got, got_inb = sample_values(data, xs, ys)
    want, want_inb = fancy_index_sample(data, xs, ys)
    assert got.shape == want.shape == xs.shape + channels and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got_inb, want_inb)
    # The case reaches what it is meant to check.
    assert got_inb.any() and not got_inb.all()
    assert (np.signbit(got) & (got == 0)).any()


@st.composite
def row_sampling_cases(draw):
    """(data, xs): an (H, W) array and (H, W) column coordinates."""
    data = draw(grid1_arrays())
    h, w = data.shape
    xs = draw(st.lists(coordinates(w), min_size=h * w, max_size=h * w))
    return data, np.array(xs).reshape(h, w)


_LEFT_OF_0, _RIGHT_OF_2 = np.nextafter(0.0, -np.inf), np.nextafter(2.0, np.inf)


class TestRowSampling:
    @given(row_sampling_cases())
    @example((np.arange(6.0).reshape(2, 3), np.full((2, 3), _LEFT_OF_0)))
    @example((np.arange(6.0).reshape(2, 3), np.zeros((2, 3))))
    @example((np.arange(6.0).reshape(2, 3), np.full((2, 3), 2.0)))
    @example((np.arange(6.0).reshape(2, 3), np.full((2, 3), _RIGHT_OF_2)))
    @example((np.array([[1.0], [-2.0], [3.0]]), np.array([[0.0], [-0.5], [1e-300]])))
    @example((np.array([[1.0, -2.0, 3.0]]), np.array([[0.5, 2.0, _RIGHT_OF_2]])))
    @example((np.array([[-0.0], [1.0]]), np.zeros((2, 1))))
    def test_equals_2d_sampler_on_row_grid(self, case):
        # Bit for bit, but for the sign of a zero: the 2-D formula adds the
        # next row's sample times fy = 0, which turns a -0.0 into +0.0.
        data, xs = case
        rows = np.broadcast_to(np.arange(data.shape[0], dtype=np.float64)[:, None], xs.shape)
        got, got_inb = _linear_rows(data.reshape(-1), data.shape[1], 0, xs)
        want, want_inb = sample_values(data, xs, rows)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got)[got != 0], np.signbit(want)[want != 0])
        assert np.array_equal(got_inb, want_inb)


class TestBackwardWarp:
    def test_zero_flow_is_identity(self):
        field = Grid1(np.arange(20.0).reshape(4, 5))
        warped, valid = backward_warp(field, Grid2.zeros(4, 5))
        np.testing.assert_array_equal(warped.data, field.data)
        assert valid.data.all()

    def test_unit_shift(self):
        field = Grid1(np.arange(16.0).reshape(4, 4))
        warped, valid = backward_warp(field, Grid2.constant(4, 4, 1.0, 0.0))
        np.testing.assert_array_equal(warped.data[:, :3], field.data[:, 1:])
        assert not valid.data[:, 3].any()
        assert valid.data[:, :3].all()
        assert (warped.data[:, 3] == 0).all()

    def test_everything_off_frame(self):
        field = Grid1(np.ones((3, 3)))
        _, valid = backward_warp(field, Grid2.constant(3, 3, 100.0, 0.0))
        assert not valid.data.any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            backward_warp(Grid1.zeros(3, 3), Grid2.zeros(4, 4))

    @given(grid2_arrays())
    def test_zero_flow_identity_random(self, arr):
        h, w = arr.shape[:2]
        warped, valid = backward_warp(Grid2(arr), Grid2.zeros(h, w))
        assert valid.data.all()
        np.testing.assert_array_equal(warped.data, arr)


class TestHflip:
    def test_row_reversal(self):
        g = Grid1(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(hflip(g).data, [[3.0, 2.0, 1.0]])

    def test_width_one_fixed_point(self):
        g = Grid2(np.random.default_rng(0).normal(size=(4, 1, 2)))
        np.testing.assert_array_equal(hflip(g).data, g.data)

    def test_no_sign_change_on_components(self):
        g = Grid2(np.array([[[1.0, 2.0], [-3.0, 4.0]]]))
        np.testing.assert_array_equal(hflip(g).data, [[[-3.0, 4.0], [1.0, 2.0]]])

    def test_mask_flip(self):
        m = BinaryMask(np.array([[True, False, False]]))
        np.testing.assert_array_equal(hflip(m).data, [[False, False, True]])

    @given(grid2_arrays())
    def test_involution(self, arr):
        g = Grid2(arr)
        np.testing.assert_array_equal(hflip(hflip(g)).data, g.data)


class TestReverseDisparityRestore:
    def test_hand_row(self):
        g = Grid1(np.array([[-1.0, -2.0]]))
        np.testing.assert_array_equal(reverse_disparity_restore(g).data, [[2.0, 1.0]])

    def test_constant_sign(self):
        g = Grid1.full(3, 4, -5.0)
        np.testing.assert_array_equal(reverse_disparity_restore(g).data,
                                      np.full((3, 4), 5.0))

    @given(grid1_arrays())
    def test_involution(self, arr):
        g = Grid1(arr)
        restored = reverse_disparity_restore(reverse_disparity_restore(g))
        np.testing.assert_array_equal(restored.data, g.data)


class TestDisparityToFlow:
    def test_sign_convention(self):
        d = Grid1.full(2, 3, 3.0)
        lr = disparity_to_flow(d, LEFT_TO_RIGHT)
        rl = disparity_to_flow(d, RIGHT_TO_LEFT)
        assert (lr.data[..., 0] == -3.0).all() and (lr.data[..., 1] == 0.0).all()
        assert (rl.data[..., 0] == 3.0).all() and (rl.data[..., 1] == 0.0).all()

    def test_zero_disparity(self):
        flow = disparity_to_flow(Grid1.zeros(2, 2), LEFT_TO_RIGHT)
        np.testing.assert_array_equal(flow.data, np.zeros((2, 2, 2)))

    def test_negative_warns(self):
        with pytest.warns(RuntimeWarning):
            disparity_to_flow(Grid1.full(1, 1, -1.0), LEFT_TO_RIGHT)

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            disparity_to_flow(Grid1.zeros(1, 1), "up")

    @given(st.integers(0, 4), st.integers(4, 8))
    def test_consistent_pair_has_zero_cycle_residual(self, c, w):
        d = Grid1.full(4, w, float(c))
        num, _, target_valid = cycle_terms(disparity_to_flow(d, LEFT_TO_RIGHT),
                                           disparity_to_flow(d, RIGHT_TO_LEFT))
        interior = target_valid.data
        assert interior[:, c:].all()  # targets of columns >= c stay in frame
        assert (num.data[interior] == 0).all()

import io
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from confloss import BinaryMask, Grid1, Grid2, MetricReport
from confloss.fileio import (
    METRICS_COLUMNS,
    FormatError,
    read_flo,
    read_pfm,
    read_pgm_mask,
    write_comparison_csv,
    write_flo,
    write_metrics_csv,
    write_pfm,
    write_pgm,
)

# float32-representable finite values, so round trips can be bit-exact
f32 = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32)


SIGNALLING_NAN = 0x7F800001  # float32 bits: exponent all ones, quiet bit clear
HALF, QUIET_NAN, PLUS_1E9, MINUS_1E9 = 0x3F000000, 0x7FC00000, 0x4E6E6B28, 0xCE6E6B28


def words_with(shape, *changes):
    """float32 words of 0.5 in `shape`, with (flat index, word) changes."""
    words = np.full(shape, HALF, dtype=np.uint32)
    for index, word in changes:
        words.flat[index] = word
    return words


def payload_words(shape_tail, special):
    """uint32 arrays of 1..6 x 1..6 (x shape_tail), biased towards `special`."""
    return st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda hw: arrays(np.uint32, hw + shape_tail, elements=st.one_of(
            st.sampled_from(special), st.integers(0, 2**32 - 1))))


def grid2s(max_side=6):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda hw: arrays(np.float64, (hw[0], hw[1], 2), elements=f32))


def grid1s(max_side=6):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda hw: arrays(np.float64, (hw[0], hw[1]), elements=f32))


class TestFlo:
    def test_magic_bytes_are_pieh(self):
        blob = write_flo(Grid2.zeros(1, 1))
        assert blob[:4] == b"PIEH"
        assert struct.unpack("<f", blob[:4])[0] == 202021.25

    def test_round_trip_small(self):
        rng = np.random.default_rng(0)
        grid = Grid2(rng.normal(size=(4, 5, 2)).astype(np.float32))
        back, valid = read_flo(write_flo(grid))
        np.testing.assert_array_equal(back.data, grid.data)
        assert valid.data.all()

    @given(grid2s())
    @settings(max_examples=120)
    def test_round_trip_random(self, arr):
        grid = Grid2(arr)
        back, valid = read_flo(write_flo(grid))
        np.testing.assert_array_equal(back.data, grid.data)
        assert valid.data.all()

    def test_nan_sentinel_marks_invalid(self):
        blob = write_flo(Grid2.zeros(2, 2))
        payload = bytearray(blob)
        payload[12:16] = struct.pack("<f", np.nan)  # u of pixel (0, 0)
        payload[20:24] = struct.pack("<f", 2e9)     # u of pixel (0, 1)
        grid, valid = read_flo(bytes(payload))
        assert not valid.data[0, 0] and not valid.data[0, 1]
        assert valid.data[1].all()
        assert (grid.data[0, 0] == 0).all() and (grid.data[0, 1] == 0).all()

    def test_unknown_flow_per_component(self):
        # Row 0 puts each value in u, row 1 in v; a pixel is known only when
        # both of its components are finite and below the 1e9 sentinel.
        below = float(np.nextafter(np.float32(1e9), np.float32(0)))  # 999999936
        values = [np.nan, np.inf, -np.inf, 1e9, -1e9, below, -below, 1.5, -0.0]
        raw = np.empty((2, len(values), 2), dtype="<f4")
        raw[0, :, 0], raw[0, :, 1] = values, 0.25
        raw[1, :, 0], raw[1, :, 1] = -0.5, values
        blob = struct.pack("<fii", 202021.25, len(values), 2) + raw.tobytes()
        grid, valid = read_flo(blob)
        known = np.array([False] * 5 + [True] * 4)
        np.testing.assert_array_equal(valid.data, [known, known])
        expected = np.where(known[None, :, None], raw.astype(np.float64), 0.0)
        np.testing.assert_array_equal(grid.data, expected)
        assert np.array_equal(np.signbit(grid.data), np.signbit(expected))
        assert np.isfinite(grid.data).all()
        assert not grid.data.flags.writeable and not valid.data.flags.writeable

    def test_signalling_nan_reads_unknown_without_warning(self):
        raw = np.full((1, 2, 2), 0.5, dtype="<f4")
        raw.view("<u4")[0, 0, 1] = SIGNALLING_NAN  # v of pixel (0, 0)
        blob = struct.pack("<fii", 202021.25, 2, 1) + raw.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid, valid = read_flo(blob)
        np.testing.assert_array_equal(valid.data, [[False, True]])
        np.testing.assert_array_equal(grid.data, [[[0.0, 0.0], [0.5, 0.5]]])

    # Any float32 bits, biased towards infinities, NaNs and the sentinel. The
    # examples take both of read_flo's paths on every run: every sample known
    # (some just under the sentinel), or one unknown among known samples.
    @given(payload_words((2,), [0x7F800000, 0xFF800000, SIGNALLING_NAN, QUIET_NAN, 0xFFFFFFFF,
                                PLUS_1E9, MINUS_1E9, 0x4E6E6B27, 0x80000000]))
    @example(words_with((2, 3, 2)))
    @example(words_with((2, 3, 2), (0, 0xCE6E6B27), (-1, 0x4E6E6B27)))  # +-999999936
    @example(words_with((2, 3, 2), (-1, QUIET_NAN)))
    @example(words_with((2, 3, 2), (-1, PLUS_1E9)))
    @example(words_with((2, 3, 2), (0, MINUS_1E9)))
    @example(words_with((2, 3, 2), (-1, SIGNALLING_NAN)))  # warnings are errors here
    @settings(max_examples=150)
    def test_payload_bits_read_as_frozen_reader(self, words):
        h, w, _ = words.shape
        payload = words.astype("<u4").tobytes()
        grid, valid = read_flo(struct.pack("<fii", 202021.25, w, h) + payload)
        # read_flo's payload step before it zero-filled only when a sample is
        # unknown (a frozen copy, with its cast's invalid-value warning silenced).
        raw = np.frombuffer(payload, dtype="<f4").reshape(h, w, 2)
        ok = np.abs(raw) < 1e9
        known = ok[..., 0] & ok[..., 1]
        with np.errstate(invalid="ignore"):
            frozen = raw.astype(np.float64)
        frozen[~known] = 0.0
        np.testing.assert_array_equal(grid.data.view(np.int64), frozen.view(np.int64))
        np.testing.assert_array_equal(valid.data, known)

    def test_bad_magic(self):
        with pytest.raises(FormatError) as err:
            read_flo(b"JUNK" + b"\x00" * 20)
        assert err.value.reason == "bad_magic"

    def test_truncated_payload(self):
        blob = write_flo(Grid2.zeros(3, 3))
        with pytest.raises(FormatError) as err:
            read_flo(blob[:-5])
        assert err.value.reason == "truncated"

    def test_truncated_header(self):
        with pytest.raises(FormatError) as err:
            read_flo(b"PIEH")
        assert err.value.reason == "truncated"

    def test_nonpositive_dimensions(self):
        blob = struct.pack("<fii", 202021.25, -1, 4)
        with pytest.raises(FormatError) as err:
            read_flo(blob)
        assert err.value.reason == "bad_dimensions"

    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_fuzz_never_crashes(self, blob):
        try:
            read_flo(blob)
        except FormatError:
            pass


F32_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize("write, grid", [
    (write_flo, lambda v: Grid2.constant(2, 3, 0.0, v)),
    (write_pfm, lambda v: Grid1.full(2, 3, v)),
], ids=("flo", "pfm"))
def test_writer_rejects_values_beyond_float32(write, grid):
    # The largest finite float32 still writes; past it the cast would give Inf.
    for value in (F32_MAX, -F32_MAX):
        write(grid(value))
    for value in (1.0001 * F32_MAX, -2 * F32_MAX):
        with pytest.raises(ValueError, match="outside the float32 range"):
            write(grid(value))


class TestPfm:
    def test_round_trip_small(self):
        rng = np.random.default_rng(1)
        grid = Grid1(rng.normal(size=(3, 6)).astype(np.float32))
        back, valid = read_pfm(write_pfm(grid))
        np.testing.assert_array_equal(back.data, grid.data)
        assert valid.data.all()

    @given(grid1s())
    @settings(max_examples=120)
    def test_round_trip_random(self, arr):
        grid = Grid1(arr)
        back, valid = read_pfm(write_pfm(grid))
        np.testing.assert_array_equal(back.data, grid.data)
        assert valid.data.all()

    def test_writer_is_little_endian(self):
        blob = write_pfm(Grid1.zeros(2, 2))
        header_lines = blob.split(b"\n", 3)
        assert header_lines[0] == b"Pf"
        assert float(header_lines[2]) < 0

    def test_big_endian_read(self):
        values = np.array([[1.5, -2.0, 3.25], [0.0, 7.0, -0.5]], dtype=np.float32)
        big = b"Pf\n3 2\n1.0\n" + values[::-1].astype(">f4").tobytes()
        little = b"Pf\n3 2\n-1.0\n" + values[::-1].astype("<f4").tobytes()
        from_big, _ = read_pfm(big)
        from_little, _ = read_pfm(little)
        np.testing.assert_array_equal(from_big.data, from_little.data)
        np.testing.assert_array_equal(from_big.data, values.astype(np.float64))

    def test_color_pfm_rejected(self):
        blob = b"PF\n1 1\n-1.0\n" + b"\x00" * 12
        with pytest.raises(FormatError) as err:
            read_pfm(blob)
        assert err.value.reason == "unsupported_format"

    def test_bad_header(self):
        with pytest.raises(FormatError) as err:
            read_pfm(b"Px\n1 1\n-1.0\n" + b"\x00" * 4)
        assert err.value.reason == "bad_header"

    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf"])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(FormatError) as err:
            read_pfm(b"Pf\n1 1\n" + scale + b"\n" + b"\x00" * 4)
        assert err.value.reason == "bad_header"

    def test_truncation(self):
        blob = write_pfm(Grid1.zeros(4, 4))
        with pytest.raises(FormatError) as err:
            read_pfm(blob[:-3])
        assert err.value.reason == "truncated"

    def test_nonfinite_samples_marked_invalid(self):
        payload = np.array([[np.inf, 1.0]], dtype="<f4")
        blob = b"Pf\n2 1\n-1.0\n" + payload.tobytes()
        grid, valid = read_pfm(blob)
        assert grid.data[0, 0] == 0.0 and not valid.data[0, 0]
        assert grid.data[0, 1] == 1.0 and valid.data[0, 1]
        assert np.isfinite(grid.data).all()
        assert not grid.data.flags.writeable and not valid.data.flags.writeable

    @pytest.mark.parametrize("endian, scale", [("<", b"-1.0"), (">", b"1.0")])
    def test_signalling_nan_reads_unknown_without_warning(self, endian, scale):
        words = np.array([[SIGNALLING_NAN, 0x3F000000]], dtype=endian + "u4")  # sNaN, 0.5
        blob = b"Pf\n2 1\n" + scale + b"\n" + words.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid, valid = read_pfm(blob)
        np.testing.assert_array_equal(valid.data, [[False, True]])
        np.testing.assert_array_equal(grid.data, [[0.0, 0.5]])

    # Any float32 bits, biased towards infinities, NaNs and signed zeros; the
    # examples put every sample, or all but one, in range on every run.
    @given(payload_words((), [0x7F800000, 0xFF800000, SIGNALLING_NAN, QUIET_NAN, 0xFFFFFFFF,
                              0x80000000, 0x00000001]),
           st.sampled_from(("<", ">")))
    @example(words_with((2, 3)), "<")
    @example(words_with((2, 3), (0, 0x7F7FFFFF), (-1, 0xFF7FFFFF)), ">")  # +-float32 max
    @example(words_with((2, 3), (-1, QUIET_NAN)), "<")
    @example(words_with((2, 3), (-1, 0xFF800000)), ">")
    @example(words_with((2, 3), (-1, SIGNALLING_NAN)), "<")  # warnings are errors here
    @example(words_with((2, 3), (-1, SIGNALLING_NAN)), ">")
    @settings(max_examples=150)
    def test_payload_bits_read_as_frozen_reader(self, words, endian):
        h, w = words.shape
        payload = words.astype(endian + "u4").tobytes()
        scale = b"-1.0" if endian == "<" else b"1.0"
        grid, valid = read_pfm(b"Pf\n%d %d\n%s\n" % (w, h, scale) + payload)
        # read_pfm's payload step before the one-pass read (a frozen copy,
        # with its cast's invalid-value warning silenced).
        with np.errstate(invalid="ignore"):
            raw = np.frombuffer(payload, dtype=endian + "f4").astype(np.float64)
        raw = raw.reshape(h, w)[::-1]
        finite = np.isfinite(raw)
        frozen = np.where(finite, raw, 0.0)
        np.testing.assert_array_equal(grid.data.view(np.int64), frozen.view(np.int64))
        np.testing.assert_array_equal(valid.data, finite)

    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_fuzz_never_crashes(self, blob):
        try:
            read_pfm(blob)
        except FormatError:
            pass


class TestPgm:
    def test_full_confidence_is_white(self):
        blob = write_pgm(Grid1.full(2, 3, 1.0))
        assert blob == b"P5\n3 2\n255\n" + b"\xff" * 6

    def test_half_rounds_up(self):
        blob = write_pgm(Grid1.full(1, 1, 0.5))
        assert blob[-1] == 128

    def test_mask_is_bilevel(self):
        mask = BinaryMask(np.array([[True, False]]))
        blob = write_pgm(mask)
        assert blob[-2:] == bytes([255, 0])

    def test_unit_range_default_for_confidence_like_maps(self):
        blob = write_pgm(Grid1(np.array([[0.0, 0.25]])))
        assert blob[-2:] == bytes([0, 64])  # 0.25*255 = 63.75 -> 64

    def test_clamping(self):
        blob = write_pgm(Grid1(np.array([[-5.0, 5.0]])))
        assert blob[-2:] == bytes([0, 255])

    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=st.one_of(
                      st.floats(-3.0, 4.0),
                      # round-half-up boundaries: (k + 0.5) / 255 and its neighbours
                      st.integers(-1, 255).map(lambda k: (k + 0.5) / 255.0),
                      st.integers(-1, 255).map(lambda k: np.nextafter((k + 0.5) / 255.0, 0)),
                      st.integers(-1, 255).map(lambda k: np.nextafter((k + 0.5) / 255.0, 1)),
                      st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e300, -1e300]))))
    @settings(max_examples=150)
    def test_scalar_bytes_as_frozen_writer(self, arr):
        # write_pgm's scalar path before it worked in place (a frozen copy).
        frozen = np.floor(np.clip(arr, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
        h, w = arr.shape
        assert write_pgm(Grid1(arr)) == b"P5\n%d %d\n255\n" % (w, h) + frozen.tobytes()

    @given(arrays(np.bool_, st.tuples(st.integers(1, 5), st.integers(1, 5))))
    @example(np.array([[True, False, True]]))
    def test_mask_bytes_as_frozen_writer(self, arr):
        # write_pgm's mask path before it scaled the mask's bytes (a frozen copy).
        frozen = np.where(arr, 255, 0).astype(np.uint8)
        h, w = arr.shape
        assert write_pgm(BinaryMask(arr)) == b"P5\n%d %d\n255\n" % (w, h) + frozen.tobytes()

    def test_mask_round_trip(self):
        rng = np.random.default_rng(3)
        mask = BinaryMask(rng.random((5, 4)) > 0.5)
        back = read_pgm_mask(write_pgm(mask))
        np.testing.assert_array_equal(back.data, mask.data)

    def test_mask_reader_rejects_garbage(self):
        with pytest.raises(FormatError):
            read_pgm_mask(b"P6\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            read_pgm_mask(b"P5\n4 4\n255\n\x00")  # truncated

    @given(st.binary(max_size=100))
    @settings(max_examples=100)
    def test_mask_fuzz_never_crashes(self, blob):
        try:
            read_pgm_mask(blob)
        except FormatError:
            pass


def _sample_report(**overrides):
    fields = dict(
        epe=1.5,
        outlier_rates={0.5: 50.0, 1.0: 10.0, 2.0: 7.0, 3.0: 5.0, 5.0: 1.0},
        fl_all=4.0,
        speed_binned_epe=(0.5, 1.0, None),
        matched_epe=1.2,
        unmatched_epe=None,
        pixel_counts={"valid": 64, "matched": 60, "unmatched": 4},
    )
    fields.update(overrides)
    return MetricReport(**fields)


class TestMetricsCsv:
    def test_format_and_na(self):
        buf = io.StringIO()
        write_metrics_csv(_sample_report(), buf)
        header, row = buf.getvalue().strip().split("\n")
        assert header == ",".join(METRICS_COLUMNS)
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["epe"] == "1.5000"
        assert cells["epe_unmatched"] == "NA"
        assert cells["s40plus"] == "NA"
        assert cells["n_valid"] == "64"
        assert cells["avg_err"] == cells["epe"]
        assert (cells["bad_1"], cells["bad_3"]) == (cells["px1"], cells["px3"])
        assert (cells["bad_0.5"], cells["bad_2"]) == ("50.0000", "7.0000")

    def test_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        write_metrics_csv(_sample_report(), a)
        write_metrics_csv(_sample_report(), b)
        assert a.getvalue() == b.getvalue()


def test_comparison_csv():
    from confloss.toytrain import ComparisonRow
    rows = [ComparisonRow(mode="plain_l1", epe=1.0, epe_matched=0.5,
                          epe_unmatched=None, px3=2.5, n_seeds=3, per_seed=())]
    buf = io.StringIO()
    write_comparison_csv(rows, buf)
    assert buf.getvalue() == ("mode,epe,epe_matched,epe_unmatched,px3,seeds\n"
                              "plain_l1,1.0000,0.5000,NA,2.5000,3\n")

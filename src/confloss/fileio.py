"""Byte-level readers and writers: .flo flow fields, PFM scalar maps, PGM
visualizations, and the metrics CSV row format.

Every reader maps malformed input to FormatError (with a machine-readable
.reason) instead of crashing; round trips are bit-exact for values that are
representable in the formats' 32-bit floats.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from .fields import BinaryMask, Grid1, Grid2
from .metrics import BAD_P_THRESHOLDS, OUTLIER_THRESHOLDS, MetricReport

FLO_MAGIC = 202021.25  # serializes to b"PIEH" as a little-endian float32
FLO_SENTINEL = 1e9  # components at or beyond this magnitude mark unknown flow


class FormatError(ValueError):
    """Malformed file content. .reason is a stable machine-readable code."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def read_flo(data: bytes):
    """Parse a Middlebury .flo byte string.

    Returns (flow, valid): pixels whose stored components are NaN or exceed
    the unknown-flow sentinel come back as 0 with valid False.
    """
    if len(data) < 12:
        raise FormatError("truncated", f"flo header needs 12 bytes, got {len(data)}")
    magic, width, height = struct.unpack("<fii", data[:12])
    if magic != FLO_MAGIC:
        raise FormatError("bad_magic", f"bad flo magic {magic!r} (header {data[:4]!r})")
    if width <= 0 or height <= 0:
        raise FormatError("bad_dimensions", f"nonpositive flo dimensions {width}x{height}")
    n = height * width * 2
    avail = (len(data) - 12) // 4
    if avail < n:
        raise FormatError("truncated", f"flo payload has {avail} floats, needs {n}")
    raw = np.frombuffer(data, dtype="<f4", offset=12, count=n).reshape(height, width, 2)
    with np.errstate(invalid="ignore"):  # a signalling NaN is unknown like any NaN
        # Two reductions decide whether every sample is known; NaN fails both.
        if -FLO_SENTINEL < raw.min() and raw.max() < FLO_SENTINEL:
            known = np.ones((height, width), dtype=bool)
            return Grid2._own(raw.astype(np.float64)), BinaryMask._own(known)
        ok = np.abs(raw) < FLO_SENTINEL  # False for NaN and +-Inf as well
        flow = raw.astype(np.float64)
    known = ok[..., 0] & ok[..., 1]
    flow[~known] = 0.0
    return Grid2._own(flow), BinaryMask._own(known)


def _float32_bytes(arr: np.ndarray) -> bytes:
    """arr as little-endian float32 bytes; ValueError where the cast gives Inf."""
    try:
        with np.errstate(over="raise"):
            return arr.astype("<f4").tobytes()
    except FloatingPointError:
        raise ValueError("cannot write a value outside the float32 range "
                         f"(+-{np.finfo(np.float32).max:.8g})") from None


def write_flo(flow: Grid2) -> bytes:
    header = struct.pack("<fii", FLO_MAGIC, flow.width, flow.height)
    return header + _float32_bytes(flow.data)


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skips whitespace and '#' comment lines, returns (token, pos past token).
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError("truncated", "header ended before all fields were read")
    return data[start:pos], pos


def read_pfm(data: bytes):
    """Parse a scalar PFM ("Pf") byte string.

    Handles both endiannesses (negative scale = little-endian; a zero or
    non-finite scale is a bad header); rows are stored bottom-to-top.
    Returns (grid, valid) with non-finite samples mapped to 0 / invalid,
    mirroring read_flo.
    """
    try:
        kind, pos = _next_token(data, 0)
    except FormatError:
        raise FormatError("bad_header", "empty PFM input") from None
    if kind == b"PF":
        raise FormatError("unsupported_format", "color PFM (PF) is not supported, only Pf")
    if kind != b"Pf":
        raise FormatError("bad_header", f"not a PFM header: {kind!r}")
    wtok, pos = _next_token(data, pos)
    htok, pos = _next_token(data, pos)
    stok, pos = _next_token(data, pos)
    try:
        width, height = int(wtok), int(htok)
        scale = float(stok)
    except ValueError:
        raise FormatError("bad_header",
                          f"bad PFM dimension/scale fields {wtok!r} {htok!r} {stok!r}") from None
    if width <= 0 or height <= 0:
        raise FormatError("bad_dimensions", f"nonpositive PFM dimensions {width}x{height}")
    if scale == 0:
        raise FormatError("bad_header", "PFM scale must be nonzero")
    if not np.isfinite(scale):
        raise FormatError("bad_header", f"PFM scale must be finite, got {stok!r}")
    pos += 1  # exactly one whitespace byte separates the header from the data
    endian = "<" if scale < 0 else ">"
    n = height * width
    avail = (len(data) - pos) // 4
    if avail < n:
        raise FormatError("truncated", f"PFM payload has {max(avail, 0)} floats, needs {n}")
    payload = np.frombuffer(data, dtype=endian + "f4", offset=pos, count=n)
    with np.errstate(invalid="ignore"):  # a signalling NaN is unknown like any NaN
        grid = payload.reshape(height, width)[::-1].astype(np.float64)  # contiguous
    finite = np.isfinite(grid)
    if not finite.all():
        np.copyto(grid, 0.0, where=~finite)
    return Grid1._own(grid), BinaryMask._own(finite)


def write_pfm(grid: Grid1) -> bytes:
    header = b"Pf\n%d %d\n-1.0\n" % (grid.width, grid.height)
    return header + _float32_bytes(grid.data[::-1])


def write_pgm(m: Grid1 | BinaryMask) -> bytes:
    """Render a map as a binary 8-bit PGM (P5, maxval 255).

    Masks come out bilevel (False=0, True=255). Scalar maps are clamped to
    [0, 1] and mapped onto [0, 255] with round-half-up.
    """
    if isinstance(m, BinaryMask):
        pixels = m.data.view(np.uint8) * np.uint8(255)
    else:
        c = np.clip(m.data, 0.0, 1.0)  # floor(c * 255 + 0.5), updated in place
        c *= 255.0
        c += 0.5
        pixels = c.astype(np.uint8)  # the cast truncates, which floors c >= 0.5
    header = b"P5\n%d %d\n255\n" % (pixels.shape[1], pixels.shape[0])
    return header + pixels.tobytes()


def read_pgm_mask(data: bytes) -> BinaryMask:
    """Parse a binary PGM into a mask: samples >= half the maxval are True."""
    kind, pos = _next_token(data, 0)
    if kind != b"P5":
        raise FormatError("bad_header", f"not a binary PGM header: {kind!r}")
    wtok, pos = _next_token(data, pos)
    htok, pos = _next_token(data, pos)
    mtok, pos = _next_token(data, pos)
    try:
        width, height, maxval = int(wtok), int(htok), int(mtok)
    except ValueError:
        raise FormatError("bad_header", "bad PGM header fields") from None
    if width <= 0 or height <= 0:
        raise FormatError("bad_dimensions", f"nonpositive PGM dimensions {width}x{height}")
    if not (0 < maxval < 256):
        raise FormatError("unsupported_format", f"PGM maxval {maxval} not in 1..255")
    pos += 1
    n = height * width
    if len(data) - pos < n:
        raise FormatError("truncated", f"PGM payload has {len(data) - pos} bytes, needs {n}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=pos, count=n).reshape(height, width)
    return BinaryMask._own(pixels >= (maxval + 1) // 2)


METRICS_COLUMNS = (
    ["epe"]
    + [f"px{t:g}" for t in OUTLIER_THRESHOLDS]
    + ["fl_all", "s0_10", "s10_40", "s40plus", "epe_matched", "epe_unmatched", "avg_err"]
    + [f"bad_{t:g}" for t in BAD_P_THRESHOLDS]
    + ["n_valid", "n_matched", "n_unmatched"]
)


def _cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4f}"


def write_metrics_csv(report: MetricReport, stream) -> None:
    """One header row plus one data row; None becomes "NA", floats get 4
    decimals. The column order is fixed (see METRICS_COLUMNS). ``avg_err``
    is ``epe`` and each ``bad_p`` is the outlier rate at p px, so bad_1 and
    bad_3 repeat px1 and px3."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    row = (
        [report.epe]
        + [report.outlier_rates[t] for t in OUTLIER_THRESHOLDS]
        + [report.fl_all]
        + list(report.speed_binned_epe)
        + [report.matched_epe, report.unmatched_epe, report.epe]
        + [report.outlier_rates[t] for t in BAD_P_THRESHOLDS]
        + [report.pixel_counts["valid"], report.pixel_counts["matched"],
           report.pixel_counts["unmatched"]]
    )
    writer.writerow([_cell(v) for v in row])


COMPARISON_COLUMNS = ("mode", "epe", "epe_matched", "epe_unmatched", "px3", "seeds")


def write_comparison_csv(rows, stream) -> None:
    """Rows of per-mode seed-averaged results (see toytrain.compare_runs)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(COMPARISON_COLUMNS)
    for row in rows:
        writer.writerow([row.mode, _cell(row.epe), _cell(row.epe_matched),
                         _cell(row.epe_unmatched), _cell(row.px3), row.n_seeds])

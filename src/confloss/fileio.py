"""Byte-level readers and writers: .flo flow fields, PFM scalar maps, PGM
visualizations, and the metrics CSV row format.

Every reader maps malformed input to FormatError (with a machine-readable
.reason) instead of crashing; round trips are bit-exact for values that are
representable in the formats' 32-bit floats.
"""

from __future__ import annotations

import csv
import re
import struct

import numpy as np

from .fields import BinaryMask, Grid1, Grid2
from .metrics import BAD_P_THRESHOLDS, OUTLIER_THRESHOLDS, MetricReport

FLO_MAGIC = 202021.25  # serializes to b"PIEH" as a little-endian float32
FLO_SENTINEL = 1e9  # components at or beyond this magnitude mark unknown flow


class FormatError(ValueError):
    """Malformed file content. .reason is a stable machine-readable code, one
    of "truncated", "bad_magic", "bad_dimensions", "bad_header" and
    "unsupported_format"."""

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


# A header token after whitespace and '#' comments: a comment runs to the end
# of its line (never backtracked into), and a '#' inside a token is part of it.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)")


# The largest image side a header may give (the int32 bound of .flo headers),
# so that a side, or the sample count, prints in a short error message.
_MAX_SIDE = 2**31 - 1


def _shown(field) -> str:
    """A header field for an error message: a token's repr or a number, cut
    to its first 40 characters and its length when over 200."""
    text = repr(field) if isinstance(field, bytes) else str(field)
    return text if len(text) <= 200 else f"{text[:40]}... ({len(text)} characters)"


def _header(data: bytes, kind: re.Match | None, name: str, third, bad_fields: str):
    """Width, height and third field (parsed by `third`) of a PFM/PGM header
    after its kind token (None: the input has none, so it is truncated). A
    field that does not parse gives bad_fields, formatted with the 3 tokens.
    Returns (width, height, third value, third token, payload offset)."""
    tokens, match = [], kind
    for _ in range(3):
        match = match and _TOKEN.match(data, match.end())
        if match is None:
            raise FormatError("truncated", "header ended before all fields were read")
        tokens.append(match[1])
    try:
        width, height, value = int(tokens[0]), int(tokens[1]), third(tokens[2])
    except ValueError:
        raise FormatError("bad_header", bad_fields.format(*map(_shown, tokens))) from None
    if width <= 0 or height <= 0 or max(width, height) > _MAX_SIDE:
        dims = f"{name} dimensions {_shown(width)}x{_shown(height)}"
        raise FormatError("bad_dimensions", f"nonpositive {dims}" if min(width, height) <= 0
                          else f"{dims} exceed {_MAX_SIDE}")
    return width, height, value, tokens[2], match.end() + 1  # one whitespace byte ends it


def read_pfm(data: bytes):
    """Parse a scalar PFM ("Pf") byte string.

    Handles both endiannesses (negative scale = little-endian; a zero or
    non-finite scale is a bad header); rows are stored bottom-to-top.
    Returns (grid, valid) with non-finite samples mapped to 0 / invalid,
    mirroring read_flo.
    """
    kind = _TOKEN.match(data)
    if kind is None:
        raise FormatError("bad_header", "empty PFM input")
    if kind[1] == b"PF":
        raise FormatError("unsupported_format", "color PFM (PF) is not supported, only Pf")
    if kind[1] != b"Pf":
        raise FormatError("bad_header", f"not a PFM header: {kind[1]!r}")
    width, height, scale, stok, pos = _header(data, kind, "PFM", float,
                                              "bad PFM dimension/scale fields {} {} {}")
    if scale == 0:
        raise FormatError("bad_header", "PFM scale must be nonzero")
    if not np.isfinite(scale):
        raise FormatError("bad_header", f"PFM scale must be finite, got {_shown(stok)}")
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
    kind = _TOKEN.match(data)
    if kind is not None and kind[1] != b"P5":
        raise FormatError("bad_header", f"not a binary PGM header: {kind[1]!r}")
    width, height, maxval, _, pos = _header(data, kind, "PGM", int, "bad PGM header fields")
    if not (0 < maxval < 256):
        raise FormatError("unsupported_format", f"PGM maxval {_shown(maxval)} not in 1..255")
    n, avail = height * width, len(data) - pos
    if avail < n:
        raise FormatError("truncated", f"PGM payload has {max(avail, 0)} bytes, needs {n}")
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

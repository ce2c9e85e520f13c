"""Evaluation metrics for flow and disparity: end-point error, outlier
percentages, magnitude-binned errors, and region (matched/unmatched) splits.
full_report runs on the row bands of confidence._in_row_bands, as the
losses do.

Empty regions yield None (a typed not-available marker), never 0; silent
zeros would corrupt downstream table aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confidence import _in_row_bands
from .fields import BinaryMask, Grid1, Grid2, check_pair, check_same_shape

OUTLIER_THRESHOLDS = (1.0, 3.0, 5.0)
BAD_P_THRESHOLDS = (0.5, 1.0, 2.0, 3.0)
_THRESHOLDS = sorted({*OUTLIER_THRESHOLDS, *BAD_P_THRESHOLDS})


@dataclass(frozen=True)
class MetricReport:
    """One row's worth of evaluation numbers. None marks ``not available``.

    ``outlier_rates`` maps every threshold of OUTLIER_THRESHOLDS (flow's px
    rates) and BAD_P_THRESHOLDS (stereo's bad-p rates) to the percentage of
    valid pixels with error strictly above it. The mean error serves as both
    flow's EPE and stereo's average error.
    """

    epe: float | None
    outlier_rates: dict[float, float | None]
    fl_all: float | None
    speed_binned_epe: tuple[float | None, float | None, float | None]
    matched_epe: float | None
    unmatched_epe: float | None
    pixel_counts: dict[str, int]


def _norm(a: np.ndarray) -> np.ndarray:
    """Per-pixel Euclidean norm of (rows, W, 2) data, |a| of (rows, W) data."""
    if a.ndim == 2:
        return np.abs(a)
    out = a[..., 0] * a[..., 0]
    out += a[..., 1] * a[..., 1]
    return np.sqrt(out, out=out)


def epe_map(pred: Grid2 | Grid1, gt: Grid2 | Grid1) -> Grid1:
    """Per-pixel end-point error: Euclidean norm of the prediction error.

    For scalar grids this is the absolute disparity error.
    """
    check_pair(pred, gt)
    return Grid1._own(_norm(pred.data - gt.data))


def magnitude_map(gt: Grid2 | Grid1) -> Grid1:
    """Euclidean magnitude of the ground-truth field."""
    return Grid1._own(_norm(gt.data))


def _mean(pieces) -> float | None:
    """The mean of the pieces joined in order, None if they are empty."""
    values = np.concatenate(pieces)
    return float(values.mean()) if values.size else None


def _percent(count: int, n: int) -> float | None:
    return float(100.0 * count / n) if n else None


def _pack(pieces, out: np.ndarray) -> list[np.ndarray]:
    """Copy the pieces one after another into out; returns the copies."""
    copies, at = [], 0
    for piece in pieces:
        copies.append(out[at:at + piece.size])
        copies[-1][...] = piece
        at += piece.size
    return copies


def full_report(pred: Grid2 | Grid1, gt: Grid2 | Grid1, valid: BinaryMask,
                region: BinaryMask | None = None) -> MetricReport:
    """Every metric on one prediction, with an optional matched-region split.

    The region mask selects the matched pixels; its complement is the
    unmatched region. All metrics derive from the error and GT-magnitude
    maps, so the same report applies to flow fields and disparity maps:
    the mean error over the valid pixels; the percentage of them with error
    strictly above each threshold; Fl-all, the percentage with error > 3 px
    and > 5% of the GT magnitude; the mean error in the GT-magnitude bins
    [0, 10), [10, 40] and (40, inf); and the mean error of the matched and
    unmatched valid pixels.

    Each row band computes its valid pixels' errors, its counts, and its
    pieces of each speed bin and region; the pieces are joined in band
    order, so every mean is taken over the array a whole-frame pass would
    select, with its bits.
    """
    check_pair(pred, gt)
    h, w = check_same_shape(*(g for g in (pred, valid, region) if g is not None))
    # The valid pixels in row-major order: rows r0 .. r1 - 1 own entries
    # start[r0] .. start[r1] - 1 of err, by_bin and by_region, so each band
    # writes only memory allocated here.
    start = np.zeros(h + 1, dtype=np.intp)
    np.cumsum(np.count_nonzero(valid.data, axis=1), out=start[1:])
    n = int(start[-1])
    err, by_bin, by_region = np.empty(n), np.empty(n), np.empty(n)
    bands = {}

    def band(r0, r1):
        ok, own = valid.data[r0:r1], slice(start[r0], start[r1])
        e = err[own]
        e[...] = _norm(pred.data[r0:r1] - gt.data[r0:r1])[ok]
        mag = _norm(gt.data[r0:r1])[ok]
        bad = [np.count_nonzero(e > t) for t in _THRESHOLDS]
        bad.append(np.count_nonzero((e > 3.0) & (e > 0.05 * mag)))
        bins = (e[mag < 10.0], e[(mag >= 10.0) & (mag <= 40.0)], e[mag > 40.0])
        split = ()
        if region is not None:
            in_region = region.data[r0:r1][ok]
            split = (e[in_region], e[~in_region])
        bands[r0] = bad, _pack(bins, by_bin[own]), _pack(split, by_region[own])

    _in_row_bands(band, h, w)
    bads, bins, splits = zip(*(bands[r0] for r0 in sorted(bands)))
    *bad, fl = (int(sum(c)) for c in zip(*bads))
    counts = {"valid": n, "matched": 0, "unmatched": 0}
    matched = unmatched = None
    if region is not None:
        matched_pieces, unmatched_pieces = zip(*splits)
        matched, unmatched = _mean(matched_pieces), _mean(unmatched_pieces)
        counts["matched"] = sum(m.size for m in matched_pieces)
        counts["unmatched"] = n - counts["matched"]
    return MetricReport(
        epe=float(err.mean()) if n else None,
        outlier_rates={t: _percent(c, n) for t, c in zip(_THRESHOLDS, bad)},
        fl_all=_percent(fl, n),
        speed_binned_epe=tuple(_mean(pieces) for pieces in zip(*bins)),
        matched_epe=matched,
        unmatched_epe=unmatched,
        pixel_counts=counts,
    )

"""Evaluation metrics for flow and disparity: end-point error, outlier
percentages, magnitude-binned errors, and region (matched/unmatched) splits.

Empty regions yield None (a typed not-available marker), never 0; silent
zeros would corrupt downstream table aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import BinaryMask, Grid1, Grid2, check_same_shape

OUTLIER_THRESHOLDS = (1.0, 3.0, 5.0)
BAD_P_THRESHOLDS = (0.5, 1.0, 2.0, 3.0)


@dataclass(frozen=True)
class MetricReport:
    """One row's worth of evaluation numbers. None marks ``not available``."""

    epe: float | None
    outlier_rates: dict[float, float | None]
    fl_all: float | None
    speed_binned_epe: tuple[float | None, float | None, float | None]
    matched_epe: float | None
    unmatched_epe: float | None
    avg_err: float | None
    bad_p: dict[float, float | None]
    pixel_counts: dict[str, int]


def epe_map(pred: Grid2 | Grid1, gt: Grid2 | Grid1) -> Grid1:
    """Per-pixel end-point error: Euclidean norm of the prediction error.

    For scalar grids this is the absolute disparity error.
    """
    if type(pred) is not type(gt):
        raise ValueError("pred and gt must be the same grid type")
    check_same_shape(pred, gt)
    if isinstance(pred, Grid2):
        d = pred.data - gt.data
        return Grid1(np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]))
    return Grid1(np.abs(pred.data - gt.data))


def magnitude_map(gt: Grid2 | Grid1) -> Grid1:
    """Euclidean magnitude of the ground-truth field."""
    if isinstance(gt, Grid2):
        u, v = gt.data[..., 0], gt.data[..., 1]
        return Grid1(np.sqrt(u * u + v * v))
    return Grid1(np.abs(gt.data))


def aggregate_epe(e: Grid1, valid: BinaryMask,
                  region: BinaryMask | None = None) -> float | None:
    """Mean error over valid (optionally region-restricted) pixels."""
    check_same_shape(e, valid)
    sel = valid.data
    if region is not None:
        check_same_shape(e, region)
        sel = sel & region.data
    n = int(sel.sum())
    if n == 0:
        return None
    return float(e.data[sel].mean())


def outlier_rate(e: Grid1, valid: BinaryMask, threshold: float) -> float | None:
    """Percentage of valid pixels with error strictly above the threshold."""
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    check_same_shape(e, valid)
    n = valid.count()
    if n == 0:
        return None
    return float(100.0 * np.count_nonzero(e.data[valid.data] > threshold) / n)


def fl_all(e: Grid1, gt_mag: Grid1, valid: BinaryMask) -> float | None:
    """Percentage of valid pixels with error > 3 px and > 5% of the GT magnitude."""
    check_same_shape(e, gt_mag, valid)
    n = valid.count()
    if n == 0:
        return None
    err = e.data[valid.data]
    mag = gt_mag.data[valid.data]
    bad = (err > 3.0) & (err > 0.05 * mag)
    return float(100.0 * np.count_nonzero(bad) / n)


def speed_binned_epe(e: Grid1, gt_mag: Grid1, valid: BinaryMask):
    """Mean error split by GT magnitude: [0, 10), [10, 40], (40, inf)."""
    check_same_shape(e, gt_mag, valid)
    mag = gt_mag.data
    bins = (mag < 10.0, (mag >= 10.0) & (mag <= 40.0), mag > 40.0)
    out = []
    for sel in bins:
        sel = sel & valid.data
        n = int(sel.sum())
        out.append(float(e.data[sel].mean()) if n else None)
    return tuple(out)


def stereo_metrics(e: Grid1, gt: Grid1, valid: BinaryMask):
    """(bad_p map over {0.5, 1, 2, 3} px, mean absolute error)."""
    check_same_shape(e, gt, valid)
    bad_p = {t: outlier_rate(e, valid, t) for t in BAD_P_THRESHOLDS}
    return bad_p, aggregate_epe(e, valid)


def full_report(pred: Grid2 | Grid1, gt: Grid2 | Grid1, valid: BinaryMask,
                region: BinaryMask | None = None) -> MetricReport:
    """Every metric on one prediction, with an optional matched-region split.

    The region mask selects the matched pixels; its complement is the
    unmatched region. All metrics derive from the error and GT-magnitude
    maps, so the same report applies to flow fields and disparity maps.
    """
    e = epe_map(pred, gt)
    mag = magnitude_map(gt)
    counts = {"valid": valid.count()}
    if region is not None:
        check_same_shape(valid, region)
        matched = aggregate_epe(e, valid, region)
        unmatched = aggregate_epe(e, valid, ~region)
        counts["matched"] = int((valid.data & region.data).sum())
        counts["unmatched"] = int((valid.data & ~region.data).sum())
    else:
        matched = unmatched = None
        counts["matched"] = counts["unmatched"] = 0
    bad_p, avg_err = stereo_metrics(e, mag, valid)
    return MetricReport(
        epe=aggregate_epe(e, valid),
        outlier_rates={t: outlier_rate(e, valid, t) for t in OUTLIER_THRESHOLDS},
        fl_all=fl_all(e, mag, valid),
        speed_binned_epe=speed_binned_epe(e, mag, valid),
        matched_epe=matched,
        unmatched_epe=unmatched,
        avg_err=avg_err,
        bad_p=bad_p,
        pixel_counts=counts,
    )

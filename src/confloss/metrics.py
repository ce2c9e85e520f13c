"""Evaluation metrics for flow and disparity: end-point error, outlier
percentages, magnitude-binned errors, and region (matched/unmatched) splits.

Empty regions yield None (a typed not-available marker), never 0; silent
zeros would corrupt downstream table aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import BinaryMask, Grid1, Grid2, check_pair, check_same_shape

OUTLIER_THRESHOLDS = (1.0, 3.0, 5.0)
BAD_P_THRESHOLDS = (0.5, 1.0, 2.0, 3.0)


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


def epe_map(pred: Grid2 | Grid1, gt: Grid2 | Grid1) -> Grid1:
    """Per-pixel end-point error: Euclidean norm of the prediction error.

    For scalar grids this is the absolute disparity error.
    """
    check_pair(pred, gt)
    if isinstance(pred, Grid2):
        d = pred.data - gt.data
        return Grid1._own(np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]))
    return Grid1._own(np.abs(pred.data - gt.data))


def magnitude_map(gt: Grid2 | Grid1) -> Grid1:
    """Euclidean magnitude of the ground-truth field."""
    if isinstance(gt, Grid2):
        u, v = gt.data[..., 0], gt.data[..., 1]
        return Grid1._own(np.sqrt(u * u + v * v))
    return Grid1._own(np.abs(gt.data))


def _mean(values: np.ndarray) -> float | None:
    return float(values.mean()) if values.size else None


def _percent(bad: np.ndarray) -> float | None:
    return float(100.0 * np.count_nonzero(bad) / bad.size) if bad.size else None


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
    """
    e = epe_map(pred, gt)
    check_same_shape(*(g for g in (e, valid, region) if g is not None))
    err = e.data[valid.data]
    mag = magnitude_map(gt).data[valid.data]
    counts = {"valid": err.size, "matched": 0, "unmatched": 0}
    matched = unmatched = None
    if region is not None:
        in_region = region.data[valid.data]
        matched, unmatched = _mean(err[in_region]), _mean(err[~in_region])
        counts["matched"] = int(np.count_nonzero(in_region))
        counts["unmatched"] = err.size - counts["matched"]
    bins = (mag < 10.0, (mag >= 10.0) & (mag <= 40.0), mag > 40.0)
    return MetricReport(
        epe=_mean(err),
        outlier_rates={t: _percent(err > t)
                       for t in sorted({*OUTLIER_THRESHOLDS, *BAD_P_THRESHOLDS})},
        fl_all=_percent((err > 3.0) & (err > 0.05 * mag)),
        speed_binned_epe=tuple(_mean(err[b]) for b in bins),
        matched_epe=matched,
        unmatched_epe=unmatched,
        pixel_counts=counts,
    )

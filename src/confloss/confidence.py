"""Per-pixel confidence maps and the cycle-consistency occlusion mask.

Two kinds of confidence are computed: an error-based map from prediction vs
ground truth, and a forward-backward (cycle) consistency map from a pair of
opposing correspondence fields. One cycle check serves optical flow (a Grid2
pair) and rectified stereo (a Grid1 pair of disparities, moving along rows).

Each per-pixel formula is a private row kernel. A public function chains its
kernels band by band in one pass of _in_row_bands, so only its results are
frame-sized; losses.evaluate_loss adds the weight and loss kernels.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    _CHUNK,
    BinaryMask,
    ConfidenceMap,
    Grid1,
    Grid2,
    _bilinear_points,
    _channel_planes,
    _linear_rows,
    check_fields,
    check_mask,
    check_pair,
    warn_negative_disparity,
)


@dataclass(frozen=True)
class CycleParams:
    """Thresholding constants of the forward-backward consistency check.

    gamma1 is dimensionless, gamma2 is in squared pixels and must stay
    positive (it is the constant part of the tolerance).
    """

    gamma1: float = field(default=0.01, metadata={"min": 0})
    gamma2: float = field(default=0.5, metadata={"above": 0})

    def __post_init__(self):
        check_fields(self)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Row blocks per banded pass: one per CPU this process may use.
_WORKERS = _cpu_count()


def _walk_rows(band, r0: int, r1: int, step: int) -> None:
    for a in range(r0, r1, step):
        band(a, min(a + step, r1))


def _in_row_bands(band, h: int, w: int) -> None:
    """Call band(r0, r1) on bands of rows, about _CHUNK pixels each, that
    cover an H x W frame.

    A frame of two bands or more is split into one contiguous block of rows
    per worker. The calling thread walks the first block, and a thread started
    for this call each of the others, under the caller's numpy error state.
    Each call writes only its own rows of arrays the caller allocated (arrays
    another thread allocates stay in its own malloc arena once freed), so the
    result does not depend on the worker count. Returns, or raises the first
    error of a block, only once every thread has been joined.
    """
    step = max(1, _CHUNK // w)
    workers = min(_WORKERS, -(-h // step))
    if workers < 2:
        _walk_rows(band, 0, h, step)
        return
    err = np.geterr()
    errors, threads = [], []

    def block(r0, r1):
        try:
            with np.errstate(**err):
                _walk_rows(band, r0, r1, step)
        except BaseException as exc:
            errors.append(exc)

    bounds = [h * i // workers for i in range(workers + 1)]
    try:
        for r0, r1 in zip(bounds[1:-1], bounds[2:]):
            t = threading.Thread(target=block, args=(r0, r1))
            t.start()
            threads.append(t)
        _walk_rows(band, 0, bounds[1], step)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def _map_rows(kernel, out: np.ndarray, *frames) -> np.ndarray:
    """kernel(*rows of frames, rows of out) on out's row bands (None stays None)."""
    _in_row_bands(lambda r0, r1: kernel(*(None if a is None else a[r0:r1] for a in frames),
                                        out[r0:r1]), *out.shape)
    return out


def _db_rows(r, valid, out) -> None:
    """Row kernel of the error-based map on r = gt - pred (only read) into out."""
    if r.ndim == 3:
        np.multiply(r[..., 0], r[..., 0], out=out)
        out += r[..., 1] * r[..., 1]
    else:
        np.multiply(r, r, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.copyto(out, 0.0, where=~valid)


def _confidence_db(pred: Grid2 | Grid1, gt: Grid2 | Grid1, valid: BinaryMask) -> ConfidenceMap:
    check_mask(valid, "valid")
    h, w = check_pair(pred, gt, valid)
    return Grid1._own(_map_rows(lambda p, g, v, out: _db_rows(g - p, v, out),
                                np.empty((h, w)), pred.data, gt.data, valid.data))


def confidence_db_flow(pred: Grid2, gt: Grid2, valid: BinaryMask) -> ConfidenceMap:
    """Error-based confidence exp(-||gt - pred||^2); 0 on invalid pixels."""
    return _confidence_db(pred, gt, valid)


def confidence_db_stereo(pred: Grid1, gt: Grid1, valid: BinaryMask) -> ConfidenceMap:
    """Error-based confidence exp(-(d_gt - d_pred)^2); 0 on invalid pixels."""
    return _confidence_db(pred, gt, valid)


def _cycle_rows(f_fw: Grid2 | Grid1, f_bw: Grid2 | Grid1, params: CycleParams):
    """Check a pair as cycle_terms does; return its row kernel rows(r0, r1)
    -> cycle_terms' (num, den, target_valid) of rows r0 .. r1 - 1."""
    h, w = check_pair(f_fw, f_bw, names="f_fw and f_bw")
    g1, g2 = params.gamma1, params.gamma2
    cols = np.arange(w, dtype=np.float64)
    if isinstance(f_fw, Grid2):
        f = f_fw.data
        planes = _channel_planes(f_bw.data)

        def rows(r0, r1):
            fu, fv = f[r0:r1, :, 0], f[r0:r1, :, 1]
            x = cols + fu
            y = np.arange(r0, r1, dtype=np.float64)[:, None] + fv
            (bu, bv), ok = _bilinear_points(planes, h, w, x.reshape(-1), y.reshape(-1))
            bu, bv = bu.reshape(x.shape), bv.reshape(x.shape)
            # Temporaries updated in place, each term's operations in the order
            # of cycle_terms' formulas; num ends in x and den in bu.
            np.add(fu, bu, out=x)
            x *= x
            np.add(fv, bv, out=y)
            y *= y
            num = np.add(x, y, out=x)
            bu *= bu
            bv *= bv
            bu += bv
            np.multiply(fu, fu, out=y)
            np.multiply(fv, fv, out=bv)
            y += bv
            den = np.add(y, bu, out=bu)
            den *= g1
            den += g2
            return num, den, ok.reshape(x.shape)
    else:
        warn_negative_disparity(f_fw)
        warn_negative_disparity(f_bw)
        d = f_fw.data
        plane = f_bw.data.reshape(-1)

        def rows(r0, r1):
            dd = d[r0:r1]
            b, ok = _linear_rows(plane, w, r0, cols - dd)
            num = b - dd
            num *= num
            b *= b
            den = dd * dd
            den += b
            den *= g1
            den += g2
            return num, den, ok
    return rows


def cycle_terms(f_fw: Grid2 | Grid1, f_bw: Grid2 | Grid1,
                params: CycleParams = CycleParams()):
    """Pointwise terms of the consistency check for a flow or a stereo pair.

    numerator(x)   = ||f(x) + b(x + f(x))||^2
    denominator(x) = gamma1 * (||f(x)||^2 + ||b(x + f(x))||^2) + gamma2

    A Grid2 pair is (forward flow f, backward flow b). A Grid1 pair is
    (d_lr, d_rl) with d_rl restored to the right image's frame (see
    reverse_disparity_restore): f = -d_lr and b = d_rl along x, rows stay
    fixed, so d_rl is sampled along rows only, and a negative entry in either
    map raises a RuntimeWarning.
    b is sampled bilinearly at the warp target; pixels whose target falls
    off-frame are reported in target_valid as False (the sampled value there
    is 0, so the terms are still finite).
    """
    rows = _cycle_rows(f_fw, f_bw, params)
    num, den, target_valid = (np.empty(f_fw.shape, t) for t in (float, float, bool))

    def band(r0, r1):
        num[r0:r1], den[r0:r1], target_valid[r0:r1] = rows(r0, r1)

    _in_row_bands(band, *f_fw.shape)
    return Grid1._own(num), Grid1._own(den), BinaryMask._own(target_valid)


def _matched_rows(num, den, target_valid, out=None) -> np.ndarray:
    """Row kernel of occlusion_mask, into out or a fresh array."""
    out = np.less(num, den, out=out)
    out &= target_valid
    return out


def _oa_rows(num, den, target_valid, out) -> np.ndarray:
    """Row kernel of confidence_oa; out may be num itself."""
    np.negative(num, out=out)
    out /= den
    np.exp(out, out=out)
    np.copyto(out, 0.0, where=~target_valid)
    return out


def _from_pair(kernel, out: np.ndarray, f_fw, f_bw, params: CycleParams) -> np.ndarray:
    """kernel(num, den, target_valid, rows of out) on each row band's cycle
    terms, which stay band-sized; returns out."""
    rows = _cycle_rows(f_fw, f_bw, params)
    _in_row_bands(lambda r0, r1: kernel(*rows(r0, r1), out[r0:r1]), *out.shape)
    return out


def occlusion_mask(f_fw: Grid2 | Grid1, f_bw: Grid2 | Grid1,
                   params: CycleParams = CycleParams()) -> BinaryMask:
    """Hard mask H of the cycle check: True = matched, False = occluded. A
    pixel is matched when cycle_terms' numerator < denominator (strict) and
    its warp target lies inside the frame."""
    return BinaryMask._own(_from_pair(_matched_rows, np.empty(f_fw.shape, dtype=bool),
                                      f_fw, f_bw, params))


def confidence_oa(f_fw: Grid2 | Grid1, f_bw: Grid2 | Grid1,
                  params: CycleParams = CycleParams()) -> ConfidenceMap:
    """Cycle-consistency confidence M_oa = exp(-numerator/denominator) of
    cycle_terms; 0 where the warp target is off-frame (no correspondence)."""
    return Grid1._own(_from_pair(_oa_rows, np.empty(f_fw.shape), f_fw, f_bw, params))


def occlusion_mask_stereo(d_lr: Grid1, d_rl: Grid1,
                          params: CycleParams = CycleParams()) -> BinaryMask:
    """occlusion_mask of a rectified stereo pair, d_rl restored (see cycle_terms)."""
    return occlusion_mask(d_lr, d_rl, params)


def confidence_oa_stereo(d_lr: Grid1, d_rl: Grid1,
                         params: CycleParams = CycleParams()) -> ConfidenceMap:
    """confidence_oa of a rectified stereo pair, d_rl restored (see cycle_terms)."""
    return confidence_oa(d_lr, d_rl, params)

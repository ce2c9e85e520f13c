"""Per-pixel confidence maps and the cycle-consistency occlusion mask.

Two kinds of confidence are computed: an error-based map from prediction vs
ground truth, and a forward-backward (cycle) consistency map from a pair of
opposing correspondence fields. One cycle check serves optical flow (a Grid2
pair) and rectified stereo (a Grid1 pair of disparities, moving along rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    BinaryMask,
    ConfidenceMap,
    Grid1,
    Grid2,
    check_finite,
    check_same_shape,
    coordinate_grids,
    sample_values,
    warn_negative_disparity,
)


@dataclass(frozen=True)
class CycleParams:
    """Thresholding constants of the forward-backward consistency check.

    gamma1 is dimensionless, gamma2 is in squared pixels and must stay
    positive (it is the constant part of the tolerance).
    """

    gamma1: float = 0.01
    gamma2: float = 0.5

    def __post_init__(self):
        check_finite(self, "gamma1", "gamma2")
        if self.gamma1 < 0:
            raise ValueError(f"gamma1 must be >= 0, got {self.gamma1}")
        if self.gamma2 <= 0:
            raise ValueError(f"gamma2 must be > 0, got {self.gamma2}")


def confidence_db_flow(pred: Grid2, gt: Grid2, valid: BinaryMask) -> ConfidenceMap:
    """Error-based confidence exp(-||gt - pred||^2); 0 on invalid pixels."""
    check_same_shape(pred, gt, valid)
    d = gt.data - pred.data
    m = np.exp(-(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]))
    return Grid1._own(np.where(valid.data, m, 0.0))


def confidence_db_stereo(pred: Grid1, gt: Grid1, valid: BinaryMask) -> ConfidenceMap:
    """Error-based confidence exp(-(d_gt - d_pred)^2); 0 on invalid pixels."""
    check_same_shape(pred, gt, valid)
    m = gt.data - pred.data  # updated in place, as in losses.weight_combine
    m **= 2
    np.negative(m, out=m)
    np.exp(m, out=m)
    np.copyto(m, 0.0, where=~valid.data)
    return Grid1._own(m)


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
    if type(f_fw) is not type(f_bw):
        raise ValueError("f_fw and f_bw must be the same grid type")
    h, w = check_same_shape(f_fw, f_bw)
    if isinstance(f_fw, Grid2):
        xs, ys = coordinate_grids(h, w)
        f = f_fw.data
        b, target_valid = sample_values(f_bw.data, xs + f[..., 0], ys + f[..., 1])
        fu, fv, bu, bv = f[..., 0], f[..., 1], b[..., 0], b[..., 1]
        num = (fu + bu) ** 2 + (fv + bv) ** 2
        mag2 = (fu * fu + fv * fv) + (bu * bu + bv * bv)
    else:
        warn_negative_disparity(f_fw)
        warn_negative_disparity(f_bw)
        d = f_fw.data
        b, target_valid = sample_values(f_bw.data, np.arange(w, dtype=np.float64) - d, None)
        num = b - d  # fresh arrays updated in place, as in the formulas above
        num **= 2
        b *= b
        mag2 = d * d
        mag2 += b
    den = mag2
    den *= params.gamma1
    den += params.gamma2
    return Grid1._own(num), Grid1._own(den), BinaryMask._own(target_valid)


def matched_from_terms(num: Grid1, den: Grid1, target_valid: BinaryMask) -> BinaryMask:
    """Hard mask H from cycle_terms' result: True = matched, False = occluded.

    A pixel is matched when numerator < denominator (strict) and its warp
    target lies inside the frame.
    """
    return BinaryMask._own((num.data < den.data) & target_valid.data)


def confidence_from_terms(num: Grid1, den: Grid1,
                          target_valid: BinaryMask) -> ConfidenceMap:
    """M_oa = exp(-numerator/denominator) from cycle_terms' result.

    Off-frame warp targets get confidence 0: no correspondence can exist.
    """
    m = np.negative(num.data)
    m /= den.data
    np.exp(m, out=m)
    np.copyto(m, 0.0, where=~target_valid.data)
    return Grid1._own(m)


def occlusion_mask(f_fw: Grid2 | Grid1, f_bw: Grid2 | Grid1,
                   params: CycleParams = CycleParams()) -> BinaryMask:
    """True = matched (cycle-consistent), False = occluded; see matched_from_terms."""
    return matched_from_terms(*cycle_terms(f_fw, f_bw, params))


def confidence_oa(f_fw: Grid2 | Grid1, f_bw: Grid2 | Grid1,
                  params: CycleParams = CycleParams()) -> ConfidenceMap:
    """Cycle-consistency confidence; see confidence_from_terms."""
    return confidence_from_terms(*cycle_terms(f_fw, f_bw, params))


def occlusion_mask_stereo(d_lr: Grid1, d_rl: Grid1,
                          params: CycleParams = CycleParams()) -> BinaryMask:
    """occlusion_mask of a rectified stereo pair, d_rl restored (see cycle_terms)."""
    return occlusion_mask(d_lr, d_rl, params)


def confidence_oa_stereo(d_lr: Grid1, d_rl: Grid1,
                         params: CycleParams = CycleParams()) -> ConfidenceMap:
    """confidence_oa of a rectified stereo pair, d_rl restored (see cycle_terms)."""
    return confidence_oa(d_lr, d_rl, params)

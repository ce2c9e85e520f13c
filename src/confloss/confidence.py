"""Per-pixel confidence maps and the cycle-consistency occlusion mask.

Two kinds of confidence are computed: an error-based map from prediction vs
ground truth, and a forward-backward (cycle) consistency map from a pair of
opposing correspondence fields. The same machinery serves optical flow and
rectified stereo; disparities are embedded as horizontal flows first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    BinaryMask,
    ConfidenceMap,
    Grid1,
    Grid2,
    backward_warp,
    check_finite,
    check_same_shape,
    disparity_to_flow,
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
    return Grid1(np.where(valid.data, m, 0.0))


def confidence_db_stereo(pred: Grid1, gt: Grid1, valid: BinaryMask) -> ConfidenceMap:
    """Error-based confidence exp(-(d_gt - d_pred)^2); 0 on invalid pixels."""
    check_same_shape(pred, gt, valid)
    m = np.exp(-((gt.data - pred.data) ** 2))
    return Grid1(np.where(valid.data, m, 0.0))


def cycle_terms(f_fw: Grid2, f_bw: Grid2, params: CycleParams = CycleParams()):
    """Pointwise terms of the consistency check.

    numerator(x)   = ||f_fw(x) + f_bw(x + f_fw(x))||^2
    denominator(x) = gamma1 * (||f_fw(x)||^2 + ||f_bw(x + f_fw(x))||^2) + gamma2

    The backward field is sampled bilinearly at the warp target; pixels whose
    target falls off-frame are reported in target_valid as False (the sampled
    value there is 0, so the terms are still finite).
    """
    check_same_shape(f_fw, f_bw)
    bw_at_target, target_valid = backward_warp(f_bw, f_fw)
    fu, fv = f_fw.data[..., 0], f_fw.data[..., 1]
    bu, bv = bw_at_target.data[..., 0], bw_at_target.data[..., 1]
    num = (fu + bu) ** 2 + (fv + bv) ** 2
    mag2 = (fu**2 + fv**2) + (bu**2 + bv**2)
    den = params.gamma1 * mag2 + params.gamma2
    return Grid1(num), Grid1(den), target_valid


def matched_from_terms(num: Grid1, den: Grid1, target_valid: BinaryMask) -> BinaryMask:
    """Hard mask H from cycle_terms' result: True = matched, False = occluded.

    A pixel is matched when numerator < denominator (strict) and its warp
    target lies inside the frame.
    """
    return BinaryMask((num.data < den.data) & target_valid.data)


def confidence_from_terms(num: Grid1, den: Grid1,
                          target_valid: BinaryMask) -> ConfidenceMap:
    """M_oa = exp(-numerator/denominator) from cycle_terms' result.

    Off-frame warp targets get confidence 0: no correspondence can exist.
    """
    m = np.exp(-num.data / den.data)
    return Grid1(np.where(target_valid.data, m, 0.0))


def stereo_as_flows(d_lr: Grid1, d_rl: Grid1) -> tuple[Grid2, Grid2]:
    """Embed a rectified stereo pair as opposing horizontal flows.

    d_rl must already be restored to the right image's frame (see
    reverse_disparity_restore), with nonnegative values. The vertical
    components are identically zero under the rectified assumption.
    """
    check_same_shape(d_lr, d_rl)
    return disparity_to_flow(d_lr, LEFT_TO_RIGHT), disparity_to_flow(d_rl, RIGHT_TO_LEFT)


def occlusion_mask(f_fw: Grid2, f_bw: Grid2,
                   params: CycleParams = CycleParams()) -> BinaryMask:
    """True = matched (cycle-consistent), False = occluded; see matched_from_terms."""
    return matched_from_terms(*cycle_terms(f_fw, f_bw, params))


def confidence_oa(f_fw: Grid2, f_bw: Grid2,
                  params: CycleParams = CycleParams()) -> ConfidenceMap:
    """Cycle-consistency confidence; see confidence_from_terms."""
    return confidence_from_terms(*cycle_terms(f_fw, f_bw, params))


def occlusion_mask_stereo(d_lr: Grid1, d_rl: Grid1,
                          params: CycleParams = CycleParams()) -> BinaryMask:
    """Consistency mask for a rectified stereo pair (see stereo_as_flows)."""
    return occlusion_mask(*stereo_as_flows(d_lr, d_rl), params)


def confidence_oa_stereo(d_lr: Grid1, d_rl: Grid1,
                         params: CycleParams = CycleParams()) -> ConfidenceMap:
    """Cycle-consistency confidence from the two disparity maps (see stereo_as_flows)."""
    return confidence_oa(*stereo_as_flows(d_lr, d_rl), params)

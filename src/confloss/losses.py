"""Confidence-weighted L1 losses (weighted_l1), their analytic gradient
(weighted_l1_grad, which only training needs), and the discounted
accumulation over refinement iterations.

Seven weighting modes are supported:

  plain_l1        w = 1
  db              w = 1 + a1*(1 - M_db)^b1          (harder pixels weigh more)
  oa              w = 1 + a2*(M_oa)^b2              (matchable pixels weigh more)
  sum             w = 1 + a1*(1-M_db)^b1 + a2*(M_oa)^b2
  multiplication  w = 1 + a1*(1-M_db)^b1 * a2*(M_oa)^b2
  masking         w = 1 + H * a1*(1-M_db)^b1
  mask_sum        w = 1 + H * a1*(1-M_db)^b1 + a2*(M_oa)^b2

where H is the hard matched/occluded mask from the cycle check. Weight maps
are constants as far as differentiation is concerned (stop-gradient): the
gradient flows only through the residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .confidence import (
    CycleParams,
    confidence_db_flow,
    confidence_db_stereo,
    confidence_from_terms,
    cycle_terms,
    matched_from_terms,
)
from .fields import BinaryMask, ConfidenceMap, Grid1, Grid2, check_finite, check_same_shape

PLAIN_L1 = "plain_l1"
DB = "db"
OA = "oa"
SUM = "sum"
MULTIPLICATION = "multiplication"
MASKING = "masking"
MASK_SUM = "mask_sum"

# The factors each mode combines: the db term a1*(1-M_db)^b1, the oa term
# a2*(M_oa)^b2, and the hard mask H, which gates the db term. M_oa and H both
# come from the cycle check. multiplication multiplies the terms; the other
# modes add them.
_FACTORS = {
    PLAIN_L1: set(),
    DB: {"db"},
    OA: {"oa"},
    SUM: {"db", "oa"},
    MULTIPLICATION: {"db", "oa"},
    MASKING: {"db", "hard"},
    MASK_SUM: {"db", "oa", "hard"},
}
MODES = tuple(_FACTORS)


@dataclass(frozen=True)
class WeightSpec:
    """Weighting mode plus its hyperparameters.

    alpha1/beta1 parametrize the difficulty-balancing factor, alpha2/beta2 the
    occlusion-avoiding factor; standalone db uses the former, standalone oa
    the latter. Defaults are the flow values; use stereo_defaults() for the
    stereo ones.
    """

    mode: str = PLAIN_L1
    alpha1: float = 2.0
    beta1: float = 0.5
    alpha2: float = 2.0
    beta2: float = 1.0
    cycle: CycleParams = field(default_factory=CycleParams)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown loss mode {self.mode!r}; expected one of {MODES}")
        check_finite(self, "alpha1", "beta1", "alpha2", "beta2")
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("alpha values must be >= 0")
        if self.beta1 <= 0 or self.beta2 <= 0:
            raise ValueError("beta values must be > 0")

    @classmethod
    def stereo_defaults(cls, mode: str = PLAIN_L1, **overrides) -> "WeightSpec":
        return cls(mode=mode, **{"beta1": 1.0, "alpha2": 1.0, **overrides})

    @property
    def needs_backward(self) -> bool:
        return bool(_FACTORS[self.mode] & {"oa", "hard"})


@dataclass(frozen=True)
class SequenceParams:
    """Discount gamma_seq in (0, 1] applied as gamma^(N-i) over iterations."""

    gamma_seq: float = 0.8

    def __post_init__(self):
        if not (0.0 < self.gamma_seq <= 1.0):
            raise ValueError(f"gamma_seq must lie in (0, 1], got {self.gamma_seq}")


@dataclass(frozen=True)
class LossResult:
    """Scalar loss, the mean of loss_map over valid pixels, and the maps
    behind it; weighted_l1_grad gives the gradient."""

    scalar: float
    weight_map: Grid1
    loss_map: Grid1
    n_valid: int


def _check_unit_range(m: ConfidenceMap) -> np.ndarray:
    data = m.data
    if np.any(data < 0.0) or np.any(data > 1.0):
        raise ValueError("confidence map entries must lie in [0, 1]")
    return data


def weight_db(m: ConfidenceMap, alpha: float, beta: float) -> Grid1:
    """Difficulty-balancing weight 1 + alpha * (1 - M)^beta."""
    return weight_combine(m, None, None, WeightSpec(DB, alpha1=alpha, beta1=beta))


def weight_oa(m: ConfidenceMap, alpha: float, beta: float) -> Grid1:
    """Occlusion-avoiding weight 1 + alpha * M^beta."""
    return weight_combine(None, m, None, WeightSpec(OA, alpha2=alpha, beta2=beta))


_INPUTS = {"db": "error-based map", "oa": "cycle-based map", "hard": "cycle-based mask"}


def weight_combine(m_db: ConfidenceMap | None, m_oa: ConfidenceMap | None,
                   hard: BinaryMask | None, spec: WeightSpec) -> Grid1:
    """Weight map of every mode but plain_l1 (the module docstring's formulas).

    Each of m_db, m_oa and hard may be None when the mode does not use it.
    """
    uses = _FACTORS[spec.mode]
    if not uses:
        raise ValueError(f"mode {spec.mode!r} has no weight factor")
    given = {"db": m_db, "oa": m_oa, "hard": hard}
    for factor in sorted(uses):
        if given[factor] is None:
            raise ValueError(f"mode {spec.mode!r} needs the {_INPUTS[factor]}")
    check_same_shape(*(g for g in given.values() if g is not None))
    # Fresh arrays updated in place: the operations of the module docstring's
    # formulas, in their order (so the same bits), without a frame-sized
    # temporary for each.
    w = None
    if "db" in uses:
        w = 1.0 - _check_unit_range(m_db)
        w **= spec.beta1
        w *= spec.alpha1
        if "hard" in uses:
            np.copyto(w, 0.0, where=~hard.data)
    if "oa" in uses:
        oa_term = _check_unit_range(m_oa) ** spec.beta2
        oa_term *= spec.alpha2
        if w is None:
            w = oa_term
        elif spec.mode == MULTIPLICATION:
            w *= oa_term
    w += 1.0
    if spec.mode in (SUM, MASK_SUM):
        w += oa_term
    return Grid1._own(w)


def _residual_planes(pred: Grid2 | Grid1, gt: Grid2 | Grid1, weights: Grid1,
                     valid: BinaryMask) -> tuple[tuple[np.ndarray, ...], int]:
    """Checked gt - pred as one (H, W) plane per component (u and v for flow,
    d for stereo), and the valid-pixel count."""
    if type(pred) is not type(gt):
        raise ValueError("pred and gt must be the same grid type")
    check_same_shape(pred, gt, weights, valid)
    n_valid = valid.count()
    if n_valid == 0:
        raise ValueError("no valid pixels: the mean loss is undefined")
    residual = gt.data - pred.data
    planes = (residual[..., 0], residual[..., 1]) if isinstance(pred, Grid2) else (residual,)
    return planes, n_valid


def weighted_l1(pred: Grid2 | Grid1, gt: Grid2 | Grid1, weights: Grid1,
                valid: BinaryMask) -> LossResult:
    """Weighted L1: per pixel w * (|du| + |dv|) for flow and w * |dd| for
    stereo, 0 on invalid pixels; the scalar is the mean over valid pixels."""
    planes, n_valid = _residual_planes(pred, gt, weights, valid)
    # A fresh array updated in place, as in weight_combine.
    loss_map = np.abs(planes[0]) + np.abs(planes[1]) if len(planes) == 2 else np.abs(planes[0])
    loss_map *= weights.data
    np.copyto(loss_map, 0.0, where=~valid.data)
    return LossResult(scalar=float(loss_map.sum() / n_valid), weight_map=weights,
                      loss_map=Grid1._own(loss_map), n_valid=n_valid)


def weighted_l1_grad(pred: Grid2 | Grid1, gt: Grid2 | Grid1, weights: Grid1,
                     valid: BinaryMask) -> Grid2 | Grid1:
    """Derivative of weighted_l1's per-pixel loss w.r.t. pred: w * -sign(gt - pred)
    per component, sign(0) = 0, zero on invalid pixels. Divide by n_valid for
    the gradient of the mean; the weights are constants (stop-gradient)."""
    planes, _ = _residual_planes(pred, gt, weights, valid)
    invalid = ~valid.data
    grads = [np.sign(r) for r in planes]
    for g in grads:  # w * -sign(r), 0 on invalid pixels
        np.negative(g, out=g)
        g *= weights.data
        np.copyto(g, 0.0, where=invalid)
    return Grid2._own(np.stack(grads, axis=-1)) if len(grads) == 2 else Grid1._own(grads[0])


def build_weights(spec: WeightSpec, pred: Grid2 | Grid1, gt: Grid2 | Grid1,
                  valid: BinaryMask, backward: Grid2 | Grid1 | None = None) -> Grid1:
    """Assemble the weight map a mode needs from the current predictions.

    The error-based map is computed from pred vs gt; the cycle-based map and
    the hard mask from (pred, backward). For stereo (Grid1 inputs), backward
    is the restored right-to-left disparity. M_oa and H come from one shared
    cycle check.
    """
    h, w = check_same_shape(pred, gt, valid)
    uses = _FACTORS[spec.mode]
    if not uses:
        return Grid1._own(np.ones((h, w)))

    stereo = isinstance(pred, Grid1)
    m_db = m_oa = hard = None
    if "db" in uses:
        m_db = (confidence_db_stereo if stereo else confidence_db_flow)(pred, gt, valid)
    if spec.needs_backward:
        if backward is None:
            raise ValueError(f"mode {spec.mode!r} needs a backward field")
        terms = cycle_terms(pred, backward, spec.cycle)
        if "oa" in uses:
            m_oa = confidence_from_terms(*terms)
        if "hard" in uses:
            hard = matched_from_terms(*terms)

    return weight_combine(m_db, m_oa, hard, spec)


def evaluate_loss(pred: Grid2 | Grid1, gt: Grid2 | Grid1, valid: BinaryMask,
                  spec: WeightSpec,
                  backward: Grid2 | Grid1 | None = None) -> LossResult:
    """Build the mode's weight map from the prediction and apply weighted_l1."""
    weights = build_weights(spec, pred, gt, valid, backward)
    return weighted_l1(pred, gt, weights, valid)


def sequence_loss(preds: Sequence[Grid2 | Grid1], gt: Grid2 | Grid1,
                  valid: BinaryMask, spec: WeightSpec,
                  seq: SequenceParams = SequenceParams(),
                  backwards: Sequence[Grid2 | Grid1] | None = None):
    """Discounted accumulation over N refinement iterations.

    total = sum_i gamma^(N-i) * scalar_i with i = 1 the earliest prediction.
    The confidence maps are rebuilt per iteration: the error-based map from
    that iteration's prediction vs gt, the cycle map from that iteration's
    forward/backward pair in `backwards`.
    """
    if len(preds) == 0:
        raise ValueError("empty prediction list")
    if spec.needs_backward and backwards is None:
        raise ValueError(f"mode {spec.mode!r} needs one backward field per prediction")
    if backwards is not None and len(backwards) != len(preds):
        raise ValueError(f"{len(backwards)} backward fields for {len(preds)} predictions")
    n = len(preds)
    per_iteration = []
    total = 0.0
    for i, pred in enumerate(preds):
        bw = backwards[i] if backwards is not None else None
        result = evaluate_loss(pred, gt, valid, spec, backward=bw)
        per_iteration.append(result)
        total += seq.gamma_seq ** (n - 1 - i) * result.scalar
    return total, per_iteration

"""Confidence-weighted L1 losses (weighted_l1), their analytic gradient
(weighted_l1_grad), and the discounted accumulation over refinement
iterations.

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

The weights, the loss map and the gradient are row kernels like confidence's.
evaluate_loss runs the error-based map, the cycle check, the weights and the
loss band by band in one pass, with the bits of build_weights followed by
weighted_l1; the toy trainer's pass also gives the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .confidence import (
    CycleParams,
    _cycle_rows,
    _db_rows,
    _in_row_bands,
    _map_rows,
    _matched_rows,
    _oa_rows,
)
from .fields import (BinaryMask, ConfidenceMap, Grid1, Grid2, check_finite, check_pair,
                     check_same_shape)

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


def weight_db(m: ConfidenceMap, alpha: float, beta: float) -> Grid1:
    """Difficulty-balancing weight 1 + alpha * (1 - M)^beta."""
    return weight_combine(m, None, None, WeightSpec(DB, alpha1=alpha, beta1=beta))


def weight_oa(m: ConfidenceMap, alpha: float, beta: float) -> Grid1:
    """Occlusion-avoiding weight 1 + alpha * M^beta."""
    return weight_combine(None, m, None, WeightSpec(OA, alpha2=alpha, beta2=beta))


_INPUTS = {"db": "error-based map", "oa": "cycle-based map", "hard": "cycle-based mask"}


def _weight_rows(spec: WeightSpec, m_db, m_oa, hard, out) -> None:
    """Row kernel of the mode's weights (the module docstring's formulas, their
    operations in order) into out, which may be m_db itself. The maps are
    trusted to lie in [0, 1]."""
    uses = _FACTORS[spec.mode]
    if not uses:
        out.fill(1.0)
        return
    if "oa" in uses:
        oa_term = m_oa ** spec.beta2
        oa_term *= spec.alpha2
        if "db" not in uses:
            np.add(oa_term, 1.0, out=out)
            return
    np.subtract(1.0, m_db, out=out)
    out **= spec.beta1
    out *= spec.alpha1
    if "hard" in uses:
        np.copyto(out, 0.0, where=~hard)
    if spec.mode == MULTIPLICATION:
        out *= oa_term
    out += 1.0
    if spec.mode in (SUM, MASK_SUM):
        out += oa_term


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
    h, w = check_same_shape(*(g for g in given.values() if g is not None))
    for factor in uses - {"hard"}:
        if np.any(given[factor].data < 0.0) or np.any(given[factor].data > 1.0):
            raise ValueError("confidence map entries must lie in [0, 1]")
    return Grid1._own(_map_rows(lambda *rows: _weight_rows(spec, *rows), np.empty((h, w)),
                                *(None if g is None else g.data for g in given.values())))


def _check_loss_inputs(pred: Grid2 | Grid1, gt: Grid2 | Grid1, valid: BinaryMask,
                       *maps: Grid1) -> int:
    """Check the inputs of a weighted L1 loss; returns the valid-pixel count."""
    check_pair(pred, gt, valid, *maps)
    n_valid = valid.count()
    if n_valid == 0:
        raise ValueError("no valid pixels: the mean loss is undefined")
    return n_valid


def _l1_rows(r, weights, valid, out) -> None:
    """Row kernel of weighted_l1 on r = gt - pred into out, 0 where not valid."""
    if r.ndim == 3:
        np.abs(r[..., 0], out=out)
        out += np.abs(r[..., 1])
    else:
        np.abs(r, out=out)
    out *= weights
    np.copyto(out, 0.0, where=~valid)


def weighted_l1(pred: Grid2 | Grid1, gt: Grid2 | Grid1, weights: Grid1,
                valid: BinaryMask) -> LossResult:
    """Weighted L1: per pixel w * (|du| + |dv|) for flow and w * |dd| for
    stereo, 0 on invalid pixels; the scalar is the mean over valid pixels."""
    n_valid = _check_loss_inputs(pred, gt, valid, weights)
    loss_map = _map_rows(lambda p, g, wt, v, out: _l1_rows(g - p, wt, v, out),
                         np.empty(weights.shape), pred.data, gt.data, weights.data, valid.data)
    return LossResult(scalar=float(loss_map.sum() / n_valid), weight_map=weights,
                      loss_map=Grid1._own(loss_map), n_valid=n_valid)


def _grad_rows(r, weights, valid, out) -> None:
    """Row kernel of weighted_l1_grad on r = gt - pred into out, one plane
    (rows, W) per component of r: w * -sign(r), 0 where not valid."""
    for c, g in enumerate(out):
        np.sign(r[..., c] if r.ndim == 3 else r, out=g)
        np.negative(g, out=g)
        g *= weights
        np.copyto(g, 0.0, where=~valid)


def weighted_l1_grad(pred: Grid2 | Grid1, gt: Grid2 | Grid1, weights: Grid1,
                     valid: BinaryMask) -> Grid2 | Grid1:
    """Derivative of weighted_l1's per-pixel loss w.r.t. pred: w * -sign(gt - pred)
    per component, sign(0) = 0, zero on invalid pixels. Divide by n_valid for
    the gradient of the mean; the weights are constants (stop-gradient)."""
    _check_loss_inputs(pred, gt, valid, weights)
    grad = type(pred)._empty(pred.data.shape)
    _grad_rows(gt.data - pred.data, weights.data, valid.data,
               np.moveaxis(grad, -1, 0) if grad.ndim == 3 else grad[None])
    return type(pred)._own(grad)


def _weights_and_loss(spec: WeightSpec, pred: Grid2 | Grid1, gt: Grid2 | Grid1,
                      valid: BinaryMask, backward: Grid2 | Grid1 | None,
                      loss_map=None, grad=None, weights=None, keep_weights=False):
    """build_weights' map into weights (a new array unless given; with
    keep_weights, the given map is used as it is), weighted_l1's loss map into
    loss_map and weighted_l1_grad's (C, H, W) planes into grad, each if given,
    in one pass over row bands. Each band computes gt - pred once; the cycle
    terms, M_oa and H stay band-sized."""
    h, w = check_pair(pred, gt, valid)
    uses = set() if keep_weights else _FACTORS[spec.mode]
    check = spec.needs_backward and not keep_weights
    if check:
        if backward is None:
            raise ValueError(f"mode {spec.mode!r} needs a backward field")
        terms = _cycle_rows(pred, backward, spec.cycle)
    if weights is None:
        weights = np.empty((h, w))

    def band(r0, r1):
        ok, out = valid.data[r0:r1], weights[r0:r1]
        m_oa = hard = None
        if check:
            num, den, target_valid = terms(r0, r1)
            if "hard" in uses:
                hard = _matched_rows(num, den, target_valid)
            if "oa" in uses:
                m_oa = _oa_rows(num, den, target_valid, num)
        # After the check, so that the band's peak allocation stays low.
        r = gt.data[r0:r1] - pred.data[r0:r1]
        if "db" in uses:  # M_db is built in the weight rows, then updated in place
            _db_rows(r, ok, out)
        if not keep_weights:
            _weight_rows(spec, out, m_oa, hard, out)
        if loss_map is not None:
            _l1_rows(r, out, ok, loss_map[r0:r1])
        if grad is not None:
            _grad_rows(r, out, ok, grad[:, r0:r1])

    _in_row_bands(band, h, w)
    return weights


def build_weights(spec: WeightSpec, pred: Grid2 | Grid1, gt: Grid2 | Grid1,
                  valid: BinaryMask, backward: Grid2 | Grid1 | None = None) -> Grid1:
    """Assemble the weight map a mode needs from the current predictions.

    The error-based map is computed from pred vs gt; the cycle-based map and
    the hard mask from (pred, backward). For stereo (Grid1 inputs), backward
    is the restored right-to-left disparity. M_oa and H come from one shared
    cycle check.
    """
    return Grid1._own(_weights_and_loss(spec, pred, gt, valid, backward))


def evaluate_loss(pred: Grid2 | Grid1, gt: Grid2 | Grid1, valid: BinaryMask,
                  spec: WeightSpec,
                  backward: Grid2 | Grid1 | None = None) -> LossResult:
    """weighted_l1 under build_weights' map, with the same bits, in one pass
    over row bands that holds only the two maps frame-sized. Every input
    check runs before the pass."""
    n_valid = _check_loss_inputs(pred, gt, valid)
    loss_map = np.empty(valid.shape)
    weights = _weights_and_loss(spec, pred, gt, valid, backward, loss_map)
    # The mean over the whole map, summed as weighted_l1 sums it.
    return LossResult(scalar=float(loss_map.sum() / n_valid), weight_map=Grid1._own(weights),
                      loss_map=Grid1._own(loss_map), n_valid=n_valid)


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

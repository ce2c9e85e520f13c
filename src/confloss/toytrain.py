"""Desk-scale training demonstration.

A synthetic scene moves a square over a background; the pixels the
square newly covers have no correspondence in the second frame, and their
training labels are corrupted with zero-mean noise to mimic unreliable
supervision where matching is ill-posed. A low-capacity block model is fit
by plain gradient descent under each loss mode, and the result is scored
against the clean ground truth split by the analytic occlusion mask.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .confidence import confidence_db_flow, confidence_oa
from .fields import BinaryMask, Grid1, Grid2, check_finite
from .losses import WeightSpec, build_weights, weighted_l1, weighted_l1_grad
from .metrics import MetricReport, full_report


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int, what: str):
        super().__init__(f"training diverged at step {step}: {what}")
        self.step = step


@contextmanager
def _diverges_at(step: int):
    """Report numpy's FloatingPointError (train runs under a raising
    np.errstate) or a ValueError from a library check as divergence at step."""
    try:
        yield
    except (ValueError, FloatingPointError) as exc:
        raise TrainingDivergedError(step, str(exc)) from exc


@dataclass(frozen=True)
class SceneSpec:
    """Geometry and supervision noise of one synthetic scene."""

    height: int = 64
    width: int = 64
    square_size: int = 32
    square_motion: tuple[float, float] = (8.0, 0.0)
    background_motion: tuple[float, float] = (0.0, 0.0)
    occluded_label_noise_sigma: float = 3.0
    seed: int = 0

    def __post_init__(self):
        check_finite(self, "square_motion", "background_motion", "occluded_label_noise_sigma")
        if self.occluded_label_noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        if self.square_size < 1 or self.square_size > min(self.height, self.width):
            raise ValueError(f"square size {self.square_size} does not fit a "
                             f"{self.height}x{self.width} frame")
        x0, y0 = self.square_origin
        mx, my = self.square_motion
        for lo, hi, label in (
            (x0, x0 + self.square_size, "x"),
            (y0, y0 + self.square_size, "y"),
            (x0 + mx, x0 + mx + self.square_size, "moved x"),
            (y0 + my, y0 + my + self.square_size, "moved y"),
        ):
            bound = self.width if "x" in label else self.height
            if lo < 0 or hi > bound:
                raise ValueError(f"square leaves the frame along {label} "
                                 f"({lo}..{hi} vs 0..{bound})")

    @property
    def square_origin(self) -> tuple[int, int]:
        """Frame-1 top-left corner, centering the square's travel in frame."""
        mx, my = self.square_motion
        x0 = int(round((self.width - self.square_size - mx) / 2.0))
        y0 = int(round((self.height - self.square_size - my) / 2.0))
        return x0, y0


@dataclass(frozen=True)
class Scene:
    """Analytic fields of one synthetic scene.

    occlusion marks frame-1 background pixels covered by the square in
    frame 2; train_labels carry noise on exactly those pixels. The
    *_backward fields are the symmetric construction for the second frame,
    used to supervise the backward predictor.
    """

    spec: SceneSpec
    gt_forward: Grid2
    gt_backward: Grid2
    occlusion: BinaryMask
    train_labels: Grid2
    valid: BinaryMask
    train_labels_backward: Grid2
    occlusion_backward: BinaryMask


def _inside(xs, ys, x_lo, y_lo, size):
    return (xs >= x_lo) & (xs < x_lo + size) & (ys >= y_lo) & (ys < y_lo + size)


def _frame(xs, ys, size, corners, motion, background):
    """Flow and occlusion of a frame whose square moves from corners[0] to corners[1].

    A background pixel is occluded when its target lands under the moved square.
    """
    in_square = _inside(xs, ys, *corners[0], size)
    occluded = ~in_square & _inside(xs + background[0], ys + background[1], *corners[1], size)
    return np.where(in_square[..., None], motion, background), occluded


def synth_scene(spec: SceneSpec) -> Scene:
    """Generate the analytic flows, occlusion masks, and noisy labels."""
    h, w = spec.height, spec.width
    motion = np.array(spec.square_motion, dtype=np.float64)
    background = np.array(spec.background_motion, dtype=np.float64)
    # The square's corners in frames 1 and 2; backward reuses them: (x0 + mx) - mx may round.
    corners = (spec.square_origin, tuple(spec.square_origin + motion))
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    frames = (_frame(xs, ys, spec.square_size, corners, motion, background),
              _frame(xs, ys, spec.square_size, corners[::-1], -motion, -background))

    rng = np.random.default_rng(spec.seed)
    sigma = spec.occluded_label_noise_sigma
    labels = [flow + np.where(occluded[..., None], rng.normal(0.0, sigma, (h, w, 2))
                              if sigma > 0 else 0.0, 0.0) for flow, occluded in frames]

    (fw, occ_fw), (bw, occ_bw) = frames
    return Scene(
        spec=spec,
        gt_forward=Grid2(fw),
        gt_backward=Grid2(bw),
        occlusion=BinaryMask(occ_fw),
        train_labels=Grid2(labels[0]),
        valid=BinaryMask.full(h, w, True),
        train_labels_backward=Grid2(labels[1]),
        occlusion_backward=BinaryMask(occ_bw),
    )


class BlockFlowModel:
    """Coarse grid of 2-vectors, bilinearly upsampled to full resolution.

    One parameter pair per block keeps capacity strictly below one parameter
    per pixel, which forces the trade-offs the weighted losses manage. The
    parameters start at zero.
    """

    def __init__(self, height: int, width: int, block_size: int):
        if block_size < 2:
            raise ValueError("block_size must be >= 2 (capacity below one parameter per pixel)")
        if height % block_size or width % block_size:
            raise ValueError(f"{height}x{width} not divisible by block size {block_size}")
        self.block_size = block_size
        self.params = np.zeros((height // block_size, width // block_size, 2))
        self._ry = self._axis_matrix(height, self.params.shape[0])
        self._rx = self._axis_matrix(width, self.params.shape[1])

    def _axis_matrix(self, n_full: int, n_coarse: int) -> np.ndarray:
        """(n_full, n_coarse) linear-interpolation weights along one axis."""
        b = self.block_size
        # Block centers sit at (i + 0.5) * b - 0.5; clamp outside the centers.
        c = np.clip((np.arange(n_full) + 0.5) / b - 0.5, 0.0, n_coarse - 1.0)
        # Hat function: weight 1 - |c - i| on the two centers around c, 0 elsewhere.
        return np.maximum(0.0, 1.0 - np.abs(c[:, None] - np.arange(n_coarse)))

    def upsample(self, params: np.ndarray) -> np.ndarray:
        """Per channel c: R_y @ params[..., c] @ R_x.T."""
        return np.moveaxis(self._ry @ np.moveaxis(params, -1, 0) @ self._rx.T, 0, -1)

    def upsample_transpose(self, grad_full: np.ndarray) -> np.ndarray:
        """Adjoint of upsample: per channel c, R_y.T @ grad_full[..., c] @ R_x."""
        return np.moveaxis(self._ry.T @ np.moveaxis(grad_full, -1, 0) @ self._rx, 0, -1)

    def footprint_weighted_mean(self, values: np.ndarray,
                                mass: np.ndarray) -> np.ndarray:
        """Per-cell weighted average of full-resolution values.

        values is (H, W, 2) and mass is (H, W); both go through one
        three-channel adjoint, and the result divides the scattered values by
        the scattered mass, cellwise, with empty cells mapping to 0.
        """
        scattered = self.upsample_transpose(np.dstack((values, mass)))
        num, den = scattered[..., :2], scattered[..., 2:]
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    learning_rate: float = 0.05
    loss_spec: WeightSpec = field(default_factory=WeightSpec)
    recompute_confidence_every: int = 1
    snapshot_every: int = 0
    block_size: int = 8  # side of a model block, in pixels

    def __post_init__(self):
        check_finite(self, "learning_rate")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.recompute_confidence_every < 1:
            raise ValueError("recompute_confidence_every must be >= 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")


@dataclass(frozen=True)
class TrainReport:
    mode: str
    loss_history: list[float]
    report: MetricReport
    final_forward: Grid2
    final_backward: Grid2
    snapshots: list[tuple[int, Grid1, Grid1]]


def _predictions(models, step: int) -> list[Grid2]:
    """Each model's upsampled prediction, reported as divergence at `step`
    unless every entry is finite (an overflow on the way already raises
    under train's np.errstate(over="raise"))."""
    data = [m.upsample(m.params) for m in models]
    if not all(np.all(np.isfinite(d)) for d in data):
        raise TrainingDivergedError(step, "prediction is not finite")
    return [Grid2._own(d) for d in data]


def train(scene: Scene, config: TrainConfig) -> TrainReport:
    """Fit forward and backward block models with plain gradient descent.

    Each step rebuilds the confidence maps from the current predictions
    (every recompute_confidence_every steps), assembles the mode's weight
    map with stop-gradient, and moves each coarse cell by the weighted mean
    of the weighted-L1 pixel gradients under its footprint. Normalizing by
    the scattered weight mass keeps the per-cell step bounded by the
    learning rate for every mode, so a weight map shifts where each cell
    settles (its weighted median) without acting as a learning-rate
    multiplier. Both models have the scene's size and config.block_size and
    start at zero.
    """
    spec = config.loss_spec
    # (forward, backward) pairs: models, their labels, predictions, weights.
    models = tuple(BlockFlowModel(scene.spec.height, scene.spec.width, config.block_size)
                   for _ in range(2))
    labels = (scene.train_labels, scene.train_labels_backward)
    loss_history: list[float] = []
    snapshots: list[tuple[int, Grid1, Grid1]] = []

    # Every map below is built from finite predictions, so the library wraps
    # it without a NaN/Inf scan; an overflow or invalid operation on the way
    # raises FloatingPointError instead, and _diverges_at reports it.
    with np.errstate(over="raise", invalid="raise"):
        for step in range(config.steps):
            with _diverges_at(step):
                preds = _predictions(models, step)
                if step % config.recompute_confidence_every == 0:
                    weights = [build_weights(spec, pred, label, scene.valid, backward=other)
                               for pred, label, other in zip(preds, labels, preds[::-1])]

                # Both models step; the history reads the forward loss only. This
                # order, `loss` held through the updates, keeps the allocator from
                # trimming and re-faulting the heap every step.
                grads = [weighted_l1_grad(pred, label, weight, scene.valid)
                         for pred, label, weight in zip(preds, labels, weights)]
                loss = weighted_l1(preds[0], labels[0], weights[0], scene.valid)
                loss_history.append(loss.scalar)

                for m, grad, weight in zip(models, grads, weights):
                    m.params -= config.learning_rate * m.footprint_weighted_mean(
                        grad.data, np.where(scene.valid.data, weight.data, 0.0))

                if config.snapshot_every and (step + 1) % config.snapshot_every == 0:
                    snapshots.append((step + 1,
                                      confidence_db_flow(preds[0], labels[0], scene.valid),
                                      confidence_oa(*preds, spec.cycle)))

        # The final prediction has taken every step, so an overflow in it
        # counts as divergence at step `steps`.
        with _diverges_at(config.steps):
            final_fw, final_bw = _predictions(models, config.steps)
            # Scored against the clean ground truth; matched region = not occluded.
            report = full_report(final_fw, scene.gt_forward, scene.valid,
                                 region=~scene.occlusion)
    return TrainReport(
        mode=spec.mode,
        loss_history=loss_history,
        report=report,
        final_forward=final_fw,
        final_backward=final_bw,
        snapshots=snapshots,
    )


@dataclass(frozen=True)
class ComparisonRow:
    mode: str
    epe: float | None
    epe_matched: float | None
    epe_unmatched: float | None
    px3: float | None
    n_seeds: int
    per_seed: tuple[TrainReport, ...]


def _mean_or_none(values):
    if any(v is None for v in values):
        return None
    return float(np.mean(values))


def compare_runs(config: TrainConfig, specs: Sequence[WeightSpec],
                 scenes: Sequence[Scene]) -> list[ComparisonRow]:
    """Train one model per (loss spec, scene) pair under `config` with that
    loss spec, and average the metrics per spec.

    Each scene carries its seed in scene.spec.seed (generated by the caller,
    typically with synth_scene(replace(scene_spec, seed=seed))).
    """
    if not specs:
        raise ValueError("no loss specs to compare")
    if not scenes:
        raise ValueError("no scenes to train on")
    rows = []
    for spec in specs:
        cfg = replace(config, loss_spec=spec)
        reports = [train(scene, cfg) for scene in scenes]
        rows.append(ComparisonRow(
            mode=spec.mode,
            epe=_mean_or_none([r.report.epe for r in reports]),
            epe_matched=_mean_or_none([r.report.matched_epe for r in reports]),
            epe_unmatched=_mean_or_none([r.report.unmatched_epe for r in reports]),
            px3=_mean_or_none([r.report.outlier_rates[3.0] for r in reports]),
            n_seeds=len(reports),
            per_seed=tuple(reports),
        ))
    return rows

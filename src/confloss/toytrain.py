"""Desk-scale training demonstration.

A synthetic scene moves a square over a background; the pixels the
square newly covers have no correspondence in the second frame, and their
training labels are corrupted with zero-mean noise to mimic unreliable
supervision where matching is ill-posed. A low-capacity block model is fit
by plain gradient descent under each loss mode, and the result is scored
against the clean ground truth split by the analytic occlusion mask.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import confidence
from .confidence import confidence_db_flow, confidence_oa
from .fields import BinaryMask, Grid1, Grid2, check_fields
from .losses import WeightSpec, _weights_and_loss
from .metrics import MetricReport, full_report


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int, what: str):
        super().__init__(f"training diverged at step {step}: {what}")
        self.step = step
        self.what = what

    def __reduce__(self):  # unpickling calls __init__ with these arguments
        return type(self), (self.step, self.what)


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
    square_size: int = field(default=32, metadata={"min": 1})
    square_motion: tuple[float, float] = (8.0, 0.0)
    background_motion: tuple[float, float] = (0.0, 0.0)
    occluded_label_noise_sigma: float = field(default=3.0, metadata={"min": 0})
    seed: int = field(default=0, metadata={"min": 0})

    def __post_init__(self):
        check_fields(self)
        if self.square_size > min(self.height, self.width):
            raise ValueError(f"square size {self.square_size} does not fit a "
                             f"{self.height}x{self.width} frame")
        (x0, y0), (mx, my), size = self.square_origin, self.square_motion, self.square_size
        for lo, label, bound in ((x0, "x", self.width), (y0, "y", self.height),
                                 (x0 + mx, "moved x", self.width),
                                 (y0 + my, "moved y", self.height)):
            if lo < 0 or lo + size > bound:
                raise ValueError(f"square leaves the frame along {label} "
                                 f"({lo}..{lo + size} vs 0..{bound})")

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
    parameters are stored channel-first, (2, h, w), and start at zero; every
    array the model takes or returns is channel-first too.
    """

    def __init__(self, height: int, width: int, block_size: int):
        if block_size < 2:
            raise ValueError("block_size must be >= 2 (capacity below one parameter per pixel)")
        if height % block_size or width % block_size:
            raise ValueError(f"{height}x{width} not divisible by block size {block_size}")
        self.block_size = block_size
        self.params = np.zeros((2, height // block_size, width // block_size))
        self._ry = self._axis_matrix(height, self.params.shape[1])
        self._rx = self._axis_matrix(width, self.params.shape[2])

    def _axis_matrix(self, n_full: int, n_coarse: int) -> np.ndarray:
        """(n_full, n_coarse) linear-interpolation weights along one axis."""
        b = self.block_size
        # Block centers sit at (i + 0.5) * b - 0.5; clamp outside the centers.
        c = np.clip((np.arange(n_full) + 0.5) / b - 0.5, 0.0, n_coarse - 1.0)
        # Hat function: weight 1 - |c - i| on the two centers around c, 0 elsewhere.
        return np.maximum(0.0, 1.0 - np.abs(c[:, None] - np.arange(n_coarse)))

    def upsample(self, params: np.ndarray) -> np.ndarray:
        """Per channel c: R_y @ params[c] @ R_x.T."""
        return self._ry @ params @ self._rx.T

    def upsample_transpose(self, planes: np.ndarray) -> np.ndarray:
        """Adjoint of upsample: per channel c, R_y.T @ planes[c] @ R_x."""
        return self._ry.T @ planes @ self._rx

    def footprint_weighted_mean(self, planes: np.ndarray) -> np.ndarray:
        """Per-cell weighted average of full-resolution values.

        planes is (3, H, W): the values' two channels, then their mass. All
        three go through one adjoint, and the result divides the scattered
        values by the scattered mass, cellwise, with empty cells mapping to 0.
        """
        scattered = self.upsample_transpose(planes)
        num, den = scattered[:2], scattered[2:]
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = field(default=500, metadata={"min": 1})
    learning_rate: float = field(default=0.05, metadata={"above": 0})
    loss_spec: WeightSpec = field(default_factory=WeightSpec)
    recompute_confidence_every: int = field(default=1, metadata={"min": 1})
    snapshot_every: int = field(default=0, metadata={"min": 0})
    block_size: int = 8  # side of a model block, in pixels

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TrainReport:
    mode: str
    loss_history: list[float]
    report: MetricReport
    final_forward: Grid2
    final_backward: Grid2
    snapshots: list[tuple[int, Grid1, Grid1]]


def _predictions(models, step: int) -> list[Grid2]:
    """Each model's upsampled prediction as an (H, W, 2) view, reported as
    divergence at `step` unless every entry is finite (an overflow on the way
    already raises under train's np.errstate(over="raise"))."""
    data = [m.upsample(m.params) for m in models]
    if not all(np.all(np.isfinite(d)) for d in data):
        raise TrainingDivergedError(step, "prediction is not finite")
    return [Grid2._own(np.moveaxis(d, 0, -1)) for d in data]


def train(scene: Scene, config: TrainConfig) -> TrainReport:
    """Fit forward and backward block models with plain gradient descent.

    Each step rebuilds the confidence maps from the current predictions
    (every recompute_confidence_every steps), assembles the mode's weight
    map with stop-gradient, and moves each coarse cell by the weighted mean
    of the weighted-L1 pixel gradients under its footprint, with one banded
    pass per model for the weights, the gradient and the loss. Normalizing by
    the scattered weight mass keeps the per-cell step bounded by the
    learning rate for every mode, so a weight map shifts where each cell
    settles (its weighted median) without acting as a learning-rate
    multiplier. Both models have the scene's size and config.block_size and
    start at zero.
    """
    spec = config.loss_spec
    h, w = scene.spec.height, scene.spec.width
    # (forward, backward) pairs: models, their labels, predictions, planes.
    models = tuple(BlockFlowModel(h, w, config.block_size) for _ in range(2))
    labels = (scene.train_labels, scene.train_labels_backward)
    invalid, n_valid = ~scene.valid.data, scene.valid.count()
    # Per model, allocated once: gradient u and v, then the weight map, which
    # is the footprint mean's mass (0 where not valid); the forward loss map.
    planes = np.empty((2, 3, h, w))
    loss_map = np.empty((h, w))
    loss_history: list[float] = []
    snapshots: list[tuple[int, Grid1, Grid1]] = []

    # Every map below is built from finite predictions, so the library wraps
    # it without a NaN/Inf scan; an overflow or invalid operation on the way
    # raises FloatingPointError instead, and _diverges_at reports it.
    with np.errstate(over="raise", invalid="raise"):
        for step in range(config.steps):
            with _diverges_at(step):
                preds = _predictions(models, step)
                fresh = step % config.recompute_confidence_every == 0
                # Both models step; the history reads the forward loss only.
                for pred, label, other, p, lm in zip(preds, labels, preds[::-1], planes,
                                                     (loss_map, None)):
                    _weights_and_loss(spec, pred, label, scene.valid, other, lm, p[:2], p[2],
                                      keep_weights=not fresh)
                    if fresh:
                        np.copyto(p[2], 0.0, where=invalid)
                loss_history.append(float(loss_map.sum() / n_valid))

                for m, p in zip(models, planes):
                    m.params -= config.learning_rate * m.footprint_weighted_mean(p)

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
    return TrainReport(mode=spec.mode, loss_history=loss_history, report=report,
                       final_forward=final_fw, final_backward=final_bw, snapshots=snapshots)


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
    return None if any(v is None for v in values) else float(np.mean(values))


def _train_stripe(jobs, stripe) -> list:
    """(index, TrainReport or the exception raised, warnings caught) for each
    (scene, config) job of `stripe`, stopping after the first that raises."""
    out = []
    with warnings.catch_warnings(record=True) as caught:
        for i in stripe:
            try:
                result = train(*jobs[i])
            except Exception as exc:
                result = exc
            out.append((i, result, [(w.message, w.category, w.filename, w.lineno)
                                    for w in caught]))
            caught.clear()
            if isinstance(result, Exception):
                break
    return out


def _train_all(jobs) -> list[TrainReport]:
    """train(scene, config) for each (scene, config) job, with what a serial
    loop gives: the same reports in job order, the first failing job's
    exception, and the warnings of the jobs up to it, in job order.

    Job i runs in stripe i % n, with one stripe per CPU, or one stripe where
    os.fork is missing or another thread runs (a forked child would inherit
    the locks it holds). The caller runs stripe 0. Each other stripe runs in a
    forked child, which pickles its results to a pipe and leaves through
    os._exit; every child is reaped before this returns or raises.
    """
    n = min(confidence._WORKERS, len(jobs))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        n = 1
    pids, reads = [], []
    try:
        for k in range(1, n):
            r, w = os.pipe()
            reads.append(r)
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns of any OS thread, a BLAS pool's too.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(w)
                raise
            if pid == 0:
                try:
                    for fd in reads:
                        os.close(fd)
                    data = pickle.dumps(_train_stripe(jobs, range(k, len(jobs), n)))
                    with open(w, "wb") as fh:
                        fh.write(data)
                finally:
                    os._exit(0)
            os.close(w)
            pids.append(pid)
        outcomes = _train_stripe(jobs, range(0, len(jobs), n))
        for r in reads:
            with open(r, "rb", closefd=False) as fh:
                try:
                    outcomes += pickle.load(fh)  # grids unpickle read-only
                except EOFError:
                    raise RuntimeError("a training worker exited without its results") from None
    finally:
        # Closed before the children are reaped: one blocked on a full pipe
        # then fails its write and exits.
        for r in reads:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)
    reports, registry = [], {}
    for _, result, caught in sorted(outcomes, key=lambda outcome: outcome[0]):
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
        if isinstance(result, Exception):
            raise result
        reports.append(result)
    return reports


def compare_runs(config: TrainConfig, specs: Sequence[WeightSpec],
                 scenes: Sequence[Scene]) -> list[ComparisonRow]:
    """Train one model per (loss spec, scene) pair under `config` with that
    loss spec, and average the metrics per spec.

    Each scene carries its seed in scene.spec.seed (generated by the caller,
    typically with synth_scene(replace(scene_spec, seed=seed))). The runs are
    shared among one process per CPU (see _train_all), with the results,
    exceptions and warnings of running them one after another.
    """
    if not specs:
        raise ValueError("no loss specs to compare")
    if not scenes:
        raise ValueError("no scenes to train on")
    configs = [replace(config, loss_spec=spec) for spec in specs]
    done = _train_all([(scene, cfg) for cfg in configs for scene in scenes])
    rows = []
    for k, spec in enumerate(specs):
        reports = done[k * len(scenes):(k + 1) * len(scenes)]
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

"""The three benchmark workloads: input generators, one op each, output checks.

Every op drives the program only through ``confloss.cli.main(argv)`` on files
the generator wrote; every input is a function of the workload seed. Inputs
are generated once per run, so every op of a run must produce byte-identical
outputs: the first op is checked in full against the oracles, later ops on a
seeded sample of pixels plus byte identity with the first.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import common
from common import FLOW_PARAMS, STEREO_PARAMS, cli_params

# Pixels checked against the oracles: (random, drawn from the analytic
# occlusion), on the warm-up op and on every later op.
SAMPLE_FULL = (2048, 256)
SAMPLE_OP = (128, 32)


@dataclass
class OpResult:
    seconds: float = 0.0
    stages: dict[str, list[float]] = field(default_factory=dict)  # stage -> [ms]
    stdout: str = ""
    errors: list[str] = field(default_factory=list)

    def call(self, run_cli, stage: str, argv: list[str]) -> None:
        code, out, seconds = run_cli(argv)
        self.stages.setdefault(stage, []).append(seconds * 1e3)
        self.stdout += out
        if code != 0:
            self.errors.append(f"{stage}: exit code {code}")


def _sample_pixels(rng, shape, occluded: np.ndarray, counts: tuple[int, int]):
    h, w = shape
    ys = list(rng.integers(0, h, counts[0]))
    xs = list(rng.integers(0, w, counts[0]))
    occ_y, occ_x = np.nonzero(occluded)
    if occ_y.size:
        pick = rng.integers(0, occ_y.size, counts[1])
        ys += list(occ_y[pick])
        xs += list(occ_x[pick])
    return [(int(y), int(x)) for y, x in zip(ys, xs)]


class Workload:
    name = ""
    stages: tuple[str, ...] = ()

    def __init__(self):
        self.reference: dict[str, str] | None = None  # output digests of the first op
        self.ref_stdout = ""

    def identical_to_first(self, result: OpResult) -> None:
        digests = common.digest(self.output_files())
        if self.reference is None:
            self.reference, self.ref_stdout = digests, result.stdout
        elif digests != self.reference or result.stdout != self.ref_stdout:
            changed = sorted(k for k in set(digests) | set(self.reference)
                             if digests.get(k) != self.reference.get(k))
            result.errors.append(f"outputs differ from the first op: {changed or 'stdout'}")

    def output_files(self) -> list[Path]:
        return [p for p in self.out.iterdir() if p.is_file()]

    def clear_outputs(self) -> None:
        """Remove the previous op's outputs, so every op must write its own."""
        for path in self.output_files():
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# toytrain

TOY_MODES = ("plain_l1", "db", "oa", "sum", "multiplication", "masking", "mask_sum")
TOY_STEPS = 12


class ToyTrain(Workload):
    """One op is ``confloss toytrain`` on a seed-generated config.

    Why: the ROADMAP headline (the loss-mode comparison of acceptance
    criterion 7) at 64x64, block 8, all seven modes, two scene seeds,
    snapshots off. Time goes into BlockFlowModel.upsample/upsample_transpose
    and per-call overhead on small arrays (grid construction, the cycle check
    at 64x64); fileio and metrics barely run. All seven modes make the doubled
    cycle check of masking/mask_sum show, and two seeds make seed batching
    show. Stresses: toytrain, losses, confidence, fields at small sizes.
    Bypasses: the .flo/PFM codecs and large-array bandwidth.
    """

    name = "toytrain"
    stages = ("toytrain",)

    def generate(self, seed: int, work: Path):
        rng = np.random.default_rng([0x701, seed])
        s0 = int(rng.integers(0, 1_000_000))
        self.seeds = (s0, s0 + 1 + int(rng.integers(0, 1000)))
        mx = float(rng.choice([6.0, 7.0, 8.0]))
        my = float(rng.choice([-2.0, 0.0, 2.0]))
        sigma = float(rng.uniform(2.5, 3.5))
        text = "\n".join([
            "# benchmark toytrain workload",
            "height = 64", "width = 64", "block_size = 8", "square_size = 32",
            f"square_motion = {mx!r}, {my!r}", "background_motion = 0.0, 0.0",
            f"noise_sigma = {sigma!r}", f"steps = {TOY_STEPS}", "learning_rate = 0.05",
            "seeds = " + ", ".join(map(str, self.seeds)),
            "modes = " + ", ".join(TOY_MODES),
            *(f"{k} = {v!r}" for k, v in FLOW_PARAMS.items()),
            "recompute_confidence_every = 1", "snapshot_every = 0", "",
        ])
        work.mkdir(parents=True, exist_ok=True)
        self.config = work / "toy.cfg"
        self.config.write_text(text, encoding="utf-8")
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)

    @property
    def train_steps(self) -> int:
        return len(TOY_MODES) * len(self.seeds) * TOY_STEPS

    def run_op(self, run_cli) -> OpResult:
        result = OpResult()
        result.call(run_cli, "toytrain",
                    ["toytrain", "--config", str(self.config), "--out-dir", str(self.out)])
        return result

    def check(self, oracles, result: OpResult, rng, full: bool) -> None:
        path = self.out / "comparison.csv"
        if not path.exists():
            result.errors.append("comparison.csv missing")
            return
        lines = path.read_text().strip().splitlines()
        if lines[0] != "mode,epe,epe_matched,epe_unmatched,px3,seeds":
            result.errors.append(f"comparison.csv header {lines[0]!r}")
        modes = tuple(line.split(",")[0] for line in lines[1:])
        if modes != TOY_MODES:
            result.errors.append(f"comparison.csv modes {modes}")
        for line in lines[1:]:
            cells = line.split(",")
            if "NA" in cells or not all(math.isfinite(float(c)) for c in cells[1:5]):
                result.errors.append(f"comparison row not finite: {line}")
            if cells[5] != str(len(self.seeds)):
                result.errors.append(f"comparison row seed count: {line}")
        for mode in TOY_MODES:
            for s in self.seeds:
                if not (self.out / f"report_{mode}_seed{s}.csv").exists():
                    result.errors.append(f"report_{mode}_seed{s}.csv missing")
        self.identical_to_first(result)


# ---------------------------------------------------------------------------
# Dense frames: shared pipeline scaffolding

class FrameWorkload(Workload):
    stereo = False
    mode = ""
    params: dict = {}

    def _dirs(self, work: Path):
        self.inp, self.out = work / "in", work / "out"
        for d in (self.inp, self.out):
            d.mkdir(parents=True, exist_ok=True)

    def _pipeline(self, run_cli, result: OpResult, task: list[str],
                  fw: list[str], bw: list[str], gt: str) -> None:
        p, o = cli_params(self.params), self.out
        pair = ["--forward", fw[-1], "--backward", bw[-1]]
        result.call(run_cli, "confmap_db", [
            "confmap", "--mode", "db", *task, "--pred", fw[-1], "--gt", gt,
            "--out-pfm", str(o / "db.pfm"), "--out-pgm", str(o / "db.pgm"), *p])
        result.call(run_cli, "confmap_oa", [
            "confmap", "--mode", "oa", *task, *pair,
            "--out-pfm", str(o / "oa.pfm"), "--out-pgm", str(o / "oa.pgm"), *p])
        result.call(run_cli, "occmask", ["occmask", *task, *pair,
                                         "--out-pgm", str(o / "occ.pgm"), *p])
        loss = ["loss", "--mode", self.mode, *task, "--gt", gt,
                "--out-weight-map", str(o / "weight.pfm"), *p]
        for f, b in zip(fw, bw):
            loss += ["--pred", f, "--backward", b]
        result.call(run_cli, "loss", loss)
        result.call(run_cli, "eval", ["eval", *task, "--pred", fw[-1], "--gt", gt,
                                      "--region", str(o / "occ.pgm"),
                                      "--out", str(o / "eval.csv")])

    def check(self, oracles, result: OpResult, rng, full: bool) -> None:
        """Sampled oracle checks on every op; the whole-frame metrics CSV on
        the first (full) op, byte identity with the first op afterwards."""
        try:
            self._check_pixels(oracles, result, rng, SAMPLE_FULL if full else SAMPLE_OP)
            if full:
                region = common.decode_pgm((self.out / "occ.pgm").read_bytes()) == 255
                ref = common.oracle_report(oracles, self.pred_read, self.gt_read,
                                           self.valid, region)
                result.errors += common.compare_report(
                    (self.out / "eval.csv").read_text(), ref)
            loss = result.stdout.split()
            if len(loss) != 1 or not (math.isfinite(float(loss[0])) and float(loss[0]) > 0):
                result.errors.append(f"loss printed {result.stdout!r}")
        except (OSError, ValueError) as exc:
            result.errors.append(f"unreadable output: {exc}")
        self.identical_to_first(result)

    def _check_pixels(self, oracles, result: OpResult, rng, counts) -> None:
        o = self.out
        db = common.decode_pfm((o / "db.pfm").read_bytes())
        db_g = common.decode_pgm((o / "db.pgm").read_bytes())
        oa = common.decode_pfm((o / "oa.pfm").read_bytes())
        oa_g = common.decode_pgm((o / "oa.pgm").read_bytes())
        occ = common.decode_pgm((o / "occ.pgm").read_bytes())
        weight = common.decode_pfm((o / "weight.pfm").read_bytes())
        for y, x in _sample_pixels(rng, self.valid.shape, self.occluded, counts):
            m_db, m_oa, hard, w = common.weights_at(
                oracles, self.mode, self.params, self.pixel(self.pred_read, y, x),
                self.pixel(self.gt_read, y, x), bool(self.valid[y, x]),
                self.fw_embed, self.bw_embed, y, x, self.stereo)
            for what, got, want in (("confmap db", db[y, x], m_db),
                                    ("confmap oa", oa[y, x], m_oa),
                                    ("loss weight map", weight[y, x], w)):
                if not common.f32_close(float(got), want):
                    result.errors.append(f"{what} at ({y},{x}): {got!r} vs oracle {want!r}")
            for what, got, want in (("confmap db pgm", db_g[y, x], m_db),
                                    ("confmap oa pgm", oa_g[y, x], m_oa)):
                if abs(int(got) - common.gray(want)) > 1:
                    result.errors.append(f"{what} at ({y},{x}): {got} vs oracle {want!r}")
            if int(occ[y, x]) != (255 if hard else 0):
                result.errors.append(f"occmask at ({y},{x}): {occ[y, x]} vs oracle {hard}")

    @staticmethod
    def pixel(arr: np.ndarray, y: int, x: int):
        value = arr[y, x]
        return float(value) if arr.ndim == 2 else (float(value[0]), float(value[1]))


def _inside(xs, ys, x0, y0, w, h):
    return (xs >= x0) & (xs < x0 + w) & (ys >= y0) & (ys < y0 + h)


def _as_f32(arr: np.ndarray) -> np.ndarray:
    """The float64 values the program reads back from float32 files."""
    return arr.astype(np.float32).astype(np.float64)


UNKNOWN_SHARE = 0.005  # ground-truth pixels marked unknown
# Prediction noise per refinement iteration: sigma = absolute px + share of
# the motion's magnitude, so that large motions carry large errors.
NOISE = ((1.5, 0.12), (0.6, 0.08), (0.25, 0.05))


def _noisy(rng, est: np.ndarray, noise) -> np.ndarray:
    mag = np.sqrt(np.sum(est ** 2, axis=-1, keepdims=True)) if est.ndim == 3 else np.abs(est)
    return _as_f32(est + rng.normal(0.0, 1.0, est.shape) * (noise[0] + noise[1] * mag))


# ---------------------------------------------------------------------------
# flow_frames

class FlowFrames(FrameWorkload):
    """One op is the per-frame flow pipeline on 436x1024 (Sintel-size) .flo
    files: confmap db, confmap oa, occmask, loss --mode mask_sum over a
    3-iteration sequence with backward fields, then eval --region.

    Inputs: a smooth zoom-and-rotate background field whose magnitudes span
    all three speed bins (near 0 at the centre, ~60 px at the corners), a
    moving foreground rectangle that causes real occlusion, predictions that
    drag the foreground motion half-way into the pixels without a
    correspondence (as estimators do), per-iteration prediction noise that
    shrinks (see NOISE) and grows with the motion, and 0.5 % of
    unknown (1e9 sentinel) pixels in the ground truth only: the forward and
    backward fields carry none, so a validity fix does not change this
    workload's work.

    Why: time goes into work on large arrays: fields gathers
    (sample_values/backward_warp), confidence, the .flo codec and metrics.
    On a 2-core Xeon VM the trace puts sample_values at ~0.3 GB/s of
    compulsory traffic against ~15 GB/s of copy bandwidth, so it is not yet
    bandwidth-bound.
    mask_sum runs the cycle check twice per weight map today. Stresses:
    fields, confidence, losses, metrics, fileio (.flo, PGM, PFM) at 446k
    pixels. Bypasses: toytrain, the PFM reader and the Grid1 stereo paths.
    """

    name = "flow_frames"
    stages = ("confmap_db", "confmap_oa", "occmask", "loss", "eval")
    mode = "mask_sum"
    params = FLOW_PARAMS
    H, W = 436, 1024

    def generate(self, seed: int, work: Path):
        self._dirs(work)
        rng = np.random.default_rng([0xF10, seed])
        h, w = self.H, self.W
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        dx, dy = xs - (w - 1) / 2.0, ys - (h - 1) / 2.0
        s, r = rng.uniform(0.10, 0.12), rng.uniform(-0.02, 0.02)
        a = np.array([[s, -r], [r, s]])
        inv = np.linalg.inv(np.eye(2) + a) - np.eye(2)  # backward of the affine motion
        rw, rh = int(rng.integers(160, 240)), int(rng.integers(100, 140))
        x0, y0 = int(rng.integers(200, w - 200 - rw)), int(rng.integers(80, h - 80 - rh))
        du = float(rng.uniform(18.0, 30.0) * rng.choice([-1.0, 1.0]))
        dv = float(rng.uniform(-8.0, 8.0))
        in1 = _inside(xs, ys, x0, y0, rw, rh)
        in2 = _inside(xs, ys, x0 + du, y0 + dv, rw, rh)

        fw = np.empty((h, w, 2))
        fw[..., 0] = np.where(in1, du, a[0, 0] * dx + a[0, 1] * dy)
        fw[..., 1] = np.where(in1, dv, a[1, 0] * dx + a[1, 1] * dy)
        bw = np.empty((h, w, 2))
        bw[..., 0] = np.where(in2, -du, inv[0, 0] * dx + inv[0, 1] * dy)
        bw[..., 1] = np.where(in2, -dv, inv[1, 0] * dx + inv[1, 1] * dy)
        tx, ty = xs + fw[..., 0], ys + fw[..., 1]
        covered = ~in1 & _inside(tx, ty, x0 + du, y0 + dv, rw, rh)
        revealed = ~in2 & _inside(xs + bw[..., 0], ys + bw[..., 1], x0, y0, rw, rh)
        self.occluded = covered | (tx < 0) | (tx > w - 1) | (ty < 0) | (ty > h - 1)
        fw_est = np.where(covered[..., None], (fw + [du, dv]) / 2.0, fw)
        bw_est = np.where(revealed[..., None], (bw - [du, dv]) / 2.0, bw)

        unknown = rng.random((h, w)) < UNKNOWN_SHARE
        gt_file = np.where(unknown[..., None], common.FLO_SENTINEL, fw)
        self.gt = str(self.inp / "gt.flo")
        Path(self.gt).write_bytes(common.encode_flo(gt_file))
        self.fw, self.bw = [], []
        for i, noise in enumerate(NOISE, start=1):
            pf = _noisy(rng, fw_est, noise)
            pb = _noisy(rng, bw_est, noise)
            self.fw.append(str(self.inp / f"fw{i}.flo"))
            self.bw.append(str(self.inp / f"bw{i}.flo"))
            Path(self.fw[-1]).write_bytes(common.encode_flo(pf))
            Path(self.bw[-1]).write_bytes(common.encode_flo(pb))
        # What the program reads: unknown ground truth comes back as 0, invalid.
        self.valid = ~unknown
        self.gt_read = np.where(unknown[..., None], 0.0, _as_f32(fw))
        self.pred_read = self.fw_embed = pf
        self.bw_embed = pb

    def run_op(self, run_cli) -> OpResult:
        result = OpResult()
        self._pipeline(run_cli, result, [], self.fw, self.bw, self.gt)
        return result


# ---------------------------------------------------------------------------
# stereo_frames

class StereoFrames(FrameWorkload):
    """The same pipeline on 375x1242 (KITTI-size) PFM disparities with
    --task stereo: reverse-disparity restores three flipped-pair estimates of
    the right view (written beside the inputs), then confmap db/oa, occmask,
    loss --mode multiplication over the 3-iteration sequence, and eval --region.

    Inputs: a ground-plane disparity ramp (5..55 px, bottom rows nearer) with
    a foreground rectangle at larger disparity that hides a strip of
    background in the right view, estimates that fatten the foreground
    half-way into the hidden strips, per-iteration noise as for flow, and
    0.5 % of unknown (NaN) ground-truth pixels only.

    Why: the same layers used another way: the scalar Grid1 paths, the PFM
    codec (bottom-up rows), the disparity_to_flow embedding and
    reverse_disparity_restore. A change specialised to Grid2/.flo that costs
    stereo shows here. Bypasses: toytrain and the .flo codec.
    """

    name = "stereo_frames"
    stages = ("reverse_disparity", "confmap_db", "confmap_oa", "occmask", "loss", "eval")
    stereo = True
    mode = "multiplication"
    params = STEREO_PARAMS
    H, W = 375, 1242

    def generate(self, seed: int, work: Path):
        self._dirs(work)
        rng = np.random.default_rng([0x57E, seed])
        h, w = self.H, self.W
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        base, ramp = rng.uniform(5.0, 8.0), rng.uniform(38.0, 45.0)
        wobble, period = rng.uniform(0.5, 1.5), rng.uniform(40.0, 90.0)
        bg = base + ramp * ys / (h - 1) + wobble * np.sin(2 * np.pi * ys / period)
        rw, rh = int(rng.integers(160, 240)), int(rng.integers(100, 140))
        x0, y0 = int(rng.integers(300, w - 300 - rw)), int(rng.integers(40, h - 40 - rh))
        d_fg = float(bg[y0 + rh - 1, 0] + rng.uniform(10.0, 20.0))
        in_left = _inside(xs, ys, x0, y0, rw, rh)
        in_right = _inside(xs, ys, x0 - d_fg, y0, rw, rh)
        d_left = np.where(in_left, d_fg, bg)
        d_right = np.where(in_right, d_fg, bg)
        tx = xs - d_left
        hidden = ~in_left & _inside(tx, ys, x0 - d_fg, y0, rw, rh)
        revealed = ~in_right & _inside(xs + d_right, ys, x0, y0, rw, rh)
        self.occluded = hidden | (tx < 0)
        left_est = np.where(hidden, (d_left + d_fg) / 2.0, d_left)
        right_est = np.where(revealed, (d_right + d_fg) / 2.0, d_right)

        unknown = rng.random((h, w)) < UNKNOWN_SHARE
        self.gt = str(self.inp / "gt.pfm")
        Path(self.gt).write_bytes(common.encode_pfm(np.where(unknown, np.nan, d_left)))
        self.fw, self.flipped, self.bw, self.right_reads = [], [], [], []
        for i, noise in enumerate(NOISE, start=1):
            pl = np.maximum(_noisy(rng, left_est, noise), 0.0)
            pr = np.maximum(_noisy(rng, right_est, noise), 0.0)
            self.fw.append(str(self.inp / f"left{i}.pfm"))
            self.flipped.append(str(self.inp / f"right_flipped{i}.pfm"))
            self.bw.append(str(self.inp / f"right{i}.pfm"))  # written by reverse-disparity
            self.right_reads.append(pr)
            Path(self.fw[-1]).write_bytes(common.encode_pfm(pl))
            Path(self.flipped[-1]).write_bytes(common.encode_pfm(-pr[:, ::-1]))
        self.valid = ~unknown
        self.gt_read = np.where(unknown, 0.0, _as_f32(d_left))
        self.pred_read = pl
        zeros = np.zeros((h, w))
        self.fw_embed = np.stack([-pl, zeros], axis=-1)
        self.bw_embed = np.stack([pr, zeros], axis=-1)

    def run_op(self, run_cli) -> OpResult:
        result = OpResult()
        for src, dst in zip(self.flipped, self.bw):
            result.call(run_cli, "reverse_disparity",
                        ["reverse-disparity", "--input", src, "--output", dst])
        self._pipeline(run_cli, result, ["--task", "stereo"], self.fw, self.bw, self.gt)
        return result

    def check(self, oracles, result: OpResult, rng, full: bool) -> None:
        try:
            for path, want in zip(self.bw, self.right_reads):
                if not np.array_equal(common.decode_pfm(Path(path).read_bytes()), want):
                    result.errors.append(f"reverse-disparity {path}: not the flipped, "
                                         "negated input")
        except (OSError, ValueError) as exc:
            result.errors.append(f"unreadable output: {exc}")
        super().check(oracles, result, rng, full)

    def output_files(self) -> list[Path]:
        return super().output_files() + [Path(p) for p in self.bw]


WORKLOADS = {cls.name: cls for cls in (ToyTrain, FlowFrames, StereoFrames)}


def reset(work: Path) -> None:
    """Remove a run's work directory, and its parent once no run uses it."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass

import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from confloss import confidence as confidence_module
from confloss import losses as losses_module
from confloss import metrics as metrics_module
from confloss import toytrain as toytrain_module
from confloss import (
    MODES,
    BinaryMask,
    BlockFlowModel,
    Grid2,
    SceneSpec,
    TrainConfig,
    TrainingDivergedError,
    WeightSpec,
    backward_warp,
    build_weights,
    compare_runs,
    occlusion_mask,
    synth_scene,
    train,
    weighted_l1,
    weighted_l1_grad,
)


class TestSceneSpec:
    def test_defaults_are_valid(self):
        spec = SceneSpec()
        assert spec.height == spec.width == 64

    def test_square_must_fit(self):
        with pytest.raises(ValueError):
            SceneSpec(square_size=80)
        with pytest.raises(ValueError):
            SceneSpec(square_size=32, square_motion=(40.0, 0.0))

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            SceneSpec(occluded_label_noise_sigma=-1.0)


class TestSynthScene:
    def test_no_relative_motion_means_no_occlusion(self):
        scene = synth_scene(SceneSpec(square_motion=(2.0, 1.0),
                                      background_motion=(2.0, 1.0)))
        assert scene.occlusion.count() == 0
        np.testing.assert_array_equal(scene.train_labels.data, scene.gt_forward.data)

    def test_covered_strip_size(self):
        scene = synth_scene(SceneSpec(square_size=24, square_motion=(4.0, 0.0)))
        assert scene.occlusion.count() == 24 * 4

    def test_zero_sigma_keeps_labels_clean(self):
        scene = synth_scene(SceneSpec(occluded_label_noise_sigma=0.0))
        assert scene.occlusion.count() > 0
        np.testing.assert_array_equal(scene.train_labels.data, scene.gt_forward.data)

    def test_noise_touches_only_occluded_pixels(self):
        scene = synth_scene(SceneSpec(seed=5))
        delta = scene.train_labels.data - scene.gt_forward.data
        changed = np.any(delta != 0, axis=-1)
        assert not changed[~scene.occlusion.data].any()
        assert changed[scene.occlusion.data].mean() > 0.9

    def test_valid_everywhere(self):
        assert synth_scene(SceneSpec()).valid.data.all()

    def test_backward_inverts_forward_off_occlusion(self):
        scene = synth_scene(SceneSpec(seed=3))
        composed, in_frame = backward_warp(scene.gt_backward, scene.gt_forward)
        residual = np.abs(scene.gt_forward.data + composed.data).sum(axis=-1)
        check = ~scene.occlusion.data & in_frame.data
        assert residual[check].max() == 0.0

    def test_cycle_mask_agrees_with_geometry(self):
        scene = synth_scene(SceneSpec(seed=2))
        mask = occlusion_mask(scene.gt_forward, scene.gt_backward)
        agreement = (mask.data == ~scene.occlusion.data).mean()
        assert agreement >= 0.95

    def test_backward_occlusion_keeps_the_exact_frame1_corner(self):
        # The frame-1 square spans x 15..46 and the frame-2 one x 17.19..49.19,
        # so columns 15..17 are revealed. (15 + 2.19) - 2.19 is not 15 in
        # floating point: a frame-1 corner rebuilt from the frame-2 one would
        # lose column 15.
        spec = SceneSpec(square_motion=(2.19, 0.0))
        assert spec.square_origin == (15, 16)
        revealed = synth_scene(spec).occlusion_backward.data
        assert revealed.any(axis=0).nonzero()[0].tolist() == [15, 16, 17]
        assert revealed.sum() == 3 * 32

    def test_deterministic_per_seed(self):
        a = synth_scene(SceneSpec(seed=9))
        b = synth_scene(SceneSpec(seed=9))
        np.testing.assert_array_equal(a.train_labels.data, b.train_labels.data)


# (height, width, block): square, non-square, and grids whose border pixels
# lie outside the outermost block centers and clamp to them.
UPSAMPLE_SHAPES = [(64, 64, 8), (32, 24, 8), (12, 20, 4), (6, 10, 2)]


class TestBlockFlowModel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BlockFlowModel(60, 64, 8)
        with pytest.raises(ValueError):
            BlockFlowModel(64, 64, 1)  # one parameter pair per pixel

    def test_upsample_constant_field(self):
        model = BlockFlowModel(16, 16, 4)
        assert model.params.shape == (2, 4, 4)
        model.params[0], model.params[1] = 2.0, -1.0
        pred = model.upsample(model.params)
        assert pred.shape == (2, 16, 16)
        np.testing.assert_allclose(pred[0], 2.0)
        np.testing.assert_allclose(pred[1], -1.0)

    @pytest.mark.parametrize("h, w, block", UPSAMPLE_SHAPES)
    def test_upsample_matches_oracle(self, h, w, block):
        model = BlockFlowModel(h, w, block)
        p = np.random.default_rng(1).normal(size=model.params.shape)
        # The oracle is channel-last: (h, w, 2) in, (H, W, 2) out.
        expected = np.array(oracles.block_upsample(np.moveaxis(p, 0, -1).tolist(), block))
        np.testing.assert_allclose(model.upsample(p), np.moveaxis(expected, -1, 0),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h, w, block", UPSAMPLE_SHAPES)
    def test_transpose_is_adjoint(self, h, w, block):
        model = BlockFlowModel(h, w, block)
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = rng.normal(size=model.params.shape)
            g = rng.normal(size=(2, h, w))
            lhs = np.sum(model.upsample(p) * g)
            rhs = np.sum(p * model.upsample_transpose(g))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("h, w, block", UPSAMPLE_SHAPES)
    def test_footprint_weighted_mean_matches_oracle(self, h, w, block):
        model = BlockFlowModel(h, w, block)
        rng = np.random.default_rng(2)
        mass = rng.uniform(0.0, 1.0, size=(h, w))
        mass[rng.uniform(size=(h, w)) < 0.3] = 0.0
        mass[:2 * block, :2 * block] = 0.0  # no mass under coarse cell (0, 0)
        values = mass[..., None] * rng.normal(size=(h, w, 2))
        expected = np.array(oracles.footprint_weighted_mean(
            values.tolist(), mass.tolist(), block))
        planes = np.ascontiguousarray(np.moveaxis(np.dstack((values, mass)), -1, 0))
        got = model.footprint_weighted_mean(planes)
        assert got.shape == model.params.shape
        np.testing.assert_allclose(got, np.moveaxis(expected, -1, 0), rtol=0, atol=1e-12)
        assert (got[:, 0, 0] == 0.0).all()


def quick_config(mode="plain_l1", **kw):
    defaults = dict(steps=40, learning_rate=0.05,
                    loss_spec=WeightSpec(mode))
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrain:
    def test_trivial_target_reaches_zero(self):
        scene = synth_scene(SceneSpec(square_motion=(0.0, 0.0),
                                      background_motion=(0.0, 0.0),
                                      occluded_label_noise_sigma=0.0))
        report = train(scene, quick_config(steps=500))
        assert report.report.epe < 1e-3
        assert report.loss_history[-1] < 1e-12

    def test_alpha_zero_reproduces_plain_bitexact(self):
        scene = synth_scene(SceneSpec(seed=1))
        plain = train(scene, quick_config("plain_l1"))
        for mode in ("db", "oa", "multiplication", "mask_sum"):
            spec = WeightSpec(mode, alpha1=0.0, alpha2=0.0)
            rerun = train(scene, quick_config(loss_spec=spec))
            assert rerun.loss_history == plain.loss_history
            np.testing.assert_array_equal(rerun.final_forward.data,
                                          plain.final_forward.data)

    def test_deterministic(self):
        scene = synth_scene(SceneSpec(seed=4))
        a = train(scene, quick_config("oa"))
        b = train(scene, quick_config("oa"))
        assert a.loss_history == b.loss_history
        np.testing.assert_array_equal(a.final_forward.data, b.final_forward.data)
        np.testing.assert_array_equal(a.final_backward.data, b.final_backward.data)

    def test_loss_non_increasing_at_small_lr(self):
        # All targets stay above the predictions for the whole horizon here
        # (travel 500 * 0.01 = 5 px, smallest target component 8 px), so no
        # cell reaches an L1 kink and descent is strict.
        scene = synth_scene(SceneSpec(square_motion=(16.0, 0.0),
                                      background_motion=(8.0, 0.0),
                                      occluded_label_noise_sigma=0.0))
        report = train(scene, quick_config(steps=500, learning_rate=0.01))
        diffs = np.diff(report.loss_history)
        assert (diffs <= 0).all()

    def test_divergence_is_reported_with_step(self):
        scene = synth_scene(SceneSpec(seed=0))
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as err:
            train(scene, quick_config(steps=5, learning_rate=1e308))
        assert err.value.step >= 1

    def test_snapshots_every_k_steps(self):
        scene = synth_scene(SceneSpec(seed=0))
        report = train(scene, quick_config(steps=30, snapshot_every=10))
        assert [s[0] for s in report.snapshots] == [10, 20, 30]
        for _, m_db, m_oa in report.snapshots:
            assert 0.0 <= m_db.data.min() and m_db.data.max() <= 1.0
            assert 0.0 <= m_oa.data.min() and m_oa.data.max() <= 1.0

    @pytest.mark.parametrize("every", (1, 3))
    @pytest.mark.parametrize("mode", MODES)
    def test_one_banded_pass_per_model_per_step(self, mode, every, monkeypatch):
        passes = []
        real = confidence_module._in_row_bands
        for module in (confidence_module, losses_module, metrics_module):
            monkeypatch.setattr(module, "_in_row_bands",
                                lambda *args: passes.append(1) or real(*args))
        scene = synth_scene(SceneSpec(height=32, width=32, square_size=16,
                                      square_motion=(4.0, 0.0)))
        train(scene, quick_config(mode, steps=7, block_size=4,
                                  recompute_confidence_every=every))
        assert len(passes) == 2 * 7 + 1  # and one for the final report

    @pytest.mark.parametrize("every", (1, 3))
    @pytest.mark.parametrize("mode", ("plain_l1", "db", "oa", "mask_sum"))
    def test_equals_public_functions_step_by_step(self, mode, every):
        # The public functions, one call per map, on a scene with invalid pixels.
        scene = synth_scene(SceneSpec(height=32, width=32, square_size=16,
                                      square_motion=(4.0, 0.0), seed=6))
        valid = BinaryMask(np.random.default_rng(6).random((32, 32)) > 0.2)
        scene = dataclasses.replace(scene, valid=valid)
        config = quick_config(mode, steps=8, block_size=4, recompute_confidence_every=every)
        models = [BlockFlowModel(32, 32, 4) for _ in range(2)]
        labels = (scene.train_labels, scene.train_labels_backward)
        history = []
        for step in range(config.steps):
            preds = [Grid2(np.moveaxis(m.upsample(m.params), 0, -1)) for m in models]
            if step % every == 0:
                weights = [build_weights(config.loss_spec, p, label, valid, backward=other)
                           for p, label, other in zip(preds, labels, preds[::-1])]
            grads = [weighted_l1_grad(p, label, wt, valid)
                     for p, label, wt in zip(preds, labels, weights)]
            history.append(weighted_l1(preds[0], labels[0], weights[0], valid).scalar)
            for m, grad, wt in zip(models, grads, weights):
                mass = np.where(valid.data, wt.data, 0.0)
                planes = np.concatenate((np.moveaxis(grad.data, -1, 0), mass[None]))
                m.params -= config.learning_rate * m.footprint_weighted_mean(
                    np.ascontiguousarray(planes))
        report = train(scene, config)
        assert report.loss_history == history
        for got, m in zip((report.final_forward, report.final_backward), models):
            np.testing.assert_array_equal(got.data, np.moveaxis(m.upsample(m.params), 0, -1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(recompute_confidence_every=0)
        with pytest.raises(ValueError, match="snapshot_every must be >= 0"):
            TrainConfig(snapshot_every=-1)


# SHA-256 of a 12-step train run on a 32x32 scene (block 4): the forward loss
# history, both final predictions and every snapshot's step and maps, as
# float64 bytes. Any change to the step's arithmetic or its order moves them.
PINNED_TRAIN_DIGESTS = {
    ("plain_l1", 1): "d73208b8ed22aa107937e812ceaf3191ce128aae8595a6237be1fe8972f3ca5f",
    ("db", 1): "b701ba16299cad4b1e3661ab59d0de329e9d1adcf034e6c2ae2a395a95b5a832",
    ("oa", 1): "c1123c8a539de85ee1a72778d0c73726bcc70ecb18cd497bfc49d4fc0e3181ba",
    ("sum", 1): "7422a6eb4de0fbb4fcb669770579263e1552ad603727a4172ce1cd566ada0e82",
    ("multiplication", 1): "c6305a45e06f7880165dadcaf720b6a3454b5e5d9055a455fbaef1211519e0b9",
    ("masking", 1): "345231c5353ee881ddecba191bd4c70dc989527c5731cf7e6d52808d878649a6",
    ("mask_sum", 1): "c287b1460cc01940bee92553c45f3f645f00b160efdbf0ec2d083f7624f575fe",
    ("plain_l1", 3): "d73208b8ed22aa107937e812ceaf3191ce128aae8595a6237be1fe8972f3ca5f",
    ("db", 3): "64d5ebb6d809eb669be2549f15cd36601c79cc4424f0f22b17e5e5d9fd8c1970",
    ("oa", 3): "391cb524a7888dec75e679120713c3b0a4fe5168f6c4dd13f6850990fb1dda4d",
    ("sum", 3): "1f2e26b5fd8800823b6c70ff1ce61668ab80677fca20841c0eebe643da129fe0",
    ("multiplication", 3): "338dd10ad08ee9c031ec16bbb0143ac2095447edda663ae2ec6bdf682bbc9c98",
    ("masking", 3): "9681ae6e3013e5122d6a87fbf4496d6243c8c8a2ef9f54f38a47486ca5869dc4",
    ("mask_sum", 3): "21fc84dceb9ecc9243ede52ce390b864a28b076f8debfd4409de610fdc52d11b",
}


@pytest.mark.parametrize("mode, every", sorted(PINNED_TRAIN_DIGESTS))
def test_train_bits_pinned(mode, every):
    scene = synth_scene(SceneSpec(height=32, width=32, square_size=16,
                                  square_motion=(4.0, 0.0),
                                  occluded_label_noise_sigma=2.0, seed=3))
    report = train(scene, TrainConfig(steps=12, block_size=4, loss_spec=WeightSpec(mode),
                                      recompute_confidence_every=every, snapshot_every=5))
    assert [s[0] for s in report.snapshots] == [5, 10]
    digest = hashlib.sha256(np.array(report.loss_history).tobytes())
    for grid in (report.final_forward, report.final_backward):
        digest.update(grid.data.tobytes())
    for step, m_db, m_oa in report.snapshots:
        digest.update(step.to_bytes(4, "little"))
        digest.update(m_db.data.tobytes())
        digest.update(m_oa.data.tobytes())
    assert digest.hexdigest() == PINNED_TRAIN_DIGESTS[mode, every]


class TestCompareRuns:
    def test_identical_configs_identical_rows(self):
        scene = synth_scene(SceneSpec(seed=0))
        spec = WeightSpec("db")
        rows = compare_runs(quick_config(steps=20), [spec, spec], [scene])
        assert rows[0].epe == rows[1].epe
        assert rows[0].epe_matched == rows[1].epe_matched
        assert rows[0].px3 == rows[1].px3

    def test_no_occlusion_matched_equals_overall(self):
        spec = SceneSpec(square_motion=(2.0, 0.0), background_motion=(2.0, 0.0),
                         occluded_label_noise_sigma=0.0)
        rows = compare_runs(quick_config(steps=20), [WeightSpec()], [synth_scene(spec)])
        assert rows[0].epe_matched == pytest.approx(rows[0].epe)
        assert rows[0].epe_unmatched is None

    def test_config_applies_to_every_spec(self):
        # The config's own loss_spec is replaced by each spec in turn.
        scene = synth_scene(SceneSpec(seed=0))
        rows = compare_runs(quick_config("oa", steps=7, snapshot_every=7),
                            [WeightSpec("db"), WeightSpec("sum")], [scene])
        for row in rows:
            [report] = row.per_seed
            assert report.mode == row.mode
            assert len(report.loss_history) == 7
            assert [s[0] for s in report.snapshots] == [7]

    def test_no_specs_rejected(self):
        with pytest.raises(ValueError, match="no loss specs"):
            compare_runs(quick_config(), [], [synth_scene(SceneSpec(seed=0))])

    def test_no_scenes_rejected(self):
        with pytest.raises(ValueError, match="no scenes"):
            compare_runs(quick_config(), [WeightSpec()], [])

    def test_row_labels_follow_modes(self):
        scene = synth_scene(SceneSpec(seed=0))
        rows = compare_runs(quick_config(steps=10),
                            [WeightSpec("plain_l1"), WeightSpec("multiplication")], [scene])
        assert [r.mode for r in rows] == ["plain_l1", "multiplication"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def diverging_on(seeds, real=train):
    """train, except that the scenes of `seeds` run at a learning rate that
    overflows, as in test_divergence_is_reported_with_step."""
    def run(scene, cfg):
        if scene.spec.seed in seeds:
            cfg = dataclasses.replace(cfg, learning_rate=1e308)
        return real(scene, cfg)
    return run


def small_scene(seed):
    return synth_scene(SceneSpec(height=32, width=32, square_size=16,
                                 square_motion=(4.0, 0.0), seed=seed))


class TestRunsInWorkers:
    """compare_runs shares its runs among forked workers, one per CPU, and
    returns, raises and warns exactly as one run after another does."""

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_same_results_as_serial_runs(self, workers, monkeypatch):
        config = TrainConfig(steps=12, block_size=4, snapshot_every=5,
                             recompute_confidence_every=2)
        specs = [WeightSpec(mode) for mode in MODES]
        scenes = [small_scene(seed) for seed in range(3)]
        monkeypatch.setattr(confidence_module, "_WORKERS", workers)
        rows = compare_runs(config, specs, scenes)
        assert_no_child_left()
        for spec, row in zip(specs, rows):
            cfg = dataclasses.replace(config, loss_spec=spec)
            assert row.mode == spec.mode and row.n_seeds == 3
            for scene, got in zip(scenes, row.per_seed):
                want = train(scene, cfg)
                assert got.mode == want.mode and got.report == want.report
                assert got.loss_history == want.loss_history
                pairs = [(got.final_forward, want.final_forward),
                         (got.final_backward, want.final_backward)]
                assert [s[0] for s in got.snapshots] == [s[0] for s in want.snapshots]
                for (_, *maps), (_, *twins) in zip(got.snapshots, want.snapshots):
                    pairs += zip(maps, twins)
                for g, w in pairs:
                    assert type(g) is type(w) and g.data.strides == w.data.strides
                    assert g.data.tobytes() == w.data.tobytes()
                    assert not g.data.flags.writeable

    def test_divergence_in_a_workers_stripe_raises_the_serial_error(self, monkeypatch):
        # Jobs 1 (a worker's) and 2 (the caller's) diverge; job 1's error wins.
        scenes = [small_scene(seed) for seed in range(4)]
        config = quick_config(steps=5, block_size=4)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as serial:
            diverging_on({1})(scenes[1], config)
        monkeypatch.setattr(confidence_module, "_WORKERS", 2)
        monkeypatch.setattr(toytrain_module, "train", diverging_on({1, 2}))
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as err:
            compare_runs(config, [WeightSpec()], scenes)
        assert_no_child_left()
        assert err.value.step == serial.value.step
        assert str(err.value) == str(serial.value)

    def test_divergence_in_the_callers_stripe_with_a_full_pipe_returns(self):
        # The worker's one 64x64 report (two 64 KB predictions and snapshots)
        # overfills a pipe while the caller's job fails at once, both as a
        # training error and as an interrupt that no stripe catches.
        code = textwrap.dedent("""
            import os, sys
            sys.path.insert(0, sys.argv[1])
            from confloss import confidence, toytrain
            from confloss.toytrain import *
            from confloss import WeightSpec
            confidence._WORKERS = 2
            real = toytrain.train
            for error in (TrainingDivergedError(0, "caller"), KeyboardInterrupt()):
                def run(scene, cfg, error=error):
                    if scene.spec.seed == 0:
                        raise error
                    return real(scene, cfg)
                toytrain.train = run
                scenes = [synth_scene(SceneSpec(seed=s)) for s in (0, 1)]
                try:
                    compare_runs(TrainConfig(steps=2, snapshot_every=1), [WeightSpec()], scenes)
                except BaseException as exc:
                    print(type(exc).__name__)
                try:
                    os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    print("no child left")
        """)
        src = str(Path(toytrain_module.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code, src], check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.split("\n") == ["TrainingDivergedError", "no child left",
                                   "KeyboardInterrupt", "no child left", ""]

    def test_a_worker_that_dies_without_results_raises(self, monkeypatch):
        caller = os.getpid()

        def dying_train(scene, cfg, real=train):
            if os.getpid() != caller:
                os._exit(3)
            return real(scene, cfg)
        monkeypatch.setattr(confidence_module, "_WORKERS", 2)
        monkeypatch.setattr(toytrain_module, "train", dying_train)
        with pytest.raises(RuntimeError) as err:
            compare_runs(quick_config(steps=2, block_size=4), [WeightSpec()],
                         [small_scene(seed) for seed in range(2)])
        assert_no_child_left()
        assert str(err.value) == "a training worker exited without its results"

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called with a second thread alive")
        monkeypatch.setattr(confidence_module, "_WORKERS", 2)
        monkeypatch.setattr(os, "fork", no_fork)
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        other.start()
        try:
            rows = compare_runs(quick_config(steps=3), [WeightSpec()],
                                [synth_scene(SceneSpec(seed=s)) for s in (0, 1)])
        finally:
            done.set()
            other.join(timeout=60)
        assert not other.is_alive() and rows[0].n_seeds == 2

    def test_warnings_reach_the_caller_in_job_order(self, monkeypatch):
        def warning_train(scene, cfg, real=train):
            warnings.warn(f"job of seed {scene.spec.seed}", UserWarning)
            return real(scene, cfg)
        monkeypatch.setattr(confidence_module, "_WORKERS", 2)
        monkeypatch.setattr(toytrain_module, "train", warning_train)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            compare_runs(quick_config(steps=2, block_size=4), [WeightSpec()],
                         [small_scene(seed) for seed in range(3)])
        assert_no_child_left()
        assert [str(w.message) for w in caught] == [f"job of seed {s}" for s in range(3)]
        assert {w.category for w in caught} == {UserWarning}


def test_divergence_error_pickles():
    err = pickle.loads(pickle.dumps(TrainingDivergedError(7, "prediction is not finite")))
    assert type(err) is TrainingDivergedError and err.step == 7
    assert str(err) == "training diverged at step 7: prediction is not finite"

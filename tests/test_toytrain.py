import numpy as np
import pytest

import oracles
from confloss import (
    BlockFlowModel,
    SceneSpec,
    TrainConfig,
    TrainingDivergedError,
    WeightSpec,
    backward_warp,
    compare_runs,
    occlusion_mask,
    synth_scene,
    train,
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
        model.params[...] = [2.0, -1.0]
        pred = model.upsample(model.params)
        np.testing.assert_allclose(pred[..., 0], 2.0)
        np.testing.assert_allclose(pred[..., 1], -1.0)

    @pytest.mark.parametrize("h, w, block", UPSAMPLE_SHAPES)
    def test_upsample_matches_oracle(self, h, w, block):
        model = BlockFlowModel(h, w, block)
        p = np.random.default_rng(1).normal(size=model.params.shape)
        expected = np.array(oracles.block_upsample(p.tolist(), block))
        np.testing.assert_allclose(model.upsample(p), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h, w, block", UPSAMPLE_SHAPES)
    def test_transpose_is_adjoint(self, h, w, block):
        model = BlockFlowModel(h, w, block)
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = rng.normal(size=model.params.shape)
            g = rng.normal(size=(h, w, 2))
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
        got = model.footprint_weighted_mean(values, mass)
        assert got.shape == model.params.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert (got[0, 0] == 0.0).all()


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
        report = train(scene, BlockFlowModel(64, 64), quick_config(steps=500))
        assert report.report.epe < 1e-3
        assert report.loss_history[-1] < 1e-12

    def test_alpha_zero_reproduces_plain_bitexact(self):
        scene = synth_scene(SceneSpec(seed=1))
        plain = train(scene, BlockFlowModel(64, 64), quick_config("plain_l1"))
        for mode in ("db", "oa", "multiplication", "mask_sum"):
            spec = WeightSpec(mode, alpha1=0.0, alpha2=0.0)
            rerun = train(scene, BlockFlowModel(64, 64),
                         quick_config(loss_spec=spec))
            assert rerun.loss_history == plain.loss_history
            np.testing.assert_array_equal(rerun.final_forward.data,
                                          plain.final_forward.data)

    def test_deterministic(self):
        scene = synth_scene(SceneSpec(seed=4))
        a = train(scene, BlockFlowModel(64, 64), quick_config("oa"))
        b = train(scene, BlockFlowModel(64, 64), quick_config("oa"))
        assert a.loss_history == b.loss_history
        np.testing.assert_array_equal(a.final_forward.data, b.final_forward.data)
        np.testing.assert_array_equal(a.final_backward.data, b.final_backward.data)

    def test_does_not_mutate_input_model(self):
        scene = synth_scene(SceneSpec(seed=0))
        model = BlockFlowModel(64, 64)
        train(scene, model, quick_config(steps=5))
        assert (model.params == 0).all()

    def test_loss_non_increasing_at_small_lr(self):
        # All targets stay above the predictions for the whole horizon here
        # (travel 500 * 0.01 = 5 px, smallest target component 8 px), so no
        # cell reaches an L1 kink and descent is strict.
        scene = synth_scene(SceneSpec(square_motion=(16.0, 0.0),
                                      background_motion=(8.0, 0.0),
                                      occluded_label_noise_sigma=0.0))
        report = train(scene, BlockFlowModel(64, 64),
                      quick_config(steps=500, learning_rate=0.01))
        diffs = np.diff(report.loss_history)
        assert (diffs <= 0).all()

    def test_divergence_is_reported_with_step(self):
        scene = synth_scene(SceneSpec(seed=0))
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as err:
            train(scene, BlockFlowModel(64, 64),
                 quick_config(steps=5, learning_rate=1e308))
        assert err.value.step >= 1

    def test_snapshots_every_k_steps(self):
        scene = synth_scene(SceneSpec(seed=0))
        report = train(scene, BlockFlowModel(64, 64),
                      quick_config(steps=30, snapshot_every=10))
        assert [s[0] for s in report.snapshots] == [10, 20, 30]
        for _, m_db, m_oa in report.snapshots:
            assert 0.0 <= m_db.data.min() and m_db.data.max() <= 1.0
            assert 0.0 <= m_oa.data.min() and m_oa.data.max() <= 1.0

    def test_scene_model_shape_mismatch(self):
        scene = synth_scene(SceneSpec(seed=0))
        with pytest.raises(ValueError):
            train(scene, BlockFlowModel(32, 32), quick_config())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(recompute_confidence_every=0)


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

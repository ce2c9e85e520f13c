import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from confloss import confidence as confidence_module
from confloss import losses as losses_module
from confloss import (
    BinaryMask,
    Grid1,
    Grid2,
    MODES,
    SequenceParams,
    WeightSpec,
    build_weights,
    confidence_db_flow,
    confidence_db_stereo,
    confidence_oa,
    epe_map,
    evaluate_loss,
    full_report,
    occlusion_mask,
    sequence_loss,
    weight_combine,
    weight_db,
    weight_oa,
    weighted_l1,
    weighted_l1_grad,
)
from confloss.fields import _CHUNK
from test_confidence import banded_pair, whole_frame_terms


def random_instance(rng, h=8, w=8):
    pred = Grid2(rng.normal(0, 2, (h, w, 2)))
    gt = Grid2(rng.normal(0, 2, (h, w, 2)))
    bw = Grid2(rng.normal(0, 2, (h, w, 2)))
    valid = BinaryMask(rng.random((h, w)) > 0.1)
    if not valid.data.any():
        valid = BinaryMask.full(h, w)
    return pred, gt, bw, valid


def spec_for(mode):
    return WeightSpec(mode)


class TestWeightDb:
    def test_full_confidence_is_plain(self):
        m = Grid1.full(2, 2, 1.0)
        np.testing.assert_array_equal(weight_db(m, 2.0, 0.5).data, np.ones((2, 2)))

    def test_zero_confidence(self):
        assert weight_db(Grid1.zeros(1, 1), 2.0, 0.5).data[0, 0] == 3.0

    def test_intermediate(self):
        assert weight_db(Grid1.full(1, 1, 0.75), 2.0, 0.5).data[0, 0] == pytest.approx(2.0)

    def test_rfl_special_case(self):
        m = Grid1(np.linspace(0, 1, 12).reshape(3, 4))
        np.testing.assert_array_equal(weight_db(m, 1.0, 1.0).data, 1.0 + (1.0 - m.data))

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            weight_db(Grid1.zeros(1, 1), 2.0, 0.0)

    def test_rejects_out_of_range_confidence(self):
        with pytest.raises(ValueError):
            weight_db(Grid1.full(1, 1, 1.5), 2.0, 0.5)

    @pytest.mark.parametrize("weight", (weight_db, weight_oa))
    def test_rejects_negative_alpha(self, weight):
        with pytest.raises(ValueError, match="alpha"):
            weight(Grid1.zeros(1, 1), -1.0, 0.5)


class TestWeightOa:
    def test_occluded_is_plain(self):
        assert weight_oa(Grid1.zeros(1, 1), 2.0, 1.0).data[0, 0] == 1.0

    def test_full_confidence(self):
        assert weight_oa(Grid1.full(1, 1, 1.0), 2.0, 1.0).data[0, 0] == 3.0

    def test_half(self):
        assert weight_oa(Grid1.full(1, 1, 0.5), 1.0, 1.0).data[0, 0] == 1.5


class TestWeightCombine:
    def test_multiplication_zero_cycle_confidence(self):
        w = weight_combine(Grid1.zeros(1, 1), Grid1.zeros(1, 1),
                           BinaryMask.full(1, 1), spec_for("multiplication"))
        assert w.data[0, 0] == 1.0

    def test_masking_occluded_is_plain(self):
        w = weight_combine(Grid1.zeros(1, 1), Grid1.zeros(1, 1),
                           BinaryMask.full(1, 1, False), spec_for("masking"))
        assert w.data[0, 0] == 1.0

    def test_mask_sum_example(self):
        spec = WeightSpec(mode="mask_sum", alpha1=2, beta1=1, alpha2=2, beta2=1)
        w = weight_combine(Grid1.zeros(1, 1), Grid1.full(1, 1, 1.0),
                           BinaryMask.full(1, 1), spec)
        assert w.data[0, 0] == 5.0

    @pytest.mark.parametrize("mode", ("sum", "multiplication"))
    def test_hard_may_be_none_without_h(self, mode):
        rng = np.random.default_rng(41)
        m_db, m_oa = Grid1(rng.random((3, 4))), Grid1(rng.random((3, 4)))
        spec = spec_for(mode)
        np.testing.assert_array_equal(
            weight_combine(m_db, m_oa, None, spec).data,
            weight_combine(m_db, m_oa, BinaryMask.full(3, 4, False), spec).data)

    @pytest.mark.parametrize("mode", ("masking", "mask_sum"))
    def test_modes_with_h_need_hard(self, mode):
        with pytest.raises(ValueError, match="cycle-based"):
            weight_combine(Grid1.zeros(1, 1), Grid1.zeros(1, 1), None, spec_for(mode))

    @pytest.mark.parametrize("bad", (1.5, -0.25))
    @pytest.mark.parametrize("mode", ("db", "oa", "sum", "multiplication", "masking",
                                      "mask_sum"))
    def test_rejects_caller_map_outside_unit_range(self, mode, bad, monkeypatch):
        passes = []
        monkeypatch.setattr(losses_module, "_map_rows", lambda *args: passes.append(1))
        spec, hard = spec_for(mode), BinaryMask.full(2, 3)
        for factor in ("db", "oa"):
            if factor not in losses_module._FACTORS[mode]:
                continue
            maps = {"db": Grid1.full(2, 3, 0.5), "oa": Grid1.full(2, 3, 0.5)}
            maps[factor] = Grid1(np.where(np.eye(2, 3, dtype=bool), bad, 0.5))
            calls = [lambda: weight_combine(maps["db"], maps["oa"], hard, spec)]
            if mode == factor:
                one = weight_db if mode == "db" else weight_oa
                calls.append(lambda: one(maps[factor], 2.0, 0.5))
            for call in calls:
                with pytest.raises(ValueError,
                                   match=r"^confidence map entries must lie in \[0, 1\]$"):
                    call()
        assert passes == []  # checked once over the given maps, before the pass

    def test_rejects_plain_l1(self):
        with pytest.raises(ValueError, match="no weight factor"):
            weight_combine(Grid1.zeros(1, 1), Grid1.zeros(1, 1),
                           BinaryMask.full(1, 1), spec_for("plain_l1"))

    @given(st.sampled_from(("db", "oa", "sum", "multiplication", "masking", "mask_sum")),
           st.integers(0, 2**32 - 1))
    def test_matches_bruteforce(self, mode, seed):
        rng = np.random.default_rng(seed)
        m_db = Grid1(rng.random((4, 5)))
        m_oa = Grid1(rng.random((4, 5)))
        hard = BinaryMask(rng.random((4, 5)) > 0.5)
        spec = spec_for(mode)
        w = weight_combine(m_db, m_oa, hard, spec)
        for y in range(4):
            for x in range(5):
                expected = oracles.weight(mode, m_db.data[y, x], m_oa.data[y, x],
                                          hard.data[y, x], spec.alpha1, spec.beta1,
                                          spec.alpha2, spec.beta2)
                assert w.data[y, x] == pytest.approx(expected, abs=1e-12)


class TestWeightedL1:
    def test_perfect_prediction(self):
        gt = Grid2(np.random.default_rng(0).normal(size=(3, 3, 2)))
        args = (gt, gt, Grid1.full(3, 3, 1.0), BinaryMask.full(3, 3))
        assert weighted_l1(*args).scalar == 0.0
        assert (weighted_l1_grad(*args).data == 0).all()

    def test_single_pixel_hand_values(self):
        pred = Grid2.zeros(1, 1)
        gt = Grid2.constant(1, 1, 0.5, -0.5)
        args = (pred, gt, Grid1.full(1, 1, 2.0), BinaryMask.full(1, 1))
        assert weighted_l1(*args).scalar == pytest.approx(2.0)
        np.testing.assert_allclose(weighted_l1_grad(*args).data[0, 0], [-2.0, 2.0])

    def test_unit_weights_match_plain_mean(self):
        rng = np.random.default_rng(3)
        pred, gt = Grid2(rng.normal(size=(4, 4, 2))), Grid2(rng.normal(size=(4, 4, 2)))
        res = weighted_l1(pred, gt, Grid1.full(4, 4, 1.0), BinaryMask.full(4, 4))
        expected = np.abs(gt.data - pred.data).sum(axis=-1).mean()
        assert res.scalar == pytest.approx(expected, rel=1e-15)

    def test_no_valid_pixels(self):
        with pytest.raises(ValueError, match="no valid pixels"):
            weighted_l1(Grid2.zeros(2, 2), Grid2.zeros(2, 2),
                        Grid1.full(2, 2, 1.0), BinaryMask.full(2, 2, False))

    def test_loss_and_grad_check_alike(self):
        w, valid = Grid1.full(2, 2, 1.0), BinaryMask.full(2, 2)
        for fn in (weighted_l1, weighted_l1_grad):
            with pytest.raises(ValueError, match="no valid pixels"):
                fn(Grid2.zeros(2, 2), Grid2.zeros(2, 2), w, ~valid)
            with pytest.raises(ValueError, match="same grid type"):
                fn(Grid2.zeros(2, 2), Grid1.zeros(2, 2), w, valid)

    def test_grad_zero_on_invalid(self):
        valid = BinaryMask(np.array([[True, False]]))
        pred = Grid2.zeros(1, 2)
        gt = Grid2.constant(1, 2, 1.0, 1.0)
        grad = weighted_l1_grad(pred, gt, Grid1.full(1, 2, 1.0), valid)
        assert (grad.data[0, 1] == 0).all()
        assert (grad.data[0, 0] == -1).all()

    def test_scalar_is_mean_of_loss_map(self):
        rng = np.random.default_rng(5)
        pred, gt, _, valid = random_instance(rng)
        w = Grid1(1.0 + rng.random((8, 8)))
        res = weighted_l1(pred, gt, w, valid)
        assert res.scalar == pytest.approx(res.loss_map.data[valid.data].mean(),
                                           rel=1e-15)

    def test_stereo_grad_sign(self):
        pred = Grid1.zeros(1, 2)
        gt = Grid1(np.array([[2.0, -3.0]]))
        grad = weighted_l1_grad(pred, gt, Grid1.full(1, 2, 2.0), BinaryMask.full(1, 2))
        np.testing.assert_allclose(grad.data, [[-2.0, 2.0]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_scalar_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        pred, gt, _, valid = random_instance(rng)
        w = Grid1(1.0 + 2.0 * rng.random((8, 8)))
        res = weighted_l1(pred, gt, w, valid)
        expected = oracles.weighted_l1_scalar(pred.data.tolist(), gt.data.tolist(),
                                              w.data.tolist(), valid.data.tolist())
        assert res.scalar == pytest.approx(expected, abs=1e-12)


def _frozen_weighted_l1(pred, gt, weights, valid):
    """weighted_l1 as it was when it built the gradient too (a frozen copy,
    without the checks): (scalar, loss map, gradient, n_valid)."""
    n_valid = valid.count()
    residual = gt.data - pred.data
    flow = isinstance(pred, Grid2)
    planes = (residual[..., 0], residual[..., 1]) if flow else (residual,)
    per_pixel = np.abs(planes[0]) + np.abs(planes[1]) if flow else np.abs(residual)
    invalid = ~valid.data
    grads = [np.sign(r) for r in planes]
    for g in grads:
        np.negative(g, out=g)
        g *= weights.data
        np.copyto(g, 0.0, where=invalid)
    grad = np.stack(grads, axis=-1) if flow else grads[0]
    loss_map = per_pixel
    loss_map *= weights.data
    np.copyto(loss_map, 0.0, where=invalid)
    return float(loss_map.sum() / n_valid), loss_map, grad, n_valid


def bits(a):
    """The float64 bit patterns of a, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@st.composite
def loss_inputs(draw):
    """(pred, gt, weights, valid) for flow or stereo, with ties between pred
    and gt, signed zeros and subnormals."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    grid, shape = draw(st.sampled_from(((Grid2, (h, w, 2)), (Grid1, (h, w)))))
    values = st.floats(-100, 100)
    pred = draw(arrays(np.float64, shape, elements=values))
    gt = draw(arrays(np.float64, shape, elements=values))
    gt = np.where(draw(arrays(bool, shape)), pred, gt)
    weights = draw(arrays(np.float64, (h, w), elements=st.floats(0, 10)))
    valid = draw(arrays(bool, (h, w)))
    assume(valid.any())
    return grid(pred), grid(gt), Grid1(weights), BinaryMask(valid)


@given(loss_inputs())
@settings(max_examples=200)
def test_split_is_bit_equal_to_frozen_loss(inputs):
    scalar, loss_map, grad, n_valid = _frozen_weighted_l1(*inputs)
    res = weighted_l1(*inputs)
    assert res.scalar.hex() == scalar.hex() and res.n_valid == n_valid
    np.testing.assert_array_equal(bits(res.loss_map.data), bits(loss_map))
    assert res.weight_map is inputs[2]
    got = weighted_l1_grad(*inputs)
    assert type(got) is type(inputs[0]) and got.data.shape == grad.shape
    np.testing.assert_array_equal(bits(got.data), bits(grad))


def finite_difference_grad(pred, gt, weights, valid, step=1e-4):
    """Central differences of the brute-force mean loss, times n_valid."""
    n_valid = int(valid.data.sum())
    fd = np.zeros_like(pred.data)
    it = np.ndindex(pred.data.shape)
    for idx in it:
        bumped = pred.data.copy()
        bumped[idx] += step
        up = oracles.weighted_l1_scalar(bumped.tolist(), gt.data.tolist(),
                                        weights.data.tolist(), valid.data.tolist())
        bumped[idx] -= 2 * step
        down = oracles.weighted_l1_scalar(bumped.tolist(), gt.data.tolist(),
                                          weights.data.tolist(), valid.data.tolist())
        fd[idx] = (up - down) / (2 * step) * n_valid
    return fd


@pytest.mark.parametrize("mode", MODES)
def test_gradient_matches_finite_differences(mode):
    rng = np.random.default_rng(hash(mode) % 2**32)
    pred, gt, bw, valid = random_instance(rng, 6, 6)
    weights = build_weights(spec_for(mode), pred, gt, valid, backward=bw)
    grad = weighted_l1_grad(pred, gt, weights, valid)
    fd = finite_difference_grad(pred, gt, weights, valid)
    away_from_kink = np.all(np.abs(gt.data - pred.data) >= 0.1, axis=-1)
    check = valid.data & away_from_kink
    rel = np.abs(grad.data - fd) / np.maximum(np.abs(fd), 1e-12)
    assert rel[check].max() < 1e-3


@pytest.mark.parametrize("task", ("flow", "stereo"))
@pytest.mark.parametrize("mode", MODES)
def test_build_weights_matches_oracles(mode, task, monkeypatch):
    """Every pixel of the composed weight map against the brute-force oracles,
    which check stereo disparities as horizontal flows; one cycle check per
    weight map."""
    rng = np.random.default_rng(37)
    h, w = 6, 7
    valid = BinaryMask(rng.random((h, w)) > 0.2)
    if task == "flow":
        spec = WeightSpec(mode)
        pred = Grid2(rng.normal(0, 2, (h, w, 2)))
        gt = Grid2(pred.data + rng.normal(0, 1, (h, w, 2)))
        bw = Grid2(-pred.data + rng.normal(0, 0.7, (h, w, 2)))
        fw_list, bw_list = pred.data.tolist(), bw.data.tolist()
        m_db = oracles.confidence_db_flow(pred.data.tolist(), gt.data.tolist(),
                                          valid.data.tolist())
    else:
        spec = WeightSpec.stereo_defaults(mode)
        pred = Grid1(rng.uniform(0, 3, (h, w)))
        gt = Grid1(pred.data + rng.normal(0, 1, (h, w)))
        bw = Grid1(np.clip(pred.data + rng.normal(0, 0.7, (h, w)), 0, None))
        fw_list = [[(-d, 0.0) for d in row] for row in pred.data.tolist()]
        bw_list = [[(d, 0.0) for d in row] for row in bw.data.tolist()]
        m_db = oracles.confidence_db_stereo(pred.data.tolist(), gt.data.tolist(),
                                            valid.data.tolist())
    g1, g2 = spec.cycle.gamma1, spec.cycle.gamma2
    matched = oracles.cycle_check(fw_list, bw_list, g1, g2)[3]
    m_oa = oracles.confidence_oa(fw_list, bw_list, g1, g2)
    assert 0 < sum(map(sum, matched)) < h * w  # both sides of the hard mask
    expected = [[oracles.weight(mode, m_db[y][x], m_oa[y][x], matched[y][x],
                                spec.alpha1, spec.beta1, spec.alpha2, spec.beta2)
                 for x in range(w)] for y in range(h)]

    checks = []
    real_check = losses_module._cycle_rows
    monkeypatch.setattr(losses_module, "_cycle_rows",
                        lambda *args: checks.append(1) or real_check(*args))
    weights = build_weights(spec, pred, gt, valid, backward=bw)
    np.testing.assert_allclose(weights.data, expected, rtol=0, atol=1e-12)
    assert len(checks) == (1 if spec.needs_backward else 0)


@pytest.mark.parametrize("mode", [m for m in MODES if spec_for(m).needs_backward])
@pytest.mark.parametrize("pred, backward", ((Grid2.zeros(3, 3), Grid1.zeros(3, 3)),
                                            (Grid1.zeros(3, 3), Grid2.zeros(3, 3))))
def test_build_weights_rejects_mixed_pair(mode, pred, backward):
    with pytest.raises(ValueError, match="same grid type"):
        build_weights(spec_for(mode), pred, pred, BinaryMask.full(3, 3), backward=backward)


# Every public function of a prediction and a ground truth, called on (pred, gt).
PRED_GT_FUNCTIONS = {
    "confidence_db_flow": lambda p, g: confidence_db_flow(p, g, BinaryMask.full(*g.shape)),
    "confidence_db_stereo": lambda p, g: confidence_db_stereo(p, g, BinaryMask.full(*g.shape)),
    "build_weights_db": lambda p, g: build_weights(spec_for("db"), p, g,
                                                   BinaryMask.full(*g.shape)),
    "build_weights_mask_sum": lambda p, g: build_weights(spec_for("mask_sum"), p, g,
                                                         BinaryMask.full(*g.shape), backward=p),
    "evaluate_loss": lambda p, g: evaluate_loss(p, g, BinaryMask.full(*g.shape),
                                                spec_for("db")),
    "weighted_l1": lambda p, g: weighted_l1(p, g, Grid1.full(*g.shape, 1.0),
                                            BinaryMask.full(*g.shape)),
    "weighted_l1_grad": lambda p, g: weighted_l1_grad(p, g, Grid1.full(*g.shape, 1.0),
                                                      BinaryMask.full(*g.shape)),
    "sequence_loss": lambda p, g: sequence_loss([p], g, BinaryMask.full(*g.shape),
                                                spec_for("db")),
    "epe_map": epe_map,
    "full_report": lambda p, g: full_report(p, g, BinaryMask.full(*g.shape)),
}


@pytest.mark.parametrize("name", sorted(PRED_GT_FUNCTIONS))
@pytest.mark.parametrize("h, w", [(2, 2), (3, 2)])
@pytest.mark.parametrize("pred_type, gt_type", [(Grid1, Grid2), (Grid2, Grid1)])
def test_pred_and_gt_of_two_grid_types_rejected(name, h, w, pred_type, gt_type):
    # A (H, W) grid broadcasts against (H, W, 2) when W is 2, so only the
    # type check tells the two apart.
    grids = {Grid1: Grid1(np.ones((h, w))), Grid2: Grid2(np.zeros((h, w, 2)))}
    with pytest.raises(ValueError, match="^pred and gt must be the same grid type$"):
        PRED_GT_FUNCTIONS[name](grids[pred_type], grids[gt_type])


def _frozen_evaluate_loss(spec, pred, gt, valid, backward):
    """evaluate_loss as whole-frame passes, before it ran in row bands (a
    frozen copy of build_weights and weighted_l1, without the checks; the
    cycle terms from whole_frame_terms): (scalar, weight map, loss map)."""
    uses = losses_module._FACTORS[spec.mode]
    d = gt.data - pred.data
    d *= d
    m_db = np.add(d[..., 0], d[..., 1]) if d.ndim == 3 else d
    np.negative(m_db, out=m_db)
    np.exp(m_db, out=m_db)
    np.copyto(m_db, 0.0, where=~valid.data)
    if spec.needs_backward:
        num, den, target_valid = whole_frame_terms(pred, backward, spec.cycle)
        m_oa = np.negative(num)
        m_oa /= den
        np.exp(m_oa, out=m_oa)
        np.copyto(m_oa, 0.0, where=~target_valid)
        hard = (num < den) & target_valid
    w = np.ones(valid.shape) if not uses else None
    if "db" in uses:
        w = 1.0 - m_db
        w **= spec.beta1
        w *= spec.alpha1
        if "hard" in uses:
            np.copyto(w, 0.0, where=~hard)
    if "oa" in uses:
        oa_term = m_oa ** spec.beta2
        oa_term *= spec.alpha2
        if w is None:
            w = oa_term
        elif spec.mode == "multiplication":
            w *= oa_term
    if uses:
        w += 1.0
    if spec.mode in ("sum", "mask_sum"):
        w += oa_term
    residual = gt.data - pred.data
    loss_map = (np.abs(residual[..., 0]) + np.abs(residual[..., 1]) if residual.ndim == 3
                else np.abs(residual))
    loss_map *= w
    np.copyto(loss_map, 0.0, where=~valid.data)
    return float(loss_map.sum() / valid.count()), w, loss_map


def _banded_loss_inputs(task):
    """(spec factory, pred, gt, valid, backward) on banded_pair's frame of
    five bands and more, with a seeded gt and valid mask."""
    pred, backward = banded_pair(task)
    rng = np.random.default_rng(43)
    gt = type(pred)(pred.data + rng.normal(0.0, 1.5, pred.data.shape))
    valid = BinaryMask(rng.random(pred.shape) > 0.1)
    make_spec = WeightSpec if task == "flow" else WeightSpec.stereo_defaults
    return make_spec, pred, gt, valid, backward


class TestFusedPass:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("task", ("flow", "stereo"))
    def test_bit_equal_to_split_and_frozen_passes(self, task, workers, monkeypatch):
        monkeypatch.setattr(confidence_module, "_WORKERS", workers)
        make_spec, pred, gt, valid, backward = _banded_loss_inputs(task)
        assert pred.height >= 3 * (_CHUNK // pred.width)
        for mode in MODES:
            spec = make_spec(mode)
            fused = evaluate_loss(pred, gt, valid, spec, backward)
            split = weighted_l1(pred, gt, build_weights(spec, pred, gt, valid, backward), valid)
            scalar, weight_map, loss_map = _frozen_evaluate_loss(spec, pred, gt, valid, backward)
            assert fused.scalar.hex() == split.scalar.hex() == scalar.hex(), mode
            assert fused.n_valid == split.n_valid == valid.count()
            for got in (fused, split):
                np.testing.assert_array_equal(bits(got.weight_map.data), bits(weight_map))
                np.testing.assert_array_equal(bits(got.loss_map.data), bits(loss_map))

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("task", ("flow", "stereo"))
    def test_gradient_output_bit_equal_to_weighted_l1_grad(self, task, workers, monkeypatch):
        monkeypatch.setattr(confidence_module, "_WORKERS", workers)
        make_spec, pred, gt, valid, backward = _banded_loss_inputs(task)
        shape = (pred.data.ndim - 1, *valid.shape)  # one plane per component
        for mode in MODES:
            spec = make_spec(mode)
            split = evaluate_loss(pred, gt, valid, spec, backward)
            expected = weighted_l1_grad(pred, gt, split.weight_map, valid).data
            expected = np.moveaxis(expected, -1, 0) if expected.ndim == 3 else expected[None]
            loss_map, grad = np.empty(valid.shape), np.empty(shape)
            weights = losses_module._weights_and_loss(spec, pred, gt, valid, backward,
                                                      loss_map, grad)
            np.testing.assert_array_equal(bits(weights), bits(split.weight_map.data))
            np.testing.assert_array_equal(bits(loss_map), bits(split.loss_map.data))
            np.testing.assert_array_equal(bits(grad), bits(expected))

            # Kept weights: the given map is used as it is, with no backward
            # field and no confidence map built.
            with monkeypatch.context() as m:
                m.setattr(losses_module, "_cycle_rows", None)
                m.setattr(losses_module, "_db_rows", None)
                kept_loss, kept_grad, kept = np.empty(valid.shape), np.empty(shape), weights.copy()
                assert losses_module._weights_and_loss(
                    spec, pred, gt, valid, None, kept_loss, kept_grad, kept,
                    keep_weights=True) is kept
            np.testing.assert_array_equal(bits(kept), bits(weights))
            np.testing.assert_array_equal(bits(kept_loss), bits(loss_map))
            np.testing.assert_array_equal(bits(kept_grad), bits(grad))

    @pytest.mark.parametrize("task", ("flow", "stereo"))
    def test_one_banded_pass_per_map(self, task, monkeypatch):
        passes = []
        real = confidence_module._in_row_bands
        for module in (confidence_module, losses_module):
            monkeypatch.setattr(module, "_in_row_bands",
                                lambda *args: passes.append(1) or real(*args))
        make_spec, pred, gt, valid, backward = _banded_loss_inputs(task)
        db_map = confidence_db_flow if task == "flow" else confidence_db_stereo
        calls = {
            "confidence_oa": lambda: confidence_oa(pred, backward),
            "occlusion_mask": lambda: occlusion_mask(pred, backward),
            "db_map": lambda: db_map(pred, gt, valid),
            **{f"build_weights_{mode}": (lambda mode=mode: build_weights(
                make_spec(mode), pred, gt, valid, backward)) for mode in MODES},
            **{f"evaluate_loss_{mode}": (lambda mode=mode: evaluate_loss(
                pred, gt, valid, make_spec(mode), backward)) for mode in MODES},
        }
        for name, call in calls.items():
            passes.clear()
            call()
            assert len(passes) == 1, name
        for mode in MODES:
            passes.clear()
            sequence_loss([pred] * 3, gt, valid, make_spec(mode),
                          backwards=[backward] * 3)
            assert len(passes) == 3, mode

    def test_rejected_input_starts_no_pass(self, monkeypatch):
        monkeypatch.setattr(confidence_module, "_WORKERS", 2)
        passes = []
        for module in (confidence_module, losses_module):
            monkeypatch.setattr(module, "_in_row_bands", lambda *args: passes.append(1))
        h, w = 3 * (_CHUNK // 100), 100
        flow, disp = Grid2.zeros(h, w), Grid1.zeros(h, w)
        valid, none_valid = BinaryMask.full(h, w), BinaryMask.full(h, w, False)
        short = Grid2.zeros(h - 1, w)
        mismatch = f"dimension mismatch: {[(h - 1, w), (h, w)]}"
        rejected = [
            (lambda spec: evaluate_loss(flow, short, valid, spec, flow), mismatch),
            (lambda spec: evaluate_loss(flow, flow, BinaryMask.full(h - 1, w), spec, flow),
             mismatch),
            (lambda spec: evaluate_loss(flow, disp, valid, spec, flow),
             "pred and gt must be the same grid type"),
            (lambda spec: evaluate_loss(disp, flow, valid, spec, disp),
             "pred and gt must be the same grid type"),
            (lambda spec: evaluate_loss(flow, flow, none_valid, spec, flow),
             "no valid pixels: the mean loss is undefined"),
        ]
        cycle_rejected = [
            (lambda spec: evaluate_loss(flow, flow, valid, spec),
             "mode {} needs a backward field"),
            (lambda spec: evaluate_loss(flow, flow, valid, spec, disp),
             "f_fw and f_bw must be the same grid type"),
            (lambda spec: evaluate_loss(flow, flow, valid, spec, short), mismatch),
            (lambda spec: build_weights(spec, flow, flow, valid),
             "mode {} needs a backward field"),
            (lambda spec: build_weights(spec, disp, disp, valid, flow),
             "f_fw and f_bw must be the same grid type"),
        ]
        for mode in MODES:
            spec = WeightSpec(mode)
            for call, message in rejected + (cycle_rejected if spec.needs_backward else []):
                with pytest.raises(ValueError, match=f"^{re.escape(message.format(repr(mode)))}$"):
                    call(spec)
        for check in (confidence_oa, occlusion_mask):
            with pytest.raises(ValueError, match="^f_fw and f_bw must be the same grid type$"):
                check(flow, disp)
            with pytest.raises(ValueError, match=f"^{re.escape(mismatch)}$"):
                check(flow, short)
        with pytest.raises(ValueError, match=f"^{re.escape(mismatch)}$"):
            confidence_db_flow(flow, short, valid)
        with pytest.raises(ValueError, match=f"^{re.escape(mismatch)}$"):
            weighted_l1(flow, flow, Grid1.zeros(h - 1, w), valid)
        assert passes == []

    @pytest.mark.parametrize("negative", (("pred",), ("backward",), ("pred", "backward")))
    def test_negative_disparity_warns_once_per_map(self, negative, monkeypatch):
        monkeypatch.setattr(confidence_module, "_WORKERS", 2)
        h, w = 3 * (_CHUNK // 100), 100
        maps = {name: Grid1.full(h, w, -1.0 if name in negative else 1.0)
                for name in ("pred", "backward")}
        gt, valid = Grid1.full(h, w, -2.0), BinaryMask.full(h, w)
        for mode in MODES:
            spec = WeightSpec.stereo_defaults(mode)
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                evaluate_loss(maps["pred"], gt, valid, spec, maps["backward"])
                build_weights(spec, maps["pred"], gt, valid, maps["backward"])
            # Each map of the cycle check is checked once per call, not per band.
            assert [(r.category, str(r.message)) for r in rec] == (
                [(RuntimeWarning, "disparity map contains negative entries")] * 2 * len(negative)
                if spec.needs_backward else []), mode


class TestModeIdentities:
    def test_alpha_zero_reproduces_plain_l1(self):
        rng = np.random.default_rng(11)
        pred, gt, bw, valid = random_instance(rng)
        plain = evaluate_loss(pred, gt, valid, spec_for("plain_l1"), backward=bw)
        plain_grad = weighted_l1_grad(pred, gt, plain.weight_map, valid)
        for mode in MODES:
            spec = WeightSpec(mode, alpha1=0.0, alpha2=0.0)
            res = evaluate_loss(pred, gt, valid, spec, backward=bw)
            assert res.scalar == plain.scalar
            grad = weighted_l1_grad(pred, gt, res.weight_map, valid)
            np.testing.assert_array_equal(grad.data, plain_grad.data)
            np.testing.assert_array_equal(res.weight_map.data, plain.weight_map.data)

    def test_multiplication_with_zero_cycle_confidence_is_plain(self):
        rng = np.random.default_rng(13)
        pred, gt, _, valid = random_instance(rng)
        # Backward flow pointing far off-frame: cycle confidence 0 everywhere.
        bw = Grid2.constant(8, 8, 1000.0, 0.0)
        fw_off = Grid2.constant(8, 8, 1000.0, 0.0)
        res = evaluate_loss(pred, gt, valid, spec_for("multiplication"), backward=fw_off)
        plain = evaluate_loss(pred, gt, valid, spec_for("plain_l1"))
        assert res.scalar == plain.scalar

    def test_masking_with_all_occluded_is_plain(self):
        rng = np.random.default_rng(17)
        pred, gt, _, valid = random_instance(rng)
        bw = Grid2.constant(8, 8, 1000.0, 0.0)
        res = evaluate_loss(pred, gt, valid, spec_for("masking"), backward=bw)
        plain = evaluate_loss(pred, gt, valid, spec_for("plain_l1"))
        assert res.scalar == plain.scalar

    @pytest.mark.parametrize("mode", MODES)
    def test_weights_at_least_one(self, mode):
        rng = np.random.default_rng(19)
        pred, gt, bw, valid = random_instance(rng)
        w = build_weights(spec_for(mode), pred, gt, valid, backward=bw)
        assert (w.data >= 1.0).all()
        res = weighted_l1(pred, gt, w, valid)
        plain = evaluate_loss(pred, gt, valid, spec_for("plain_l1"))
        assert res.scalar >= plain.scalar - 1e-12

    def test_stop_gradient_semantics(self):
        # Weights built from a different prediction change the grad only
        # through the weight values; the residual path stays pred vs gt.
        rng = np.random.default_rng(23)
        pred, gt, bw, valid = random_instance(rng)
        other = Grid2(pred.data + rng.normal(0, 0.5, pred.data.shape))
        w = build_weights(spec_for("db"), other, gt, valid)
        grad = weighted_l1_grad(pred, gt, w, valid)
        expected = np.where(valid.data[..., None],
                            w.data[..., None] * -np.sign(gt.data - pred.data), 0.0)
        np.testing.assert_array_equal(grad.data, expected)

    def test_oa_mode_requires_backward(self):
        pred = Grid2.zeros(2, 2)
        with pytest.raises(ValueError, match="backward"):
            evaluate_loss(pred, pred, BinaryMask.full(2, 2), spec_for("oa"))


class TestSequenceLoss:
    def test_single_prediction(self):
        pred = Grid2.zeros(1, 1)
        gt = Grid2.constant(1, 1, 1.0, 0.0)
        total, per_iter = sequence_loss([pred], gt, BinaryMask.full(1, 1),
                                        spec_for("plain_l1"))
        assert total == per_iter[0].scalar == pytest.approx(1.0)

    def test_three_unit_losses(self):
        pred = Grid2.zeros(1, 1)
        gt = Grid2.constant(1, 1, 1.0, 0.0)
        total, per_iter = sequence_loss([pred] * 3, gt, BinaryMask.full(1, 1),
                                        spec_for("plain_l1"), SequenceParams(0.8))
        assert [r.scalar for r in per_iter] == [1.0, 1.0, 1.0]
        assert total == pytest.approx(2.44, abs=1e-12)

    def test_no_discount_is_plain_sum(self):
        rng = np.random.default_rng(29)
        gt = Grid2(rng.normal(size=(3, 3, 2)))
        preds = [Grid2(rng.normal(size=(3, 3, 2))) for _ in range(4)]
        total, per_iter = sequence_loss(preds, gt, BinaryMask.full(3, 3),
                                        spec_for("plain_l1"), SequenceParams(1.0))
        assert total == pytest.approx(sum(r.scalar for r in per_iter), rel=1e-15)

    def test_latest_iteration_weighs_most(self):
        gt = Grid2.constant(1, 1, 1.0, 0.0)
        early = Grid2.zeros(1, 1)          # loss 1
        late = Grid2.constant(1, 1, 0.9, 0.0)  # loss 0.1
        total, _ = sequence_loss([early, late], gt, BinaryMask.full(1, 1),
                                 spec_for("plain_l1"), SequenceParams(0.5))
        assert total == pytest.approx(0.5 * 1.0 + 0.1)

    def test_empty_list(self):
        with pytest.raises(ValueError, match="empty"):
            sequence_loss([], Grid2.zeros(1, 1), BinaryMask.full(1, 1),
                          spec_for("plain_l1"))

    def test_confidence_rebuilt_per_iteration(self):
        gt = Grid2.constant(1, 1, 1.0, 0.0)
        preds = [Grid2.zeros(1, 1), Grid2.constant(1, 1, 0.5, 0.0)]
        _, per_iter = sequence_loss(preds, gt, BinaryMask.full(1, 1), spec_for("db"))
        w0, w1 = per_iter[0].weight_map.data[0, 0], per_iter[1].weight_map.data[0, 0]
        assert w0 > w1  # earlier prediction is worse, so it weighs more

    @pytest.mark.parametrize("mode", [m for m in MODES if spec_for(m).needs_backward])
    def test_cycle_mode_needs_backward_fields(self, mode):
        pred = Grid2.zeros(1, 1)
        with pytest.raises(ValueError, match=f"mode '{mode}' needs one backward field per"):
            sequence_loss([pred], pred, BinaryMask.full(1, 1), spec_for(mode))

    def test_backward_list_length_checked(self):
        pred = Grid2.zeros(1, 1)
        with pytest.raises(ValueError):
            sequence_loss([pred, pred], pred, BinaryMask.full(1, 1),
                          spec_for("oa"), backwards=[pred])

    @pytest.mark.parametrize("mode", MODES)
    def test_backward_list_length_checked_in_every_mode(self, mode):
        pred = Grid2.zeros(1, 1)
        for n_backward in (1, 3):
            with pytest.raises(ValueError, match=f"{n_backward} backward fields for 2"):
                sequence_loss([pred, pred], pred, BinaryMask.full(1, 1),
                              spec_for(mode), backwards=[pred] * n_backward)

    def test_gamma_seq_validation(self):
        with pytest.raises(ValueError):
            SequenceParams(0.0)
        with pytest.raises(ValueError):
            SequenceParams(1.2)


class TestWeightSpec:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            WeightSpec(mode="charbonnier")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeightSpec(alpha1=-1.0)
        with pytest.raises(ValueError):
            WeightSpec(beta2=0.0)

    def test_task_defaults(self):
        f = WeightSpec("db")
        s = WeightSpec.stereo_defaults("db")
        assert (f.alpha1, f.beta1, f.alpha2, f.beta2) == (2.0, 0.5, 2.0, 1.0)
        assert (s.alpha1, s.beta1, s.alpha2, s.beta2) == (2.0, 1.0, 1.0, 1.0)

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from confloss import losses as losses_module
from confloss import (
    BinaryMask,
    Grid1,
    Grid2,
    MODES,
    SequenceParams,
    WeightSpec,
    build_weights,
    evaluate_loss,
    sequence_loss,
    weight_combine,
    weight_db,
    weight_oa,
    weighted_l1,
    weighted_l1_grad,
)


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
    real_check = losses_module.cycle_terms
    monkeypatch.setattr(losses_module, "cycle_terms",
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

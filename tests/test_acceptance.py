"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. Expected spot values live in tests/data/reference_values.json,
regenerated by scripts/reference_values.py (mpmath at 50 digits).
"""

import functools
import json
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from confloss import (
    BinaryMask,
    Grid1,
    Grid2,
    MODES,
    SceneSpec,
    SequenceParams,
    TrainConfig,
    WeightSpec,
    build_weights,
    confidence_db_flow,
    confidence_db_stereo,
    confidence_oa,
    cycle_terms,
    evaluate_loss,
    hflip,
    occlusion_mask,
    reverse_disparity_restore,
    sequence_loss,
    synth_scene,
    train,
    weight_db,
    weighted_l1,
    weighted_l1_grad,
)
from confloss.cli import main as cli_main
from confloss.fileio import FormatError, read_flo, read_pfm, write_flo, write_pfm
from confloss.metrics import epe_map, full_report, magnitude_map

REFS = json.loads((Path(__file__).parent / "data" / "reference_values.json").read_text())


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({name}): PASS")
        return wrapper
    return deco


def random_flow_instance(rng, max_side=8):
    h = int(rng.integers(1, max_side + 1))
    w = int(rng.integers(1, max_side + 1))
    pred = Grid2(rng.normal(0, 2, (h, w, 2)))
    gt = Grid2(rng.normal(0, 2, (h, w, 2)))
    bw = Grid2(rng.normal(0, 2, (h, w, 2)))
    valid_arr = rng.random((h, w)) > 0.15
    if not valid_arr.any():
        valid_arr[0, 0] = True
    return pred, gt, bw, BinaryMask(valid_arr)


@criterion(1, "oracle equivalence on 200 random instances")
def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    for i in range(200):
        pred, gt, bw, valid = random_flow_instance(rng)
        h, w = pred.shape
        fw_l, bw_l = pred.data.tolist(), bw.data.tolist()

        mask = occlusion_mask(pred, bw)
        num, den, inb, expected_mask = oracles.cycle_check(fw_l, bw_l, 0.01, 0.5)
        assert mask.data.tolist() == expected_mask

        m_db = confidence_db_flow(pred, gt, valid)
        expected_db = oracles.confidence_db_flow(fw_l, gt.data.tolist(),
                                                 valid.data.tolist())
        assert np.abs(m_db.data - expected_db).max() <= 1e-12

        m_oa = confidence_oa(pred, bw)
        expected_oa = oracles.confidence_oa(fw_l, bw_l, 0.01, 0.5)
        assert np.abs(m_oa.data - expected_oa).max() <= 1e-12

        mode = MODES[i % len(MODES)]
        spec = WeightSpec(mode)
        weights = build_weights(spec, pred, gt, valid, backward=bw)
        hard = np.array(expected_mask)
        for y in range(h):
            for x in range(w):
                expected_w = oracles.weight(mode, expected_db[y][x],
                                            expected_oa[y][x], hard[y, x],
                                            spec.alpha1, spec.beta1,
                                            spec.alpha2, spec.beta2)
                assert abs(weights.data[y, x] - expected_w) <= 1e-12

        res = weighted_l1(pred, gt, weights, valid)
        expected_scalar = oracles.weighted_l1_scalar(
            fw_l, gt.data.tolist(), weights.data.tolist(), valid.data.tolist())
        assert abs(res.scalar - expected_scalar) <= 1e-12

        e = epe_map(pred, gt)
        mag = magnitude_map(gt)
        e_l, mag_l, v_l = e.data.tolist(), mag.data.tolist(), valid.data.tolist()
        report = full_report(pred, gt, valid, region=mask)
        assert abs(report.epe - oracles.mean_over(e_l, v_l)) <= 1e-12
        for t in (1.0, 3.0, 5.0):
            assert abs(report.outlier_rates[t]
                       - oracles.outlier_rate(e_l, v_l, t)) <= 1e-12
        assert abs(report.fl_all - oracles.fl_all(e_l, mag_l, v_l)) <= 1e-12
        for got, want in zip(report.speed_binned_epe,
                             oracles.speed_bins(e_l, mag_l, v_l)):
            assert (got is None) == (want is None)
            if want is not None:
                assert abs(got - want) <= 1e-12
        sel = (valid.data & mask.data).tolist()
        want_matched = oracles.mean_over(e_l, sel)
        assert (report.matched_epe is None) == (want_matched is None)
        if want_matched is not None:
            assert abs(report.matched_epe - want_matched) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


@criterion(2, "analytic gradients vs central differences")
def test_criterion_2_gradients():
    start = time.monotonic()
    rng = np.random.default_rng(2002)
    step = 1e-4
    for i in range(50):
        pred = Grid2(rng.normal(0, 2, (8, 8, 2)))
        gt = Grid2(rng.normal(0, 2, (8, 8, 2)))
        bw = Grid2(rng.normal(0, 2, (8, 8, 2)))
        valid_arr = rng.random((8, 8)) > 0.1
        valid_arr[0, 0] = True
        valid = BinaryMask(valid_arr)
        mode = MODES[i % len(MODES)]
        weights = build_weights(WeightSpec(mode), pred, gt, valid,
                                backward=bw)
        grad = weighted_l1_grad(pred, gt, weights, valid)
        n_valid = valid.count()
        gt_l, w_l, v_l = gt.data.tolist(), weights.data.tolist(), valid.data.tolist()
        away = valid.data & np.all(np.abs(gt.data - pred.data) >= 0.1, axis=-1)
        for y, x in zip(*np.nonzero(away)):
            for c in range(2):
                bumped = pred.data.copy()
                bumped[y, x, c] += step
                up = oracles.weighted_l1_scalar(bumped.tolist(), gt_l, w_l, v_l)
                bumped[y, x, c] -= 2 * step
                down = oracles.weighted_l1_scalar(bumped.tolist(), gt_l, w_l, v_l)
                fd = (up - down) / (2 * step) * n_valid
                rel = abs(grad.data[y, x, c] - fd) / max(abs(fd), 1e-12)
                assert rel < 1e-3, f"mode {mode} pixel ({y},{x},{c}): {rel}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"


@criterion(3, "closed-form spot values")
def test_criterion_3_spot_values():
    tol = 1e-9

    m = confidence_db_flow(Grid2.zeros(1, 1), Grid2.constant(1, 1, 1.0, 0.0),
                           BinaryMask.full(1, 1))
    assert abs(m.data[0, 0] - float(REFS["confidence_unit_error"])) < tol
    m34 = confidence_db_flow(Grid2.zeros(1, 1), Grid2.constant(1, 1, 3.0, 4.0),
                             BinaryMask.full(1, 1))
    assert abs(m34.data[0, 0] - float(REFS["confidence_error_3_4"])) < tol
    ms = confidence_db_stereo(Grid1.zeros(1, 1), Grid1.full(1, 1, 10.0),
                              BinaryMask.full(1, 1))
    assert abs(ms.data[0, 0] - float(REFS["confidence_error_10px"])) < tol

    fw = Grid2.constant(1, 8, 5.0, 0.0)
    bw = Grid2.zeros(1, 8)
    num, den, _ = cycle_terms(fw, bw)
    assert abs(num.data[0, 0] - float(REFS["cycle_num_5_0"])) < tol
    assert abs(den.data[0, 0] - float(REFS["cycle_den_5_0"])) < tol
    assert bool(occlusion_mask(fw, bw).data[0, 0]) == REFS["cycle_matched_5_0"]
    moa = confidence_oa(fw, bw)
    assert abs(moa.data[0, 0] - float(REFS["cycle_confidence_5_0"])) < tol

    consistent = cycle_terms(Grid2.constant(1, 5, 2.0, 0.0),
                             Grid2.constant(1, 5, -2.0, 0.0))
    assert abs(consistent[1].data[0, 0] - float(REFS["cycle_den_consistent_2_0"])) < tol

    assert abs(weight_db(Grid1.zeros(1, 1), 2.0, 0.5).data[0, 0]
               - float(REFS["db_weight_m0_a2_b05"])) < tol
    assert abs(weight_db(Grid1.full(1, 1, 0.75), 2.0, 0.5).data[0, 0]
               - float(REFS["db_weight_m075_a2_b05"])) < tol

    from confloss import weight_combine, weight_oa
    assert abs(weight_oa(Grid1.full(1, 1, 1.0), 2.0, 1.0).data[0, 0]
               - float(REFS["oa_weight_m1_a2_b1"])) < tol
    assert abs(weight_oa(Grid1.full(1, 1, 0.5), 1.0, 1.0).data[0, 0]
               - float(REFS["oa_weight_m05_a1_b1"])) < tol
    combo = weight_combine(Grid1.zeros(1, 1), Grid1.full(1, 1, 1.0),
                           BinaryMask.full(1, 1),
                           WeightSpec(mode="mask_sum", alpha1=2, beta1=1,
                                      alpha2=2, beta2=1))
    assert abs(combo.data[0, 0] - float(REFS["mask_sum_h1_mdb0_moa1_a2_b1"])) < tol

    pred = Grid2.zeros(1, 1)
    gt = Grid2.constant(1, 1, 1.0, 0.0)
    total, _ = sequence_loss([pred] * 3, gt, BinaryMask.full(1, 1),
                             WeightSpec(mode="plain_l1"), SequenceParams(0.8))
    assert abs(total - float(REFS["sequence_total_3_unit"])) < tol


@criterion(4, "reduction identities")
def test_criterion_4_reductions():
    rng = np.random.default_rng(4004)
    pred, gt, bw, valid = random_flow_instance(rng)
    h, w = pred.shape
    plain = evaluate_loss(pred, gt, valid, WeightSpec(mode="plain_l1"))
    plain_grad = weighted_l1_grad(pred, gt, plain.weight_map, valid)

    for mode in MODES:
        spec = WeightSpec(mode, alpha1=0.0, alpha2=0.0)
        res = evaluate_loss(pred, gt, valid, spec, backward=bw)
        assert res.scalar == plain.scalar
        grad = weighted_l1_grad(pred, gt, res.weight_map, valid)
        assert np.array_equal(grad.data, plain_grad.data)
        assert np.array_equal(res.loss_map.data, plain.loss_map.data)

    m = Grid1(rng.random((h, w)))
    rfl = weight_db(m, 1.0, 1.0)
    assert np.array_equal(rfl.data, 1.0 + (1.0 - m.data))

    off_frame = Grid2.constant(h, w, 10.0 * max(h, w), 0.0)
    mult = evaluate_loss(pred, gt, valid, WeightSpec("multiplication"),
                         backward=off_frame)
    assert mult.scalar == plain.scalar
    masked = evaluate_loss(pred, gt, valid, WeightSpec("masking"),
                           backward=off_frame)
    assert masked.scalar == plain.scalar


@criterion(5, "involutions, round trips, fuzz robustness")
def test_criterion_5_io():
    rng = np.random.default_rng(5005)
    for _ in range(100):
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        flow = Grid2(rng.normal(0, 50, (h, w, 2)).astype(np.float32))
        scalar = Grid1(rng.normal(0, 50, (h, w)).astype(np.float32))

        assert np.array_equal(hflip(hflip(flow)).data, flow.data)
        restored = reverse_disparity_restore(reverse_disparity_restore(scalar))
        assert np.array_equal(restored.data, scalar.data)

        back_flow, valid = read_flo(write_flo(flow))
        assert np.array_equal(back_flow.data, flow.data) and valid.data.all()
        back_scalar, valid = read_pfm(write_pfm(scalar))
        assert np.array_equal(back_scalar.data, scalar.data) and valid.data.all()

    good_flo = write_flo(Grid2(rng.normal(size=(3, 3, 2))))
    good_pfm = write_pfm(Grid1(rng.normal(size=(3, 3))))
    for _ in range(300):
        blob = rng.bytes(int(rng.integers(0, 120)))
        for reader in (read_flo, read_pfm):
            try:
                reader(blob)
            except FormatError:
                pass
        for base in (good_flo, good_pfm):
            cut = bytearray(base[: int(rng.integers(0, len(base)))])
            if cut:
                cut[int(rng.integers(0, len(cut)))] ^= int(rng.integers(1, 256))
            for reader in (read_flo, read_pfm):
                try:
                    reader(bytes(cut))
                except FormatError:
                    pass


def varied_scene_spec(seed):
    rng = np.random.default_rng(seed)
    while True:
        size = int(rng.choice([16, 24, 32, 40]))
        mx = int(rng.integers(-8, 9))
        my = int(rng.integers(-4, 5))
        bx = int(rng.integers(-1, 2))
        by = int(rng.integers(-1, 2))
        if (mx - bx) ** 2 + (my - by) ** 2 < 4:
            continue
        try:
            return SceneSpec(square_size=size, square_motion=(float(mx), float(my)),
                             background_motion=(float(bx), float(by)),
                             occluded_label_noise_sigma=3.0, seed=seed)
        except ValueError:
            continue


@criterion(6, "cycle mask vs geometric occlusion on 20 scenes")
def test_criterion_6_occlusion_agreement():
    for seed in range(20):
        scene = synth_scene(varied_scene_spec(seed))
        mask = occlusion_mask(scene.gt_forward, scene.gt_backward)
        agreement = (mask.data == ~scene.occlusion.data).mean()
        assert agreement >= 0.95, f"seed {seed}: {agreement:.3f}"


@pytest.fixture(scope="module")
def toy_runs():
    """The toy runs of criteria 7 and 9: 500 steps on the default scene of
    seeds 0-9, per loss mode. Each mode is trained once per module, when first
    asked for, so criterion 9 reuses the plain_l1 runs that criterion 7 times."""
    @functools.cache
    def scenes():
        return [synth_scene(SceneSpec(seed=s)) for s in range(10)]

    @functools.cache
    def run(mode):
        cfg = TrainConfig(steps=500, learning_rate=0.05,
                          loss_spec=WeightSpec(mode))
        return [train(scene, cfg) for scene in scenes()]

    return run


@criterion(7, "toy-training direction check")
def test_criterion_7_training_directions(toy_runs):
    start = time.monotonic()
    baseline = toy_runs("plain_l1")
    oa = toy_runs("oa")
    db = toy_runs("db")
    oa_wins = sum(o.report.matched_epe <= b.report.matched_epe
                  for o, b in zip(oa, baseline))
    db_wins = sum(d.report.outlier_rates[3.0] < b.report.outlier_rates[3.0]
                  for d, b in zip(db, baseline))
    elapsed = time.monotonic() - start
    print(f"\n  OA matched-EPE wins: {oa_wins}/10, DB 3PX wins: {db_wins}/10, "
          f"{elapsed:.0f}s")
    assert oa_wins >= 7, f"OA won only {oa_wins}/10 seeds"
    assert db_wins >= 7, f"DB won only {db_wins}/10 seeds"
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.0f}s"


@criterion(8, "toytrain CSV determinism")
def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("steps = 60\nseeds = 0, 1\nmodes = plain_l1, oa\n")
    for name in ("a", "b"):
        assert cli_main(["toytrain", "--config", str(cfg),
                         "--out-dir", str(tmp_path / name)]) == 0
    a = (tmp_path / "a" / "comparison.csv").read_bytes()
    b = (tmp_path / "b" / "comparison.csv").read_bytes()
    assert a == b
    for report in (tmp_path / "a").glob("report_*.csv"):
        twin = tmp_path / "b" / report.name
        assert report.read_bytes() == twin.read_bytes()


@criterion(9, "combining DB and OA: sum beats plain L1 on both of criterion 7's metrics")
def test_criterion_9_combination(toy_runs):
    start = time.monotonic()
    baseline = toy_runs("plain_l1")
    combined = toy_runs("sum")
    epe_wins = sum(c.report.matched_epe <= b.report.matched_epe
                   for c, b in zip(combined, baseline))
    px3_wins = sum(c.report.outlier_rates[3.0] < b.report.outlier_rates[3.0]
                   for c, b in zip(combined, baseline))
    elapsed = time.monotonic() - start
    print(f"\n  sum matched-EPE wins: {epe_wins}/10, 3PX wins: {px3_wins}/10, "
          f"{elapsed:.0f}s")
    assert epe_wins >= 7, f"sum won matched EPE in only {epe_wins}/10 seeds"
    assert px3_wins >= 7, f"sum won 3PX in only {px3_wins}/10 seeds"
    assert elapsed < 300.0, f"criterion 9 took {elapsed:.0f}s"

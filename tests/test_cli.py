import re
import warnings

import numpy as np
import pytest

from confloss import (
    BinaryMask,
    Grid1,
    Grid2,
    WeightSpec,
    confidence_db_flow,
    evaluate_loss,
    full_report,
    occlusion_mask,
)
from confloss.cli import main, parse_toy_config
from confloss.fileio import (
    read_pfm,
    read_pgm_mask,
    write_flo,
    write_metrics_csv,
    write_pfm,
)


def flo(path, arr):
    path.write_bytes(write_flo(Grid2(arr)))
    return str(path)


def pfm(path, arr):
    path.write_bytes(write_pfm(Grid1(arr)))
    return str(path)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestTopLevel:
    def test_show_defaults(self, capsys):
        assert main(["--show-defaults"]) == 0
        assert capsys.readouterr().out == (
            "task defaults (alpha1 beta1 alpha2 beta2):\n"
            "  flow   2.0 0.5 2.0 1.0\n"
            "  stereo 2.0 1.0 1.0 1.0\n"
            "gamma1 0.01\n"
            "gamma2 0.5\n"
            "gamma_seq 0.8\n"
            "toytrain: steps 500, learning_rate 0.05, block_size 8, "
            "recompute_confidence_every 1\n")

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--bogus"])
        assert exc.value.code == 2


class TestConfmap:
    def test_db_perfect_prediction_is_white(self, tmp_path, rng):
        field = rng.normal(size=(6, 6, 2)).astype(np.float32)
        pred = flo(tmp_path / "p.flo", field)
        out_pgm = tmp_path / "m.pgm"
        out_pfm = tmp_path / "m.pfm"
        code = main(["confmap", "--mode", "db", "--pred", pred, "--gt", pred,
                     "--out-pgm", str(out_pgm), "--out-pfm", str(out_pfm)])
        assert code == 0
        assert out_pgm.read_bytes().endswith(b"\xff" * 36)
        conf, _ = read_pfm(out_pfm.read_bytes())
        np.testing.assert_array_equal(conf.data, np.ones((6, 6)))

    def test_oa_consistent_disparities_white(self, tmp_path):
        d = np.full((4, 8), 2.0, dtype=np.float32)
        a = pfm(tmp_path / "l.pfm", d)
        b = pfm(tmp_path / "r.pfm", d)
        out = tmp_path / "m.pgm"
        code = main(["confmap", "--mode", "oa", "--task", "stereo",
                     "--forward", a, "--backward", b, "--out-pgm", str(out)])
        assert code == 0
        body = out.read_bytes()[-32:]
        # interior columns fully confident; the two left columns warp off frame
        assert body[2:8] == b"\xff" * 6

    def test_oa_missing_backward_is_usage_error(self, tmp_path, rng):
        fwd = flo(tmp_path / "f.flo", rng.normal(size=(3, 3, 2)).astype(np.float32))
        assert main(["confmap", "--mode", "oa", "--forward", fwd,
                     "--out-pgm", str(tmp_path / "o.pgm")]) == 2

    def test_no_output_requested_is_usage_error(self, tmp_path, rng):
        fwd = flo(tmp_path / "f.flo", rng.normal(size=(3, 3, 2)).astype(np.float32))
        assert main(["confmap", "--mode", "db", "--pred", fwd, "--gt", fwd]) == 2

    def test_matches_library(self, tmp_path, rng):
        pred_arr = rng.normal(size=(5, 5, 2)).astype(np.float32)
        gt_arr = rng.normal(size=(5, 5, 2)).astype(np.float32)
        pred = flo(tmp_path / "p.flo", pred_arr)
        gt = flo(tmp_path / "g.flo", gt_arr)
        out = tmp_path / "c.pfm"
        assert main(["confmap", "--mode", "db", "--pred", pred, "--gt", gt,
                     "--out-pfm", str(out)]) == 0
        got, _ = read_pfm(out.read_bytes())
        expected = confidence_db_flow(Grid2(pred_arr), Grid2(gt_arr),
                                      BinaryMask.full(5, 5))
        np.testing.assert_allclose(got.data, expected.data.astype(np.float32),
                                   rtol=1e-6)


class TestOccmask:
    def test_mask_written(self, tmp_path):
        fw_arr = np.full((3, 8, 2), [5.0, 0.0], dtype=np.float32)
        bw_arr = np.zeros((3, 8, 2), dtype=np.float32)
        fw = flo(tmp_path / "f.flo", fw_arr)
        bw = flo(tmp_path / "b.flo", bw_arr)
        out = tmp_path / "m.pgm"
        assert main(["occmask", "--forward", fw, "--backward", bw,
                     "--out-pgm", str(out)]) == 0
        mask = read_pgm_mask(out.read_bytes())
        expected = occlusion_mask(Grid2(fw_arr), Grid2(bw_arr))
        np.testing.assert_array_equal(mask.data, expected.data)
        assert not mask.data.any()  # 25 >= 0.75 everywhere in frame too

    def test_dimension_mismatch_is_data_error(self, tmp_path, rng):
        fw = flo(tmp_path / "f.flo", rng.normal(size=(3, 3, 2)).astype(np.float32))
        bw = flo(tmp_path / "b.flo", rng.normal(size=(4, 4, 2)).astype(np.float32))
        assert main(["occmask", "--forward", fw, "--backward", bw,
                     "--out-pgm", str(tmp_path / "m.pgm")]) == 1

    def test_stereo_constant_pair(self, tmp_path):
        d = np.full((4, 8), 3.0, dtype=np.float32)
        a = pfm(tmp_path / "l.pfm", d)
        b = pfm(tmp_path / "r.pfm", d)
        out = tmp_path / "m.pgm"
        assert main(["occmask", "--task", "stereo", "--forward", a,
                     "--backward", b, "--out-pgm", str(out)]) == 0
        mask = read_pgm_mask(out.read_bytes())
        # columns left of the disparity warp off frame, the rest match
        assert not mask.data[:, :3].any() and mask.data[:, 3:].all()


class TestLoss:
    def test_perfect_prediction_zero(self, tmp_path, rng, capsys):
        field = rng.normal(size=(4, 4, 2)).astype(np.float32)
        pred = flo(tmp_path / "p.flo", field)
        assert main(["loss", "--pred", pred, "--gt", pred, "--mode", "db"]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_sequence_discount(self, tmp_path, capsys):
        # unit per-iteration loss: residual (1, 0) on every pixel
        pred = flo(tmp_path / "p.flo", np.zeros((2, 2, 2), dtype=np.float32))
        gt = flo(tmp_path / "g.flo", np.full((2, 2, 2), [1.0, 0.0], dtype=np.float32))
        assert main(["loss", "--pred", pred, "--pred", pred, "--pred", pred,
                     "--gt", gt, "--gamma-seq", "0.8"]) == 0
        total = float(capsys.readouterr().out.strip())
        assert total == pytest.approx(2.44, abs=1e-6)

    def test_plain_equals_db_alpha_zero(self, tmp_path, rng, capsys):
        pred = flo(tmp_path / "p.flo", rng.normal(size=(4, 4, 2)).astype(np.float32))
        gt = flo(tmp_path / "g.flo", rng.normal(size=(4, 4, 2)).astype(np.float32))
        main(["loss", "--pred", pred, "--gt", gt, "--mode", "plain_l1"])
        plain = capsys.readouterr().out
        main(["loss", "--pred", pred, "--gt", gt, "--mode", "db", "--alpha1", "0"])
        assert capsys.readouterr().out == plain

    def test_oa_needs_backward_per_pred(self, tmp_path, rng):
        pred = flo(tmp_path / "p.flo", rng.normal(size=(3, 3, 2)).astype(np.float32))
        assert main(["loss", "--pred", pred, "--gt", pred, "--mode", "oa"]) == 2

    def test_stereo_task_reads_pfm(self, tmp_path, rng, capsys):
        d = rng.uniform(0, 4, (4, 6)).astype(np.float32)
        pred = pfm(tmp_path / "d.pfm", d)
        bw = pfm(tmp_path / "b.pfm", d)
        assert main(["loss", "--task", "stereo", "--mode", "oa",
                     "--pred", pred, "--gt", pred, "--backward", bw]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_writes_maps(self, tmp_path, rng, capsys):
        pred_arr = rng.normal(size=(4, 4, 2)).astype(np.float32)
        gt_arr = rng.normal(size=(4, 4, 2)).astype(np.float32)
        pred = flo(tmp_path / "p.flo", pred_arr)
        gt = flo(tmp_path / "g.flo", gt_arr)
        loss_map = tmp_path / "l.pfm"
        weight_map = tmp_path / "w.pfm"
        assert main(["loss", "--pred", pred, "--gt", gt, "--mode", "db",
                     "--out-loss-map", str(loss_map),
                     "--out-weight-map", str(weight_map)]) == 0
        res = evaluate_loss(Grid2(pred_arr), Grid2(gt_arr), BinaryMask.full(4, 4),
                            WeightSpec.flow_defaults("db"))
        got_w, _ = read_pfm(weight_map.read_bytes())
        np.testing.assert_allclose(got_w.data, res.weight_map.data.astype(np.float32),
                                   rtol=1e-6)
        assert float(capsys.readouterr().out.strip()) == pytest.approx(res.scalar,
                                                                       abs=1e-6)

        # Stereo, through the shared cycle check (M_oa and H) of mask_sum.
        d_pred = rng.uniform(0, 3, (4, 6)).astype(np.float32)
        d_gt = rng.uniform(0, 3, (4, 6)).astype(np.float32)
        d_bw = rng.uniform(0, 3, (4, 6)).astype(np.float32)
        assert main(["loss", "--task", "stereo", "--mode", "mask_sum",
                     "--pred", pfm(tmp_path / "dp.pfm", d_pred),
                     "--gt", pfm(tmp_path / "dg.pfm", d_gt),
                     "--backward", pfm(tmp_path / "db.pfm", d_bw),
                     "--out-weight-map", str(weight_map)]) == 0
        res = evaluate_loss(Grid1(d_pred), Grid1(d_gt), BinaryMask.full(4, 6),
                            WeightSpec.stereo_defaults("mask_sum"), backward=Grid1(d_bw))
        got_w, _ = read_pfm(weight_map.read_bytes())
        np.testing.assert_allclose(got_w.data, res.weight_map.data.astype(np.float32),
                                   rtol=1e-6)
        assert float(capsys.readouterr().out.strip()) == pytest.approx(res.scalar,
                                                                       abs=1e-6)


class TestEval:
    def test_perfect_prediction_csv(self, tmp_path, rng, capsys):
        field = rng.normal(size=(4, 4, 2)).astype(np.float32)
        pred = flo(tmp_path / "p.flo", field)
        assert main(["eval", "--pred", pred, "--gt", pred]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["epe"] == "0.0000" and cells["px3"] == "0.0000"

    def test_matches_library_report(self, tmp_path, rng, capsys):
        pred_arr = rng.normal(0, 3, size=(6, 6, 2)).astype(np.float32)
        gt_arr = rng.normal(0, 3, size=(6, 6, 2)).astype(np.float32)
        pred = flo(tmp_path / "p.flo", pred_arr)
        gt = flo(tmp_path / "g.flo", gt_arr)
        out = tmp_path / "m.csv"
        assert main(["eval", "--pred", pred, "--gt", gt, "--out", str(out)]) == 0
        import io as _io
        buf = _io.StringIO()
        write_metrics_csv(full_report(Grid2(pred_arr), Grid2(gt_arr),
                                      BinaryMask.full(6, 6)), buf)
        assert out.read_text() == buf.getvalue()

    def test_region_mask_populates_split(self, tmp_path, rng, capsys):
        pred_arr = rng.normal(size=(4, 4, 2)).astype(np.float32)
        gt_arr = rng.normal(size=(4, 4, 2)).astype(np.float32)
        pred = flo(tmp_path / "p.flo", pred_arr)
        gt = flo(tmp_path / "g.flo", gt_arr)
        from confloss.fileio import write_pgm
        region = BinaryMask(np.eye(4, dtype=bool))
        mask_path = tmp_path / "r.pgm"
        mask_path.write_bytes(write_pgm(region))
        assert main(["eval", "--pred", pred, "--gt", gt,
                     "--region", str(mask_path)]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["epe_matched"] != "NA" and cells["n_matched"] == "4"

    def test_unreadable_input(self, tmp_path):
        assert main(["eval", "--pred", str(tmp_path / "missing.flo"),
                     "--gt", str(tmp_path / "missing.flo")]) == 1

    def test_corrupt_input_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.flo"
        bad.write_bytes(b"NOPE")
        assert main(["eval", "--pred", str(bad), "--gt", str(bad)]) == 1
        assert "bad.flo" in capsys.readouterr().err


class TestReverseDisparity:
    def test_round_trip_identity(self, tmp_path, rng):
        arr = rng.uniform(0, 5, (3, 4)).astype(np.float32)
        src = pfm(tmp_path / "d.pfm", arr)
        mid = tmp_path / "mid.pfm"
        out = tmp_path / "out.pfm"
        assert main(["reverse-disparity", "--input", src, "--output", str(mid)]) == 0
        assert main(["reverse-disparity", "--input", str(mid), "--output", str(out)]) == 0
        final, _ = read_pfm(out.read_bytes())
        np.testing.assert_array_equal(final.data, arr.astype(np.float64))

    def test_constant_sign_flip(self, tmp_path):
        src = pfm(tmp_path / "d.pfm", np.full((2, 2), -5.0, dtype=np.float32))
        out = tmp_path / "out.pfm"
        assert main(["reverse-disparity", "--input", src, "--output", str(out)]) == 0
        grid, _ = read_pfm(out.read_bytes())
        np.testing.assert_array_equal(grid.data, np.full((2, 2), 5.0))

    def test_hand_row(self, tmp_path):
        src = pfm(tmp_path / "d.pfm", np.array([[-1.0, -2.0]], dtype=np.float32))
        out = tmp_path / "o.pfm"
        main(["reverse-disparity", "--input", src, "--output", str(out)])
        grid, _ = read_pfm(out.read_bytes())
        np.testing.assert_array_equal(grid.data, [[2.0, 1.0]])


TOY_CONFIG = """
# desk-scale comparison
height = 32
width = 32
square_size = 16
square_motion = 4, 0
noise_sigma = 2.0
steps = 30
learning_rate = 0.05
seeds = 0, 1
modes = plain_l1, multiplication
snapshot_every = 15
"""


PINNED_COMPARISON = """\
mode,epe,epe_matched,epe_unmatched,px3,seeds
plain_l1,1.7233,1.8148,0.3512,25.0000,2
db,1.7076,1.7958,0.3845,25.0000,2
oa,1.7252,1.8172,0.3459,25.0000,2
sum,1.7142,1.8036,0.3743,25.0000,2
multiplication,1.7064,1.7921,0.4216,25.0000,2
masking,1.7078,1.7947,0.4035,25.0000,2
mask_sum,1.7142,1.8034,0.3750,25.0000,2
"""

PINNED_CACHED_COMPARISON = """\
mode,epe,epe_matched,epe_unmatched,px3,seeds
oa,1.7967,1.8986,0.2683,25.0000,1
mask_sum,1.7879,1.8880,0.2858,25.0000,1
"""
PINNED_CACHED_REPORT = """\
epe,px1,px3,px5,fl_all,s0_10,s10_40,s40plus,epe_matched,epe_unmatched,avg_err,\
bad_0.5,bad_1,bad_2,bad_3,n_valid,n_matched,n_unmatched
1.7967,25.0000,25.0000,25.0000,25.0000,1.7967,NA,NA,1.8986,0.2683,1.7967,\
25.7568,25.0000,25.0000,25.0000,4096,3840,256
"""


class TestToytrain:
    def test_config_parser(self):
        cfg = parse_toy_config(TOY_CONFIG)
        assert cfg["square_motion"] == (4.0, 0.0)
        assert cfg["seeds"] == (0, 1)
        assert cfg["modes"] == ("plain_l1", "multiplication")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("optimizer = adam\n")
        assert main(["toytrain", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert "optimizer" in capsys.readouterr().err

    def test_zero_steps_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("steps = 0\n")
        assert main(["toytrain", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 1

    def test_run_produces_artifacts_deterministically(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text(TOY_CONFIG)
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        assert main(["toytrain", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["toytrain", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        csv1 = (out1 / "comparison.csv").read_bytes()
        csv2 = (out2 / "comparison.csv").read_bytes()
        assert csv1 == csv2
        text = csv1.decode()
        assert "multiplication" in text and "plain_l1" in text
        assert (out1 / "report_plain_l1_seed0.csv").exists()
        assert (out1 / "report_multiplication_seed1.csv").exists()
        assert (out1 / "mdb_plain_l1_seed0_step15.pgm").exists()
        assert (out1 / "moa_multiplication_seed1_step30.pgm").exists()

    @pytest.mark.parametrize("line, repeated", [("seeds = 0, 0", "0"),
                                                ("modes = db, oa, db", "'db'")],
                             ids=("seeds", "modes"))
    def test_duplicate_seeds_and_modes_rejected(self, tmp_path, capsys, line, repeated):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"steps = 2\n{line}\n")
        out = tmp_path / "out"
        assert main(["toytrain", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert f"{repeated} is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_is_data_error(self, tmp_path, capsys):
        # The loss overflows in the first config, the cycle check in the second.
        for text in ("steps = 3\nmodes = plain_l1\nlearning_rate = 1e308\n",
                     "steps = 3\nmodes = oa, mask_sum\nlearning_rate = 1e300\n"):
            cfg = tmp_path / "c.txt"
            cfg.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy overflow warnings are noise here
                code = main(["toytrain", "--config", str(cfg),
                             "--out-dir", str(tmp_path / "out")])
            assert code == 1
            assert re.fullmatch(r"confloss: error: training diverged at step 1: [^\n]+\n",
                                capsys.readouterr().err), text

    @pytest.mark.parametrize("line, field", [
        ("noise_sigma = nan", "noise_sigma"),
        ("square_motion = inf, 0", "square_motion"),
        ("background_motion = 0, nan", "background_motion"),
        ("learning_rate = nan", "learning_rate"),
        ("alpha1 = nan", "alpha1"),
        ("beta2 = inf", "beta2"),
        ("gamma1 = nan", "gamma1"),
        ("gamma2 = inf", "gamma2"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, line, field):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"steps = 2\nmodes = oa\n{line}\n")
        out = tmp_path / "out"
        assert main(["toytrain", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert re.search(rf"^confloss: error: \w*{field} must be finite",
                         capsys.readouterr().err, re.MULTILINE)
        assert not out.exists()

    def test_all_modes_comparison_bytes_pinned(self, tmp_path, capsys):
        # Exact bytes: a rewrite of the block model or trainer must reproduce them.
        cfg = tmp_path / "c.txt"
        cfg.write_text("steps = 40\nseeds = 0, 1\n"
                       "modes = plain_l1, db, oa, sum, multiplication, masking, mask_sum\n")
        assert main(["toytrain", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "comparison.csv").read_bytes() == PINNED_COMPARISON.encode()

    def test_cached_weights_bytes_pinned(self, tmp_path, capsys):
        # Weights rebuilt every third step, and no seeds key (scene seed 0).
        cfg = tmp_path / "c.txt"
        cfg.write_text("steps = 30\nmodes = oa, mask_sum\nrecompute_confidence_every = 3\n")
        assert main(["toytrain", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "comparison.csv").read_bytes() == PINNED_CACHED_COMPARISON.encode()
        assert (tmp_path / "report_oa_seed0.csv").read_bytes() == PINNED_CACHED_REPORT.encode()

    def test_square_motion_defaults_to_scene_spec(self, tmp_path, capsys):
        base = "steps = 3\nmodes = oa\n"
        outputs = []
        for name, text in (("default", base), ("explicit", base + "square_motion = 8, 0\n")):
            cfg = tmp_path / f"{name}.txt"
            cfg.write_text(text)
            assert main(["toytrain", "--config", str(cfg),
                         "--out-dir", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name / "comparison.csv").read_bytes())
        assert outputs[0] == outputs[1]

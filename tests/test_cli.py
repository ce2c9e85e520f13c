import dataclasses
import hashlib
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from confloss import (
    BinaryMask,
    CycleParams,
    Grid1,
    Grid2,
    WeightSpec,
    confidence_db_flow,
    evaluate_loss,
    full_report,
    occlusion_mask,
)
from confloss import cli, fileio
from confloss.cli import main, parse_toy_config
from confloss.fileio import (
    read_pfm,
    read_pgm_mask,
    write_flo,
    write_metrics_csv,
    write_pfm,
    write_pgm,
)
from confloss.toytrain import SceneSpec, TrainConfig


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

    def test_import_leaves_thread_pool_module_unloaded(self):
        # The cycle check starts plain threads and needs no executor: importing
        # concurrent.futures would cost every CLI run about 8 ms.
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import confloss.cli; "
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src], check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out == "False\n"


class TestCachedParser:
    """main() builds its parser once per process; no call may see another's."""

    def test_built_on_first_main_call_only(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda real=cli.build_parser: built.append(1) or real())
        cli._parser.cache_clear()
        for argv in (["--show-defaults"], [], ["--show-defaults"]):
            main(argv)
        with pytest.raises(SystemExit):
            main(["eval", "--bogus"])
        assert built == [1]
        assert cli.build_parser() is not cli.build_parser()  # other callers get fresh ones
        cli._parser.cache_clear()

    def test_not_built_at_import(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import confloss.cli as c; "
                "print(c._parser.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code, src], check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out == "0\n"

    def test_repeated_options_start_empty_each_call(self, tmp_path, rng, capsys):
        gt = flo(tmp_path / "g.flo", rng.normal(size=(4, 6, 2)).astype(np.float32))
        pairs = [("--pred", flo(tmp_path / f"p{i}.flo", rng.normal(size=(4, 6, 2)).astype(
                      np.float32)),
                  "--backward", flo(tmp_path / f"b{i}.flo", rng.normal(size=(4, 6, 2)).astype(
                      np.float32))) for i in range(3)]
        single = ["loss", "--mode", "oa", "--gt", gt, *pairs[0]]
        cli._parser.cache_clear()
        assert main(single) == 0
        want = capsys.readouterr().out
        assert main(["loss", "--mode", "oa", "--gt", gt, *(a for p in pairs for a in p)]) == 0
        assert capsys.readouterr().out != want
        assert main(single) == 0
        assert capsys.readouterr().out == want

    def test_usage_errors_leave_the_next_call_unchanged(self, tmp_path, rng, capsys):
        d = rng.uniform(0, 4, (4, 6)).astype(np.float32)
        fw, bw = pfm(tmp_path / "f.pfm", d), pfm(tmp_path / "b.pfm", d[:, ::-1])

        def confmap(name):
            argv = ["confmap", "--mode", "oa", "--task", "stereo", "--gamma1", "0.2",
                    "--forward", fw, "--backward", bw,
                    "--out-pfm", str(tmp_path / f"{name}.pfm"),
                    "--out-pgm", str(tmp_path / f"{name}.pgm")]
            assert main(argv) == 0
            io = capsys.readouterr()
            return [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("pfm", "pgm")], io

        first = confmap("first")
        with pytest.raises(SystemExit) as exc:  # argparse's usage error
            main(["confmap", "--mode", "oa", "--task", "plane", "--forward", fw])
        assert exc.value.code == 2
        # and the command's own, after parsing every option
        assert main(["confmap", "--mode", "db", "--forward", fw, "--gamma2", "9",
                     "--out-pfm", str(tmp_path / "x.pfm")]) == 2
        capsys.readouterr()
        assert confmap("second") == first


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

    @pytest.mark.parametrize("mode, own, other", [("oa", ("forward", "backward"), "pred"),
                                                  ("db", ("pred", "gt"), "forward")])
    def test_other_mode_input_is_usage_error(self, tmp_path, rng, capsys, mode, own, other):
        field = flo(tmp_path / "f.flo", rng.normal(size=(3, 3, 2)).astype(np.float32))
        out = tmp_path / "o.pgm"
        assert main(["confmap", "--mode", mode, f"--{own[0]}", field, f"--{own[1]}", field,
                     f"--{other}", str(tmp_path / "missing.flo"), "--out-pgm", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"confloss: error: confmap --mode {mode} takes no --{other}\n")
        assert not out.exists()

    def test_db_missing_gt_is_usage_error(self, tmp_path, rng, capsys):
        pred = flo(tmp_path / "p.flo", rng.normal(size=(3, 3, 2)).astype(np.float32))
        out = tmp_path / "o.pgm"
        assert main(["confmap", "--mode", "db", "--pred", pred, "--out-pgm", str(out)]) == 2
        assert capsys.readouterr().err == (
            "confloss: error: confmap --mode db needs --pred and --gt\n")
        assert not out.exists()

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

    def test_warning_is_one_line(self, tmp_path, capsys):
        d = np.full((4, 8), 3.0, dtype=np.float32)
        a = pfm(tmp_path / "l.pfm", np.where(np.eye(4, 8, dtype=bool), -1.0, d))
        b = pfm(tmp_path / "r.pfm", d)
        outputs = []
        for action in ("ignore", "default"):  # "default" is a plain interpreter's
            out = tmp_path / f"{action}.pgm"
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                assert main(["occmask", "--task", "stereo", "--forward", a,
                             "--backward", b, "--out-pgm", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr()))
        (quiet, quiet_io), (loud, loud_io) = outputs
        assert loud == quiet and loud_io.out == quiet_io.out == quiet_io.err == ""
        assert loud_io.err == "confloss: warning: disparity map contains negative entries\n"


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

    def test_no_valid_pixel_is_data_error(self, tmp_path, capsys):
        # Every ground-truth sample is beyond the unknown-flow sentinel.
        pred = flo(tmp_path / "p.flo", np.zeros((2, 3, 2)))
        gt = flo(tmp_path / "g.flo", np.full((2, 3, 2), 2e9))
        loss_map = tmp_path / "l.pfm"
        assert main(["loss", "--pred", pred, "--gt", gt, "--mode", "db",
                     "--out-loss-map", str(loss_map)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "confloss: error: no valid pixels: the mean loss is undefined\n")
        assert not loss_map.exists()

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
                            WeightSpec("db"))
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

    def test_value_beyond_float32_is_an_error(self, tmp_path, capsys):
        # |gt - pred| = 6e38 fits float64 but not the PFM's float32 samples.
        pred = tmp_path / "p.pfm"
        gt = tmp_path / "g.pfm"
        for path, value in ((pred, 3e38), (gt, -3e38)):
            path.write_bytes(b"Pf\n3 2\n-1.0\n" + np.full(6, value, "<f4").tobytes())
        loss_map = tmp_path / "l.pfm"
        assert main(["loss", "--task", "stereo", "--mode", "db", "--pred", str(pred),
                     "--gt", str(gt), "--out-loss-map", str(loss_map)]) == 1
        assert capsys.readouterr().err == ("confloss: error: cannot write a value outside "
                                           "the float32 range (+-3.4028235e+38)\n")
        assert not loss_map.exists()

    def test_unencodable_output_writes_nothing_and_prints_nothing(self, tmp_path, capsys):
        # The weight map (all 3.0) encodes; the loss map (1.8e39) does not.
        pred, gt = tmp_path / "p.pfm", tmp_path / "g.pfm"
        for path, value in ((pred, 3e38), (gt, -3e38)):
            path.write_bytes(b"Pf\n3 2\n-1.0\n" + np.full(6, value, "<f4").tobytes())
        weight_map, loss_map = tmp_path / "w.pfm", tmp_path / "l.pfm"
        assert main(["loss", "--task", "stereo", "--mode", "db", "--pred", str(pred),
                     "--gt", str(gt), "--out-weight-map", str(weight_map),
                     "--out-loss-map", str(loss_map)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("confloss: error: cannot write a value outside the float32")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.pfm", "p.pfm"]

    @pytest.mark.parametrize("command", ("loss", "confmap"))
    def test_unwritable_second_output_prints_nothing(self, command, tmp_path, rng, capsys):
        field = rng.normal(size=(3, 4, 2)).astype(np.float32)
        pred, gt = flo(tmp_path / "p.flo", field), flo(tmp_path / "g.flo", field + 0.5)
        first, second = tmp_path / "first.pfm", tmp_path / "missing" / "second"
        outputs = (["--out-loss-map", str(first), "--out-weight-map", str(second)]
                   if command == "loss" else
                   ["--mode", "db", "--out-pfm", str(first), "--out-pgm", str(second)])
        assert main([command, "--pred", pred, "--gt", gt, *outputs]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("confloss: error: ") and str(second) in err
        # Written before the failing write, the first output stays.
        assert first.exists() and not second.parent.exists()


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


    @pytest.mark.parametrize("option, name, blob", [
        ("--valid", "big.pgm", b"P5\n" + b"1" * 2200 + b" " + b"2" * 2200 + b"\n255\n\x00"),
        ("--pred", "big.pfm", b"Pf\n-" + b"9" * 4300 + b" 2\n-1.0\n"),
    ], ids=["pgm", "pfm"])
    def test_huge_header_numbers_name_the_file(self, tmp_path, capsys, option, name, blob):
        ok = pfm(tmp_path / "ok.pfm", np.zeros((2, 2), dtype=np.float32))
        bad = tmp_path / name
        bad.write_bytes(blob)
        args = {"--pred": ok, "--gt": ok, option: str(bad)}
        argv = ["eval", "--task", "stereo"] + [x for kv in args.items() for x in kv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"confloss: error: {bad}: ") and "dimensions" in err
        assert len(err) < 300


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

    def test_unknown_samples_are_data_error(self, tmp_path, capsys):
        # Written raw: Grid1 rejects NaN/Inf. PFM rows are stored bottom-to-top.
        arr = np.array([[1.0, np.nan, 3.0], [np.inf, 5.0, 6.0]], dtype="<f4")
        src = tmp_path / "d.pfm"
        src.write_bytes(b"Pf\n3 2\n-1.0\n" + arr[::-1].tobytes())
        out = tmp_path / "o.pfm"
        assert main(["reverse-disparity", "--input", str(src), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "d.pfm" in err and "2 unknown" in err
        assert not out.exists()


class TestUnknownCycleInputs:
    """A static 4x6 scene whose forward .flo marks two pixels unknown (NaN and
    1e10) and whose backward .flo one (Inf). The cycle check would read them
    as zero flow, so every command that runs it refuses them. The loss leaves
    the prediction's unknown pixels out of the valid ones instead."""

    @staticmethod
    def raw_flo(path, arr):
        # Written raw: Grid2 rejects NaN/Inf.
        path.write_bytes(write_flo(Grid2.zeros(4, 6))[:12] + arr.astype("<f4").tobytes())
        return str(path)

    @pytest.mark.parametrize("command", ("confmap", "occmask", "loss"))
    def test_refused_with_file_and_count(self, command, tmp_path, capsys):
        fw = np.zeros((4, 6, 2), dtype=np.float32)
        fw[1, 2, 0] = np.nan
        fw[2, 4, 1] = 1e10
        bw = np.zeros((4, 6, 2), dtype=np.float32)
        bw[3, 0, 0] = np.inf
        fw_path = self.raw_flo(tmp_path / "fw.flo", fw)
        bw_path = self.raw_flo(tmp_path / "bw.flo", bw)
        still = flo(tmp_path / "still.flo", np.zeros((4, 6, 2), dtype=np.float32))
        out = tmp_path / "out"
        if command == "loss":
            cases = [(["loss", "--mode", "oa", "--pred", fw_path, "--gt", still,
                       "--backward", bw_path, "--out-loss-map", str(out)], "bw.flo: 1 unknown")]
        else:
            head = ["confmap", "--mode", "oa"] if command == "confmap" else ["occmask"]
            cases = [(head + ["--forward", forward, "--backward", bw_path,
                              "--out-pgm", str(out)], named)
                     for forward, named in ((fw_path, "fw.flo: 2 unknown"),
                                            (still, "bw.flo: 1 unknown"))]
        for argv, named in cases:
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert named in captured.err and captured.out == ""
            assert not out.exists()


class TestLoader:
    """Each input file is read once, and all of a command's inputs are checked
    for one size together."""

    @pytest.mark.parametrize("template", [
        "confmap --mode db --pred {a} --gt {odd} --out-pfm {out}",
        "confmap --mode oa --forward {a} --backward {odd} --out-pgm {out}",
        "occmask --forward {odd} --backward {a} --out-pgm {out}",
        "loss --gt {a} --pred {b} --pred {odd}",
        "loss --mode oa --gt {a} --pred {b} --backward {odd}",
        "eval --pred {a} --gt {b} --valid {odd_mask}",
        "eval --pred {a} --gt {b} --valid {mask} --region {odd_mask}",
    ], ids=["confmap-db", "confmap-oa", "occmask", "loss-pred", "loss-backward",
            "eval-valid", "eval-region"])
    def test_dimension_mismatch_names_every_input(self, tmp_path, rng, capsys, template):
        heights = {"a": 3, "b": 3, "odd": 5, "mask": 3, "odd_mask": 2}
        paths = {"out": str(tmp_path / "out")}
        for name, h in heights.items():
            if name.endswith("mask"):
                path = tmp_path / f"{name}.pgm"
                path.write_bytes(write_pgm(BinaryMask(np.ones((h, 4), bool))))
                paths[name] = str(path)
            else:
                paths[name] = flo(tmp_path / f"{name}.flo",
                                  rng.normal(size=(h, 4, 2)).astype(np.float32))
        assert main([arg.format(**paths) for arg in template.split()]) == 1
        inputs = [name for name in re.findall(r"{(\w+)}", template) if name != "out"]
        dims = ", ".join(f"{paths[name]}: {heights[name]}x4" for name in inputs)
        assert capsys.readouterr().err == (
            f"confloss: error: input dimensions disagree ({dims})\n")

    @pytest.mark.parametrize("template, option", [
        pytest.param(template, option, id=template.split()[0] + option)
        for template, options in {
            "confmap --mode db --pred {flo} --gt {flo} --out-pfm {out} --out-pgm {out2}":
                ("--pred", "--gt", "--out-pfm", "--out-pgm"),
            "confmap --mode oa --forward {flo} --backward {flo} --out-pgm {out}":
                ("--forward", "--backward"),
            "occmask --forward {flo} --backward {flo} --out-pgm {out}":
                ("--forward", "--backward", "--out-pgm"),
            "loss --mode oa --pred {flo} --gt {flo} --backward {flo} "
            "--out-loss-map {out} --out-weight-map {out2}":
                ("--pred", "--gt", "--backward", "--out-loss-map", "--out-weight-map"),
            "eval --pred {flo} --gt {flo} --valid {mask} --region {mask} --out {out}":
                ("--pred", "--gt", "--valid", "--region", "--out"),
            "reverse-disparity --input {pfm} --output {out}": ("--input", "--output"),
            "toytrain --config {cfg} --out-dir {out}": ("--config", "--out-dir"),
        }.items()
        for option in options
    ])
    def test_empty_path_is_usage_error(self, tmp_path, rng, capsys, monkeypatch,
                                       template, option):
        """An empty path is rejected before any file is read or written,
        instead of being skipped or read as the working directory."""
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("steps = 1\nmodes = plain_l1\n")
        mask = tmp_path / "m.pgm"
        mask.write_bytes(write_pgm(BinaryMask(np.eye(3, 4, dtype=bool))))
        paths = {"flo": flo(tmp_path / "f.flo", rng.normal(size=(3, 4, 2)).astype(np.float32)),
                 "pfm": pfm(tmp_path / "d.pfm", np.ones((3, 4), np.float32)),
                 "mask": str(mask), "cfg": str(cfg),
                 "out": str(tmp_path / "out"), "out2": str(tmp_path / "out2")}
        argv = [arg.format(**paths) for arg in template.split()]
        argv[argv.index(option) + 1] = ""
        work = tmp_path / "cwd"
        work.mkdir()
        monkeypatch.chdir(work)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {option}: expected a path" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "out2").exists()
        assert not any(work.iterdir())

    def test_loss_reads_each_field_once(self, tmp_path, rng, capsys, monkeypatch):
        read_flo, calls = fileio.read_flo, []
        monkeypatch.setattr(fileio, "read_flo", lambda data: calls.append(data) or read_flo(data))
        argv = ["loss", "--mode", "mask_sum",
                "--gt", flo(tmp_path / "g.flo", rng.normal(size=(3, 4, 2)).astype(np.float32))]
        for i in range(3):
            argv += ["--pred", flo(tmp_path / f"p{i}.flo",
                                   rng.normal(size=(3, 4, 2)).astype(np.float32)),
                     "--backward", flo(tmp_path / f"b{i}.flo",
                                       rng.normal(size=(3, 4, 2)).astype(np.float32))]
        assert main(argv) == 0
        assert len(calls) == 7

    def test_backward_count_checked_before_any_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.flo")
        assert main(["loss", "--mode", "oa", "--pred", missing, "--gt", missing]) == 2
        assert capsys.readouterr().err == (
            "confloss: error: mode 'oa' needs one --backward per --pred\n")

    @pytest.mark.parametrize("mode", ["plain_l1", "db"])
    def test_backward_rejected_without_cycle_check(self, tmp_path, rng, capsys, mode):
        pred = flo(tmp_path / "p.flo", rng.normal(size=(3, 4, 2)).astype(np.float32))
        missing = str(tmp_path / "missing.flo")
        assert main(["loss", "--mode", mode, "--pred", pred, "--gt", pred,
                     "--backward", missing]) == 2
        assert capsys.readouterr().err == (
            f"confloss: error: mode {mode!r} takes no --backward\n")


def frame_inputs(tmp_path, task):
    """A seeded 24x40 frame for `task`: (pred, backward) for two iterations and
    the ground truth. Flow gt marks 6 pixels unknown with the 1e9 sentinel;
    stereo backwards come from reverse-disparity on flipped estimates."""
    rng = np.random.default_rng(20240)
    h, w = 24, 40
    if task == "flow":
        gt = rng.normal(0.0, 2.0, (h, w, 2)).astype(np.float32)
        gt[rng.integers(0, h, 6), rng.integers(0, w, 6), rng.integers(0, 2, 6)] = 1e9
        files = []
        for i in range(2):
            fw = gt + rng.normal(0.0, 0.8, (h, w, 2)).astype(np.float32)
            fw[gt >= 1e9] = 0.5
            bw = -fw + rng.normal(0.0, 0.8, (h, w, 2)).astype(np.float32)
            files.append((flo(tmp_path / f"fw{i}.flo", fw), flo(tmp_path / f"bw{i}.flo", bw)))
        return files, flo(tmp_path / "gt.flo", gt)
    gt = rng.uniform(1.0, 6.0, (h, w)).astype(np.float32)
    files = []
    for i in range(2):
        fw = np.abs(gt + rng.normal(0.0, 0.8, (h, w))).astype(np.float32)
        flipped = pfm(tmp_path / f"flip{i}.pfm",
                      -np.abs(fw[:, ::-1] + rng.normal(0.0, 0.8, (h, w))).astype(np.float32))
        bw = str(tmp_path / f"bw{i}.pfm")
        assert main(["reverse-disparity", "--input", flipped, "--output", bw]) == 0
        files.append((pfm(tmp_path / f"fw{i}.pfm", fw), bw))
    return files, pfm(tmp_path / "gt.pfm", gt)


# SHA-256 of every output of the frame pipeline (and of the printed loss),
# recorded before the per-component rewrite of the sampler and cycle check.
PINNED_FRAME_DIGESTS = {
    "flow": {
        "db.pfm": "32ed11edba16d10c7ef3598f33f5b6765c94b09050484135d202e8b8539d4f1a",
        "db.pgm": "e10a15207093f27ea1e7ebeba80cb9544d8c10954d394349023a6c70832948d4",
        "oa.pfm": "3afc965911fdba0d6c59775af2d9dabc43e1e2f9ee936db4fbcd7c33fc301dad",
        "oa.pgm": "c47b867eda9f6e88634be9fe8cd632bf755cbded60b8090f1b2bd6061a1fd61a",
        "occ.pgm": "a0a4b0451364265ab6592b469df58a3aadfae0a529ab6cbc33148723b7bdb4e0",
        "weight.pfm": "436cf69c3882632ae6f668b762357aaf011508b15209b2a7386f9a68a78d1b68",
        "loss.pfm": "27fbdc0315cd406820c8078bd60f3c74c341df747355642c951712e70af9e024",
        "eval.csv": "b5557f06de01720eb19bd9dcaf403201f9a2c7a7bff3addeec262602af3f8d17",
        "stdout": "1d66662fd27bb32bfbf86cf3f7a87dbd415d0b2874262bef92e317302a75c25b",
    },
    "stereo": {
        "db.pfm": "0120e1f9eb4457c8fdd909f29cc9f03f80028ec23b3877fcc357905b0c908410",
        "db.pgm": "7c4574eb535b7b21e17eb2a3d1da2800c84cf583ca995fe32ee53bdba67b07a8",
        "oa.pfm": "1ec30b7fabb5aac7ca0fa2b6d588afd54ef1c71efc7ff216ad9ffa441a59ba4a",
        "oa.pgm": "074fe4536ddf1994da5d530a79a33228b851b25e41f2e2edf5bf143f093747db",
        "occ.pgm": "cba62fd95e3addb7601285b7d0e949b0d1089174b630289ea98c061f7e87fd55",
        "weight.pfm": "e4a16a07f2cfc130cc5273700d52c03506d996c357aca6eb53ac122d616d30bd",
        "loss.pfm": "09a20109ce115fb0d8f3a77f65b6b71a5e1ff520eb21c78e7d484cd610d0e7a7",
        "eval.csv": "c3bdb2fc38f46fce285a6691fb4093aa800e5ce0a294e3822c71710f398647aa",
        "stdout": "f53fab1d3c806a6a3998f7fe7e8189d4c8274d3474ac842ca9e9d5358c37ea48",
        "bw0.pfm": "418e3e8576237e141df74ce175629749c3716d4b53f4868f4882201e64399eb2",
        "bw1.pfm": "d6195bebd3420fa49ce366b6c5815b4e6b2af90f89cec93bcb9829b1ca424356",
    },
}


class TestFramePipeline:
    @pytest.mark.parametrize("task", ["flow", "stereo"])
    def test_output_bytes_pinned(self, tmp_path, capsys, task):
        files, gt = frame_inputs(tmp_path, task)
        (fw, bw), o = files[-1], tmp_path
        t = ["--task", task]
        runs = [
            ["confmap", "--mode", "db", *t, "--pred", fw, "--gt", gt,
             "--out-pfm", str(o / "db.pfm"), "--out-pgm", str(o / "db.pgm")],
            ["confmap", "--mode", "oa", *t, "--forward", fw, "--backward", bw,
             "--out-pfm", str(o / "oa.pfm"), "--out-pgm", str(o / "oa.pgm")],
            ["occmask", *t, "--forward", fw, "--backward", bw, "--out-pgm", str(o / "occ.pgm")],
            ["loss", *t, "--mode", "mask_sum" if task == "flow" else "multiplication",
             "--gt", gt, *(a for f, b in files for a in ("--pred", f, "--backward", b)),
             "--out-weight-map", str(o / "weight.pfm"), "--out-loss-map", str(o / "loss.pfm")],
            ["eval", *t, "--pred", fw, "--gt", gt, "--region", str(o / "occ.pgm"),
             "--out", str(o / "eval.csv")],
        ]
        for argv in runs:
            assert main(argv) == 0, argv
        outputs = {name: (o / name).read_bytes() for name in
                   ("db.pfm", "db.pgm", "oa.pfm", "oa.pgm", "occ.pgm", "weight.pfm",
                    "loss.pfm", "eval.csv")}
        outputs["stdout"] = capsys.readouterr().out.replace(str(o), "").encode()
        if task == "stereo":
            outputs.update({f"bw{i}.pfm": (o / f"bw{i}.pfm").read_bytes() for i in range(2)})
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
        assert digests == PINNED_FRAME_DIGESTS[task]


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


TOY_OWNERS = (SceneSpec, TrainConfig, WeightSpec, CycleParams)


def _plain_field(f):
    """An int, float or 2-tuple field: the kinds a config key can set."""
    return isinstance(f.default, (int, float)) or (
        isinstance(f.default, tuple) and len(f.default) == 2)


# Every key at a value other than its default.
ALL_KEYS_CONFIG = """
height = 48
width = 40
square_size = 16
square_motion = 4, -2
background_motion = 1, 0.5
noise_sigma = 2.5
steps = 7
learning_rate = 0.1
block_size = 4
seeds = 3, 5
modes = db, mask_sum
alpha1 = 1.5
beta1 = 0.75
alpha2 = 3.0
beta2 = 2.0
gamma1 = 0.02
gamma2 = 0.7
recompute_confidence_every = 2
snapshot_every = 3
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

    def test_non_utf8_config_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_bytes(b"\xff\xfes\x00t\x00")
        assert main(["toytrain", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"confloss: error: {cfg}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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

    def test_repeated_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("steps = 3\nmodes = oa\nsteps = 2\n")
        out = tmp_path / "out"
        assert main(["toytrain", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == \
            "confloss: error: config line 3: key 'steps' is repeated\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("steps = 2\nmodes oa\n", "config line 2: expected 'key = value', got 'modes oa'"),
        ("steps = 2\n# comment\nblock_size = four\n",
         "config line 3: bad value for 'block_size': "
         "invalid literal for int() with base 10: 'four'"),
    ], ids=("no_equals", "bad_value"))
    def test_bad_config_line_is_named(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "c.txt"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["toytrain", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"confloss: error: {message}\n"
        assert not out.exists()

    def test_every_plain_field_has_a_key(self):
        # Every int, float and 2-tuple field but the scene seed is settable,
        # and its key parses a value of the field's kind.
        parsers = {(owner, name): parse for parse, owner, name in cli._TOY_KEYS.values()}
        for owner in TOY_OWNERS:
            for f in dataclasses.fields(owner):
                if not _plain_field(f) or (owner, f.name) == (SceneSpec, "seed"):
                    continue
                assert (owner, f.name) in parsers, f"{owner.__name__}.{f.name} has no key"
                parse = parsers[owner, f.name]
                if isinstance(f.default, tuple):
                    assert parse("1, 2.5") == (1.0, 2.5)
                else:
                    assert parse("3") == type(f.default)(3)

    def test_every_key_reaches_its_field(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "compare_runs",
                            lambda config, specs, scenes: calls.append(
                                (config, specs, scenes)) or [])
        cfg = tmp_path / "c.txt"
        cfg.write_text(ALL_KEYS_CONFIG)
        assert main(["toytrain", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        [(config, specs, scenes)] = calls
        assert config.block_size == 4
        assert [s.spec for s in scenes] == [
            SceneSpec(height=48, width=40, square_size=16, square_motion=(4.0, -2.0),
                      background_motion=(1.0, 0.5), occluded_label_noise_sigma=2.5, seed=seed)
            for seed in (3, 5)]
        cycle = CycleParams(gamma1=0.02, gamma2=0.7)
        assert config == TrainConfig(steps=7, learning_rate=0.1, block_size=4,
                                     recompute_confidence_every=2, snapshot_every=3)
        assert specs == [WeightSpec(mode, alpha1=1.5, beta1=0.75, alpha2=3.0, beta2=2.0,
                                    cycle=cycle)
                         for mode in ("db", "mask_sum")]
        # No field keeps its default, so a field without a key would show here.
        for obj in (scenes[0].spec, config, specs[0], cycle):
            for f in dataclasses.fields(obj):
                if _plain_field(f):
                    assert getattr(obj, f.name) != f.default, f.name

    def test_divergence_is_data_error(self, tmp_path, capsys):
        # The overflow happens in: the loss; the cycle check of the weights; a
        # snapshot's confidence maps; the final report, after the last step.
        for text, step in (
                ("steps = 3\nmodes = plain_l1\nlearning_rate = 1e308\n", 1),
                ("steps = 3\nmodes = oa, mask_sum\nlearning_rate = 1e300\n", 1),
                ("steps = 3\nmodes = plain_l1\nlearning_rate = 1e300\nsnapshot_every = 1\n", 1),
                ("steps = 2\nmodes = plain_l1\nlearning_rate = 1e300\n", 2)):
            cfg = tmp_path / "c.txt"
            cfg.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy overflow warnings are noise here
                code = main(["toytrain", "--config", str(cfg),
                             "--out-dir", str(tmp_path / "out")])
            assert code == 1
            assert re.fullmatch(rf"confloss: error: training diverged at step {step}: [^\n]+\n",
                                capsys.readouterr().err), text

    @pytest.mark.parametrize("block_size, message", [
        (1, "block_size must be >= 2"),
        (5, "not divisible by block size 5"),
    ])
    def test_bad_block_size_reaches_user(self, tmp_path, capsys, block_size, message):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"height = 64\nwidth = 64\nsteps = 2\nblock_size = {block_size}\n")
        assert main(["toytrain", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("confloss: error: ") and message in err
        assert err.count("\n") == 1

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

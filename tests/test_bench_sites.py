"""The benchmark's per-layer tracer wraps library names it looks up by string,
and its toytrain workload writes a config file of its own.

A rename or deletion of a traced function, or a change to a config key the
workload writes, would otherwise surface only in a `bench/run.py` run; these
tests make it fail the suite, as they do a read the tracer cannot see, or a
traced call made on a band worker, which would interleave spans on the
tracer's one span stack.
"""

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np

from confloss import BinaryMask, Grid1, Grid2, TrainConfig, cli
from confloss import confidence as confidence_module
from confloss.fields import _CHUNK
from confloss.fileio import write_flo, write_pfm, write_pgm

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    missing = []
    for layer, (targets, _) in _load_tracing().LAYERS.items():
        for target in targets:
            mod_name, attr = target.split(":")
            module = importlib.import_module(f"confloss.{mod_name}")
            if "." in attr:
                # Class methods are wrapped through the class __dict__.
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and meth in vars(cls)
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{layer}: {target}")
    assert missing == []


def test_tracer_sees_every_cli_read(tmp_path, capsys):
    # A reader bound where the tracer cannot rebind it (a dict, a default
    # argument) would make `--trace 1` under-report the codec layers.
    rng = np.random.default_rng(0)
    paths = []
    for name in ("pred", "gt", "backward"):
        path = tmp_path / f"{name}.flo"
        path.write_bytes(write_flo(Grid2(rng.normal(size=(3, 4, 2)))))
        paths.append(str(path))
    pred, gt, backward = paths
    region = tmp_path / "region.pgm"
    region.write_bytes(write_pgm(BinaryMask(np.eye(3, 4, dtype=bool))))

    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["loss", "--mode", "oa", "--pred", pred, "--gt", gt,
                         "--backward", backward]) == 0
        assert cli.main(["eval", "--pred", pred, "--gt", gt, "--region", str(region)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.names.count("fileio.read_flo") == 3 + 2
    assert tracer.names.count("fileio.read_pgm_mask") == 1


def test_toy_workload_config_reaches_the_trainer(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports `common`
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    calls = []
    monkeypatch.setattr(cli, "compare_runs",
                        lambda config, specs, scenes: calls.append((config, specs)) or [])
    for seed in (0, 1):
        toy = workloads.ToyTrain()
        toy.generate(seed, tmp_path / str(seed))
        text = toy.config.read_text(encoding="utf-8")
        keys = [line.split("=")[0].strip() for line in text.splitlines()
                if line and not line.startswith("#")]
        assert sorted(cli.parse_toy_config(text)) == sorted(keys)
        assert cli.main(["toytrain", "--config", str(toy.config),
                         "--out-dir", str(toy.out)]) == 0
        config, specs = calls.pop()
        assert config.block_size == 8 and cli._TOY_KEYS["block_size"][1] is TrainConfig
        assert config.steps == workloads.TOY_STEPS
        assert tuple(spec.mode for spec in specs) == workloads.TOY_MODES


def _pipelines(tmp_path):
    """argv lists of the benchmark's flow and stereo frame pipelines, two
    refinement iterations each, on frames of four row bands."""
    rng = np.random.default_rng(31)
    w = 256
    h = 3 * (_CHUNK // w) + 1

    def write(name, data):
        path = tmp_path / name
        path.write_bytes(write_flo(Grid2(data)) if data.ndim == 3 else write_pfm(Grid1(data)))
        return str(path)

    runs = []
    for task in ("flow", "stereo"):
        t, o = ["--task", task], tmp_path / task
        o.mkdir()
        if task == "flow":
            gt = rng.normal(0.0, 2.0, (h, w, 2))
            fws = [gt + rng.normal(0.0, 0.8, gt.shape) for _ in range(2)]
            bws = [write(f"bw{i}.flo", -f + rng.normal(0.0, 0.8, gt.shape))
                   for i, f in enumerate(fws)]
            fws = [write(f"fw{i}.flo", f) for i, f in enumerate(fws)]
            gt, mode = write("gt.flo", gt), "mask_sum"
        else:
            gt = rng.uniform(1.0, 6.0, (h, w))
            fws = [np.abs(gt + rng.normal(0.0, 0.8, gt.shape)) for _ in range(2)]
            bws = []
            for i, f in enumerate(fws):
                flipped = write(f"flip{i}.pfm",
                                -np.abs(f[:, ::-1] + rng.normal(0.0, 0.8, gt.shape)))
                bws.append(str(tmp_path / f"bw{i}.pfm"))
                runs.append(["reverse-disparity", "--input", flipped, "--output", bws[-1]])
            fws = [write(f"fw{i}.pfm", f) for i, f in enumerate(fws)]
            gt, mode = write("gt.pfm", gt), "multiplication"
        pair = ["--forward", fws[-1], "--backward", bws[-1]]
        runs += [
            ["confmap", "--mode", "db", *t, "--pred", fws[-1], "--gt", gt,
             "--out-pfm", str(o / "db.pfm"), "--out-pgm", str(o / "db.pgm")],
            ["confmap", "--mode", "oa", *t, *pair,
             "--out-pfm", str(o / "oa.pfm"), "--out-pgm", str(o / "oa.pgm")],
            ["occmask", *t, *pair, "--out-pgm", str(o / "occ.pgm")],
            ["loss", "--mode", mode, *t, "--gt", gt,
             *(a for f, b in zip(fws, bws) for a in ("--pred", f, "--backward", b)),
             "--out-weight-map", str(o / "weight.pfm")],
            ["eval", *t, "--pred", fws[-1], "--gt", gt, "--region", str(o / "occ.pgm"),
             "--out", str(o / "eval.csv")],
        ]
    return runs


def test_traced_layers_run_only_on_the_calling_thread(tmp_path, monkeypatch, capsys):
    # The tracer keeps one span stack for all threads, so a traced name called
    # from a band worker would nest its span under whatever the caller runs.
    runs = _pipelines(tmp_path)
    monkeypatch.setattr(confidence_module, "_WORKERS", 2)
    band_threads = set()
    walk = confidence_module._walk_rows
    monkeypatch.setattr(confidence_module, "_walk_rows",
                        lambda *args: band_threads.add(threading.get_ident()) or walk(*args))
    seen = []

    class ThreadRecorder(_load_tracing().Tracer):
        """The tracer, installed where it installs, with each call's thread noted."""

        def wrap(self, name, fn, cost=None, tag_mode=False):
            traced = super().wrap(name, fn, cost, tag_mode)

            def recorded(*args, **kwargs):
                seen.append((name, threading.get_ident()))
                return traced(*args, **kwargs)
            return recorded

    tracer = ThreadRecorder()
    tracer.install()
    try:
        for argv in runs:
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    assert len(band_threads) == 2  # the passes did run on a worker
    layers = {name for name, _ in seen}
    assert {"metrics.full_report", "confidence.confidence_oa", "confidence.occlusion_mask",
            "losses.sequence_loss", "fileio.read_flo", "fileio.read_pfm"} <= layers
    assert {ident for _, ident in seen} == {threading.get_ident()}

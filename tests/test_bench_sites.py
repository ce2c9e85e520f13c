"""The benchmark's per-layer tracer wraps library names it looks up by string.

A rename or deletion of a traced function would otherwise surface only in
`bench/run.py --trace 1`; these tests make it fail the suite, as they do a
read the tracer cannot see.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from confloss import BinaryMask, Grid2, cli
from confloss.fileio import write_flo, write_pgm

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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

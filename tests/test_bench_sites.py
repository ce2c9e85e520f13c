"""The benchmark's per-layer tracer wraps library names it looks up by string.

A rename or deletion of a traced function would otherwise surface only in
`bench/run.py --trace 1`; this test makes it fail the suite.
"""

import importlib
import importlib.util
from pathlib import Path

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

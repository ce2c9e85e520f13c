"""Typed errors at the library boundary: a wrong type or an out-of-range value
given to a parameter dataclass, a grid constructor or a mask argument raises
a ValueError that names the field, grid type or argument, and is raised by the
library itself, not by numpy."""

import dataclasses
import os
import warnings

import numpy as np
import pytest

import confloss
from confloss import (
    BinaryMask,
    CycleParams,
    Grid1,
    Grid2,
    SceneSpec,
    SequenceParams,
    TrainConfig,
    WeightSpec,
    build_weights,
    confidence_db_flow,
    evaluate_loss,
    full_report,
    weighted_l1,
)

PARAMS = (CycleParams, WeightSpec, SequenceParams, TrainConfig, SceneSpec)
PACKAGE_DIR = os.path.dirname(confloss.__file__) + os.sep


def _outside(bound, key, integral):
    """The value nearest `bound` that breaks the metadata bound `key`."""
    if key == "above":
        return bound
    step = -1 if key == "min" else 1
    return bound + step if integral else float(np.nextafter(bound, bound + step))


def _field_cases():
    """(class, field, bad value) for each int, float and tuple field of the
    parameter dataclasses, read from the fields themselves."""
    for cls in PARAMS:
        for f in dataclasses.fields(cls):
            integral = type(f.default) is int
            if integral:
                bad = [1.5, True]
            elif type(f.default) is float:
                bad = ["x", np.nan, np.inf, False]
            elif type(f.default) is tuple:
                bad = ["x", ("x", 0.0), (np.nan, 0.0), (0.0, -np.inf), (1.0,), 5.0]
            else:
                continue
            bad += [_outside(bound, key, integral) for key, bound in f.metadata.items()]
            for value in bad:
                yield cls, f.name, value


# Cases that numpy, not the library, rejected (or that passed silently).
PROBE_CASES = [
    (SceneSpec, "seed", -1),
    (SceneSpec, "seed", 1.5),
    (SceneSpec, "height", 64.5),
    (TrainConfig, "steps", 1.5),
    (TrainConfig, "recompute_confidence_every", 1.5),
    (WeightSpec, "alpha1", "a"),
    (CycleParams, "gamma1", "x"),
    (SequenceParams, "gamma_seq", "x"),
    (WeightSpec, "cycle", None),
    (WeightSpec, "cycle", {"gamma1": 0.01}),
    (TrainConfig, "loss_spec", None),
    (TrainConfig, "loss_spec", "oa"),
]


def _raises_here(call, prefix):
    """call() raises a ValueError starting with prefix, from library code."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning instead of the error fails
        with pytest.raises(ValueError) as info:
            call()
    assert str(info.value).startswith(prefix), str(info.value)
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_filename.startswith(PACKAGE_DIR)


@pytest.mark.parametrize("cls, name, value", [*PROBE_CASES, *_field_cases()],
                         ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_parameter_field_rejects(cls, name, value):
    _raises_here(lambda: cls(**{name: value}), f"{name} must be ")


def test_messages():
    for call, message in (
            (lambda: WeightSpec(alpha1=-1.0), "alpha1 must be >= 0, got -1.0"),
            (lambda: WeightSpec(beta2=0.0), "beta2 must be > 0, got 0.0"),
            (lambda: SequenceParams(0.0), "gamma_seq must be > 0, got 0.0"),
            (lambda: SequenceParams(1.2), "gamma_seq must be <= 1, got 1.2"),
            (lambda: SceneSpec(seed=-1), "seed must be >= 0, got -1"),
            (lambda: SceneSpec(seed=1.5), "seed must be an integer, got 1.5"),
            (lambda: WeightSpec(alpha1="a"), "alpha1 must be a real number, got 'a'"),
            (lambda: SceneSpec(square_motion=(1.0,)),
             "square_motion must be a tuple of 2 real numbers, got (1.0,)"),
            (lambda: CycleParams(gamma2=np.inf), "gamma2 must be finite, got inf"),
            (lambda: WeightSpec(cycle=None), "cycle must be a CycleParams, got None"),
            (lambda: TrainConfig(loss_spec=None), "loss_spec must be a WeightSpec, got None"),
            (lambda: TrainConfig(block_size=1), "block_size must be >= 2, got 1")):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_valid_values_of_other_kinds_are_accepted():
    # numpy scalars and ints in float fields are numbers like any other.
    assert WeightSpec(alpha1=np.float64(1.5), beta1=1).alpha1 == 1.5
    assert TrainConfig(steps=np.int64(3)).steps == 3
    assert SceneSpec(square_motion=(np.float32(2.0), 0)).square_origin == (15, 16)


@pytest.mark.parametrize("cls, data", [
    (Grid1, np.array([[1 + 2j]])),
    (Grid2, np.array([[[1.0, 2.0]]], dtype=object)),
    (Grid1, np.array([["1"]])),
    (Grid1, np.array([[b"1"]])),
    (Grid2, np.zeros((1, 1, 2), dtype=np.complex64)),
    (Grid1, [[1.0, None]]),
], ids=("complex", "object", "str", "bytes", "complex64", "list_with_none"))
def test_grid_rejects_non_real_dtype(cls, data):
    _raises_here(lambda: cls(data), f"{cls.__name__} expects real numbers, got dtype ")


def test_grid_accepts_every_real_dtype():
    for dtype in (bool, np.int8, np.uint16, np.int64, np.float32, np.float64):
        grid = Grid1(np.ones((2, 3), dtype=dtype))
        assert grid.data.dtype == np.float64 and grid.data.tolist() == [[1.0] * 3] * 2


def _mask_calls(mask):
    """(argument name, call) for every public function given `mask` in place
    of a BinaryMask argument."""
    flow = Grid2.zeros(2, 3)
    valid = BinaryMask.full(2, 3)
    spec = WeightSpec("db")
    return [
        ("valid", lambda: full_report(flow, flow, mask)),
        ("region", lambda: full_report(flow, flow, valid, region=mask)),
        ("valid", lambda: evaluate_loss(flow, flow, mask, spec)),
        ("valid", lambda: build_weights(spec, flow, flow, mask)),
        ("valid", lambda: weighted_l1(flow, flow, Grid1.full(2, 3, 1.0), mask)),
        ("valid", lambda: confidence_db_flow(flow, flow, mask)),
    ]


@pytest.mark.parametrize("mask", [Grid1.full(2, 3, 1.0), np.ones((2, 3), dtype=bool), None],
                         ids=("Grid1", "ndarray", "None"))
def test_mask_arguments_are_masks(mask):
    for name, call in _mask_calls(mask):
        if mask is None and name == "region":
            continue  # no region is no split
        _raises_here(call, f"{name} must be a BinaryMask, got {type(mask).__name__}")

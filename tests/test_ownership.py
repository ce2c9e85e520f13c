"""Ownership of grid data: every grid a library function returns is read-only,
in its type's one memory layout, and shares no memory with the caller's
arrays or with the input grids (other than an input grid returned as itself)."""

import pickle

import numpy as np
import pytest

from confloss import (
    LEFT_TO_RIGHT,
    MODES,
    BinaryMask,
    CycleParams,
    Grid1,
    Grid2,
    LossResult,
    SceneSpec,
    TrainConfig,
    WeightSpec,
    backward_warp,
    build_weights,
    confidence_db_flow,
    confidence_db_stereo,
    confidence_oa,
    confidence_oa_stereo,
    cycle_terms,
    disparity_to_flow,
    epe_map,
    evaluate_loss,
    hflip,
    magnitude_map,
    occlusion_mask,
    occlusion_mask_stereo,
    reverse_disparity_restore,
    sequence_loss,
    synth_scene,
    train,
    weight_combine,
    weight_db,
    weight_oa,
    weighted_l1,
    weighted_l1_grad,
)
from confloss.fileio import read_flo, read_pfm, read_pgm_mask, write_flo, write_pfm, write_pgm

_rng = np.random.default_rng(12)
H, W = 5, 7
# The caller's arrays; the grids below are built from them.
ARRAYS = {
    "flow": _rng.uniform(-2.0, 2.0, (H, W, 2)),
    "flow_bw": _rng.uniform(-2.0, 2.0, (H, W, 2)),
    "flow_gt": _rng.uniform(-2.0, 2.0, (H, W, 2)),
    "disp": _rng.uniform(0.5, 2.0, (H, W)),
    "disp_bw": _rng.uniform(0.5, 2.0, (H, W)),
    "disp_gt": _rng.uniform(0.5, 2.0, (H, W)),
    "conf": _rng.uniform(0.0, 1.0, (H, W)),
    "valid": _rng.uniform(size=(H, W)) < 0.8,
    "region": _rng.uniform(size=(H, W)) < 0.5,
}
G = {name: (BinaryMask if arr.dtype == bool else Grid2 if arr.ndim == 3 else Grid1)(arr)
     for name, arr in ARRAYS.items()}
FLO, PFM, PGM = write_flo(G["flow"]), write_pfm(G["disp"]), write_pgm(G["valid"])
SPEC = WeightSpec(mode="mask_sum")


def _train_grids():
    scene = synth_scene(SceneSpec(height=16, width=16, square_size=8, square_motion=(2.0, 0.0)))
    report = train(scene, TrainConfig(steps=2, block_size=4, snapshot_every=1,
                                      loss_spec=SPEC))
    return report.final_forward, report.final_backward, report.snapshots


CALLS = {
    "grid2_constructor": lambda: Grid2(ARRAYS["flow"]),
    "grid2_zeros": lambda: Grid2.zeros(H, W),
    "grid2_constant": lambda: Grid2.constant(H, W, 1.0, -2.0),
    "grid2_unpickled": lambda: pickle.loads(pickle.dumps(G["flow"])),
    "grid1_unpickled": lambda: pickle.loads(pickle.dumps(G["disp"])),
    "train_predictions": _train_grids,
    "backward_warp_grid2": lambda: backward_warp(G["flow_bw"], G["flow"]),
    "backward_warp_grid1": lambda: backward_warp(G["disp"], G["flow"]),
    "hflip_grid2": lambda: hflip(G["flow"]),
    "hflip_grid1": lambda: hflip(G["disp"]),
    "hflip_mask": lambda: hflip(G["valid"]),
    "reverse_disparity_restore": lambda: reverse_disparity_restore(G["disp"]),
    "disparity_to_flow": lambda: disparity_to_flow(G["disp"], LEFT_TO_RIGHT),
    "mask_invert": lambda: ~G["valid"],
    "mask_and": lambda: G["valid"] & G["region"],
    "confidence_db_flow": lambda: confidence_db_flow(G["flow"], G["flow_gt"], G["valid"]),
    "confidence_db_stereo": lambda: confidence_db_stereo(G["disp"], G["disp_gt"], G["valid"]),
    "cycle_terms_flow": lambda: cycle_terms(G["flow"], G["flow_bw"]),
    "cycle_terms_stereo": lambda: cycle_terms(G["disp"], G["disp_bw"], CycleParams()),
    "confidence_oa": lambda: confidence_oa(G["flow"], G["flow_bw"]),
    "confidence_oa_stereo": lambda: confidence_oa_stereo(G["disp"], G["disp_bw"]),
    "occlusion_mask": lambda: occlusion_mask(G["flow"], G["flow_bw"]),
    "occlusion_mask_stereo": lambda: occlusion_mask_stereo(G["disp"], G["disp_bw"]),
    "weight_db": lambda: weight_db(G["conf"], 2.0, 0.5),
    "weight_oa": lambda: weight_oa(G["conf"], 2.0, 1.0),
    "weight_combine": lambda: weight_combine(G["conf"], G["conf"], G["region"], SPEC),
    "weighted_l1_flow": lambda: weighted_l1(G["flow"], G["flow_gt"], G["conf"], G["valid"]),
    "weighted_l1_stereo": lambda: weighted_l1(G["disp"], G["disp_gt"], G["conf"], G["valid"]),
    "weighted_l1_grad_flow": lambda: weighted_l1_grad(G["flow"], G["flow_gt"], G["conf"],
                                                      G["valid"]),
    "weighted_l1_grad_stereo": lambda: weighted_l1_grad(G["disp"], G["disp_gt"], G["conf"],
                                                        G["valid"]),
    **{f"build_weights_{mode}": (lambda mode=mode: build_weights(
        WeightSpec(mode=mode), G["flow"], G["flow_gt"], G["valid"], G["flow_bw"]))
       for mode in MODES},
    "build_weights_stereo": lambda: build_weights(
        WeightSpec.stereo_defaults(mode="mask_sum"), G["disp"], G["disp_gt"], G["valid"],
        G["disp_bw"]),
    "evaluate_loss": lambda: evaluate_loss(G["flow"], G["flow_gt"], G["valid"], SPEC,
                                           G["flow_bw"]),
    **{f"evaluate_loss_{mode}_{task}": (lambda mode=mode, task=task: evaluate_loss(
        *((G["flow"], G["flow_gt"]) if task == "flow" else (G["disp"], G["disp_gt"])),
        G["valid"], (WeightSpec if task == "flow" else WeightSpec.stereo_defaults)(mode),
        G["flow_bw"] if task == "flow" else G["disp_bw"]))
       for mode in MODES for task in ("flow", "stereo")},
    "sequence_loss": lambda: sequence_loss([G["flow"], G["flow_gt"]], G["flow_gt"],
                                           G["valid"], SPEC,
                                           backwards=[G["flow_bw"], G["flow_bw"]]),
    "epe_map_flow": lambda: epe_map(G["flow"], G["flow_gt"]),
    "epe_map_stereo": lambda: epe_map(G["disp"], G["disp_gt"]),
    "magnitude_map_flow": lambda: magnitude_map(G["flow_gt"]),
    "magnitude_map_stereo": lambda: magnitude_map(G["disp_gt"]),
    "read_flo": lambda: read_flo(FLO),
    "read_pfm": lambda: read_pfm(PFM),
    "read_pgm_mask": lambda: read_pgm_mask(PGM),
}


def _grids(result):
    """Every grid in a result: a grid, a LossResult, or tuples/lists of them."""
    if isinstance(result, (Grid1, Grid2, BinaryMask)):
        yield result
    elif isinstance(result, LossResult):
        yield from (result.weight_map, result.loss_map)
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _grids(item)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_result_is_read_only_and_unshared(name):
    grids = list(_grids(CALLS[name]()))
    assert grids
    caller = [*ARRAYS.values()] + [np.frombuffer(b, dtype=np.uint8) for b in (FLO, PFM, PGM)]
    for g in grids:
        layout = np.moveaxis(g.data, -1, 0) if isinstance(g, Grid2) else g.data
        assert not g.data.flags.writeable and layout.flags.c_contiguous
        if g.data.dtype.kind == "f":
            assert np.isfinite(g.data).all()
        assert not any(np.shares_memory(g.data, arr) for arr in caller)
        assert not any(np.shares_memory(g.data, inp.data) for inp in G.values()
                       if g is not inp)

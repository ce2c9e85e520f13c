"""Confidence-weighted training losses for dense correspondence.

Error-based and cycle-consistency confidence maps, the weighted L1 losses
built from them (with analytic gradients), occlusion masking, the stereo
reverse-disparity transform, evaluation metrics, file formats, and a seeded
toy trainer.
"""

from .confidence import (
    CycleParams,
    confidence_db_flow,
    confidence_db_stereo,
    confidence_oa,
    confidence_oa_stereo,
    cycle_terms,
    occlusion_mask,
    occlusion_mask_stereo,
)
from .fields import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    BinaryMask,
    ConfidenceMap,
    Grid1,
    Grid2,
    backward_warp,
    bilinear_sample,
    disparity_to_flow,
    hflip,
    reverse_disparity_restore,
)
from .losses import (
    COMBINATION_MODES,
    MODES,
    LossResult,
    SequenceParams,
    WeightSpec,
    build_weights,
    evaluate_loss,
    sequence_loss,
    weight_combine,
    weight_db,
    weight_oa,
    weighted_l1,
)
from .metrics import MetricReport, epe_map, full_report, magnitude_map
from .toytrain import (
    BlockFlowModel,
    Scene,
    SceneSpec,
    TrainConfig,
    TrainReport,
    TrainingDivergedError,
    compare_runs,
    synth_scene,
    train,
)

__version__ = "0.1.0"

"""Command-line front end.

Subcommands map one-to-one onto the library: confidence maps, occlusion
masks, loss evaluation, metric reports, the reverse-disparity restore, and
the toy training comparison. Flow fields interchange as .flo, scalar maps
as PFM, visualizations and masks as PGM.

Exit codes: 0 success, 1 data error (unreadable or inconsistent inputs),
2 usage error. Each error or warning is one "confloss: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from collections import defaultdict
from dataclasses import fields, replace
from pathlib import Path

from . import fileio
from .confidence import (
    CycleParams,
    confidence_db_flow,
    confidence_db_stereo,
    confidence_oa,
    occlusion_mask,
)
from .fields import check_same_shape, reverse_disparity_restore
from .losses import MODES, PLAIN_L1, SequenceParams, WeightSpec, sequence_loss
from .metrics import full_report
from .toytrain import SceneSpec, TrainConfig, TrainingDivergedError, compare_runs, synth_scene

FLOW, STEREO = "flow", "stereo"
_TASK_SPECS = {FLOW: WeightSpec, STEREO: WeightSpec.stereo_defaults}
_WEIGHT_PARAMS = ("alpha1", "beta1", "alpha2", "beta2")


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _load(path: str, parse):
    """Return parse(bytes of `path`); a read or format error names the file."""
    try:
        return parse(Path(path).read_bytes())
    except (OSError, fileio.FormatError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _load_fields(task: str, *paths: str, masks=()):
    """Read fields (.flo for flow, PFM for stereo), then the PGM `masks` (None:
    not given), and check all shapes together. Returns the fields followed by
    the masks, and each field's validity mask."""
    # Looked up per call: the benchmark's tracer rebinds the module attribute.
    read = fileio.read_flo if task == FLOW else fileio.read_pfm
    grids, valids = zip(*(_load(path, read) for path in paths))
    grids += tuple(_load(path, fileio.read_pgm_mask) if path else None for path in masks)
    _check_shapes(*((path, g) for path, g in zip(paths + tuple(masks), grids) if path))
    return grids, valids


def _check_shapes(*named):
    grids = [g for _, g in named]
    try:
        return check_same_shape(*grids)
    except ValueError as exc:
        dims = ", ".join(f"{name}: {g.height}x{g.width}" for name, g in named)
        raise DataError(f"input dimensions disagree ({dims})") from exc


def _require_known(paths, valids, needs="the cycle check needs every sample") -> None:
    """Raise DataError naming the first of the fields with unknown samples.
    The cycle check takes no validity masks yet: it would read them as zeros."""
    for path, valid in zip(paths, valids):
        unknown = valid.data.size - valid.count()
        if unknown:
            raise DataError(f"{path}: {unknown} unknown samples; {needs}")


def _resolve_weight_spec(args) -> WeightSpec:
    given = {k: getattr(args, k) for k in _WEIGHT_PARAMS if getattr(args, k) is not None}
    return _TASK_SPECS[args.task](getattr(args, "mode", PLAIN_L1),
                                  cycle=CycleParams(args.gamma1, args.gamma2), **given)


def _path(text: str) -> str:
    """argparse type of every path option: an empty path is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got an empty string")
    return text


def _add_common_params(p: argparse.ArgumentParser):
    p.add_argument("--task", choices=(FLOW, STEREO), default=FLOW)
    for name, term, what in zip(_WEIGHT_PARAMS, ("error", "error", "cycle", "cycle"),
                                ("scale", "exponent") * 2):
        p.add_argument(f"--{name}", type=float, default=None,
                       help=f"{term}-term weight {what} (default per task)")
    p.add_argument("--gamma1", type=float, default=CycleParams.gamma1)
    p.add_argument("--gamma2", type=float, default=CycleParams.gamma2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confloss",
        description="Confidence-weighted correspondence losses, metrics, and toy training.")
    parser.add_argument("--show-defaults", action="store_true",
                        help="print all hyperparameter defaults and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("confmap", help="write a confidence map (PFM + PGM)")
    p.add_argument("--mode", choices=("db", "oa"), required=True)
    p.add_argument("--pred", type=_path, help="prediction file (db mode)")
    p.add_argument("--gt", type=_path, help="ground-truth file (db mode)")
    p.add_argument("--forward", type=_path, help="forward field (oa mode)")
    p.add_argument("--backward", type=_path, help="backward field (oa mode)")
    p.add_argument("--out-pfm", type=_path)
    p.add_argument("--out-pgm", type=_path)
    _add_common_params(p)

    p = sub.add_parser("occmask", help="write the cycle-consistency mask (PGM)")
    p.add_argument("--forward", type=_path, required=True)
    p.add_argument("--backward", type=_path, required=True)
    p.add_argument("--out-pgm", type=_path, required=True)
    _add_common_params(p)

    p = sub.add_parser("loss", help="evaluate a weighted loss (prints the scalar)")
    p.add_argument("--pred", type=_path, action="append", required=True,
                   help="prediction file; repeat for a refinement sequence")
    p.add_argument("--gt", type=_path, required=True)
    p.add_argument("--backward", type=_path, action="append", default=None,
                   help="backward field per prediction (cycle-based modes only)")
    p.add_argument("--mode", choices=MODES, default=PLAIN_L1)
    p.add_argument("--gamma-seq", type=float, default=SequenceParams.gamma_seq)
    p.add_argument("--out-loss-map", type=_path,
                   help="per-pixel loss of the last iteration (PFM)")
    p.add_argument("--out-weight-map", type=_path,
                   help="weight map of the last iteration (PFM)")
    _add_common_params(p)

    p = sub.add_parser("eval", help="write the metric report CSV")
    p.add_argument("--pred", type=_path, required=True)
    p.add_argument("--gt", type=_path, required=True)
    p.add_argument("--valid", type=_path, help="extra validity mask (PGM)")
    p.add_argument("--region", type=_path, help="matched-region mask (PGM)")
    p.add_argument("--task", choices=(FLOW, STEREO), default=FLOW)
    p.add_argument("--out", type=_path, help="output CSV path (default stdout)")

    p = sub.add_parser("reverse-disparity",
                       help="flip and negate a flipped-pair disparity estimate",
                       description="Write -flip(input). The input is the flipped pair's "
                                   "estimate as flow-x, which is negative; a matcher that outputs"
                                   " positive disparity passes its flipped estimate negated.")
    p.add_argument("--input", type=_path, required=True)
    p.add_argument("--output", type=_path, required=True)

    p = sub.add_parser("toytrain", help="run the loss-mode comparison at toy scale")
    p.add_argument("--config", type=_path, required=True, help="key = value config file")
    p.add_argument("--out-dir", type=_path, required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main()'s parser, built on the first call; parse_args keeps no state in it."""
    return build_parser()


def _show_defaults() -> None:
    print("task defaults (alpha1 beta1 alpha2 beta2):")
    for task, defaults in _TASK_SPECS.items():
        spec = defaults()
        print(f"  {task:6s}", *(getattr(spec, k) for k in _WEIGHT_PARAMS))
    for name, owner in (("gamma1", CycleParams), ("gamma2", CycleParams),
                        ("gamma_seq", SequenceParams)):
        print(name, getattr(owner, name))
    print(f"toytrain: steps {TrainConfig.steps}, learning_rate {TrainConfig.learning_rate}, "
          f"block_size {TrainConfig.block_size}, "
          f"recompute_confidence_every {TrainConfig.recompute_confidence_every}")


def _write_outputs(*outputs) -> None:
    """Encode each (path, encode, value) whose path is given, then write them
    in order: an encoding error writes no file, a failed write the ones before."""
    encoded = [(path, encode(value)) for path, encode, value in outputs if path]
    for path, data in encoded:
        Path(path).write_bytes(data)


def cmd_confmap(args) -> int:
    if not args.out_pfm and not args.out_pgm:
        raise UsageError("confmap: nothing to do, pass --out-pfm and/or --out-pgm")
    for name in ("forward", "backward") if args.mode == "db" else ("pred", "gt"):
        if getattr(args, name):
            raise UsageError(f"confmap --mode {args.mode} takes no --{name}")
    spec = _resolve_weight_spec(args)
    if args.mode == "db":
        if not args.pred or not args.gt:
            raise UsageError("confmap --mode db needs --pred and --gt")
        (pred, gt), (pv, gv) = _load_fields(args.task, args.pred, args.gt)
        valid = pv & gv
        if args.task == FLOW:
            conf = confidence_db_flow(pred, gt, valid)
        else:
            conf = confidence_db_stereo(pred, gt, valid)
    else:
        if not args.forward or not args.backward:
            raise UsageError("confmap --mode oa needs --forward and --backward")
        (fw, bw), valids = _load_fields(args.task, args.forward, args.backward)
        _require_known((args.forward, args.backward), valids)
        conf = confidence_oa(fw, bw, spec.cycle)
    _write_outputs((args.out_pfm, fileio.write_pfm, conf),
                   (args.out_pgm, fileio.write_pgm, conf))
    return 0


def cmd_occmask(args) -> int:
    spec = _resolve_weight_spec(args)
    (fw, bw), valids = _load_fields(args.task, args.forward, args.backward)
    _require_known((args.forward, args.backward), valids)
    mask = occlusion_mask(fw, bw, spec.cycle)
    Path(args.out_pgm).write_bytes(fileio.write_pgm(mask))
    return 0


def cmd_loss(args) -> int:
    spec = _resolve_weight_spec(args)
    n = len(args.pred)
    if spec.needs_backward and len(args.backward or ()) != n:
        raise UsageError(f"mode {spec.mode!r} needs one --backward per --pred")
    if not spec.needs_backward and args.backward:
        raise UsageError(f"mode {spec.mode!r} takes no --backward")
    (gt, *grids), (valid, *valids) = _load_fields(
        args.task, args.gt, *args.pred, *(args.backward or ()))
    for pv in valids[:n]:
        valid = valid & pv
    _require_known(args.backward or (), valids[n:])
    backwards = grids[n:] if spec.needs_backward else None
    total, per_iter = sequence_loss(grids[:n], gt, valid, spec,
                                    SequenceParams(args.gamma_seq), backwards)
    last = per_iter[-1]
    _write_outputs((args.out_loss_map, fileio.write_pfm, last.loss_map),
                   (args.out_weight_map, fileio.write_pfm, last.weight_map))
    print(f"{total:.6f}")
    return 0


def cmd_eval(args) -> int:
    (pred, gt, extra, region), (pv, gv) = _load_fields(
        args.task, args.pred, args.gt, masks=(args.valid, args.region))
    valid = pv & gv if extra is None else pv & gv & extra
    report = full_report(pred, gt, valid, region=region)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fileio.write_metrics_csv(report, fh)
    else:
        fileio.write_metrics_csv(report, sys.stdout)
    return 0


def cmd_reverse_disparity(args) -> int:
    (grid,), valids = _load_fields(STEREO, args.input)
    _require_known((args.input,), valids, "reverse-disparity needs every disparity")
    Path(args.output).write_bytes(fileio.write_pfm(reverse_disparity_restore(grid)))
    return 0


# ---------------------------------------------------------------------------
# toytrain config files: UTF-8 lines of "key = value", "#" comments.

def _vec2(text: str) -> tuple[float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers")
    return parts[0], parts[1]


# key -> (parser, owner, field). Each int, float or 2-tuple field of SceneSpec,
# TrainConfig, WeightSpec and CycleParams but the scene seed is the key of its
# name (noise_sigma: occluded_label_noise_sigma), parsed after its default. The
# keys without an owner are the lists of scene seeds and loss modes. Absent
# keys keep the library's defaults.
_PARSERS = {int: int, float: float, tuple: _vec2}
_LISTS = {"seeds": lambda text: tuple(int(v) for v in text.split(",")),
          "modes": lambda text: tuple(v.strip() for v in text.split(","))}
_TOY_KEYS = {
    {"occluded_label_noise_sigma": "noise_sigma"}.get(f.name, f.name):
        (_PARSERS[type(f.default)], owner, f.name)
    for owner in (SceneSpec, TrainConfig, WeightSpec, CycleParams) for f in fields(owner)
    if type(f.default) in _PARSERS and f.name != "seed"
}
_TOY_KEYS.update((key, (parse, None, key)) for key, parse in _LISTS.items())


def parse_toy_config(text: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _TOY_KEYS:
            raise DataError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise DataError(f"config line {lineno}: key {key!r} is repeated")
        try:
            values[key] = _TOY_KEYS[key][0](value)
        except ValueError as exc:
            raise DataError(f"config line {lineno}: bad value for {key!r}: {exc}") from exc
        if key in _LISTS:
            for v in values[key]:
                if values[key].count(v) > 1:
                    raise DataError(f"config line {lineno}: {v!r} is repeated in {key!r}")
    return values


def cmd_toytrain(args) -> int:
    cfg = parse_toy_config(_load(args.config, bytes.decode))
    given = defaultdict(dict)  # owner -> {field: value}
    for key, value in cfg.items():
        _, owner, name = _TOY_KEYS[key]
        given[owner][name] = value

    scene_spec = SceneSpec(**given[SceneSpec])
    modes = cfg.get("modes", ("plain_l1", "db", "oa", "multiplication"))
    cycle = CycleParams(**given[CycleParams])
    specs = [WeightSpec(mode, cycle=cycle, **given[WeightSpec]) for mode in modes]
    config = TrainConfig(**given[TrainConfig])
    scenes = [synth_scene(replace(scene_spec, seed=s))
              for s in cfg.get("seeds", (scene_spec.seed,))]
    rows = compare_runs(config, specs, scenes)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "comparison.csv", "w", newline="") as fh:
        fileio.write_comparison_csv(rows, fh)
    for row in rows:
        for scene, report in zip(scenes, row.per_seed):
            seed = scene.spec.seed
            with open(out_dir / f"report_{row.mode}_seed{seed}.csv", "w", newline="") as fh:
                fileio.write_metrics_csv(report.report, fh)
            for step, m_db, m_oa in report.snapshots:
                base = f"{row.mode}_seed{seed}_step{step}"
                (out_dir / f"mdb_{base}.pgm").write_bytes(fileio.write_pgm(m_db))
                (out_dir / f"moa_{base}.pgm").write_bytes(fileio.write_pgm(m_oa))
    print(f"wrote {out_dir / 'comparison.csv'}")
    return 0


_COMMANDS = {
    "confmap": cmd_confmap,
    "occmask": cmd_occmask,
    "loss": cmd_loss,
    "eval": cmd_eval,
    "reverse-disparity": cmd_reverse_disparity,
    "toytrain": cmd_toytrain,
}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.show_defaults:
        _show_defaults()
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("confloss: error: a subcommand is required", file=sys.stderr)
        return 2
    # The filters in force decide which warnings show; each shows as one line.
    with warnings.catch_warnings(record=True) as caught:
        try:
            code, error = _COMMANDS[args.command](args), None
        except UsageError as exc:
            code, error = 2, exc
        except (DataError, ValueError, OSError, TrainingDivergedError) as exc:
            code, error = 1, exc
    for w in caught:
        print(f"confloss: warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"confloss: error: {error}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

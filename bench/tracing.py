"""Per-layer spans recorded from outside the library.

Timing wrappers go around the library's public functions at every binding
site (the defining module and each ``confloss`` module that imported the
name), and on the class for ``BlockFlowModel`` methods and the grids'
``__post_init__``. Each span keeps its layer name, start, end, parent span and
op id in memory; self time and counts are derived when the run ends.

A layer's self time is its span's duration minus its child spans. The root of
every op's span tree is ``cli.main``, so the self times of all layers add up
to the time spent inside ``cli.main``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# Weight modes whose weight map runs the cycle check (they need M_oa or H).
CYCLE_MODES = ("oa", "sum", "multiplication", "masking", "mask_sum")


def _n(a) -> int:
    return int(np.size(a))


def _grid_px(g) -> int:
    return int(np.size(g.data)) // (2 if g.data.ndim == 3 else 1)


# Computed cost per call, from array sizes: (bytes moved, operations, units).
# Bytes count each input read once and each output written once (compulsory
# traffic); operations count elementwise arithmetic and comparisons. Units are
# sampled points for sample_values and file bytes for the codecs.
def _cost_sample_values(args, kwargs, result):
    data, xs = args[0], args[1]
    n, c = _n(xs), (1 if data.ndim == 2 else data.shape[2])
    # coords in (16 B) + 4 gathered corners + values out + in-bounds flag out;
    # ~19 coordinate ops (bounds, clip, floor, +1/min, fractions) + 3 lerps/channel
    return n * (16 + 4 * 8 * c + 8 * c + 1), n * (19 + 13 * c), n


def _cost_cycle_terms(args, kwargs, result):
    n = _grid_px(args[0])
    # reads f_fw and the warped f_bw (2 x 16 B), writes num and den (2 x 8 B);
    # num 5 ops, |.|^2 sums 7 ops, den 2 ops (the warp itself is its own span)
    return n * 48, n * 14, n


def _cost_upsample(args, kwargs, result):
    n = _n(result)
    # 4 gathered coarse corners + 1 write per output element; 3 lerps
    return n * 40, n * 12, n


def _cost_upsample_transpose(args, kwargs, result):
    n = _n(args[1])
    # 1 read per input element + 4 read-modify-writes of the coarse
    # accumulator; 4 weight products (2 muls) + 4 adds
    return n * (8 + 4 * 16), n * 12, n


def _cost_read_flo(args, kwargs, result):
    n = _n(result[0].data)
    # file bytes + float64 field + mask; convert, isfinite, abs, <, and, all, where
    return len(args[0]) + 8 * n + n // 2, 7 * n, len(args[0])


def _cost_write_flo(args, kwargs, result):
    n = _n(args[0].data)
    return 8 * n + len(result), n, len(result)


def _cost_read_pfm(args, kwargs, result):
    n = _n(result[0].data)
    return len(args[0]) + 9 * n, 3 * n, len(args[0])


def _cost_write_pfm(args, kwargs, result):
    n = _n(args[0].data)
    return 8 * n + len(result), n, len(result)


def _cost_write_pgm(args, kwargs, result):
    g = args[0]
    n = _n(g.data)
    scalar = g.data.dtype != np.bool_
    return (8 if scalar else 1) * n + len(result), (8 if scalar else 1) * n, len(result)


def _cost_read_pgm_mask(args, kwargs, result):
    n = _n(result.data)
    return len(args[0]) + n, n, len(args[0])


def _mode_of(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return spec.mode


# layer name -> [(module, attribute)] with "Class.method" for class attributes,
# plus the cost hook and whether to remember the weight mode of each call.
LAYERS = {
    "toytrain.upsample": (["toytrain:BlockFlowModel.upsample"], _cost_upsample),
    "toytrain.upsample_transpose": (["toytrain:BlockFlowModel.upsample_transpose"],
                                    _cost_upsample_transpose),
    "toytrain.train": (["toytrain:train"], None),
    "toytrain.compare_runs": (["toytrain:compare_runs"], None),
    "fields.sample_values": (["fields:sample_values"], _cost_sample_values),
    "fields.backward_warp": (["fields:backward_warp"], None),
    "fields.grid_init": (["fields:Grid1.__post_init__", "fields:Grid2.__post_init__",
                          "fields:BinaryMask.__post_init__"], None),
    "fields.disparity_to_flow": (["fields:disparity_to_flow"], None),
    "fields.reverse_disparity_restore": (["fields:reverse_disparity_restore"], None),
    "confidence.cycle_terms": (["confidence:cycle_terms"], _cost_cycle_terms),
    "confidence.confidence_oa": (["confidence:confidence_oa"], None),
    "confidence.confidence_oa_stereo": (["confidence:confidence_oa_stereo"], None),
    "confidence.occlusion_mask": (["confidence:occlusion_mask"], None),
    "confidence.occlusion_mask_stereo": (["confidence:occlusion_mask_stereo"], None),
    "confidence.confidence_db": (["confidence:confidence_db_flow",
                                  "confidence:confidence_db_stereo"], None),
    "losses.build_weights": (["losses:build_weights"], None),
    "losses.weight_assembly": (["losses:weight_db", "losses:weight_oa",
                                "losses:weight_combine"], None),
    "losses.weighted_l1": (["losses:weighted_l1"], None),
    "losses.sequence_loss": (["losses:sequence_loss"], None),
    "metrics.full_report": (["metrics:full_report"], None),
    "fileio.read_flo": (["fileio:read_flo"], _cost_read_flo),
    "fileio.write_flo": (["fileio:write_flo"], _cost_write_flo),
    "fileio.read_pfm": (["fileio:read_pfm"], _cost_read_pfm),
    "fileio.write_pfm": (["fileio:write_pfm"], _cost_write_pfm),
    "fileio.write_pgm": (["fileio:write_pgm"], _cost_write_pgm),
    "fileio.read_pgm_mask": (["fileio:read_pgm_mask"], _cost_read_pgm_mask),
    "cli.main": (["cli:main"], None),
}
CALLS_AND_SELF = [name for name in LAYERS
                  if name not in ("toytrain.train", "toytrain.compare_runs", "cli.main")]
CODECS = [name for name in LAYERS if name.startswith("fileio.")]
KERNELS = ["fields.sample_values", "confidence.cycle_terms", "toytrain.upsample",
           "toytrain.upsample_transpose"]


class Tracer:
    """Spans in parallel lists; one tracer per run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.modes: dict[int, str] = {}  # span index -> weight mode (build_weights)
        self.cost: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # [bytes, ops, units]
        self.stack: list[int] = []
        self.op_id = -1
        self.patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, cost=None, tag_mode=False):
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self.stack)
        totals = self.cost[name] if cost else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if totals is not None:
                for j, amount in enumerate(cost(args, kwargs, result)):
                    totals[j] += amount
            if tag_mode:
                self.modes[i] = _mode_of(args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer at every binding site in the loaded confloss modules."""
        modules = [m for k, m in sys.modules.items()
                   if (k == "confloss" or k.startswith("confloss.")) and m is not None]
        for name, (targets, cost) in LAYERS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                module = sys.modules[f"confloss.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self.patches.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(name, orig, cost))
                    continue
                orig = getattr(module, attr)
                traced = self.wrap(name, orig, cost, tag_mode=(name == "losses.build_weights"))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self.patches.append((mod, key, orig))
                            setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()

    def write(self, path) -> None:
        """One JSON object per span: name, start and end (s), parent index, op id."""
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op"), row))))
                fh.write("\n")

    # -- derivation ---------------------------------------------------------

    def layer_metrics(self, n_ops: int, op_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics over all recorded spans.

        n_ops traced ops took op_seconds in total (timed by the harness).
        """
        n = len(self.names)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_s = dur - child

        calls: dict[str, int] = defaultdict(int)
        self_total: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_total[name] += self_s[i]

        # Ancestor weight map (build_weights span) of each span, if any.
        def weight_map_of(i):
            p = self.parents[i]
            while p >= 0:
                if p in self.modes:
                    return p
                p = self.parents[p]
            return -1

        cycle_nested = unused_moa = 0
        for i, name in enumerate(self.names):
            if name == "confidence.cycle_terms":
                wm = weight_map_of(i)
                if wm >= 0 and self.modes[wm] in CYCLE_MODES:
                    cycle_nested += 1
            elif name == "confidence.confidence_oa":
                wm = weight_map_of(i)
                if wm >= 0 and self.modes[wm] == "masking":
                    unused_moa += 1
        cycle_maps = sum(1 for m in self.modes.values() if m in CYCLE_MODES)

        k = max(n_ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = (calls[name] / k, "count")
            out[f"{name}.self_ms"] = (self_total[name] * 1e3 / k, "ms")
        for name in ("toytrain.train", "toytrain.compare_runs", "cli.main"):
            out[f"{name}.self_ms"] = (self_total[name] * 1e3 / k, "ms")

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        out["fields.sample_values.mpix_per_s"] = (
            rate(self.cost["fields.sample_values"][2] / 1e6,
                 self_total["fields.sample_values"]), "Mpix/s")
        for name in CODECS:
            out[f"{name}.mb_per_s"] = (rate(self.cost[name][2] / 1e6, self_total[name]), "MB/s")
        for name in KERNELS + CODECS:
            nbytes, nops, _ = self.cost[name]
            out[f"{name}.computed_mb"] = (nbytes / 1e6 / k, "MB")
            out[f"{name}.computed_mops"] = (nops / 1e6 / k, "Mop")
        for name in KERNELS:
            out[f"{name}.computed_gb_per_s"] = (
                rate(self.cost[name][0] / 1e9, self_total[name]), "GB/s")

        out["confidence.cycle_terms_per_weight_map"] = (
            cycle_nested / cycle_maps if cycle_maps else 0.0, "ratio")
        out["losses.unused_moa_maps"] = (unused_moa / k, "count")
        self_sum = float(self_s.sum())
        out["trace.layer_self_sum_ms"] = (self_sum * 1e3 / k, "ms")
        out["trace.op_ms"] = (op_seconds * 1e3 / k, "ms")
        out["trace.coverage"] = (self_sum / op_seconds if op_seconds else 0.0, "ratio")
        out["trace.spans_per_op"] = (n / k, "count")
        return out

"""Input encoders, output decoders and per-pixel oracle helpers.

The benchmark writes its inputs and reads the program's outputs with its own
codecs, so that a change to the library's codecs cannot hide from the output
checks. Reference values come from the pure-Python oracles in
``tests/oracles.py``, evaluated at single pixels.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import struct
from pathlib import Path

import numpy as np

FLO_SENTINEL = 1e9  # .flo components at or beyond this magnitude mark unknown flow

# Hyperparameters passed explicitly on every command line, so the inputs the
# program receives never depend on its own defaults.
FLOW_PARAMS = {"alpha1": 2.0, "beta1": 0.5, "alpha2": 2.0, "beta2": 1.0,
               "gamma1": 0.01, "gamma2": 0.5}
STEREO_PARAMS = {"alpha1": 2.0, "beta1": 1.0, "alpha2": 1.0, "beta2": 1.0,
                 "gamma1": 0.01, "gamma2": 0.5}

# float32 outputs: one float32 ulp of relative slack (the float64 reference may
# sit on the other side of a rounding boundary) plus an absolute floor for
# values that underflow to float32 zero or subnormals.
F32_RTOL = 2.0 ** -22
F32_ATOL = 1e-37
CSV_TOL = 5.1e-5  # the metrics CSV prints 4 decimals


def cli_params(params: dict) -> list[str]:
    out = []
    for key, value in params.items():
        out += [f"--{key}", repr(value)]
    return out


def encode_flo(arr: np.ndarray) -> bytes:
    """(H, W, 2) array as a Middlebury .flo byte string."""
    h, w = arr.shape[:2]
    return b"PIEH" + struct.pack("<ii", w, h) + np.ascontiguousarray(arr, "<f4").tobytes()


def encode_pfm(arr: np.ndarray) -> bytes:
    """(H, W) array as a little-endian scalar PFM (rows stored bottom-up)."""
    h, w = arr.shape
    return b"Pf\n%d %d\n-1.0\n" % (w, h) + np.ascontiguousarray(arr[::-1], "<f4").tobytes()


def _header(data: bytes, count: int):
    tokens, pos, n = [], 0, len(data)
    while len(tokens) < count:
        while pos < n and data[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < n and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated header")
        tokens.append(data[start:pos])
    return tokens, pos + 1


def decode_pfm(data: bytes) -> np.ndarray:
    (kind, w, h, scale), pos = _header(data, 4)
    if kind != b"Pf":
        raise ValueError(f"not a scalar PFM: {kind!r}")
    w, h = int(w), int(h)
    dtype = ("<" if float(scale) < 0 else ">") + "f4"
    arr = np.frombuffer(data, dtype, w * h, pos).reshape(h, w)
    return arr[::-1].astype(np.float64)


def decode_pgm(data: bytes) -> np.ndarray:
    (kind, w, h, _maxval), pos = _header(data, 4)
    if kind != b"P5":
        raise ValueError(f"not a binary PGM: {kind!r}")
    w, h = int(w), int(h)
    return np.frombuffer(data, np.uint8, w * h, pos).reshape(h, w)


def load_oracles(root: Path):
    """Import tests/oracles.py from the checkout without touching sys.path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def f32_close(value: float, ref: float) -> bool:
    return abs(value - ref) <= F32_ATOL + F32_RTOL * abs(ref)


def cycle_at(oracles, fw: np.ndarray, bw: np.ndarray, y: int, x: int,
             gamma1: float, gamma2: float):
    """(numerator, denominator, target_in_bounds) of the forward-backward check
    at one pixel, written as in oracles.cycle_check but for a single pixel."""
    u, v = float(fw[y, x, 0]), float(fw[y, x, 1])
    (bu, bv), ok = oracles.bilinear(bw, x + u, y + v)
    num = (u + bu) ** 2 + (v + bv) ** 2
    den = gamma1 * (u * u + v * v + bu * bu + bv * bv) + gamma2
    return num, den, ok


def weights_at(oracles, mode: str, params: dict, pred, gt, valid: bool,
               fw: np.ndarray, bw: np.ndarray, y: int, x: int, stereo: bool):
    """Oracle (m_db, m_oa, hard, weight) at one pixel.

    pred/gt are the pixel's values (2-tuples for flow, floats for stereo);
    fw/bw are the embedded (H, W, 2) forward and backward fields.
    """
    if stereo:
        m_db = oracles.confidence_db_stereo([[pred]], [[gt]], [[valid]])[0][0]
    else:
        m_db = oracles.confidence_db_flow([[pred]], [[gt]], [[valid]])[0][0]
    num, den, ok = cycle_at(oracles, fw, bw, y, x, params["gamma1"], params["gamma2"])
    m_oa = math.exp(-num / den) if ok else 0.0
    hard = ok and num < den
    w = oracles.weight(mode, m_db, m_oa, hard, params["alpha1"], params["beta1"],
                       params["alpha2"], params["beta2"])
    return m_db, m_oa, hard, w


def gray(value: float) -> int:
    """PGM level of a confidence in [0, 1] under the (0, 1) value range."""
    return int(math.floor(min(max(value, 0.0), 1.0) * 255.0 + 0.5))


METRIC_COLUMNS = ("epe", "px1", "px3", "px5", "fl_all", "s0_10", "s10_40", "s40plus",
                  "epe_matched", "epe_unmatched", "avg_err", "bad_0.5", "bad_1",
                  "bad_2", "bad_3", "n_valid", "n_matched", "n_unmatched")


def oracle_report(oracles, pred: np.ndarray, gt: np.ndarray, valid: np.ndarray,
                  region: np.ndarray) -> dict:
    """Every column of the metrics CSV, from the oracles over the whole frame.

    pred/gt are (H, W, 2) flow or (H, W) disparity arrays as the program reads
    them (unknown ground truth already zeroed); valid/region are boolean maps.
    """
    p, g = pred.tolist(), gt.tolist()
    zero = np.zeros_like(gt).tolist()
    e = oracles.epe(p, g)
    mag = oracles.epe(g, zero)
    v = valid.tolist()
    matched = (valid & region).tolist()
    unmatched = (valid & ~region).tolist()
    s0, s1, s2 = oracles.speed_bins(e, mag, v)
    epe = oracles.mean_over(e, v)
    return {
        "epe": epe,
        "px1": oracles.outlier_rate(e, v, 1.0),
        "px3": oracles.outlier_rate(e, v, 3.0),
        "px5": oracles.outlier_rate(e, v, 5.0),
        "fl_all": oracles.fl_all(e, mag, v),
        "s0_10": s0, "s10_40": s1, "s40plus": s2,
        "epe_matched": oracles.mean_over(e, matched),
        "epe_unmatched": oracles.mean_over(e, unmatched),
        "avg_err": epe,
        "bad_0.5": oracles.outlier_rate(e, v, 0.5),
        "bad_1": oracles.outlier_rate(e, v, 1.0),
        "bad_2": oracles.outlier_rate(e, v, 2.0),
        "bad_3": oracles.outlier_rate(e, v, 3.0),
        "n_valid": int(valid.sum()),
        "n_matched": int((valid & region).sum()),
        "n_unmatched": int((valid & ~region).sum()),
    }


def compare_report(csv_text: str, ref: dict) -> list[str]:
    lines = csv_text.strip().splitlines()
    if len(lines) != 2:
        return [f"metrics CSV has {len(lines)} lines, expected 2"]
    header, row = lines[0].split(","), lines[1].split(",")
    if tuple(header) != METRIC_COLUMNS:
        return [f"metrics CSV header {header}"]
    errors = []
    for name, cell in zip(header, row):
        want = ref[name]
        if want is None or cell == "NA":
            if not (want is None and cell == "NA"):
                errors.append(f"eval {name}: got {cell}, oracle {want}")
        elif isinstance(want, int):
            if cell != str(want):
                errors.append(f"eval {name}: got {cell}, oracle {want}")
        elif abs(float(cell) - want) > CSV_TOL:
            errors.append(f"eval {name}: got {cell}, oracle {want:.6f}")
    return errors

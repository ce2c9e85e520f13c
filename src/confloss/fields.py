"""Dense grid types and geometric primitives: bilinear sampling, backward
warping, horizontal flips and the reverse-disparity restore. No other module
of the library calls the public helpers sample_values, backward_warp and
disparity_to_flow; they stay because the benchmark's per-layer tracer
(bench/tracing.py, LAYERS) wraps them by name.

All grids are row-major with (row y, column x) indexing, x horizontal.
Values are immutable after construction, so they are safe to share across
threads.

Validation happens at the boundary. The public constructors (Grid2(...),
Grid1(...), BinaryMask(...) and their zeros/full/constant helpers) copy the
caller's array and reject NaN/Inf, and the file readers zero and mark
invalid the samples they cannot read. The library wraps its own results with
the private _Grid._own, which neither copies nor scans: it is handed only
arrays the library has just allocated, never a caller's array. Finite inputs
give finite results unless a computation overflows, which numpy reports as a
RuntimeWarning, or raises under np.errstate(over="raise") as toytrain.train
runs.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np


def check_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first of obj's fields that holds a NaN or Inf."""
    for name in names:
        value = getattr(obj, name)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True, eq=False)
class _Grid:
    """Shared base of the grid types: an immutable (H, W[, C]) array.

    The public constructor validates and copies (see _store); _own wraps a
    fresh library result as is.
    """

    data: np.ndarray

    @classmethod
    def _own(cls, arr: np.ndarray):
        """Wrap arr without a copy or a check, and make it read-only.

        Only for arrays the library has just allocated, of the subclass's
        dtype and shape, that nobody else holds: never a caller's array, which
        the caller could still write to.
        """
        arr.setflags(write=False)
        grid = object.__new__(cls)
        object.__setattr__(grid, "data", arr)
        return grid

    def _store(self, arr: np.ndarray) -> None:
        """Check arr's dimensions (and finiteness, if float) and keep a read-only copy."""
        name = type(self).__name__
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"{name} dimensions must be positive, got {arr.shape}")
        if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} rejects NaN/Inf entries")
        out = np.ascontiguousarray(arr)
        if out is arr:
            out = arr.copy()
        out.setflags(write=False)
        object.__setattr__(self, "data", out)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[:2]


@dataclass(frozen=True, eq=False)
class Grid2(_Grid):
    """H x W grid of 2-vectors (u, v), in pixels. Stored as (H, W, 2) float64."""

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValueError(f"Grid2 expects shape (H, W, 2), got {arr.shape}")
        self._store(arr)

    @classmethod
    def zeros(cls, height: int, width: int) -> "Grid2":
        return cls(np.zeros((height, width, 2)))

    @classmethod
    def constant(cls, height: int, width: int, u: float, v: float) -> "Grid2":
        out = np.empty((height, width, 2))
        out[..., 0] = u
        out[..., 1] = v
        return cls(out)


@dataclass(frozen=True, eq=False)
class Grid1(_Grid):
    """H x W grid of scalars: disparity (pixels) or a confidence/weight map."""

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"Grid1 expects shape (H, W), got {arr.shape}")
        self._store(arr)

    @classmethod
    def zeros(cls, height: int, width: int) -> "Grid1":
        return cls(np.zeros((height, width)))

    @classmethod
    def full(cls, height: int, width: int, value: float) -> "Grid1":
        return cls(np.full((height, width), float(value)))


# A Grid1 whose entries all lie in [0, 1].
ConfidenceMap = Grid1


@dataclass(frozen=True, eq=False)
class BinaryMask(_Grid):
    """H x W boolean grid (validity masks, occlusion masks)."""

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype != np.bool_:
            raise ValueError(f"BinaryMask expects boolean data, got dtype {arr.dtype}")
        if arr.ndim != 2:
            raise ValueError(f"BinaryMask expects shape (H, W), got {arr.shape}")
        self._store(arr)

    @classmethod
    def full(cls, height: int, width: int, value: bool = True) -> "BinaryMask":
        return cls(np.full((height, width), bool(value), dtype=bool))

    def count(self) -> int:
        return int(self.data.sum())

    def __invert__(self) -> "BinaryMask":
        return BinaryMask._own(~self.data)

    def __and__(self, other: "BinaryMask") -> "BinaryMask":
        check_same_shape(self, other)
        return BinaryMask._own(self.data & other.data)


def check_same_shape(*grids) -> tuple[int, int]:
    shapes = {g.data.shape[:2] for g in grids}
    if len(shapes) != 1:
        raise ValueError(f"dimension mismatch: {sorted(shapes)}")
    return next(iter(shapes))


# Points per chunk of the samplers and pixels per band of the cycle check:
# each chunk's float64 temporaries are 256 KB, small enough to stay in cache
# and be reused by the allocator, where frame-sized ones are page-faulted
# fresh and streamed through DRAM.
_CHUNK = 32768


def _channel_planes(data: np.ndarray) -> np.ndarray:
    """One contiguous 1-D plane per channel of (H, W[, C]) data: `take` on a
    strided view would copy the whole plane on every call."""
    h, w = data.shape[:2]
    return np.ascontiguousarray(data.reshape(h * w, -1).T)


def _bilinear_points(planes: np.ndarray, h: int, w: int, x: np.ndarray, y: np.ndarray):
    """Bilinear kernel of sample_values for one chunk of 1-D coordinates.

    planes are _channel_planes of (H, W[, C]) data. Returns (one array of
    samples per plane, in_bounds), the samples 0 out of bounds.
    """
    # Clamp so indexing stays legal; weights of clamped corners are 0 for
    # in-bounds points and out-of-bounds results are zeroed below. A point
    # is in bounds iff clipping leaves it unchanged, and the clipped
    # coordinates are >= 0, so truncation is the floor.
    xc = np.clip(x, 0.0, w - 1.0)
    yc = np.clip(y, 0.0, h - 1.0)
    ok = xc == x
    ok &= yc == y
    x0 = xc.astype(np.intp)
    y0 = yc.astype(np.intp)
    fx = np.subtract(xc, x0, out=xc)
    fy = np.subtract(yc, y0, out=yc)
    gx = 1.0 - fx
    gy = 1.0 - fy

    # Flat indices of the four corners; the +1 neighbours stop at the
    # last column and row.
    step_x = x0 < w - 1
    i00 = y0 * w
    i00 += x0
    i01 = i00 + step_x
    i10 = w * (y0 < h - 1)
    i10 += i00
    i11 = i10 + step_x
    # (top * gy + bot * fy) with top and bot lerped along x, computed in
    # place: the same operations in the same order, on fewer temporaries.
    off = ~ok
    samples = []
    for plane in planes:
        top = plane.take(i00)
        top *= gx
        t = plane.take(i01)
        t *= fx
        top += t
        bot = plane.take(i10)
        bot *= gx
        t = plane.take(i11)
        t *= fx
        bot += t
        top *= gy
        bot *= fy
        top += bot
        np.copyto(top, 0.0, where=off)
        samples.append(top)
    return samples, ok


def _linear_rows(plane: np.ndarray, w: int, row0: int, xs: np.ndarray):
    """Row kernel of the stereo cycle check: xs (R, W) sampled linearly
    along rows row0 .. row0 + R - 1 of plane, the (H * W,) flattening of
    (H, W) data. Equals sample_values at row coordinates, but for the sign
    of a zero.

    Returns (values, in_bounds), both (R, W), the values 0 out of bounds.
    """
    inb = (xs >= 0.0) & (xs <= w - 1.0)
    # Clipped coordinates are >= 0, so truncation is the floor.
    fx = np.clip(xs, 0.0, w - 1.0)
    i00 = fx.astype(np.intp)
    fx -= i00
    step_x = i00 < w - 1
    i00 += np.arange(row0 * w, (row0 + len(xs)) * w, w)[:, None]
    values = plane.take(i00)
    values *= 1.0 - fx
    i00 += step_x
    right = plane.take(i00)
    right *= fx
    values += right
    np.copyto(values, 0.0, where=~inb)
    return values, inb


def sample_values(data: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Bilinearly sample `data` (H, W[, C]) at float coordinates.

    Returns (values, in_bounds). Out-of-bounds samples are 0 with
    in_bounds False. In-bounds means (x, y) in [0, W-1] x [0, H-1].
    Coordinates must not be NaN: they are not checked, and a NaN cast to a
    gather index raises IndexError.
    The points are processed in fixed-size chunks; the result does not
    depend on the chunking.
    """
    h, w = data.shape[:2]
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        xs, ys = np.broadcast_arrays(xs, ys)
    shape = xs.shape
    xs, ys = xs.reshape(-1), ys.reshape(-1)
    planes = _channel_planes(data)
    values = np.empty((xs.size, len(planes)))
    inb = np.empty(xs.size, dtype=bool)
    for start in range(0, xs.size, _CHUNK):
        end = start + _CHUNK
        samples, ok = _bilinear_points(planes, h, w, xs[start:end], ys[start:end])
        for c, s in enumerate(samples):
            values[start:end, c] = s
        inb[start:end] = ok
    return values.reshape(shape + data.shape[2:]), inb.reshape(shape)


def backward_warp(field: Grid2 | Grid1, flow: Grid2):
    """warped(x) = field(x + flow(x)) with bilinear sampling.

    Returns (warped, validity); validity(x) is False where the target falls
    outside the frame (where the warped value is 0).
    """
    check_same_shape(field, flow)
    h, w = flow.shape
    tx = np.arange(w, dtype=np.float64) + flow.data[..., 0]
    ty = np.arange(h, dtype=np.float64)[:, None] + flow.data[..., 1]
    values, inb = sample_values(field.data, tx, ty)
    return type(field)._own(values), BinaryMask._own(inb)


def hflip(field: Grid2 | Grid1 | BinaryMask):
    """Mirror columns (j -> width-1-j). No sign change on Grid2 components;
    sign handling for reverse disparities lives in reverse_disparity_restore."""
    return type(field)._own(field.data[:, ::-1].copy())


def reverse_disparity_restore(d_flipped_estimate: Grid1) -> Grid1:
    """Undo the swap-and-flip trick: flip columns back and negate.

    output(y, j) = -d_flipped_estimate(y, width-1-j). Applying it twice is
    the identity (bit-exact).
    """
    return Grid1._own(-d_flipped_estimate.data[:, ::-1])


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def warn_negative_disparity(d: Grid1) -> None:
    """RuntimeWarning if d has negative entries, reported at the first caller
    outside this package."""
    if np.any(d.data < 0):
        frame, level = sys._getframe(), 1  # level 1 is this function's frame
        while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            frame, level = frame.f_back, level + 1
        warnings.warn("disparity map contains negative entries", RuntimeWarning,
                      stacklevel=level)


LEFT_TO_RIGHT = "left_to_right"
RIGHT_TO_LEFT = "right_to_left"


def disparity_to_flow(d: Grid1, direction: str) -> Grid2:
    """Embed a rectified disparity map as a 2D flow field.

    Sign convention: positive disparity, left pixel (x, y) matches right
    pixel (x - d, y). left_to_right gives (-d, 0), right_to_left (+d, 0);
    the vertical component is always 0.
    """
    if direction not in (LEFT_TO_RIGHT, RIGHT_TO_LEFT):
        raise ValueError(f"unknown direction {direction!r}")
    warn_negative_disparity(d)
    sign = -1.0 if direction == LEFT_TO_RIGHT else 1.0
    out = np.zeros((d.height, d.width, 2))
    out[..., 0] = sign * d.data
    return Grid2._own(out)

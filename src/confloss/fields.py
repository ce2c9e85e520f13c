"""Dense grid types and geometric primitives: bilinear sampling, backward
warping, horizontal flips and the reverse-disparity restore. No other module
of the library calls the public helpers sample_values, backward_warp and
disparity_to_flow; they stay because the benchmark's per-layer tracer
(bench/tracing.py, LAYERS) wraps them by name.

All grids are row-major with (row y, column x) indexing, x horizontal.
A Grid2 has one memory layout, channel-first: its .data is an (H, W, 2) view
of (2, H, W) memory, so u and v are each one contiguous plane, and every
library function that makes a Grid2 writes that layout (Grid2._empty). Its
.data is therefore not C-contiguous; tobytes() gives the bytes of the
(H, W, 2) array, and an unpickled grid keeps its layout. Grid1 and BinaryMask
data is C-contiguous. Values are immutable after construction, so they are
safe to share across threads.

Validation happens at the boundary. The public constructors (Grid2(...),
Grid1(...), BinaryMask(...) and their zeros/full/constant helpers) copy the
caller's array and reject NaN/Inf and non-real dtypes, the file readers zero
and mark invalid the samples they cannot read, and check_fields checks the
parameter dataclasses' fields against their defaults' types and metadata bounds.
The library wraps its own results with the private _Grid._own, which neither
copies nor scans: it is handed only arrays the library has just allocated,
never a caller's array. Finite inputs give finite results unless a
computation overflows, which numpy reports as a RuntimeWarning, or raises
under np.errstate(over="raise") as toytrain.train runs.
"""

from __future__ import annotations

import numbers
import operator
import os
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

_BOUNDS = {"min": (operator.ge, ">="), "above": (operator.gt, ">"), "max": (operator.le, "<=")}
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
          tuple: (numbers.Real, "a tuple of {} real numbers")}


def check_fields(obj) -> None:
    """Raise ValueError("<field> must be ..., got <value>") unless each int field
    of the dataclass obj holds an integer, each float or tuple field finite real
    numbers (no bools), each field whose default_factory is a class an instance
    of it, and each bound in a field's metadata holds."""
    for f in fields(obj):
        cls, value = f.default_factory, getattr(obj, f.name)
        if isinstance(cls, type) and not isinstance(value, cls):
            raise ValueError(f"{f.name} must be a {cls.__name__}, got {value!r}")
        if type(f.default) not in _KINDS:
            continue
        kind, what = _KINDS[type(f.default)]
        entries, n = (value, len(f.default)) if type(f.default) is tuple else ((value,), 1)
        if not (isinstance(entries, tuple) and len(entries) == n and all(
                isinstance(v, kind) and not isinstance(v, bool) for v in entries)):
            raise ValueError(f"{f.name} must be {what.format(n)}, got {value!r}")
        if not all(-np.inf < v < np.inf for v in entries):
            raise ValueError(f"{f.name} must be finite, got {value}")
        for key, bound in f.metadata.items():
            holds, sign = _BOUNDS[key]
            if not holds(value, bound):
                raise ValueError(f"{f.name} must be {sign} {bound}, got {value}")


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

    def __reduce__(self):
        # Pickled in memory order: the unpickled grid has the same strides, so
        # a reduction over it gives the same bits, and it is read-only.
        axes = np.argsort(self.data.strides, kind="stable")[::-1]
        return _unpickle_grid, (type(self), self.data.transpose(axes), np.argsort(axes).tolist())

    @classmethod
    def _empty(cls, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A fresh array of the given data shape in the type's memory layout."""
        return np.empty(shape, dtype)

    def _store(self, data, channels: tuple[int, ...] = (), dtype=np.float64) -> None:
        """Check that data holds real numbers (bool, int or float; only bool for
        a bool dtype) in an (H, W, *channels) array with H and W positive, cast
        it to dtype, check that it is finite, and keep a read-only copy in the
        type's layout."""
        name, arr = type(self).__name__, np.asarray(data)
        kinds, what = ("b", "boolean data") if dtype is np.bool_ else ("biuf", "real numbers")
        if arr.dtype.kind not in kinds:
            raise ValueError(f"{name} expects {what}, got dtype {arr.dtype}")
        arr = arr.astype(dtype, copy=False)
        if arr.ndim != 2 + len(channels) or arr.shape[2:] != channels:
            expected = ", ".join(("H", "W", *map(str, channels)))
            raise ValueError(f"{name} expects shape ({expected}), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"{name} dimensions must be positive, got {arr.shape}")
        if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} rejects NaN/Inf entries")
        out = self._empty(arr.shape, arr.dtype)
        np.copyto(out, arr)
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


def _unpickle_grid(cls, arr: np.ndarray, axes: list[int]) -> _Grid:
    return cls._own(arr.transpose(axes))


@dataclass(frozen=True, eq=False)
class Grid2(_Grid):
    """H x W grid of 2-vectors (u, v), in pixels: .data is an (H, W, 2)
    float64 view of channel-first (2, H, W) memory."""

    @classmethod
    def _empty(cls, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        return np.moveaxis(np.empty((2, *shape[:2]), dtype), 0, -1)

    def __post_init__(self):
        self._store(self.data, (2,))

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
        self._store(self.data)

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
        self._store(self.data, dtype=np.bool_)

    @classmethod
    def full(cls, height: int, width: int, value: bool = True) -> "BinaryMask":
        return cls(np.full((height, width), bool(value), dtype=bool))

    def count(self) -> int:
        return int(np.count_nonzero(self.data))

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


def check_mask(mask, name: str) -> None:
    if not isinstance(mask, BinaryMask):
        raise ValueError(f"{name} must be a BinaryMask, got {type(mask).__name__}")


def check_pair(a, b, *others, names: str = "pred and gt") -> tuple[int, int]:
    """check_same_shape(a, b, *others) once a and b are of one grid type."""
    if type(a) is not type(b):
        raise ValueError(f"{names} must be the same grid type")
    return check_same_shape(a, b, *others)


# Points per chunk of the samplers and pixels per band of the cycle check:
# each chunk's float64 temporaries are 256 KB, small enough to stay in cache
# and be reused by the allocator, where frame-sized ones are page-faulted
# fresh and streamed through DRAM.
_CHUNK = 32768


def _channel_planes(data: np.ndarray) -> np.ndarray:
    """One contiguous 1-D plane per channel of (H, W[, C]) data: `take` on a
    strided view would copy the whole plane on every call. A view for grid
    data, which is channel-first; only a caller's channel-last array is copied."""
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
    gather index raises IndexError. xs and ys broadcast to the results'
    shape. The result does not depend on the fixed-size chunks of points.
    """
    h, w = data.shape[:2]
    xs, ys = np.broadcast_arrays(np.asarray(xs, np.float64), np.asarray(ys, np.float64))
    x, y = xs.reshape(-1), ys.reshape(-1)
    planes = _channel_planes(data)
    values = np.empty((len(planes), x.size))  # channel-first, as Grid2 stores it
    inb = np.empty(x.size, dtype=bool)
    for start in range(0, x.size, _CHUNK):
        end = start + _CHUNK
        samples, ok = _bilinear_points(planes, h, w, x[start:end], y[start:end])
        for c, s in enumerate(samples):
            values[c, start:end] = s
        inb[start:end] = ok
    values = values.reshape(len(planes), *xs.shape)
    return (np.moveaxis(values, 0, -1) if data.ndim == 3 else values[0]), inb.reshape(xs.shape)


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
    return type(field)._own(field.data[:, ::-1].copy(order="K"))  # keeps the layout


def reverse_disparity_restore(d_flipped_estimate: Grid1) -> Grid1:
    """Undo the swap-and-flip trick: flip columns back and negate.

    output(y, j) = -d_flipped_estimate(y, width-1-j), that is -flip(input).
    The input is the flipped pair's estimate as flow-x, which is negative, so
    the output is the positive right-to-left disparity; a matcher that
    outputs positive disparity passes its flipped estimate negated. Applying
    it twice is the identity (bit-exact).
    """
    return Grid1._own(-d_flipped_estimate.data[:, ::-1])


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def warn_negative_disparity(d: Grid1) -> None:
    """RuntimeWarning if d has negative entries, reported at the first caller
    outside this package."""
    if d.data.min() < 0:
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
    out = Grid2._empty(d.data.shape)
    np.multiply(sign, d.data, out=out[..., 0])
    out[..., 1] = 0.0
    return Grid2._own(out)

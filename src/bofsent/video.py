"""Spatiotemporal interest points from grayscale frame volumes.

Detection approximates second-order Gaussian derivatives over space and time
with box filters evaluated on an integral volume; candidate events are strict
local maxima of the (absolute) 3x3 Hessian determinant across space, time and
a small scale ladder. Each event is described by an upright SURF-style
64-vector computed from a time-averaged patch around the event.

Each box filter is the outer product of three 1-D stencils on the integral
table, one per axis, each reading it at 2 or 4 taps. The filters are applied
one axis at a time: x, then y, both depending on the spatial scale alone and
so shared by every temporal scale, then t. The volume is filtered in slabs of
``_SLAB_ROWS`` output rows, so the working set beside the fields stays a few
slabs however large the frames. ``detect`` has the fields written into one
flat buffer, each padded with a layer of zeros, and compares only the voxels
above the response threshold with their neighbours in space, time and scale,
read at flat offsets.

Points travel as one tuple of (n,) arrays ``(t, y, x, sigma_s, sigma_t,
response)``: int voxel coordinates, then float64 scales and |det H|.
"""
from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .atomic import names_file, read_framed, split_body, write_framed

VOLUME_MAGIC = b"FVL1"
_VOLUME_HEADER = struct.Struct("<4sIIII")

MIXED_TERM_WEIGHT = 0.9  # standard correction for box-approximated mixed derivatives

_DESCRIPTOR_GRID = 20  # samples per axis over the 20*sigma patch
_DESCRIPTOR_SUBREGIONS = 4


@dataclass(frozen=True)
class DetectorConfig:
    """Detection settings: scale ladder, response threshold, output cap."""

    spatial_scales: tuple[float, ...] = (1.2, 2.4, 4.8)
    temporal_scales: tuple[float, ...] = (1.0, 2.0, 4.0)
    threshold: float = 1e-4
    max_points: int = 400

    def __post_init__(self):
        for name in ("spatial_scales", "temporal_scales"):
            scales = getattr(self, name)
            if not scales or not all(math.isfinite(sigma) and sigma > 0.0 for sigma in scales):
                raise ValueError(f"{name} {scales} must be a non-empty ladder of finite positive scales")
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold {self.threshold} must be finite")
        if self.max_points < 1:
            raise ValueError(f"max_points {self.max_points} must be at least 1")


@dataclass(frozen=True, eq=False)
class FrameVolume:
    """T x H x W stack of grayscale frames with intensities in [0, 1]."""

    frames: np.ndarray
    frame_rate: float

    def __post_init__(self):
        arr = np.asarray(self.frames, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError("frames must be a 3-D (T, H, W) array")
        t, h, w = arr.shape
        if t < 3 or h < 16 or w < 16:
            raise ValueError(f"volume {arr.shape} below minimum filter support (3, 16, 16)")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both
            raise ValueError("intensities must be finite and lie in [0, 1]")
        object.__setattr__(self, "frames", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.frames.shape


def build_integral(volume: FrameVolume) -> np.ndarray:
    """Zero-padded (T+1, H+1, W+1) cumulative sums, for O(1) axis-aligned box sums."""
    t, h, w = volume.shape
    table = np.zeros((t + 1, h + 1, w + 1), dtype=np.float64)
    table[1:, 1:, 1:] = volume.frames.cumsum(axis=0).cumsum(axis=1).cumsum(axis=2)
    return table


# Each of the six filters is a sum of weighted boxes that factors into one
# 1-D stencil per axis, applied to the integral table. A stencil is a tuple of
# ``(plus, minus, weight)`` tap pairs: the sum over pairs of weight *
# (table[c + plus] - table[c + minus]) along the axis, for centre voxel c.
# ``support`` is the extent the stencil covers; the product of the three
# supports normalizes the filter's response.
#
# Box of odd extent e, half = (e - 1) // 2:      taps {-half: -1, half+1: +1}
# Second derivative, lobes of l weighted 1, -2, 1 over reach r = (3l - 1) // 2:
#                                                taps {-r: -1, -r+l: +3, -r+2l: -3, r+1: +1}
# Mixed derivative, a lobe of l either side of a one-voxel gap at the centre,
# weighted -1 before and +1 after:               taps {-l: +1, 0: -1, 1: -1, 1+l: +1}


def _odd(value: float) -> int:
    n = max(1, int(round(value)))
    return n if n % 2 == 1 else n + 1


@lru_cache(maxsize=64)
def _axis_stencils(sigma: float) -> dict[str, tuple[tuple[tuple[int, int, float], ...], int]]:
    """(tap pairs, support) of the box, second- and mixed-derivative stencils along an axis at scale ``sigma``."""
    lobe = _odd(2.0 * sigma)
    cross = _odd(3.0 * sigma)
    half = (cross - 1) // 2
    reach = (3 * lobe - 1) // 2
    return {
        "box": (((half + 1, -half, 1.0),), cross),
        "second": (((reach + 1, -reach, 1.0), (-reach + lobe, -reach + 2 * lobe, 3.0)), 3 * lobe),
        "mixed": (((-lobe, 0, 1.0), (1 + lobe, 1, 1.0)), 2 * lobe),
    }


def _margin(sigma: float) -> int:
    """Voxels at each end of an axis filtered at scale ``sigma`` where some stencil does not fit."""
    offsets = [offset for pairs, _ in _axis_stencils(sigma).values() for pair in pairs for offset in pair[:2]]
    return max(-min(offsets), max(offsets) - 1)


# The (t, y, x) stencils of each filter, listed so that the filters sharing a
# t stencil are adjacent: the t stage filters each such run in one pass.
_FILTERS = {
    "dxx": ("box", "box", "second"),
    "dyy": ("box", "second", "box"),
    "dxy": ("box", "mixed", "mixed"),
    "dxt": ("mixed", "box", "mixed"),
    "dyt": ("mixed", "mixed", "box"),
    "dtt": ("second", "box", "box"),
}

# Output rows filtered together. A slab's x stage reads its rows plus a halo of
# 2 * margin + 1, so this bounds the working set; it does not change a bit of
# the result, since every output voxel goes through the same operations.
_SLAB_ROWS = 8


def _det3_symmetric(dxx, dyy, dtt, dxy, dxt, dyt):
    """Determinant of [[dxx, p, q], [p, dyy, r], [q, r, dtt]] with weighted mixed terms."""
    p = MIXED_TERM_WEIGHT * dxy
    q = MIXED_TERM_WEIGHT * dxt
    r = MIXED_TERM_WEIGHT * dyt
    # dxx * (dyy * dtt - r * r) - p * (p * dtt - q * r) + q * (p * r - dyy * q),
    # rounded the same, with fewer temporaries alive at once.
    det = dyy * dtt
    det -= r * r
    det *= dxx
    term = p * dtt
    term -= q * r
    term *= p
    det -= term
    term = p * r
    term -= dyy * q
    term *= q
    det += term
    return det


def _stencil_sum(pairs, source: np.ndarray, axis: int, start: int, length: int, out=None) -> np.ndarray:
    """A stencil along ``axis`` of ``source`` at the ``length`` centres from index ``start``, into ``out`` if given."""

    def at(offset):
        index = [slice(None)] * source.ndim
        index[axis] = slice(start + offset, start + offset + length)
        return source[tuple(index)]

    (plus, minus, weight), *rest = pairs
    out = np.subtract(at(plus), at(minus), out=out)
    if weight != 1.0:
        out *= weight
    for plus, minus, weight in rest:
        term = at(plus) - at(minus)
        if weight != 1.0:
            term *= weight
        out += term
    return out


def hessian_response_field(
    table: np.ndarray, sigma_s: float, temporal_scales: tuple[float, ...], out: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Signed Hessian determinant at spatial scale ``sigma_s``, one field per temporal scale.

    Each field is kept on the box of voxels where every filter fits. With
    margins (mt, m, m), ``_margin`` of sigma_t and of sigma_s, entry [i, j, k]
    is the response at voxel (mt + i, m + j, m + k); an axis too short for the
    filters has extent 0. The x and y stages of the filters depend on
    ``sigma_s`` only, so they are computed once and shared by every temporal
    scale. ``out``, one array of each field's shape, receives the fields in
    place of new arrays.
    """
    spatial = _axis_stencils(sigma_s)
    m = _margin(sigma_s)
    ny, nx = (max(n - 1 - 2 * m, 0) for n in table.shape[1:])
    slab = max(min(_SLAB_ROWS, ny), 1)
    t_kinds = [kt for kt, _, _ in _FILTERS.values()]
    runs = {kind: slice(t_kinds.index(kind), t_kinds.index(kind) + t_kinds.count(kind)) for kind in t_kinds}
    # The fields of every temporal scale are stacked along t, so the
    # determinant is taken once per slab for all of them.
    temporal, start = [], 0
    for sigma_t in temporal_scales:
        stencils, mt = _axis_stencils(sigma_t), _margin(sigma_t)
        length = max(table.shape[0] - 1 - 2 * mt, 0)
        areas = np.array([stencils[kt][1] * spatial[ky][1] * spatial[kx][1] for kt, ky, kx in _FILTERS.values()])
        temporal.append((stencils, mt, slice(start, start + length), areas.astype(np.float64)[:, None, None, None]))
        start += length
    if out is None:
        out = [np.empty((span.stop - span.start, ny, nx)) for _, _, span, _ in temporal]
    planes = np.empty((len(_FILTERS), table.shape[0], slab, nx))
    derivatives = np.empty((len(_FILTERS), start, slab, nx))
    for row in range(0, ny, slab):
        rows = min(slab, ny - row)
        window = table[:, row : row + rows + 2 * m + 1]
        for kind, (pairs, _) in spatial.items():
            along_x = _stencil_sum(pairs, window, 2, m, nx)
            for i, (_, ky, kx) in enumerate(_FILTERS.values()):
                if kx == kind:
                    _stencil_sum(spatial[ky][0], along_x, 1, m, rows, out=planes[i, :, :rows])
            del along_x
        slab_derivatives = derivatives[:, :, :rows]
        for stencils, mt, span, areas in temporal:
            length = span.stop - span.start
            for kind, run in runs.items():
                _stencil_sum(stencils[kind][0], planes[run, :, :rows], 1, mt, length, out=slab_derivatives[run, span])
            slab_derivatives[:, span] /= areas
        det = _det3_symmetric(**dict(zip(_FILTERS, slab_derivatives)))
        for field, (_, _, span, _) in zip(out, temporal):
            field[:, row : row + rows] = det[span]
    return out


def _scale_space_maxima(table: np.ndarray, config: DetectorConfig) -> tuple[np.ndarray, ...]:
    """(si, ti, t, y, x, response) columns of the strict maxima over space, time and scale."""
    # Each |det H| field is kept on the box where its filters fit. Read as a
    # whole-volume field it is zero outside the box (filter margins are at
    # least one voxel, so every box has a layer of such zeros around it), and a
    # zero is never a strict maximum of a nonnegative field, so no point lies
    # outside a box. The fields, each padded with that layer of zeros, lie end
    # to end in one flat buffer. Only the voxels above the threshold and above
    # 0, which leaves out the padding, are compared with their neighbours.
    n_t = len(config.temporal_scales)
    margins = np.array(
        [[_margin(st), _margin(ss), _margin(ss)] for ss in config.spatial_scales for st in config.temporal_scales]
    )
    boxes = np.maximum(np.array(table.shape) - 1 - 2 * margins, 0)
    padded = boxes + 2
    starts = np.concatenate([[0], np.cumsum(padded.prod(axis=1))])
    buffer = np.zeros(starts[-1])
    for si, sigma_s in enumerate(config.spatial_scales):
        scale = range(si * n_t, (si + 1) * n_t)
        fields = [buffer[starts[k] : starts[k + 1]].reshape(padded[k])[1:-1, 1:-1, 1:-1] for k in scale]
        for field in hessian_response_field(table, sigma_s, config.temporal_scales, out=fields):
            np.abs(field, out=field)

    flat = np.flatnonzero(buffer > max(config.threshold, 0.0))
    k = np.searchsorted(starts, flat, side="right") - 1
    values = buffer[flat]
    plane, row = padded[k, 1] * padded[k, 2], padded[k, 2]
    peak = np.ones(flat.size, dtype=bool)
    for dt, dy in itertools.product((-1, 0, 1), repeat=2):
        shifted = flat + dt * plane + dy * row
        for dx in (-1, 0, 1):
            if dt or dy or dx:
                peak &= values > buffer[shifted + dx]
    flat, k, values, plane, row = flat[peak], k[peak], values[peak], plane[peak], row[peak]

    local = flat - starts[k]
    voxels = np.stack([local // plane, local % plane // row, local % row], axis=1) - 1 + margins[k]
    si, ti = np.divmod(k, n_t)
    peak = np.ones(flat.size, dtype=bool)
    for dsi, dti in itertools.product((-1, 0, 1), repeat=2):
        if dsi or dti:
            exists = (0 <= si + dsi) & (si + dsi < len(config.spatial_scales)) & (0 <= ti + dti) & (ti + dti < n_t)
            other = np.where(exists, k + dsi * n_t + dti, k)
            # Clipped onto the padding, a voxel outside the other box reads 0.
            t, y, x = (np.clip(voxels - margins[other], -1, boxes[other]) + 1).T
            peak &= ~exists | (values > buffer[starts[other] + (t * padded[other, 1] + y) * padded[other, 2] + x])
    t, y, x = voxels[peak].T
    return si[peak], ti[peak], t, y, x, values[peak]


def detect(table: np.ndarray, config: DetectorConfig = DetectorConfig()) -> tuple[np.ndarray, ...]:
    """Find strict local maxima of |det H| over space, time and the scale ladder.

    Returns ``(t, y, x, sigma_s, sigma_t, response)`` as (n,) arrays, sorted by
    descending response with a deterministic tie order (scale index, then t,
    y, x).
    """
    # The point arrays are built after the fields are freed. Built while the
    # fields were alive, they landed high in the extracting thread's heap and
    # stayed there in numpy's small-buffer cache, which kept the freed fields
    # below them resident (about 10 MB more RSS on the `ingest` workload).
    si, ti, t, y, x, response = _scale_space_maxima(table, config)
    order = np.lexsort((x, y, t, ti, si, -response))
    return (
        t[order],
        y[order],
        x[order],
        np.asarray(config.spatial_scales, dtype=np.float64)[si[order]],
        np.asarray(config.temporal_scales, dtype=np.float64)[ti[order]],
        response[order],
    )


def _bilinear(images: np.ndarray, which: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bilinear samples of ``images[which]`` at (ys, xs), all broadcast together."""
    h, w = images.shape[1:]
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y0 = np.clip(y0, 0, h - 1)
    x0 = np.clip(x0, 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)
    fx = np.clip(xs - x0, 0.0, 1.0)
    return (
        images[which, y0, x0] * (1 - fy) * (1 - fx)
        + images[which, y1, x0] * fy * (1 - fx)
        + images[which, y0, x1] * (1 - fy) * fx
        + images[which, y1, x1] * fy * fx
    )


def describe(volume: FrameVolume, points: tuple[np.ndarray, ...]) -> np.ndarray:
    """Upright SURF-style 64-vectors for interest points, one row per point.

    Frames within +/- sigma_t of each event are averaged into a single patch
    (once per distinct frame window); a 20 x 20 grid spaced sigma_s pixels
    (clipped at the borders) yields Haar responses whose per-subregion sums
    (dx, dy, |dx|, |dy| over a 4 x 4 partition) form the descriptor,
    L2-normalized. Constant patches give the all-zero vector.
    """
    t, y, x, sigma_s, sigma_t = points[:5]
    frames = volume.frames
    t_count, h, w = frames.shape
    reach_t = np.round(sigma_t).astype(int)
    windows = np.stack([np.maximum(0, t - reach_t), np.minimum(t_count, t + reach_t + 1)], axis=1)
    windows, which = np.unique(windows, axis=0, return_inverse=True)
    patches = np.empty((len(windows), h, w))
    for patch, (t0, t1) in zip(patches, windows):
        frames[t0:t1].mean(axis=0, out=patch)

    n = _DESCRIPTOR_GRID + 2  # extra ring for central differences
    offsets = (np.arange(n) - (n - 1) / 2.0) * sigma_s[:, None]
    ys = np.clip(y[:, None] + offsets, 0.0, h - 1.0)[:, :, None]
    xs = np.clip(x[:, None] + offsets, 0.0, w - 1.0)[:, None, :]
    samples = _bilinear(patches, which.reshape(-1, 1, 1), ys, xs)

    dx = 0.5 * (samples[:, 1:-1, 2:] - samples[:, 1:-1, :-2])
    dy = 0.5 * (samples[:, 2:, 1:-1] - samples[:, :-2, 1:-1])

    cells = _DESCRIPTOR_GRID // _DESCRIPTOR_SUBREGIONS
    shape = (len(t), _DESCRIPTOR_SUBREGIONS, cells, _DESCRIPTOR_SUBREGIONS, cells)
    dxb = dx.reshape(shape)
    dyb = dy.reshape(shape)
    features = np.stack(
        [
            dxb.sum(axis=(2, 4)),
            dyb.sum(axis=(2, 4)),
            np.abs(dxb).sum(axis=(2, 4)),
            np.abs(dyb).sum(axis=(2, 4)),
        ],
        axis=-1,
    ).reshape(len(t), 4 * _DESCRIPTOR_SUBREGIONS**2)
    # A stack of (1, 64) @ (64, 1) products is one dot per row, rounded as np.linalg.norm rounds one vector.
    norm = np.sqrt((features[:, None, :] @ features[:, :, None])[:, 0, 0])
    out = np.zeros_like(features)
    kept = norm >= 1e-12
    out[kept] = features[kept] / norm[kept, None]
    return out


def extract_video_descriptors(volume: FrameVolume, config: DetectorConfig = DetectorConfig()) -> np.ndarray:
    """Detect events and describe the strongest ``max_points`` of them.

    Returns an (n_points, 64) matrix; constant videos give an empty matrix.
    """
    points = detect(build_integral(volume), config)
    return describe(volume, tuple(column[: config.max_points] for column in points))


def write_frame_volume(path: str | Path, volume: FrameVolume) -> None:
    """Write a volume as raw bytes: magic, T/H/W, frame rate in mHz, u8 intensities."""
    data = np.round(np.clip(volume.frames, 0.0, 1.0) * 255.0).astype(np.uint8)
    write_framed(path, VOLUME_MAGIC, _VOLUME_HEADER, (*volume.shape, round(volume.frame_rate * 1000)), data)


@names_file
def read_frame_volume(path: str | Path, data: bytes) -> FrameVolume:
    """Parse a frame volume from ``data`` read from ``path``; ``path`` only names the file in errors."""
    (t, h, w, rate_milli), body = read_framed(data, VOLUME_MAGIC, _VOLUME_HEADER)
    (intensities,) = split_body(body, ("u1", (t, h, w)))
    return FrameVolume(frames=intensities / 255.0, frame_rate=rate_milli / 1000.0)

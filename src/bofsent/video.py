"""Spatiotemporal interest points from grayscale frame volumes.

Detection approximates second-order Gaussian derivatives over space and time
with box filters evaluated on an integral volume; candidate events are strict
local maxima of the (absolute) 3x3 Hessian determinant across space, time and
a small scale ladder. Each event is described by an upright SURF-style
64-vector computed from a time-averaged patch around the event.

Points travel as one tuple of (n,) arrays ``(t, y, x, sigma_s, sigma_t,
response)``: int voxel coordinates, then float64 scales and |det H|.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

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
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("intensities must lie in [0, 1]")
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


# A filter is a list of boxes; each box is half-open offsets relative to the
# center voxel, (t0, t1, y0, y1, x0, x1, weight). ``area`` is the support size
# used to normalize responses.


def _odd(value: float) -> int:
    n = max(1, int(round(value)))
    return n if n % 2 == 1 else n + 1


def _centered(extent: int) -> tuple[int, int]:
    half = (extent - 1) // 2
    return -half, half + 1


def _second_derivative_boxes(axis: int, lobe: int, cross: dict[int, int]):
    reach = (3 * lobe - 1) // 2
    lobes = [(-reach, -reach + lobe, 1.0), (-reach + lobe, -reach + 2 * lobe, -2.0), (-reach + 2 * lobe, reach + 1, 1.0)]
    boxes = []
    area = 3 * lobe
    spans = {}
    for ax, extent in cross.items():
        spans[ax] = _centered(extent)
        area *= extent
    for lo, hi, weight in lobes:
        span = {axis: (lo, hi), **spans}
        boxes.append((*span[0], *span[1], *span[2], weight))
    return boxes, float(area)


def _mixed_derivative_boxes(axis_a: int, lobe_a: int, axis_b: int, lobe_b: int, cross_axis: int, cross: int):
    # four quadrant boxes with a one-voxel gap along each derivative axis
    quads = [
        ((1, 1 + lobe_a), (1, 1 + lobe_b), 1.0),
        ((-lobe_a, 0), (1, 1 + lobe_b), -1.0),
        ((1, 1 + lobe_a), (-lobe_b, 0), -1.0),
        ((-lobe_a, 0), (-lobe_b, 0), 1.0),
    ]
    cross_span = _centered(cross)
    boxes = []
    for span_a, span_b, weight in quads:
        span = {axis_a: span_a, axis_b: span_b, cross_axis: cross_span}
        boxes.append((*span[0], *span[1], *span[2], weight))
    return boxes, float(4 * lobe_a * lobe_b * cross)


@lru_cache(maxsize=64)
def _filter_bank(sigma_s: float, sigma_t: float):
    """Box filters for the six second derivatives at one (spatial, temporal) scale."""
    lobe_s = _odd(2.0 * sigma_s)
    lobe_t = _odd(2.0 * sigma_t)
    cross_s = _odd(3.0 * sigma_s)
    cross_t = _odd(3.0 * sigma_t)
    # axes: 0 = t, 1 = y, 2 = x
    filters = {
        "dxx": _second_derivative_boxes(2, lobe_s, {0: cross_t, 1: cross_s}),
        "dyy": _second_derivative_boxes(1, lobe_s, {0: cross_t, 2: cross_s}),
        "dtt": _second_derivative_boxes(0, lobe_t, {1: cross_s, 2: cross_s}),
        "dxy": _mixed_derivative_boxes(2, lobe_s, 1, lobe_s, 0, cross_t),
        "dxt": _mixed_derivative_boxes(2, lobe_s, 0, lobe_t, 1, cross_s),
        "dyt": _mixed_derivative_boxes(1, lobe_s, 0, lobe_t, 2, cross_s),
    }
    margins = [0, 0, 0]
    for boxes, _ in filters.values():
        for box in boxes:
            for axis in range(3):
                lo, hi = box[2 * axis], box[2 * axis + 1]
                margins[axis] = max(margins[axis], -lo, hi - 1)
    return filters, tuple(margins)


def _det3_symmetric(dxx, dyy, dtt, dxy, dxt, dyt):
    """Determinant of [[dxx, p, q], [p, dyy, r], [q, r, dtt]] with weighted mixed terms."""
    p = MIXED_TERM_WEIGHT * dxy
    q = MIXED_TERM_WEIGHT * dxt
    r = MIXED_TERM_WEIGHT * dyt
    return dxx * (dyy * dtt - r * r) - p * (p * dtt - q * r) + q * (p * r - dyy * q)


def _box_sum_field(table, margins, boxes, area):
    mt, my, mx = margins
    nt, ny, nx = (max(n - 1 - 2 * m, 0) for n, m in zip(table.shape, margins))

    def corner(dt, dy, dx):
        return table[mt + dt : mt + dt + nt, my + dy : my + dy + ny, mx + dx : mx + dx + nx]

    out = np.zeros((nt, ny, nx))
    for t0, t1, y0, y1, x0, x1, weight in boxes:
        out += weight * (
            corner(t1, y1, x1)
            - corner(t0, y1, x1)
            - corner(t1, y0, x1)
            - corner(t1, y1, x0)
            + corner(t0, y0, x1)
            + corner(t0, y1, x0)
            + corner(t1, y0, x0)
            - corner(t0, y0, x0)
        )
    return out / area


def hessian_response_field(table: np.ndarray, sigma_s: float, sigma_t: float) -> np.ndarray:
    """Signed Hessian determinant on the box of voxels where every filter fits.

    With filter margins (mt, my, mx), entry [i, j, k] is the response at voxel
    (mt + i, my + j, mx + k); an axis too short for the filters has extent 0.
    """
    filters, margins = _filter_bank(float(sigma_s), float(sigma_t))
    return _det3_symmetric(
        **{name: _box_sum_field(table, margins, boxes, area) for name, (boxes, area) in filters.items()}
    )


def _strict_local_maxima(field: np.ndarray) -> np.ndarray:
    """Voxels above all 26 neighbours, with zeros beyond the array's faces."""
    padded = np.pad(field, 1)
    t, h, w = field.shape
    result = np.ones(field.shape, dtype=bool)
    for dt in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dt == dy == dx == 0:
                    continue
                neighbor = padded[1 + dt : 1 + dt + t, 1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
                result &= field > neighbor
    return result


def _read_box(box: tuple[slice, ...], values: np.ndarray, target: tuple[slice, ...]) -> np.ndarray:
    """Read a field that holds ``values`` on ``box`` and zeros elsewhere over the ``target`` box."""
    out = np.zeros(tuple(s.stop - s.start for s in target))
    common = [slice(max(b.start, s.start), min(b.stop, s.stop)) for b, s in zip(box, target)]
    if all(c.start < c.stop for c in common):
        into = tuple(slice(c.start - s.start, c.stop - s.start) for c, s in zip(common, target))
        out[into] = values[tuple(slice(c.start - b.start, c.stop - b.start) for c, b in zip(common, box))]
    return out


def _scale_space_maxima(table: np.ndarray, config: DetectorConfig) -> list[tuple[np.ndarray, ...]]:
    """(si, ti, t, y, x, response) columns of the strict maxima, one tuple per scale pair."""
    # Each |det H| field is kept on the box where its filters fit. Read as a
    # whole-volume field it is zero outside the box (filter margins are at
    # least one voxel, so every box has a layer of such zeros around it), and a
    # zero is never a strict maximum of a nonnegative field, so no point lies
    # outside a box.
    fields = {}
    for si, sigma_s in enumerate(config.spatial_scales):
        for ti, sigma_t in enumerate(config.temporal_scales):
            margins = _filter_bank(float(sigma_s), float(sigma_t))[1]
            field = np.abs(hessian_response_field(table, sigma_s, sigma_t))
            fields[si, ti] = tuple(slice(m, m + n) for m, n in zip(margins, field.shape)), field

    empty = np.empty(0, dtype=np.intp)
    columns = [(empty, empty, empty, empty, empty, np.empty(0))]
    for (si, ti), (box, field) in fields.items():
        mask = field > config.threshold
        if not mask.any():
            continue
        mask &= _strict_local_maxima(field)
        for dsi in (-1, 0, 1):
            for dti in (-1, 0, 1):
                if (dsi or dti) and (si + dsi, ti + dti) in fields:
                    mask &= field > _read_box(*fields[si + dsi, ti + dti], box)
        t, y, x = (index + s.start for index, s in zip(np.nonzero(mask), box))
        columns.append((np.full(t.size, si), np.full(t.size, ti), t, y, x, field[mask]))
    return columns


def detect(table: np.ndarray, config: DetectorConfig = DetectorConfig()) -> tuple[np.ndarray, ...]:
    """Find strict local maxima of |det H| over space, time and the scale ladder.

    Returns ``(t, y, x, sigma_s, sigma_t, response)`` as (n,) arrays, sorted by
    descending response with a deterministic tie order (scale index, then t,
    y, x).
    """
    if not config.spatial_scales or not config.temporal_scales:
        raise ValueError("scale ladder must be non-empty")
    # The point arrays are built after the fields are freed. Built while the
    # fields were alive, they landed high in the extracting thread's heap and
    # stayed there in numpy's small-buffer cache, which kept the freed fields
    # below them resident (about 10 MB more RSS on the `ingest` workload).
    si, ti, t, y, x, response = (np.concatenate(column) for column in zip(*_scale_space_maxima(table, config)))
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
    t, h, w = volume.shape
    rate_milli = int(round(volume.frame_rate * 1000))
    data = np.round(np.clip(volume.frames, 0.0, 1.0) * 255.0).astype(np.uint8)
    with Path(path).open("wb") as fh:
        fh.write(_VOLUME_HEADER.pack(VOLUME_MAGIC, t, h, w, rate_milli))
        fh.write(data.tobytes())


def read_frame_volume(path: str | Path) -> FrameVolume:
    data = Path(path).read_bytes()
    if len(data) < _VOLUME_HEADER.size or data[:4] != VOLUME_MAGIC:
        raise ValueError(f"{path}: not a frame volume file")
    _, t, h, w, rate_milli = _VOLUME_HEADER.unpack_from(data)
    body = data[_VOLUME_HEADER.size :]
    if len(body) != t * h * w:
        raise ValueError(f"{path}: expected {t * h * w} intensity bytes, got {len(body)}")
    frames = np.frombuffer(body, dtype=np.uint8).reshape(t, h, w).astype(np.float64) / 255.0
    return FrameVolume(frames=frames, frame_rate=rate_milli / 1000.0)

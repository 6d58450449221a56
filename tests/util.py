"""Shared generators and independent oracle implementations for the test suite.

Oracles here must stay naive and independent of the library code paths they
check: direct density products instead of log-sum-exp, brute-force sums
instead of integral tables, subgradient descent instead of an interior-point
solve. ``dcd_reference`` keeps the SVM's former solver, dual coordinate descent
with a seeded permutation per epoch, as the reference its replacement must match.
The ``unblocked_*`` functions keep the codebook's former all-rows-at-once
formulas (two exps, exact column sums) as the reference for its blocked kernels.
``kmeans_plus_plus_reference`` keeps the former seeding, which computed every
row's distance to every new center, as the reference its pruned replacement
must match bit for bit; ``allocating_assign`` does the same for the k-means
assignment.
The ``per_row_*`` functions keep the former one-segment-at-a-time fusion and
metric formulas as the reference for the array versions in ``fusion`` and
``metrics``. ``box_sum``, ``hessian_response`` and ``per_point_describe`` keep
the former one-voxel and one-point video formulas as the reference for the
whole-field detector and the batched describer in ``video``. ``box_filter_bank``
and ``box_sum_field`` keep the former box filters, summed from 8 integral-table
corners per box, and ``box_hessian_fields`` builds from them the reference for
the per-axis stencils of ``video.hessian_response_field``.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from bofsent import video
from bofsent.codebook import BLOCK
from bofsent.metrics import ConfusionMatrix, MetricReport, mae, multiclass_accuracy, pearson, prf1
from bofsent.prosody import PcmSignal
from bofsent.video import FrameVolume, _det3_symmetric, _odd


def tone(freq: float, duration: float, sample_rate: int = 16000, amplitude: float = 0.5) -> PcmSignal:
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    return PcmSignal(samples=amplitude * np.sin(2.0 * np.pi * freq * t), sample_rate=sample_rate)


def interp_salience(
    block: np.ndarray,
    sample_rate: int,
    f0_min: float,
    f0_max: float,
    n_harmonics: int,
    compression: float = 0.85,
    bins_per_octave: int = 48,
) -> float:
    """Subharmonic-summation salience of one block, read off the spectrum with np.interp.

    np.interp holds the last (Nyquist) bin for harmonics beyond it.
    """
    nfft = 1 << max(11, int(4 * block.size - 1).bit_length())
    spectrum = np.abs(np.fft.rfft(block, nfft))
    freqs = np.arange(spectrum.size) * (sample_rate / nfft)
    n_steps = int(np.floor(np.log2(f0_max / f0_min) * bins_per_octave))
    grid = f0_min * 2.0 ** (np.arange(n_steps + 1) / bins_per_octave)
    if grid[-1] < f0_max - 1e-9:
        grid = np.append(grid, f0_max)
    scores = sum(
        compression ** (h - 1) * np.interp(h * grid, freqs, spectrum) for h in range(1, n_harmonics + 1)
    )
    return float(scores.max())


# A box filter is a list of boxes; each box is half-open offsets relative to
# the center voxel, (t0, t1, y0, y1, x0, x1, weight). ``area`` is the support
# size used to normalize responses.


def _centered(extent: int) -> tuple[int, int]:
    half = (extent - 1) // 2
    return -half, half + 1


def _second_derivative_boxes(axis: int, lobe: int, cross: dict[int, int]):
    reach = (3 * lobe - 1) // 2
    lobes = [
        (-reach, -reach + lobe, 1.0),
        (-reach + lobe, -reach + 2 * lobe, -2.0),
        (-reach + 2 * lobe, reach + 1, 1.0),
    ]
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


def box_filter_bank(sigma_s: float, sigma_t: float):
    """({name: (boxes, area)}, (mt, my, mx) margins) of the six second-derivative box filters at one scale pair."""
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


def box_sum_field(table, margins, boxes, area):
    """One box filter on the box of voxels where it fits, as 8 integral-table corners per box."""
    mt, my, mx = margins
    nt, ny, nx = (max(n - 1 - 2 * m, 0) for n, m in zip(table.shape, margins))

    def corner(dt, dy, dx):
        return table[mt + dt : mt + dt + nt, my + dy : my + dy + ny, mx + dx : mx + dx + nx]

    out = np.zeros((nt, ny, nx), dtype=table.dtype)
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


def box_hessian_fields(table, sigma_s, temporal_scales, out=None) -> list[np.ndarray]:
    """``video.hessian_response_field``, ``out`` included, from whole boxes, one filter and sigma_t at a time."""
    fields = []
    for sigma_t in temporal_scales:
        filters, margins = box_filter_bank(float(sigma_s), float(sigma_t))
        sums = {name: box_sum_field(table, margins, boxes, area) for name, (boxes, area) in filters.items()}
        fields.append(_det3_symmetric(**sums))
    if out is not None:
        for target, field in zip(out, fields):
            target[...] = field
        return out
    return fields


def full_hessian_field(table, sigma_s, sigma_t) -> np.ndarray:
    """``video.hessian_response_field`` at one scale pair, pasted into a whole-volume field of zeros at its margins."""
    (det,) = video.hessian_response_field(table, sigma_s, (sigma_t,))
    margins = box_filter_bank(float(sigma_s), float(sigma_t))[1]
    full = np.zeros(tuple(n - 1 for n in table.shape))
    full[tuple(slice(m, m + n) for m, n in zip(margins, det.shape))] = det
    return full


def full_field_detect(table, config) -> list[tuple]:
    """(t, y, x, sigma_s, sigma_t, response) of each strict maximum of |det H| over space, time and scale.

    Every field spans the whole volume (zero where its filters do not fit),
    the volume is padded with -1, and points are ordered as ``video.detect``
    orders them.
    """
    fields = {
        (si, ti): np.abs(full_hessian_field(table, sigma_s, sigma_t))
        for si, sigma_s in enumerate(config.spatial_scales)
        for ti, sigma_t in enumerate(config.temporal_scales)
    }
    found = []
    for (si, ti), field in fields.items():
        t_len, h_len, w_len = field.shape
        padded = np.pad(field, 1, constant_values=-1.0)
        mask = field > config.threshold
        for dt, dy, dx in itertools.product((-1, 0, 1), repeat=3):
            if dt or dy or dx:
                mask &= field > padded[1 + dt : 1 + dt + t_len, 1 + dy : 1 + dy + h_len, 1 + dx : 1 + dx + w_len]
        for dsi, dti in itertools.product((-1, 0, 1), repeat=2):
            if (dsi or dti) and (si + dsi, ti + dti) in fields:
                mask &= field > fields[si + dsi, ti + dti]
        found += [(-field[t, y, x], si, ti, int(t), int(y), int(x)) for t, y, x in np.argwhere(mask)]
    found.sort()
    return [
        (t, y, x, config.spatial_scales[si], config.temporal_scales[ti], -neg)
        for neg, si, ti, t, y, x in found
    ]


def point_rows(points) -> list[tuple]:
    """``video.detect``'s (t, y, x, sigma_s, sigma_t, response) arrays as one Python tuple per point."""
    return list(zip(*(column.tolist() for column in points)))


def box_sum(table: np.ndarray, t0: int, t1: int, y0: int, y1: int, x0: int, x1: int) -> float:
    """Sum of intensities over the half-open box [t0,t1) x [y0,y1) x [x0,x1) of an integral table."""
    t, h, w = (n - 1 for n in table.shape)
    if not (0 <= t0 <= t1 <= t and 0 <= y0 <= y1 <= h and 0 <= x0 <= x1 <= w):
        raise ValueError("box out of bounds")
    return float(
        table[t1, y1, x1]
        - table[t0, y1, x1]
        - table[t1, y0, x1]
        - table[t1, y1, x0]
        + table[t0, y0, x1]
        + table[t0, y1, x0]
        + table[t1, y0, x0]
        - table[t0, y0, x0]
    )


def hessian_response(table: np.ndarray, x: int, y: int, t: int, sigma_s: float, sigma_t: float) -> float:
    """Signed Hessian determinant at one voxel from area-normalized box responses.

    Raises when the filter support does not fit inside the volume.
    """
    filters, margins = box_filter_bank(float(sigma_s), float(sigma_t))
    nt, ny, nx = (n - 1 for n in table.shape)
    mt, my, mx = margins
    if not (mt <= t < nt - mt and my <= y < ny - my and mx <= x < nx - mx):
        raise ValueError(f"filter support at scale ({sigma_s}, {sigma_t}) does not fit at ({x}, {y}, {t})")
    values = {}
    for name, (boxes, area) in filters.items():
        acc = 0.0
        for t0, t1, y0, y1, x0, x1, weight in boxes:
            acc += weight * box_sum(table, t + t0, t + t1, y + y0, y + y1, x + x0, x + x1)
        values[name] = acc / area
    return float(_det3_symmetric(**values))


def _bilinear(image: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    h, w = image.shape
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)
    fx = np.clip(xs - x0, 0.0, 1.0)
    return (
        image[y0, x0] * (1 - fy) * (1 - fx)
        + image[y1, x0] * fy * (1 - fx)
        + image[y0, x1] * (1 - fy) * fx
        + image[y1, x1] * fy * fx
    )


def per_point_describe(volume: FrameVolume, t: int, y: int, x: int, sigma_s: float, sigma_t: float) -> np.ndarray:
    """Upright SURF-style 64-vector for one point, from its own time-averaged patch."""
    frames = volume.frames
    t_count, h, w = frames.shape
    reach_t = int(round(sigma_t))
    patch = frames[max(0, t - reach_t) : min(t_count, t + reach_t + 1)].mean(axis=0)
    offsets = (np.arange(22) - 21 / 2.0) * sigma_s  # 20 x 20 grid plus a ring for central differences
    ys = np.clip(y + offsets, 0.0, h - 1.0)[:, None]
    xs = np.clip(x + offsets, 0.0, w - 1.0)[None, :]
    samples = _bilinear(patch, ys, xs)
    dx = (0.5 * (samples[1:-1, 2:] - samples[1:-1, :-2])).reshape(4, 5, 4, 5)
    dy = (0.5 * (samples[2:, 1:-1] - samples[:-2, 1:-1])).reshape(4, 5, 4, 5)
    features = np.stack(
        [dx.sum(axis=(1, 3)), dy.sum(axis=(1, 3)), np.abs(dx).sum(axis=(1, 3)), np.abs(dy).sum(axis=(1, 3))],
        axis=-1,
    ).ravel()
    norm = float(np.linalg.norm(features))
    if norm < 1e-12:
        return np.zeros(features.size)
    return features / norm


def blob_volume(
    shape: tuple[int, int, int],
    center: tuple[float, float, float],
    sigma_s: float,
    sigma_t: float,
    contrast: float = 0.6,
    background: float = 0.1,
    frame_rate: float = 10.0,
) -> FrameVolume:
    """Separable Gaussian blob event at (ct, cy, cx)."""
    t_count, height, width = shape
    ct, cy, cx = center
    ts = np.arange(t_count)[:, None, None]
    ys = np.arange(height)[None, :, None]
    xs = np.arange(width)[None, None, :]
    bump = np.exp(
        -((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma_s**2) - (ts - ct) ** 2 / (2.0 * sigma_t**2)
    )
    return FrameVolume(frames=np.clip(background + contrast * bump, 0.0, 1.0), frame_rate=frame_rate)


def brute_box_sum(frames: np.ndarray, t0, t1, y0, y1, x0, x1) -> float:
    return float(frames[t0:t1, y0:y1, x0:x1].sum())


def direct_posterior(weights, means, variances, x) -> np.ndarray:
    """Bayes posterior over components via plain density products (no logs)."""
    weights = np.asarray(weights, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    densities = weights * np.prod(
        np.exp(-((x - means) ** 2) / (2.0 * variances)) / np.sqrt(2.0 * np.pi * variances), axis=1
    )
    return densities / densities.sum()


def direct_loglik(weights, means, variances, data) -> float:
    total = 0.0
    for row in np.asarray(data, dtype=np.float64):
        densities = np.asarray(weights) * np.prod(
            np.exp(-((row - means) ** 2) / (2.0 * np.asarray(variances)))
            / np.sqrt(2.0 * np.pi * np.asarray(variances)),
            axis=1,
        )
        total += np.log(densities.sum())
    return float(total)


def unblocked_log_joint(weights, means, variances, data) -> np.ndarray:
    """log(weight_k * N(x_n; mean_k, var_k)) for every row/component pair, all rows at once."""
    inv = 1.0 / variances
    const = -0.5 * (means.shape[1] * math.log(2.0 * math.pi) + np.log(variances).sum(axis=1)) + np.log(weights)
    maha = (data * data) @ inv.T - 2.0 * data @ (means * inv).T + (means * means * inv).sum(axis=1)
    return const[None, :] - 0.5 * maha


def unblocked_logsumexp_rows(values: np.ndarray) -> np.ndarray:
    peak = values.max(axis=1, keepdims=True)
    return peak[:, 0] + np.log(np.exp(values - peak).sum(axis=1))


def unblocked_em_step(weights, means, variances, data, variance_floor, weight_floor=1e-12):
    """One EM iteration over all rows at once: (weights, means, variances, incoming log-likelihood)."""
    joint = unblocked_log_joint(weights, means, variances, data)
    norm = unblocked_logsumexp_rows(joint)
    resp = np.exp(joint - norm[:, None])
    nk = resp.sum(axis=0)
    safe = np.maximum(nk, weight_floor)
    new_means = (resp.T @ data) / safe[:, None]
    second = (resp.T @ (data * data)) / safe[:, None]
    new_variances = np.maximum(second - new_means * new_means, variance_floor)
    new_weights = np.maximum(nk / data.shape[0], weight_floor)
    return new_weights / new_weights.sum(), new_means, new_variances, float(norm.sum())


def unscaled_block_posteriors(rows, terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component-major features ``[x²; x; 1]``, posteriors divided by their column sums and log normalisers.

    Column i belongs to row i, and every row counts once.
    """
    feats = np.vstack([rows.T * rows.T, rows.T, np.ones((1, rows.shape[0]))])
    post = terms.T @ feats
    peak = post.max(axis=0)
    post = np.exp(np.maximum(post - peak, -600.0))
    total = post.sum(axis=0)
    return feats, post / total, peak + np.log(total)


def unblocked_encode(weights, means, variances, rows) -> np.ndarray:
    """Mean component posterior of the rows, each column summed exactly with math.fsum."""
    joint = unblocked_log_joint(weights, means, variances, np.asarray(rows, dtype=np.float64))
    post = np.exp(joint - unblocked_logsumexp_rows(joint)[:, None])
    return np.array([math.fsum(column) for column in post.T]) / post.shape[0]


def kmeans_plus_plus_reference(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The former k-means++ seeding: one exact distance per row for every new center."""
    # Distances are exact sums of (x - c)²: duplicates of a center must read 0,
    # which the "distinct rows" check depends on.
    n, dim = data.shape
    centers = np.empty((k, dim))
    centers[0] = data[rng.integers(n)]
    d2 = np.full(n, np.inf)
    diff = np.empty((min(n, BLOCK), dim))
    for i in range(1, k):
        for start in range(0, n, BLOCK):
            m = min(BLOCK, n - start)
            np.subtract(data[start : start + m], centers[i - 1], out=diff[:m])
            dist = np.einsum("ij,ij->i", diff[:m], diff[:m])
            np.minimum(d2[start : start + m], dist, out=d2[start : start + m])
        total = d2.sum()
        if total <= 0.0:
            raise ValueError(f"fewer than {k} distinct rows; cannot place {k} components")
        centers[i] = data[rng.choice(n, p=d2 / total)]
    return centers


def allocating_assign(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The former k-means assignment: a fresh (rows, K) score array per block."""
    neg_twice = -2.0 * centers.T
    norms = (centers * centers).sum(axis=1)
    assign = np.empty(data.shape[0], dtype=np.intp)
    for start in range(0, data.shape[0], BLOCK):
        d2 = data[start : start + BLOCK] @ neg_twice
        d2 += norms
        assign[start : start + BLOCK] = d2.argmin(axis=1)
    return assign


def hinge_objective(w, b, X, y, C) -> float:
    margins = 1.0 - y * (X @ w + b)
    return float(0.5 * (w @ w + b * b) + C * np.maximum(margins, 0.0).sum())


def subgradient_svm(X, y, C, iters: int = 150_000) -> tuple[np.ndarray, float]:
    """``subgradient_svm_batch`` on one problem."""
    ((w, b),) = subgradient_svm_batch([X], [y], [C], iters)
    return w, b


def subgradient_svm_batch(Xs, ys, Cs, iters: int = 150_000) -> list[tuple[np.ndarray, float]]:
    """Weighted-average projected subgradient descent on the hinge objective of each (X, y, C) problem.

    Uses the 2/(t+2) step schedule with (t+1)-weighted averaging, valid for
    1-strongly-convex objectives; run long enough it lands within a fraction
    of the oracle tolerance. The problems, of one feature dimension, descend
    together: each is padded to the most rows with zero rows labelled 0, which
    add nothing to its subgradient.
    """
    dim = np.shape(Xs[0])[1]
    signed = np.zeros((len(Xs), max(len(y) for y in ys), dim + 1))
    for problem, (X, y) in enumerate(zip(Xs, ys)):
        y = np.asarray(y, dtype=np.float64)
        signed[problem, : y.size] = np.hstack([np.asarray(X, dtype=np.float64), np.ones((y.size, 1))]) * y[:, None]
    C = np.asarray(Cs, dtype=np.float64)[:, None]
    v = np.zeros((len(Xs), dim + 1))
    averaged = np.zeros_like(v)
    weight_sum = 0.0
    for t in range(iters):
        active = (1.0 - (signed @ v[:, :, None])[:, :, 0]) > 0.0
        grad = v - C * (active[:, None, :] @ signed)[:, 0, :]
        v = v - (2.0 / (t + 2.0)) * grad
        weight = t + 1.0
        weight_sum += weight
        averaged += weight * (v - averaged) / weight_sum
    return [(row[:dim], float(row[dim])) for row in averaged]


def dcd_reference(X, y, C, seed: int = 0, max_epochs: int = 1000, tol: float = 1e-6) -> tuple[np.ndarray, float]:
    """Dual coordinate descent on the hinge SVM, one Python step per coordinate.

    Stops when the spread of the projected gradient is at most ``tol`` or after
    ``max_epochs`` passes, whichever comes first.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, dim = X.shape
    augmented = np.hstack([X, np.ones((n, 1))])
    signed = augmented * y[:, None]
    diag = (augmented * augmented).sum(axis=1)
    alpha = [0.0] * n
    v = np.zeros(dim + 1)
    rng = np.random.default_rng(seed)
    for _ in range(max_epochs):
        pg_max = -np.inf
        pg_min = np.inf
        for i in rng.permutation(n):
            zi = signed[i]
            gradient = float(zi @ v) - 1.0
            a = alpha[i]
            if a <= 0.0:
                projected = min(gradient, 0.0)
            elif a >= C:
                projected = max(gradient, 0.0)
            else:
                projected = gradient
            pg_max = max(pg_max, projected)
            pg_min = min(pg_min, projected)
            if abs(projected) > 1e-14:
                updated = min(max(a - gradient / diag[i], 0.0), C)
                if updated != a:
                    v += (updated - a) * zi
                    alpha[i] = updated
        if pg_max - pg_min <= tol:
            break
    return v[:dim].copy(), float(v[dim])


def per_row_score_fuse(video: float, audio: float, theta: float) -> tuple[float, bool]:
    """(fused score, positive) of one segment: weighted average, positive strictly above 1 - theta."""
    fused = theta * video + (1.0 - theta) * audio
    return fused, fused > 1.0 - theta


def per_row_ternary(score: float) -> int:
    if score < 1.0 / 3.0:
        return -1
    if score < 2.0 / 3.0:
        return 0
    return 1


def per_row_output_fuse(video: float, audio: float) -> tuple[float, bool]:
    fused = (per_row_ternary(video) + per_row_ternary(audio) + 2) / 4.0
    return fused, fused > 0.5


def per_row_classification_error(truth: list[bool], pred: list[bool]) -> float:
    """Mean of the two per-class error rates, as exact fractions rounded once."""
    per_class = []
    for cls in (True, False):
        members = [(t, p) for t, p in zip(truth, pred) if t is cls]
        per_class.append(Fraction(sum(1 for t, p in members if t is not p), len(members)))
    return float((per_class[0] + per_class[1]) / 2)


def per_row_grid_search(videos, audios, truth, candidates) -> tuple[float, dict[float, float]]:
    """(chosen weight, error per weight); ties go to 0.5, then to the larger weight."""
    errors = {
        theta: per_row_classification_error(
            truth, [per_row_score_fuse(v, a, theta)[1] for v, a in zip(videos, audios)]
        )
        for theta in candidates
    }
    return sorted((error, abs(theta - 0.5), -theta, theta) for theta, error in errors.items())[0][3], errors


def per_row_scale_confidence(confidence: float) -> float:
    return 6.0 * confidence - 3.0


def per_row_confusion(pred: list[bool], truth: list[bool]) -> ConfusionMatrix:
    tp = fp = fn = tn = 0
    for p, t in zip(pred, truth):
        if t:
            if p:
                tp += 1
            else:
                fn += 1
        elif p:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def per_row_report(pred: list[bool], truth: list[bool], pred_sentiment, truth_sentiment) -> MetricReport:
    """The metric report from per-row counts; the float-vector metrics are shared with ``metrics``.

    The class-balanced accuracy is the mean of exact per-class fractions, rounded once.
    """
    cm = per_row_confusion(pred, truth)
    scores = prf1(cm)
    flags = ["precision_recall_f1"] if scores.degenerate else []
    try:
        correlation = pearson(pred_sentiment, truth_sentiment)
    except ValueError:
        correlation = 0.0
        flags.append("correlation")
    recalls = []
    for cls in (True, False):
        members = [(p, t) for p, t in zip(pred, truth) if t is cls]
        if members:
            recalls.append(Fraction(sum(1 for p, t in members if p is t), len(members)))
    return MetricReport(
        precision=scores.precision,
        recall=scores.recall,
        f1=scores.f1,
        mae=mae(pred_sentiment, truth_sentiment),
        correlation=correlation,
        binary_accuracy=sum(1 for p, t in zip(pred, truth) if p is t) / len(pred),
        weighted_binary_accuracy=float(sum(recalls) / len(recalls)),
        acc5=multiclass_accuracy(pred_sentiment, truth_sentiment, 5),
        acc7=multiclass_accuracy(pred_sentiment, truth_sentiment, 7),
        confusion=cm,
        degenerate=tuple(flags),
    )

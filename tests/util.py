"""Shared generators and independent oracle implementations for the test suite.

Oracles here must stay naive and independent of the library code paths they
check: direct density products instead of log-sum-exp, brute-force sums
instead of integral tables, subgradient descent instead of coordinate descent.
The ``unblocked_*`` functions keep the codebook's former all-rows-at-once
formulas (two exps, exact column sums) as the reference for its blocked kernels.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from bofsent.prosody import PcmSignal
from bofsent.video import FrameVolume, hessian_response_field


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


def full_field_detect(iv, config) -> list[tuple]:
    """(x, y, t, sigma_s, sigma_t, response) of each strict maximum of |det H| over space, time and scale.

    Every field spans the whole volume (zero where its filters do not fit),
    the volume is padded with -1, and points are ordered as ``video.detect``
    orders them.
    """
    fields = {
        (si, ti): np.abs(hessian_response_field(iv, sigma_s, sigma_t))
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
        (x, y, t, config.spatial_scales[si], config.temporal_scales[ti], -neg)
        for neg, si, ti, t, y, x in found
    ]


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


def unblocked_encode(weights, means, variances, rows) -> np.ndarray:
    """Mean component posterior of the rows, each column summed exactly with math.fsum."""
    joint = unblocked_log_joint(weights, means, variances, np.asarray(rows, dtype=np.float64))
    post = np.exp(joint - unblocked_logsumexp_rows(joint)[:, None])
    return np.array([math.fsum(column) for column in post.T]) / post.shape[0]


def hinge_objective(w, b, X, y, C) -> float:
    margins = 1.0 - y * (X @ w + b)
    return float(0.5 * (w @ w + b * b) + C * np.maximum(margins, 0.0).sum())


def subgradient_svm(X, y, C, iters: int = 150_000) -> tuple[np.ndarray, float]:
    """Weighted-average projected subgradient descent on the hinge objective.

    Uses the 2/(t+2) step schedule with (t+1)-weighted averaging, valid for
    1-strongly-convex objectives; run long enough it lands within a fraction
    of the oracle tolerance.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, dim = X.shape
    augmented = np.hstack([X, np.ones((n, 1))])
    v = np.zeros(dim + 1)
    averaged = np.zeros(dim + 1)
    weight_sum = 0.0
    for t in range(iters):
        margins = 1.0 - y * (augmented @ v)
        active = margins > 0.0
        grad = v - C * (augmented[active] * y[active, None]).sum(axis=0)
        v = v - (2.0 / (t + 2.0)) * grad
        weight = t + 1.0
        weight_sum += weight
        averaged += weight * (v - averaged) / weight_sum
    return averaged[:dim], float(averaged[dim])

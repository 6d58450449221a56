"""Gaussian-mixture codebooks: class-balanced sampling, EM fitting, soft-assignment encoding.

The codebook is a diagonal-covariance mixture fit by expectation-maximization
after a k-means++ seeded k-means warm start. Encoding a descriptor set means
averaging component posteriors over its rows, producing one simplex vector
per segment.
"""
from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Polarity
from .descriptors import DescriptorSet

logger = logging.getLogger(__name__)

CODEBOOK_MAGIC = b"GMM1"
_CODEBOOK_HEADER = struct.Struct("<4sIIB")
_MODALITY_TAGS = {"audio": 0, "video": 1}
_TAG_MODALITIES = {v: k for k, v in _MODALITY_TAGS.items()}

_WEIGHT_FLOOR = 1e-12
_KMEANS_WARMUP_ITERS = 10


@dataclass(eq=False)
class GmmCodebook:
    """Diagonal-covariance Gaussian mixture serving as a soft vocabulary."""

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, dim)
    variances: np.ndarray  # (K, dim)
    modality: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        if self.modality not in _MODALITY_TAGS:
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.means.ndim != 2 or self.means.shape != self.variances.shape:
            raise ValueError("means and variances must be matching (K, dim) arrays")
        if self.weights.shape != (self.means.shape[0],):
            raise ValueError("weights must be a (K,) vector")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if (self.weights <= 0).any():
            raise ValueError("weights must be strictly positive")
        if (self.variances <= 0).any():
            raise ValueError("variances must be strictly positive")

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(eq=False)
class MidLevelVector:
    """Pooled posterior vector for one segment; all-zero only when no descriptors existed."""

    values: np.ndarray  # (K,)
    segment_id: str
    n_descriptors: int

    @property
    def is_empty(self) -> bool:
        return self.n_descriptors == 0


def sample_balanced(
    sets: Sequence[tuple[DescriptorSet, Polarity]], budget: int, seed: int
) -> np.ndarray:
    """Draw budget/2 descriptors per polarity class, uniformly and seeded.

    Sampling is without replacement whenever a class has enough rows;
    otherwise it falls back to replacement with a logged warning. Raises when
    a class contributes no descriptors at all.
    """
    if budget <= 0 or budget % 2 != 0:
        raise ValueError("budget must be a positive even number")
    pools: dict[Polarity, list[np.ndarray]] = {Polarity.POSITIVE: [], Polarity.NEGATIVE: []}
    dim = None
    for dset, label in sets:
        if dim is None:
            dim = dset.dim
        elif dset.dim != dim:
            raise ValueError(f"descriptor dimension mismatch: {dset.dim} vs {dim}")
        if len(dset):
            pools[label].append(dset.descriptors)

    rng = np.random.default_rng(seed)
    need = budget // 2
    parts = []
    for label in (Polarity.POSITIVE, Polarity.NEGATIVE):
        if not pools[label]:
            raise ValueError(f"no descriptors available for class {label.name.lower()}")
        pool = np.concatenate(pools[label], axis=0)
        if len(pool) >= need:
            idx = rng.choice(len(pool), size=need, replace=False)
        else:
            logger.warning(
                "class %s has %d descriptors for a budget of %d; sampling with replacement",
                label.name.lower(),
                len(pool),
                need,
            )
            idx = rng.choice(len(pool), size=need, replace=True)
        parts.append(pool[idx])
    return np.concatenate(parts, axis=0, dtype=np.float64)  # no float32 copy of the whole sample


def _log_joint(codebook: GmmCodebook, data: np.ndarray) -> np.ndarray:
    """log(weight_k * N(x_n; mean_k, var_k)) for every row/component pair."""
    inv = 1.0 / codebook.variances
    const = (
        -0.5 * (codebook.dim * math.log(2.0 * math.pi) + np.log(codebook.variances).sum(axis=1))
        + np.log(codebook.weights)
    )
    maha = (
        (data * data) @ inv.T
        - 2.0 * data @ (codebook.means * inv).T
        + (codebook.means * codebook.means * inv).sum(axis=1)
    )
    return const[None, :] - 0.5 * maha


def _logsumexp_rows(values: np.ndarray) -> np.ndarray:
    peak = values.max(axis=1, keepdims=True)
    return peak[:, 0] + np.log(np.exp(values - peak).sum(axis=1))


def loglik(codebook: GmmCodebook, data: np.ndarray) -> float:
    """Total log-likelihood of the rows under the mixture (log-sum-exp, no underflow)."""
    data = _as_matrix(data, codebook.dim)
    if data.shape[0] == 0:
        return 0.0
    return float(_logsumexp_rows(_log_joint(codebook, data)).sum())


def _as_matrix(data: np.ndarray, dim: int | None = None) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"dimension mismatch: data has {arr.shape[1]}, codebook has {dim}")
    return arr


def _kmeans_plus_plus(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            raise ValueError(f"fewer than {k} distinct rows; cannot place {k} components")
        centers[i] = data[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((data - centers[i]) ** 2).sum(axis=1))
    return centers


def _assign(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = (
        (data * data).sum(axis=1)[:, None]
        - 2.0 * data @ centers.T
        + (centers * centers).sum(axis=1)[None, :]
    )
    return d2.argmin(axis=1)


def initialize_codebook(
    data: np.ndarray,
    n_components: int,
    seed,
    variance_floor: float,
    modality: str = "audio",
) -> GmmCodebook:
    """Seeded k-means++ plus a short k-means refinement, turned into mixture parameters.

    ``seed`` is anything ``numpy.random.default_rng`` accepts (int or sequence).
    """
    data = _as_matrix(data)
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    centers = _kmeans_plus_plus(data, n_components, rng)
    for _ in range(_KMEANS_WARMUP_ITERS):
        assign = _assign(data, centers)
        counts = np.bincount(assign, minlength=n_components)
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, data)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]

    assign = _assign(data, centers)
    counts = np.bincount(assign, minlength=n_components)
    sq_sums = np.zeros_like(centers)
    np.add.at(sq_sums, assign, data * data)
    global_var = np.maximum(data.var(axis=0), variance_floor)
    variances = np.tile(global_var, (n_components, 1))
    nonempty = counts > 0
    variances[nonempty] = np.maximum(
        sq_sums[nonempty] / counts[nonempty, None] - centers[nonempty] ** 2, variance_floor
    )
    weights = np.maximum(counts / n, _WEIGHT_FLOOR)
    weights = weights / weights.sum()
    return GmmCodebook(weights=weights, means=centers, variances=variances, modality=modality)


def em_step(
    codebook: GmmCodebook, data: np.ndarray, variance_floor: float
) -> tuple[GmmCodebook, float]:
    """One EM iteration.

    Returns the updated codebook and the log-likelihood of the data under the
    *incoming* parameters, so consecutive returned values are nondecreasing.
    """
    data = _as_matrix(data, codebook.dim)
    n = data.shape[0]
    joint = _log_joint(codebook, data)
    norm = _logsumexp_rows(joint)
    resp = np.exp(joint - norm[:, None])

    nk = resp.sum(axis=0)
    safe = np.maximum(nk, _WEIGHT_FLOOR)
    means = (resp.T @ data) / safe[:, None]
    second = (resp.T @ (data * data)) / safe[:, None]
    variances = np.maximum(second - means * means, variance_floor)
    weights = np.maximum(nk / n, _WEIGHT_FLOOR)
    weights = weights / weights.sum()
    updated = GmmCodebook(weights=weights, means=means, variances=variances, modality=codebook.modality)
    return updated, float(norm.sum())


def fit_gmm(
    data: np.ndarray,
    n_components: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-5,
    variance_floor_scale: float = 1e-4,
    modality: str = "audio",
    n_init: int = 3,
) -> GmmCodebook:
    """Fit a diagonal-covariance mixture by EM.

    Runs ``n_init`` seeded restarts and keeps the one with the highest final
    log-likelihood, guarding against bad initializations. Each run stops after
    ``max_iters`` iterations or when the relative log-likelihood gain drops
    below ``tol``. The variance floor is
    ``variance_floor_scale * mean(per-dimension data variance)``. Identical
    seeds and data give bit-identical codebooks.
    """
    data = _as_matrix(data)
    if n_components < 1:
        raise ValueError("n_components must be at least 1")
    if n_init < 1:
        raise ValueError("n_init must be at least 1")
    if data.shape[0] < 10 * n_components:
        raise ValueError(
            f"need at least {10 * n_components} rows to fit {n_components} components, got {data.shape[0]}"
        )
    if not np.isfinite(data).all():
        raise ValueError("data must be finite")
    variance_floor = variance_floor_scale * float(data.var(axis=0).mean())
    if variance_floor <= 0.0:
        raise ValueError("degenerate data: zero variance in every dimension")

    best: GmmCodebook | None = None
    best_ll = -np.inf
    for restart in range(n_init):
        codebook = initialize_codebook(
            data, n_components, [seed, restart], variance_floor, modality
        )
        previous = -np.inf
        ll = -np.inf
        for _ in range(max_iters):
            codebook, ll = em_step(codebook, data, variance_floor)
            if np.isfinite(previous) and ll - previous < tol * abs(previous):
                break
            previous = ll
        if ll > best_ll:
            best, best_ll = codebook, ll
    assert best is not None
    return best


def encode(codebook: GmmCodebook, dset: DescriptorSet) -> MidLevelVector:
    """Average the per-descriptor component posteriors into one simplex vector.

    The result is independent of descriptor order (exact, via compensated
    column sums). Empty sets encode to the all-zero vector and are flagged
    through ``n_descriptors``.
    """
    if dset.dim != codebook.dim:
        raise ValueError(f"dimension mismatch: descriptors {dset.dim}, codebook {codebook.dim}")
    n = len(dset)
    if n == 0:
        return MidLevelVector(values=np.zeros(codebook.n_components), segment_id=dset.segment_id, n_descriptors=0)
    data = dset.descriptors.astype(np.float64)
    joint = _log_joint(codebook, data)
    post = np.exp(joint - _logsumexp_rows(joint)[:, None])
    pooled = np.array([math.fsum(post[:, k]) for k in range(codebook.n_components)]) / n
    return MidLevelVector(values=pooled, segment_id=dset.segment_id, n_descriptors=n)


def write_codebook(path: str | Path, codebook: GmmCodebook) -> None:
    with Path(path).open("wb") as fh:
        fh.write(
            _CODEBOOK_HEADER.pack(
                CODEBOOK_MAGIC, codebook.n_components, codebook.dim, _MODALITY_TAGS[codebook.modality]
            )
        )
        fh.write(np.ascontiguousarray(codebook.weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(codebook.means, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(codebook.variances, dtype="<f8").tobytes())


def read_codebook(path: str | Path) -> GmmCodebook:
    data = Path(path).read_bytes()
    if len(data) < _CODEBOOK_HEADER.size or data[:4] != CODEBOOK_MAGIC:
        raise ValueError(f"{path}: not a codebook file")
    _, k, dim, tag = _CODEBOOK_HEADER.unpack_from(data)
    if tag not in _TAG_MODALITIES:
        raise ValueError(f"{path}: unknown modality tag {tag}")
    offset = _CODEBOOK_HEADER.size
    expected = 8 * (k + 2 * k * dim)
    body = data[offset : offset + expected]
    if len(body) != expected:
        raise ValueError(f"{path}: truncated codebook payload")
    floats = np.frombuffer(body, dtype="<f8")
    weights = floats[:k].copy()
    means = floats[k : k + k * dim].reshape(k, dim).copy()
    variances = floats[k + k * dim :].reshape(k, dim).copy()
    return GmmCodebook(weights=weights, means=means, variances=variances, modality=_TAG_MODALITIES[tag])

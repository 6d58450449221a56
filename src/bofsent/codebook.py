"""Gaussian-mixture codebooks: class-balanced sampling, EM fitting, soft-assignment encoding.

The codebook is a diagonal-covariance mixture fit by expectation-maximization
after a k-means++ seeded k-means warm start. Encoding a descriptor set means
averaging component posteriors over its rows, producing one simplex vector
per segment.

A class with too few descriptors for its half of the budget is drawn with
replacement; its draw is kept as the distinct rows drawn plus how often each
was drawn. Seeding, the k-means warm start, EM and the log-likelihood take
those draw counts as integer row weights, so fitting on ``(rows, counts)`` is
fitting on ``np.repeat(rows, counts, axis=0)`` without building it, and unit
counts give the bits of an unweighted fit. EM, the log-likelihood and encoding
share one weighting rule: ``_block_posteriors`` scales each row by its count.

EM, the log-likelihood, k-means assignment and encoding walk their rows in
blocks of ``BLOCK`` rows. A block's log joint is one matrix product of
``[x², x]`` against a ``(2·dim, K)`` parameter matrix, and EM accumulates its
sufficient statistics (N_k, Σγx, Σγx²) block by block, so working memory
grows with ``BLOCK * K``, not with the sample. The block size is fixed, so
results do not depend on anything but the inputs.
"""
from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .atomic import atomic_open
from .corpus import Polarity
from .descriptors import DescriptorSet

logger = logging.getLogger(__name__)

CODEBOOK_MAGIC = b"GMM1"
_CODEBOOK_HEADER = struct.Struct("<4sIIB")
_MODALITY_TAGS = {"audio": 0, "video": 1}
_TAG_MODALITIES = {v: k for k, v in _MODALITY_TAGS.items()}

_WEIGHT_FLOOR = 1e-12
_KMEANS_WARMUP_ITERS = 10

# Rows per block in EM, log-likelihood, k-means and encoding: 2 MB of (BLOCK, K)
# float64 posteriors at K=256. 2048 rows was slightly faster, but its 2 MB block of
# 64-d [x², x] features, once freed, raised glibc's malloc mmap threshold, so
# the next extraction's arrays stayed resident on the heap (+4 MB peak RSS).
BLOCK = 1024

# The log joint less its row maximum is clamped at _LOG_FLOOR before exp, so
# every posterior is at least exp(-600) ~ 3e-261 times its row's largest. That
# is far below the rounding of the row's sum, and it keeps exp and the M-step
# matrix product off subnormal numbers, which slow them by an order of magnitude.
_LOG_FLOOR = -600.0


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


def sample_balanced(
    sets: Iterable[tuple[DescriptorSet, Polarity]], budget: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw budget/2 descriptors per polarity class, uniformly and seeded; returns ``(rows, counts)``.

    A class with enough rows is sampled without replacement: its rows come in
    draw order, each with count 1. A class with fewer falls back to sampling
    with replacement, with a logged warning, and contributes the pool rows it
    drew at least once, in pool order, each with its draw count; no
    budget-sized copy of it is built. ``np.repeat(rows, counts, axis=0)`` is
    the drawn sample and ``counts`` sums to ``budget``. Each class's rows
    available, drawn and kept are logged at INFO. Raises when a class
    contributes no descriptors at all.
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

    for label, arrays in pools.items():
        if not arrays:
            raise ValueError(f"no descriptors available for class {label.name.lower()}")

    rng = np.random.default_rng(seed)
    need = budget // 2
    picks = []
    for label, arrays in pools.items():
        available = sum(len(array) for array in arrays)
        if available >= need:
            idx = rng.choice(available, size=need, replace=False)
            counts = np.ones(need, dtype=np.int64)
        else:
            logger.warning(
                "class %s has %d descriptors for a budget of %d; sampling with replacement",
                label.name.lower(),
                available,
                need,
            )
            drawn = np.bincount(rng.choice(available, size=need, replace=True), minlength=available)
            idx = np.flatnonzero(drawn)
            counts = drawn[idx]
        logger.info(
            "class %s: %d descriptors available, %d drawn, %d rows kept",
            label.name.lower(), available, need, len(idx),
        )
        picks.append((idx, counts))

    # Filled BLOCK rows at a time: no float32 copy of a class's draw and no
    # second float64 copy of the whole sample.
    rows = np.empty((sum(len(idx) for idx, _ in picks), dim))
    offset = 0
    for arrays, (idx, _) in zip(pools.values(), picks):
        pool = np.concatenate(arrays, axis=0)
        for start in range(0, len(idx), BLOCK):
            rows[offset + start : offset + min(start + BLOCK, len(idx))] = pool[idx[start : start + BLOCK]]
        offset += len(idx)
    return rows, np.concatenate([counts for _, counts in picks])


def _joint_terms(codebook: GmmCodebook) -> tuple[np.ndarray, np.ndarray]:
    """``(matrix, const)`` with log(weight_k * N(x; mean_k, var_k)) = ``[x², x] @ matrix + const``.

    ``matrix`` is ``(2·dim, K)``: ``-1/(2 var)`` over ``mean/var``.
    """
    inv = 1.0 / codebook.variances
    matrix = np.ascontiguousarray(np.concatenate([-0.5 * inv, codebook.means * inv], axis=1).T)
    const = np.log(codebook.weights) - 0.5 * (
        codebook.dim * math.log(2.0 * math.pi)
        + np.log(codebook.variances).sum(axis=1)
        + (codebook.means * codebook.means * inv).sum(axis=1)
    )
    return matrix, const


def _block_posteriors(
    rows: np.ndarray, matrix: np.ndarray, const: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features ``[x², x]``, posteriors and log normalisers of one row block, each row's scaled by its count.

    The log joint is one matrix product; the posteriors are computed in place
    over it with a single ``exp``, floored at ``exp(_LOG_FLOOR)`` times the
    row's largest, and divided by ``total / counts[i]``, so row i's sum to its
    count. Its log normaliser is its log-likelihood (the log-sum-exp of its
    joint) times its count. A count of 1 keeps the unweighted bits.
    """
    dim = rows.shape[1]
    feats = np.empty((rows.shape[0], 2 * dim))
    feats[:, dim:] = rows
    np.square(feats[:, dim:], out=feats[:, :dim])
    post = feats @ matrix
    post += const
    peak = post.max(axis=1, keepdims=True)
    post -= peak
    np.maximum(post, _LOG_FLOOR, out=post)
    np.exp(post, out=post)
    total = post.sum(axis=1, keepdims=True)
    post /= total / counts[:, None]
    return feats, post, counts * (peak[:, 0] + np.log(total[:, 0]))


def _as_matrix(data: np.ndarray, dim: int | None = None) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"dimension mismatch: data has {arr.shape[1]}, codebook has {dim}")
    return arr


def _row_counts(counts: np.ndarray | None, n: int) -> np.ndarray:
    """The ``(n,)`` integer draw counts of ``n`` rows, all ones when ``counts`` is None."""
    if counts is None:
        return np.ones(n, dtype=np.int64)
    counts = np.asarray(counts)
    if counts.shape != (n,) or not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"counts must be {n} integers, one per row")
    if n and counts.min() < 1:
        raise ValueError("counts must be at least 1")
    return counts


def _column_variance(data: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """Per-column variance of the rows, each repeated ``counts[i]`` times, without a sample-sized temporary.

    With unit counts this is ``data.var(axis=0)`` bit for bit: rows are
    weighted before they are summed, in the order ``var`` sums them. numpy sums
    a C-ordered matrix of two or more columns down axis 0 row after row, so
    each block is summed below the running total; other shapes take ``var``'s
    whole-array route.
    """
    n, dim = data.shape
    counts = _row_counts(counts, n)
    total = counts.sum()
    if dim < 2 or not data.flags.c_contiguous:
        weights = counts[:, None]
        dev = data - np.add.reduce(data * weights, axis=0, keepdims=True) / total
        np.multiply(dev, dev, out=dev)
        dev *= weights
        return np.add.reduce(dev, axis=0) / total
    buf = np.zeros((min(n, BLOCK) + 1, dim))  # row 0 holds the running total
    for start in range(0, n, BLOCK):
        rows = buf[1 : 1 + min(BLOCK, n - start)]
        np.multiply(data[start : start + len(rows)], counts[start : start + len(rows), None], out=rows)
        buf[0] = np.add.reduce(buf[: 1 + len(rows)], axis=0)
    mean = buf[0] / total
    buf[0] = 0.0
    for start in range(0, n, BLOCK):
        rows = buf[1 : 1 + min(BLOCK, n - start)]
        np.square(np.subtract(data[start : start + len(rows)], mean, out=rows), out=rows)
        rows *= counts[start : start + len(rows), None]
        buf[0] = np.add.reduce(buf[: 1 + len(rows)], axis=0)
    return buf[0] / total


# k-means++ seeding skips the rows a new center provably cannot move (Elkan, ICML
# 2003; Raff, IJCAI 2021). Each row keeps the center that set its d2 (``owner``)
# and a reach 2(1+δ)·√(d2 + dim·tiny). By the triangle inequality a row x lies
# at least ‖c − owner‖ − ‖x − owner‖ from a new center c, so where
# ‖c − owner‖ ≥ reach the exact distance is at least (1+2δ)·√d2. A computed
# squared distance is within a factor 1 ± (dim+2)·2^-53 of the exact one, plus
# at most dim·2^-1075 from squares that underflow; δ and the dim·tiny term
# cover both many times over. The skipped row's computed distance to c is
# therefore not below its d2, and the full pass would have kept d2 as it is.
# The first center's pass computes every row (reach is infinite); after it,
# every d2 is finite, or ``rng.choice`` rejects the NaN probabilities.
_SEED_SLACK = 1e-6


def _kmeans_plus_plus(
    data: np.ndarray, k: int, rng: np.random.Generator, counts: np.ndarray | None = None
) -> np.ndarray:
    """k-means++ centers of the rows, each repeated ``counts[i]`` times (default once).

    The first center is draw number ``rng.integers(counts.sum())`` of the
    repeated rows, and each later row is drawn with probability ∝ counts·d2:
    with unit counts, the draws of the unweighted seeding.
    """
    # Distances are exact sums of (x - c)²: duplicates of a center must read 0,
    # which the "distinct rows" check depends on.
    n, dim = data.shape
    counts = _row_counts(counts, n)
    centers = np.empty((k, dim))
    centers[0] = data[np.searchsorted(np.cumsum(counts), rng.integers(counts.sum()), side="right")]
    d2 = np.full(n, np.inf)
    mass = np.full(n, np.inf)  # counts · d2: the unnormalised draw probabilities
    owner = np.zeros(n, dtype=np.intp)
    reach = np.full(n, np.inf)
    floor = dim * np.finfo(np.float64).tiny
    rows = np.empty((min(n, BLOCK), dim))
    computed = 0
    for i in range(1, k):
        gap = centers[:i] - centers[i - 1]
        sep = np.sqrt(np.einsum("ij,ij->i", gap, gap))
        candidates = np.flatnonzero(sep[owner] < reach)
        computed += len(candidates)
        for start in range(0, len(candidates), BLOCK):
            idx = candidates[start : start + BLOCK]
            m = len(idx)
            np.take(data, idx, axis=0, out=rows[:m], mode="clip")  # in range; "clip" skips a copy
            np.subtract(rows[:m], centers[i - 1], out=rows[:m])
            before = d2[idx]
            after = np.minimum(before, np.einsum("ij,ij->i", rows[:m], rows[:m]))
            d2[idx] = after
            changed = after != before
            moved = idx[changed]
            owner[moved] = i - 1
            reach[moved] = 2.0 * (1.0 + _SEED_SLACK) * np.sqrt(after[changed] + floor)
            mass[moved] = counts[moved] * after[changed]
        total = mass.sum()
        if total <= 0.0:
            raise ValueError(f"fewer than {k} distinct rows; cannot place {k} components")
        centers[i] = data[rng.choice(n, p=mass / total)]
    logger.debug(
        "k-means++ seeding (K=%d, n=%d): computed %d of %d row distances", k, n, computed, n * (k - 1)
    )
    return centers


def _assign(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for each row: argmin of |c|² - 2 x·c, block by block."""
    neg_twice = -2.0 * centers.T
    norms = (centers * centers).sum(axis=1)
    n = data.shape[0]
    assign = np.empty(n, dtype=np.intp)
    scores = np.empty((min(n, BLOCK), centers.shape[0]))
    for start in range(0, n, BLOCK):
        block = scores[: min(BLOCK, n - start)]
        np.matmul(data[start : start + BLOCK], neg_twice, out=block)
        block += norms
        block.argmin(axis=1, out=assign[start : start + BLOCK])
    return assign


def _cluster_sums(assign: np.ndarray, columns, k: int) -> np.ndarray:
    """``(k, number of columns)`` per-cluster sums of each of the 1-D ``columns``."""
    return np.stack([np.bincount(assign, weights=col, minlength=k) for col in columns], axis=1)


def initialize_codebook(
    data: np.ndarray,
    n_components: int,
    seed,
    variance_floor: float,
    modality: str = "audio",
    counts: np.ndarray | None = None,
) -> GmmCodebook:
    """Seeded k-means++ plus a short k-means refinement, turned into mixture parameters.

    ``seed`` is anything ``numpy.random.default_rng`` accepts (int or sequence).
    Row i counts ``counts[i]`` times (once when ``counts`` is omitted).
    """
    data = _as_matrix(data)
    counts = _row_counts(counts, data.shape[0])
    rng = np.random.default_rng(seed)
    centers = _kmeans_plus_plus(data, n_components, rng, counts)
    for _ in range(_KMEANS_WARMUP_ITERS):
        assign = _assign(data, centers)
        sizes = np.bincount(assign, weights=counts, minlength=n_components)
        sums = _cluster_sums(assign, (col * counts for col in data.T), n_components)
        nonempty = sizes > 0
        centers[nonempty] = sums[nonempty] / sizes[nonempty, None]

    assign = _assign(data, centers)
    sizes = np.bincount(assign, weights=counts, minlength=n_components)
    sq_sums = _cluster_sums(assign, (col * col * counts for col in data.T), n_components)
    nonempty = sizes > 0
    variances = np.empty_like(centers)
    variances[nonempty] = np.maximum(
        sq_sums[nonempty] / sizes[nonempty, None] - centers[nonempty] ** 2, variance_floor
    )
    if not nonempty.all():  # an empty cluster takes the whole sample's variance
        variances[~nonempty] = np.maximum(_column_variance(data, counts), variance_floor)
    weights = np.maximum(sizes / counts.sum(), _WEIGHT_FLOOR)
    weights = weights / weights.sum()
    return GmmCodebook(weights=weights, means=centers, variances=variances, modality=modality)


def em_step(
    codebook: GmmCodebook, data: np.ndarray, variance_floor: float, counts: np.ndarray | None = None
) -> tuple[GmmCodebook, float]:
    """One EM iteration over the rows, row i counted ``counts[i]`` times (once by default).

    Returns the updated codebook and the log-likelihood of the data under the
    *incoming* parameters, so consecutive returned values are nondecreasing.
    The sufficient statistics N_k, Σγx and Σγx² are accumulated over blocks
    of ``BLOCK`` rows from the count-scaled posteriors of ``_block_posteriors``,
    so a class drawn with replacement costs its distinct rows, not its draws.
    """
    data = _as_matrix(data, codebook.dim)
    n, dim = data.shape
    counts = _row_counts(counts, n)
    terms = _joint_terms(codebook)
    nk = np.zeros(codebook.n_components)
    stats = np.zeros((codebook.n_components, 2 * dim))  # [Σγx², Σγx] per component
    norms = np.empty(n)
    for start in range(0, n, BLOCK):
        block = slice(start, start + BLOCK)
        feats, resp, norms[block] = _block_posteriors(data[block], *terms, counts[block])
        nk += resp.sum(axis=0)
        stats += resp.T @ feats

    safe = np.maximum(nk, _WEIGHT_FLOOR)[:, None]
    means = stats[:, dim:] / safe
    variances = np.maximum(stats[:, :dim] / safe - means * means, variance_floor)
    weights = np.maximum(nk / counts.sum(), _WEIGHT_FLOOR)
    weights = weights / weights.sum()
    updated = GmmCodebook(weights=weights, means=means, variances=variances, modality=codebook.modality)
    return updated, float(norms.sum())


def fit_gmm(
    data: np.ndarray,
    n_components: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-5,
    variance_floor_scale: float = 1e-4,
    modality: str = "audio",
    n_init: int = 3,
    counts: np.ndarray | None = None,
) -> GmmCodebook:
    """Fit a diagonal-covariance mixture by EM.

    Row i of ``data`` counts ``counts[i]`` times (once when ``counts`` is
    omitted): a class that ``sample_balanced`` drew with replacement is fitted
    on its distinct rows, weighted by their draw counts. The "10 rows per
    component" check reads the total count; the "fewer than K distinct rows"
    check, the finiteness check and the zero-variance check read the rows.

    Runs ``n_init`` seeded restarts and keeps the one with the highest final
    log-likelihood, guarding against bad initializations. Each run stops after
    ``max_iters`` iterations or when the relative log-likelihood gain drops
    below ``tol``; each restart is logged at INFO, and so is the kept one,
    unless it stopped on ``max_iters``, which is logged at WARNING. The
    variance floor is ``variance_floor_scale * mean(per-dimension data
    variance)``. Identical seeds and data give bit-identical codebooks. No
    restart with a finite log-likelihood, as under a NaN or infinite floor,
    raises ``ValueError``.
    """
    data = _as_matrix(data)
    counts = _row_counts(counts, data.shape[0])
    for name, value in (("n_components", n_components), ("n_init", n_init), ("max_iters", max_iters)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1")
    total = counts.sum()
    if total < 10 * n_components:
        raise ValueError(f"need at least {10 * n_components} rows to fit {n_components} components, got {total}")
    if not all(np.isfinite(data[start : start + BLOCK]).all() for start in range(0, data.shape[0], BLOCK)):
        raise ValueError("data must be finite")
    variance_floor = variance_floor_scale * float(_column_variance(data, counts).mean())
    if variance_floor <= 0.0:
        raise ValueError("degenerate data: zero variance in every dimension")

    best: GmmCodebook | None = None
    best_ll = -np.inf
    best_restart = 0
    best_stop = "tol"
    for restart in range(n_init):
        codebook = initialize_codebook(
            data, n_components, [seed, restart], variance_floor, modality, counts
        )
        previous = -np.inf
        stop = "max_iters"
        for iters in range(1, max_iters + 1):
            codebook, ll = em_step(codebook, data, variance_floor, counts)
            if np.isfinite(previous) and ll - previous < tol * abs(previous):
                stop = "tol"
                break
            previous = ll
        logger.info(
            "%s codebook (K=%d) restart %d/%d: %d EM iterations, log-likelihood %.6f, stopped on %s",
            modality, n_components, restart + 1, n_init, iters, ll, stop,
        )
        if ll > best_ll:
            best, best_ll, best_restart, best_stop = codebook, ll, restart, stop
    if best is None:
        raise ValueError(f"no restart reached a finite log-likelihood (variance floor {variance_floor})")
    kept = "%s codebook: kept restart %d/%d (log-likelihood %.6f)"
    if best_stop == "max_iters":
        logger.warning(
            kept + ", which stopped on max_iters=%d before its relative gain fell below tol=%g",
            modality, best_restart + 1, n_init, best_ll, max_iters, tol,
        )
    else:
        logger.info(kept, modality, best_restart + 1, n_init, best_ll)
    return best


def encode(codebook: GmmCodebook, dset: DescriptorSet) -> MidLevelVector:
    """Average the per-descriptor component posteriors into one simplex vector.

    The distinct descriptor rows are put in sorted order (``np.unique``) and
    their posteriors, computed ``BLOCK`` rows at a time and scaled by each
    row's count as in EM, are summed. The result is therefore bit-for-bit
    independent of descriptor order, even though a matrix product may round a
    row differently depending on where in the block it sits. Empty sets encode
    to the all-zero vector and are flagged through ``n_descriptors``.
    """
    if dset.dim != codebook.dim:
        raise ValueError(f"dimension mismatch: descriptors {dset.dim}, codebook {codebook.dim}")
    n = len(dset)
    pooled = np.zeros(codebook.n_components)
    if n == 0:
        return MidLevelVector(values=pooled, segment_id=dset.segment_id, n_descriptors=0)
    rows, counts = np.unique(dset.descriptors, axis=0, return_counts=True)
    terms = _joint_terms(codebook)
    for start in range(0, rows.shape[0], BLOCK):
        block = slice(start, start + BLOCK)
        pooled += _block_posteriors(rows[block], *terms, counts[block])[1].sum(axis=0)
    return MidLevelVector(values=pooled / n, segment_id=dset.segment_id, n_descriptors=n)


def write_codebook(path: str | Path, codebook: GmmCodebook) -> None:
    with atomic_open(path) as fh:
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
    body = data[_CODEBOOK_HEADER.size :]
    if len(body) != 8 * (k + 2 * k * dim):
        raise ValueError(f"{path}: expected {8 * (k + 2 * k * dim)} codebook bytes, got {len(body)}")
    floats = np.frombuffer(body, dtype="<f8")
    weights = floats[:k].copy()
    means = floats[k : k + k * dim].reshape(k, dim).copy()
    variances = floats[k + k * dim :].reshape(k, dim).copy()
    return GmmCodebook(weights=weights, means=means, variances=variances, modality=_TAG_MODALITIES[tag])

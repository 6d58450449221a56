"""Gaussian-mixture codebooks: class-balanced sampling, EM fitting, soft-assignment encoding.

The codebook is a diagonal-covariance mixture fit by expectation-maximization
after a k-means++ seeded k-means warm start. Encoding a descriptor set means
averaging component posteriors over its rows, producing one simplex vector
per segment.

Each class's draw is kept as the pool rows it drew, in pool order, plus how
often each was drawn: counts of 1 for a class with enough rows, draw counts
for a class with too few, which is drawn with replacement. Seeding, the
k-means warm start, EM and the log-likelihood take those draw counts as
integer row weights, so fitting on ``(rows, counts)`` is fitting on
``np.repeat(rows, counts, axis=0)`` without building it, and unit counts give
the bits of an unweighted fit. ``_block_posteriors`` weights row i by
count/normaliser; encoding gives every row a count of 1.

EM, the log-likelihood, k-means assignment and encoding walk their rows in
blocks of ``BLOCK`` rows. A block's features ``[x²; x; 1]`` and posteriors
are component-major, one column per row: the log joint is one product
``termsᵀ @ feats`` with the ``(2·dim+1, K)`` matrix ``GmmCodebook.terms``
(built once; the parameters are read-only, so it cannot go stale), and each
row's peak and total are reductions down axis 0, which numpy vectorises
across the rows, where over a short last axis such as K=16 it would reduce
one row at a time. The posteriors stay unnormalised: EM scales the features'
columns by the row weights, so one product ``feats @ postᵀ`` yields
``[Σγx²; Σγx; N_k]``, and encoding pools with ``post @ weights``. k-means
scores ``[x, 1]`` against ``[-2cᵀ; |c|²]`` row-major, so its argmin reads
each row's scores contiguously. One block is alive at a time, so working
memory grows with ``BLOCK * K``, not with the sample; the block size is
fixed, so results depend only on the inputs.
"""
from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .atomic import names_file, read_framed, split_body, write_framed
from .corpus import Polarity
from .descriptors import DescriptorSet

logger = logging.getLogger(__name__)

CODEBOOK_MAGIC = b"GMM1"
_CODEBOOK_HEADER = struct.Struct("<4sIIB")
_MODALITY_TAGS = ("audio", "video")  # a codebook file's modality tag indexes this

MIN_ROWS_PER_COMPONENT = 10  # sampled rows a fit needs per component; PipelineConfig checks its budget by it
_WEIGHT_FLOOR = 1e-12
_KMEANS_WARMUP_ITERS = 10
# Seeded restarts per fit; the one with the highest final log-likelihood is kept.
_RESTARTS = 3

# Rows per block in EM, log-likelihood, k-means and encoding: 1 MB of (K, BLOCK)
# float64 posteriors at K=256, half of a 2 MB L2 cache. The M-step product
# feats @ post.T sums over the block's rows; on 3-d rows at K=256 it took 6.5 ms
# per 16k rows in 1024-row blocks against 2.3 ms in 512-row ones (one OpenBLAS
# thread, Haswell kernels). At K=16, 512 rows cost ~1 ms more per 20k-row audio
# EM step than 1024 in per-block overhead. 2048 rows' 2 MB block of 64-d
# features, once freed, raised glibc's malloc mmap threshold, so the next
# extraction's arrays stayed resident on the heap (+4 MB peak RSS).
BLOCK = 512

# The log joint less its row maximum is clamped at _LOG_FLOOR before exp, so
# every posterior is at least exp(-600) ~ 3e-261 times its row's largest. That
# is far below the rounding of the row's sum, and it keeps exp and the M-step
# matrix product off subnormal numbers, which slow them by an order of magnitude.
_LOG_FLOOR = -600.0


@dataclass(eq=False)
class GmmCodebook:
    """Diagonal-covariance Gaussian mixture serving as a soft vocabulary.

    The parameters are read-only copies, so the joint terms built from them
    once, at construction, hold for the codebook's lifetime.
    """

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, dim)
    variances: np.ndarray  # (K, dim)
    modality: str
    terms: np.ndarray = field(init=False, repr=False)  # ``_joint_terms(self)``, (2·dim+1, K)

    def __post_init__(self):
        self.weights = _frozen(self.weights)
        self.means = _frozen(self.means)
        self.variances = _frozen(self.variances)
        if self.modality not in _MODALITY_TAGS:
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.means.ndim != 2 or self.means.shape != self.variances.shape or 0 in self.means.shape:
            raise ValueError(f"means and variances must be matching (K, dim) arrays, K, dim >= 1: {self.means.shape}")
        if self.weights.shape != (self.means.shape[0],):
            raise ValueError("weights must be a (K,) vector")
        if not all(np.isfinite(values).all() for values in (self.weights, self.means, self.variances)):
            raise ValueError("weights, means and variances must be finite")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if (self.weights <= 0).any():
            raise ValueError("weights must be strictly positive")
        if (self.variances <= 0).any():
            raise ValueError("variances must be strictly positive")
        # A finite mean far from 0 with a small variance overflows the joint terms,
        # and its component would drop out of encoding unseen: refused, not warned of.
        with np.errstate(all="ignore"):
            self.terms = _joint_terms(self)
        if not np.isfinite(self.terms).all():
            raise ValueError("joint terms must be finite: a mean is too far from 0 for its variance")
        self.terms.flags.writeable = False

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of ``values``."""
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(eq=False)
class MidLevelVector:
    """Pooled posterior vector for one segment; all-zero only when no descriptors existed."""

    values: np.ndarray  # (K,)
    n_descriptors: int


def sample_balanced(
    sets: Iterable[tuple[DescriptorSet, Polarity]], budget: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw budget/2 descriptors per polarity class, uniformly and seeded; returns ``(rows, counts)``.

    A class with enough rows is sampled without replacement; a class with
    fewer falls back to sampling with replacement, with a logged warning.
    Either way a class contributes the pool rows it drew at least once, in
    pool order, each with its draw count; no budget-sized copy of a draw is
    built. ``np.repeat(rows, counts, axis=0)`` is the drawn sample and
    ``counts`` sums to ``budget``. Each class's rows available, drawn and kept
    are logged at INFO. Raises when a class contributes no descriptors at all.
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
        if available < need:
            logger.warning(
                "class %s has %d descriptors for a budget of %d; sampling with replacement",
                label.name.lower(),
                available,
                need,
            )
        drawn = np.bincount(rng.choice(available, size=need, replace=available < need), minlength=available)
        idx = np.flatnonzero(drawn)
        logger.info(
            "class %s: %d descriptors available, %d drawn, %d rows kept",
            label.name.lower(), available, need, len(idx),
        )
        picks.append((idx, drawn[idx]))

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


def _joint_terms(codebook: GmmCodebook) -> np.ndarray:
    """The ``(2·dim+1, K)`` rows ``-1/(2 var); mean/var; const``: log(w_k N(x; μ_k, σ²_k)) = ``[x², x, 1] @ terms``."""
    dim = codebook.dim
    terms = np.empty((2 * dim + 1, codebook.n_components))
    inv = np.divide(1.0, codebook.variances.T, out=terms[:dim])
    np.multiply(codebook.means.T, inv, out=terms[dim:-1])
    terms[-1] = np.log(codebook.weights) - 0.5 * (
        dim * math.log(2.0 * math.pi)
        + np.log(codebook.variances).sum(axis=1)
        + (codebook.means.T * terms[dim:-1]).sum(axis=0)
    )
    inv *= -0.5
    return terms


def _block_posteriors(rows: np.ndarray, terms: np.ndarray, counts: np.ndarray | float) -> tuple[np.ndarray, ...]:
    """Features ``[x²; x; 1]``, unnormalised posteriors, row weights and log normalisers of one row block.

    Features ``(2·dim+1, m)`` and posteriors ``(K, m)`` are component-major:
    column i belongs to row i. The log joint is one matrix product, which
    reads ``terms`` transposed without a copy; the posteriors are computed in
    place over it with a single ``exp``, floored at ``exp(_LOG_FLOOR)`` times
    the column's largest, and left unnormalised: row i's weight
    ``counts[i] / total`` makes its column sum to its count. Its log
    normaliser is its log-likelihood (the log-sum-exp of its joint) times its
    count.
    """
    dim = rows.shape[1]
    feats = np.empty((2 * dim + 1, rows.shape[0]))
    feats[-1] = 1.0
    feats[dim:-1] = rows.T
    np.square(feats[dim:-1], out=feats[:dim])
    post = terms.T @ feats
    peak = post.max(axis=0)
    post -= peak
    np.maximum(post, _LOG_FLOOR, out=post)
    np.exp(post, out=post)
    total = post.sum(axis=0)
    return feats, post, counts / total, counts * (peak + np.log(total))


def _as_matrix(data: np.ndarray, dim: int | None = None) -> np.ndarray:
    """``data`` as a C-ordered float64 matrix, so no fit depends on the caller's memory layout."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"dimension mismatch: data has {arr.shape[1]}, codebook has {dim}")
    return arr


def _row_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """``counts`` checked as the ``(n,)`` integer draw counts, each at least 1, of ``n`` rows."""
    counts = np.asarray(counts)
    if counts.shape != (n,) or not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"counts must be {n} integers, one per row")
    if n and counts.min() < 1:
        raise ValueError("counts must be at least 1")
    return counts


def _column_variance(data: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-column variance of the rows, each repeated ``counts[i]`` times, without a sample-sized temporary.

    Rows are weighted, then each block is summed below the running total in a
    C-ordered buffer, so the bits do not depend on the layout of ``data``.
    numpy sums a C-ordered matrix of two or more columns down axis 0 row after
    row, so with unit counts this is ``var(axis=0)`` of the C-ordered rows bit
    for bit; a single column is summed pairwise within each block, which
    rounds differently from ``var``'s pairwise sum over all rows.
    """
    n, dim = data.shape
    total = counts.sum()
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


def _draw(p: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(len(p), p=p)`` bit for bit: numpy's inverse-CDF draw without its checks' passes over ``p``."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


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
# every d2 is finite, or their sum is not and the seeding raises.
_SEED_SLACK = 1e-6


def _kmeans_plus_plus(data: np.ndarray, k: int, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """k-means++ centers of the rows, each repeated ``counts[i]`` times.

    The first center is draw number ``rng.integers(counts.sum())`` of the
    repeated rows, and each later row is drawn with probability ∝ counts·d2:
    with unit counts, the draws of the unweighted seeding.
    """
    # Distances are exact sums of (x - c)²: duplicates of a center must read 0,
    # which the "distinct rows" check depends on.
    n, dim = data.shape
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
        if not np.isfinite(total):
            raise ValueError("data must be finite, and its squared distances must have a finite sum")
        if total <= 0.0:
            raise ValueError(f"fewer than {k} distinct rows; cannot place {k} components")
        centers[i] = data[_draw(mass / total, rng)]
    logger.debug(
        "k-means++ seeding (K=%d, n=%d): computed %d of %d row distances", k, n, computed, n * (k - 1)
    )
    return centers


def _assign(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for each row: argmin of ``[x, 1] @ [-2cᵀ; |c|²]``, block by block.

    The scores stay row-major: over a ``(K, m)`` block, ``argmin(axis=0)``
    copies the block first, which made this 2.3 times as slow on 16,000 3-d
    rows at K=256 (one OpenBLAS thread).
    """
    n, dim = data.shape
    terms = np.vstack([-2.0 * centers.T, (centers * centers).sum(axis=1)])
    assign = np.empty(n, dtype=np.intp)
    feats = np.ones((min(n, BLOCK), dim + 1))
    scores = np.empty((min(n, BLOCK), centers.shape[0]))
    for start in range(0, n, BLOCK):
        m = min(BLOCK, n - start)
        feats[:m, :dim] = data[start : start + m]
        np.matmul(feats[:m], terms, out=scores[:m])
        scores[:m].argmin(axis=1, out=assign[start : start + m])
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
    *,
    counts: np.ndarray,
) -> GmmCodebook:
    """Seeded k-means++ plus ``_KMEANS_WARMUP_ITERS`` Lloyd steps, turned into mixture parameters.

    The last step's clusters give the codebook: their count-weighted means,
    their variances about those means (floored) and their weights. A cluster
    that step leaves empty keeps its center and takes the whole sample's
    variance. ``seed`` is anything ``numpy.random.default_rng`` accepts (int
    or sequence). Row i counts ``counts[i]`` times.
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

    sq_sums = _cluster_sums(assign, (col * col * counts for col in data.T), n_components)
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
    codebook: GmmCodebook, data: np.ndarray, variance_floor: float, counts: np.ndarray
) -> tuple[GmmCodebook, float]:
    """One EM iteration over the rows, row i counted ``counts[i]`` times.

    Returns the updated codebook and the log-likelihood of the data under the
    *incoming* parameters, so consecutive returned values are nondecreasing.
    The sufficient statistics Σγx², Σγx and N_k are summed over blocks of
    ``BLOCK`` rows as one product of the features, scaled in place by the row
    weights of ``_block_posteriors``, with the posteriors: a class drawn with
    replacement costs its distinct rows, not its draws.
    """
    data = _as_matrix(data, codebook.dim)
    n, dim = data.shape
    counts = _row_counts(counts, n)
    stats = np.zeros((2 * dim + 1, codebook.n_components))  # [Σγx²; Σγx; N_k]
    norms = np.empty(n)
    for start in range(0, n, BLOCK):
        block = slice(start, start + BLOCK)
        feats, post, scale, norms[block] = _block_posteriors(data[block], codebook.terms, counts[block])
        feats *= scale
        stats += feats @ post.T
        del feats, post  # one block alive at a time

    safe = np.maximum(stats[-1], _WEIGHT_FLOOR)  # N_k
    means = (stats[dim:-1] / safe).T
    variances = np.maximum((stats[:dim] / safe).T - means * means, variance_floor)
    weights = np.maximum(stats[-1] / counts.sum(), _WEIGHT_FLOOR)
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
    *,
    counts: np.ndarray,
) -> GmmCodebook:
    """Fit a diagonal-covariance mixture by EM.

    Row i of ``data`` counts ``counts[i]`` times: a class that
    ``sample_balanced`` drew with replacement is fitted on its distinct rows,
    weighted by their draw counts. The ``MIN_ROWS_PER_COMPONENT`` check reads the
    total count; the "fewer than K distinct rows" check, the finiteness check
    and the zero-variance check read the rows.

    Runs ``_RESTARTS`` seeded restarts and keeps the one with the highest
    final log-likelihood, guarding against bad initializations. Each run stops
    after ``max_iters`` iterations or when the relative log-likelihood gain
    drops below ``tol``; each restart is logged at INFO, and so is the kept
    one, unless it stopped on ``max_iters``, which is logged at WARNING. The
    variance floor is ``variance_floor_scale * mean(per-dimension data
    variance)``; a floor that is not finite raises ``ValueError``, and so
    does a fit in which no restart reaches a finite log-likelihood. Identical
    seeds and data give bit-identical codebooks, whatever the memory layout of
    ``data``.
    """
    data = _as_matrix(data)
    counts = _row_counts(counts, data.shape[0])
    for name, value in (("n_components", n_components), ("max_iters", max_iters)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1")
    total = counts.sum()
    needed = MIN_ROWS_PER_COMPONENT * n_components
    if total < needed:
        raise ValueError(f"need at least {needed} rows to fit {n_components} components, got {total}")
    if not all(np.isfinite(data[start : start + BLOCK]).all() for start in range(0, data.shape[0], BLOCK)):
        raise ValueError("data must be finite")
    variance_floor = variance_floor_scale * float(_column_variance(data, counts).mean())
    if not math.isfinite(variance_floor):
        raise ValueError(f"variance floor must be finite, got {variance_floor}")
    if variance_floor <= 0.0:
        raise ValueError("degenerate data: zero variance in every dimension")

    best: GmmCodebook | None = None
    best_ll = -np.inf
    best_restart = 0
    best_stop = "tol"
    for restart in range(_RESTARTS):
        codebook = initialize_codebook(data, n_components, [seed, restart], variance_floor, modality, counts=counts)
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
            modality, n_components, restart + 1, _RESTARTS, iters, ll, stop,
        )
        if ll > best_ll:
            best, best_ll, best_restart, best_stop = codebook, ll, restart, stop
    if best is None:
        raise ValueError(f"no restart reached a finite log-likelihood (variance floor {variance_floor})")
    kept = "%s codebook: kept restart %d/%d (log-likelihood %.6f)"
    if best_stop == "max_iters":
        logger.warning(
            kept + ", which stopped on max_iters=%d before its relative gain fell below tol=%g",
            modality, best_restart + 1, _RESTARTS, best_ll, max_iters, tol,
        )
    else:
        logger.info(kept, modality, best_restart + 1, _RESTARTS, best_ll)
    return best


def encode(codebook: GmmCodebook, dset: DescriptorSet) -> MidLevelVector:
    """Average the per-descriptor component posteriors into one simplex vector.

    The descriptor rows are put in lexicographic order by one stable
    ``lexsort`` and their posteriors, computed ``BLOCK`` rows at a time, are
    summed with a count of 1 each. Rows that sort equal (equal values; -0.0
    and 0.0 compare equal) have equal posteriors, so the result is bit-for-bit
    independent of descriptor order, even though a matrix product may round a
    row differently depending on where in the block it sits. Empty sets encode
    to the all-zero vector and are flagged through ``n_descriptors``.
    """
    if dset.dim != codebook.dim:
        raise ValueError(f"dimension mismatch: descriptors {dset.dim}, codebook {codebook.dim}")
    n = len(dset)
    pooled = np.zeros(codebook.n_components)
    if n == 0:
        return MidLevelVector(values=pooled, n_descriptors=0)
    rows = dset.descriptors[np.lexsort(dset.descriptors.T[::-1])]
    for start in range(0, n, BLOCK):
        _, post, scale, _ = _block_posteriors(rows[start : start + BLOCK], codebook.terms, 1.0)
        pooled += post @ scale
    return MidLevelVector(values=pooled / n, n_descriptors=n)


def write_codebook(path: str | Path, codebook: GmmCodebook) -> None:
    fields = codebook.n_components, codebook.dim, _MODALITY_TAGS.index(codebook.modality)
    params = (np.asarray(part, dtype="<f8") for part in (codebook.weights, codebook.means, codebook.variances))
    write_framed(path, CODEBOOK_MAGIC, _CODEBOOK_HEADER, fields, *params)


@names_file
def read_codebook(path: str | Path) -> GmmCodebook:
    (k, dim, tag), body = read_framed(Path(path).read_bytes(), CODEBOOK_MAGIC, _CODEBOOK_HEADER)
    if tag >= len(_MODALITY_TAGS):
        raise ValueError(f"unknown modality tag {tag}")
    weights, means, variances = split_body(body, ("<f8", (k,)), ("<f8", (k, dim)), ("<f8", (k, dim)))
    return GmmCodebook(weights=weights, means=means, variances=variances, modality=_MODALITY_TAGS[tag])

"""Linear SVM training, cross-validated regularization search, confidence scoring.

The model is the L1-hinge SVM with the bias folded into the weight vector (the
feature matrix is augmented with a constant column, so the bias is regularized
along with the weights):

    min_{w,b}  0.5 * (||w||^2 + b^2) + C * sum_i max(0, 1 - y_i (w . x_i + b))

It is fitted through its dual by a deterministic primal-dual interior-point
method that stops at a stated relative duality gap, so training is bit-for-bit
reproducible. Confidence scores are signed margins min-max normalized with
bounds captured on the training set and clamped at test time.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .atomic import names_file, read_framed, split_body, write_framed
from .metrics import mean_rate

SVM_MAGIC = b"SVM1"
_SVM_HEADER = struct.Struct("<4sIdddd")

C_EXPONENT_MIN = -3
C_EXPONENT_MAX = 15

_STEP_TO_BOUNDARY = 0.99  # fraction of the way to the nearest bound taken per step
# Give up once the complementarity gap, which bounds the true gap in exact
# arithmetic, is this far below the target: rounding then holds the true gap up.
_STALL_FACTOR = 1e-3


def c_grid(exponent_min: int = C_EXPONENT_MIN, exponent_max: int = C_EXPONENT_MAX) -> tuple[float, ...]:
    """Powers of two 2^e for e in [exponent_min, exponent_max]; 19 values by default."""
    return tuple(2.0**e for e in range(exponent_min, exponent_max + 1))


def select_c(table: Sequence[tuple[float, float]]) -> float:
    """The C with the highest accuracy in a (C, accuracy) table; ties go to the smaller C."""
    return min(table, key=lambda row: (-row[1], row[0]))[0]


class SvmSolve(NamedTuple):
    """How one dual solve ended: Newton iterations, final relative duality gap, and whether it met the tolerance."""

    iterations: int
    gap: float
    converged: bool


@dataclass(eq=False)
class LinearSvmModel:
    """Trained separator plus the score-normalization bounds learned at fit time.

    ``solve`` records how training ended; a model read from disk has none.
    """

    w: np.ndarray
    b: float
    C: float
    score_min: float
    score_max: float
    solve: SvmSolve | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 1 or self.w.size == 0:
            raise ValueError("w must be a non-empty vector")
        if not (np.isfinite(self.w).all() and np.isfinite([self.b, self.score_min, self.score_max]).all()):
            raise ValueError("w, b and the normalization bounds must be finite")
        _check_c(self.C)
        if not self.score_min < self.score_max:
            raise ValueError("degenerate normalization bounds (score_min >= score_max)")

    @property
    def dim(self) -> int:
        return self.w.size


def _validate_problem(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checked ``(X, y)``, ``X`` C-ordered float64 so that no fit depends on its memory layout."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    if y.shape != (X.shape[0],):
        raise ValueError("y must have one entry per row of X")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if not np.isfinite(X).all():
        raise ValueError("X holds NaN or infinite values")
    if not (set(np.unique(y)) <= {-1.0, 1.0}):
        raise ValueError("labels must be -1 or +1")
    if (y > 0).all() or (y < 0).all():
        raise ValueError("both classes must be present")
    return X, y


def _check_c(C: float) -> None:
    if not (np.isfinite(C) and C > 0):
        raise ValueError(f"C must be finite and positive, got {C!r}")


def _signed_rows(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dual's rows z_i = y_i * [x_i, 1]."""
    return np.hstack([X, np.ones((X.shape[0], 1))]) * y[:, None]


def _primal(v: np.ndarray, signed: np.ndarray, C: float) -> float:
    return float(0.5 * (v @ v) + C * np.maximum(1.0 - signed @ v, 0.0).sum())


def svm_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, C: float) -> float:
    """Primal objective value (regularizer includes the bias term)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    return _primal(np.append(w, b), _signed_rows(X, np.asarray(y, dtype=np.float64)), C)


def _max_step(point, direction) -> float:
    """Largest step along ``direction`` that keeps every array of ``point`` nonnegative."""
    x, dx = np.concatenate(point), np.concatenate(direction)
    down = dx < 0
    return float((-x[down] / dx[down]).min(initial=np.inf))


def _solve_dual(signed: np.ndarray, C: float, max_iters: int, tol: float) -> tuple[np.ndarray, SvmSolve]:
    """Mehrotra predictor-corrector on min 0.5 ||Z^T a||^2 - 1^T a, 0 <= a <= C; returns Z^T a.

    Iterates: a, its upper slack u (carried apart, as C - a cancels at large C)
    and the multipliers s, t of a >= 0 and u >= 0. Each Newton step reduces to
    (D + Z Z^T) da = r with D = s/a + t/u, solved in the smaller of the n- and
    the d-space, and never through a Cholesky factor of a formed matrix, which
    broke down as the iterates neared the bounds:

    - n <= d: D + Z Z^T = R^T R, with R the triangular QR factor of the
      (n + d) x n matrix [D^1/2; Z^T], so da = R^-1 R^-T r by two solves. Only
      the diagonal block of that matrix changes between steps, and no Q is
      formed.
    - n > d: Sherman-Morrison-Woodbury turns the step into the d x d system
      (I + Z^T D^-1 Z) q = Z^T D^-1 r, da = D^-1 (r - Z q), solved as least
      squares through a QR factorization of [D^-1/2 Z; I].

    Returns the Z^T a with the smallest relative duality gap seen.
    """
    n, d = signed.shape
    alpha = np.full(n, 0.5 * C)
    upper = np.full(n, 0.5 * C)
    grad = signed @ (signed.T @ alpha) - 1.0
    s = np.maximum(grad, 0.0) + 1.0  # s - t = grad: the first dual residual is zero
    t = np.maximum(-grad, 0.0) + 1.0
    n_space = n <= d
    stacked = np.vstack([np.zeros((n, n)), signed.T] if n_space else [signed, np.eye(d)])
    best = None
    iterations = 0
    while True:
        feasible = np.minimum(alpha, C)
        v = signed.T @ feasible
        primal = _primal(v, signed, C)
        gap = (primal - feasible.sum() + 0.5 * (v @ v)) / max(1.0, abs(primal))
        if best is None or gap < best[1]:
            best = (v, gap)
        complementarity = alpha @ s + upper @ t
        stalled = complementarity <= _STALL_FACTOR * tol * max(1.0, abs(primal))
        if not np.isfinite(gap) or gap <= tol or iterations >= max_iters or stalled:
            break
        iterations += 1

        r_dual = grad - s + t
        r_box = C - alpha - upper
        diagonal = s / alpha + t / upper
        if n_space:
            np.fill_diagonal(stacked[:n], np.sqrt(diagonal))
            r = np.linalg.qr(stacked, mode="r")

            def inverse(rhs):
                return np.linalg.solve(r, np.linalg.solve(r.T, rhs))
        else:
            root = np.sqrt(1.0 / diagonal)
            stacked[:n] = signed * root[:, None]
            q_top = np.linalg.qr(stacked)[0][:n]

            def inverse(rhs):
                scaled = root * rhs
                return root * (scaled - q_top @ (q_top.T @ scaled))

        def newton(target_s, target_t):
            """Newton direction with s*da + a*ds = target_s and t*du + u*dt = target_t."""
            da = inverse(t / upper * r_box - r_dual + target_s / alpha - target_t / upper)
            du = r_box - da
            return da, du, (target_s - s * da) / alpha, (target_t - t * du) / upper

        point = (alpha, upper, s, t)
        da, du, ds, dt = affine = newton(-alpha * s, -upper * t)
        beta = min(1.0, _max_step(point, affine))
        predicted = (alpha + beta * da) @ (s + beta * ds) + (upper + beta * du) @ (t + beta * dt)
        centering = (predicted / complementarity) ** 3 * complementarity / (2 * n)
        step = newton(centering - alpha * s - da * ds, centering - upper * t - du * dt)
        beta = min(1.0, _STEP_TO_BOUNDARY * _max_step(point, step))
        alpha, upper, s, t = (x + beta * dx for x, dx in zip(point, step))
        grad = signed @ (signed.T @ alpha) - 1.0
    v, gap = best
    return v, SvmSolve(iterations, float(gap), bool(gap <= tol))


def train_svm(
    X: np.ndarray,
    y: np.ndarray,
    C: float,
    max_epochs: int = 1000,
    tol: float = 1e-6,
) -> LinearSvmModel:
    """Fit the separator by an interior-point solve of the dual.

    ``max_epochs`` caps the interior-point iterations and ``tol`` is the relative
    duality gap (P(w, b) - D(a)) / max(1, |P(w, b)|) at which the solve stops;
    the model's ``solve`` records where it ended.
    """
    X, y = _validate_problem(X, y)
    _check_c(C)
    dim = X.shape[1]
    v, solve = _solve_dual(_signed_rows(X, y), float(C), max_epochs, tol)
    w = v[:dim].copy()
    b = float(v[dim])
    distances = _distances(w, b, X)
    return LinearSvmModel(
        w=w, b=b, C=float(C), score_min=float(distances.min()), score_max=float(distances.max()), solve=solve
    )


def _distances(w: np.ndarray, b: float, X: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(w))
    if norm <= 0.0:
        raise ValueError("degenerate separator: zero weight vector")
    return (X @ w + b) / norm


def decision_distances(model: LinearSvmModel, X: np.ndarray) -> np.ndarray:
    """Signed distances from the separating hyperplane, (w.x + b) / ||w||, whatever the layout of ``X``."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"expected (n, {model.dim}) inputs")
    return _distances(model.w, model.b, X)


def normalize_score(model: LinearSvmModel, distance) -> np.ndarray:
    """Min-max map of distances onto [0, 1] using the training-set bounds, clamped."""
    scaled = (np.asarray(distance, dtype=np.float64) - model.score_min) / (
        model.score_max - model.score_min
    )
    return np.clip(scaled, 0.0, 1.0)


def stratified_folds(y: np.ndarray, n_folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified fold assignment; every fold holds both classes."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in (-1, 1):
        idx = np.flatnonzero(y == cls)
        if idx.size < n_folds:
            raise ValueError(
                f"class {cls:+d} has {idx.size} samples; cannot stratify {n_folds} folds"
            )
        shuffled = rng.permutation(idx)
        for f in range(n_folds):
            folds[f].extend(shuffled[f::n_folds].tolist())
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def cv_accuracy_table(
    X: np.ndarray,
    y: np.ndarray,
    seed: int,
    n_folds: int = 5,
    c_grid: Sequence[float] = c_grid(),
    max_epochs: int = 1000,
    tol: float = 1e-6,
) -> tuple[list[tuple[float, float]], list[dict]]:
    """Mean held-out fold accuracy for every regularization candidate, and how each solve ended.

    ``seed`` draws the stratified folds. Returns the (C, accuracy) table and
    one {"C", "fold", "iterations", "gap", "converged"} record per (C, fold),
    in table order.
    """
    X, y = _validate_problem(X, y)
    folds = stratified_folds(y, n_folds, seed)
    sizes = [fold.size for fold in folds]
    table = []
    solves = []
    for C in c_grid:
        correct = []
        for index, fold in enumerate(folds):
            model = train_svm(np.delete(X, fold, axis=0), np.delete(y, fold), C, max_epochs=max_epochs, tol=tol)
            solves.append({"C": C, "fold": index, **model.solve._asdict()})
            predicted = np.where(decision_distances(model, X[fold]) > 0.0, 1.0, -1.0)
            correct.append(np.count_nonzero(predicted == y[fold]))
        table.append((C, mean_rate(correct, sizes)))
    return table, solves


def write_svm_model(path: str | Path, model: LinearSvmModel) -> None:
    fields = model.dim, model.b, model.C, model.score_min, model.score_max
    write_framed(path, SVM_MAGIC, _SVM_HEADER, fields, np.asarray(model.w, dtype="<f8"))


@names_file
def read_svm_model(path: str | Path) -> LinearSvmModel:
    (dim, b, C, score_min, score_max), body = read_framed(Path(path).read_bytes(), SVM_MAGIC, _SVM_HEADER)
    (w,) = split_body(body, ("<f8", (dim,)))
    return LinearSvmModel(w=w, b=b, C=C, score_min=score_min, score_max=score_max)

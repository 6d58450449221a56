"""Late fusion of per-modality confidence scores.

Two schemes: a weighted average of the two scores thresholded at (1 - theta),
with theta searched on a fixed grid against the class-balanced error; and a
ternary quantize-sum-rescale scheme whose fused score lives on five levels.
Scores are (n,) float arrays in [0, 1], one entry per segment, and labels are
(n,) bool arrays with True for positive.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import atomic
from .metrics import confusion, unit_interval

THETA_GRID_STEP = 0.2


def theta_candidates(step: float = THETA_GRID_STEP) -> tuple[float, ...]:
    """Weights 0, step, 2*step, ... up to 1, plus the equal-weight default 0.5.

    0.5 is always searched because it is also the preferred tie-break target.
    """
    steps = int(round(1.0 / step))
    grid = {round(i * step, 10) for i in range(steps + 1)}
    return tuple(sorted(grid | {0.5}))


THETA_CANDIDATES = theta_candidates()
# The default step's grid without the added equal-weight default.
THETA_GRID = tuple(theta for theta in THETA_CANDIDATES if theta != 0.5)


def check_theta(theta: float) -> None:
    """Reject a fusion weight outside [0, 1]."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta {theta} outside [0, 1]")


def fusion_threshold(theta: float) -> float:
    """Decision threshold paired with a weight: (1 - theta); 0.5 at equal weights."""
    return 1.0 - theta


def _scores(audio: np.ndarray, video: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    video = unit_interval("video_score", video)
    audio = unit_interval("audio_score", audio)
    if audio.shape != video.shape or audio.ndim != 1:
        raise ValueError(f"score shapes {audio.shape} and {video.shape} are not one (n,) pair")
    return audio, video


def score_level_fuse(audio: np.ndarray, video: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Weighted average of the two scores, positive when strictly above (1 - theta).

    Returns the fused scores and the positive labels.
    """
    check_theta(theta)
    audio, video = _scores(audio, video)
    fused = theta * video + (1.0 - theta) * audio
    return fused, fused > fusion_threshold(theta)


def ternary_quantize(scores: np.ndarray | float) -> np.ndarray:
    """Uniform three-way binning of [0, 1] onto {-1, 0, +1}."""
    return np.digitize(scores, (1.0 / 3.0, 2.0 / 3.0)) - 1


def output_level_fuse(audio: np.ndarray, video: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the two ternary-quantized scores and rescale onto {0, .25, .5, .75, 1}.

    Returns the fused scores and the positive labels.
    """
    audio, video = _scores(audio, video)
    fused = (ternary_quantize(video) + ternary_quantize(audio) + 2) / 4.0
    return fused, fused > 0.5


def classification_error(truth: np.ndarray, predicted: np.ndarray) -> float:
    """Mean of the two per-class error rates of bool ``predicted`` labels against ``truth``."""
    cm = confusion(predicted, truth)
    for name, members in (("positive", cm.tp + cm.fn), ("negative", cm.fp + cm.tn)):
        if not members:
            raise ValueError(f"class {name} absent from ground truth")
    return (cm.fn / (cm.tp + cm.fn) + cm.fp / (cm.fp + cm.tn)) / 2.0


def evaluate_theta(audio: np.ndarray, video: np.ndarray, truth: np.ndarray, theta: float) -> float:
    """Class-balanced error of score-level fusion at one weight."""
    return classification_error(truth, score_level_fuse(audio, video, theta)[1])


def grid_search_theta(
    audio: np.ndarray, video: np.ndarray, truth: np.ndarray, candidates: Sequence[float] = THETA_CANDIDATES
) -> float:
    """Pick the weight minimizing the class-balanced error over the candidates.

    Ties are broken toward 0.5 (the equal-weight default, always among the
    candidates) and then toward the larger weight.
    """
    ranked = sorted(
        (evaluate_theta(audio, video, truth, theta), abs(theta - 0.5), -theta, theta)
        for theta in candidates
    )
    return ranked[0][3]


def write_scores(path: str | Path, rows: Iterable[tuple[str, str, float]]) -> None:
    """Write (segment_id, modality, score) records, one tab-separated line each."""
    lines = [f"{seg_id}\t{modality}\t{score!r}" for seg_id, modality, score in rows]
    atomic.write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_scores(path: str | Path) -> list[tuple[str, str, float]]:
    rows = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}: line {line_no}: expected 3 tab-separated fields")
        seg_id, modality, raw = parts
        rows.append((seg_id, modality, float(raw)))
    return rows

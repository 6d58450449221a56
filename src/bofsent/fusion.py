"""Late fusion of per-modality confidence scores.

Two schemes: a weighted average of the two scores thresholded at (1 - theta),
with theta searched on a fixed grid against the class-balanced error; and a
ternary quantize-sum-rescale scheme whose fused score lives on five levels.
Scores are (n,) float arrays in [0, 1], one entry per segment, and labels are
(n,) bool arrays with True for positive.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .metrics import confusion, mean_rate, unit_interval

MODES = ("score", "output")
THETA_GRID_STEP = 0.2


def theta_candidates(step: float = THETA_GRID_STEP) -> tuple[float, ...]:
    """Multiples of step in [0, 1], plus 1 and the equal-weight default 0.5.

    0.5 is always searched because it is also the preferred tie-break target.
    """
    grid = {round(i * step, 10) for i in range(int(1.0 / step) + 1)}
    return tuple(sorted(grid | {0.5, 1.0}))


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
    members = (cm.tp + cm.fn, cm.fp + cm.tn)
    for name, count in zip(("positive", "negative"), members):
        if not count:
            raise ValueError(f"class {name} absent from ground truth")
    return mean_rate((cm.fn, cm.fp), members)


def evaluate_theta(audio: np.ndarray, video: np.ndarray, truth: np.ndarray, theta: float) -> float:
    """Class-balanced error of score-level fusion at one weight."""
    return classification_error(truth, score_level_fuse(audio, video, theta)[1])


def grid_search_theta(
    audio: np.ndarray, video: np.ndarray, truth: np.ndarray, candidates: Sequence[float] = theta_candidates()
) -> tuple[float, list[float]]:
    """Pick the weight minimizing the class-balanced error over the candidates.

    Returns the chosen weight and every candidate's error, in candidate order.
    Ties are broken toward 0.5 (the equal-weight default, always among the
    candidates) and then toward the larger weight.
    """
    errors = [evaluate_theta(audio, video, truth, theta) for theta in candidates]
    chosen = min(zip(errors, candidates), key=lambda pair: (pair[0], abs(pair[1] - 0.5), -pair[1]))[1]
    return chosen, errors

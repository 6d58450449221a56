"""Late fusion of per-modality confidence scores.

Two schemes: a weighted average of the two scores thresholded at (1 - theta),
with theta searched on a fixed grid against the class-balanced error; and a
ternary quantize-sum-rescale scheme whose fused score lives on five levels.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import atomic
from .corpus import Polarity

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


@dataclass(frozen=True)
class ScorePair:
    """Per-segment confidence scores from both modalities, optionally labelled."""

    segment_id: str
    video_score: float
    audio_score: float
    truth: Polarity | None = None

    def __post_init__(self):
        for name, score in (("video_score", self.video_score), ("audio_score", self.audio_score)):
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"{name} {score} outside [0, 1]")


@dataclass(frozen=True)
class FusedPrediction:
    segment_id: str
    fused_score: float
    label: Polarity


def fusion_threshold(theta: float) -> float:
    """Decision threshold paired with a weight: (1 - theta); 0.5 at equal weights."""
    return 1.0 - theta


def score_level_fuse(pair: ScorePair, theta: float) -> FusedPrediction:
    """Weighted average of the two scores, positive when strictly above (1 - theta)."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta {theta} outside [0, 1]")
    fused = theta * pair.video_score + (1.0 - theta) * pair.audio_score
    label = Polarity.POSITIVE if fused > fusion_threshold(theta) else Polarity.NEGATIVE
    return FusedPrediction(segment_id=pair.segment_id, fused_score=fused, label=label)


def ternary_quantize(score: float) -> int:
    """Uniform three-way binning of [0, 1] onto {-1, 0, +1}."""
    if score < 1.0 / 3.0:
        return -1
    if score < 2.0 / 3.0:
        return 0
    return 1


def output_level_fuse(pair: ScorePair) -> FusedPrediction:
    """Sum the two ternary-quantized scores and rescale onto {0, .25, .5, .75, 1}."""
    q_sum = ternary_quantize(pair.video_score) + ternary_quantize(pair.audio_score)
    fused = (q_sum + 2) / 4.0
    label = Polarity.POSITIVE if fused > 0.5 else Polarity.NEGATIVE
    return FusedPrediction(segment_id=pair.segment_id, fused_score=fused, label=label)


def classification_error(labelled: Sequence[tuple[Polarity, Polarity]]) -> float:
    """Mean of the two per-class error rates over (truth, predicted) pairs."""
    per_class = {}
    for cls in (Polarity.POSITIVE, Polarity.NEGATIVE):
        members = [(truth, pred) for truth, pred in labelled if truth is cls]
        if not members:
            raise ValueError(f"class {cls.name.lower()} absent from ground truth")
        per_class[cls] = sum(1 for truth, pred in members if truth is not pred) / len(members)
    return (per_class[Polarity.POSITIVE] + per_class[Polarity.NEGATIVE]) / 2.0


def evaluate_theta(pairs: Sequence[ScorePair], theta: float) -> float:
    """Class-balanced error of score-level fusion at one weight."""
    labelled = []
    for pair in pairs:
        if pair.truth is None:
            raise ValueError(f"segment {pair.segment_id} lacks ground truth")
        labelled.append((pair.truth, score_level_fuse(pair, theta).label))
    return classification_error(labelled)


def grid_search_theta(
    pairs: Sequence[ScorePair], candidates: Sequence[float] = THETA_CANDIDATES
) -> float:
    """Pick the weight minimizing the class-balanced error over the candidates.

    Ties are broken toward 0.5 (the equal-weight default, always among the
    candidates) and then toward the larger weight.
    """
    ranked = sorted(
        (evaluate_theta(pairs, theta), abs(theta - 0.5), -theta, theta) for theta in candidates
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

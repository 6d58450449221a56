"""Pipeline configuration: defaults, JSON round-trip, stage hashing, seed derivation."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import classifier, fusion
from .corpus import Manifest, filter_split, from_json
from .prosody import ProsodyConfig
from .video import DetectorConfig


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the pipeline with their documented defaults.

    Codebook size 256, a one-million descriptor sampling budget, 5-fold cross
    validation over C exponents [-3, 15] and the 0.2-step fusion weight grid
    are the reference operating point; everything is overridable from a JSON
    config file.

    ``svm_max_epochs`` caps the iterations of each SVM's interior-point solve
    and ``svm_tol`` is the relative duality gap at which a solve stops; a
    solve that stops short of it is recorded as unconverged and warned of.
    """

    audio: ProsodyConfig = field(default_factory=ProsodyConfig)
    video: DetectorConfig = field(default_factory=DetectorConfig)
    codebook_size: int = 256
    sample_budget: int = 1_000_000
    gmm_max_iters: int = 100
    gmm_tol: float = 1e-5
    variance_floor_scale: float = 1e-4
    cv_folds: int = 5
    c_exponent_min: int = classifier.C_EXPONENT_MIN
    c_exponent_max: int = classifier.C_EXPONENT_MAX
    svm_max_epochs: int = 1000
    svm_tol: float = 1e-6
    fusion_mode: str = "score"  # one of fusion.MODES
    theta: float | None = None  # fixed fusion weight; None selects by grid search
    theta_grid_step: float = fusion.THETA_GRID_STEP
    seed: int = 42

    def __post_init__(self):
        if self.gmm_max_iters < 1:
            raise ValueError(f"gmm_max_iters {self.gmm_max_iters} must be at least 1")
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds {self.cv_folds} must be at least 2")
        if self.c_exponent_min > self.c_exponent_max:
            raise ValueError(f"c_exponent_min {self.c_exponent_min} exceeds c_exponent_max {self.c_exponent_max}")
        if self.c_exponent_min < -1074 or self.c_exponent_max > 1023:  # so every 2^e is a positive finite float
            raise ValueError(f"C exponents [{self.c_exponent_min}, {self.c_exponent_max}] outside [-1074, 1023]")
        if not 0.0 < self.variance_floor_scale < math.inf:
            raise ValueError(f"variance_floor_scale {self.variance_floor_scale} must be finite and above 0")
        if self.fusion_mode not in fusion.MODES:
            raise ValueError(f"unknown fusion mode {self.fusion_mode!r} (expected one of {fusion.MODES})")
        if self.theta is not None:
            fusion.check_theta(self.theta)
        if not 0.001 <= self.theta_grid_step <= 1.0:
            raise ValueError(f"theta_grid_step {self.theta_grid_step} outside [0.001, 1]")


# Read only when fusing scores, so changing them never invalidates trained models.
_FUSION_FIELDS = ("fusion_mode", "theta", "theta_grid_step")


def config_from_dict(raw: dict) -> PipelineConfig:
    """A config from parsed JSON; omitted fields keep their defaults and unknown ones raise ``ValueError``."""
    return from_json("config", PipelineConfig, raw)


def load_config(path: str | Path) -> PipelineConfig:
    """Read a JSON config file; missing fields keep their defaults."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return config_from_dict(raw)


def dump_config(config: PipelineConfig) -> str:
    return json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True) + "\n"


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def extract_hash(config: PipelineConfig) -> str:
    """Hash of every setting that shapes descriptor extraction."""
    raw = dataclasses.asdict(config)
    return _digest({"audio": raw["audio"], "video": raw["video"]})


def train_hash(config: PipelineConfig) -> str:
    """Hash of extraction plus every other setting except the fusion-time ones."""
    raw = dataclasses.asdict(config)
    for key in ("audio", "video", *_FUSION_FIELDS):
        del raw[key]
    return _digest({"extract": extract_hash(config), **raw})


def train_labels_hash(manifest: Manifest) -> str:
    """Hash of the train split's (id, sentiment) rows: the labels ``train`` fits its models to."""
    return _digest({"labels": [[segment.id, segment.sentiment] for segment in filter_split(manifest, "train")]})


def derive_seed(root: int, *tags: str) -> int:
    """Stable per-purpose seed derived from the root seed and a tag path."""
    material = f"{root}:" + "/".join(tags)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF

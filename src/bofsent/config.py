"""Pipeline configuration: defaults, JSON round-trip, stage hashing, seed derivation."""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import classifier, fusion
from .prosody import ProsodyConfig
from .video import DetectorConfig


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the pipeline with their documented defaults.

    Codebook size 256, a one-million descriptor sampling budget, 5-fold cross
    validation over C exponents [-3, 15] and the 0.2-step fusion weight grid
    are the reference operating point; everything is overridable from a JSON
    config file.
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
    fusion_mode: str = "score"  # "score" | "output"
    theta: float | None = None  # fixed fusion weight; None selects by grid search
    theta_grid_step: float = fusion.THETA_GRID_STEP
    seed: int = 42

    def __post_init__(self):
        if self.fusion_mode not in ("score", "output"):
            raise ValueError(f"fusion_mode must be 'score' or 'output', got {self.fusion_mode!r}")
        if self.theta is not None:
            fusion.check_theta(self.theta)
        if not 0.0 < self.theta_grid_step <= 1.0:
            raise ValueError(f"theta_grid_step {self.theta_grid_step} outside (0, 1]")


def config_to_dict(config: PipelineConfig) -> dict:
    raw = dataclasses.asdict(config)
    raw["video"]["spatial_scales"] = list(config.video.spatial_scales)
    raw["video"]["temporal_scales"] = list(config.video.temporal_scales)
    return raw


def config_from_dict(raw: dict) -> PipelineConfig:
    raw = dict(raw)
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config fields {sorted(unknown)}")

    def sub(cls, value):
        if value is None:
            return cls()
        fields = {f.name for f in dataclasses.fields(cls)}
        bad = set(value) - fields
        if bad:
            raise ValueError(f"unknown {cls.__name__} fields {sorted(bad)}")
        return cls(**value)

    audio_raw = raw.pop("audio", None)
    video_raw = raw.pop("video", None)
    if video_raw:
        video_raw = dict(video_raw)
        for key in ("spatial_scales", "temporal_scales"):
            if key in video_raw:
                video_raw[key] = tuple(video_raw[key])
    return PipelineConfig(audio=sub(ProsodyConfig, audio_raw), video=sub(DetectorConfig, video_raw), **raw)


def load_config(path: str | Path) -> PipelineConfig:
    """Read a JSON config file; missing fields keep their defaults."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return config_from_dict(raw)


def dump_config(config: PipelineConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def extract_hash(config: PipelineConfig) -> str:
    """Hash of every setting that shapes descriptor extraction."""
    raw = config_to_dict(config)
    return _digest({"audio": raw["audio"], "video": raw["video"]})


def train_hash(config: PipelineConfig) -> str:
    """Hash of extraction plus every setting that shapes trained models."""
    raw = config_to_dict(config)
    keys = (
        "codebook_size",
        "sample_budget",
        "gmm_max_iters",
        "gmm_tol",
        "variance_floor_scale",
        "cv_folds",
        "c_exponent_min",
        "c_exponent_max",
        "svm_max_epochs",
        "svm_tol",
        "seed",
    )
    return _digest({"extract": extract_hash(config), **{k: raw[k] for k in keys}})


def derive_seed(root: int, *tags: str) -> int:
    """Stable per-purpose seed derived from the root seed and a tag path."""
    material = f"{root}:" + "/".join(tags)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF

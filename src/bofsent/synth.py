"""Synthetic corpus generator: tones plus moving-blob videos with class-dependent content.

Positive segments carry a high-pitched tone and a blob drifting rightward;
negative segments a low-pitched tone and leftward drift. Moving blobs leave a
short decaying trail, so the time-averaged appearance around an event is
direction-asymmetric and visible to the descriptors.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import derive_seed
from .corpus import Manifest, Segment, save_manifest
from .prosody import PcmSignal, write_pcm
from .video import FrameVolume, write_frame_volume


@dataclass(frozen=True)
class SynthConfig:
    n_train: int = 150
    n_validation: int = 50
    n_test: int = 0
    sample_rate: int = 16000
    duration: float = 1.2
    frames: int = 16
    height: int = 40
    width: int = 40
    frame_rate: float = 12.0
    positive_f0: tuple[float, float] = (280.0, 360.0)
    negative_f0: tuple[float, float] = (100.0, 160.0)

    @property
    def n_segments(self) -> int:
        return self.n_train + self.n_validation + self.n_test


_TRAIL_DECAY = 0.5
_TRAIL_GHOSTS = 3


def synth_audio(rng: np.random.Generator, f0: float, cfg: SynthConfig) -> PcmSignal:
    """A clean tone at ``f0`` with a slow amplitude arc and a whisper of noise."""
    n = int(round(cfg.duration * cfg.sample_rate))
    t = np.arange(n) / cfg.sample_rate
    envelope = 0.4 + 0.35 * np.sin(np.pi * t / cfg.duration) ** 2
    phase = rng.uniform(0.0, 2.0 * np.pi)
    samples = envelope * np.sin(2.0 * np.pi * f0 * t + phase)
    samples += 0.003 * rng.standard_normal(n)
    return PcmSignal(samples=np.clip(samples, -1.0, 1.0), sample_rate=cfg.sample_rate)


def _blob(height: int, width: int, cx: float, cy: float, sigma: float) -> np.ndarray:
    ys = np.arange(height)[:, None]
    xs = np.arange(width)[None, :]
    return np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma**2))


def synth_video(rng: np.random.Generator, direction: int, cfg: SynthConfig) -> FrameVolume:
    """A bright blob sweeping horizontally with a decaying trail behind it.

    ``direction`` is +1 for rightward motion, -1 for leftward.
    """
    t_count, height, width = cfg.frames, cfg.height, cfg.width
    sigma = 2.2
    margin = 8.0
    cy = height / 2.0 + rng.uniform(-4.0, 4.0)
    x_from = margin + rng.uniform(0.0, 2.0)
    x_to = width - margin - rng.uniform(0.0, 2.0)
    if direction < 0:
        x_from, x_to = x_to, x_from
    xs = np.linspace(x_from, x_to, t_count)
    contrast = rng.uniform(0.5, 0.85)
    fade = np.sin(np.pi * (np.arange(t_count) + 0.5) / t_count)

    frames = np.zeros((t_count, height, width))
    for k in range(t_count):
        for ghost in range(min(_TRAIL_GHOSTS + 1, k + 1)):
            j = k - ghost
            gain = contrast * fade[j] * _TRAIL_DECAY**ghost
            frames[k] += gain * _blob(height, width, xs[j], cy, sigma)
    frames += 0.01 * rng.standard_normal(frames.shape)
    return FrameVolume(frames=np.clip(frames, 0.0, 1.0), frame_rate=cfg.frame_rate)


def generate_corpus(out_dir: str | Path, cfg: SynthConfig = SynthConfig(), seed: int = 42) -> Path:
    """Write media files and a manifest under ``out_dir``; returns the manifest path.

    Labels alternate segment by segment so every split stays class-balanced;
    split assignment is train first, then validation, then test.
    """
    out_dir = Path(out_dir)
    segments = []
    for i in range(cfg.n_segments):
        seg_id = f"seg{i:04d}"
        rng = np.random.default_rng(derive_seed(seed, "synth", seg_id))
        positive = i % 2 == 0
        lo, hi = cfg.positive_f0 if positive else cfg.negative_f0
        f0 = rng.uniform(lo, hi)
        sentiment = rng.uniform(0.5, 3.0) if positive else rng.uniform(-3.0, -0.5)
        if i < cfg.n_train:
            split = "train"
        elif i < cfg.n_train + cfg.n_validation:
            split = "validation"
        else:
            split = "test"

        audio_rel = f"audio/{seg_id}.pcm"
        video_rel = f"video/{seg_id}.fvl"
        write_pcm(out_dir / audio_rel, synth_audio(rng, f0, cfg))
        write_frame_volume(out_dir / video_rel, synth_video(rng, 1 if positive else -1, cfg))
        segments.append(
            Segment(
                id=seg_id,
                audio_path=audio_rel,
                video_path=video_rel,
                sentiment=round(sentiment, 4),
                split=split,
            )
        )

    manifest_path = out_dir / "manifest.jsonl"
    save_manifest(Manifest(segments=tuple(segments), base_dir=out_dir), manifest_path)
    return manifest_path

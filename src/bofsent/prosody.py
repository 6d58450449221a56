"""Prosodic descriptor extraction from raw PCM audio.

A signal is cut into Hann-weighted analysis frames, and frame i becomes row i
of an (n_frames, 3) matrix with columns ``f0 / f0_max`` (subharmonic summation
on a log-frequency grid), voicing (peak normalized autocorrelation in the
pitch lag range) and loudness (compressed RMS). A frame whose voicing is below
the threshold is unvoiced: its column 0 is 0. The analysis functions work over
the last axis of a (frames, block_len) stack; ``extract_audio_descriptors``
feeds them ``FRAME_BLOCK`` frames at a time.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PCM_MAGIC = b"PCM1"
_PCM_HEADER = struct.Struct("<4sIQ")
_INT16_SCALE = 32767.0

# Frames analysed per batched pass; a memory bound, not a tuning knob.
FRAME_BLOCK = 64


@dataclass(frozen=True)
class ProsodyConfig:
    """Analysis settings; defaults are conventional speech-analysis values."""

    window: float = 0.05
    hop: float = 0.01
    f0_min: float = 55.0
    f0_max: float = 400.0
    n_harmonics: int = 5
    compression: float = 0.85
    voicing_threshold: float = 0.45
    bins_per_octave: int = 48

    def __post_init__(self):
        rules = {
            # A comparison, not math.isfinite, which overflows on a huge integer count.
            "every value finite": all(-math.inf < value < math.inf for value in vars(self).values()),
            "window >= hop > 0": self.window >= self.hop > 0,
            "0 < f0_min < f0_max": 0 < self.f0_min < self.f0_max,
            "n_harmonics >= 1": self.n_harmonics >= 1,
            "bins_per_octave >= 1": self.bins_per_octave >= 1,
            "compression > 0": self.compression > 0,
            "0 <= voicing_threshold <= 1": 0 <= self.voicing_threshold <= 1,
        }
        broken = [rule for rule, holds in rules.items() if not holds]
        if broken:
            raise ValueError(f"{self} breaks {'; '.join(broken)}")


@dataclass(frozen=True, eq=False)
class PcmSignal:
    """Single-channel audio: float samples in [-1, 1] at a fixed rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


def frame_signal(signal: PcmSignal, config: ProsodyConfig = ProsodyConfig()) -> np.ndarray:
    """Slice a signal into Hann-weighted analysis blocks of ``config``'s window and hop.

    Returns an (n_blocks, block_len) array with block_len = round(window * rate)
    and block spacing round(hop * rate). Raises if the signal is shorter than
    one window.
    """
    rate = signal.sample_rate
    block_len = int(round(config.window * rate))
    hop_len = int(round(config.hop * rate))
    x = np.asarray(signal.samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if x.size < block_len:
        raise ValueError(
            f"signal of {x.size} samples is shorter than one {block_len}-sample window"
        )
    n_blocks = (x.size - block_len) // hop_len + 1
    idx = hop_len * np.arange(n_blocks)[:, None] + np.arange(block_len)[None, :]
    return x[idx] * np.hanning(block_len)


def _log_frequency_grid(f0_min: float, f0_max: float, bins_per_octave: int) -> np.ndarray:
    n_bins = int(np.floor(np.log2(f0_max / f0_min) * bins_per_octave))
    grid = f0_min * 2.0 ** (np.arange(n_bins + 1) / bins_per_octave)
    if grid[-1] < f0_max - 1e-9:
        grid = np.append(grid, f0_max)
    return grid


def _at(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[..., index[...]]``: one entry of the last axis per leading position."""
    return np.take_along_axis(values, index[..., None], axis=-1)[..., 0]


def estimate_f0_shs(
    block: np.ndarray, sample_rate: int, config: ProsodyConfig = ProsodyConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate the fundamental frequency of each block by subharmonic summation.

    Each candidate f on ``config``'s log-frequency grid is scored as
    sum_h compression**(h-1) * |X(h*f)| over ``n_harmonics`` harmonics, with
    |X| linearly interpolated between FFT bins and held at the Nyquist bin
    beyond it; the winning candidate is refined by parabolic interpolation on
    the log grid.

    ``block`` is (..., block_len); returns (f0, salience), each of shape
    (...). Salience is the winning score; an all-zero block gives salience 0
    and the caller should treat the frame as unvoiced.
    """
    if not config.f0_max < sample_rate / 2:
        raise ValueError(f"require f0_max < sample_rate / 2, got f0_max {config.f0_max} at rate {sample_rate}")
    block = np.asarray(block, dtype=np.float64)
    nfft = 1 << max(11, int(4 * block.shape[-1] - 1).bit_length())
    spectrum = np.abs(np.fft.rfft(block, nfft, axis=-1))
    freqs = np.arange(spectrum.shape[-1]) * (sample_rate / nfft)

    # Interpolation weights in np.interp's arithmetic: the bin at or below each
    # target h*f, the distance past it and the bin spacing; past the last bin
    # the Nyquist value is held.
    grid = _log_frequency_grid(config.f0_min, config.f0_max, config.bins_per_octave)
    targets = np.arange(1, config.n_harmonics + 1)[:, None] * grid
    beyond = targets >= freqs[-1]
    lower = np.minimum(np.searchsorted(freqs, targets, side="right") - 1, freqs.size - 2)
    offset = targets - freqs[lower]
    spacing = freqs[lower + 1] - freqs[lower]

    scores = np.zeros(block.shape[:-1] + grid.shape)
    for h in range(config.n_harmonics):
        left = spectrum[..., lower[h]]
        between = (spectrum[..., lower[h] + 1] - left) / spacing[h] * offset[h] + left
        scores += config.compression**h * np.where(beyond[h], spectrum[..., -1:], between)

    best = np.argmax(scores, axis=-1)
    salience = _at(scores, best)
    # Parabolic refinement around an interior peak of positive salience.
    centre = np.clip(best, 1, grid.size - 2)
    s0, s1, s2 = (_at(scores, centre + d) for d in (-1, 0, 1))
    denom = s0 - 2.0 * s1 + s2
    refine = (best == centre) & (denom < 0.0) & (salience > 0.0)
    delta = np.clip(0.5 * (s0 - s2) / np.where(refine, denom, -1.0), -0.5, 0.5)
    f0 = np.where(refine, grid[best] * 2.0 ** (delta / config.bins_per_octave), grid[best])
    return np.clip(f0, config.f0_min, config.f0_max), salience


def voicing_probability(
    block: np.ndarray, salience: np.ndarray, sample_rate: int, config: ProsodyConfig = ProsodyConfig()
) -> np.ndarray:
    """Peak normalized autocorrelation over the lags of ``config``'s pitch range, clamped to [0, 1].

    ``block`` is (..., block_len) and ``salience`` broadcasts against (...).
    Correlations are normalized by the energies of the two overlapping
    stretches so periodic signals score near 1 despite window tapering.
    Zero-energy or zero-salience blocks score 0.
    """
    block = np.asarray(block, dtype=np.float64)
    n = block.shape[-1]
    lag_min = max(1, int(sample_rate / config.f0_max))
    lag_max = min(n - 1, int(np.ceil(sample_rate / config.f0_min)))
    if lag_max < lag_min:
        return np.zeros(block.shape[:-1])

    nfft = 1 << int(2 * n - 1).bit_length()
    spec = np.fft.rfft(block, nfft, axis=-1)
    raw = np.fft.irfft(spec * np.conj(spec), nfft, axis=-1)[..., :n]

    energy = np.cumsum(block * block, axis=-1)
    prefix = np.concatenate([np.zeros(block.shape[:-1] + (1,)), energy], axis=-1)
    lags = np.arange(lag_min, lag_max + 1)
    head = prefix[..., n - lags]
    tail = prefix[..., n : n + 1] - prefix[..., lags]
    denom = np.sqrt(head * tail)
    valid = denom > 0.0
    r = np.where(valid, raw[..., lags] / np.where(valid, denom, 1.0), -np.inf).max(axis=-1)
    voiced = (salience > 0.0) & (energy[..., -1] > 0.0) & valid.any(axis=-1)
    return np.where(voiced, np.clip(r, 0.0, 1.0), 0.0)


def loudness(block: np.ndarray, exponent: float = 0.3) -> np.ndarray:
    """Compressed-RMS intensity proxy, (root mean square) ** exponent, over the last axis."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape[-1] == 0:
        return np.zeros(block.shape[:-1])
    rms = np.sqrt(np.mean(block * block, axis=-1))
    return np.power(rms, exponent, out=np.zeros_like(rms), where=rms > 0.0)


def extract_audio_descriptors(signal: PcmSignal, config: ProsodyConfig = ProsodyConfig()) -> np.ndarray:
    """Extract the (n_frames, 3) descriptor matrix fed to codebook encoding."""
    frames = frame_signal(signal, config)
    rows = np.empty((frames.shape[0], 3))
    for start in range(0, frames.shape[0], FRAME_BLOCK):
        block = frames[start : start + FRAME_BLOCK]
        f0, salience = estimate_f0_shs(block, signal.sample_rate, config)
        voicing = voicing_probability(block, salience, signal.sample_rate, config)
        f0 = np.where(voicing < config.voicing_threshold, 0.0, f0)
        rows[start : start + FRAME_BLOCK] = np.column_stack([f0 / config.f0_max, voicing, loudness(block)])
    return rows


def write_pcm(path: str | Path, signal: PcmSignal) -> None:
    """Write audio as self-describing PCM: magic, rate, count, 16-bit samples."""
    samples = np.clip(np.asarray(signal.samples, dtype=np.float64), -1.0, 1.0)
    ints = np.round(samples * _INT16_SCALE).astype("<i2")
    with Path(path).open("wb") as fh:
        fh.write(_PCM_HEADER.pack(PCM_MAGIC, signal.sample_rate, ints.size))
        fh.write(ints.tobytes())


def read_pcm(path: str | Path, sample_rate: int | None = None) -> PcmSignal:
    """Read PCM audio, either self-describing (magic header) or headerless.

    Headerless files need ``sample_rate``; 16-bit little-endian samples are
    rescaled to [-1, 1].
    """
    data = Path(path).read_bytes()
    if data[:4] == PCM_MAGIC:
        if len(data) < _PCM_HEADER.size:
            raise ValueError(f"{path}: truncated header")
        _, rate, count = _PCM_HEADER.unpack_from(data)
        body = data[_PCM_HEADER.size :]
        if len(body) < 2 * count:
            raise ValueError(f"{path}: expected {count} samples, file too short")
        ints = np.frombuffer(body, dtype="<i2", count=count)
    else:
        if sample_rate is None:
            raise ValueError(f"{path}: headerless PCM requires an explicit sample rate")
        if len(data) % 2:
            raise ValueError(f"{path}: headerless PCM holds an odd number of bytes ({len(data)})")
        rate = sample_rate
        ints = np.frombuffer(data, dtype="<i2")
    samples = np.clip(ints.astype(np.float64) / _INT16_SCALE, -1.0, 1.0)
    return PcmSignal(samples=samples, sample_rate=int(rate))

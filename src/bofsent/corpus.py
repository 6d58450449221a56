"""Segment manifests: parsing, validation, label binarization, split filtering."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator

SPLITS = ("train", "validation", "test")
SENTIMENT_MIN = -3.0
SENTIMENT_MAX = 3.0

_MANIFEST_FIELDS = ("id", "audio", "video", "sentiment", "split")
_OPTIONAL_FIELDS = ("sample_rate",)
# An id names a file in the run directory and a field of the prediction TSVs.
_ID_FORBIDDEN = ("/", "\\", "\0", "\t", "\r", "\n")


class ManifestError(ValueError):
    """A manifest file could not be parsed or failed validation."""


class Polarity(Enum):
    """Binary sentiment polarity; integer values double as SVM targets."""

    NEGATIVE = -1
    POSITIVE = 1


def binarize(sentiment: float) -> Polarity:
    """Threshold a continuous sentiment score: strictly positive is positive, zero and below negative."""
    return Polarity.POSITIVE if sentiment > 0 else Polarity.NEGATIVE


@dataclass(frozen=True)
class Segment:
    """One spoken-sentence segment: media references plus its continuous sentiment label.

    ``sample_rate`` is only needed when the audio file is headerless PCM;
    self-describing audio carries the rate in its own header.
    """

    id: str
    audio_path: str
    video_path: str
    sentiment: float
    split: str
    sample_rate: int | None = None

    def label(self) -> Polarity:
        return binarize(self.sentiment)


@dataclass(frozen=True)
class Manifest:
    """Ordered, immutable collection of segments; order is the processing order."""

    segments: tuple[Segment, ...]
    base_dir: Path | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def resolve(self, path: str) -> Path:
        """Resolve a media path from the manifest against the manifest's directory."""
        p = Path(path)
        if not p.is_absolute() and self.base_dir is not None:
            return self.base_dir / p
        return p


def _parse_record(raw: dict, line_no: int) -> Segment:
    for key in _MANIFEST_FIELDS:
        if key not in raw:
            raise ManifestError(f"line {line_no}: missing field '{key}'")
    unknown = set(raw) - set(_MANIFEST_FIELDS) - set(_OPTIONAL_FIELDS)
    if unknown:
        raise ManifestError(f"line {line_no}: unknown fields {sorted(unknown)}")

    seg_id = raw["id"]
    if not isinstance(seg_id, str) or not seg_id:
        raise ManifestError(f"line {line_no}: 'id' must be a non-empty string")
    if seg_id in (".", "..") or any(char in seg_id for char in _ID_FORBIDDEN):
        raise ManifestError(
            f"line {line_no}: id {seg_id!r} must not be '.' or '..' or hold '/', '\\', NUL, tab, CR or LF"
        )
    for key in ("audio", "video"):
        if not isinstance(raw[key], str) or not raw[key]:
            raise ManifestError(f"line {line_no}: '{key}' must be a non-empty string")
    sentiment = raw["sentiment"]
    # A JSON number only: bool is an int subclass, and a string must not pass through float().
    if isinstance(sentiment, bool) or not isinstance(sentiment, (int, float)):
        raise ManifestError(f"line {line_no}: sentiment {sentiment!r} is not a number")
    sentiment = float(sentiment)
    if not SENTIMENT_MIN <= sentiment <= SENTIMENT_MAX:
        raise ManifestError(
            f"line {line_no}: sentiment {sentiment} outside [{SENTIMENT_MIN}, {SENTIMENT_MAX}]"
        )
    split = raw["split"]
    if split not in SPLITS:
        raise ManifestError(f"line {line_no}: unknown split {split!r} (expected one of {SPLITS})")
    sample_rate = raw.get("sample_rate")
    if sample_rate is not None:
        if isinstance(sample_rate, bool) or not isinstance(sample_rate, int) or sample_rate <= 0:
            raise ManifestError(f"line {line_no}: sample_rate must be a positive integer")
    return Segment(
        id=seg_id,
        audio_path=raw["audio"],
        video_path=raw["video"],
        sentiment=sentiment,
        split=split,
        sample_rate=sample_rate,
    )


def load_manifest(path: str | Path) -> Manifest:
    """Parse a line-delimited manifest file.

    One JSON object per line with fields id/audio/video/sentiment/split
    (optional sample_rate); blank lines and ``#`` comments are skipped.
    Duplicate ids, out-of-range sentiments and unknown splits are rejected
    with the offending line number.
    """
    path = Path(path)
    segments: list[Segment] = []
    seen: set[str] = set()
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                raw = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"line {line_no}: invalid record: {exc.msg}") from None
            if not isinstance(raw, dict):
                raise ManifestError(f"line {line_no}: record must be a JSON object")
            seg = _parse_record(raw, line_no)
            if seg.id in seen:
                raise ManifestError(f"line {line_no}: duplicate id {seg.id!r}")
            seen.add(seg.id)
            segments.append(seg)
    return Manifest(segments=tuple(segments), base_dir=path.parent)


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    """Write a manifest in the same line-delimited format ``load_manifest`` reads."""
    path = Path(path)
    lines = []
    for seg in manifest:
        record: dict = {
            "id": seg.id,
            "audio": seg.audio_path,
            "video": seg.video_path,
            "sentiment": seg.sentiment,
            "split": seg.split,
        }
        if seg.sample_rate is not None:
            record["sample_rate"] = seg.sample_rate
        lines.append(json.dumps(record, ensure_ascii=False))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def filter_split(manifest: Manifest, split: str) -> Manifest:
    """Order-preserving subsequence of segments assigned to one split."""
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r} (expected one of {SPLITS})")
    return Manifest(
        segments=tuple(seg for seg in manifest if seg.split == split),
        base_dir=manifest.base_dir,
    )

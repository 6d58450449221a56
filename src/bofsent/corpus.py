"""Segment manifests: parsing, validation, label binarization, split filtering; the typed JSON reader."""
from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import MISSING, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator

from . import atomic

SPLITS = ("train", "validation", "test")
SENTIMENT_MIN = -3.0
SENTIMENT_MAX = 3.0

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
    self-describing audio carries the rate in its own header. A manifest
    record names the media paths ``audio`` and ``video``, and every other
    field by its name.
    """

    id: str
    audio_path: str = field(metadata={"json": "audio"})
    video_path: str = field(metadata={"json": "video"})
    sentiment: float
    split: str
    sample_rate: int | None = None

    def __post_init__(self):
        if self.id in ("", ".", "..") or any(char in _ID_FORBIDDEN or "\ud800" <= char <= "\udfff" for char in self.id):
            raise ValueError(f"id {self.id!r} is '', '.' or '..' or holds '/', '\\', NUL, tab, CR, LF or a surrogate")
        for key, path in (("audio", self.audio_path), ("video", self.video_path)):
            if not path:
                raise ValueError(f"{key} path {path!r} is empty")
        if not SENTIMENT_MIN <= self.sentiment <= SENTIMENT_MAX:
            raise ValueError(f"sentiment {self.sentiment} outside [{SENTIMENT_MIN}, {SENTIMENT_MAX}]")
        if self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r} (expected one of {SPLITS})")
        if self.sample_rate is not None and self.sample_rate <= 0:
            raise ValueError(f"sample_rate {self.sample_rate} must be above 0")

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


# The parsed JSON values each scalar field type takes, by exact type: JSON true and false are never numbers.
_JSON_TYPES = {int: ((int,), "integer"), float: ((int, float), "number"), str: ((str,), "string")}
_type_hints = functools.cache(typing.get_type_hints)  # once per class, not once per manifest line


@functools.cache
def _json_fields(cls) -> dict[str, dataclasses.Field]:
    """The fields of a dataclass by JSON key: a field's ``json`` metadata, else its name."""
    return {f.metadata.get("json", f.name): f for f in dataclasses.fields(cls)}


def from_json(name: str, hint, value):
    """``value``, parsed from JSON, as the type ``hint``: dataclasses from objects, tuples from arrays.

    A JSON integer fills a number field as a float. A value whose JSON type
    does not fit, an integer too large for a float, an unknown key or a
    missing key without a default raises ``ValueError``, and so does the
    dataclass's own check of the values.
    """
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ValueError(f"{hint.__name__} must be a JSON object, not {type(value).__name__}")
        fields, hints = _json_fields(hint), _type_hints(hint)
        unknown = set(value) - set(fields)
        if unknown:
            raise ValueError(f"unknown {hint.__name__} fields {sorted(unknown)}")
        required = [key for key, f in fields.items() if f.default is MISSING and f.default_factory is MISSING]
        missing = [key for key in required if key not in value]
        if missing:
            raise ValueError(f"missing {hint.__name__} fields {missing}")
        return hint(**{
            fields[key].name: from_json(f"{hint.__name__}.{key}", hints[fields[key].name], item)
            for key, item in value.items()
        })
    args = typing.get_args(hint)  # (float, ...) of tuple[float, ...]; (float, NoneType) of float | None
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a JSON array, not {type(value).__name__} {value!r}")
        return tuple(from_json(f"{name}[{index}]", args[0], item) for index, item in enumerate(value))
    if value is None and type(None) in args:
        return value
    accepted, json_name = _JSON_TYPES[args[0] if args else hint]
    if type(value) not in accepted:
        raise ValueError(f"{name} must be a JSON {json_name}, not {type(value).__name__} {value!r}")
    try:
        return float(value) if float in accepted else value
    except OverflowError:
        digits = len(str(abs(value)))
        raise ValueError(f"{name} must be a number a float can hold, not a {digits}-digit integer") from None


def load_manifest(path: str | Path) -> Manifest:
    """Parse a line-delimited manifest file.

    One JSON object per line with keys id/audio/video/sentiment/split
    (optional sample_rate), read by ``from_json`` into a ``Segment``; blank
    lines and ``#`` comments are skipped. A record that does not parse or
    breaks a ``Segment`` rule, and a duplicate id, raise ``ManifestError``
    naming the line.
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
                seg = from_json("Segment", Segment, json.loads(stripped))
            except json.JSONDecodeError as exc:
                raise ManifestError(f"line {line_no}: invalid record: {exc.msg}") from None
            except ValueError as exc:
                raise ManifestError(f"line {line_no}: {exc}") from None
            if seg.id in seen:
                raise ManifestError(f"line {line_no}: duplicate id {seg.id!r}")
            seen.add(seg.id)
            segments.append(seg)
    return Manifest(segments=tuple(segments), base_dir=path.parent)


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    """Write a manifest atomically, in the same line-delimited format ``load_manifest`` reads."""
    lines = []
    for seg in manifest:
        record = {key: getattr(seg, f.name) for key, f in _json_fields(Segment).items()}
        lines.append(json.dumps({key: value for key, value in record.items() if value is not None}, ensure_ascii=False))
    atomic.write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def filter_split(manifest: Manifest, split: str) -> Manifest:
    """Order-preserving subsequence of segments assigned to one split."""
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r} (expected one of {SPLITS})")
    return Manifest(
        segments=tuple(seg for seg in manifest if seg.split == split),
        base_dir=manifest.base_dir,
    )

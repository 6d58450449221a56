"""Stage runner: extraction, training, evaluation and prediction over a corpus.

Stages hand data to each other through files under one output directory and
record the configuration hash that produced each stage, refusing to consume
artifacts built under a different configuration unless forced. Given the same
inputs, configuration and seed, every stage writes byte-identical artifacts
regardless of worker count.
"""
from __future__ import annotations

import datetime as _dt
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import atomic, classifier, codebook, fusion, metrics
from .config import PipelineConfig, derive_seed, extract_hash, train_hash
from .corpus import Manifest, filter_split
from .descriptors import DescriptorSet, read_descriptors, write_descriptors
from .prosody import extract_audio_descriptors, read_pcm
from .video import extract_video_descriptors, read_frame_volume

logger = logging.getLogger(__name__)

MODALITIES = ("audio", "video")


class PipelineError(RuntimeError):
    """A stage cannot run: missing inputs, bad labels, or unusable artifacts."""


class StaleArtifactsError(PipelineError):
    """Artifacts on disk were produced under a different configuration."""


# ---------------------------------------------------------------------------
# artifact layout and stage state


def descriptor_path(out_dir: Path, modality: str, segment_id: str) -> Path:
    return out_dir / "descriptors" / modality / f"{segment_id}.dsc"


def codebook_path(out_dir: Path, modality: str) -> Path:
    return out_dir / "models" / f"{modality}.gmm"


def svm_path(out_dir: Path, modality: str) -> Path:
    return out_dir / "models" / f"{modality}.svm"


def _state_path(out_dir: Path) -> Path:
    return out_dir / "artifacts.json"


def load_state(out_dir: Path) -> dict:
    path = _state_path(out_dir)
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def _save_state(out_dir: Path, state: dict) -> None:
    state = dict(state)
    state["updated_at"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    _write_json(_state_path(out_dir), state)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic.write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# extract


@dataclass
class ExtractResult:
    extracted: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def _extract_one(manifest: Manifest, segment, modality: str, config: PipelineConfig, dst: Path) -> None:
    if modality == "audio":
        signal = read_pcm(manifest.resolve(segment.audio_path), segment.sample_rate)
        rows = extract_audio_descriptors(signal, config.audio)
    else:
        volume = read_frame_volume(manifest.resolve(segment.video_path))
        rows = extract_video_descriptors(volume, config.video)
    dst.parent.mkdir(parents=True, exist_ok=True)
    write_descriptors(dst, DescriptorSet(segment_id=segment.id, descriptors=rows.astype(np.float32)))


def run_extract(
    manifest: Manifest,
    config: PipelineConfig,
    out_dir: str | Path,
    modalities: tuple[str, ...] = MODALITIES,
    workers: int = 1,
    force: bool = False,
) -> ExtractResult:
    """Extract descriptors for every manifest segment, one file per (segment, modality).

    Outputs that already exist under the current extraction configuration are
    skipped; per-segment failures are logged and collected while the rest of
    the run continues.
    """
    out_dir = Path(out_dir)
    for modality in modalities:
        if modality not in MODALITIES:
            raise ValueError(f"unknown modality {modality!r}")
    state = load_state(out_dir)
    current_hash = extract_hash(config)
    fresh = state.get("extract", {}).get("hash") == current_hash

    jobs = []
    result = ExtractResult()
    for modality in modalities:
        for segment in manifest:
            dst = descriptor_path(out_dir, modality, segment.id)
            if fresh and not force and dst.exists():
                result.skipped.append(f"{modality}:{segment.id}")
                continue
            jobs.append((segment, modality, dst))

    def run_job(job) -> tuple[str, str | None]:
        segment, modality, dst = job
        try:
            _extract_one(manifest, segment, modality, config, dst)
        except Exception as exc:  # noqa: BLE001 - per-segment isolation is the contract
            logger.error("extraction failed for %s/%s: %s", modality, segment.id, exc)
            return f"{modality}:{segment.id}", str(exc)
        return f"{modality}:{segment.id}", None

    # The pool starts no thread unless it is used, i.e. when workers > 1.
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        for key, error in (pool.map if workers > 1 else map)(run_job, jobs):
            if error is None:
                result.extracted.append(key)
            else:
                result.failures[key] = error

    state["extract"] = {"hash": current_hash, "seed": config.seed}
    _save_state(out_dir, state)
    result.extracted.sort()
    return result


# ---------------------------------------------------------------------------
# shared loading helpers


def _check_stage(out_dir: Path, stage: str, current: str, force: bool) -> None:
    """Raise unless ``stage`` is recorded with hash ``current``; a forced mismatch only warns."""
    recorded = load_state(out_dir).get(stage, {}).get("hash")
    if recorded is None:
        raise PipelineError(f"{out_dir}: no {stage} artifacts recorded; run {stage} first")
    if recorded != current:
        problem = f"{stage} artifacts were built under a different configuration"
        if not force:
            raise StaleArtifactsError(
                f"{problem} (recorded {recorded}, current {current}); re-run {stage} or pass force"
            )
        logger.warning("%s (forced)", problem)


def _check_extract_state(out_dir: Path, config: PipelineConfig, force: bool) -> None:
    _check_stage(out_dir, "extract", extract_hash(config), force)


def _check_train_state(out_dir: Path, config: PipelineConfig, force: bool) -> None:
    _check_extract_state(out_dir, config, force)
    _check_stage(out_dir, "train", train_hash(config), force)


def _load_sets(manifest: Manifest, out_dir: Path, modality: str) -> list[DescriptorSet]:
    sets = []
    missing = []
    for segment in manifest:
        path = descriptor_path(out_dir, modality, segment.id)
        if not path.exists():
            missing.append(segment.id)
            continue
        dset = read_descriptors(path)
        if dset.segment_id != segment.id:
            raise PipelineError(f"{path}: holds descriptors for {dset.segment_id!r}, expected {segment.id!r}")
        sets.append(dset)
    if missing:
        raise PipelineError(
            f"missing {modality} descriptors for {len(missing)} segment(s): {', '.join(missing[:5])}"
            + ("..." if len(missing) > 5 else "")
        )
    return sets


# ---------------------------------------------------------------------------
# train


@dataclass
class TrainResult:
    selected_c: dict[str, float]


def run_train(
    manifest: Manifest, config: PipelineConfig, out_dir: str | Path, force: bool = False
) -> TrainResult:
    """Fit a codebook and an SVM per modality from the training split."""
    out_dir = Path(out_dir)
    _check_extract_state(out_dir, config, force)
    train_manifest = filter_split(manifest, "train")
    if len(train_manifest) == 0:
        raise PipelineError("training split is empty")
    labels = [segment.label() for segment in train_manifest]
    if len(set(labels)) < 2:
        only = labels[0].name.lower()
        raise PipelineError(f"training split holds only {only} segments; both classes are required")

    selected = {}
    for modality in MODALITIES:
        sets = _load_sets(train_manifest, out_dir, modality)
        labelled = list(zip(sets, labels))
        data = codebook.sample_balanced(
            labelled, config.sample_budget, derive_seed(config.seed, "sample", modality)
        )
        book = codebook.fit_gmm(
            data,
            config.codebook_size,
            derive_seed(config.seed, "gmm", modality),
            max_iters=config.gmm_max_iters,
            tol=config.gmm_tol,
            variance_floor_scale=config.variance_floor_scale,
            modality=modality,
        )
        X = np.stack([codebook.encode(book, dset).values for dset in sets])
        y = np.array([label.value for label in labels], dtype=np.float64)
        cv_seed = derive_seed(config.seed, "cv", modality)
        table = classifier.cv_accuracy_table(
            X,
            y,
            cv_seed,
            n_folds=config.cv_folds,
            c_grid=classifier.c_grid(config.c_exponent_min, config.c_exponent_max),
            max_epochs=config.svm_max_epochs,
            tol=config.svm_tol,
        )
        best_c = classifier.select_c(table)
        model = classifier.train_svm(
            X,
            y,
            best_c,
            derive_seed(config.seed, "svm", modality),
            max_epochs=config.svm_max_epochs,
            tol=config.svm_tol,
        )
        logger.info("%s: selected C=%g (cv accuracy %.4f)", modality, best_c, dict(table)[best_c])

        out_dir.joinpath("models").mkdir(parents=True, exist_ok=True)
        codebook.write_codebook(codebook_path(out_dir, modality), book)
        classifier.write_svm_model(svm_path(out_dir, modality), model)
        _write_json(
            out_dir / "models" / f"{modality}_cv.json",
            {"selected_c": best_c, "table": [[C, acc] for C, acc in table]},
        )
        selected[modality] = best_c

    state = load_state(out_dir)
    state["train"] = {"hash": train_hash(config), "seed": config.seed}
    _save_state(out_dir, state)
    return TrainResult(selected_c=selected)


# ---------------------------------------------------------------------------
# scoring, evaluation, prediction

# Per modality: SVM distances and normalized confidences, in segment order.
Scores = dict[str, tuple[np.ndarray, np.ndarray]]


def _score_segments(
    manifest: Manifest, split: str | None, config: PipelineConfig, out_dir: Path, force: bool
) -> tuple[Manifest, Scores]:
    """Check the train state, pick the segments of ``split`` (all when None) and score them."""
    _check_train_state(out_dir, config, force)
    segments = filter_split(manifest, split) if split else manifest
    if len(segments) == 0:
        raise PipelineError(f"split {split!r} is empty" if split else "manifest is empty")
    scores: Scores = {}
    for modality in MODALITIES:
        paths = (codebook_path(out_dir, modality), svm_path(out_dir, modality))
        for path in paths:
            if not path.exists():
                raise PipelineError(f"missing trained artifact {path}; run train first")
        book = codebook.read_codebook(paths[0])
        model = classifier.read_svm_model(paths[1])
        sets = _load_sets(segments, out_dir, modality)
        distances = classifier.decision_distances(
            model, np.stack([codebook.encode(book, dset).values for dset in sets])
        )
        scores[modality] = (distances, classifier.normalize_score(model, distances))
    return segments, scores


def _fusion_mode(config: PipelineConfig, fusion_mode: str | None, theta: float | None) -> str:
    """The checked fusion mode; an explicit weight is checked too, before the stage writes anything."""
    mode = fusion_mode or config.fusion_mode
    if mode not in ("score", "output"):
        raise ValueError(f"unknown fusion mode {mode!r}")
    if theta is not None:
        fusion.check_theta(theta)
    return mode


def _fuse_and_write(
    out_dir: Path, name: str, segments: Manifest, scores: Scores, mode: str, theta: float | None
) -> tuple[np.ndarray, np.ndarray, Path]:
    """Fuse the confidences and write ``predictions/<name>.tsv`` in segment order.

    Returns the fused positive labels, the fused sentiments and the file's path.
    """
    audio, video = scores["audio"][1], scores["video"][1]
    if mode == "score":
        fused, positive = fusion.score_level_fuse(audio, video, theta)
    else:
        fused, positive = fusion.output_level_fuse(audio, video)
    sentiment = metrics.scale_confidence(fused)
    lines = ["id\taudio_score\tvideo_score\tfused_score\tlabel\tsentiment"]
    columns = (audio, video, fused, positive, sentiment)
    for segment, a, v, f, pos, sent in zip(segments, *(column.tolist() for column in columns)):
        lines.append(f"{segment.id}\t{a!r}\t{v!r}\t{f!r}\t{'positive' if pos else 'negative'}\t{sent!r}")
    path = out_dir / "predictions" / f"{name}.tsv"
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic.write_text(path, "\n".join(lines) + "\n")
    return positive, sentiment, path


def _write_report(reports_dir: Path, name: str, report: metrics.MetricReport, title: str) -> None:
    path = reports_dir / f"{name}.json"
    _write_json(path, asdict(report))
    atomic.write_text(path.with_suffix(".txt"), metrics.format_report(report, title=title))


@dataclass
class EvaluateResult:
    reports: dict[str, metrics.MetricReport]
    theta: float | None
    fusion_mode: str


def run_evaluate(
    manifest: Manifest,
    split: str,
    config: PipelineConfig,
    out_dir: str | Path,
    fusion_mode: str | None = None,
    theta: float | None = None,
    force: bool = False,
) -> EvaluateResult:
    """Score one split, fuse, and write per-modality plus fused metric reports.

    With score-level fusion and no fixed weight, the weight is grid-searched
    on this split and the per-candidate trace is written next to the reports.
    Only a grid-searched weight is recorded for later ``predict`` runs; a fixed
    one (argument or config) appears in the trace alone.
    """
    out_dir = Path(out_dir)
    mode = _fusion_mode(config, fusion_mode, theta)
    segments, scores = _score_segments(manifest, split, config, out_dir, force)
    truth_sentiment = np.array([segment.sentiment for segment in segments])
    truth = truth_sentiment > 0  # strictly positive is positive, as in corpus.binarize
    if truth.all() or not truth.any():
        raise PipelineError(f"split {split!r} holds a single class; evaluation metrics need both")

    audio, video = scores["audio"][1], scores["video"][1]
    score_path = out_dir / "scores" / f"{split}.tsv"
    score_path.parent.mkdir(parents=True, exist_ok=True)
    fusion.write_scores(
        score_path,
        [
            row
            for segment, a, v in zip(segments, audio.tolist(), video.tolist())
            for row in ((segment.id, "audio", a), (segment.id, "video", v))
        ],
    )

    reports: dict[str, metrics.MetricReport] = {}
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    for modality in MODALITIES:
        distances, confidences = scores[modality]
        reports[modality] = metrics.compute_report(
            distances > 0, truth, metrics.scale_confidence(confidences), truth_sentiment
        )
        _write_report(reports_dir, f"{split}_{modality}", reports[modality], f"{modality} / {split}")

    chosen_theta: float | None = None
    if mode == "score":
        chosen_theta = theta if theta is not None else config.theta
        candidates = fusion.theta_candidates(config.theta_grid_step)
        trace = [
            {"theta": candidate, "error": fusion.evaluate_theta(audio, video, truth, candidate)}
            for candidate in candidates
        ]
        source = "fixed"
        if chosen_theta is None:
            chosen_theta = fusion.grid_search_theta(audio, video, truth, candidates)
            source = "grid-search"
            state = load_state(out_dir)
            state["fusion"] = {"theta": chosen_theta, "split": split}
            _save_state(out_dir, state)
        _write_json(
            reports_dir / f"{split}_theta_trace.json",
            {"selected": chosen_theta, "source": source, "trace": trace},
        )

    fused_labels, fused_sentiment, _ = _fuse_and_write(out_dir, split, segments, scores, mode, chosen_theta)
    reports["fused"] = metrics.compute_report(fused_labels, truth, fused_sentiment, truth_sentiment)
    _write_report(reports_dir, f"{split}_fused_{mode}", reports["fused"], f"fused ({mode}) / {split}")
    return EvaluateResult(reports=reports, theta=chosen_theta, fusion_mode=mode)


def run_predict(
    manifest: Manifest,
    config: PipelineConfig,
    out_dir: str | Path,
    split: str | None = None,
    fusion_mode: str | None = None,
    theta: float | None = None,
    force: bool = False,
) -> Path:
    """Emit fused predictions (no ground truth needed) for a manifest or one split.

    The fusion weight falls back, in order: explicit argument, config value,
    the weight recorded by the last grid-searched evaluation, equal weights.
    """
    out_dir = Path(out_dir)
    mode = _fusion_mode(config, fusion_mode, theta)
    segments, scores = _score_segments(manifest, split, config, out_dir, force)

    chosen_theta: float | None = None
    if mode == "score":
        if theta is not None:
            chosen_theta = theta
        elif config.theta is not None:
            chosen_theta = config.theta
        else:
            recorded = load_state(out_dir).get("fusion", {}).get("theta")
            chosen_theta = float(recorded) if recorded is not None else 0.5

    return _fuse_and_write(out_dir, split or "all", segments, scores, mode, chosen_theta)[2]

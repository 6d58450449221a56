"""Stage runner: extraction, training, evaluation and prediction over a corpus.

Stages hand data to each other through files under one output directory.
Each descriptor file's header records the extract hash and the media digest it
was made from, and ``train`` records its configuration hash in
``artifacts.json``; later stages refuse artifacts built under a different
configuration unless forced. Given the same inputs, configuration and seed,
every stage writes byte-identical artifacts regardless of worker count.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import atomic, classifier, codebook, fusion, metrics
from .config import PipelineConfig, derive_seed, extract_hash, train_hash, train_labels_hash
from .corpus import Manifest, Polarity, filter_split
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


def load_state(out_dir: Path) -> dict:
    path = out_dir / "artifacts.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def _write_json(path: Path, payload) -> None:
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


def _is_fresh(dst: Path, segment_id: str, current: str, media: Path) -> bool:
    """Whether ``dst`` reads and its header holds ``segment_id``, extract hash ``current`` and ``media``'s SHA-256."""
    with contextlib.suppress(OSError, ValueError):
        old = read_descriptors(dst)
        digest = hashlib.sha256(media.read_bytes()).hexdigest()
        return (old.segment_id, old.extract_hash, old.media_digest) == (segment_id, current, digest)
    return False


def _extract_one(segment, modality: str, config: PipelineConfig, current: str, media: Path, dst: Path) -> None:
    data = media.read_bytes()  # read once: the digest is of the bytes the rows come from
    digest = hashlib.sha256(data).hexdigest()
    if modality == "audio":
        rows = extract_audio_descriptors(read_pcm(media, data, segment.sample_rate), config.audio)
    else:
        rows = extract_video_descriptors(read_frame_volume(media, data), config.video)
    write_descriptors(dst, DescriptorSet(segment.id, rows, current, digest))


def run_extract(
    manifest: Manifest,
    config: PipelineConfig,
    out_dir: str | Path,
    modalities: tuple[str, ...] = MODALITIES,
    workers: int = 1,
    force: bool = False,
) -> ExtractResult:
    """Extract descriptors for every manifest segment, one file per (segment, modality).

    Unless forced, a job is skipped when its file reads and its header holds the
    current extract hash and its media's SHA-256 (``_is_fresh``); per-segment
    failures are logged and collected while the rest of the run continues.
    """
    out_dir = Path(out_dir)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    for modality in modalities:
        if modality not in MODALITIES:
            raise ValueError(f"unknown modality {modality!r}")
    current = extract_hash(config)
    jobs = []
    result = ExtractResult()
    for modality in modalities:
        for segment in manifest:
            media = manifest.resolve(segment.audio_path if modality == "audio" else segment.video_path)
            dst = descriptor_path(out_dir, modality, segment.id)
            if not force and _is_fresh(dst, segment.id, current, media):
                result.skipped.append(f"{modality}:{segment.id}")
                continue
            jobs.append((segment, modality, media, dst))

    def run_job(job) -> tuple[str, str | None]:
        segment, modality, media, dst = job
        try:
            _extract_one(segment, modality, config, current, media, dst)
        except Exception as exc:  # noqa: BLE001 - per-segment isolation is the contract
            logger.error("extraction failed for %s/%s: %s", modality, segment.id, exc)
            return f"{modality}:{segment.id}", str(exc)
        return f"{modality}:{segment.id}", None

    # The pool starts no thread unless it is used, i.e. when workers > 1.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for key, error in (pool.map if workers > 1 else map)(run_job, jobs):
            if error is None:
                result.extracted.append(key)
            else:
                result.failures[key] = error
    result.extracted.sort()
    return result


# ---------------------------------------------------------------------------
# shared loading helpers


def _refuse_stale(stage: str, key: str, recorded: str, current: str, force: bool) -> None:
    """Raise ``StaleArtifactsError`` unless ``recorded`` is ``current``; a forced mismatch only warns."""
    if recorded != current:
        problem = f"{stage} artifacts are stale: recorded {key} {recorded}, current {current}"
        if not force:
            raise StaleArtifactsError(f"{problem}; re-run {stage.split('/')[0]} or pass force")
        logger.warning("%s (forced)", problem)


def _check_train(out_dir: Path, key: str, current: str, force: bool) -> None:
    """Refuse the trained artifacts unless their record holds ``current`` under ``key``."""
    record = load_state(out_dir).get("train")
    if record is None:
        raise PipelineError(f"{out_dir}: no train artifacts recorded; run train first")
    _refuse_stale("train", key, record.get(key), current, force)


def _load_sets(manifest: Manifest, out_dir: Path, modality: str, current: str, force: bool) -> list[DescriptorSet]:
    """Each segment's ``modality`` descriptors, refused (or, forced, warned once) unless extracted under ``current``."""
    sets, missing = [], []
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
            + ("..." if len(missing) > 5 else "") + "; run extract first"
        )
    recorded = ", ".join(sorted({dset.extract_hash for dset in sets} - {current})) or current
    _refuse_stale(f"extract/{modality}", "hash", recorded, current, force)
    return sets


# ---------------------------------------------------------------------------
# train


def run_train(manifest: Manifest, config: PipelineConfig, out_dir: str | Path, force: bool = False) -> None:
    """Fit a codebook and an SVM per modality from the training split, then write them together.

    Nothing is written until both modalities are fitted, so a failed fit leaves
    the run directory as it was. The writes remove ``artifacts.json`` first and
    write it last, holding only the new train record: a run cut short in between
    leaves no record, and a fusion weight tuned on the replaced models is dropped.
    """
    out_dir = Path(out_dir)
    train_manifest = filter_split(manifest, "train")
    if len(train_manifest) == 0:
        raise PipelineError("training split is empty")
    labels = [segment.label() for segment in train_manifest]
    if len(set(labels)) < 2:
        only = labels[0].name.lower()
        raise PipelineError(f"training split holds only {only} segments; both classes are required")

    y = np.array([label.value for label in labels], dtype=np.float64)
    modality_sets = {m: _load_sets(train_manifest, out_dir, m, extract_hash(config), force) for m in MODALITIES}
    fitted = {}
    for modality, sets in modality_sets.items():
        rows, counts = codebook.sample_balanced(
            zip(sets, labels), config.sample_budget, derive_seed(config.seed, "sample", modality)
        )
        book = codebook.fit_gmm(
            rows,
            config.codebook_size,
            derive_seed(config.seed, "gmm", modality),
            max_iters=config.gmm_max_iters,
            tol=config.gmm_tol,
            variance_floor_scale=config.variance_floor_scale,
            modality=modality,
            counts=counts,
        )
        X = np.stack([codebook.encode(book, dset).values for dset in sets])
        table, solves = classifier.cv_accuracy_table(
            X,
            y,
            derive_seed(config.seed, "cv", modality),
            n_folds=config.cv_folds,
            c_grid=classifier.c_grid(config.c_exponent_min, config.c_exponent_max),
            max_epochs=config.svm_max_epochs,
            tol=config.svm_tol,
        )
        best_c = classifier.select_c(table)
        model = classifier.train_svm(X, y, best_c, max_epochs=config.svm_max_epochs, tol=config.svm_tol)
        final = {"C": best_c, **model.solve._asdict()}
        logger.info("%s: selected C=%g (cv accuracy %.4f)", modality, best_c, dict(table)[best_c])
        _warn_unconverged(modality, [*solves, final], config)
        record = {"selected_c": best_c, "table": [[C, acc] for C, acc in table], "solves": solves, "final": final}
        fitted[modality] = (book, model, record)

    state_path = out_dir / "artifacts.json"
    state_path.unlink(missing_ok=True)
    for modality, (book, model, record) in fitted.items():
        codebook.write_codebook(codebook_path(out_dir, modality), book)
        classifier.write_svm_model(svm_path(out_dir, modality), model)
        _write_json(out_dir / "models" / f"{modality}_cv.json", record)
    train = {"hash": train_hash(config), "labels": train_labels_hash(manifest), "seed": config.seed}
    _write_json(state_path, {"train": train})


def _warn_unconverged(modality: str, solves: list[dict], config: PipelineConfig) -> None:
    """One warning per C at which some SVM solve stopped short of ``svm_tol``."""
    stopped = [solve for solve in solves if not solve["converged"]]
    for C in sorted({solve["C"] for solve in stopped}):
        gaps = [solve["gap"] for solve in stopped if solve["C"] == C]
        logger.warning(
            "%s: %d SVM solve(s) at C=%g stopped short of svm_tol=%g within svm_max_epochs=%d (largest gap %.3g)",
            modality, len(gaps), C, config.svm_tol, config.svm_max_epochs, max(gaps)
        )


# ---------------------------------------------------------------------------
# scoring, evaluation, prediction

# Per modality: SVM distances and normalized confidences, in segment order.
Scores = dict[str, tuple[np.ndarray, np.ndarray]]


def _score_segments(
    manifest: Manifest, split: str | None, config: PipelineConfig, out_dir: Path, force: bool
) -> tuple[Manifest, Scores]:
    """Check the stage states, pick the segments of ``split`` (all when None) and score them."""
    _check_train(out_dir, "hash", train_hash(config), force)
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
        sets = _load_sets(segments, out_dir, modality, extract_hash(config), force)
        distances = classifier.decision_distances(
            model, np.stack([codebook.encode(book, dset).values for dset in sets])
        )
        scores[modality] = (distances, classifier.normalize_score(model, distances))
    return segments, scores


def _with_fusion(config: PipelineConfig, fusion_mode: str | None, theta: float | None) -> PipelineConfig:
    """``config`` with the given fusion mode and weight in place of its own, checked before anything is written."""
    return replace(
        config, fusion_mode=fusion_mode or config.fusion_mode, theta=config.theta if theta is None else theta
    )


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
    one (argument or config) appears in the trace alone. A manifest whose train
    split differs from the one ``train`` fitted is refused unless forced.
    """
    out_dir = Path(out_dir)
    config = _with_fusion(config, fusion_mode, theta)
    segments, scores = _score_segments(manifest, split, config, out_dir, force)
    if len(filter_split(manifest, "train")):
        _check_train(out_dir, "labels", train_labels_hash(manifest), force)
    truth_sentiment = np.array([segment.sentiment for segment in segments])
    truth = np.array([segment.label() is Polarity.POSITIVE for segment in segments])
    if truth.all() or not truth.any():
        raise PipelineError(f"split {split!r} holds a single class; evaluation metrics need both")

    reports: dict[str, metrics.MetricReport] = {}
    reports_dir = out_dir / "reports"
    for modality in MODALITIES:
        distances, confidences = scores[modality]
        reports[modality] = metrics.compute_report(
            distances > 0, truth, metrics.scale_confidence(confidences), truth_sentiment
        )
        _write_report(reports_dir, f"{split}_{modality}", reports[modality], f"{modality} / {split}")

    mode = config.fusion_mode
    chosen_theta: float | None = None
    if mode == "score":
        chosen_theta = config.theta
        candidates = fusion.theta_candidates(config.theta_grid_step)
        searched, errors = fusion.grid_search_theta(scores["audio"][1], scores["video"][1], truth, candidates)
        trace = [{"theta": candidate, "error": error} for candidate, error in zip(candidates, errors)]
        source = "fixed"
        if chosen_theta is None:
            chosen_theta = searched
            source = "grid-search"
            state = load_state(out_dir)
            state["fusion"] = {"theta": chosen_theta, "split": split}
            _write_json(out_dir / "artifacts.json", state)
        _write_json(
            reports_dir / f"{split}_theta_trace.json",
            {"selected": chosen_theta, "source": source, "trace": trace},
        )

    fused_labels, fused_sentiment, _ = _fuse_and_write(out_dir, split, segments, scores, mode, chosen_theta)
    reports["fused"] = metrics.compute_report(fused_labels, truth, fused_sentiment, truth_sentiment)
    _write_report(reports_dir, f"{split}_fused_{mode}", reports["fused"], f"fused ({mode}) / {split}")
    return EvaluateResult(reports=reports, theta=chosen_theta)


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
    config = _with_fusion(config, fusion_mode, theta)
    segments, scores = _score_segments(manifest, split, config, out_dir, force)

    chosen_theta = config.theta
    if config.fusion_mode == "score" and chosen_theta is None:
        recorded = load_state(out_dir).get("fusion", {}).get("theta")
        chosen_theta = float(recorded) if recorded is not None else 0.5

    return _fuse_and_write(out_dir, split or "all", segments, scores, config.fusion_mode, chosen_theta)[2]

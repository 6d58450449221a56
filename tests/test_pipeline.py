import dataclasses
import functools
import hashlib
import json
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest

from bofsent import atomic, classifier, cli, codebook, fusion, pipeline
from bofsent.classifier import LinearSvmModel, write_svm_model
from bofsent.codebook import GmmCodebook, write_codebook
from bofsent.config import (
    PipelineConfig,
    config_from_dict,
    derive_seed,
    dump_config,
    extract_hash,
    load_config,
    train_hash,
    train_labels_hash,
)
from bofsent.corpus import Manifest, Polarity, Segment, filter_split, load_manifest, save_manifest
from bofsent.descriptors import DescriptorSet, read_descriptors, write_descriptors
from bofsent.fusion import score_level_fuse
from bofsent.prosody import PcmSignal, ProsodyConfig, write_pcm
from bofsent.synth import SynthConfig, generate_corpus
from bofsent.video import DetectorConfig, FrameVolume, write_frame_volume

SYNTH = SynthConfig(n_train=24, n_validation=12, duration=0.8, frames=14, height=36, width=36)
CONFIG = PipelineConfig(
    codebook_size=6,
    sample_budget=1200,
    video=DetectorConfig(spatial_scales=(1.2, 2.4), temporal_scales=(1.0, 2.0)),
    seed=7,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest_path = generate_corpus(root, SYNTH, seed=21)
    return load_manifest(manifest_path)


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    extract = pipeline.run_extract(corpus, CONFIG, out_dir, workers=2)
    assert extract.ok
    pipeline.run_train(corpus, CONFIG, out_dir)
    return out_dir


class TestConfig:
    def test_defaults_carry_reference_values(self):
        config = PipelineConfig()
        assert config.codebook_size == 256
        assert config.sample_budget == 1_000_000
        assert config.cv_folds == 5
        assert (config.c_exponent_min, config.c_exponent_max) == (-3, 15)
        assert len(classifier.c_grid(config.c_exponent_min, config.c_exponent_max)) == 19
        assert config.theta_grid_step == 0.2
        assert fusion.theta_candidates(config.theta_grid_step) == (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0)

    def test_theta_candidates_follow_step(self):
        config = dataclasses.replace(CONFIG, theta_grid_step=0.5)
        assert fusion.theta_candidates(config.theta_grid_step) == (0.0, 0.5, 1.0)

    def test_json_roundtrip(self, tmp_path):
        config = dataclasses.replace(CONFIG, theta=0.4, audio=ProsodyConfig(window=0.04))
        path = tmp_path / "c.json"
        path.write_text(dump_config(config))
        assert load_config(path) == config

    def test_partial_config_keeps_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"codebook_size": 32}')
        config = load_config(path)
        assert config.codebook_size == 32
        assert config.sample_budget == 1_000_000

    @pytest.mark.parametrize("step", [0.15, 0.35, 0.06])
    def test_theta_grid_stays_in_unit_interval(self, step):
        candidates = fusion.theta_candidates(step)
        assert {0.0, 0.5, 1.0} <= set(candidates)
        assert all(0.0 <= theta <= 1.0 for theta in candidates)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"gmm_max_iters": 0}, "gmm_max_iters 0 must be at least 1"),
            ({"cv_folds": 0}, "cv_folds 0 must be at least 2"),
            ({"cv_folds": 1}, "cv_folds 1 must be at least 2"),
            ({"c_exponent_min": 3, "c_exponent_max": 2}, "c_exponent_min 3 exceeds c_exponent_max 2"),
            ({"c_exponent_max": 1024}, r"C exponents \[-3, 1024\] outside \[-1074, 1023\]"),
            ({"c_exponent_min": -1075}, r"C exponents \[-1075, 15\] outside \[-1074, 1023\]"),
            ({"variance_floor_scale": float("nan")}, "variance_floor_scale nan must be finite and above 0"),
            ({"variance_floor_scale": float("inf")}, "variance_floor_scale inf must be finite and above 0"),
            ({"variance_floor_scale": 0}, "variance_floor_scale 0.0 must be finite and above 0"),
            ({"variance_floor_scale": -1}, "variance_floor_scale -1.0 must be finite and above 0"),
            ({"theta_grid_step": 0.0009}, r"theta_grid_step 0.0009 outside \[0.001, 1\]"),
            ({"codebook_size": 0}, "codebook_size 0 must be at least 1"),
            ({"svm_max_epochs": 0}, "svm_max_epochs 0 must be at least 1"),
            ({"sample_budget": 3}, "sample_budget 3 must be a positive even number"),
            ({"sample_budget": 0}, "sample_budget 0 must be a positive even number"),
            ({"sample_budget": 2}, "sample_budget 2 is below the 2560 rows codebook_size needs"),
            ({"codebook_size": 8, "sample_budget": 78}, "sample_budget 78 is below the 80 rows"),
            ({"gmm_tol": float("inf")}, "gmm_tol inf must be finite and at least 0"),
            ({"svm_tol": -1e-6}, "svm_tol -1e-06 must be finite and at least 0"),
        ],
        ids=["no-em-iterations", "no-folds", "one-fold", "empty-c-grid", "overflowing-c", "zero-c", "nan-floor",
             "infinite-floor", "zero-floor", "negative-floor", "tiny-theta-step", "empty-codebook", "no-svm-epochs",
             "odd-budget", "zero-budget", "budget-under-codebook", "budget-one-row-short", "infinite-gmm-tol",
             "negative-svm-tol"],
    )
    def test_unusable_training_settings_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            config_from_dict(fields)

    def test_extreme_usable_settings_accepted(self):
        config = config_from_dict({"c_exponent_min": -1074, "c_exponent_max": 1023, "theta_grid_step": 0.001})
        grid = classifier.c_grid(config.c_exponent_min, config.c_exponent_max)
        assert grid[0] > 0.0 and np.isfinite(grid[-1])
        assert len(fusion.theta_candidates(config.theta_grid_step)) == 1001

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict({"codebok_size": 8})

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"audio": 5}, "ProsodyConfig must be a JSON object, not int"),
            ({"video": {"threshold": 1e-3, "scales": [1.0]}}, r"unknown DetectorConfig fields \['scales'\]"),
            ([{"codebook_size": 8}], "PipelineConfig must be a JSON object, not list"),
        ],
        ids=["section-not-object", "unknown-nested-name", "top-level-list"],
    )
    def test_malformed_config_rejected(self, raw, message):
        with pytest.raises(ValueError, match=message):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"gmm_max_iters": "5"}, "PipelineConfig.gmm_max_iters must be a JSON integer, not str '5'"),
            ({"seed": 7.0}, "PipelineConfig.seed must be a JSON integer, not float 7.0"),
            ({"gmm_tol": True}, "PipelineConfig.gmm_tol must be a JSON number, not bool True"),
            ({"theta": [0.5]}, r"PipelineConfig.theta must be a JSON number, not list \[0.5\]"),
            ({"fusion_mode": 1}, "PipelineConfig.fusion_mode must be a JSON string, not int 1"),
            ({"video": {"max_points": True}}, "DetectorConfig.max_points must be a JSON integer, not bool True"),
            ({"video": {"spatial_scales": ["1.2"]}}, r"DetectorConfig.spatial_scales\[0\] must be a JSON number"),
            ({"video": {"temporal_scales": 2.0}}, "DetectorConfig.temporal_scales must be a JSON array, not float"),
            ({"audio": {"n_harmonics": 2.0}}, "ProsodyConfig.n_harmonics must be a JSON integer, not float 2.0"),
        ],
        ids=["string-count", "float-seed", "bool-number", "list-number", "int-string", "bool-count", "string-scale",
             "scalar-ladder", "float-count"],
    )
    def test_wrong_json_type_rejected(self, raw, message):
        with pytest.raises(ValueError, match=message):
            config_from_dict(raw)

    def test_json_integers_fill_number_fields(self):
        config = config_from_dict({"theta": 1, "gmm_tol": 0, "video": {"spatial_scales": [1, 2.5]}})
        assert (config.theta, config.gmm_tol, config.video.spatial_scales) == (1, 0, (1, 2.5))
        assert {type(value) for value in (config.theta, config.gmm_tol, *config.video.spatial_scales)} == {float}
        assert config_from_dict({"theta": None}).theta is None

    def test_json_integer_in_number_field_keeps_the_hashes(self):
        # JSON has one number type: a config restating a default as an integer is the default config.
        assert extract_hash(config_from_dict({"audio": {"f0_max": 400}})) == extract_hash(PipelineConfig())
        assert train_hash(config_from_dict({"gmm_tol": 0})) == train_hash(config_from_dict({"gmm_tol": 0.0}))

    def test_integer_too_large_for_a_float_rejected(self):
        with pytest.raises(ValueError, match="PipelineConfig.gmm_tol must be a number a float can hold"):
            config_from_dict({"gmm_tol": 10**400})

    def test_config_file_not_an_object_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="c.json: config must be a JSON object"):
            load_config(path)

    def test_hashes_track_relevant_sections(self):
        base = PipelineConfig()
        assert extract_hash(base) == extract_hash(dataclasses.replace(base, codebook_size=8))
        changed_audio = dataclasses.replace(base, audio=ProsodyConfig(window=0.03))
        assert extract_hash(base) != extract_hash(changed_audio)
        assert train_hash(base) != train_hash(dataclasses.replace(base, seed=1))
        assert train_hash(base) != train_hash(changed_audio)

    def test_hashes_keep_their_digests(self):
        # Digests that earlier versions recorded, so the run directories they built stay fresh.
        assert extract_hash(PipelineConfig()) == "e3fb622ff9fc6717"
        assert train_hash(PipelineConfig()) == "e1ebfe694afd39b0"
        workloads = {
            "d771f9bd9b176431": dict(codebook_size=16, sample_budget=20_000, svm_max_epochs=100),
            "fc0291761da545b0": dict(
                codebook_size=256, sample_budget=16_000, gmm_max_iters=5, c_exponent_min=0, c_exponent_max=0, cv_folds=2
            ),
            "70007e567f0446fd": dict(
                codebook_size=16, sample_budget=4_000, gmm_max_iters=20, c_exponent_min=0, c_exponent_max=0, cv_folds=2
            ),
        }
        for digest, fields in workloads.items():
            assert train_hash(PipelineConfig(seed=7, **fields)) == digest

    def test_each_field_feeds_exactly_one_hash_or_fusion(self):
        base = PipelineConfig()
        changed = {
            "audio": ProsodyConfig(window=0.03),
            "video": DetectorConfig(threshold=1e-3),
            "sample_budget": 500_000,  # the budget must stay even
            "fusion_mode": "output",
            "theta": 0.4,
            "theta_grid_step": 0.25,
        }
        sections = {}
        for f in dataclasses.fields(PipelineConfig):
            value = changed[f.name] if f.name in changed else getattr(base, f.name) + 1
            config = dataclasses.replace(base, **{f.name: value})
            if extract_hash(config) != extract_hash(base):
                assert train_hash(config) != train_hash(base), f.name
                sections[f.name] = "extract"
            else:
                sections[f.name] = "train" if train_hash(config) != train_hash(base) else "fusion"
        fusion_time = {"fusion_mode", "theta", "theta_grid_step"}
        assert {name for name, section in sections.items() if section == "extract"} == {"audio", "video"}
        assert {name for name, section in sections.items() if section == "fusion"} == fusion_time
        assert len(sections) == 16

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, "gmm", "audio") == derive_seed(7, "gmm", "audio")
        assert derive_seed(7, "gmm", "audio") != derive_seed(7, "gmm", "video")
        assert derive_seed(7, "gmm", "audio") != derive_seed(8, "gmm", "audio")


class TestExtract:
    def test_produces_descriptor_files(self, corpus, trained):
        for segment in corpus:
            audio = read_descriptors(pipeline.descriptor_path(trained, "audio", segment.id))
            video = read_descriptors(pipeline.descriptor_path(trained, "video", segment.id))
            assert audio.dim == 3 and len(audio) > 0
            assert video.dim == 64

    def test_header_records_extract_hash_and_media_digest(self, corpus, trained):
        for segment in corpus.segments[:4]:
            for modality, media in (("audio", segment.audio_path), ("video", segment.video_path)):
                dset = read_descriptors(pipeline.descriptor_path(trained, modality, segment.id))
                assert dset.extract_hash == extract_hash(CONFIG)
                assert dset.media_digest == hashlib.sha256(corpus.resolve(media).read_bytes()).hexdigest()

    def test_second_run_skips_everything(self, corpus, trained):
        before = {
            p: p.stat().st_mtime_ns for p in (trained / "descriptors").rglob("*.dsc")
        }
        result = pipeline.run_extract(corpus, CONFIG, trained)
        assert result.extracted == []
        assert len(result.skipped) == 2 * len(corpus)
        after = {p: p.stat().st_mtime_ns for p in (trained / "descriptors").rglob("*.dsc")}
        assert before == after

    def test_changed_media_is_reextracted(self, corpus, tmp_path):
        # Same size, other bytes: only the media's digest tells the file changed.
        shutil.copytree(corpus.base_dir, tmp_path / "corpus")
        small = Manifest(segments=corpus.segments[:4], base_dir=tmp_path / "corpus")
        out = tmp_path / "run"
        assert pipeline.run_extract(small, CONFIG, out).ok
        victim, donor = (small.resolve(segment.video_path) for segment in small.segments[1:3])
        assert victim.stat().st_size == donor.stat().st_size and victim.read_bytes() != donor.read_bytes()
        shutil.copyfile(donor, victim)
        result = pipeline.run_extract(small, CONFIG, out)
        assert result.ok and result.extracted == [f"video:{small.segments[1].id}"]
        assert len(result.skipped) == 2 * len(small) - 1

    def test_damaged_file_is_reextracted(self, corpus, tmp_path):
        small = Manifest(segments=corpus.segments[:3], base_dir=corpus.base_dir)
        victim = small.segments[1].id
        out = tmp_path / "damaged"
        assert pipeline.run_extract(small, CONFIG, out, modalities=("audio",)).ok
        path = pipeline.descriptor_path(out, "audio", victim)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])  # a partial copy, not an interrupted atomic write
        result = pipeline.run_extract(small, CONFIG, out, modalities=("audio",))
        assert result.ok and result.extracted == [f"audio:{victim}"]
        assert len(result.skipped) == 2
        assert path.read_bytes() == whole

    def test_media_read_once_and_named_in_errors(self, corpus, trained, tmp_path, monkeypatch):
        shutil.copytree(corpus.base_dir, tmp_path / "corpus")
        small = Manifest(segments=corpus.segments[:2], base_dir=tmp_path / "corpus")
        media = [small.resolve(p) for s in small for p in (s.audio_path, s.video_path)]
        cut = media[-1]
        cut.write_bytes(cut.read_bytes()[:-1])
        reads = []
        read_bytes = Path.read_bytes

        def counted(path):
            reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counted)
        out = tmp_path / "run"
        result = pipeline.run_extract(small, CONFIG, out)
        assert sorted(str(path) for path in reads if path.suffix in (".pcm", ".fvl")) == sorted(map(str, media))
        failed = f"video:{small.segments[1].id}"
        assert list(result.failures) == [failed] and str(cut) in result.failures[failed]
        for modality in pipeline.MODALITIES:  # the same bytes as the fixture's extraction
            written, expected = (pipeline.descriptor_path(d, modality, small.segments[0].id) for d in (out, trained))
            assert read_bytes(written) == read_bytes(expected)

    def test_extract_keeps_no_stage_record(self, corpus, tmp_path):
        # Freshness lives in each descriptor file's header, not in artifacts.json.
        out = tmp_path / "stateless"
        assert pipeline.run_extract(Manifest(segments=corpus.segments[:2], base_dir=corpus.base_dir), CONFIG, out).ok
        assert not (out / "artifacts.json").exists()

    def test_audio_only_three_segments(self, corpus, tmp_path):
        small = Manifest(segments=corpus.segments[:3], base_dir=corpus.base_dir)
        out = tmp_path / "audio_only"
        result = pipeline.run_extract(small, CONFIG, out, modalities=("audio",))
        assert result.ok and len(result.extracted) == 3
        files = sorted((out / "descriptors" / "audio").glob("*.dsc"))
        assert len(files) == 3
        assert all(read_descriptors(f).dim == 3 for f in files)
        assert not (out / "descriptors" / "video").exists()

    def test_freshness_is_per_modality(self, corpus, tmp_path):
        # Audio re-extracted under a new config must not make the old video files look fresh.
        small = Manifest(segments=corpus.segments[:8], base_dir=corpus.base_dir)
        changed = dataclasses.replace(CONFIG, audio=ProsodyConfig(window=0.03))
        out = tmp_path / "per_modality"
        pipeline.run_extract(small, CONFIG, out)
        assert len(pipeline.run_extract(small, changed, out, modalities=("audio",)).extracted) == 8
        result = pipeline.run_extract(small, changed, out, modalities=("video",))
        assert result.skipped == []
        assert result.extracted == sorted(f"video:{segment.id}" for segment in small)
        assert pipeline.run_extract(small, changed, out).extracted == []

    def test_missing_media_isolated(self, corpus, tmp_path):
        broken = Manifest(
            segments=corpus.segments[:2]
            + (
                Segment(
                    id="ghost",
                    audio_path="audio/ghost.pcm",
                    video_path="video/ghost.fvl",
                    sentiment=1.0,
                    split="train",
                ),
            ),
            base_dir=corpus.base_dir,
        )
        result = pipeline.run_extract(broken, CONFIG, tmp_path / "broken")
        assert set(result.failures) == {"audio:ghost", "video:ghost"}
        assert len(result.extracted) == 4

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected_before_any_job(self, corpus, tmp_path, workers):
        out_dir = tmp_path / "run"
        with pytest.raises(ValueError, match="workers must be at least 1"):
            pipeline.run_extract(corpus, CONFIG, out_dir, workers=workers)
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_interrupted_write_is_reextracted(self, corpus, tmp_path, monkeypatch):
        small = Manifest(segments=corpus.segments[:3], base_dir=corpus.base_dir)
        victim = small.segments[1].id
        out = tmp_path / "crash"

        def crash_midway(path, mode):
            # The shared writer writes "DSC1", part of the header, then the write dies.
            return _DiesAfterFourBytes(open(path, mode)) if path.name == f"{victim}.dsc.tmp" else open(path, mode)

        monkeypatch.setattr(atomic, "open", crash_midway, raising=False)
        first = pipeline.run_extract(small, CONFIG, out, modalities=("audio",))
        assert set(first.failures) == {f"audio:{victim}"}
        assert sorted(p.name for p in (out / "descriptors" / "audio").iterdir()) == sorted(
            f"{s.id}.dsc" for s in small if s.id != victim
        )

        monkeypatch.undo()
        second = pipeline.run_extract(small, CONFIG, out, modalities=("audio",))
        assert second.ok
        assert second.extracted == [f"audio:{victim}"]
        assert len(read_descriptors(pipeline.descriptor_path(out, "audio", victim))) > 0


class _DiesAfterFourBytes:
    """A file whose first write stores four bytes and then raises, as a crash mid-write would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:4])
        raise OSError("simulated crash")


def _codebook(scale):
    return GmmCodebook(
        weights=np.full(2, 0.5), means=scale * np.ones((2, 3)), variances=np.ones((2, 3)), modality="video"
    )


def _svm(scale):
    return LinearSvmModel(w=scale * np.ones(4), b=scale, C=1.0, score_min=-1.0, score_max=1.0)


# Each artifact writer, with an old and a new payload.
ARTIFACT_WRITERS = {
    "codebook": (write_codebook, _codebook(1.0), _codebook(2.0)),
    "svm": (write_svm_model, _svm(1.0), _svm(2.0)),
    "descriptors": (
        write_descriptors,
        DescriptorSet("s", np.zeros((3, 2), dtype=np.float32)),
        DescriptorSet("s", np.ones((5, 2), dtype=np.float32)),
    ),
    "json": (pipeline._write_json, {"theta": 0.2}, {"theta": 0.8, "split": "validation"}),
    "text": (atomic.write_text, "old report\n", "new report, longer than the old one\n"),
    "pcm": (write_pcm, PcmSignal(np.zeros(4), 8000), PcmSignal(np.full(6, 0.5), 16000)),
    "volume": (write_frame_volume, FrameVolume(np.zeros((3, 16, 16)), 10.0), FrameVolume(np.ones((4, 16, 16)), 12.5)),
    "manifest": (
        lambda path, manifest: save_manifest(manifest, path),
        Manifest(segments=(Segment("a", "a.pcm", "a.fvl", 1.0, "train"),)),
        Manifest(segments=(Segment("b", "b.pcm", "b.fvl", -1.0, "validation"), Segment("c", "c", "c", 0.5, "test"))),
    ),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("kind", sorted(ARTIFACT_WRITERS))
    def test_failed_write_keeps_previous_file(self, kind, tmp_path, monkeypatch):
        write, old, new = ARTIFACT_WRITERS[kind]
        path = tmp_path / "artifact"
        write(path, old)
        before = path.read_bytes()
        monkeypatch.setattr(atomic, "open", lambda p, mode: _DiesAfterFourBytes(open(p, mode)), raising=False)
        with pytest.raises(OSError, match="simulated crash"):
            write(path, new)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]

        monkeypatch.undo()
        write(path, new)
        assert path.read_bytes() != before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


class TestTrain:
    def test_artifacts_exist(self, trained):
        for modality in ("audio", "video"):
            assert pipeline.codebook_path(trained, modality).exists()
            assert pipeline.svm_path(trained, modality).exists()
            assert (trained / "models" / f"{modality}_cv.json").exists()

    def test_retrain_is_bit_identical(self, corpus, trained):
        payloads = {}
        for modality in ("audio", "video"):
            payloads[modality] = (
                pipeline.codebook_path(trained, modality).read_bytes(),
                pipeline.svm_path(trained, modality).read_bytes(),
            )
        pipeline.run_train(corpus, CONFIG, trained)
        for modality in ("audio", "video"):
            assert pipeline.codebook_path(trained, modality).read_bytes() == payloads[modality][0]
            assert pipeline.svm_path(trained, modality).read_bytes() == payloads[modality][1]

    def test_selected_c_is_smallest_most_accurate(self, trained):
        for modality in ("audio", "video"):
            record = json.loads((trained / "models" / f"{modality}_cv.json").read_text())
            best = max(acc for _, acc in record["table"])
            assert record["selected_c"] == min(C for C, acc in record["table"] if acc == best)

    def test_solves_recorded_converged(self, trained):
        for modality in ("audio", "video"):
            record = json.loads((trained / "models" / f"{modality}_cv.json").read_text())
            grid = [C for C, _ in record["table"]]
            assert [(s["C"], s["fold"]) for s in record["solves"]] == [
                (C, fold) for C in grid for fold in range(CONFIG.cv_folds)
            ]
            assert record["final"]["C"] == record["selected_c"]
            for solve in record["solves"] + [record["final"]]:
                assert solve["converged"] and solve["gap"] <= CONFIG.svm_tol
                assert 1 <= solve["iterations"] < CONFIG.svm_max_epochs

    def test_iteration_cap_recorded_and_warned(self, corpus, trained, tmp_path, caplog):
        out_dir = tmp_path / "capped"
        shutil.copytree(trained, out_dir)
        capped = dataclasses.replace(CONFIG, svm_max_epochs=1)
        with caplog.at_level(logging.WARNING, logger=pipeline.__name__):
            pipeline.run_train(corpus, capped, out_dir)
        for modality in ("audio", "video"):
            record = json.loads((out_dir / "models" / f"{modality}_cv.json").read_text())
            for solve in record["solves"] + [record["final"]]:
                assert solve["iterations"] == 1 and solve["gap"] > capped.svm_tol
                assert solve["converged"] is False
            for C, _ in record["table"]:
                assert any(
                    message.startswith(f"{modality}: ")
                    and f" at C={C:g} " in message
                    and "svm_max_epochs=1 " in message
                    for message in caplog.messages
                ), (modality, C)

    def test_single_class_split_rejected(self, corpus, trained, tmp_path):
        positive_only = Manifest(
            segments=tuple(s for s in corpus if s.label() is Polarity.POSITIVE),
            base_dir=corpus.base_dir,
        )
        with pytest.raises(pipeline.PipelineError, match="positive"):
            pipeline.run_train(positive_only, CONFIG, trained)

    def test_modality_extracted_under_another_config_refused(self, corpus, trained, tmp_path, caplog):
        out_dir = tmp_path / "audio_changed"
        shutil.copytree(trained, out_dir)
        changed = dataclasses.replace(CONFIG, audio=ProsodyConfig(window=0.03))
        pipeline.run_extract(corpus, changed, out_dir, modalities=("audio",))
        with pytest.raises(pipeline.StaleArtifactsError, match="extract/video artifacts are stale"):
            pipeline.run_train(corpus, changed, out_dir)
        with caplog.at_level(logging.WARNING, logger=pipeline.__name__):
            pipeline.run_train(corpus, changed, out_dir, force=True)
        assert any("extract/video artifacts are stale" in message for message in caplog.messages)

    def test_descriptor_files_from_another_config_refused(self, corpus, trained, tmp_path, caplog):
        # Files copied in from a run extracted under another audio config: only their headers tell.
        changed = dataclasses.replace(CONFIG, audio=ProsodyConfig(window=0.03))
        picked = [s for s in corpus if s.split == "train"][:2] + [next(s for s in corpus if s.split == "validation")]
        other = tmp_path / "other"
        assert pipeline.run_extract(Manifest(segments=tuple(picked), base_dir=corpus.base_dir), changed, other).ok
        out_dir = tmp_path / "copied"
        shutil.copytree(trained, out_dir)
        for segment in picked:
            for modality in pipeline.MODALITIES:
                dst = pipeline.descriptor_path(out_dir, modality, segment.id)
                shutil.copyfile(pipeline.descriptor_path(other, modality, segment.id), dst)
        train = functools.partial(pipeline.run_train, corpus, CONFIG, out_dir)
        evaluate = functools.partial(pipeline.run_evaluate, corpus, "validation", CONFIG, out_dir)
        for stage in (train, evaluate):
            with pytest.raises(pipeline.StaleArtifactsError, match="extract/audio artifacts are stale"):
                stage()
        expected = [
            f"extract/{m} artifacts are stale: recorded hash {extract_hash(changed)}, current {extract_hash(CONFIG)}"
            " (forced)"
            for m in pipeline.MODALITIES
        ]
        for stage in (train, evaluate):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger=pipeline.__name__):
                stage(force=True)
            assert [message for message in caplog.messages if "stale" in message] == expected
        assert "extract" not in pipeline.load_state(out_dir)

    def test_train_without_extract_rejected(self, corpus, tmp_path):
        with pytest.raises(pipeline.PipelineError, match="extract"):
            pipeline.run_train(corpus, CONFIG, tmp_path / "fresh")

    def test_failed_fit_changes_no_file(self, corpus, trained, tmp_path, monkeypatch):
        out_dir = tmp_path / "failed"
        shutil.copytree(trained, out_dir)
        expected = pipeline.run_evaluate(corpus, "validation", CONFIG, out_dir)
        before = _snapshot(out_dir)
        fit_gmm = codebook.fit_gmm

        def audio_only(*args, modality, **kwargs):
            if modality == "video":
                raise RuntimeError("video fit failed")
            return fit_gmm(*args, modality=modality, **kwargs)

        monkeypatch.setattr(codebook, "fit_gmm", audio_only)
        with pytest.raises(RuntimeError, match="video fit failed"):
            pipeline.run_train(corpus, dataclasses.replace(CONFIG, codebook_size=4), out_dir)
        assert _snapshot(out_dir) == before
        assert pipeline.run_evaluate(corpus, "validation", CONFIG, out_dir) == expected
        assert _snapshot(out_dir) == before

    def test_commit_cut_short_leaves_no_record(self, corpus, trained, tmp_path, monkeypatch):
        out_dir = tmp_path / "cut"
        shutil.copytree(trained, out_dir)
        write_svm_model = classifier.write_svm_model

        def dies_on_video(path, model):
            if path == pipeline.svm_path(out_dir, "video"):
                raise OSError("disk full")
            write_svm_model(path, model)

        monkeypatch.setattr(classifier, "write_svm_model", dies_on_video)
        with pytest.raises(OSError, match="disk full"):
            pipeline.run_train(corpus, dataclasses.replace(CONFIG, codebook_size=4), out_dir)
        assert not (out_dir / "artifacts.json").exists()
        with pytest.raises(pipeline.PipelineError, match="run train first$"):
            pipeline.run_evaluate(corpus, "validation", CONFIG, out_dir)
        with pytest.raises(pipeline.PipelineError, match="run train first$"):
            pipeline.run_predict(corpus, CONFIG, out_dir, split="validation")

    def test_retrain_drops_recorded_theta(self, corpus, trained, tmp_path):
        out_dir = tmp_path / "retrained"
        shutil.copytree(trained, out_dir)
        pipeline.run_evaluate(corpus, "validation", CONFIG, out_dir, fusion_mode="score")
        assert "fusion" in pipeline.load_state(out_dir)
        pipeline.run_train(corpus, CONFIG, out_dir)
        train = {"hash": train_hash(CONFIG), "labels": train_labels_hash(corpus), "seed": CONFIG.seed}
        assert pipeline.load_state(out_dir) == {"train": train}
        equal = pipeline.run_predict(corpus, CONFIG, out_dir, split="validation", theta=0.5).read_bytes()
        assert pipeline.run_predict(corpus, CONFIG, out_dir, split="validation").read_bytes() == equal


def _snapshot(out_dir):
    return {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}


class TestEvaluate:
    def test_validation_reports(self, corpus, trained):
        result = pipeline.run_evaluate(corpus, "validation", CONFIG, trained, fusion_mode="score")
        assert set(result.reports) == {"audio", "video", "fused"}
        # smoke-scale corpus: the full-scale quality bar lives in the acceptance suite
        assert result.reports["fused"].f1 >= 0.85
        assert result.theta is not None
        trace = json.loads((trained / "reports" / "validation_theta_trace.json").read_text())
        assert trace["selected"] == result.theta
        assert len(trace["trace"]) == 7

    def test_fixed_theta_matches_hand_fusion(self, corpus, trained):
        result = pipeline.run_evaluate(
            corpus, "validation", CONFIG, trained, fusion_mode="score", theta=0.5
        )
        assert result.theta == 0.5
        predictions = (trained / "predictions" / "validation.tsv").read_text().splitlines()[1:]
        columns = zip(*(line.split("\t") for line in predictions))
        seg_ids, audio_scores, video_scores, fused_scores, labels, _ = columns
        audio, video = np.array(audio_scores, dtype=float), np.array(video_scores, dtype=float)
        expected_fused, expected_positive = score_level_fuse(audio, video, 0.5)
        for fused_score, label, fused, positive in zip(fused_scores, labels, expected_fused, expected_positive):
            assert float(fused_score) == pytest.approx(fused, abs=1e-12)
            assert label == ("positive" if positive else "negative")
        book = codebook.read_codebook(pipeline.codebook_path(trained, "audio"))
        model = classifier.read_svm_model(pipeline.svm_path(trained, "audio"))
        X = np.stack(
            [
                codebook.encode(book, read_descriptors(pipeline.descriptor_path(trained, "audio", s))).values
                for s in seg_ids
            ]
        )
        expected_audio = classifier.normalize_score(model, classifier.decision_distances(model, X))
        assert audio.tolist() == expected_audio.tolist()

    @pytest.mark.parametrize("theta", [1.5, -0.25])
    def test_bad_theta_rejected_before_writing(self, corpus, trained, theta):
        pipeline.run_evaluate(corpus, "validation", CONFIG, trained, fusion_mode="score")

        def outputs():
            paths = [p for sub in ("reports", "predictions") for p in (trained / sub).rglob("*")]
            return {p: p.read_bytes() for p in sorted(paths) + [trained / "artifacts.json"]}

        before = outputs()
        assert trained / "reports" / "validation_theta_trace.json" in before
        assert trained / "predictions" / "validation.tsv" in before
        with pytest.raises(ValueError, match=f"theta {theta} outside"):
            pipeline.run_evaluate(corpus, "validation", CONFIG, trained, fusion_mode="score", theta=theta)
        with pytest.raises(ValueError, match=f"theta {theta} outside"):
            pipeline.run_predict(corpus, CONFIG, trained, split="validation", theta=theta)
        with pytest.raises(ValueError, match="unknown fusion mode"):
            pipeline.run_evaluate(corpus, "validation", CONFIG, trained, fusion_mode="scores")
        assert outputs() == before

    def test_output_mode_range(self, corpus, trained):
        pipeline.run_evaluate(corpus, "validation", CONFIG, trained, fusion_mode="output")
        lines = (trained / "predictions" / "validation.tsv").read_text().splitlines()[1:]
        fused = {float(line.split("\t")[3]) for line in lines}
        assert fused <= {0.0, 0.25, 0.5, 0.75, 1.0}

    def test_stale_hash_guard(self, corpus, trained):
        other = dataclasses.replace(CONFIG, audio=ProsodyConfig(window=0.03))
        with pytest.raises(pipeline.StaleArtifactsError):
            pipeline.run_evaluate(corpus, "validation", other, trained)
        changed_model = dataclasses.replace(CONFIG, codebook_size=4)
        with pytest.raises(pipeline.StaleArtifactsError):
            pipeline.run_evaluate(corpus, "validation", changed_model, trained)

    def test_empty_split_rejected(self, corpus, trained):
        with pytest.raises(pipeline.PipelineError, match="empty"):
            pipeline.run_evaluate(corpus, "test", CONFIG, trained)

    def test_grid_step_not_dividing_one(self, corpus, trained, tmp_path):
        out_dir = tmp_path / "step"
        shutil.copytree(trained, out_dir)
        config = dataclasses.replace(CONFIG, theta_grid_step=0.15)
        result = pipeline.run_evaluate(corpus, "validation", config, out_dir, fusion_mode="score")
        trace = json.loads((out_dir / "reports" / "validation_theta_trace.json").read_text())
        assert [row["theta"] for row in trace["trace"]] == list(fusion.theta_candidates(0.15))
        assert 0.0 <= result.theta <= 1.0

    def test_changed_train_labels_refused(self, corpus, trained):
        assert pipeline.load_state(trained)["train"]["labels"] == train_labels_hash(corpus)
        with pytest.raises(pipeline.StaleArtifactsError, match="labels"):
            pipeline.run_evaluate(_first_train_label_flipped(corpus), "validation", CONFIG, trained)

    def test_changed_train_labels_forced_only_warn(self, corpus, trained, tmp_path, caplog):
        out_dir = tmp_path / "forced"
        shutil.copytree(trained, out_dir)
        expected = pipeline.run_evaluate(corpus, "validation", CONFIG, out_dir)
        with caplog.at_level(logging.WARNING, logger=pipeline.__name__):
            result = pipeline.run_evaluate(
                _first_train_label_flipped(corpus), "validation", CONFIG, out_dir, force=True
            )
        assert result == expected
        assert any("stale" in message and "labels" in message for message in caplog.messages)

    @pytest.mark.parametrize("key", ["hash", "labels"])
    def test_train_record_missing_a_key_refused(self, corpus, trained, tmp_path, caplog, key):
        out_dir = tmp_path / "missing"
        shutil.copytree(trained, out_dir)
        expected = pipeline.run_evaluate(corpus, "validation", CONFIG, out_dir)
        state = pipeline.load_state(out_dir)
        del state["train"][key]
        (out_dir / "artifacts.json").write_text(json.dumps(state), encoding="utf-8")
        with pytest.raises(pipeline.StaleArtifactsError, match=f"recorded {key} None"):
            pipeline.run_evaluate(corpus, "validation", CONFIG, out_dir)
        if key == "hash":
            with pytest.raises(pipeline.StaleArtifactsError, match="recorded hash None"):
                pipeline.run_predict(corpus, CONFIG, out_dir, split="validation")
        with caplog.at_level(logging.WARNING, logger=pipeline.__name__):
            assert pipeline.run_evaluate(corpus, "validation", CONFIG, out_dir, force=True) == expected
        assert any(f"recorded {key} None" in message for message in caplog.messages)

    def test_manifest_without_train_segments_not_checked(self, corpus, trained, tmp_path):
        # Scoring new data: a manifest with no train segments has no labels to compare.
        out_dir = tmp_path / "new-data"
        shutil.copytree(trained, out_dir)
        validation = filter_split(corpus, "validation")
        reports = pipeline.run_evaluate(validation, "validation", CONFIG, out_dir).reports
        assert set(reports) == {"audio", "video", "fused"}
        lines = pipeline.run_predict(validation, CONFIG, out_dir).read_text().splitlines()
        assert len(lines) == len(validation) + 1

    @pytest.mark.parametrize(
        "removed, message",
        [
            ("artifacts.json", "no train artifacts recorded"),
            ("models/audio.gmm", "missing trained artifact .*audio.gmm"),
            ("models/audio.svm", "missing trained artifact .*audio.svm"),
            ("models/video.gmm", "missing trained artifact .*video.gmm"),
            ("models/video.svm", "missing trained artifact .*video.svm"),
        ],
        ids=["no-record", "no-audio-codebook", "no-audio-svm", "no-video-codebook", "no-video-svm"],
    )
    def test_untrained_run_refused(self, corpus, trained, tmp_path, removed, message):
        out_dir = tmp_path / "untrained"
        shutil.copytree(trained, out_dir)
        (out_dir / removed).unlink()
        with pytest.raises(pipeline.PipelineError, match=f"{message}; run train first$"):
            pipeline.run_evaluate(corpus, "validation", CONFIG, out_dir)
        with pytest.raises(pipeline.PipelineError, match=f"{message}; run train first$"):
            pipeline.run_predict(corpus, CONFIG, out_dir)


def _first_train_label_flipped(manifest: Manifest) -> Manifest:
    index = next(i for i, segment in enumerate(manifest) if segment.split == "train")
    segments = list(manifest.segments)
    segments[index] = dataclasses.replace(segments[index], sentiment=-segments[index].sentiment)
    return Manifest(segments=tuple(segments), base_dir=manifest.base_dir)


class TestPredict:
    def test_unlabeled_manifest(self, corpus, trained, tmp_path):
        stripped = Manifest(
            segments=tuple(dataclasses.replace(s, sentiment=0.0) for s in corpus),
            base_dir=corpus.base_dir,
        )
        path = pipeline.run_predict(stripped, CONFIG, trained, theta=0.5)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("id\t")
        assert len(lines) == len(corpus) + 1

    def test_midpoint_maps_to_zero_sentiment(self, corpus, trained):
        path = pipeline.run_predict(corpus, CONFIG, trained, fusion_mode="output", split="validation")
        for line in path.read_text().splitlines()[1:]:
            fields = line.split("\t")
            if float(fields[3]) == 0.5:
                assert float(fields[5]) == 0.0

    def test_recorded_theta_reproduces_evaluate_predictions(self, corpus, trained):
        pipeline.run_evaluate(corpus, "validation", CONFIG, trained, fusion_mode="score")
        path = trained / "predictions" / "validation.tsv"
        evaluated = path.read_bytes()
        path.unlink()
        assert pipeline.run_predict(corpus, CONFIG, trained, split="validation") == path
        assert path.read_bytes() == evaluated

    def test_fixed_theta_leaves_recorded_weight(self, corpus, trained):
        pipeline.run_evaluate(corpus, "validation", CONFIG, trained, fusion_mode="score")
        recorded = pipeline.load_state(trained)["fusion"]
        path = trained / "predictions" / "validation.tsv"
        evaluated = path.read_bytes()
        fixed = 0.0 if recorded["theta"] != 0.0 else 1.0
        result = pipeline.run_evaluate(corpus, "validation", CONFIG, trained, fusion_mode="score", theta=fixed)
        assert result.theta == fixed
        assert pipeline.load_state(trained)["fusion"] == recorded
        trace = json.loads((trained / "reports" / "validation_theta_trace.json").read_text())
        assert (trace["selected"], trace["source"]) == (fixed, "fixed")
        assert pipeline.run_predict(corpus, CONFIG, trained, split="validation") == path
        assert path.read_bytes() == evaluated

    def test_rerun_identical(self, corpus, trained):
        first = pipeline.run_predict(corpus, CONFIG, trained, split="validation", theta=0.5)
        payload = first.read_text()
        second = pipeline.run_predict(corpus, CONFIG, trained, split="validation", theta=0.5)
        assert second.read_text() == payload


class TestStageIsolation:
    @pytest.mark.slow
    def test_downstream_rebuild_is_identical(self, corpus, trained):
        models = sorted((trained / "models").glob("*"))
        payloads = {p.name: p.read_bytes() for p in models}
        for p in models:
            p.unlink()
        pipeline.run_train(corpus, CONFIG, trained)
        for p in sorted((trained / "models").glob("*")):
            assert p.read_bytes() == payloads[p.name]


class TestCli:
    def test_report_defaults(self, capsys):
        assert cli.main(["report", "--defaults"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["codebook_size"] == 256
        assert payload["sample_budget"] == 1000000

    def test_invalid_invocation_exit_code(self, tmp_path):
        assert cli.main(["evaluate", "--manifest", str(tmp_path / "nope.jsonl"),
                         "--out-dir", str(tmp_path)]) == 2

    def test_malformed_config_section_exits_two(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"audio": 5}')
        assert cli.main(["train", "--manifest", str(tmp_path / "nope.jsonl"), "--out-dir", str(tmp_path),
                         "--config", str(config_path)]) == 2

    def test_zero_gmm_iterations_exits_two_before_writing(self, corpus, trained, tmp_path):
        out_dir = tmp_path / "no_iterations"
        shutil.copytree(trained, out_dir)
        before = {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**json.loads(dump_config(CONFIG)), "gmm_max_iters": 0}))
        code = cli.main(["train", "--manifest", str(corpus.base_dir / "manifest.jsonl"), "--out-dir", str(out_dir),
                         "--config", str(config_path)])
        assert code == 2
        assert {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()} == before

    def test_workers_below_one_exits_two(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        generate_corpus(corpus_dir, SynthConfig(n_train=2, n_validation=2, frames=8, height=20, width=20,
                                                duration=0.3), seed=1)
        out_dir = tmp_path / "o"
        code = cli.main(["extract", "--manifest", str(corpus_dir / "manifest.jsonl"), "--out-dir", str(out_dir),
                         "--workers", "0"])
        assert code == 2
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("video", [{"max_points": -1}, {"spatial_scales": [-1.2]}, {"threshold": float("nan")}])
    def test_unusable_detector_settings_exit_two(self, tmp_path, video):
        corpus_dir = tmp_path / "corpus"
        generate_corpus(corpus_dir, SynthConfig(n_train=2, n_validation=2, frames=8, height=20, width=20,
                                                duration=0.3), seed=1)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"video": video}))
        out_dir = tmp_path / "o"
        code = cli.main(["extract", "--manifest", str(corpus_dir / "manifest.jsonl"), "--out-dir", str(out_dir),
                         "--config", str(config_path)])
        assert code == 2
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize(
        "raw",
        [
            {"gmm_max_iters": "5"},
            {"video": {"spatial_scales": ["1.2"]}},
            {"video": {"max_points": True}},
            {"audio": {"hop": 0}},
            {"audio": {"n_harmonics": 0}},
            {"variance_floor_scale": float("nan")},
            {"variance_floor_scale": float("inf")},
            {"variance_floor_scale": 0},
            {"variance_floor_scale": -1},
            {"c_exponent_max": 2000},
            {"theta_grid_step": 1e-4},
            {"codebook_size": 0},
            {"sample_budget": 3},
            {"sample_budget": 0},
            {"sample_budget": -2},
            {"sample_budget": 2},
            {"svm_max_epochs": 0},
            {"gmm_tol": -1e-5},
            {"gmm_tol": float("inf")},
            {"gmm_tol": float("nan")},
            {"svm_tol": -1e-6},
            {"svm_tol": float("inf")},
            {"svm_tol": float("nan")},
        ],
        ids=["string-count", "string-scale", "bool-count", "zero-hop", "no-harmonics", "nan-floor", "infinite-floor",
             "zero-floor", "negative-floor", "overflowing-c", "tiny-theta-step", "empty-codebook", "odd-budget",
             "zero-budget", "negative-budget", "budget-under-codebook", "no-svm-epochs", "negative-gmm-tol",
             "infinite-gmm-tol", "nan-gmm-tol", "negative-svm-tol", "infinite-svm-tol", "nan-svm-tol"],
    )
    def test_unusable_config_exits_two_before_extracting(self, corpus, tmp_path, raw):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        out_dir = tmp_path / "o"
        code = cli.main(["extract", "--manifest", str(corpus.base_dir / "manifest.jsonl"), "--out-dir", str(out_dir),
                         "--config", str(config_path)])
        assert code == 2
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 2

    @pytest.mark.slow
    def test_full_cli_workflow(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        out_dir = tmp_path / "out"
        config_path = tmp_path / "config.json"
        config_path.write_text(dump_config(CONFIG))
        assert cli.main(["synth", "--out-dir", str(corpus_dir), "--segments", "24",
                         "--train-fraction", "0.67", "--seed", "3"]) == 0
        manifest_path = capsys.readouterr().out.strip().splitlines()[-1]
        common = ["--manifest", manifest_path, "--out-dir", str(out_dir), "--config", str(config_path)]
        assert cli.main(["extract", *common, "--workers", "2"]) == 0
        assert cli.main(["train", *common]) == 0
        assert cli.main(["evaluate", *common, "--split", "validation", "--fusion", "output"]) == 0
        out = capsys.readouterr().out
        assert "fused" in out
        assert cli.main(["predict", *common, "--split", "validation"]) == 0
        assert cli.main(["report", "--out-dir", str(out_dir), "--config", str(config_path)]) == 0

    def test_partial_failure_exit_code(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        generate_corpus(corpus_dir, SynthConfig(n_train=2, n_validation=2, frames=8, height=20, width=20,
                                                duration=0.3), seed=1)
        manifest = load_manifest(corpus_dir / "manifest.jsonl")
        broken = Manifest(
            segments=manifest.segments
            + (Segment(id="ghost", audio_path="audio/ghost.pcm", video_path="video/ghost.fvl",
                       sentiment=1.0, split="train"),),
            base_dir=manifest.base_dir,
        )
        broken_path = tmp_path / "broken.jsonl"
        save_manifest(broken, broken_path)
        code = cli.main(["extract", "--manifest", str(broken_path), "--out-dir", str(tmp_path / "o")])
        assert code == 1

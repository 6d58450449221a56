"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and not meant to be relaxed.
"""
import json
import time

import numpy as np
import pytest

from bofsent import pipeline
from bofsent.classifier import cross_validate_C, svm_objective, train_svm
from bofsent.codebook import GmmCodebook, em_step, encode, fit_gmm, initialize_codebook
from bofsent.config import PipelineConfig
from bofsent.corpus import load_manifest
from bofsent.descriptors import DescriptorSet
from bofsent.fusion import (
    THETA_GRID,
    evaluate_theta,
    fusion_threshold,
    grid_search_theta,
    score_level_fuse,
)
from bofsent.metrics import (
    ConfusionMatrix,
    mae,
    multiclass_accuracy,
    pearson,
    prf1,
    scale_confidence,
)
from bofsent.prosody import PcmSignal, ProsodyConfig, extract_audio_descriptors
from bofsent.synth import SynthConfig, generate_corpus
from bofsent.video import DetectorConfig, build_integral, detect
from util import blob_volume, direct_posterior, subgradient_svm, tone


def _report(number: int, summary: str) -> None:
    print(f"PASS criterion {number}: {summary}")


def test_criterion_1_metric_oracle_reproduces_published_rows():
    start = time.time()
    rows = {
        "video": (ConfusionMatrix(tp=884, fn=344, fp=231, tn=240), (0.7928, 0.7198, 0.7545)),
        "fusion1": (ConfusionMatrix(tp=706, fn=522, fp=174, tn=297), (0.8022, 0.5749, 0.6698)),
        "fusion2": (ConfusionMatrix(tp=1031, fn=197, fp=303, tn=168), (0.7729, 0.8396, 0.8049)),
    }
    for name, (cm, expected) in rows.items():
        result = prf1(cm)
        for got, want in zip((result.precision, result.recall, result.f1), expected):
            assert abs(got - want) <= 5e-4, f"{name}: {got} vs {want}"
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"published precision/recall/F1 rows reproduced within 5e-4 ({elapsed:.3f}s)")


def test_criterion_2_fusion_equivalence_and_grid_optimality():
    start = time.time()
    rng = np.random.default_rng(42)
    # one segment at a time: video, then audio, then truth
    draws = [(rng.random(), rng.random(), rng.random() > 0.45) for _ in range(1000)]
    video, audio, truth = (np.array(column) for column in zip(*draws))
    for theta, unimodal_score in ((0.0, audio), (1.0, video)):
        fused_labels = score_level_fuse(audio, video, theta)[1]
        unimodal = unimodal_score > fusion_threshold(theta)
        mismatches = int(np.count_nonzero(fused_labels != unimodal))
        assert mismatches == 0

    chosen = grid_search_theta(audio, video, truth)
    chosen_error = evaluate_theta(audio, video, truth, chosen)
    for theta in THETA_GRID:
        assert chosen_error <= evaluate_theta(audio, video, truth, theta) + 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(2, f"unimodal equivalence exact on 1000 pairs; grid choice optimal ({elapsed:.2f}s)")


def _well_separated_means(rng, k, dim, min_separation=10.0):
    means = []
    while len(means) < k:
        candidate = rng.uniform(0.0, 12.0 * k ** (1.0 / dim), dim)
        if all(np.linalg.norm(candidate - m) >= min_separation for m in means):
            means.append(candidate)
    return np.array(means)


def test_criterion_3_em_monotone_and_recovers_means():
    start = time.time()
    rng = np.random.default_rng(7)
    for case in range(20):
        k = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 9))
        means = _well_separated_means(rng, k, dim)
        data = np.vstack([rng.normal(m, 1.0, (300, dim)) for m in means])
        floor = 1e-4 * data.var(axis=0).mean()
        book = initialize_codebook(data, k, seed=case, variance_floor=floor)
        values = []
        for _ in range(50):
            book, ll = em_step(book, data, floor)
            values.append(ll)
        diffs = np.diff(values)
        assert (diffs >= -1e-9).all(), f"case {case}: log-likelihood decreased"

        fitted = fit_gmm(data, k, seed=case)
        separations = [
            np.linalg.norm(means[i] - means[j]) for i in range(k) for j in range(i + 1, k)
        ]
        budget = 0.05 * min(separations)
        matched = set()
        for truth in means:
            distances = np.linalg.norm(fitted.means - truth, axis=1)
            nearest = int(np.argmin(distances))
            assert distances[nearest] <= budget, f"case {case}: mean off by {distances[nearest]:.3f}"
            assert nearest not in matched, f"case {case}: two true means matched one component"
            matched.add(nearest)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(3, f"20 mixtures: EM monotone, means within 5% of separation ({elapsed:.1f}s)")


def test_criterion_4_encoding_matches_bayes_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 5))
        weights = rng.uniform(0.2, 2.0, k)
        book = GmmCodebook(
            weights=weights / weights.sum(),
            means=rng.normal(0.0, 2.0, (k, dim)),
            variances=rng.uniform(0.3, 3.0, (k, dim)),
            modality="audio",
        )
        x = rng.normal(0.0, 2.0, dim).astype(np.float32)
        got = encode(book, DescriptorSet("s", x[None, :])).values
        expected = direct_posterior(book.weights, book.means, book.variances, x.astype(np.float64))
        assert np.abs(got - expected).max() <= 1e-9

    book = GmmCodebook(
        weights=np.full(4, 0.25),
        means=rng.normal(0, 1, (4, 3)),
        variances=rng.uniform(0.5, 1.5, (4, 3)),
        modality="audio",
    )
    rows = rng.normal(0, 1.5, (300, 3)).astype(np.float32)
    pooled = encode(book, DescriptorSet("s", rows))
    shuffled = encode(book, DescriptorSet("s", rows[rng.permutation(300)]))
    assert np.array_equal(pooled.values, shuffled.values)
    assert abs(pooled.values.sum() - 1.0) <= 1e-6
    _report(4, "100 posterior oracles within 1e-9; pooling permutation-invariant, simplex")


@pytest.mark.slow
def test_criterion_5_svm_oracle_separable_and_deterministic_cv():
    start = time.time()
    rng = np.random.default_rng(13)
    for problem in range(10):
        n = int(rng.integers(8, 21))
        X = rng.normal(0.0, 1.5, (n, 2))
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        C = float(rng.choice([0.1, 0.5, 1.0, 5.0, 10.0]))
        model = train_svm(X, y, C, seed=problem)
        ours = svm_objective(model.w, model.b, X, y, C)
        w_ref, b_ref = subgradient_svm(X, y, C, iters=150_000)
        reference = svm_objective(w_ref, b_ref, X, y, C)
        assert abs(ours - reference) <= 1e-3 * abs(reference), f"problem {problem}"

    gap_pos = rng.uniform([1.0, -1.0], [3.0, 1.0], (25, 2))
    gap_neg = rng.uniform([-3.0, -1.0], [-1.0, 1.0], (25, 2))
    X = np.vstack([gap_pos, gap_neg])
    y = np.array([1.0] * 25 + [-1.0] * 25)
    model = train_svm(X, y, C=1.0, seed=0)
    assert (np.where(X @ model.w + model.b > 0, 1.0, -1.0) != y).sum() == 0

    Xc = rng.normal(0, 1, (60, 3))
    yc = np.where(Xc[:, 0] + 0.4 * rng.standard_normal(60) > 0, 1.0, -1.0)
    if len(np.unique(yc)) < 2:
        yc[0] = -yc[0]
    first = cross_validate_C(Xc, yc, seed=3, max_epochs=250)
    second = cross_validate_C(Xc, yc, seed=3, max_epochs=250)
    assert first == second
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(5, f"10 objectives within 1e-3 of subgradient oracle; CV deterministic ({elapsed:.1f}s)")


def test_criterion_6_prosody_accuracy():
    start = time.time()
    for freq in (100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0):
        rows = extract_audio_descriptors(tone(freq, 1.0))
        voiced = [f for f in (rows[:, 0] * ProsodyConfig().f0_max).tolist() if f > 0]
        assert voiced, f"{freq} Hz produced no voiced frames"
        octave_errors = sum(
            1 for f in voiced if abs(f - 2.0 * freq) < 3.0 or abs(2.0 * f - freq) < 3.0
        )
        assert octave_errors / len(voiced) < 0.05
        worst = max(abs(f - freq) for f in voiced)
        assert worst <= 3.0, f"{freq} Hz: worst error {worst:.2f}"

    silence = extract_audio_descriptors(PcmSignal(samples=np.zeros(16000), sample_rate=16000))
    assert all(voicing == 0.0 and f0 == 0.0 for f0, voicing, _ in silence)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(6, f"tones 100-400 Hz within 3 Hz, no octave errors, silence unvoiced ({elapsed:.1f}s)")


def test_criterion_7_event_detection_localization_and_equivariance():
    start = time.time()
    config = DetectorConfig()

    constant = blob_volume((20, 40, 40), (10, 20, 20), 3.0, 2.0, contrast=0.0, background=0.3)
    assert detect(build_integral(constant), config) == []

    rng = np.random.default_rng(17)
    for case in range(20):
        base_center = (
            float(rng.integers(8, 13)),
            float(rng.integers(16, 25)),
            float(rng.integers(16, 25)),
        )
        shift = (int(rng.integers(-2, 3)), int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        volume_a = blob_volume((20, 40, 40), base_center, 3.0, 2.0)
        moved = tuple(c + d for c, d in zip(base_center, shift))
        volume_b = blob_volume((20, 40, 40), moved, 3.0, 2.0)
        top_a = detect(build_integral(volume_a), config)[0]
        top_b = detect(build_integral(volume_b), config)[0]
        assert abs(top_a.t - base_center[0]) <= 1
        assert abs(top_a.y - base_center[1]) <= 2
        assert abs(top_a.x - base_center[2]) <= 2
        assert abs((top_b.t - top_a.t) - shift[0]) <= 1, f"case {case}"
        assert abs((top_b.y - top_a.y) - shift[1]) <= 1, f"case {case}"
        assert abs((top_b.x - top_a.x) - shift[2]) <= 1, f"case {case}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(7, f"blobs localized within 2 px / 1 frame; equivariance on 20 cases ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def full_scale_run(tmp_path_factory):
    """Stated-scale corpus, extracted and trained; returns its own build time."""
    start = time.time()
    root = tmp_path_factory.mktemp("acceptance")
    manifest_path = generate_corpus(root / "corpus", SynthConfig(), seed=42)
    manifest = load_manifest(manifest_path)
    config = PipelineConfig(codebook_size=16, sample_budget=20_000, seed=42)
    out_dir = root / "run"
    extract = pipeline.run_extract(manifest, config, out_dir, workers=2)
    assert extract.ok
    pipeline.run_train(manifest, config, out_dir)
    return manifest, config, out_dir, time.time() - start


@pytest.mark.slow
def test_criterion_8_synthetic_end_to_end(full_scale_run):
    start = time.time()
    manifest, config, out_dir, build_time = full_scale_run
    assert len(manifest) == 200
    assert len([s for s in manifest if s.split == "train"]) == 150
    assert len([s for s in manifest if s.split == "validation"]) == 50

    score_eval = pipeline.run_evaluate(manifest, "validation", config, out_dir, fusion_mode="score")
    output_eval = pipeline.run_evaluate(manifest, "validation", config, out_dir, fusion_mode="output")
    unimodal_best = max(score_eval.reports["audio"].f1, score_eval.reports["video"].f1)
    fused_best = max(score_eval.reports["fused"].f1, output_eval.reports["fused"].f1)
    assert fused_best >= 0.95, f"best fused F1 {fused_best:.4f}"
    assert fused_best >= unimodal_best - 0.02, (
        f"fused {fused_best:.4f} vs unimodal {unimodal_best:.4f}"
    )
    elapsed = build_time + (time.time() - start)
    assert elapsed < 300.0
    _report(
        8,
        f"end-to-end F1 {fused_best:.3f} (unimodal best {unimodal_best:.3f}) in {elapsed:.0f}s",
    )


def _artifact_payloads(out_dir):
    payloads = {}
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(out_dir).as_posix()
        if rel == "artifacts.json":
            state = json.loads(path.read_text())
            state.pop("updated_at", None)  # the run manifest's timestamp is excluded
            payloads[rel] = json.dumps(state, sort_keys=True)
        else:
            payloads[rel] = path.read_bytes()
    return payloads


@pytest.mark.slow
def test_criterion_9_end_to_end_determinism(tmp_path):
    start = time.time()
    synth = SynthConfig(n_train=20, n_validation=10, duration=0.6, frames=14, height=36, width=36)
    config = PipelineConfig(
        codebook_size=4,
        sample_budget=600,
        video=DetectorConfig(spatial_scales=(1.2, 2.4), temporal_scales=(1.0, 2.0)),
        seed=11,
    )
    payloads = []
    for run, workers in (("one", 1), ("two", 3)):
        corpus_dir = tmp_path / f"corpus_{run}"
        manifest = load_manifest(generate_corpus(corpus_dir, synth, seed=5))
        out_dir = tmp_path / f"out_{run}"
        result = pipeline.run_extract(manifest, config, out_dir, workers=workers)
        assert result.ok
        pipeline.run_train(manifest, config, out_dir)
        pipeline.run_evaluate(manifest, "validation", config, out_dir, fusion_mode="score")
        pipeline.run_predict(manifest, config, out_dir, split="validation")
        payloads.append(_artifact_payloads(out_dir))

    first, second = payloads
    assert first.keys() == second.keys()
    for rel in first:
        assert first[rel] == second[rel], f"artifact {rel} differs between runs"
    corpus_one = {p.relative_to(tmp_path / "corpus_one").as_posix(): p.read_bytes()
                  for p in sorted((tmp_path / "corpus_one").rglob("*")) if p.is_file()}
    corpus_two = {p.relative_to(tmp_path / "corpus_two").as_posix(): p.read_bytes()
                  for p in sorted((tmp_path / "corpus_two").rglob("*")) if p.is_file()}
    assert corpus_one == corpus_two
    elapsed = time.time() - start
    _report(9, f"two runs at worker counts 1 and 3 byte-identical ({elapsed:.0f}s)")


def test_criterion_10_metric_self_consistency():
    rng = np.random.default_rng(23)
    for s in rng.uniform(-3.0, 3.0, 1000):
        assert abs(scale_confidence((s + 3.0) / 6.0) - s) <= 1e-12

    for _ in range(100):
        n = int(rng.integers(5, 60))
        pred = rng.uniform(-3.0, 3.0, n)
        truth = rng.uniform(-3.0, 3.0, n)

        brute_mae = sum(abs(a - b) for a, b in zip(pred, truth)) / n
        assert abs(mae(pred, truth) - brute_mae) <= 1e-9

        mp, mt = sum(pred) / n, sum(truth) / n
        cov = sum((a - mp) * (b - mt) for a, b in zip(pred, truth))
        var_p = sum((a - mp) ** 2 for a in pred)
        var_t = sum((b - mt) ** 2 for b in truth)
        assert abs(pearson(pred, truth) - cov / np.sqrt(var_p * var_t)) <= 1e-9

        for classes in (5, 7):
            def bin_one(value, clamp_lo, clamp_hi):
                return int(np.rint(min(max(value, clamp_lo), clamp_hi)))

            truth_bins = [bin_one(v, -3, 3) for v in truth]
            if classes == 7:
                pred_bins = [bin_one(v, -3, 3) for v in pred]
            else:
                pred_bins = [bin_one(v, -2, 2) for v in pred]
            recalls = []
            for cls in sorted(set(truth_bins)):
                members = [i for i, t in enumerate(truth_bins) if t == cls]
                recalls.append(sum(pred_bins[i] == cls for i in members) / len(members))
            brute = sum(recalls) / len(recalls)
            assert abs(multiclass_accuracy(pred, truth, classes) - brute) <= 1e-9
    _report(10, "scaling round-trips at 1e-12; MAE/correlation/accuracies match duplicates at 1e-9")

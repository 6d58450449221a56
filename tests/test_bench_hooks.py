"""The benchmark's per-layer hooks all find the functions they wrap, and fire.

``bench/spans.Tracer.patch`` skips a name the program no longer has, so a
rename would read 0 in that layer's metrics instead of failing a run. A hook
reads its function's arguments or result (``encode``'s ``n_descriptors``,
``run_extract``'s job lists), so a changed shape fails here too, and so does
one that ``harness.artifact_counters`` reads back from a finished run.
"""
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import harness  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

from bofsent import pipeline  # noqa: E402
from bofsent.config import PipelineConfig  # noqa: E402
from bofsent.corpus import load_manifest  # noqa: E402
from bofsent.synth import SynthConfig, generate_corpus  # noqa: E402
from bofsent.video import DetectorConfig  # noqa: E402


def test_every_patched_function_exists(monkeypatch):
    patched = []
    monkeypatch.setattr(
        spans.Tracer, "patch", lambda self, owner, attr, name, *args, **kwargs: patched.append((owner, attr, name))
    )
    instrumentation = layers.Instrumentation(workers=1)
    instrumentation.install()
    try:
        assert patched
        missing = [name for owner, attr, name in patched if not callable(getattr(owner, attr, None))]
        assert missing == [], "bench hooks name functions the program no longer has"
    finally:
        instrumentation.uninstall()


def test_traced_stages_fire_every_hook_and_count_their_work(tmp_path, monkeypatch):
    names = []
    patch = spans.Tracer.patch

    def recording(self, owner, attr, name, *args, **kwargs):
        names.append(name)
        return patch(self, owner, attr, name, *args, **kwargs)

    monkeypatch.setattr(spans.Tracer, "patch", recording)
    manifest = load_manifest(
        generate_corpus(tmp_path / "corpus", SynthConfig(n_train=8, n_validation=6, duration=0.4, frames=10,
                                                         height=24, width=24), seed=3)
    )
    config = PipelineConfig(
        video=DetectorConfig(spatial_scales=(1.2, 2.4), temporal_scales=(1.0, 2.0)),
        codebook_size=4, sample_budget=400, gmm_max_iters=5, cv_folds=2, c_exponent_min=-1, c_exponent_max=1,
        seed=5,
    )
    out_dir = tmp_path / "run"
    instrumentation = layers.Instrumentation(workers=1)
    instrumentation.install()
    try:
        assert pipeline.run_extract(manifest, config, out_dir).ok
        pipeline.run_train(manifest, config, out_dir)
        theta = pipeline.run_evaluate(manifest, "validation", config, out_dir).theta
        pipeline.run_predict(manifest, config, out_dir, split="validation")
    finally:
        instrumentation.uninstall()

    fired = {span.name for span in instrumentation.tracer.spans}
    assert sorted(set(names) - fired) == [], "hooked functions the stages never called"
    values = instrumentation.metrics(theta, {}, 0.0)
    for key in ("codebook.encode_rows", "video.points", "prosody.frames", "classifier.solves"):
        assert values[key] > 0, key

    counters = harness.artifact_counters(manifest, out_dir)
    for modality in layers.MODALITIES:
        for polarity in layers.CLASSES:
            assert counters[f"descriptors.rows.{modality}.{polarity}"] > 0, (modality, polarity)
        assert math.isfinite(counters[f"classifier.objective.{modality}"]), modality

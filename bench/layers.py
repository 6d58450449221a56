"""Per-layer instrumentation of bofsent and the metrics read from its spans.

``Instrumentation.install`` wraps each public function where its caller looks
it up (``pipeline`` imports ``read_pcm`` by name, ``fit_gmm`` calls ``em_step``
through the ``codebook`` module) and attaches counters to some of them.
``Instrumentation.metrics`` turns the spans and counters of one traced run into
the per-layer metrics of ``PER_LAYER``, the same list as ``per_layer`` in
BENCHMARK.json; the stage times at its head are filled in by the harness.
"""
from __future__ import annotations

import logging
import os
import tracemalloc

from bofsent import classifier, codebook, fusion, metrics, pipeline, prosody, video

from spans import Tracer

LAYERS = ("pipeline", "prosody", "video", "descriptors", "codebook", "classifier", "fusion", "metrics")
MODALITIES = ("audio", "video")
CLASSES = ("positive", "negative")

# Spans that make up one extraction job: read the media, extract, write descriptors.
JOB_SPANS = (
    "prosody.read_pcm",
    "prosody.extract_audio_descriptors",
    "video.read_frame_volume",
    "video.extract_video_descriptors",
    "descriptors.write_descriptors",
)

# Computed E-step cost of one (row, component) pair, read off codebook.em_step:
# 8 * dim flops in the four (n, dim) x (dim, K) matmuls (two in the log-joint, two
# in the M-step sums) plus 12 elementwise passes; and 11 (n, K) temporaries (7 in
# the log-joint, 2 in log-sum-exp, 2 for the responsibilities) of the input's
# item size. These are labelled "computed": they ignore caches and blocking.
ESTEP_MATMUL_FLOPS_PER_DIM = 8
ESTEP_ELEMENTWISE_FLOPS = 12
ESTEP_NK_TEMPORARIES = 11

PER_LAYER = [
    ("extract_seg_per_s", "segments/s"),  # codebook256: its set-up extraction
    ("train_s", "s"),
    ("evaluate_s", "s"),  # median evaluate+predict block
    ("prosody.extract_s", "s"),
    ("prosody.shs_s", "s"),
    ("prosody.voicing_s", "s"),
    ("prosody.frames", "count"),
    ("prosody.us_per_frame", "us"),
    ("video.extract_s", "s"),
    ("video.integral_s", "s"),
    ("video.detect_s", "s"),
    ("video.hessian_s", "s"),
    ("video.describe_s", "s"),
    ("video.points", "count"),
    ("video.ms_per_segment", "ms"),
    ("descriptors.read_s", "s"),
    ("descriptors.write_s", "s"),
    ("descriptors.bytes", "bytes"),
    *((f"descriptors.rows.{m}.{c}", "count") for m in MODALITIES for c in CLASSES),
    ("pipeline.extract_busy_ratio", "ratio"),
    ("pipeline.extract_attempts", "count"),
    ("pipeline.extract_failures", "count"),
    ("pipeline.reextract_s", "s"),
    ("pipeline.reextract_skipped", "count"),
    ("codebook.sample_s", "s"),
    ("codebook.replacement_classes", "count"),
    ("codebook.init_s", "s"),
    ("codebook.inits", "count"),
    ("codebook.em_step_s", "s"),
    ("codebook.em_steps", "count"),
    ("codebook.em_step_ms", "ms"),
    ("codebook.fit_alloc_peak_mb", "MB"),
    ("codebook.estep_row_comp_dim", "count"),
    ("codebook.estep_flops_computed", "count"),
    ("codebook.estep_nk_bytes_computed", "bytes"),
    ("codebook.estep_gflop_per_s", "GFLOP/s"),
    ("codebook.encode_s", "s"),
    ("codebook.encode_calls", "count"),
    ("codebook.encode_rows", "count"),
    ("classifier.cv_s", "s"),
    ("classifier.solves", "count"),
    ("classifier.solve_ms", "ms"),
    ("classifier.final_fit_s", "s"),
    *((f"classifier.selected_c.{m}", "C") for m in MODALITIES),
    *((f"classifier.objective.{m}", "objective") for m in MODALITIES),
    ("fusion.theta_search_s", "s"),
    ("fusion.theta", "weight"),
    ("metrics.report_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
]


class _ReplacementCounter(logging.Handler):
    """Counts classes that ``sample_balanced`` had to sample with replacement."""

    def __init__(self, tracer: Tracer):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if "with replacement" in record.getMessage():
            self.tracer.add("codebook.replacement_classes")


class Instrumentation:
    """Spans and counters for one traced run, with ``extract`` run at ``workers``."""

    def __init__(self, workers: int):
        self.workers = workers
        self.tracer = Tracer()
        self._handler = _ReplacementCounter(self.tracer)

    # -- hooks, run after a span closes ------------------------------------

    @staticmethod
    def _extract_pass(tracer, span, args, result):
        attempts = len(result.extracted) + len(result.failures)
        span.tag = "cold" if attempts else "warm"
        if attempts:
            tracer.add("pipeline.extract_attempts", attempts)
            tracer.add("pipeline.extract_failures", len(result.failures))
        else:
            tracer.add("pipeline.reextract_skipped", len(result.skipped))

    @staticmethod
    def _rows(key):
        return lambda tracer, span, args, result: tracer.add(key, len(result))

    @staticmethod
    def _descriptor_bytes(tracer, span, args, result):
        tracer.add("descriptors.bytes", os.path.getsize(args[0]))

    @staticmethod
    def _em_step_work(tracer, span, args, result):
        book, data = args[0], args[1]
        n, dim = data.shape
        k = book.n_components
        tracer.add("codebook.estep_row_comp_dim", n * k * dim)
        tracer.add(
            "codebook.estep_flops_computed",
            n * k * (ESTEP_MATMUL_FLOPS_PER_DIM * dim + ESTEP_ELEMENTWISE_FLOPS),
        )
        tracer.add("codebook.estep_nk_bytes_computed", ESTEP_NK_TEMPORARIES * n * k * data.dtype.itemsize)

    @staticmethod
    def _encoded(tracer, span, args, result):
        tracer.add("codebook.encode_rows", result.n_descriptors)

    @staticmethod
    def _svm_fit(tracer, span, args, result):
        parent = tracer.spans[span.parent] if span.parent is not None else None
        in_cv = parent is not None and parent.name == "classifier.cv_accuracy_table"
        span.tag = "cv" if in_cv else "final"

    def _alloc_peak(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.tracer.maximum("codebook.fit_alloc_peak_bytes", peak)

        return measured

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        patch = self.tracer.patch
        patch(pipeline, "run_extract", "pipeline.run_extract", self._extract_pass)
        for name in ("run_train", "run_evaluate", "run_predict"):
            patch(pipeline, name, f"pipeline.{name}")
        patch(pipeline, "read_pcm", "prosody.read_pcm")
        patch(pipeline, "extract_audio_descriptors", "prosody.extract_audio_descriptors", self._rows("prosody.frames"))
        patch(pipeline, "read_frame_volume", "video.read_frame_volume")
        patch(pipeline, "extract_video_descriptors", "video.extract_video_descriptors", self._rows("video.points"))
        patch(pipeline, "read_descriptors", "descriptors.read_descriptors")
        patch(pipeline, "write_descriptors", "descriptors.write_descriptors", self._descriptor_bytes)
        patch(prosody, "estimate_f0_shs", "prosody.estimate_f0_shs")
        patch(prosody, "voicing_probability", "prosody.voicing_probability")
        for name in ("build_integral", "detect", "hessian_response_field", "describe"):
            patch(video, name, f"video.{name}")
        patch(codebook, "sample_balanced", "codebook.sample_balanced")
        patch(codebook, "fit_gmm", "codebook.fit_gmm", inner=self._alloc_peak)
        patch(codebook, "initialize_codebook", "codebook.initialize_codebook")
        patch(codebook, "em_step", "codebook.em_step", self._em_step_work)
        patch(codebook, "encode", "codebook.encode", self._encoded)
        patch(classifier, "cv_accuracy_table", "classifier.cv_accuracy_table")
        patch(classifier, "train_svm", "classifier.train_svm", self._svm_fit)
        patch(fusion, "grid_search_theta", "fusion.grid_search_theta")
        patch(metrics, "compute_report", "metrics.compute_report")
        logging.getLogger(codebook.__name__).addHandler(self._handler)

    def uninstall(self) -> None:
        self.tracer.unpatch()
        logging.getLogger(codebook.__name__).removeHandler(self._handler)

    # -- metrics --------------------------------------------------------------

    def metrics(self, theta: float, counters: dict[str, float], overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics; ``theta`` and the artifact ``counters`` come from the traced rep."""
        t = self.tracer
        count = t.counters.get
        cold = [s for s in t.spans if s.name == "pipeline.run_extract" and s.tag == "cold"]
        job_time = sum(
            s.duration
            for s in t.spans
            if s.name in JOB_SPANS and any(c.start <= s.start and s.end <= c.end for c in cold)
        )
        extract_audio = t.total("prosody.extract_audio_descriptors")
        extract_video = t.total("video.extract_video_descriptors")
        em_s = t.total("codebook.em_step")
        flops = count("codebook.estep_flops_computed", 0)
        own = t.self_times()
        return {
            "prosody.extract_s": extract_audio,
            "prosody.shs_s": t.total("prosody.estimate_f0_shs"),
            "prosody.voicing_s": t.total("prosody.voicing_probability"),
            "prosody.frames": count("prosody.frames", 0),
            "prosody.us_per_frame": 1e6 * _per(extract_audio, count("prosody.frames", 0)),
            "video.extract_s": extract_video,
            "video.integral_s": t.total("video.build_integral"),
            "video.detect_s": t.total("video.detect"),
            "video.hessian_s": t.total("video.hessian_response_field"),
            "video.describe_s": t.total("video.describe"),
            "video.points": count("video.points", 0),
            "video.ms_per_segment": 1e3 * _per(extract_video, t.calls("video.extract_video_descriptors")),
            "descriptors.read_s": t.total("descriptors.read_descriptors"),
            "descriptors.write_s": t.total("descriptors.write_descriptors"),
            "descriptors.bytes": count("descriptors.bytes", 0),
            "pipeline.extract_busy_ratio": _per(job_time, self.workers * sum(c.duration for c in cold)),
            "pipeline.extract_attempts": count("pipeline.extract_attempts", 0),
            "pipeline.extract_failures": count("pipeline.extract_failures", 0),
            "pipeline.reextract_s": t.total("pipeline.run_extract", "warm"),
            "pipeline.reextract_skipped": count("pipeline.reextract_skipped", 0),
            "codebook.sample_s": t.total("codebook.sample_balanced"),
            "codebook.replacement_classes": count("codebook.replacement_classes", 0),
            "codebook.init_s": t.total("codebook.initialize_codebook"),
            "codebook.inits": t.calls("codebook.initialize_codebook"),
            "codebook.em_step_s": em_s,
            "codebook.em_steps": t.calls("codebook.em_step"),
            "codebook.em_step_ms": 1e3 * _per(em_s, t.calls("codebook.em_step")),
            "codebook.fit_alloc_peak_mb": count("codebook.fit_alloc_peak_bytes", 0) / 2**20,
            "codebook.estep_row_comp_dim": count("codebook.estep_row_comp_dim", 0),
            "codebook.estep_flops_computed": flops,
            "codebook.estep_nk_bytes_computed": count("codebook.estep_nk_bytes_computed", 0),
            "codebook.estep_gflop_per_s": _per(flops, em_s) / 1e9,
            "codebook.encode_s": t.total("codebook.encode"),
            "codebook.encode_calls": t.calls("codebook.encode"),
            "codebook.encode_rows": count("codebook.encode_rows", 0),
            "classifier.cv_s": t.total("classifier.cv_accuracy_table"),
            "classifier.solves": t.calls("classifier.train_svm"),
            "classifier.solve_ms": 1e3 * _per(t.total("classifier.train_svm", "cv"), t.calls("classifier.train_svm", "cv")),
            "classifier.final_fit_s": t.total("classifier.train_svm", "final"),
            "fusion.theta_search_s": t.total("fusion.grid_search_theta"),
            "fusion.theta": theta,
            "metrics.report_s": t.total("metrics.compute_report"),
            **{
                f"{layer}.self_s": sum(s for span, s in zip(t.spans, own) if span.name.startswith(layer + "."))
                for layer in LAYERS
            },
            "trace.spans": len(t.spans),
            "trace.overhead_frac": overhead_frac,
            **counters,
        }


def _per(amount: float, base: float) -> float:
    """``amount / base``, or 0 when a layer was never called."""
    return amount / base if base else 0.0

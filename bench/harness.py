"""Runs one workload: set-ups, timed reps, an optional traced rep, checks and the result line."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bofsent import classifier, codebook, pipeline
from bofsent.config import PipelineConfig
from bofsent.corpus import Manifest, filter_split, load_manifest
from bofsent.descriptors import read_descriptors
from bofsent.synth import generate_corpus

from layers import CLASSES, MODALITIES, PER_LAYER, Instrumentation
from workloads import Workload

# Stage times (extract_seg_per_s, train_s, evaluate_s) are reported with the
# per-layer metrics: measured over 2-15 s each, their run-to-run spread on a
# shared 2-vCPU host (15-35% between quartiles) is wider than any bound the
# whole timed section (wall_s) can be held to.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fused_f1", "ratio"),
    ("ok_frac", "ratio"),
]


class StageFailed(RuntimeError):
    """A pipeline stage raised; the run stops and reports itself incorrect."""


class Ledger:
    """Operations attempted and failed: extraction jobs, stage calls and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def stage(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.problems.append(f"{fn.__name__}: {exc!r}")
            raise StageFailed(fn.__name__) from exc

    def extraction(self, result, jobs: int) -> None:
        self.attempted += len(result.extracted) + len(result.failures)
        self.failed += len(result.failures)
        for job, error in sorted(result.failures.items()):
            self.problems.append(f"extract {job}: {error}")
        self.check(len(result.extracted) == jobs, f"extracted {len(result.extracted)} of {jobs} jobs")


@dataclass
class Rep:
    wall: float
    extract: float | None
    train: float
    evaluate: list[float]
    fused_f1: float
    theta: float
    digest: str
    out_dir: Path


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``, with ``updated_at`` dropped from artifacts.json."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel == "artifacts.json":
            state = json.loads(path.read_text(encoding="utf-8"))
            state.pop("updated_at", None)
            payload = json.dumps(state, sort_keys=True).encode("utf-8")
        else:
            payload = path.read_bytes()
        digest.update(rel.encode("utf-8") + b"\0" + hashlib.sha256(payload).digest())
    return digest.hexdigest()


def setup(workload: Workload, config: PipelineConfig, seed: int, dest: Path, ledger: Ledger):
    """Synthesize the corpus (and extract it, for set-up-extracted workloads).

    Returns (seconds, manifest, extraction rate in segments/s or None).
    """
    start = time.perf_counter()
    manifest = load_manifest(generate_corpus(dest / "corpus", workload.synth, seed=seed))
    rate = None
    if workload.extract_in_setup:
        began = time.perf_counter()
        result = ledger.stage(pipeline.run_extract, manifest, config, dest / "run", workers=workload.workers)
        rate = len(manifest) / (time.perf_counter() - began)
        ledger.extraction(result, 2 * len(manifest))
    return time.perf_counter() - start, manifest, rate


def run_rep(workload: Workload, config: PipelineConfig, manifest: Manifest, base: Path, out_dir: Path, ledger: Ledger) -> Rep:
    """One pass of the workload's timed sequence into a fresh run directory."""
    jobs = 2 * len(manifest)
    if workload.extract_in_setup:
        shutil.copytree(base / "run", out_dir)
    start = time.perf_counter()
    extract_s = None
    if not workload.extract_in_setup:
        result = ledger.stage(pipeline.run_extract, manifest, config, out_dir, workers=workload.workers)
        extract_s = time.perf_counter() - start
        ledger.extraction(result, jobs)
    warm = ledger.stage(pipeline.run_extract, manifest, config, out_dir, workers=workload.workers)
    ledger.check(
        len(warm.skipped) == jobs and not warm.extracted and not warm.failures,
        f"warm re-extract skipped {len(warm.skipped)} of {jobs} jobs",
    )
    began = time.perf_counter()
    ledger.stage(pipeline.run_train, manifest, config, out_dir)
    train_s = time.perf_counter() - began

    evaluate_s, f1s, thetas = [], [], []
    for _ in range(workload.eval_repeats):
        began = time.perf_counter()
        results = [
            ledger.stage(pipeline.run_evaluate, manifest, "validation", config, out_dir, fusion_mode=mode)
            for mode in workload.eval_modes
        ]
        predictions = ledger.stage(pipeline.run_predict, manifest, config, out_dir, split="validation")
        evaluate_s.append(time.perf_counter() - began)
        f1s.append(max(r.reports["fused"].f1 for r in results))
        thetas.append(results[0].theta)
    wall = time.perf_counter() - start

    n_validation = sum(1 for s in manifest if s.split == "validation")
    rows = predictions.read_text(encoding="utf-8").splitlines()
    ledger.check(len(rows) == n_validation + 1, f"{predictions.name}: {len(rows) - 1} rows for {n_validation} segments")
    ledger.check(len(set(f1s)) == 1 and len(set(thetas)) == 1, "repeated evaluations disagree")
    ledger.check(
        f1s[0] >= workload.min_fused_f1,
        f"best fused F1 {f1s[0]:.4f} below {workload.min_fused_f1}",
    )
    return Rep(
        wall=wall,
        extract=extract_s,
        train=train_s,
        evaluate=evaluate_s,
        fused_f1=f1s[0],
        theta=thetas[0],
        digest=tree_digest(out_dir),
        out_dir=out_dir,
    )


def artifact_counters(manifest: Manifest, out_dir: Path) -> dict[str, float]:
    """Deterministic counters read back from a finished run directory.

    Descriptor rows per modality and polarity class, and per modality the
    selected C and the primal SVM objective of the final model on its
    training features (re-encoded here from the stored codebook).
    """
    counters: dict[str, float] = {}
    train = filter_split(manifest, "train")
    y = np.array([segment.label().value for segment in train], dtype=np.float64)
    for modality in MODALITIES:
        sets = {s.id: read_descriptors(pipeline.descriptor_path(out_dir, modality, s.id)) for s in manifest}
        for polarity in CLASSES:
            counters[f"descriptors.rows.{modality}.{polarity}"] = sum(
                len(sets[s.id]) for s in manifest if s.label().name.lower() == polarity
            )
        book = codebook.read_codebook(pipeline.codebook_path(out_dir, modality))
        model = classifier.read_svm_model(pipeline.svm_path(out_dir, modality))
        X = np.stack([codebook.encode(book, sets[s.id]).values for s in train])
        counters[f"classifier.selected_c.{modality}"] = model.C
        counters[f"classifier.objective.{modality}"] = classifier.svm_objective(model.w, model.b, X, y, model.C)
    return counters


def source_hash(root: Path) -> str:
    """Hash of the program and benchmark sources, so stored digests follow the code."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "bench").rglob("*.py")]):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_repeats(ledger: Ledger, store: Path, key: str, digest: str) -> None:
    """The artifact digest must match the one stored by an earlier run of the same key."""
    records = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    previous = records.get(key)
    ledger.check(previous in (None, digest), f"artifact digest {digest[:12]} differs from earlier run's {str(previous)[:12]}")
    if previous is None:
        records[key] = digest
        partial = store.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(partial, store)


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _result(ledger: Ledger, values: dict[str, float], units: list[tuple[str, str]]) -> dict:
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units if name in values},
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> int:
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    temp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work))
    ledger = Ledger()
    values: dict[str, float] = {}
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    try:
        values = _measure(workload, seed, seconds, trace, root, work, temp, ledger, env)
    except StageFailed:
        pass
    finally:
        shutil.rmtree(temp, ignore_errors=True)
    for problem in ledger.problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = _result(ledger, values, PER_LAYER if trace else END_TO_END)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


def _measure(workload, seed, seconds, trace, root, work, temp, ledger, env) -> dict[str, float]:
    config = PipelineConfig(seed=seed, **workload.config)
    instrumentation = Instrumentation(workload.workers) if trace else None

    setup_s, rates, corpus_digests = [], [], set()
    for index in range(1 if trace else workload.setups):
        dest = temp / f"setup{index}"
        if instrumentation:
            instrumentation.install()
        try:
            seconds_taken, manifest, rate = setup(workload, config, seed, dest, ledger)
        finally:
            if instrumentation:
                instrumentation.uninstall()
        setup_s.append(seconds_taken)
        if rate is not None:
            rates.append(rate)
        corpus_digests.add(tree_digest(dest / "corpus"))
    ledger.check(len(corpus_digests) == 1, "set-ups synthesized different corpora")
    base = dest

    reps: list[Rep] = []
    timed_start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, config, manifest, base, temp / f"rep{len(reps)}", ledger))
        elapsed = time.perf_counter() - timed_start
        if trace or elapsed + statistics.median(r.wall for r in reps) > seconds:
            break
    digests = {r.digest for r in reps}
    ledger.check(len(digests) == 1, "reps of one run wrote different artifacts")
    digest = reps[0].digest
    print(f"digest: {digest}", flush=True)
    print("rep wall_s: " + json.dumps([r.wall for r in reps]), flush=True)
    check_repeats(ledger, work / "digests.json", f"{workload.name}/{seed}/{source_hash(root)}", digest)

    if not trace:
        return {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(r.wall for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fused_f1": reps[0].fused_f1,
            "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
        }

    # Stage times come from the untraced rep, so tracing overhead stays out of them.
    rates.extend(len(manifest) / r.extract for r in reps if r.extract is not None)
    stages = {
        "extract_seg_per_s": statistics.median(rates),
        "train_s": reps[0].train,
        "evaluate_s": statistics.median(reps[0].evaluate),
    }

    instrumentation.install()
    try:
        traced = run_rep(workload, config, manifest, base, temp / "traced", ledger)
    finally:
        instrumentation.uninstall()
    ledger.check(traced.digest == digest, "tracing changed the artifacts")
    values = instrumentation.metrics(
        traced.theta, artifact_counters(manifest, traced.out_dir), traced.wall / reps[0].wall - 1.0
    )
    values.update(stages)
    traces = work / "traces"
    traces.mkdir(exist_ok=True)
    instrumentation.tracer.write(
        traces / f"{workload.name}-seed{seed}.jsonl",
        {"workload": workload.name, "seed": seed, "environment": env, "metrics": values},
    )
    return values

"""The benchmark's workloads: corpus shape, pipeline settings and timed sequence.

Why each workload exists, and which per-layer metrics should move which
end-to-end metric on it, is recorded in the ``why`` of its BENCHMARK.json entry.
"""
from __future__ import annotations

from dataclasses import dataclass

from bofsent.synth import SynthConfig


@dataclass(frozen=True)
class Workload:
    name: str
    synth: SynthConfig
    config: dict  # PipelineConfig fields; the seed comes from --seed
    workers: int  # extract thread pool size
    extract_in_setup: bool  # descriptors are extracted during set-up, outside the timed section
    setups: int  # set-ups per untraced run; setup_s is their median
    eval_modes: tuple[str, ...]  # fusion modes evaluated on the validation split, then predict
    eval_repeats: int  # evaluate+predict blocks per rep, about 1 s in all
    min_fused_f1: float  # correctness gate on the best fused validation F1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="acceptance",
            synth=SynthConfig(),
            # svm_max_epochs 100 instead of 1000 keeps one run near 30 s; the 192 solves
            # (19 C values x 5 folds x 2 modalities, plus 2 final fits) still dominate.
            config=dict(codebook_size=16, sample_budget=20_000, svm_max_epochs=100),
            workers=1,
            extract_in_setup=False,
            setups=3,
            eval_modes=("score", "output"),
            eval_repeats=10,
            min_fused_f1=0.95,
        ),
        Workload(
            name="codebook256",
            synth=SynthConfig(),
            config=dict(
                codebook_size=256,
                sample_budget=16_000,
                gmm_max_iters=5,
                c_exponent_min=0,
                c_exponent_max=0,
                cv_folds=2,
            ),
            workers=1,  # a thread pool does not pay on this corpus's 40x40 video
            extract_in_setup=True,
            setups=2,  # each set-up extracts 200 segments (~10 s)
            eval_modes=("score",),
            eval_repeats=2,
            min_fused_f1=0.9,
        ),
        Workload(
            name="ingest",
            synth=SynthConfig(n_train=90, n_validation=30, duration=3.0, frames=32, height=64, width=64),
            config=dict(
                codebook_size=16,
                sample_budget=4_000,
                gmm_max_iters=20,
                c_exponent_min=0,
                c_exponent_max=0,
                cv_folds=2,
            ),
            workers=2,
            extract_in_setup=False,
            setups=3,
            eval_modes=("score", "output"),
            eval_repeats=5,
            min_fused_f1=0.9,
        ),
    )
}

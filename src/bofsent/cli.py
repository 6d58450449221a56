"""Batch command-line runner for the extraction / training / evaluation pipeline.

Exit codes: 0 success, 1 partial failure (some segments failed during
extraction), 2 invalid invocation (bad arguments, missing or stale artifacts).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import fusion, pipeline
from .config import PipelineConfig, dump_config, extract_hash, load_config, train_hash
from .corpus import SPLITS, Manifest, ManifestError, load_manifest
from .synth import SynthConfig, generate_corpus

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bofsent",
        description="Audio-visual sentiment pipeline: descriptor extraction, "
        "codebook + SVM training, late fusion, evaluation.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", required=True, help="manifest file (one JSON record per line)")
    common.add_argument("--out-dir", required=True, help="artifact directory")
    common.add_argument("--config", help="JSON config file; omitted fields keep defaults")
    common.add_argument("--seed", type=int, help="override the root seed")
    common.add_argument("--force", action="store_true", help="ignore configuration-hash mismatches")
    fusing = argparse.ArgumentParser(add_help=False)
    fusing.add_argument("--fusion", choices=fusion.MODES, help="fusion mode override")
    fusing.add_argument("--theta", type=float, help="fixed score-fusion weight in [0, 1]")

    p = sub.add_parser("extract", parents=[common], help="extract low-level descriptors per segment")
    p.add_argument("--modality", choices=(*pipeline.MODALITIES, "both"), default="both")
    p.add_argument("--workers", type=int, default=1, help="parallel extraction workers")
    sub.add_parser("train", parents=[common], help="fit codebooks and SVMs from the training split")
    p = sub.add_parser("evaluate", parents=[common, fusing], help="score a split, fuse, and report metrics")
    p.add_argument("--split", default="validation", choices=SPLITS)
    p = sub.add_parser("predict", parents=[common, fusing], help="emit fused predictions without ground truth")
    p.add_argument("--split", choices=SPLITS, help="restrict to one split")

    p = sub.add_parser("synth", help="generate a synthetic corpus with a manifest")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--segments", type=int, default=200, help="total segment count")
    p.add_argument("--train-fraction", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("report", help="print defaults or summarize a run directory")
    p.add_argument("--defaults", action="store_true", help="print the default configuration")
    p.add_argument("--out-dir", help="run directory to summarize")
    p.add_argument("--config", help="config file used for hash comparison")
    return parser


def _cmd_extract(args, manifest: Manifest, config: PipelineConfig) -> int:
    modalities = pipeline.MODALITIES if args.modality == "both" else (args.modality,)
    result = pipeline.run_extract(
        manifest, config, args.out_dir, modalities=modalities, workers=args.workers, force=args.force
    )
    logger.info(
        "extract: %d written, %d up to date, %d failed",
        len(result.extracted),
        len(result.skipped),
        len(result.failures),
    )
    for key, message in sorted(result.failures.items()):
        logger.error("failed %s: %s", key, message)
    return 0 if result.ok else 1


def _cmd_train(args, manifest: Manifest, config: PipelineConfig) -> int:
    pipeline.run_train(manifest, config, args.out_dir, force=args.force)
    return 0


def _cmd_evaluate(args, manifest: Manifest, config: PipelineConfig) -> int:
    result = pipeline.run_evaluate(
        manifest,
        args.split,
        config,
        args.out_dir,
        fusion_mode=args.fusion,
        theta=args.theta,
        force=args.force,
    )
    if result.theta is not None:
        logger.info("evaluate: fusion weight %.2f", result.theta)
    for name, report in sorted(result.reports.items()):
        logger.info("evaluate: %s f1=%.4f mae=%.4f", name, report.f1, report.mae)
        print(f"{args.split} {name}: precision={report.precision:.4f} "
              f"recall={report.recall:.4f} f1={report.f1:.4f} mae={report.mae:.4f}")
    return 0


def _cmd_predict(args, manifest: Manifest, config: PipelineConfig) -> int:
    path = pipeline.run_predict(
        manifest,
        config,
        args.out_dir,
        split=args.split,
        fusion_mode=args.fusion,
        theta=args.theta,
        force=args.force,
    )
    print(path)
    return 0


def _cmd_synth(args) -> int:
    if args.segments < 4:
        raise ValueError("need at least 4 segments")
    if not 0.0 < args.train_fraction < 1.0:
        raise ValueError("train fraction must be in (0, 1)")
    n_train = int(round(args.segments * args.train_fraction))
    n_train = min(max(n_train, 2), args.segments - 2)
    cfg = SynthConfig(n_train=n_train, n_validation=args.segments - n_train, n_test=0)
    manifest_path = generate_corpus(args.out_dir, cfg, seed=args.seed)
    print(manifest_path)
    return 0


def _cmd_report(args) -> int:
    if args.defaults:
        sys.stdout.write(dump_config(PipelineConfig()))
        return 0
    if not args.out_dir:
        raise ValueError("report needs --defaults or --out-dir")
    out_dir = Path(args.out_dir)
    state = pipeline.load_state(out_dir)
    summary = {"out_dir": str(out_dir), "state": state}
    if args.config:
        config = load_config(args.config)
        summary["config"] = dataclasses.asdict(config)
        summary["hashes"] = {"extract": extract_hash(config), "train": train_hash(config)}
    reports_dir = out_dir / "reports"
    if reports_dir.is_dir():
        summary["reports"] = sorted(p.name for p in reports_dir.glob("*.json"))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# Commands that run a pipeline stage over a manifest under a config, and the others.
_STAGES = {"extract": _cmd_extract, "train": _cmd_train, "evaluate": _cmd_evaluate, "predict": _cmd_predict}
_TOOLS = {"synth": _cmd_synth, "report": _cmd_report}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command in _TOOLS:
            return _TOOLS[args.command](args)
        config = load_config(args.config) if args.config else PipelineConfig()
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        return _STAGES[args.command](args, load_manifest(args.manifest), config)
    except (ManifestError, pipeline.PipelineError, ValueError, OSError) as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

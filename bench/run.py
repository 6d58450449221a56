#!/usr/bin/env python3
"""bofsent benchmark: one workload per run, end-to-end metrics or (--trace 1) per-layer metrics.

    python3 bench/run.py --workload acceptance --seed 1 --seconds 40 --trace 0

Workloads are defined in ``workloads.py``. The run sets up its corpus from
``--seed`` several times (``setup_s`` is the median), then repeats the timed
sequence until ``--seconds`` would be exceeded, at least once. It checks the
outputs and prints one JSON object as its last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value, unit).
With ``--trace 1`` it runs one untraced and one traced pass, reports the
per-layer metrics and writes the spans under ``.bench_work/traces/``. Exit code
0 means every check passed, 1 that a check or stage failed, 2 that the bofsent
sources are missing or the arguments are invalid.
"""
from __future__ import annotations

import os

# Pinned before numpy loads, so every run sees one BLAS thread and ingest's two
# extraction threads do not oversubscribe the cores by a varying amount.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("acceptance", "codebook256", "ingest")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "bofsent" / "__init__.py").is_file():
        print(f"bench: bofsent sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness
    from workloads import WORKLOADS

    return harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())

"""Campaign benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {phaseA-cold,phaseA-warm,service-mix}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``BENCHMARK.json``).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the run's context (seed, request digest, sample counts,
host, source digest, paper anchors, any mismatch found).  Every timed
campaign and job is checked against the committed Tables 4/5 in
``benchmarks/results/``; any mismatch makes the exit code 1.

The build step fills the ``phaseA-warm`` store once per checkout, in the
first run of any workload, under ``.bench_build/`` and keyed by a digest of
``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("phaseA-cold", "phaseA-warm", "service-mix")
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def source_digest() -> str:
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir() or not (
            ROOT / "benchmarks" / "results").is_dir():
        print("perfbench: run from a full checkout (src/repro and "
              "benchmarks/results are missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import metrics
    from perfbench.reference import anchors, load_reference

    ref = load_reference(ROOT)
    info: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_digest": source_digest(),
        "anchors": anchors(ref),
        "problems": [],
    }
    from perfbench import campaigns, service_mix

    # The build step: whichever run comes first in a checkout fills the
    # phaseA-warm store; every later run reuses it.
    store, info["build_s"] = campaigns.warm_store(
        ROOT, BUILD_DIR, info["source_digest"])
    spans = None
    if args.trace:
        spans = BUILD_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans.unlink(missing_ok=True)
        info["spans"] = str(spans.relative_to(ROOT))
    if args.workload == "service-mix":
        result = service_mix.workload(ROOT, BUILD_DIR, ref, args.seed,
                                      args.seconds, spans, info)
    else:
        warm = args.workload == "phaseA-warm"
        result = campaigns.workload(ROOT, ref, store if warm else None,
                                    args.seconds, spans, info)
    attempted, failed = result["attempted"], result["failed"]
    info["failed_ratio"] = metrics.ratio(failed, attempted)
    if args.trace:
        values = metrics.assemble(result["layers"], metrics.PER_LAYER)
    else:
        values = metrics.assemble(result["e2e"], metrics.END_TO_END)
    correct = failed == 0 and attempted > 0
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

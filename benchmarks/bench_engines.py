"""Experiment E1 — fault-simulation engine cross-check and throughput.

The repository ships two engine implementations behind
:func:`repro.faultsim.grade` with identical verdict semantics:

* **differential** — per fault, event-driven against stored good values,
  with dropping (the historical campaign engine and reference oracle);
* **compiled** — the lowered engine (registered as ``packed`` and, under
  its historical names, ``batch`` and ``compiled``; this bench drives
  ``compiled`` so the name stays covered end to end): the netlist
  lowered once to generated level kernels, fault-parallel words graded
  against the cached good trace.

This bench grades the same components with the same traced stimulus and
observability through both, asserts fault-by-fault agreement,
checks that cache-warm re-grades are bit-identical to cache-cold ones,
and reports throughput plus good-trace cache hit rates.  Agreement
between engines with disjoint implementations is strong evidence none
mis-simulates.

Runs two ways:

* ``PYTHONPATH=src python benchmarks/bench_engines.py [--quick]`` —
  standalone; exit code 1 on any agreement or throughput failure.
  The full run also requires the lowered engine to be >= 3x the
  differential engine on ALU and BSH at steady state (cache-warm —
  trace build and lowering are one-time costs the good-trace and
  program caches amortize away; the cache-cold time is still
  reported); ``--quick`` (the CI gate) skips that floor.
* via the tier-2 pytest-benchmark suite (full mode).
"""

import argparse
import sys
import time

from repro.core.campaign import execute_self_test
from repro.core.methodology import SelfTestMethodology
from repro.faultsim import build_fault_list
from repro.faultsim.engine import grade
from repro.faultsim.lowering import clear_program_cache
from repro.faultsim.options import GradeOptions
from repro.faultsim.trace_cache import global_trace_cache
from repro.plasma.components import build_component

#: Components the throughput gate runs on (deep combinational cones —
#: the lowered engine's home turf and the acceptance target).
GATE_COMPONENTS = ("ALU", "BSH")

#: Full-mode throughput floor: lowered engine (cache-warm) vs differential.
FULL_SPEEDUP_FLOOR = 3.0


def traced_specs():
    self_test = SelfTestMethodology().build_program("A")
    _, tracer, _ = execute_self_test(self_test)
    return tracer.finalize()


def _verdicts(result):
    """Engine-invariant verdict map: rep -> (detected, excited)."""
    return {
        rep: (det.detected, det.excited)
        for rep, det in result.detections.items()
    }


def _bench_component(name, patterns, observe, quick, lines, failures):
    netlist = build_component(name)
    fault_list = build_fault_list(netlist)
    n_faults = fault_list.n_collapsed
    cache = global_trace_cache()

    # Cold start: neither the good trace nor the lowered program cached.
    cache.clear()
    clear_program_cache()

    started = time.perf_counter()
    differential = grade(netlist, patterns, fault_list, GradeOptions(
        engine="differential", observe=observe, name=name))
    diff_seconds = time.perf_counter() - started

    # Lowered engine, cache-cold (trace + program lowered inside the
    # timing).
    cache.clear()
    clear_program_cache()
    cache.reset_stats()
    started = time.perf_counter()
    cold = grade(netlist, patterns, fault_list, GradeOptions(
        engine="compiled", observe=observe, name=name))
    cold_seconds = time.perf_counter() - started
    cold_lookups = cache.stats.lookups
    cold_hits = cache.stats.hits

    # Lowered engine, cache-warm: the good trace and program are reused.
    started = time.perf_counter()
    warm = grade(netlist, patterns, fault_list, GradeOptions(
        engine="compiled", observe=observe, name=name))
    warm_seconds = time.perf_counter() - started
    warm_hits = cache.stats.hits - cold_hits
    warm_lookups = cache.stats.lookups - cold_lookups
    hit_rate = warm_hits / warm_lookups if warm_lookups else 0.0

    diff_rate = n_faults / diff_seconds
    cold_rate = n_faults / cold_seconds
    warm_rate = n_faults / warm_seconds

    lines.append(
        f"{name}: {n_faults:,} fault classes, "
        f"{len(patterns):,} patterns"
    )
    rows = [
        ("differential", n_faults, differential.n_detected, diff_seconds,
         diff_rate),
        ("compiled cold", n_faults, cold.n_detected, cold_seconds,
         cold_rate),
        ("compiled warm", n_faults, warm.n_detected, warm_seconds,
         warm_rate),
    ]
    lines.append(
        f"  {'engine':>14s} {'graded':>7s} {'detected':>9s} "
        f"{'seconds':>8s} {'faults/s':>9s}"
    )
    for label, graded, detected, seconds, rate in rows:
        lines.append(
            f"  {label:>14s} {graded:>7,} {detected:>9,} "
            f"{seconds:>8.2f} {rate:>9,.0f}"
        )
    lines.append(
        f"  trace cache: warm hit rate {hit_rate:.0%} "
        f"({warm_hits}/{warm_lookups} lookups), "
        f"compiled speedup {diff_seconds / cold_seconds:.2f}x "
        f"(cold) / {diff_seconds / warm_seconds:.2f}x (warm) "
        f"vs differential"
    )

    # --- agreement gates -------------------------------------------------
    want = _verdicts(differential)
    if _verdicts(cold) != want:
        failures.append(f"{name}: compiled (cold) disagrees with differential")
    if _verdicts(warm) != want or warm.detected != cold.detected:
        failures.append(f"{name}: cache-warm grade differs from cache-cold")
    if cold.fault_coverage != differential.fault_coverage:
        failures.append(f"{name}: FC differs between engines")
    if warm_hits < 1:
        failures.append(f"{name}: warm re-grade did not hit the trace cache")

    # --- throughput gates ------------------------------------------------
    if not quick and diff_seconds / warm_seconds < FULL_SPEEDUP_FLOOR:
        failures.append(
            f"{name}: compiled steady-state speedup "
            f"{diff_seconds / warm_seconds:.2f}x is below the "
            f"{FULL_SPEEDUP_FLOOR:.0f}x floor"
        )


def run_bench(quick: bool) -> tuple[str, list[str]]:
    """Grade the gate components through every engine.

    Returns:
        ``(report text, failure messages)`` — empty failures = pass.
    """
    specs = traced_specs()
    lines: list[str] = []
    failures: list[str] = []
    for name in GATE_COMPONENTS:
        patterns, observe = specs[name]
        _bench_component(name, patterns, observe, quick, lines, failures)
    return "\n".join(lines), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: skip the 3x steady-state floor",
    )
    args = parser.parse_args(argv)
    text, failures = run_bench(quick=args.quick)
    print(text)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_engine_agreement_and_throughput(benchmark):
    from conftest import write_result

    text, failures = benchmark.pedantic(
        lambda: run_bench(quick=False), rounds=1, iterations=1
    )
    write_result("engines_e1_crosscheck.txt", text)
    print("\n" + text)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    sys.exit(main())

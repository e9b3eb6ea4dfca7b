"""Metric names, units and the arithmetic that turns samples into them.

End-to-end metrics are measured with tracing off; per-layer metrics come
from a separate traced run (:mod:`perfbench.spans`).  Every workload emits
every metric of the set it is asked for, so a layer that a workload never
enters reports zero there.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from collections.abc import Iterable, Sequence
from typing import Any

from perfbench.spans import ENGINES, Span, self_times

COMPONENTS = ("RegF", "MulD", "ALU", "BSH", "MCTRL", "PCL", "CTRL", "BMUX",
              "PLN", "GL")

END_TO_END = {
    "setup_s": "s",
    "campaign_s_p50": "s",
    "campaign_s_p90": "s",
    "classes_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "jobs_per_s": "1/s",
}

PER_LAYER = {
    "isa.build_program_s": "s",
    "plasma.execute_s": "s",
    "plasma.finalize_s": "s",
    "plasma.cycles": "count",
    "netlist.build_s": "s",
    "faults.build_s": "s",
    "faults.classes": "count",
    "collapse.compute_s": "s",
    "collapse.inferred_ratio": "ratio",
    **{f"faultsim.grade_s.{c}": "s" for c in COMPONENTS},
    **{f"faultsim.kernel_s.{e}": "s" for e in ENGINES},
    "faultsim.good_trace_s": "s",
    "faultsim.simulated": "count",
    "faultsim.detected_ratio": "ratio",
    "store.key_s": "s",
    "store.load_s": "s",
    "store.save_s": "s",
    "store.hit_ratio": "ratio",
    "store.bytes_read": "bytes",
    "reach.interpret_s": "s",
    "reach.skipped_ratio": "ratio",
    "runtime.shards": "count",
    "runtime.shard_compute_s": "s",
    "runtime.shard_overhead_ratio": "ratio",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.attach_ratio": "ratio",
    "campaign.self_s": "s",
    "trace.campaign_s_p50_traced": "s",
    "trace.campaign_s_p50_untraced": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

#: Span name -> per-layer self-time metric it is charged to.
SELF_TIME = {
    "isa.build_program": "isa.build_program_s",
    "plasma.execute": "plasma.execute_s",
    "plasma.finalize": "plasma.finalize_s",
    "netlist.build": "netlist.build_s",
    "faults.build": "faults.build_s",
    "collapse.compute": "collapse.compute_s",
    "faultsim.good_trace": "faultsim.good_trace_s",
    "store.key": "store.key_s",
    "store.load": "store.load_s",
    "store.save": "store.save_s",
    "reach.interpret": "reach.interpret_s",
    "reach.report": "reach.interpret_s",
    "campaign.run_campaign": "campaign.self_s",
    "campaign.grade_program": "campaign.self_s",
    "campaign.grade_traced": "campaign.self_s",
    **{f"faultsim.kernel.{e}": f"faultsim.kernel_s.{e}" for e in ENGINES},
}


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    """Inclusive 90th percentile (the sample itself for one sample)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_times(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer self time per operation, plus per-component grade time.

    ``isa.build_program_s`` is per build rather than per operation: the
    program is built once in set-up and reused by every timed operation.
    """
    out = {name: 0.0 for name, unit in PER_LAYER.items() if unit == "s"}
    own = self_times(spans)
    builds = 0
    for span, self_s in zip(spans, own, strict=True):
        metric = SELF_TIME.get(span.name)
        if span.name == "isa.build_program":
            builds += 1
            out[metric] += self_s
        elif metric is not None:
            out[metric] += self_s / n_ops
        if span.name == "faultsim.grade":
            key = f"faultsim.grade_s.{span.attrs.get('component')}"
            if key in out:
                out[key] += span.duration / n_ops
    out["isa.build_program_s"] = ratio(out["isa.build_program_s"], builds)
    return out


def store_counts(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Verdict-record hit ratio and bytes read per operation."""
    loads = [s for s in spans
             if s.name == "store.load" and s.attrs.get("kind") == "verdicts"]
    hits = sum(1 for s in loads if s.attrs.get("hit"))
    read = sum(s.attrs.get("bytes", 0) for s in spans if s.name == "store.load")
    return {
        "store.hit_ratio": ratio(hits, len(loads)),
        "store.bytes_read": ratio(read, n_ops),
    }


def campaign_counts(records: Iterable[dict[str, Any]],
                    n_ops: int) -> dict[str, float]:
    """Work counts per operation from campaign result records.

    Each record carries ``faults``, ``detected``, ``simulated``,
    ``inferred``, ``reach_skipped``, ``reach`` (screen requested) and
    ``cycles`` for one executed campaign.
    """
    total: dict[str, float] = defaultdict(float)
    reach_faults = 0.0
    for rec in records:
        for key in ("faults", "detected", "simulated", "inferred",
                    "reach_skipped", "cycles"):
            total[key] += rec[key]
        if rec["reach"]:
            reach_faults += rec["faults"]
    return {
        "plasma.cycles": ratio(total["cycles"], n_ops),
        "faults.classes": ratio(total["faults"], n_ops),
        "collapse.inferred_ratio": ratio(
            total["inferred"], total["simulated"] + total["inferred"]),
        "faultsim.simulated": ratio(total["simulated"], n_ops),
        "faultsim.detected_ratio": ratio(total["detected"], total["faults"]),
        "reach.skipped_ratio": ratio(total["reach_skipped"], reach_faults),
    }


def outcome_record(outcome: Any) -> dict[str, Any]:
    """:func:`campaign_counts` record of an in-process CampaignOutcome
    (graded with the reach screen off)."""
    results = outcome.results.values()
    return {
        "faults": sum(r.n_faults for r in results),
        "detected": sum(r.n_detected for r in results),
        "simulated": sum(r.n_simulated for r in results),
        "inferred": sum(r.n_inferred for r in results),
        "reach_skipped": sum(r.n_reach_skipped for r in results),
        "reach": False,
        "cycles": outcome.cpu_result.cycles,
    }


def assemble(values: dict[str, float], units: dict[str, str]) -> dict:
    """``{name: {"value", "unit"}}`` for every metric in ``units``."""
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}


#: Per-layer metric -> the end-to-end metric(s) and workload it should
#: move.  BENCHMARK.json's schema has no field for this, so it lives here.
MOVES = {
    "isa.build_program_s": "setup_s on every workload",
    **{name: "campaign_s_p50 on phaseA-warm" for name in (
        "plasma.execute_s", "plasma.finalize_s", "plasma.cycles",
        "netlist.build_s", "faults.build_s", "faults.classes",
        "collapse.compute_s", "campaign.self_s")},
    "collapse.inferred_ratio": "campaign_s_p50 on phaseA-cold",
    **{name: "campaign_s_p50 and cpu_s on phaseA-cold; none on phaseA-warm"
       for name in PER_LAYER
       if name.startswith(("faultsim.grade_s.", "faultsim.kernel_s."))},
    **{name: "campaign_s_p50 and cpu_s on phaseA-cold; none on phaseA-warm"
       for name in ("faultsim.good_trace_s", "faultsim.simulated",
                    "faultsim.detected_ratio")},
    **{name: "campaign_s_p50 on phaseA-warm; jobs_per_s on service-mix"
       for name in PER_LAYER if name.startswith("store.")},
    "reach.interpret_s": "job_s_p90 on service-mix",
    "reach.skipped_ratio": "job_s_p90 on service-mix",
    # Only the two opening jobs shard: every later one is a store hit.
    **{name: "cpu_s and jobs_per_s on service-mix"
       for name in PER_LAYER if name.startswith("runtime.")},
    **{name: "job_s_p90 and jobs_per_s on service-mix"
       for name in PER_LAYER if name.startswith("service.")},
    **{name: "none: tracing cost, the traced run against the untraced one"
       for name in PER_LAYER if name.startswith("trace.")},
}

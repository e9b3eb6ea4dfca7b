"""The benchmark's own tests: metric coverage, reference gate, generator.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  Nothing here
grades a real campaign; the workloads are driven with stand-in outcomes.
"""

from __future__ import annotations

import json
import signal
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import campaigns, metrics, reference, run, service_mix, spans

ROOT = Path(__file__).resolve().parents[1]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_emitted_metric_with_its_unit() -> None:
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(metrics.MOVES) == set(metrics.PER_LAYER)


def test_assemble_refuses_a_missing_metric() -> None:
    with pytest.raises(KeyError):
        metrics.assemble({"setup_s": 1.0}, metrics.END_TO_END)


# ------------------------------------------------------- stand-in outcomes


def _ref() -> reference.Reference:
    return reference.load_reference(ROOT)


def _outcome(ref: reference.Reference, fc_shift: float = 0.0,
             cached: int = 10) -> SimpleNamespace:
    """A CampaignOutcome look-alike carrying the committed Phase A tables."""
    rows = [{"name": name, "fc": float(fc) + fc_shift, "mofc": float(mofc),
             "faults": 100, "detected": 90}
            for name, (fc, mofc) in ref.table5["A"].items()]
    results = {
        r["name"]: SimpleNamespace(n_faults=100, n_detected=90,
                                   n_simulated=0, n_inferred=0,
                                   n_reach_skipped=0)
        for r in rows if r["name"] != "Plasma"
    }
    return SimpleNamespace(
        results=results,
        cpu_result=SimpleNamespace(cycles=ref.table4["A"]["clock_cycles"]),
        degraded_components=[],
        cached_components=list(results)[:cached],
        table4=lambda: dict(ref.table4["A"]),
        table5=lambda: rows,
    )


class _Work(campaigns.CampaignWorkload):
    """The warm workload with the real checks and a stand-in campaign."""

    def __init__(self, ref: reference.Reference, outcome) -> None:
        super().__init__(ref=ref, warm=True)
        self.outcome = outcome

    def setup(self) -> None:
        pass

    def campaign(self):
        return 0.001, self.outcome


def test_campaign_run_emits_every_metric(tmp_path: Path) -> None:
    ref = _ref()
    for spans in (None, tmp_path / "spans.json"):
        result = campaigns.run(_Work(ref, _outcome(ref)), 0.01, spans)
        assert result["failed"] == 0 and result["attempted"] >= 1
        values = dict(result["e2e"], setup_s=0.5)
        emitted = metrics.assemble(values, metrics.END_TO_END)
        assert all(v["unit"] == metrics.END_TO_END[k]
                   for k, v in emitted.items())
        if spans is not None:
            assert spans.exists()
            layers = metrics.assemble(result["layers"], metrics.PER_LAYER)
            assert layers["plasma.cycles"]["value"] == \
                ref.table4["A"]["clock_cycles"]


def test_tampered_table5_reference_is_reported_as_failure() -> None:
    ref = _ref()
    tampered = reference.Reference(
        table4=ref.table4,
        table5={
            phases: {name: ("00.00", mofc) if name == "ALU" else (fc, mofc)
                     for name, (fc, mofc) in rows.items()}
            for phases, rows in ref.table5.items()
        },
    )
    result = campaigns.run(_Work(tampered, _outcome(ref)), 0.01)
    assert result["failed"] == result["attempted"] >= 1
    problems = reference.check_table5(tampered, "AB", [
        {"name": "ALU", "fc": float(ref.table5["AB"]["ALU"][0]), "mofc": 0.0}
    ], whole=False)
    assert problems and "ALU FC" in problems[0]


def test_store_misses_and_coverage_drift_are_failures() -> None:
    ref = _ref()
    assert _Work(ref, _outcome(ref, cached=9)).check(_outcome(ref, cached=9))
    assert _Work(ref, None).check(_outcome(ref, fc_shift=0.01))
    assert not _Work(ref, None).check(_outcome(ref))


# ------------------------------------------------------------- generator


def test_request_sequence_is_a_seeded_stratified_mix() -> None:
    one = service_mix.request_sequence(7, 3)
    assert one == service_mix.request_sequence(7, 3)
    assert service_mix.sequence_digest(one) != service_mix.sequence_digest(
        service_mix.request_sequence(8, 3))
    opening = len(service_mix.OPENING)
    assert one[:opening] == list(service_mix.OPENING)
    assert len(one) == opening + 3 * service_mix.BLOCK
    for request in one:
        names = request["components"]
        # 1-3 components, or a repeat of an opening request (all four).
        assert 1 <= len(names) <= 3 or names == list(
            service_mix.MIX_COMPONENTS)
        assert set(names) <= set(service_mix.MIX_COMPONENTS)
    keys = {(r["phases"], tuple(r["components"]), r["reach"]) for r in one}
    assert len(keys) == opening + 3 * (
        service_mix.BLOCK - service_mix.REPEATS)
    assert sum(r["reach"] for r in one) >= 3 * service_mix.REACH


def test_server_stops_cleanly_and_reports_its_peak(tmp_path: Path) -> None:
    # A benchmark started in the background inherits SIGINT ignored; the
    # server must still take SIGINT as its clean stop.
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        server = service_mix.start_server(ROOT, tmp_path / "cache")
    finally:
        signal.signal(signal.SIGINT, previous)
    server.stop()
    assert server.proc.returncode == 0
    assert server.peak_kib() > 0


# ----------------------------------------------------------------- spans


def test_self_time_subtracts_children() -> None:
    recorder = spans.Recorder()
    with recorder.span("campaign.grade_program"):
        with recorder.span("faultsim.grade", component="GL"):
            pass
    own = spans.self_times(recorder.spans)
    outer, inner = recorder.spans
    assert inner.parent == 0
    assert own[0] == pytest.approx(outer.duration - inner.duration)


def test_instrumentation_records_layers_and_restores_originals() -> None:
    from repro.core.methodology import SelfTestMethodology
    from repro.faultsim import faults
    from repro.plasma.components import component

    original = faults.build_fault_list
    builder = component("GL").builder
    recorder = spans.Recorder()
    inst = spans.Instrumentation(recorder)
    inst.install()
    try:
        SelfTestMethodology().build_program("A")
        faults.build_fault_list(component("GL").builder())
    finally:
        inst.remove()
    assert faults.build_fault_list is original
    assert component("GL").builder is builder
    names = {s.name for s in recorder.spans}
    assert {"isa.build_program", "netlist.build", "faults.build"} <= names

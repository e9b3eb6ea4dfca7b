"""The two in-process campaign workloads: ``phaseA-cold`` and ``phaseA-warm``.

Both time :func:`repro.core.campaign.grade_program` on the paper's Phase A
program, built once in set-up, with the options ``repro campaign`` uses by
default (engine ``auto``, collapse on, reach off, one job).  The in-memory
good-trace and compiled-program memos are cleared before every timed
campaign, so each one starts the way a fresh ``repro campaign`` process
does.

* ``phaseA-cold`` grades without a persistent store, so every fault class
  is simulated.  RegF and MulD are left out: under ``auto`` they take about
  two minutes together, more than one benchmark run may take.  The eight graded components keep the sequential MCTRL and PCL,
  so the fault-sim kernel still dominates.
* ``phaseA-warm`` replays all ten components from a :class:`TraceStore`
  that the per-checkout build filled, so it times the front of the chain:
  CPU trace, netlist build, fault list, collapse, store keys and reads.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench import metrics
from perfbench.host import child_env, cpu_seconds, peak_rss_mib
from perfbench.reference import Reference, check_table4, check_table5
from perfbench.spans import Instrumentation, Recorder

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUPS = 7
COLD_COMPONENTS = [c for c in metrics.COMPONENTS if c not in ("RegF", "MulD")]


def fill_store(path: Path) -> None:
    """Grade Phase A once into a fresh store at ``path``.

    Store keys leave the engine out, so the fill uses ``packed``, the
    fastest engine on the big sequential components.
    """
    from repro.core.campaign import run_campaign
    from repro.faultsim.options import GradeOptions
    from repro.faultsim.store import TraceStore

    run_campaign("A", options=GradeOptions(
        engine="packed", collapse=True, cache=TraceStore(path)))


@dataclass
class CampaignWorkload:
    """One prebuilt program graded repeatedly under fixed options."""

    ref: Reference
    warm: bool
    store_path: Path | None = None
    self_test: Any = None
    store: Any = None
    problems: list[str] = field(default_factory=list)

    def setup(self) -> None:
        from repro.core.methodology import SelfTestMethodology
        from repro.faultsim.store import TraceStore

        self.self_test = SelfTestMethodology().build_program("A")
        if self.warm:
            self.store = TraceStore(self.store_path)

    @property
    def components(self) -> list[str] | None:
        return None if self.warm else COLD_COMPONENTS

    def campaign(self) -> tuple[float, Any]:
        """One timed campaign; returns (seconds, outcome)."""
        from repro.core.campaign import grade_program
        from repro.faultsim.lowering import clear_program_cache
        from repro.faultsim.options import GradeOptions
        from repro.faultsim.trace_cache import global_trace_cache

        global_trace_cache().clear()
        clear_program_cache()
        options = GradeOptions(engine="auto", collapse=True,
                               cache=self.store)
        started = time.perf_counter()
        outcome = grade_program(self.self_test, components=self.components,
                                options=options)
        return time.perf_counter() - started, outcome

    def check(self, outcome: Any) -> list[str]:
        """Every mismatch of one outcome against the committed tables."""
        problems = check_table4(self.ref, "A", outcome.table4())
        problems += check_table5(self.ref, "A", outcome.table5(),
                                 whole=self.warm)
        if outcome.degraded_components:
            problems.append(f"degraded: {outcome.degraded_components}")
        if self.warm and len(outcome.cached_components) != len(
                metrics.COMPONENTS):
            problems.append(
                f"store hits {len(outcome.cached_components)}/"
                f"{len(metrics.COMPONENTS)}")
        return problems


def run(work: CampaignWorkload, seconds: float,
        spans_path: Path | None = None) -> dict:
    """Timed campaigns for about ``seconds`` (at least one of each kind).

    Untraced, a new campaign starts while the last one's duration still
    fits in the window.  With ``spans_path`` (the traced run) campaigns
    alternate untraced/traced, so the tracing overhead is measured on the
    same process and data, and the spans are written there at the end.
    """
    trace = spans_path is not None
    recorder = Recorder()
    instrumentation = Instrumentation(recorder)
    times: dict[bool, list[float]] = {False: [], True: []}
    # Untraced campaign plus its check: the in-process job cycle.
    cycles: list[float] = []
    tables: dict[bool, Any] = {}
    records: list[dict] = []
    attempted = failed = 0
    if trace:
        instrumentation.install()
        try:
            recorder.run = "setup"
            work.setup()
        finally:
            instrumentation.remove()
    else:
        work.setup()
    cpu0 = cpu_seconds()
    window0 = time.perf_counter()
    last = 0.0
    while True:
        traced = trace and len(times[False]) > len(times[True])
        elapsed = time.perf_counter() - window0
        enough = times[False] and (not trace or times[True])
        if enough and elapsed + last > seconds:
            break
        if traced:
            recorder.run = f"campaign{attempted}"
            instrumentation.install()
        cycle0 = time.perf_counter()
        try:
            last, outcome = work.campaign()
        finally:
            instrumentation.remove()
        attempted += 1
        problems = work.check(outcome)
        if problems:
            failed += 1
            work.problems.extend(problems)
        times[traced].append(last)
        if not traced:
            cycles.append(time.perf_counter() - cycle0)
        if trace:
            tables[traced] = _tables(outcome)
        if traced:
            records.append(metrics.outcome_record(outcome))
    cpu = cpu_seconds() - cpu0
    samples = times[False]
    n_classes = metrics.outcome_record(outcome)["faults"]
    # Rates come from medians, not totals: one campaign slowed by a busy
    # host must not move a whole run's figure.
    result: dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "samples": len(samples),
        "e2e": {
            "campaign_s_p50": metrics.p50(samples),
            "campaign_s_p90": metrics.p90(samples),
            "classes_per_s": n_classes / metrics.p50(samples),
            "cpu_s": cpu / attempted,
            "peak_rss_mib": peak_rss_mib(),
            # In process there is no queue: a job is one campaign, due
            # when the previous one ended, and the next is due once this
            # one is checked.
            "job_s_p50": metrics.p50(samples),
            "job_s_p90": metrics.p90(samples),
            "jobs_per_s": 1.0 / metrics.p50(cycles),
        },
    }
    if trace:
        if tables[True] != tables[False]:
            failed += 1
            result["failed"] = failed
            work.problems.append("traced tables differ from untraced")
        result["layers"] = _layers(recorder, records, times)
        recorder.dump(spans_path)
    return result


def _tables(outcome: Any) -> dict:
    from repro.reporting.tables import coverage_tables_json

    return coverage_tables_json({"A": outcome})


def _layers(recorder: Recorder, records: list[dict],
            times: dict[bool, list[float]]) -> dict[str, float]:
    n_ops = len(times[True])
    values = {name: 0.0 for name in metrics.PER_LAYER}
    values.update(metrics.layer_times(recorder.spans, n_ops))
    values.update(metrics.store_counts(recorder.spans, n_ops))
    values.update(metrics.campaign_counts(records, n_ops))
    traced = metrics.p50(times[True])
    untraced = metrics.p50(times[False])
    values.update({
        "trace.campaign_s_p50_traced": traced,
        "trace.campaign_s_p50_untraced": untraced,
        "trace.overhead_ratio": traced / untraced - 1.0,
        "trace.spans": sum(1 for s in recorder.spans if s.run != "setup")
        / n_ops,
    })
    return values


# ---------------------------------------------------------------- workload


def warm_store(root: Path, build_dir: Path,
               digest: str) -> tuple[Path, float]:
    """The filled Phase A store for this source tree: (path, build seconds).

    Filled on first use in a checkout (into a temporary directory that is
    renamed into place) and reused by every later run.
    """
    path = build_dir / f"store-{digest}"
    if path.exists():
        return path, 0.0
    build_dir.mkdir(parents=True, exist_ok=True)
    for stale in build_dir.glob("store-*"):
        shutil.rmtree(stale, ignore_errors=True)
    tmp = build_dir / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import sys; from pathlib import Path; "
         "from perfbench.campaigns import fill_store; "
         "fill_store(Path(sys.argv[1]))", str(tmp)],
        cwd=root, env=child_env(root), check=True, stdout=subprocess.DEVNULL)
    os.replace(tmp, path)
    return path, time.perf_counter() - started


def probe_setup(root: Path, kind: str, store: Path | None) -> float:
    """Seconds from spawning a fresh interpreter to its set-up finishing."""
    cmd = [sys.executable, "-m", "perfbench.probe", kind]
    if store is not None:
        cmd.append(str(store))
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE, text=True)
    assert proc.stdout is not None
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe {kind} failed")
    return elapsed


def workload(root: Path, ref: Reference, store: Path | None,
             seconds: float, spans_path: Path | None, info: dict) -> dict:
    """Set up and run ``phaseA-warm`` (with ``store``) or ``phaseA-cold``."""
    warm = store is not None
    setups = [probe_setup(root, "warm" if warm else "cold", store)
              for _ in range(SETUPS)]
    work = CampaignWorkload(ref=ref, warm=warm, store_path=store)
    result = run(work, seconds, spans_path)
    result["e2e"]["setup_s"] = statistics.median(setups)
    info["problems"] = work.problems[:20]
    info["campaign_samples"] = result["samples"]
    return result

"""End-to-end fault-grading campaign (produces Tables 4 and 5).

The pipeline (DESIGN.md Section 4):

1. build the self-test program for the requested phases;
2. execute it on the traced behavioural CPU (cycle accounting = Table 4);
3. replay every component's traced stimulus against its gate netlist with
   the stuck-at fault simulator, honouring the taint-derived observability;
4. aggregate per-component FC / MOFC and the overall processor coverage
   (= Table 5).

Step 3 is by far the longest-running part, so it is expressed as one *job*
per component.  By default the jobs run serially in-process (identical to
the historical behaviour); passing a :class:`~repro.runtime.RuntimeConfig`
routes them through the resilient :class:`~repro.runtime.JobRunner`
instead — worker-process isolation, wall-clock timeouts, retries with
backoff, crash-safe JSONL checkpointing with resume, and graceful
degradation (a permanently failing component is reported as ungraded with
lower-bound coverage rather than aborting the whole campaign).
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import CheckpointCorrupt, FaultSimError, ReproRuntimeError
from repro.core.methodology import SelfTestMethodology, SelfTestProgram
from repro.faultsim.coverage import CoverageSummary
from repro.faultsim.differential import Detection
from repro.faultsim.engine import Stimulus, grade, prune_sets
from repro.faultsim.faults import FaultList, build_fault_list
from repro.faultsim.harness import CampaignResult
from repro.faultsim.observe import ObservePlan, ObserveSpec
from repro.faultsim.options import GradeOptions
from repro.faultsim.store import (
    result_from_payload,
    verdict_key_for,
    verdicts_payload,
)
from repro.netlist.netlist import Netlist
from repro.netlist.stats import gate_count
from repro.plasma.components import COMPONENTS, ComponentInfo, component
from repro.plasma.cpu import CPUResult, PlasmaCPU
from repro.plasma.memory import Memory
from repro.plasma.tracer import ComponentTracer
from repro.runtime.events import JobEvent
from repro.runtime.policy import RuntimeConfig
from repro.runtime.runner import JobRunner

if TYPE_CHECKING:
    from repro.analysis.collapse import CollapseMap
    from repro.analysis.reach import Pattern, ReachReport
    from repro.core.sharded import ShardVerdict
    from repro.runtime.sharding import ShardTask

#: Optional netlist -> netlist rewrite applied before grading.
NetlistTransform = Callable[[Netlist], Netlist]


@dataclass
class CampaignOutcome:
    """Everything a table renderer or benchmark needs from one campaign."""

    phases: str
    self_test: SelfTestProgram
    cpu_result: CPUResult
    results: dict[str, CampaignResult] = field(default_factory=dict)
    summary: CoverageSummary = field(default_factory=CoverageSummary)
    grading_seconds: dict[str, float] = field(default_factory=dict)
    #: Components whose grading permanently failed; their coverage rows
    #: are lower bounds (all faults counted undetected).
    degraded_components: list[str] = field(default_factory=list)
    #: Components whose verdicts were replayed from the persistent store
    #: (``GradeOptions.cache``) instead of being re-simulated.
    cached_components: list[str] = field(default_factory=list)
    #: Structured per-job runtime events (empty for the in-process path).
    events: list[JobEvent] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True if any component's grading permanently failed."""
        return bool(self.degraded_components)

    # ------------------------------------------------------------ tables

    def table4(self) -> dict[str, int]:
        """Self-test program statistics (paper Table 4)."""
        return {
            "code_words": self.self_test.code_words,
            "data_words": self.self_test.data_words,
            "total_words": self.self_test.total_words,
            "clock_cycles": self.cpu_result.cycles,
        }

    def table5(self) -> list[dict[str, object]]:
        """Per-component FC and MOFC rows plus the overall row."""
        rows: list[dict[str, object]] = []
        for cov in self.summary.components:
            rows.append(
                {
                    "name": cov.name,
                    "faults": cov.n_faults,
                    "detected": cov.n_detected,
                    "fc": cov.fault_coverage,
                    "mofc": self.summary.mofc(cov.name),
                    "degraded": cov.degraded,
                    "proven": cov.n_proven,
                }
            )
        rows.append(
            {
                "name": "Plasma",
                "faults": self.summary.total_faults,
                "detected": self.summary.total_detected,
                "fc": self.summary.overall_coverage,
                "mofc": 100.0 - self.summary.overall_coverage,
                "degraded": self.summary.degraded,
                "proven": sum(c.n_proven for c in self.summary.components),
            }
        )
        return rows


def _campaign_options(options: GradeOptions | None) -> GradeOptions:
    """The campaign's :class:`GradeOptions` (the defaults for ``None``)."""
    if options is None:
        return GradeOptions()
    if options.collapse_map is not None:
        raise FaultSimError(
            "campaign-level options must use collapse=True/False; a "
            "precomputed CollapseMap is bound to a single netlist"
        )
    return options


def _program_reach(
    self_test: SelfTestProgram,
) -> tuple[str, dict[str, list[Pattern]]] | None:
    """Abstract-interpret the self-test program once for the reach screen.

    Returns ``(program_digest, patterns)`` — the per-component derived
    abstract pattern sets (:func:`repro.analysis.reach.derive_patterns`)
    — or ``None`` when the abstraction degrades, in which case the
    screen is silently disabled and grading proceeds exactly as with
    ``reach=False``.
    """
    # Local import: repro.analysis.reach imports the fault model, so
    # the load-time dependency stays one-way.
    from repro.analysis.absint import interpret_program
    from repro.analysis.reach import derive_patterns

    abstraction = interpret_program(self_test.program)
    patterns = derive_patterns(abstraction)
    if not patterns:
        return None
    return abstraction.digest, patterns


def _component_reach(
    digest: str,
    patterns: dict[str, list[Pattern]],
    info: ComponentInfo,
    netlist: Netlist,
    fault_list: FaultList | None = None,
) -> ReachReport | None:
    """One component's reach report against its (transformed) netlist."""
    from repro.analysis.reach import build_reach_report

    if info.name not in patterns:
        return None
    if fault_list is None:
        fault_list = build_fault_list(netlist)
    return build_reach_report(
        netlist, fault_list, patterns[info.name],
        component=info.name, program_digest=digest,
    )


def grade_component(
    info: ComponentInfo,
    stimulus: Stimulus,
    observe: ObserveSpec,
    netlist_transform: NetlistTransform | None = None,
    netlist: Netlist | None = None,
    options: GradeOptions | None = None,
) -> CampaignResult:
    """Fault-grade one component against its traced stimulus.

    Args:
        netlist_transform: optional netlist -> netlist rewrite applied
            before grading (e.g. a technology remap for experiment C3).
        netlist: pre-built (and pre-transformed) netlist to grade; when
            given, ``netlist_transform`` is not applied again.
        options: the grading options (engine, pruning, collapsing,
            persistent cache, packed lanes).  The component's traced
            ``observe`` spec and name are stamped on internally.
    """
    if netlist is None:
        netlist = info.builder()
        if netlist_transform is not None:
            netlist = netlist_transform(netlist)
    if not stimulus:
        # The program never excited this component (e.g. a prefix program
        # without its routine): everything stays undetected.
        return CampaignResult(info.name, build_fault_list(netlist))
    opts = _campaign_options(options).replace(
        observe=observe, name=info.name, subset=None
    )
    return grade(netlist, stimulus, options=opts)


def execute_self_test(
    self_test: SelfTestProgram,
) -> tuple[CPUResult, ComponentTracer, Memory]:
    """Run a self-test program on the traced CPU."""
    tracer = ComponentTracer()
    cpu = PlasmaCPU(tracer=tracer)
    cpu.load_program(self_test.program)
    result = cpu.run()
    return result, tracer, cpu.memory


# ------------------------------------------------------------------- jobs
#
# One fault-grading job per component.  The function is module-level so a
# worker process can execute it, and it returns ``(result, nand2)`` from a
# *single* netlist build (the area is measured pre-transform, matching the
# historical Table 3 semantics).


def _grading_job(
    name: str,
    stimulus: Stimulus,
    observe: ObserveSpec,
    netlist_transform: NetlistTransform | None = None,
    options: GradeOptions | None = None,
) -> tuple[CampaignResult, int]:
    """Build one component once, measure its area, fault-grade it."""
    info = component(name)
    netlist = info.builder()
    nand2 = gate_count(netlist).nand2
    if netlist_transform is not None:
        netlist = netlist_transform(netlist)
    result = grade_component(
        info, stimulus, observe, netlist=netlist, options=options
    )
    return result, nand2


def _job_fingerprint(
    self_test: SelfTestProgram,
    info: ComponentInfo,
    netlist_transform: NetlistTransform | None = None,
    options: GradeOptions | None = None,
) -> str:
    """Configuration hash guarding checkpoint reuse.

    The traced stimulus is a deterministic function of the program source,
    so hashing the source (plus the component and transform identities)
    is enough to detect a journal written by a different campaign.  The
    verdict-shaping options (prune mode, fault-ordering epoch) enter via
    :meth:`GradeOptions.fingerprint` — engine, lane and cache choices
    deliberately do not, because verdicts are invariant under them.
    """
    digest = hashlib.sha256()
    digest.update(self_test.phases.encode())
    digest.update(self_test.source.encode())
    digest.update(info.name.encode())
    transform_id = (
        "" if netlist_transform is None
        else getattr(netlist_transform, "__qualname__", repr(netlist_transform))
    )
    digest.update(transform_id.encode())
    digest.update((options or GradeOptions()).fingerprint().encode())
    return digest.hexdigest()[:16]


def _result_to_record(
    value: tuple[CampaignResult, int], elapsed: float = 0.0
) -> dict[str, object]:
    """Serialize a grading result to a JSON-safe checkpoint record."""
    result, nand2 = value
    return {
        "name": result.name,
        "n_faults": result.n_faults,
        "detected": sorted(result.detected),
        "n_patterns": result.n_patterns,
        "nand2": nand2,
        "elapsed": elapsed,
        "pruned": sorted(result.pruned),
        "proven": sorted(result.proven),
        "n_simulated": result.n_simulated,
        "n_inferred": result.n_inferred,
        "n_reach_skipped": result.n_reach_skipped,
        "collapse_hash": result.collapse_hash,
    }


def _record_to_result(
    record: dict[str, Any],
    info: ComponentInfo,
    netlist_transform: NetlistTransform | None = None,
) -> tuple[CampaignResult, int]:
    """Rebuild a :class:`CampaignResult` from a journaled record.

    The fault universe is regenerated deterministically from the netlist
    builder; only the detected set comes from the journal.  Per-fault
    Detection records are not journaled, so a resumed result has an empty
    ``detections`` map (coverage numbers are unaffected).
    """
    netlist = info.builder()
    if netlist_transform is not None:
        netlist = netlist_transform(netlist)
    fault_list = build_fault_list(netlist)
    if fault_list.n_collapsed != record["n_faults"]:
        raise CheckpointCorrupt(
            f"journaled record for {info.name!r} has {record['n_faults']} "
            f"fault classes but the netlist yields "
            f"{fault_list.n_collapsed}"
        )
    result = CampaignResult(
        info.name,
        fault_list,
        detected=set(record["detected"]),
        n_patterns=record["n_patterns"],
        pruned=set(record.get("pruned", ())),
        proven=set(record.get("proven", ())),
    )
    result.n_simulated = int(record.get("n_simulated", 0))
    result.n_inferred = int(record.get("n_inferred", 0))
    result.n_reach_skipped = int(record.get("n_reach_skipped", 0))
    result.collapse_hash = str(record.get("collapse_hash", ""))
    return result, record["nand2"]


def _ungraded_result(
    info: ComponentInfo, netlist_transform: NetlistTransform | None = None
) -> tuple[CampaignResult, int]:
    """Fallback for a permanently failed job: full fault universe, nothing
    detected, so the component contributes a coverage *lower bound*."""
    try:
        netlist = info.builder()
        nand2 = gate_count(netlist).nand2
        if netlist_transform is not None:
            netlist = netlist_transform(netlist)
        fault_list = build_fault_list(netlist)
    except Exception:
        # Even the builder is broken (that may be *why* the job failed);
        # report an empty universe rather than crash the degraded path.
        fault_list = build_fault_list(Netlist(info.name))
        nand2 = 0
    return CampaignResult(info.name, fault_list), nand2


def grade_traced(
    self_test: SelfTestProgram,
    cpu_result: CPUResult,
    specs: dict[str, tuple[Stimulus, ObserveSpec]],
    components: list[str] | None = None,
    verbose: bool = False,
    netlist_transform: NetlistTransform | None = None,
    runtime: RuntimeConfig | None = None,
    options: GradeOptions | None = None,
) -> CampaignOutcome:
    """Fault-grade already-traced stimulus (the grading stage alone).

    :func:`grade_program` = :func:`execute_self_test` + this function.
    Split out so callers that already hold a CPU trace (benchmarks, the
    parallel-scaling harness) can time or re-run the grading stage
    without re-executing the program.

    Args:
        specs: ``tracer.finalize()`` output — per component name, the
            ``(stimulus, observe)`` pair captured during execution.
        runtime: where and how resiliently to grade.  ``None`` grades
            serially in-process.  ``runtime.jobs == 1`` routes each
            component through the resilient
            :class:`~repro.runtime.JobRunner`; with more workers each
            component's fault universe is sharded
            (:func:`repro.runtime.sharding.plan_shards`) and fanned over
            a persistent pool, and the merged outcome is bit-identical
            to the serial run (DESIGN.md Section 11).
        options: the grading options (engine, pruning, collapsing,
            reach screen, persistent cache, packed lanes).  With
            ``collapse=True`` only super-class representatives are
            simulated; coverage and detected sets are bit-identical
            either way, so journaled component records stay reusable
            across the flag, while sharded runs stamp the collapse hash
            into shard fingerprints because shard bounds then index a
            different universe.
    """
    opts = _campaign_options(options)
    if opts.reach_report is not None:
        raise FaultSimError(
            "campaign-level options must use reach=True/False; a "
            "precomputed ReachReport is bound to a single "
            "(program, component) pair"
        )
    reach_info = _program_reach(self_test) if opts.reach_requested else None
    outcome = CampaignOutcome(
        phases=self_test.phases, self_test=self_test, cpu_result=cpu_result
    )
    wanted = set(components) if components is not None else None
    if runtime is not None and runtime.jobs > 1:
        _grade_traced_parallel(
            outcome, self_test, specs, wanted, verbose, netlist_transform,
            runtime, opts, reach_info,
        )
        return outcome
    runner = JobRunner(runtime) if runtime is not None else None
    for info in COMPONENTS:
        if wanted is not None and info.name not in wanted:
            continue
        stimulus, observe = specs[info.name]
        degraded = False
        copts = opts
        if reach_info is not None and stimulus:
            # Stamp the component's reach report onto the options the
            # job grades with; the job fingerprint is unchanged (the
            # screen never changes verdicts, so journaled records stay
            # reusable across the flag).
            rnetlist = info.builder()
            if netlist_transform is not None:
                rnetlist = netlist_transform(rnetlist)
            report = _component_reach(
                reach_info[0], reach_info[1], info, rnetlist
            )
            copts = opts.replace(
                reach=report if report is not None else False
            )
        elif opts.reach_requested:
            copts = opts.replace(reach=False)
        if runner is None:
            started = time.perf_counter()
            result, nand2 = _grading_job(
                info.name, stimulus, observe, netlist_transform, copts
            )
            elapsed = time.perf_counter() - started
        else:
            key = f"{self_test.phases}:{info.name}"
            fingerprint = _job_fingerprint(
                self_test, info, netlist_transform, copts
            )
            job_args = (info.name, stimulus, observe, netlist_transform,
                        copts)
            job = runner.run(
                key=key, fn=_grading_job, args=job_args,
                fingerprint=fingerprint, serialize=_result_to_record,
            )
            if job.status == "cached":
                try:
                    result, nand2 = _record_to_result(
                        job.record, info, netlist_transform
                    )
                    elapsed = float(job.record.get("elapsed", 0.0))
                except (CheckpointCorrupt, KeyError, TypeError):
                    # Journal disagrees with the current netlist (or the
                    # record is malformed): distrust it and re-grade from
                    # scratch, still resiliently.  The fresh result is
                    # appended under the same key and wins next resume.
                    runner.invalidate(key)
                    job = runner.run(
                        key=key, fn=_grading_job, args=job_args,
                        fingerprint=fingerprint, serialize=_result_to_record,
                    )
            if job.status != "cached":
                if job.failed:
                    result, nand2 = _ungraded_result(info, netlist_transform)
                    elapsed = 0.0
                    degraded = True
                else:
                    result, nand2 = job.value
                    elapsed = job.elapsed
        outcome.results[info.name] = result
        outcome.grading_seconds[info.name] = elapsed
        if degraded:
            outcome.degraded_components.append(info.name)
        if result.cache_hit:
            outcome.cached_components.append(info.name)
        outcome.summary.add(
            result.to_component_coverage(nand2, degraded=degraded)
        )
        if verbose:
            marker = " DEGRADED (lower bound)" if degraded else ""
            pruned = (
                f", {result.n_pruned} pruned" if result.pruned else ""
            )
            inferred = (
                f", {result.n_inferred} inferred" if result.n_inferred else ""
            )
            screened = (
                f", {result.n_reach_skipped} reach-screened"
                if result.n_reach_skipped else ""
            )
            cached = ", store hit" if result.cache_hit else ""
            print(
                f"  {info.name:6s} FC={result.fault_coverage:6.2f}% "
                f"({result.n_detected}/{result.n_faults} faults, "
                f"{len(stimulus)} stimulus entries, {elapsed:.1f}s"
                f"{pruned}{inferred}{screened}{cached}){marker}"
            )
    if runner is not None:
        outcome.events = runner.events.events
    return outcome


# --------------------------------------------------------- parallel path


def _grade_traced_parallel(
    outcome: CampaignOutcome,
    self_test: SelfTestProgram,
    specs: dict[str, tuple[Stimulus, ObserveSpec]],
    wanted: set[str] | None,
    verbose: bool,
    netlist_transform: NetlistTransform | None,
    runtime: RuntimeConfig,
    options: GradeOptions,
    reach_info: tuple[str, dict[str, list[Pattern]]] | None = None,
) -> None:
    """Shard every component's fault universe over a persistent pool.

    Determinism: stuck-at verdicts are per-fault properties, independent
    of which other faults are co-graded, so the merged outcome (detected
    sets, coverage percentages, Table 5) is bit-identical to the serial
    run regardless of worker count, shard boundaries or completion order.
    Resilience composes at shard granularity: each shard gets the
    runtime's timeout/retry budget, a worker crash degrades only the
    shards it was executing, and the journal records completed shards so
    ``--resume`` re-grades exactly the missing ones.

    Persistent store: with ``options.cache`` set, the parent checks each
    component's verdict record *before* planning its shards — a hit
    replays the whole component with zero shard tasks — and writes the
    merged record back after a clean (non-degraded) merge, so the next
    unchanged campaign re-simulates nothing.
    """
    from repro.core.sharded import (
        ShardContext,
        grade_shard,
        install_shard_context,
        merge_shard_results,
        record_to_verdict,
        shard_record,
    )
    from repro.faultsim.trace_cache import set_active_store
    from repro.runtime.pool import ShardScheduler
    from repro.runtime.sharding import ShardTask, plan_shards

    if not runtime.isolate:
        raise ReproRuntimeError(
            "parallel sharded grading requires worker isolation; "
            "jobs > 1 cannot be combined with isolate=False"
        )

    context = ShardContext(
        stimulus={name: spec[0] for name, spec in specs.items()},
        observe={name: spec[1] for name, spec in specs.items()},
        netlist_transform=netlist_transform,
        options=options,
    )
    # Install in the parent *before* the pool starts: fork-started
    # workers inherit the traces by memory; the initializer below covers
    # spawn-started (and replacement) workers.  The install activates
    # the persistent store globally, so restore the parent afterwards.
    previous_store = set_active_store(None)
    install_shard_context(context)
    store = options.store
    # Packed words carry ``lanes - 1`` fault classes; aligning shard
    # bounds keeps every word fully occupied (verdicts are identical
    # for any partition — this is purely a throughput knob).
    lane_align = (
        options.lanes - 1 if options.engine == "packed" else 1
    )

    try:
        # plan: (info, fault_list, nand2, n_patterns, comp_tasks,
        #        cached_result, store_key, reach_members)
        plan: list[tuple[
            ComponentInfo, FaultList, int, int, list[ShardTask],
            CampaignResult | None, str, tuple[int, ...],
        ]] = []
        tasks: list[ShardTask] = []
        for info in COMPONENTS:
            if wanted is not None and info.name not in wanted:
                continue
            netlist = info.builder()
            nand2 = gate_count(netlist).nand2
            if netlist_transform is not None:
                netlist = netlist_transform(netlist)
            fault_list = build_fault_list(netlist)
            stimulus, observe = specs[info.name]
            if not stimulus:
                # Never excited: all faults stay undetected.  Handled in
                # the parent — no grading work to shard.
                plan.append((info, fault_list, nand2, 0, [], None, "", ()))
                continue
            # Shard bounds index the universe the workers will grade:
            # base class representatives uncollapsed, super-class
            # simulation units collapsed.  The collapse hash goes into
            # the fingerprint so a resumed run never reuses shard bounds
            # from the other universe.
            universe_size = fault_list.n_collapsed
            chash = ""
            cmap: CollapseMap | None = None
            if options.collapse_requested:
                from repro.analysis.collapse import compute_collapse

                cmap = compute_collapse(netlist, fault_list)
                universe_size = len(cmap.simulation_order())
                chash = cmap.collapse_hash
            # Reach screen: drop proven-unexercised classes from the
            # sharded universe.  Workers recompute the identical
            # reduction from the context's report; the parent
            # synthesises the dropped classes' verdicts after the
            # merge.  The reach hash joins the shard fingerprint
            # because shard bounds then index the reduced universe.
            reach_members: tuple[int, ...] = ()
            rsuffix = ""
            if reach_info is not None:
                report = _component_reach(
                    reach_info[0], reach_info[1], info, netlist,
                    fault_list,
                )
                if report is not None and report.proven:
                    from repro.analysis.reach import reach_reduction

                    context.reach[info.name] = report
                    pskip, _ = prune_sets(
                        netlist, fault_list, options.prune_mode
                    )
                    rdrop = reach_reduction(
                        report, fault_list, cmap, pskip
                    )
                    if rdrop:
                        universe_size -= len(rdrop)
                        rsuffix = f":r{report.reach_hash}"
                        if cmap is None:
                            reach_members = tuple(sorted(rdrop))
                        else:
                            reach_members = tuple(
                                m
                                for s in sorted(rdrop)
                                for m in cmap.members(s)
                                if m not in pskip
                            )
            store_key = ""
            if store is not None:
                plan_obs = ObservePlan.from_spec(
                    observe, len(stimulus), netlist
                )
                store_key = verdict_key_for(
                    store, netlist, stimulus, plan_obs, fault_list,
                    prune_mode=options.prune_mode, collapse_hash=chash,
                )
                payload = store.load_verdicts(store_key)
                if payload is not None:
                    cached: CampaignResult | None
                    try:
                        if int(payload["n_classes"]) != fault_list.n_collapsed:
                            raise ValueError("universe size mismatch")
                        cached = result_from_payload(
                            payload, info.name, fault_list
                        )
                    except (KeyError, TypeError, ValueError):
                        cached = None  # malformed: re-grade from scratch
                    if cached is not None:
                        plan.append((
                            info, fault_list, nand2, len(stimulus), [],
                            cached, store_key, (),
                        ))
                        continue
            comp_tasks: list[ShardTask] = []
            if universe_size > 0:
                shards = plan_shards(
                    universe_size, runtime.jobs, lane_align=lane_align
                )
                base = _job_fingerprint(
                    self_test, info, netlist_transform, options
                )
                suffix = (f":c{chash}" if chash else "") + rsuffix
                n = len(shards)
                comp_tasks = [
                    ShardTask(
                        key=(
                            f"{self_test.phases}:{info.name}"
                            f"#{i + 1:02d}/{n:02d}"
                        ),
                        fn=grade_shard,
                        args=(info.name, lo, hi),
                        fingerprint=(
                            f"{base}:{lo}-{hi}/{universe_size}{suffix}"
                        ),
                        size=hi - lo,
                    )
                    for i, (lo, hi) in enumerate(shards)
                ]
            tasks.extend(comp_tasks)
            plan.append((
                info, fault_list, nand2, len(stimulus), comp_tasks,
                None, store_key, reach_members,
            ))

        scheduler = ShardScheduler(
            runtime, initializer=install_shard_context, initargs=(context,),
        )
        shard_outcomes = scheduler.run(tasks, serialize=shard_record)
    finally:
        set_active_store(previous_store)

    journal_path = getattr(scheduler.runner.checkpoint, "path", None)
    for (info, fault_list, nand2, n_patterns, comp_tasks, cached_result,
         store_key, reach_members) in plan:
        degraded = False
        elapsed = 0.0
        if cached_result is not None:
            result = cached_result
        else:
            verdicts: list[ShardVerdict] = []
            for task in comp_tasks:
                shard = shard_outcomes[task.key]
                if shard.status == "ok":
                    verdict = shard.value
                    elapsed += shard.elapsed
                elif shard.status == "cached":
                    try:
                        verdict = record_to_verdict(
                            shard.record, journal_path
                        )
                    except CheckpointCorrupt:
                        degraded = True
                        continue
                else:  # failed: attempts exhausted — this shard is lost
                    degraded = True
                    continue
                if verdict.n_classes != fault_list.n_collapsed:
                    # Stale journal that somehow passed the fingerprint
                    # guard: distrust the shard rather than abort.
                    degraded = True
                    continue
                verdicts.append(verdict)
            result = merge_shard_results(
                info.name, fault_list, n_patterns, verdicts
            )
            # Reach-screened classes were dropped from every shard;
            # synthesise the verdict any engine would report for an
            # unexercised fault so the merged record (and any stored
            # payload) matches a reach-off run field for field.
            for member in reach_members:
                result.detections[member] = Detection(
                    False, excited=False
                )
            result.n_reach_skipped = len(reach_members)
            if store is not None and store_key and not degraded:
                store.save_verdicts(store_key, verdicts_payload(result))
        outcome.results[info.name] = result
        outcome.grading_seconds[info.name] = elapsed
        if degraded:
            outcome.degraded_components.append(info.name)
        if result.cache_hit:
            outcome.cached_components.append(info.name)
        outcome.summary.add(
            result.to_component_coverage(nand2, degraded=degraded)
        )
        if verbose:
            marker = " DEGRADED (lower bound)" if degraded else ""
            pruned = f", {result.n_pruned} pruned" if result.pruned else ""
            inferred = (
                f", {result.n_inferred} inferred" if result.n_inferred else ""
            )
            screened = (
                f", {result.n_reach_skipped} reach-screened"
                if result.n_reach_skipped else ""
            )
            cached = ", store hit" if result.cache_hit else ""
            print(
                f"  {info.name:6s} FC={result.fault_coverage:6.2f}% "
                f"({result.n_detected}/{result.n_faults} faults, "
                f"{len(comp_tasks)} shards, {elapsed:.1f}s compute"
                f"{pruned}{inferred}{screened}{cached}){marker}"
            )
    outcome.events = scheduler.events.events


def grade_program(
    self_test: SelfTestProgram,
    components: list[str] | None = None,
    verbose: bool = False,
    netlist_transform: NetlistTransform | None = None,
    runtime: RuntimeConfig | None = None,
    options: GradeOptions | None = None,
) -> CampaignOutcome:
    """Execute any program on the traced CPU and fault-grade components.

    This is the shared back half of :func:`run_campaign`; the baselines
    (pseudorandom / Chen&Dey programs) are graded through it too, so every
    comparison uses identical machinery.

    Args:
        runtime: route the per-component jobs through the resilient
            :class:`~repro.runtime.JobRunner` (isolation, timeout, retry,
            checkpoint/resume, graceful degradation) or, with
            ``runtime.jobs > 1``, the sharded pool.  None keeps the
            historical serial in-process path.
        options: the :class:`GradeOptions` (see :func:`grade_traced`).
            Engine choice is *not* part of the checkpoint fingerprint:
            verdicts are engine-invariant, so a resumed campaign may
            freely switch engines and still reuse journaled results.
    """
    cpu_result, tracer, _memory = execute_self_test(self_test)
    specs = tracer.finalize()
    return grade_traced(
        self_test,
        cpu_result,
        specs,
        components=components,
        verbose=verbose,
        netlist_transform=netlist_transform,
        runtime=runtime,
        options=options,
    )


def run_campaign(
    phases: str = "A",
    components: list[str] | None = None,
    methodology: SelfTestMethodology | None = None,
    verbose: bool = False,
    netlist_transform: NetlistTransform | None = None,
    runtime: RuntimeConfig | None = None,
    options: GradeOptions | None = None,
) -> CampaignOutcome:
    """Full pipeline for one phase configuration.

    Args:
        phases: ``"A"``, ``"AB"`` or ``"ABC"``.
        components: short names to grade (default: all ten).  Components
            outside the subset are skipped entirely (useful for fast tests);
            the summary then only aggregates the graded subset.
        methodology: custom methodology instance (for ablations).
        verbose: print per-component progress with timings.
        runtime: resilient-runner and worker-count configuration (see
            :func:`grade_traced`); None = serial in-process grading.
        options: the :class:`GradeOptions` (engine, pruning, collapsing,
            reach screen, persistent cache, packed lanes); Table 4/5
            numbers are bit-identical under every engine, collapse and
            reach choice (see :func:`grade_traced`).

    Returns:
        The campaign outcome with Table 4/5 data attached.
    """
    methodology = methodology or SelfTestMethodology()
    self_test = methodology.build_program(phases)
    return grade_program(
        self_test,
        components=components,
        verbose=verbose,
        netlist_transform=netlist_transform,
        runtime=runtime,
        options=options,
    )

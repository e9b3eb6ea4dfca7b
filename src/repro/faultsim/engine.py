"""Fault-simulation engines behind one facade: :func:`grade`.

Three interchangeable engines grade a fault universe against a stimulus:

* ``differential`` — per-fault event-driven difference propagation against
  the recorded good trace (:mod:`repro.faultsim.differential`).  Excels
  when most faults drop quickly or never excite (sequential traces,
  shallow circuits).
* ``batch`` — the lane-parallel interpreter
  (:mod:`repro.faultsim.parallel`): a batch of faults rides the bit lanes
  of one full-circuit walk.  The slow-but-simple cross-check engine.
* ``compiled`` — lowers the netlist once to generated Python
  (:mod:`repro.faultsim.lowering`) and grades faults against the cached
  good trace with pattern-parallel single-fault propagation
  (combinational) or batched lanes with fault dropping and lane
  repacking (sequential).  The fast engine for deep combinational cones.

All engines implement the :class:`FaultSimEngine` protocol and are
registered by name; ``engine="auto"`` picks per netlist (the compiled
engine wins on deep combinational circuits; the differential engine wins
on sequential and very shallow ones, where per-fault early exits beat
batch-wide evaluation).

Detection verdicts — the ``detected`` flag, the ``excited`` flag and (for
sequential stimulus) the first detecting cycle — are engine-invariant and
cross-checked by the equivalence test-suite.  ``Detection.lanes`` is a
*partial witness* (at least one detecting lane), not an exhaustive lane
set: engines that short-circuit or drop faults may report fewer lanes.

Structural collapsing (``GradeOptions(collapse=...)``) adds one caveat: a
dominator verdict inferred from a detected child reuses the child's
detecting cycle, which is an *upper bound* on the dominator's own first
detecting cycle (the dominator machine provably differs at that cycle,
but may already differ earlier).  Combinational detections always report
cycle 0, so the bound is exact there; sequential campaigns must treat
the cycle of an inferred verdict like ``lanes`` — a valid witness, not a
minimum.  Detected flags, coverage and excitation stay exact either way
(DESIGN.md §13).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Protocol

from repro.errors import FaultSimError
from repro.faultsim.differential import Detection, DifferentialFaultSimulator
from repro.faultsim.faults import Fault, FaultKind, FaultList, build_fault_list
from repro.faultsim.harness import CampaignResult
from repro.faultsim.lowering import cached_compile_comb, cached_compile_seq
from repro.faultsim.observe import ObservePlan
from repro.faultsim.options import (
    GradeOptions,
    resolve_prune_mode,
)
from repro.faultsim.parallel import ParallelFaultSimulator, _eval
from repro.faultsim.simulator import GoodTrace
from repro.faultsim.store import (
    result_from_payload,
    verdict_key_for,
    verdicts_payload,
)
from repro.faultsim.trace_cache import good_trace_for, set_active_store
from repro.netlist.levelize import depth
from repro.netlist.netlist import CONST1, DFF, Gate, Netlist, PortDirection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see grade())
    from repro.analysis.collapse import CollapseMap

__all__ = [
    "AUTO_MIN_DEPTH",
    "BatchEngine",
    "CompiledEngine",
    "DifferentialEngine",
    "FaultSimEngine",
    "GradeOptions",
    "default_engine_name",
    "engine_names",
    "get_engine",
    "grade",
    "prune_sets",
    "register_engine",
    "resolve_prune_mode",
    "select_engine",
]

Stimulus = Sequence[Mapping[str, int]]

#: Prefetched per-fault record of the combinational chunk loop:
#: (rep, stuck, site, start, site_mask, reader, gate, pin).
_CombEntry = tuple[int, int, int, int, int, bool, Gate | None, int]


class FaultSimEngine(Protocol):
    """What every registered engine provides."""

    name: str

    def grade(
        self,
        netlist: Netlist,
        stimulus: Stimulus,
        fault_list: FaultList,
        plan: ObservePlan,
        *,
        name: str = "",
        skip: frozenset[int] = frozenset(),
        only: Sequence[int] | None = None,
    ) -> CampaignResult:
        """Grade every collapsed fault class not in ``skip``.

        ``stimulus`` is a non-empty pattern set (combinational netlist —
        unordered, engines may pack or reorder) or cycle sequence
        (sequential netlist — applied in order from reset).

        ``only`` restricts grading to the listed class representatives
        (a *shard* of the universe); verdicts for graded faults are
        identical to a full-universe run — stuck-at detection is a
        per-fault property of the good trace, so sharding cannot change
        it (DESIGN.md §11).
        """
        ...  # pragma: no cover - protocol


# ------------------------------------------------------------------ shared


def _graded_reps(
    fault_list: FaultList,
    skip: frozenset[int],
    only: Sequence[int] | None = None,
) -> list[int]:
    reps = fault_list.class_representatives()
    if only is not None:
        wanted = set(only)
        reps = [r for r in reps if r in wanted]
    return [r for r in reps if r not in skip]


def _output_nets(netlist: Netlist) -> tuple[int, ...]:
    return tuple(
        net
        for p in netlist.ports.values()
        if p.direction is PortDirection.OUTPUT
        for net in p.nets
    )


def _excited_packed(fault: Fault, trace: GoodTrace) -> bool:
    forced = trace.lanes.mask if fault.stuck else 0
    return trace.values[0][fault.net] != forced


def _excited_sequence(fault: Fault, trace: GoodTrace) -> bool:
    site, forced = fault.net, fault.stuck
    return any(values[site] != forced for values in trace.values)


def _excited(fault: Fault, trace: GoodTrace, packed: bool) -> bool:
    """Differential-equivalent excitation: did the good machine ever put
    the opposite value on the fault site?  A pure good-trace property, so
    every engine reports the identical flag."""
    if packed:
        return _excited_packed(fault, trace)
    return _excited_sequence(fault, trace)


# ------------------------------------------------------------- differential


class DifferentialEngine:
    """Per-fault event-driven grading (the historical campaign engine)."""

    name = "differential"

    def grade(
        self,
        netlist: Netlist,
        stimulus: Stimulus,
        fault_list: FaultList,
        plan: ObservePlan,
        *,
        name: str = "",
        skip: frozenset[int] = frozenset(),
        only: Sequence[int] | None = None,
    ) -> CampaignResult:
        packed = not netlist.dffs
        trace = good_trace_for(netlist, stimulus, packed=packed)
        sim = DifferentialFaultSimulator(netlist)
        if plan.observes_everything:
            observe_nets = None
        elif packed:
            observe_nets = [plan.packed_net_masks(netlist)]
        else:
            observe_nets = plan.net_masks(netlist, trace.lanes.mask)
        result = CampaignResult(
            name or netlist.name, fault_list,
            n_patterns=len(stimulus), pruned=set(skip),
        )
        for rep in _graded_reps(fault_list, skip, only):
            detection = sim.simulate_fault(
                fault_list.fault(rep), trace, observe_nets
            )
            result.detections[rep] = detection
            if detection.detected:
                result.detected.add(rep)
        return result


# -------------------------------------------------------------------- batch


class BatchEngine:
    """Lane-parallel interpreted grading (cross-check engine).

    Detection comes from :meth:`ParallelFaultSimulator.run_batch` (lane 0
    carries the good machine); the ``excited`` flag is derived afterwards
    from the cached good trace so the verdict record matches the other
    engines field by field.
    """

    name = "batch"

    def __init__(self, batch_size: int = 255):
        self.batch_size = batch_size

    def grade(
        self,
        netlist: Netlist,
        stimulus: Stimulus,
        fault_list: FaultList,
        plan: ObservePlan,
        *,
        name: str = "",
        skip: frozenset[int] = frozenset(),
        only: Sequence[int] | None = None,
    ) -> CampaignResult:
        sim = ParallelFaultSimulator(netlist, batch_size=self.batch_size)
        observe_lists = plan.port_name_lists()
        result = CampaignResult(
            name or netlist.name, fault_list,
            n_patterns=len(stimulus), pruned=set(skip),
        )
        reps = _graded_reps(fault_list, skip, only)
        for start in range(0, len(reps), self.batch_size):
            chunk = reps[start : start + self.batch_size]
            faults = [fault_list.fault(r) for r in chunk]
            for rep, detection in zip(
                chunk, sim.run_batch(faults, stimulus, observe_lists),
                strict=True,
            ):
                result.detections[rep] = detection
                if detection.detected:
                    result.detected.add(rep)
        # Fill the excitation flag from the (cached) good trace; the
        # interpreted batch pass itself never tracks it.
        packed = not netlist.dffs
        trace = good_trace_for(netlist, stimulus, packed=packed)
        for rep, detection in result.detections.items():
            excited = detection.detected or _excited(
                fault_list.fault(rep), trace, packed
            )
            if excited != detection.excited:
                result.detections[rep] = dataclasses.replace(
                    detection, excited=excited
                )
        return result


# ----------------------------------------------------------------- compiled


#: "auto" prefers the compiled engine only on combinational circuits at
#: least this deep: below it (wide, shallow mux trees) recomputing the
#: whole cone per fault loses to the differential engine's early exits.
AUTO_MIN_DEPTH = 6

#: Combinational chunk schedule: a narrow first chunk detects the easy
#: ~90% of faults cheaply (faults drop out of later chunks), then widths
#: grow geometrically so stubborn faults see many patterns per pass.
CHUNK_SCHEDULE = (256, 1024, 4096)


def _chunk_spans(n_lanes: int) -> Iterable[tuple[int, int]]:
    base = 0
    first, second, rest = CHUNK_SCHEDULE
    for width in (first, second):
        if base >= n_lanes:
            return
        width = min(width, n_lanes - base)
        yield base, width
        base += width
    while base < n_lanes:
        width = min(rest, n_lanes - base)
        yield base, width
        base += width


class CompiledEngine:
    """Grading through generated code and the good-trace cache.

    Combinational: pattern-parallel single-fault propagation — the good
    values are mutated in place at the fault site and one generated
    function re-evaluates only levels at or above it, returning the fused
    detection word.  Faults drop out of later (wider) chunks once
    detected.

    Sequential: batches of faults ride bit lanes through per-level
    generated kernels with injection applied between levels; detected
    faults leave the live-lane mask immediately (fault dropping), and the
    batch is repacked onto fewer lanes when occupancy falls below
    ``repack_threshold`` (smaller lane words make every big-int op
    cheaper); an emptied batch exits the cycle walk early.
    """

    name = "compiled"

    def __init__(
        self,
        batch_size: int = 256,
        repack_threshold: float = 0.5,
        min_repack_drop: int = 8,
    ):
        if batch_size < 1:
            raise FaultSimError("batch size must be positive")
        if not 0.0 <= repack_threshold <= 1.0:
            raise FaultSimError("repack threshold must be within [0, 1]")
        self.batch_size = batch_size
        self.repack_threshold = repack_threshold
        self.min_repack_drop = min_repack_drop

    def grade(
        self,
        netlist: Netlist,
        stimulus: Stimulus,
        fault_list: FaultList,
        plan: ObservePlan,
        *,
        name: str = "",
        skip: frozenset[int] = frozenset(),
        only: Sequence[int] | None = None,
    ) -> CampaignResult:
        result = CampaignResult(
            name or netlist.name, fault_list,
            n_patterns=len(stimulus), pruned=set(skip),
        )
        if netlist.dffs:
            self._grade_sequential(
                netlist, stimulus, fault_list, plan, result, skip, only
            )
        else:
            self._grade_combinational(
                netlist, stimulus, fault_list, plan, result, skip, only
            )
        return result

    # ---------------------------------------------------- combinational

    def _grade_combinational(
        self,
        netlist: Netlist,
        patterns: Stimulus,
        fault_list: FaultList,
        plan: ObservePlan,
        result: CampaignResult,
        skip: frozenset[int],
        only: Sequence[int] | None = None,
    ) -> None:
        trace = good_trace_for(netlist, patterns, packed=True)
        good = trace.values[0]
        full_mask = trace.lanes.mask

        obs = plan.packed_net_masks(netlist)
        if obs is None:
            obs = {net: full_mask for net in _output_nets(netlist)}
        prog = cached_compile_comb(netlist, obs)
        fn = prog.fn
        driven_at = prog.driven_at
        gate_level = prog.gate_level
        has_reader = prog.has_reader
        obs_net_masks = prog.obs_net_masks
        gates = netlist.gates
        detections = result.detections
        detected = result.detected

        # Full-width excitation screen: a site the stimulus never drives
        # to the opposite value can never be detected (O(1) per fault).
        # Survivors are prefetched into flat tuples so the chunk loop does
        # no attribute or dict lookups per fault:
        # (rep, stuck, site, start, site_mask, reader, gate, pin).
        pending: list[_CombEntry] = []
        for rep in _graded_reps(fault_list, skip, only):
            fault = fault_list.fault(rep)
            if good[fault.net] == (full_mask if fault.stuck else 0):
                detections[rep] = Detection(False, excited=False)
                continue
            if fault.kind is FaultKind.STEM:
                site = fault.net
                start = driven_at.get(site, 0) + 1
                gate: Gate | None = None
                pin = 0
            else:  # BRANCH (combinational netlists have no DFF_D)
                gate = gates[fault.gate]
                site = gate.output
                start = gate_level[gate.index] + 1
                pin = fault.pin
            pending.append((
                rep, fault.stuck, site, start,
                obs_net_masks.get(site, 0), site in has_reader, gate, pin,
            ))

        for base, width in _chunk_spans(trace.lanes.count):
            if not pending:
                break
            chunk_mask = (1 << width) - 1
            gc = [(word >> base) & chunk_mask for word in good]
            om = tuple((m >> base) & chunk_mask for m in prog.masks)
            still: list[_CombEntry] = []
            for entry in pending:
                rep, stuck, site, start, site_mask, reader, gate, pin = entry
                forced = chunk_mask if stuck else 0
                old = gc[site]
                if gate is None:
                    if old == forced:
                        still.append(entry)
                        continue
                    new = forced
                else:
                    vals = [gc[n] for n in gate.inputs]
                    vals[pin] = forced
                    new = _eval(gate.gtype, vals, chunk_mask)
                    if new == old:
                        still.append(entry)
                        continue
                det = (new ^ old) & (site_mask >> base) & chunk_mask
                if not det and reader:
                    # Direct observation already proves detection when det
                    # is non-zero (lanes are a partial witness), so the
                    # downstream cone only needs evaluating when it is not.
                    gc[site] = new
                    det = fn(gc, chunk_mask, om, start)
                    gc[site] = old
                if det:
                    detections[rep] = Detection(True, 0, det << base,
                                                excited=True)
                    detected.add(rep)
                else:
                    still.append(entry)
            pending = still

        for entry in pending:
            # Survived every chunk despite being excited somewhere.
            detections[entry[0]] = Detection(False, excited=True)

    # -------------------------------------------------------- sequential

    def _grade_sequential(
        self,
        netlist: Netlist,
        cycles: Stimulus,
        fault_list: FaultList,
        plan: ObservePlan,
        result: CampaignResult,
        skip: frozenset[int],
        only: Sequence[int] | None = None,
    ) -> None:
        trace = good_trace_for(netlist, cycles, packed=False)
        good_values = trace.values
        dffs = netlist.dffs
        n_nets = netlist.n_nets

        all_obs = _output_nets(netlist)
        if plan.observes_everything:
            obs_per_cycle = None
        else:
            obs_per_cycle = [
                tuple(nets)
                for nets in plan.net_masks(netlist, 1)
            ]
        roots = set(all_obs if obs_per_cycle is None else
                    (n for nets in obs_per_cycle for n in nets))
        roots.update(d.d for d in dffs)
        prog = cached_compile_seq(netlist, sorted(roots))
        level_fns = prog.level_fns
        driven_at = prog.driven_at
        gate_level = prog.gate_level
        keep = prog.keep
        max_level = prog.max_level
        gates = netlist.gates

        input_ports = [
            (p.name, p.nets)
            for p in netlist.ports.values()
            if p.direction is PortDirection.INPUT
        ]
        detections = result.detections
        detected = result.detected

        reps = _graded_reps(fault_list, skip, only)
        for start in range(0, len(reps), self.batch_size):
            batch = reps[start : start + self.batch_size]
            self._run_seq_batch(
                batch, fault_list, cycles, good_values, dffs, n_nets,
                input_ports, level_fns, driven_at, gate_level, keep,
                max_level, gates, obs_per_cycle, all_obs,
                detections, detected,
            )
        for rep in reps:
            if rep not in detected:
                excited = _excited_sequence(fault_list.fault(rep), trace)
                detections[rep] = Detection(False, excited=excited)

    def _run_seq_batch(
        self,
        batch: Sequence[int],
        fault_list: FaultList,
        cycles: Stimulus,
        good_values: list[list[int]],
        dffs: Sequence[DFF],
        n_nets: int,
        input_ports: list[tuple[str, tuple[int, ...]]],
        level_fns: Sequence[Callable[[list[int], int], None]],
        driven_at: Mapping[int, int],
        gate_level: Mapping[int, int],
        keep: frozenset[int],
        max_level: int,
        gates: Sequence[Gate],
        obs_per_cycle: list[tuple[int, ...]] | None,
        all_obs: tuple[int, ...],
        detections: dict[int, Detection],
        detected: set[int],
    ) -> None:
        n_lanes = len(batch)
        mask = (1 << n_lanes) - 1
        lane_reps = list(batch)

        # Injection tables, grouped by the level after which they apply.
        net_fix: dict[int, dict[int, list[int]]] = {}  # level -> net -> [set, clear]
        pin_fix: dict[int, dict[int, dict[int, list[int]]]] = {}  # level -> gate -> pin -> [s, c]
        dff_fix: dict[int, list[int]] = {}  # dff index -> [set, clear]
        for lane, rep in enumerate(lane_reps):
            fault = fault_list.fault(rep)
            bit = 1 << lane
            slot = 0 if fault.stuck else 1
            if fault.kind is FaultKind.STEM:
                level = driven_at.get(fault.net, 0)
                entry = net_fix.setdefault(level, {}).setdefault(
                    fault.net, [0, 0]
                )
                entry[slot] |= bit
            elif fault.kind is FaultKind.BRANCH:
                if fault.gate not in keep:
                    continue  # unobservable cone: cannot be detected
                level = gate_level[fault.gate]
                entry = (
                    pin_fix.setdefault(level, {})
                    .setdefault(fault.gate, {})
                    .setdefault(fault.pin, [0, 0])
                )
                entry[slot] |= bit
            else:  # DFF_D
                entry = dff_fix.setdefault(fault.gate, [0, 0])
                entry[slot] |= bit

        state = [mask if d.init else 0 for d in dffs]
        live = mask
        alive = n_lanes

        for t, cycle in enumerate(cycles):
            values = [0] * n_nets
            values[CONST1] = mask
            for port_name, nets in input_ports:
                word = cycle.get(port_name, 0)
                for j, net in enumerate(nets):
                    values[net] = mask if (word >> j) & 1 else 0
            for dff, q_word in zip(dffs, state, strict=True):
                values[dff.q] = q_word

            source_fix = net_fix.get(0)
            if source_fix:
                for net, (f_set, f_clear) in source_fix.items():
                    values[net] = (values[net] & ~f_clear) | f_set

            for level in range(1, max_level + 1):
                level_fns[level](values, mask)
                gate_fixes = pin_fix.get(level)
                if gate_fixes:
                    for gate_index, pins in gate_fixes.items():
                        gate = gates[gate_index]
                        vals = [values[n] for n in gate.inputs]
                        for pin, (f_set, f_clear) in pins.items():
                            vals[pin] = (vals[pin] & ~f_clear) | f_set
                        values[gate.output] = _eval(gate.gtype, vals, mask)
                fixes = net_fix.get(level)
                if fixes:
                    for net, (f_set, f_clear) in fixes.items():
                        values[net] = (values[net] & ~f_clear) | f_set

            good = good_values[t]
            obs_nets = all_obs if obs_per_cycle is None else obs_per_cycle[t]
            diff = 0
            for net in obs_nets:
                diff |= (values[net] ^ (mask if good[net] else 0)) & live
                if diff == live:
                    break
            if diff:
                bits = diff
                while bits:
                    bit = bits & -bits
                    bits ^= bit
                    rep = lane_reps[bit.bit_length() - 1]
                    detections[rep] = Detection(True, t, bit, excited=True)
                    detected.add(rep)
                live &= ~diff
                alive = bin(live).count("1")
                if not live:
                    return  # whole batch detected: drop out early

            new_state = [values[d.d] for d in dffs]
            for dff_index, (f_set, f_clear) in dff_fix.items():
                new_state[dff_index] = (
                    (new_state[dff_index] & ~f_clear) | f_set
                )
            state = new_state

            if (
                alive <= n_lanes * self.repack_threshold
                and n_lanes - alive >= self.min_repack_drop
            ):
                survivors = [
                    lane for lane in range(n_lanes) if (live >> lane) & 1
                ]
                repack = _repack_word(survivors)
                state = [repack(w) for w in state]
                for fixes in net_fix.values():
                    for entry in fixes.values():
                        entry[0] = repack(entry[0])
                        entry[1] = repack(entry[1])
                for gate_fixes in pin_fix.values():
                    for pins in gate_fixes.values():
                        for entry in pins.values():
                            entry[0] = repack(entry[0])
                            entry[1] = repack(entry[1])
                for entry in dff_fix.values():
                    entry[0] = repack(entry[0])
                    entry[1] = repack(entry[1])
                lane_reps = [lane_reps[lane] for lane in survivors]
                n_lanes = len(survivors)
                mask = (1 << n_lanes) - 1
                live = mask
                alive = n_lanes


def _repack_word(survivors: list[int]) -> Callable[[int], int]:
    """Compaction closure: move surviving lanes down to a dense prefix."""

    def repack(word: int) -> int:
        out = 0
        for new_lane, old_lane in enumerate(survivors):
            out |= ((word >> old_lane) & 1) << new_lane
        return out

    return repack


# ------------------------------------------------------------ prune modes
#
# ``resolve_prune_mode`` moved to :mod:`repro.faultsim.options` (the
# options object validates prune modes at construction); it is re-exported
# here for existing importers.


def prune_sets(
    netlist: Netlist, fault_list: FaultList, mode: str
) -> tuple[frozenset[int], frozenset[int]]:
    """The ``(skip, proven)`` sets for a normalised prune mode.

    ``skip`` is what the engines do not simulate (the SCOAP structural
    screen); ``proven`` is the SAT-certified-redundant subset excluded
    from coverage denominators (empty unless ``mode == "proven"``).
    """
    if not mode:
        return frozenset(), frozenset()
    # Local imports: repro.analysis.scoap imports this package's fault
    # model and repro.formal sits above both, so the dependencies must
    # stay one-way at load time.
    from repro.analysis.scoap import compute_scoap, untestable_fault_classes

    analysis = compute_scoap(netlist)
    skip = frozenset(untestable_fault_classes(fault_list, analysis))
    if mode != "proven":
        return skip, frozenset()
    from repro.formal.redundancy import prove_untestable

    screen = prove_untestable(
        netlist, fault_list, candidates=skip, analysis=analysis
    )
    return skip, screen.proven


# ----------------------------------------------------------------- registry

_REGISTRY: dict[str, Callable[[], FaultSimEngine]] = {}


def register_engine(name: str, factory: Callable[[], FaultSimEngine]) -> None:
    """Register an engine class under ``name`` (instantiated per grade)."""
    _REGISTRY[name] = factory


def engine_names() -> tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_REGISTRY)


def get_engine(name: str) -> FaultSimEngine:
    """Instantiate the engine registered under ``name``."""
    factory = _REGISTRY.get(name)
    if factory is None:
        known = ", ".join(sorted({*_REGISTRY, "auto"}))
        raise FaultSimError(f"unknown engine {name!r} (choose from {known})")
    return factory()


def _packed_factory() -> FaultSimEngine:
    # Local import: the packed engine reuses this module's helpers, so
    # it can only load once the module body has finished executing.
    from repro.faultsim.packed import PackedEngine

    return PackedEngine()


register_engine("differential", DifferentialEngine)
register_engine("batch", BatchEngine)
register_engine("compiled", CompiledEngine)
register_engine("packed", _packed_factory)


def default_engine_name(netlist: Netlist) -> str:
    """The engine ``"auto"`` resolves to for one netlist.

    Sequential circuits and very shallow combinational ones go to the
    differential engine (per-fault early exits dominate); deep
    combinational cones go to the compiled engine.
    """
    if netlist.dffs or depth(netlist) < AUTO_MIN_DEPTH:
        return "differential"
    return "compiled"


# --------------------------------------------------------------- collapsing


def _grade_collapsed(
    selected: FaultSimEngine,
    netlist: Netlist,
    stimulus: Stimulus,
    fault_list: FaultList,
    plan: ObservePlan,
    cmap: CollapseMap,
    *,
    name: str = "",
    skip: frozenset[int] = frozenset(),
    supers: Sequence[int] | None = None,
    restrict: frozenset[int] | None = None,
) -> CampaignResult:
    """Grade super-class representatives only, then expand verdicts.

    Two engine passes at most:

    1. every non-dominator super-class simulates its *sim unit* — the
       first canonical-order member not in ``skip`` (a per-super choice,
       independent of sharding, so partitioned runs agree);
    2. dominators are walked children-before-parents: a detected child
       lets the dominator *infer* a detection (same cycle/lanes witness,
       see the module docstring caveat); dominators whose children are
       all undetected — or graded elsewhere (cross-shard) — fall into
       one second engine pass.

    Every engine verdict is then copied onto the super's members:
    detected verdicts verbatim (equivalent machines differ identically),
    undetected ones with the member's own good-trace excitation flag so
    the record is field-for-field what an uncollapsed run reports.

    ``supers`` restricts grading to the listed super-class keys (a shard
    of ``cmap.simulation_order()``); ``restrict`` additionally limits
    *expanded* verdicts to the listed class representatives (the
    ``GradeOptions(subset=...)`` contract).
    """
    ordered = list(supers) if supers is not None else cmap.simulation_order()
    unit_of: dict[int, int] = {}
    for s in ordered:
        for member in cmap.members(s):
            if member not in skip:
                unit_of[s] = member
                break
    graded = [s for s in ordered if s in unit_of]

    verdicts: dict[int, Detection] = {}
    n_simulated = 0

    def simulate(batch: list[int]) -> None:
        nonlocal n_simulated
        if not batch:
            return
        units = [unit_of[s] for s in batch]
        partial = selected.grade(
            netlist, stimulus, fault_list, plan,
            name=name or netlist.name, skip=skip, only=units,
        )
        for s, unit in zip(batch, units, strict=True):
            verdicts[s] = partial.detections[unit]
        n_simulated += len(units)

    simulate([s for s in graded if not cmap.is_dominator(s)])

    n_inferred = 0
    pending: list[int] = []
    graded_set = set(graded)
    for dom in cmap.dominator_order():
        if dom not in graded_set:
            continue
        inferred = None
        for child in cmap.children[dom]:
            child_verdict = verdicts.get(child)
            if child_verdict is not None and child_verdict.detected:
                inferred = Detection(
                    True, child_verdict.cycle, child_verdict.lanes,
                    excited=True,
                )
                break
        if inferred is None:
            # All children undetected, skipped, or graded in another
            # shard: simulate the dominator itself (exact, conservative).
            pending.append(dom)
        else:
            verdicts[dom] = inferred
            n_inferred += 1
    simulate(pending)

    result = CampaignResult(
        name or netlist.name, fault_list,
        n_patterns=len(stimulus), pruned=set(skip),
    )
    packed = not netlist.dffs
    trace = good_trace_for(netlist, stimulus, packed=packed)
    for s in graded:
        verdict = verdicts[s]
        unit = unit_of[s]
        for member in cmap.members(s):
            if member in skip:
                continue
            if restrict is not None and member not in restrict:
                continue
            if verdict.detected or member == unit:
                result.detections[member] = verdict
            else:
                result.detections[member] = Detection(
                    False,
                    excited=_excited(fault_list.fault(member), trace, packed),
                )
            if verdict.detected:
                result.detected.add(member)
    result.n_simulated = n_simulated
    result.n_inferred = n_inferred
    result.collapse_hash = cmap.collapse_hash
    return result


# ------------------------------------------------------------------- facade


def select_engine(netlist: Netlist, options: GradeOptions) -> FaultSimEngine:
    """The configured engine ``options.engine`` names for ``netlist``.

    ``"auto"`` resolves through :func:`default_engine_name`; engines with
    per-grade settings (the packed engine's lane width) are configured
    from ``options``.
    """
    spec = options.engine
    if spec == "auto":
        spec = default_engine_name(netlist)
    selected = get_engine(spec)
    configure = getattr(selected, "configure", None)
    if configure is not None:
        configure(options)
    return selected


def grade(
    netlist: Netlist,
    stimulus: Stimulus,
    faults: FaultList | None = None,
    options: GradeOptions | None = None,
) -> CampaignResult:
    """Grade a fault universe against a stimulus — the one entry point.

    Canonical call::

        grade(netlist, stimulus, faults, GradeOptions(engine="packed"))

    Every grading knob lives on :class:`GradeOptions` (see its field
    docs).

    Args:
        netlist: the circuit.  DFF-free netlists take ``stimulus`` as an
            unordered pattern set; sequential ones as an in-order cycle
            sequence applied from reset.
        stimulus: per entry, ``{input port: value}``.
        faults: the fault universe (default: build and collapse it).
        options: the validated grading options (engine selection,
            observability, pruning, subsetting, collapsing, persistent
            caching, packed-lane width); ``None`` means the defaults.

    Returns:
        The campaign result; verdicts are engine-invariant.  When
        ``options.cache`` is set and the store holds a record for this
        exact (netlist, stimulus, observability, prune mode, collapse)
        fingerprint, the result is replayed from disk with
        ``cache_hit=True`` and zero simulated classes.
    """
    opts = options if options is not None else GradeOptions()
    if opts.reach is True:
        raise FaultSimError(
            "grade() has no program to analyze; reach=True is a "
            "campaign-level request — pass a precomputed ReachReport "
            "(repro.analysis.reach.build_reach_report) instead"
        )

    combinational = not netlist.dffs
    if not stimulus:
        raise FaultSimError(
            "no patterns to apply" if combinational else "no cycles to apply"
        )
    cmap = opts.collapse_map
    if cmap is not None:
        if faults is not None and cmap.fault_list is not faults:
            raise FaultSimError(
                "collapse map was computed over a different fault list; "
                "pass the map's own fault_list (or neither)"
            )
        fault_list = cmap.fault_list
    else:
        fault_list = (
            faults if faults is not None else build_fault_list(netlist)
        )
        if opts.collapse is True:
            # Local import: repro.analysis.collapse imports this
            # package's fault model, so the dependency stays one-way.
            from repro.analysis.collapse import compute_collapse

            cmap = compute_collapse(netlist, fault_list)
    plan = ObservePlan.from_spec(opts.observe, len(stimulus), netlist)
    label = opts.name or netlist.name
    selected = select_engine(netlist, opts)
    mode = opts.prune_mode

    # Persistent store: activate it for good-trace sharing either way,
    # and replay the whole verdict record when this exact grade (same
    # structure, stimulus, observability, pruning, collapse universe)
    # already ran.  Subset grades are shard-local and never stored —
    # the campaign layer caches the merged full-universe result instead.
    store = opts.store
    previous_store = set_active_store(store) if store is not None else None
    try:
        store_key = ""
        if store is not None and opts.subset is None:
            store_key = verdict_key_for(
                store, netlist, stimulus, plan, fault_list,
                prune_mode=mode,
                collapse_hash=cmap.collapse_hash if cmap is not None else "",
            )
            payload = store.load_verdicts(store_key)
            if payload is not None:
                try:
                    if int(payload["n_classes"]) == fault_list.n_collapsed:  # type: ignore[arg-type]
                        return result_from_payload(
                            payload, label, fault_list
                        )
                except (KeyError, TypeError, ValueError):
                    pass  # malformed record: fall through and re-grade

        skip, proven = prune_sets(netlist, fault_list, mode)

        # Program-aware reach screen: classes the static screen proved
        # unexercised never diverge from the good machine, so their
        # simulation is skipped and the verdict every engine would
        # report — Detection(False, excited=False) — is synthesised.
        # Verdicts stay bit-identical to a reach-off run by construction
        # (DESIGN.md §15); only the workload accounting changes.
        reach = opts.reach_report
        rdrop: frozenset[int] = frozenset()
        if reach is not None:
            # Local import: repro.analysis.reach imports this package's
            # fault model, so the dependency stays one-way.
            from repro.analysis.reach import reach_reduction

            reach.validate_for(netlist, fault_list)
            rdrop = reach_reduction(reach, fault_list, cmap, skip)
        n_reach_skipped = 0

        if cmap is not None:
            supers: Sequence[int] | None = None
            restrict: frozenset[int] | None = None
            if opts.subset is not None:
                restrict = frozenset(opts.subset)
                wanted = {
                    cmap.super_of[r] for r in restrict if r in cmap.super_of
                }
                supers = [s for s in cmap.simulation_order() if s in wanted]
            if rdrop:
                supers = [
                    s
                    for s in (
                        supers if supers is not None
                        else cmap.simulation_order()
                    )
                    if s not in rdrop
                ]
            result = _grade_collapsed(
                selected, netlist, stimulus, fault_list, plan, cmap,
                name=label, skip=skip, supers=supers, restrict=restrict,
            )
            for s in sorted(rdrop):
                for member in cmap.members(s):
                    if member in skip:
                        continue
                    if restrict is not None and member not in restrict:
                        continue
                    result.detections[member] = Detection(
                        False, excited=False
                    )
                    n_reach_skipped += 1
        else:
            result = selected.grade(
                netlist, stimulus, fault_list, plan,
                name=label, skip=skip | rdrop, only=opts.subset,
            )
            result.pruned = set(skip)
            result.n_simulated = len(
                _graded_reps(fault_list, skip | rdrop, opts.subset)
            )
            only = (
                None if opts.subset is None else frozenset(opts.subset)
            )
            for rep in sorted(rdrop):
                if only is not None and rep not in only:
                    continue
                result.detections[rep] = Detection(False, excited=False)
                n_reach_skipped += 1
        result.n_reach_skipped = n_reach_skipped
        result.proven = set(proven)
        if store is not None and store_key:
            store.save_verdicts(store_key, verdicts_payload(result))
        return result
    finally:
        if store is not None:
            set_active_store(previous_store)

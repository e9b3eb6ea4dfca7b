"""Flat whole-processor fault grading on the composed gate-level core.

This is the paper's own fault-grading setup: the complete processor
netlist executes the self-test program inside the fault simulator, and a
fault counts as detected when any *primary output* — the memory bus — ever
differs from the good machine (the tester snoops the bus and compares the
response stream, Figure 1).

Mechanically: a good gate-level run records the per-cycle primary inputs
(the instruction and data words the memories returned); the recorded
sequence is then graded by the lowered fault-parallel engine
(:class:`~repro.faultsim.packed.PackedEngine`, its sequential cycle walk
with the good machine in lane 0) with every bus output observed on every
cycle.  Replaying recorded inputs is sound for detection because any
divergence a fault could cause in the fetch/data streams must first
appear on the observed bus outputs themselves.

Grading all ~39k collapsed faults of the full core this way costs close
to an hour in pure Python, so :func:`flat_campaign` supports *sampling*:
a uniform random subset of fault classes gives an unbiased coverage
estimate with a quantifiable confidence interval — enough to validate the
hierarchical Table 5 number.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import WatchdogTimeout
from repro.faultsim.faults import FaultList, build_fault_list
from repro.faultsim.observe import ObservePlan
from repro.faultsim.packed import PackedEngine
from repro.isa.program import Program
from repro.netlist.netlist import Netlist
from repro.plasma.cosim import GateLevelPlasma
from repro.plasma.toplevel import build_plasma_top

#: Primary outputs the tester observes (the memory bus; debug pins are
#: not real pins and are excluded).
OBSERVED_OUTPUTS: tuple[str, ...] = (
    "imem_addr", "mem_addr", "mem_wdata", "byte_en", "mem_we",
)


@dataclass
class FlatResult:
    """Outcome of a (possibly sampled) flat campaign."""

    n_faults_total: int
    n_sampled: int
    n_detected: int
    cycles: int

    @property
    def coverage(self) -> float:
        """Estimated fault coverage in percent."""
        if self.n_sampled == 0:
            return 0.0
        return 100.0 * self.n_detected / self.n_sampled

    @property
    def confidence_95(self) -> float:
        """Half-width of the 95% CI on the coverage estimate (percent)."""
        if self.n_sampled == 0:
            return 100.0
        p = self.n_detected / self.n_sampled
        half = 1.96 * math.sqrt(max(p * (1 - p), 1e-9) / self.n_sampled)
        # Finite-population correction for sampling without replacement
        # (zero when the whole population was graded).
        if self.n_faults_total > 1:
            half *= math.sqrt(
                (self.n_faults_total - self.n_sampled)
                / (self.n_faults_total - 1)
            )
        return 100.0 * half


def record_good_run(
    program: Program, netlist: Netlist, max_cycles: int = 60_000
) -> list[dict[str, int]]:
    """Execute the program on gates, recording per-cycle primary inputs.

    Raises:
        WatchdogTimeout: the good run did not reach the halt loop within
            ``max_cycles``.
    """
    gate = GateLevelPlasma(netlist)
    gate.load_program(program)
    inputs: list[dict[str, int]] = []

    original_step = gate.step

    def recording_step():
        pc = gate._value_from_state(gate._pc_dffs)
        bus_addr = gate._value_from_state(gate._addr_dffs)
        inputs.append(
            {
                "imem_data": gate.read_ram(pc),
                "mem_rdata": gate.read_ram(bus_addr),
                "irq": 0,
            }
        )
        return original_step()

    gate.step = recording_step  # type: ignore[method-assign]
    result = gate.run(max_cycles=max_cycles)
    if not result.halted:
        raise WatchdogTimeout(
            f"good gate-level run did not halt within {max_cycles} cycles"
        )
    return inputs


def flat_campaign(
    program: Program,
    netlist: Netlist | None = None,
    sample: int | None = 1000,
    seed: int = 2003,
    fault_list: FaultList | None = None,
) -> FlatResult:
    """Fault-grade the full processor executing ``program``.

    Args:
        program: assembled program (typically the self-test).
        netlist: composed processor (built fresh when omitted).
        sample: number of collapsed fault classes to grade (None = all).
        seed: sampling seed.
        fault_list: the core's fault universe (built when omitted).

    Returns:
        The (sampled) flat coverage estimate.
    """
    netlist = netlist if netlist is not None else build_plasma_top()
    cycle_inputs = record_good_run(program, netlist)
    observe = [OBSERVED_OUTPUTS] * len(cycle_inputs)

    if fault_list is None:
        fault_list = build_fault_list(netlist)
    reps = fault_list.class_representatives()
    if sample is not None and sample < len(reps):
        rng = random.Random(seed)
        chosen = rng.sample(reps, sample)
    else:
        chosen = list(reps)

    engine = PackedEngine()
    plan = ObservePlan.from_spec(observe, len(cycle_inputs), netlist)
    skip = frozenset(set(reps) - set(chosen))
    result = engine.grade(
        netlist, cycle_inputs, fault_list, plan, name="flat", skip=skip
    )
    detected = len(result.detected)
    return FlatResult(
        n_faults_total=len(reps),
        n_sampled=len(chosen),
        n_detected=detected,
        cycles=len(cycle_inputs),
    )

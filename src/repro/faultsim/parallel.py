"""Parallel-fault simulation: many faults per pass in bit lanes.

The differential engine (:mod:`repro.faultsim.differential`) simulates one
fault at a time against stored good values.  This module implements the
classic alternative: pack a *batch* of faults into the lanes of a single
sequential simulation — lane 0 carries the good machine, lane *i* carries
fault *i* — and evaluate the whole batch with one pass per cycle.

Fault injection is a per-net mask pair applied after the driving value is
computed (``value & ~clear | set``), a per-pin override for branch faults,
and a D-pin override at latch time.  Detection compares each lane against
lane 0 at the observed outputs.

The two engines implement identical detection semantics; the test suite
cross-checks their verdicts fault by fault, and a benchmark compares their
throughput (the differential engine wins when most faults drop quickly;
the batch engine wins on dense long traces).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.errors import FaultSimError
from repro.faultsim.faults import Fault, FaultKind
from repro.faultsim.differential import Detection
from repro.netlist.gates import GateType
from repro.netlist.levelize import levelize
from repro.netlist.netlist import CONST1, Netlist, PortDirection


class ParallelFaultSimulator:
    """Batched fault simulation over lane-packed sequential runs."""

    def __init__(self, netlist: Netlist, batch_size: int = 255):
        if batch_size < 1:
            raise FaultSimError("batch size must be positive")
        self.netlist = netlist
        self.batch_size = batch_size
        self.order = levelize(netlist)
        self._input_ports = {
            p.name: p.nets
            for p in netlist.ports.values()
            if p.direction is PortDirection.INPUT
        }
        self._output_ports = {
            p.name: p.nets
            for p in netlist.ports.values()
            if p.direction is PortDirection.OUTPUT
        }

    # ------------------------------------------------------------- batch

    def run_batch(
        self,
        faults: Sequence[Fault],
        cycle_inputs: Sequence[Mapping[str, int]],
        observe: Sequence[Mapping[str, int] | set | frozenset | tuple | list]
        | None = None,
    ) -> list[Detection]:
        """Simulate one batch of faults over a cycle sequence.

        Args:
            faults: up to ``batch_size`` faults; fault ``i`` rides lane
                ``i + 1``.
            cycle_inputs: per cycle, ``{port: value}`` (applied identically
                to every lane).
            observe: per cycle, the observed output port names (None =
                all outputs every cycle).

        Returns:
            One Detection per fault (first detecting cycle recorded).
        """
        if len(faults) > self.batch_size:
            raise FaultSimError(
                f"batch of {len(faults)} faults exceeds batch size "
                f"{self.batch_size}"
            )
        if observe is not None and len(observe) != len(cycle_inputs):
            raise FaultSimError(
                f"observe list must match cycle count "
                f"({len(observe)} != {len(cycle_inputs)})"
            )
        n_lanes = len(faults) + 1
        mask = (1 << n_lanes) - 1
        all_but_good = mask & ~1

        # Injection tables.
        net_set: dict[int, int] = {}
        net_clear: dict[int, int] = {}
        pin_set: dict[tuple[int, int], int] = {}
        pin_clear: dict[tuple[int, int], int] = {}
        dff_set: dict[int, int] = {}
        dff_clear: dict[int, int] = {}
        for i, fault in enumerate(faults):
            lane_bit = 1 << (i + 1)
            if fault.kind is FaultKind.STEM:
                table = net_set if fault.stuck else net_clear
                table[fault.net] = table.get(fault.net, 0) | lane_bit
            elif fault.kind is FaultKind.BRANCH:
                key = (fault.gate, fault.pin)
                table = pin_set if fault.stuck else pin_clear
                table[key] = table.get(key, 0) | lane_bit
            else:  # DFF_D
                table = dff_set if fault.stuck else dff_clear
                table[fault.gate] = table.get(fault.gate, 0) | lane_bit

        pin_gates = {g for g, _ in pin_set} | {g for g, _ in pin_clear}

        dffs = self.netlist.dffs
        state = [mask if d.init else 0 for d in dffs]
        detections: list[Detection | None] = [None] * len(faults)
        remaining = all_but_good

        for t, cycle in enumerate(cycle_inputs):
            values = [0] * self.netlist.n_nets
            values[CONST1] = mask
            for name, nets in self._input_ports.items():
                value = cycle.get(name, 0)
                for j, net in enumerate(nets):
                    bit = (value >> j) & 1
                    values[net] = mask if bit else 0
            for dff, q_word in zip(dffs, state, strict=True):
                values[dff.q] = q_word

            # Inject stem faults on source nets (inputs / DFF outputs).
            if net_set or net_clear:
                for net, bits in net_set.items():
                    values[net] |= bits
                for net, bits in net_clear.items():
                    values[net] &= ~bits

            for gate in self.order:
                ins = gate.inputs
                if gate.index in pin_gates:
                    vals = [values[n] for n in ins]
                    for pin in range(len(ins)):
                        key = (gate.index, pin)
                        if key in pin_set:
                            vals[pin] |= pin_set[key]
                        if key in pin_clear:
                            vals[pin] &= ~pin_clear[key]
                    out = _eval(gate.gtype, vals, mask)
                else:
                    out = _eval_direct(gate.gtype, values, ins, mask)
                net = gate.output
                if net in net_set:
                    out |= net_set[net]
                if net in net_clear:
                    out &= ~net_clear[net]
                values[net] = out

            # Detection: lanes differing from lane 0 at observed outputs.
            if observe is None:
                ports = self._output_ports.keys()
            else:
                ports = observe[t]
            diff_lanes = 0
            for port in ports:
                for net in self._output_ports[port]:
                    v = values[net]
                    good = mask if v & 1 else 0
                    diff_lanes |= (v ^ good) & remaining
                    if diff_lanes == remaining:
                        break
            if diff_lanes:
                for i in range(len(faults)):
                    lane_bit = 1 << (i + 1)
                    if diff_lanes & lane_bit and detections[i] is None:
                        detections[i] = Detection(True, t, lane_bit)
                remaining &= ~diff_lanes
                if not remaining:
                    break

            # Latch next state with D-pin overrides.
            new_state = []
            for idx, dff in enumerate(dffs):
                d_val = values[dff.d]
                if idx in dff_set:
                    d_val |= dff_set[idx]
                if idx in dff_clear:
                    d_val &= ~dff_clear[idx]
                new_state.append(d_val)
            state = new_state

        return [
            d if d is not None else Detection(False) for d in detections
        ]


def _eval_direct(
    gt: GateType, values: list[int], ins: tuple[int, ...], mask: int
) -> int:
    """Evaluate a gate reading straight from the net-value array."""
    if gt is GateType.MUX2:
        a, b, sel = values[ins[0]], values[ins[1]], values[ins[2]]
        return (a & ~sel) | (b & sel)
    if gt is GateType.AND:
        out = values[ins[0]]
        for n in ins[1:]:
            out &= values[n]
        return out
    if gt is GateType.XOR:
        out = values[ins[0]]
        for n in ins[1:]:
            out ^= values[n]
        return out
    if gt is GateType.NOT:
        return mask & ~values[ins[0]]
    if gt is GateType.OR:
        out = values[ins[0]]
        for n in ins[1:]:
            out |= values[n]
        return out
    if gt is GateType.NAND:
        out = values[ins[0]]
        for n in ins[1:]:
            out &= values[n]
        return mask & ~out
    if gt is GateType.NOR:
        out = values[ins[0]]
        for n in ins[1:]:
            out |= values[n]
        return mask & ~out
    if gt is GateType.XNOR:
        out = values[ins[0]]
        for n in ins[1:]:
            out ^= values[n]
        return mask & ~out
    if gt is GateType.BUF:
        return values[ins[0]]
    if gt is GateType.AOI21:
        return mask & ~((values[ins[0]] & values[ins[1]]) | values[ins[2]])
    raise FaultSimError(f"unhandled gate type {gt}")  # pragma: no cover


def _eval(gt: GateType, vals: list[int], mask: int) -> int:
    """Evaluate a gate from pre-fetched (possibly overridden) inputs."""
    if gt is GateType.MUX2:
        a, b, sel = vals
        return (a & ~sel) | (b & sel)
    if gt is GateType.AND:
        out = vals[0]
        for v in vals[1:]:
            out &= v
        return out
    if gt is GateType.XOR:
        out = vals[0]
        for v in vals[1:]:
            out ^= v
        return out
    if gt is GateType.NOT:
        return mask & ~vals[0]
    if gt is GateType.OR:
        out = vals[0]
        for v in vals[1:]:
            out |= v
        return out
    if gt is GateType.NAND:
        out = vals[0]
        for v in vals[1:]:
            out &= v
        return mask & ~out
    if gt is GateType.NOR:
        out = vals[0]
        for v in vals[1:]:
            out |= v
        return mask & ~out
    if gt is GateType.XNOR:
        out = vals[0]
        for v in vals[1:]:
            out ^= v
        return mask & ~out
    if gt is GateType.BUF:
        return vals[0]
    if gt is GateType.AOI21:
        return mask & ~((vals[0] & vals[1]) | vals[2])
    raise FaultSimError(f"unhandled gate type {gt}")  # pragma: no cover

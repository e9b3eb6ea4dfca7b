"""Equivalence tests: parallel-fault engine vs the differential engine."""

import random

import pytest

from repro.errors import FaultSimError
from repro.faultsim import GradeOptions, ObservePlan, grade
from repro.faultsim.engine import BatchEngine
from repro.faultsim.faults import build_fault_list
from repro.faultsim.parallel import ParallelFaultSimulator
from repro.library import build_alu, build_register_file
from repro.library.alu import AluOp
from repro.netlist.builder import NetlistBuilder


def cross_check(netlist, cycles, observe=None, batch_size=64):
    differential = grade(netlist, cycles, options=GradeOptions(
        engine="differential", observe=observe,
    ))
    # The batch engine at an explicit batch size: faults ride the lanes
    # of ParallelFaultSimulator.run_batch, batch_size classes per pass.
    batched = BatchEngine(batch_size=batch_size).grade(
        netlist, cycles, differential.fault_list,
        ObservePlan.from_spec(observe, len(cycles), netlist),
    )
    assert batched.detected == differential.detected, (
        len(batched.detected), len(differential.detected)
    )
    return differential, batched


class TestEquivalence:
    def test_combinational_alu(self):
        rng = random.Random(21)
        netlist = build_alu(width=8)
        cycles = [
            dict(a=rng.getrandbits(8), b=rng.getrandbits(8),
                 func=int(rng.choice(list(AluOp))))
            for _ in range(40)
        ]
        diff, par = cross_check(netlist, cycles)
        assert diff.fault_coverage == par.fault_coverage

    def test_sequential_regfile(self):
        rng = random.Random(22)
        netlist = build_register_file(n_registers=4, width=4)
        cycles = [
            dict(
                wr_addr=rng.randrange(4), wr_data=rng.getrandbits(4),
                wr_en=rng.randrange(2), rd_addr_a=rng.randrange(4),
                rd_addr_b=rng.randrange(4),
            )
            for _ in range(40)
        ]
        cross_check(netlist, cycles, batch_size=33)

    def test_with_observability_restriction(self):
        rng = random.Random(23)
        netlist = build_alu(width=4)
        cycles = [
            dict(a=rng.getrandbits(4), b=rng.getrandbits(4),
                 func=int(rng.choice(list(AluOp))))
            for _ in range(30)
        ]
        observe = [
            ("result",) if i % 3 == 0 else () for i in range(len(cycles))
        ]
        cross_check(netlist, cycles, observe)

    def test_tiny_batches(self):
        netlist = build_alu(width=4)
        cycles = [dict(a=5, b=9, func=int(AluOp.ADD)),
                  dict(a=0xF, b=1, func=int(AluOp.SUB))]
        cross_check(netlist, cycles, batch_size=1)


class TestBatchMechanics:
    def test_detection_records_first_cycle(self):
        b = NetlistBuilder("buf")
        x = b.input("x", 1)
        b.output("y", b.not_(x[0]))
        netlist = b.build()
        fl = build_fault_list(netlist)
        sim = ParallelFaultSimulator(netlist)
        reps = fl.class_representatives()
        faults = [fl.fault(r) for r in reps]
        cycles = [dict(x=0), dict(x=1)]
        detections = sim.run_batch(faults, cycles)
        assert all(d.detected for d in detections)
        assert {d.cycle for d in detections} <= {0, 1}

    def test_invalid_batch_size(self):
        netlist = build_alu(width=4)
        with pytest.raises(FaultSimError):
            ParallelFaultSimulator(netlist, batch_size=0)

    def test_empty_cycles_rejected(self):
        netlist = build_alu(width=4)
        with pytest.raises(FaultSimError):
            grade(netlist, [], options=GradeOptions(engine="batch"))

    def test_observe_length_checked(self):
        netlist = build_alu(width=4)
        with pytest.raises(FaultSimError):
            grade(netlist, [dict(a=0, b=0, func=0)], options=GradeOptions(
                engine="batch", observe=[(), ()],
            ))

    def test_run_batch_observe_length_checked(self):
        # The public run_batch must validate like the campaign path
        # instead of dying on a bare IndexError mid-simulation.
        netlist = build_alu(width=4)
        fl = build_fault_list(netlist)
        faults = [fl.fault(fl.class_representatives()[0])]
        with pytest.raises(FaultSimError, match="observe"):
            ParallelFaultSimulator(netlist).run_batch(
                faults, [dict(a=0, b=0, func=0)] * 3, observe=[("result",)]
            )

    def test_run_batch_oversized_batch_rejected(self):
        netlist = build_alu(width=4)
        fl = build_fault_list(netlist)
        reps = fl.class_representatives()
        faults = [fl.fault(r) for r in reps[:3]]
        with pytest.raises(FaultSimError, match="batch"):
            ParallelFaultSimulator(netlist, batch_size=2).run_batch(
                faults, [dict(a=0, b=0, func=0)]
            )

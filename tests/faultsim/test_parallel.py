"""The fault-parallel engine under its ``batch`` name.

``batch`` names the packed engine, which rides faults on the lanes of a
word; these checks grade through ``grade()`` with that name and hold the
result against the differential engine.
"""

import random

import pytest

from repro.errors import FaultSimError
from repro.faultsim import GradeOptions, grade
from repro.library import build_alu
from repro.library.alu import AluOp


def cross_check(netlist, cycles, observe=None):
    differential = grade(netlist, cycles, options=GradeOptions(
        engine="differential", observe=observe,
    ))
    batched = grade(netlist, cycles, options=GradeOptions(
        engine="batch", observe=observe,
    ))
    assert batched.detected == differential.detected, (
        len(batched.detected), len(differential.detected)
    )
    assert {r: (d.detected, d.cycle, d.excited)
            for r, d in batched.detections.items()} == {
        r: (d.detected, d.cycle, d.excited)
        for r, d in differential.detections.items()
    }
    return differential, batched


class TestEquivalence:
    def test_with_observability_restriction(self):
        # Only every third pattern observes the result; the others
        # observe nothing (empty entries).
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
        diff, par = cross_check(netlist, cycles, observe)
        assert diff.fault_coverage == par.fault_coverage


class TestBatchMechanics:
    def test_empty_cycles_rejected(self):
        netlist = build_alu(width=4)
        with pytest.raises(FaultSimError, match="no patterns to apply"):
            grade(netlist, [], options=GradeOptions(engine="batch"))

    def test_observe_length_checked(self):
        netlist = build_alu(width=4)
        with pytest.raises(FaultSimError, match="observe"):
            grade(netlist, [dict(a=0, b=0, func=0)], options=GradeOptions(
                engine="batch", observe=[(), ()],
            ))

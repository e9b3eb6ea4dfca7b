"""SCOAP-based structural fault pruning inside grade().

``GradeOptions(prune_untestable=True)`` must only skip faults that are
provably untestable: the reported fault coverage may never change, only
the amount of simulation spent proving the same undetected set.
"""

from repro.faultsim import GradeOptions, grade
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType
from repro.netlist.netlist import CONST0
from repro.plasma.components import build_component


def tied_circuit():
    # OR(a, AND(a, 0)): the AND is structurally constant 0, so several
    # collapsed classes are untestable by construction.
    b = NetlistBuilder("tied")
    a = b.input("a", 1)
    dead = b.netlist.add_gate(GateType.AND, [a[0], CONST0])
    b.output("y", b.gate(GateType.OR, a[0], dead))
    return b.build()


PATTERNS = [dict(a=0), dict(a=1)]


def _grade(netlist, patterns, prune_untestable=False):
    """Grade on the differential reference engine."""
    return grade(netlist, patterns, options=GradeOptions(
        engine="differential", prune_untestable=prune_untestable,
    ))


class TestPruningSmallCircuit:
    def test_prune_skips_untestable_without_changing_coverage(self):
        netlist = tied_circuit()
        base = _grade(netlist, PATTERNS)
        pruned = _grade(netlist, PATTERNS, prune_untestable=True)
        assert base.n_pruned == 0
        assert pruned.n_pruned > 0
        assert pruned.fault_coverage == base.fault_coverage
        assert pruned.n_faults == base.n_faults
        assert pruned.detected == base.detected

    def test_pruned_faults_stay_in_the_undetected_set(self):
        netlist = tied_circuit()
        result = _grade(netlist, PATTERNS, prune_untestable=True)
        assert result.pruned
        assert not result.pruned & result.detected
        undetected = {
            result.fault_list.representative[
                result.fault_list.faults.index(f)
            ]
            for f in result.undetected_faults()
        }
        assert result.pruned <= undetected

    def test_excitation_report_mentions_pruning(self):
        netlist = tied_circuit()
        result = _grade(netlist, PATTERNS, prune_untestable=True)
        assert "pruned-untestable" in result.excitation_report()


class TestPruningOnComponent:
    def test_ctrl_prunes_classes_and_keeps_coverage(self):
        # CTRL has structurally untestable decode logic (reserved opcode
        # space); a tiny pattern set is enough to check the invariant.
        netlist = build_component("CTRL")
        patterns = [
            {"instr": 0x00000000},  # sll $0, $0, 0
            {"instr": 0x8C080000},  # lw $t0, 0($0)
            {"instr": 0x01095021},  # addu $t2, $t0, $t1
        ]
        base = _grade(netlist, patterns)
        pruned = _grade(netlist, patterns, prune_untestable=True)
        assert pruned.n_pruned > 0
        assert pruned.fault_coverage == base.fault_coverage
        assert pruned.detected == base.detected

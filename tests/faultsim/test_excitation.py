"""Unit tests for the never-excited / excited-unobserved fault breakdown."""

from repro.faultsim import GradeOptions, grade
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType


def _grade(netlist, patterns, observe=None):
    """Grade on the differential reference engine."""
    return grade(netlist, patterns, options=GradeOptions(
        engine="differential", observe=observe,
    ))


def two_path_circuit():
    """y1 = a & b (observed); y2 = a | b (sometimes unobserved)."""
    b = NetlistBuilder("paths")
    x = b.input("x", 2)
    b.output("y1", b.gate(GateType.AND, x[0], x[1]))
    b.output("y2", b.gate(GateType.OR, x[0], x[1]))
    return b.build()


class TestExcitationBreakdown:
    def test_partition_sums_to_undetected(self):
        netlist = two_path_circuit()
        result = _grade(netlist, [dict(x=0b01)])
        undetected = result.n_faults - result.n_detected
        assert result.n_never_excited + result.n_excited_unobserved == undetected

    def test_constant_stimulus_leaves_unexcited_faults(self):
        # With x held at 0b00, any s-a-0 whose good value is always 0 is
        # never excited.
        netlist = two_path_circuit()
        result = _grade(netlist, [dict(x=0)])
        assert result.n_never_excited > 0

    def test_unobserved_output_creates_excited_unobserved(self):
        netlist = two_path_circuit()
        patterns = [dict(x=v) for v in range(4)]
        # Observe only y1: faults on the OR path are excited (exhaustive
        # stimulus) but never observed.
        observe = [("y1",)] * len(patterns)
        result = _grade(netlist, patterns, observe)
        assert result.n_excited_unobserved > 0
        assert result.n_never_excited == 0  # exhaustive stimulus

    def test_exhaustive_fully_observed_has_no_residue(self):
        netlist = two_path_circuit()
        patterns = [dict(x=v) for v in range(4)]
        result = _grade(netlist, patterns)
        assert result.fault_coverage == 100.0
        assert result.n_never_excited == 0
        assert result.n_excited_unobserved == 0

    def test_report_line(self):
        netlist = two_path_circuit()
        result = _grade(netlist, [dict(x=0)])
        text = result.excitation_report()
        assert "never excited" in text and "FC" in text

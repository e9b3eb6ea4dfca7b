"""Unit tests for flat whole-processor fault grading (sampled)."""

import pytest

from repro.errors import WatchdogTimeout
from repro.isa.assembler import assemble
from repro.plasma.flatsim import (
    OBSERVED_OUTPUTS,
    FlatResult,
    flat_campaign,
    record_good_run,
)
from repro.plasma.toplevel import build_plasma_top

SMALL = """
.text
    li $t0, 5
    li $t1, 3
    addu $t2, $t0, $t1
    sw $t2, 0x2000($0)
halt: j halt
    nop
"""


@pytest.fixture(scope="module")
def top():
    return build_plasma_top()


class TestRecording:
    def test_records_every_cycle(self, top):
        inputs = record_good_run(assemble(SMALL), top)
        assert len(inputs) > 5
        assert all(set(c) == {"imem_data", "mem_rdata", "irq"}
                   for c in inputs)

    def test_first_fetch_is_first_instruction(self, top):
        program = assemble(SMALL)
        inputs = record_good_run(program, top)
        assert inputs[0]["imem_data"] == program.to_image()[0]

    def test_non_halting_program_raises(self, top):
        runaway = assemble(".text\nloop: addiu $t0, $t0, 1\nb loop\nnop")
        with pytest.raises(WatchdogTimeout):
            record_good_run(runaway, top, max_cycles=200)


class TestSampledCampaign:
    def test_sample_detects_faults(self, top):
        result = flat_campaign(
            assemble(SMALL), netlist=top, sample=80, seed=3
        )
        assert result.n_sampled == 80
        assert 0 < result.n_detected < 80
        assert 0 < result.coverage < 100

    def test_deterministic_for_seed(self, top):
        a = flat_campaign(assemble(SMALL), netlist=top, sample=60, seed=5)
        b = flat_campaign(assemble(SMALL), netlist=top, sample=60, seed=5)
        assert a.n_detected == b.n_detected

    def test_confidence_shrinks_with_sample(self):
        small = FlatResult(10_000, 100, 50, 100)
        large = FlatResult(10_000, 1000, 500, 100)
        assert large.confidence_95 < small.confidence_95

    def test_full_population_ci_is_zero(self):
        exact = FlatResult(100, 100, 90, 10)
        assert exact.confidence_95 == pytest.approx(0.0, abs=1e-6)

    def test_observed_outputs_are_real_pins(self, top):
        for port in OBSERVED_OUTPUTS:
            assert not port.startswith("debug")
            assert port in top.ports

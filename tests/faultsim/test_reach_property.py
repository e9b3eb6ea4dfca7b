"""Property tests: the reach screen never changes what grading reports.

The screen lets the grader skip simulating proven-unexercised fault
classes and synthesise their verdicts.  The load-bearing claim is that
the reported result is bit-identical to simulating everything — driven
here with random netlists (combinational and sequential), abstract
patterns generalised from the concrete stimulus, every engine, collapse
on and off, random shard partitions, and a real campaign.

Comparison contract (the repo-wide cross-config verdict contract, see
``tests/faultsim/test_engines.py``): per-fault ``(detected, excited)``
and detection cycle, the detected set, coverage, pruned and proven sets.
``Detection.lanes`` is a packed-engine packing artefact (the fault's
one-hot position inside its simulation word) and is *not* part of the
contract — removing screened faults repacks the survivors.  For the
differential engine full record equality is asserted on top.
"""

import random

import pytest

from repro.analysis.collapse import compute_collapse
from repro.analysis.reach import build_reach_report, reach_reduction
from repro.errors import FaultSimError
from repro.faultsim import GradeOptions, build_fault_list, grade
from repro.faultsim.differential import Detection
from repro.faultsim.engine import prune_sets
from repro.runtime import RuntimeConfig

from tests.faultsim.test_collapse_property import (
    _cycles,
    _patterns,
    random_comb,
    random_seq,
)

ENGINES = ("differential", "packed")

MASK32 = 0xFFFF_FFFF


def abstract_cover(rng, stimulus, width, loosen=0.4):
    """One abstract pattern per stimulus entry, each covering its entry.

    Random input bits are forgotten (mask cleared), so the pattern set
    over-approximates the concrete run exactly the way derived program
    patterns over-approximate the traced one.
    """
    patterns = []
    for entry in stimulus:
        mask = MASK32
        for bit in range(width):
            if rng.random() < loosen:
                mask &= ~(1 << bit)
        patterns.append({"x": (mask, entry["x"] & mask)})
    return patterns


def canonical(result):
    """The cross-config verdict contract of one grading result."""
    per_fault = {
        rep: (det.detected, det.excited, det.cycle)
        for rep, det in result.detections.items()
    }
    return (
        per_fault,
        frozenset(result.detected),
        result.fault_coverage,
        frozenset(result.pruned),
        frozenset(result.proven),
    )


def assert_identical(off, on, report, skipped_expected=None):
    assert canonical(on) == canonical(off)
    # Synthesised verdicts must be exactly what simulation reports for a
    # never-diverging fault — and a proven class must never be detected.
    for rep in report.proven:
        if rep in on.detections:
            det = on.detections[rep]
            assert not det.detected and not det.excited
        assert rep not in on.detected
    if skipped_expected is not None:
        assert on.n_reach_skipped == skipped_expected
    assert on.n_simulated <= off.n_simulated


class TestReachOnEqualsOff:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_combinational(self, engine, seed):
        netlist = random_comb(seed)
        fault_list = build_fault_list(netlist)
        rng = random.Random(seed + 500)
        stimulus = _patterns(rng, 12)
        report = build_reach_report(
            netlist, fault_list, abstract_cover(rng, stimulus, 5)
        )
        off = grade(netlist, stimulus, fault_list,
                    GradeOptions(engine=engine))
        on = grade(netlist, stimulus, fault_list,
                   GradeOptions(engine=engine, reach=report))
        skipped = len(reach_reduction(
            report, fault_list, None, frozenset()
        ))
        assert_identical(off, on, report, skipped)
        if engine == "differential":
            assert on.detections == off.detections

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_random_sequential(self, engine, seed):
        netlist = random_seq(seed)
        fault_list = build_fault_list(netlist)
        rng = random.Random(seed + 600)
        stimulus = _cycles(rng, 20)
        report = build_reach_report(
            netlist, fault_list, abstract_cover(rng, stimulus, 4)
        )
        off = grade(netlist, stimulus, fault_list,
                    GradeOptions(engine=engine))
        on = grade(netlist, stimulus, fault_list,
                   GradeOptions(engine=engine, reach=report))
        assert_identical(off, on, report)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [21, 22])
    def test_with_collapse(self, engine, seed):
        netlist = random_comb(seed, n_gates=30)
        fault_list = build_fault_list(netlist)
        cmap = compute_collapse(netlist, fault_list)
        rng = random.Random(seed + 700)
        stimulus = _patterns(rng, 10)
        report = build_reach_report(
            netlist, fault_list, abstract_cover(rng, stimulus, 5)
        )
        off = grade(netlist, stimulus, fault_list,
                    GradeOptions(engine=engine, collapse=cmap))
        on = grade(
            netlist, stimulus, fault_list,
            GradeOptions(engine=engine, collapse=cmap, reach=report),
        )
        assert_identical(off, on, report)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_with_pruning(self, seed):
        netlist = random_comb(seed, n_gates=30)
        fault_list = build_fault_list(netlist)
        rng = random.Random(seed + 800)
        stimulus = _patterns(rng, 10)
        report = build_reach_report(
            netlist, fault_list, abstract_cover(rng, stimulus, 5)
        )
        opts = GradeOptions(prune_untestable=True)
        off = grade(netlist, stimulus, fault_list, opts)
        on = grade(netlist, stimulus, fault_list,
                   opts.replace(reach=report))
        assert_identical(off, on, report)
        # Pruned classes are never double-counted as reach-skipped.
        skip, _ = prune_sets(netlist, fault_list, opts.prune_mode)
        assert on.n_reach_skipped == len(
            reach_reduction(report, fault_list, None, skip)
        )

    def test_constant_pinned_inputs_skip_a_lot(self):
        # Sanity: the screen must actually fire — with every input
        # pinned, most of the circuit is constant.
        netlist = random_comb(41)
        fault_list = build_fault_list(netlist)
        stimulus = [{"x": 0}]
        report = build_reach_report(
            netlist, fault_list, [{"x": (MASK32, 0)}]
        )
        assert report.n_proven > 0
        off = grade(netlist, stimulus, fault_list, GradeOptions())
        on = grade(netlist, stimulus, fault_list,
                   GradeOptions(reach=report))
        assert_identical(off, on, report)
        assert on.n_reach_skipped > 0


class TestShardPartitions:
    @pytest.mark.parametrize("seed", [51, 52])
    def test_random_partition_merges_to_full(self, seed):
        netlist = random_comb(seed)
        fault_list = build_fault_list(netlist)
        rng = random.Random(seed + 900)
        stimulus = _patterns(rng, 12)
        report = build_reach_report(
            netlist, fault_list, abstract_cover(rng, stimulus, 5)
        )
        full = grade(netlist, stimulus, fault_list,
                     GradeOptions(reach=report))

        reps = fault_list.class_representatives()
        n_parts = rng.randrange(2, 5)
        assignment = [rng.randrange(n_parts) for _ in reps]
        merged_detected = set()
        merged_detections = {}
        skipped = 0
        for part in range(n_parts):
            subset = [
                r for r, p in zip(reps, assignment, strict=True)
                if p == part
            ]
            if not subset:
                continue
            shard = grade(
                netlist, stimulus, fault_list,
                GradeOptions(reach=report, subset=subset),
            )
            merged_detected |= shard.detected
            merged_detections.update(shard.detections)
            skipped += shard.n_reach_skipped
        assert merged_detected == full.detected
        assert merged_detections == full.detections
        assert skipped == full.n_reach_skipped

    def test_collapsed_super_slices_merge_to_full(self):
        netlist = random_seq(61)
        fault_list = build_fault_list(netlist)
        cmap = compute_collapse(netlist, fault_list)
        rng = random.Random(961)
        stimulus = _cycles(rng, 16)
        report = build_reach_report(
            netlist, fault_list, abstract_cover(rng, stimulus, 4)
        )
        opts = GradeOptions(collapse=cmap, reach=report)
        full = grade(netlist, stimulus, fault_list, opts)

        order = cmap.simulation_order()
        cut = len(order) // 2
        merged = set()
        for supers in (order[:cut], order[cut:]):
            subset = [r for s in supers for r in cmap.members(s)]
            shard = grade(netlist, stimulus, fault_list,
                          opts.replace(subset=subset))
            merged |= shard.detected
        assert merged == full.detected


class TestGradeValidation:
    def test_bare_reach_true_rejected_by_grade(self):
        netlist = random_comb(71)
        stimulus = _patterns(random.Random(71), 4)
        with pytest.raises(FaultSimError, match="campaign-level"):
            grade(netlist, stimulus, options=GradeOptions(reach=True))

    def test_foreign_report_rejected(self):
        netlist, other = random_comb(72), random_comb(73)
        fault_list = build_fault_list(other)
        report = build_reach_report(
            other, fault_list, [{"x": (MASK32, 0)}]
        )
        stimulus = _patterns(random.Random(72), 4)
        with pytest.raises(FaultSimError, match="another netlist"):
            grade(netlist, stimulus,
                  options=GradeOptions(reach=report))

    def test_options_properties(self):
        assert GradeOptions().reach_requested is False
        assert GradeOptions(reach=True).reach_requested is True
        assert GradeOptions(reach=True).reach_report is None
        netlist = random_comb(74)
        report = build_reach_report(
            netlist, build_fault_list(netlist), [{"x": (MASK32, 0)}]
        )
        opts = GradeOptions(reach=report)
        assert opts.reach_requested and opts.reach_report is report
        # The fingerprint is reach-invariant: verdicts are bit-identical
        # either way, so cached records stay shared across modes.
        assert opts.fingerprint() == GradeOptions().fingerprint()


class TestCampaignReach:
    def _canonical_outcome(self, outcome):
        return {
            name: canonical(result)
            for name, result in outcome.results.items()
        }

    def test_serial_campaign_identity(self):
        from repro.core.campaign import run_campaign

        off = run_campaign("A", components=["GL"])
        on = run_campaign(
            "A", components=["GL"], options=GradeOptions(reach=True)
        )
        assert self._canonical_outcome(on) == self._canonical_outcome(off)
        assert on.results["GL"].n_reach_skipped > 0
        assert on.results["GL"].n_simulated < off.results["GL"].n_simulated

    def test_parallel_campaign_identity(self):
        from repro.core.campaign import run_campaign

        serial = run_campaign(
            "A", components=["GL"], options=GradeOptions(reach=True)
        )
        parallel = run_campaign(
            "A", components=["GL"], runtime=RuntimeConfig(jobs=2),
            options=GradeOptions(reach=True),
        )
        assert self._canonical_outcome(parallel) == \
            self._canonical_outcome(serial)
        assert parallel.results["GL"].n_reach_skipped == \
            serial.results["GL"].n_reach_skipped

    def test_campaign_rejects_precomputed_report(self):
        from repro.core.campaign import run_campaign

        netlist = random_comb(81)
        report = build_reach_report(
            netlist, build_fault_list(netlist), [{"x": (MASK32, 0)}]
        )
        with pytest.raises(FaultSimError, match="single"):
            run_campaign(
                "A", components=["GL"],
                options=GradeOptions(reach=report),
            )

    def test_synthesised_verdict_shape(self):
        # The one verdict every engine reports for a never-diverging
        # fault; reach synthesis must produce exactly this record.
        assert Detection(False, excited=False) == Detection(
            detected=False, cycle=None, lanes=0, excited=False
        )

"""Cross-engine equivalence and facade tests for the grade() API.

Every shipped Plasma component is graded with its traced phase-A stimulus
(truncated to keep tier-1 fast) through the two engine implementations
(``batch`` and ``compiled`` are further names for ``packed``, pinned by
:class:`TestOneLoweredEngine`); verdicts must agree fault by fault and the
Table 5 rows must be bit-identical.  The packed sequential walk's fault
dropping and lane repacking are additionally stress-tested against the
differential engine with deliberately tiny batches and aggressive repack
settings.
"""

import importlib
import inspect
import random

import pytest

from repro.cli import build_parser
from repro.core.campaign import execute_self_test
from repro.core.methodology import SelfTestMethodology
from repro.errors import FaultSimError
from repro.faultsim import (
    GradeOptions,
    build_fault_list,
    grade,
    lowering,
    packed,
)
from repro.faultsim.engine import (
    AUTO_MIN_DEPTH,
    BatchEngine,
    CompiledEngine,
    default_engine_name,
    engine_names,
    get_engine,
    select_engine,
)
from repro.faultsim.lowering import clear_program_cache
from repro.faultsim.packed import PackedEngine
from repro.faultsim.observe import ObservePlan
from repro.faultsim.trace_cache import global_trace_cache
from repro.library import build_register_file
from repro.netlist.builder import NetlistBuilder
from repro.netlist.levelize import depth
from repro.plasma.components import COMPONENTS, build_component
from repro.service.schemas import parse_campaign_request

ENGINES = ("differential", "packed")

#: Stimulus truncation per component (cycles for sequential components,
#: patterns for combinational ones) — full traces make tier-1 too slow.
STIMULUS_CAP = {
    "RegF": 100, "MulD": 120, "MCTRL": 150, "PCL": 200, "PLN": 150,
    "GL": 300, "ALU": 150, "BSH": 200, "CTRL": 300, "BMUX": 300,
}

#: Fault-class sampling for the two largest components (the differential
#: engine is too slow for their full universes here).
FAULT_SAMPLE = {"RegF": 350, "MulD": 400}


@pytest.fixture(scope="session")
def phase_a_specs():
    self_test = SelfTestMethodology().build_program("A")
    _, tracer, _ = execute_self_test(self_test)
    return tracer.finalize()


def _sample_skip(fault_list, sample):
    reps = fault_list.class_representatives()
    if sample is None or len(reps) <= sample:
        return frozenset()
    stride = len(reps) // sample
    keep = set(reps[::stride][:sample])
    return frozenset(r for r in reps if r not in keep)


def adder4():
    b = NetlistBuilder("adder4")
    a = b.input("a", 4)
    x = b.input("x", 4)
    cin = b.input("cin", 1)[0]
    from repro.library.adders import ripple_carry_adder

    total, cout = ripple_carry_adder(b, a, x, cin)
    b.output("sum", total)
    b.output("cout", cout)
    return b.build()


def regfile_cycles(n=40, seed=22):
    rng = random.Random(seed)
    return [
        dict(
            wr_addr=rng.randrange(4), wr_data=rng.getrandbits(4),
            wr_en=rng.randrange(2), rd_addr_a=rng.randrange(4),
            rd_addr_b=rng.randrange(4),
        )
        for _ in range(n)
    ]


class TestCrossEngineEquivalence:
    """Every component, every engine, identical verdicts and Table 5."""

    @pytest.mark.parametrize("name", [c.name for c in COMPONENTS])
    def test_engines_agree_on_component(self, name, phase_a_specs):
        stimulus, observe = phase_a_specs[name]
        cap = STIMULUS_CAP[name]
        stimulus = list(stimulus[:cap])
        if observe is not None:
            observe = list(observe[:cap])
        netlist = build_component(name)
        fault_list = build_fault_list(netlist)
        skip = _sample_skip(fault_list, FAULT_SAMPLE.get(name))
        plan = ObservePlan.from_spec(observe, len(stimulus), netlist)

        results = {
            engine: get_engine(engine).grade(
                netlist, stimulus, fault_list, plan, name=name, skip=skip
            )
            for engine in ENGINES
        }
        want = results["differential"]
        for engine in ENGINES[1:]:
            got = results[engine]
            assert set(got.detections) == set(want.detections), engine
            for rep, d in want.detections.items():
                g = got.detections[rep]
                assert (g.detected, g.excited) == (d.detected, d.excited), (
                    engine, fault_list.fault(rep).describe(netlist)
                )
                # First detecting cycle: the cycle index on sequential
                # components, always 0 on combinational ones.
                if d.detected:
                    assert g.cycle == d.cycle, (engine, rep)
            assert got.detected == want.detected, engine
            assert got.fault_coverage == want.fault_coverage, engine
            # Bit-identical Table 5 row.
            assert got.to_component_coverage() == want.to_component_coverage()


class TestTraceCacheTransparency:
    def test_warm_regrade_bit_identical(self, phase_a_specs):
        stimulus, observe = phase_a_specs["BSH"]
        stimulus = list(stimulus[:200])
        observe = list(observe[:200]) if observe is not None else None
        netlist = build_component("BSH")
        cache = global_trace_cache()
        cache.clear()
        clear_program_cache()
        cache.reset_stats()

        opts = GradeOptions(engine="packed", observe=observe)
        cold = grade(netlist, stimulus, options=opts)
        hits_after_cold = cache.stats.hits
        warm = grade(netlist, stimulus, options=opts)

        assert cache.stats.hits > hits_after_cold
        assert warm.detected == cold.detected
        assert warm.fault_coverage == cold.fault_coverage
        for rep, d in cold.detections.items():
            g = warm.detections[rep]
            assert (g.detected, g.cycle, g.lanes, g.excited) == (
                d.detected, d.cycle, d.lanes, d.excited
            )

    def test_rebuilt_netlist_shares_cache_entry(self):
        cycles = regfile_cycles()
        cache = global_trace_cache()
        cache.clear()
        opts = GradeOptions(engine="packed")
        grade(build_register_file(n_registers=4, width=4), cycles,
              options=opts)
        misses = cache.stats.misses
        # A structurally identical netlist built from scratch must hit.
        grade(build_register_file(n_registers=4, width=4), cycles,
              options=opts)
        assert cache.stats.misses == misses
        assert cache.stats.hits >= 1


class TestDroppingAndRepacking:
    """Fault dropping and lane repacking never change verdicts."""

    def test_sequential_repack_verdicts_stable(self, monkeypatch):
        netlist = build_register_file(n_registers=4, width=4)
        cycles = regfile_cycles()
        fault_list = build_fault_list(netlist)
        plan = ObservePlan.from_spec(None, len(cycles), netlist)
        want = get_engine("differential").grade(
            netlist, cycles, fault_list, plan
        )
        # A small lane floor lets ``lanes`` set the batch width, so the
        # walk runs several batches and repacks them mid-walk.
        assert fault_list.n_collapsed > 7
        repacks = []
        repack_word = packed._repack_word

        def counting_repack_word(survivors):
            repacks.append(len(survivors))
            return repack_word(survivors)

        monkeypatch.setattr(packed, "_repack_word", counting_repack_word)
        monkeypatch.setattr(packed, "SEQ_MIN_BATCH", 1)
        for batch_size, threshold, min_drop in (
            (7, 1.0, 1), (33, 0.9, 2), (64, 0.5, 8),
        ):
            monkeypatch.setattr(packed, "REPACK_THRESHOLD", threshold)
            monkeypatch.setattr(packed, "MIN_REPACK_DROP", min_drop)
            repacks.clear()
            engine = PackedEngine(lanes=batch_size + 1)
            got = engine.grade(netlist, cycles, fault_list, plan)
            assert repacks, (batch_size, threshold, min_drop)
            for rep, d in want.detections.items():
                g = got.detections[rep]
                assert (g.detected, g.cycle if d.detected else None,
                        g.excited) == (
                    d.detected, d.cycle if d.detected else None, d.excited
                ), (batch_size, threshold, min_drop, rep)

    def test_combinational_chunked_dropping_matches_differential(self):
        # 512 exhaustive patterns span multiple lane chunks, so faults
        # detected in the first chunk are dropped before later ones.
        netlist = adder4()
        patterns = [dict(a=a, x=x, cin=c)
                    for a in range(16) for x in range(16) for c in (0, 1)]
        fault_list = build_fault_list(netlist)
        plan = ObservePlan.from_spec(None, len(patterns), netlist)
        want = get_engine("differential").grade(
            netlist, patterns, fault_list, plan
        )
        got = get_engine("packed").grade(
            netlist, patterns, fault_list, plan
        )
        assert got.detected == want.detected
        assert {r: (d.detected, d.cycle, d.excited)
                for r, d in got.detections.items()} == {
            r: (d.detected, d.cycle, d.excited)
            for r, d in want.detections.items()
        }


class TestFacade:
    def test_registry_lists_shipped_engines(self):
        assert set(ENGINES) <= set(engine_names())

    def test_unknown_engine_rejected(self):
        with pytest.raises(FaultSimError, match="unknown engine"):
            get_engine("flextest")
        with pytest.raises(FaultSimError, match="unknown engine"):
            GradeOptions(engine="flextest")

    def test_auto_picks_differential_for_shallow_or_sequential(self):
        assert default_engine_name(build_component("BMUX")) == "differential"
        assert default_engine_name(build_component("RegF")) == "differential"
        assert depth(build_component("BMUX")) < AUTO_MIN_DEPTH

    def test_auto_picks_packed_for_deep_combinational(self):
        assert default_engine_name(build_component("ALU")) == "packed"
        assert depth(build_component("ALU")) >= AUTO_MIN_DEPTH

    def test_select_engine_resolves_auto_per_netlist(self):
        for name in ("BMUX", "ALU", "RegF"):
            netlist = build_component(name)
            selected = select_engine(netlist, GradeOptions())
            assert selected.name == default_engine_name(netlist)
        explicit = select_engine(
            build_component("ALU"), GradeOptions(engine="differential")
        )
        assert explicit.name == "differential"

    def test_select_engine_configures_lanes(self):
        selected = select_engine(
            adder4(), GradeOptions(engine="packed", lanes=8)
        )
        assert selected.name == "packed"
        assert selected.lanes == 8

    def test_empty_stimulus_messages(self):
        for engine in ("auto", *ENGINES):
            opts = GradeOptions(engine=engine)
            with pytest.raises(FaultSimError, match="no patterns to apply"):
                grade(adder4(), [], options=opts)
            with pytest.raises(FaultSimError, match="no cycles to apply"):
                grade(build_register_file(n_registers=4, width=4), [],
                      options=opts)
            # An observe list of the wrong length is rejected before any
            # engine runs.
            with pytest.raises(FaultSimError, match="observe list has 2"):
                grade(adder4(), [dict(a=0, x=0, cin=0)],
                      options=GradeOptions(engine=engine, observe=[(), ()]))

    def test_facade_matches_engine_protocol(self):
        netlist = adder4()
        patterns = [dict(a=a, x=15 - a, cin=a & 1) for a in range(16)]
        via_facade = grade(netlist, patterns,
                           options=GradeOptions(engine="differential"))
        fault_list = build_fault_list(netlist)
        direct = get_engine("differential").grade(
            netlist, patterns, fault_list,
            ObservePlan.from_spec(None, len(patterns), netlist),
        )
        assert via_facade.detected == direct.detected
        assert via_facade.fault_coverage == direct.fault_coverage


#: Every engine name a request may carry (``compiled`` and ``packed``
#: name one engine); each must be accepted on every grading surface.
ACCEPTED_ENGINE_NAMES = ("auto", "differential", "batch", "compiled", "packed")


def _cli_engine_choices():
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if a.dest == "command"
    )
    campaign = subparsers.choices["campaign"]
    return next(
        a.choices for a in campaign._actions if a.dest == "engine"
    )


class TestOneLoweredEngine:
    """``batch`` and ``compiled`` are the packed engine under other names.

    ``auto`` resolving deep combinational netlists to ``packed`` is pinned
    by ``TestFacade.test_auto_picks_packed_for_deep_combinational``.
    """

    def test_compiled_is_the_packed_engine(self):
        assert issubclass(CompiledEngine, PackedEngine)
        assert CompiledEngine.grade is PackedEngine.grade
        assert get_engine("compiled").name == "compiled"

    def test_batch_is_the_packed_engine(self):
        assert issubclass(BatchEngine, PackedEngine)
        assert BatchEngine.grade is PackedEngine.grade
        assert BatchEngine.name == "batch"
        assert get_engine("batch").name == "batch"
        # The subclass only renames: no behaviour of its own.
        own = {k for k in vars(BatchEngine) if not k.startswith("__")}
        assert own == {"name"}

    def test_interpreted_batch_engine_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.faultsim.parallel")

    def test_engine_names_unchanged(self):
        assert engine_names() == ("differential", "batch", "compiled", "packed")

    def test_pattern_parallel_lowering_is_gone(self):
        # Per-level kernels are the only lowering left.
        compilers = [n for n in dir(lowering) if n.startswith("compile")]
        assert compilers == ["compile_seq"]

    def test_packed_engine_takes_only_lanes(self):
        assert list(inspect.signature(PackedEngine).parameters) == ["lanes"]

    @pytest.mark.parametrize("name", ACCEPTED_ENGINE_NAMES)
    def test_engine_name_still_accepted(self, name):
        assert GradeOptions(engine=name).engine == name
        assert name in _cli_engine_choices()
        assert parse_campaign_request({"engine": name}).engine == name

"""A stdlib span recorder and the layer entry points it wraps.

The benchmark measures each layer from the outside: :class:`Instrumentation`
replaces the public entry points of every layer with thin wrappers that
record one :class:`Span` per call (name, start, end, parent span, run id and
a few attributes), then puts the originals back.  Nothing under ``src/``
changes; spans emitted from inside the program are a separate concern.

Spans stay in memory and are written out once, when the run ends.  A
layer's *self time* is its spans' duration minus the part covered by their
child spans, so no second is charged to two layers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import types
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

#: Engines whose ``grade`` method is timed as the fault-sim kernel.
ENGINES = ("differential", "compiled", "packed", "batch")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread; each thread keeps its own stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # A forked pool worker may inherit the lock held by another
        # thread; its spans are never collected, so give it a fresh one.
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def run(self) -> str:
        return getattr(self._local, "run", "")

    @run.setter
    def run(self, value: str) -> None:
        self._local.run = value

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        record = Span(name, time.perf_counter(),
                      parent=stack[-1] if stack else -1, run=self.run,
                      attrs=attrs)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def load_spans(path: Path) -> list[Span]:
    return [Span(**doc) for doc in json.loads(path.read_text())]


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the duration of its direct children."""
    own = [s.duration for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


class Instrumentation:
    """Wraps each layer's public entry points; :meth:`remove` undoes it."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ helpers

    def _timed(self, fn: Callable[..., Any], name: str,
               label: Callable[..., dict[str, Any]] | None = None,
               after: Callable[[Span, Any, tuple[Any, ...]], None]
               | None = None) -> Callable[..., Any]:
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            attrs = label(*args, **kwargs) if label is not None else {}
            with recorder.span(name, **attrs) as span:
                value = fn(*args, **kwargs)
                if after is not None:
                    after(span, value, args)
                return value

        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        _assign(owner, attr, value)

    def _everywhere(self, original: Any, wrapper: Any) -> None:
        """Rebind every ``repro`` module global that names ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _function(self, module: Any, attr: str, name: str, **kw: Any) -> None:
        original = getattr(module, attr)
        self._everywhere(original, self._timed(original, name, **kw))

    def _method(self, cls: type, attr: str, name: str, **kw: Any) -> None:
        self._set(cls, attr, self._timed(getattr(cls, attr), name, **kw))

    # ------------------------------------------------------------ install

    def install(self) -> None:
        from repro.analysis import absint, collapse, reach
        # sharded is imported so that _everywhere also rebinds the names
        # it imported at module level.
        from repro.core import campaign, methodology, sharded  # noqa: F401
        from repro.faultsim import engine, faults, packed, store, trace_cache
        from repro.plasma import components, cpu, tracer
        from repro.service import jobs

        self._method(methodology.SelfTestMethodology, "build_program",
                     "isa.build_program")
        self._method(cpu.PlasmaCPU, "run", "plasma.execute")
        self._method(tracer.ComponentTracer, "finalize", "plasma.finalize")
        for info in components.COMPONENTS:
            self._set(info, "builder",
                      self._timed(info.builder, "netlist.build"))
        self._function(faults, "build_fault_list", "faults.build")
        self._function(collapse, "compute_collapse", "collapse.compute")
        self._function(engine, "grade", "faultsim.grade", label=_component)
        engine_classes = {
            "differential": engine.DifferentialEngine,
            "compiled": engine.CompiledEngine,
            "batch": engine.BatchEngine,
            "packed": packed.PackedEngine,
        }
        for ename, cls in engine_classes.items():
            self._method(cls, "grade", f"faultsim.kernel.{ename}")
        self._function(trace_cache, "good_trace_for", "faultsim.good_trace")
        self._function(store, "verdict_key_for", "store.key")
        self._method(store.TraceStore, "trace_key", "store.key")
        for attr, kind in (("load_verdicts", "verdicts"),
                           ("load_trace", "traces")):
            self._method(store.TraceStore, attr, "store.load",
                         after=_store_read(kind))
        for attr in ("save_verdicts", "save_trace"):
            self._method(store.TraceStore, attr, "store.save")
        self._function(absint, "interpret_program", "reach.interpret")
        self._function(reach, "derive_patterns", "reach.interpret")
        self._function(reach, "build_reach_report", "reach.report")
        for attr in ("run_campaign", "grade_program", "grade_traced"):
            self._function(campaign, attr, f"campaign.{attr}")
        recorder = self.recorder
        execute = jobs.CampaignService._execute

        @functools.wraps(execute)
        def traced_execute(service: Any, job: Any) -> Any:
            recorder.run = job.id
            with recorder.span("service.execute"):
                return execute(service, job)

        self._set(jobs.CampaignService, "_execute", traced_execute)

    def remove(self) -> None:
        while self._undo:
            _assign(*self._undo.pop())


def _assign(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:  # frozen dataclass instances (component table entries)
        object.__setattr__(owner, attr, value)


def _component(netlist: Any, *args: Any, **kwargs: Any) -> dict[str, Any]:
    options = kwargs.get("options", args[2] if len(args) > 2 else None)
    name = getattr(options, "name", "") if options is not None else ""
    return {"component": name or netlist.name}


def _store_read(kind: str) -> Callable[[Span, Any, tuple[Any, ...]], None]:
    """Record hit/miss and the record's size on a store read span."""

    def after(span: Span, value: Any, args: tuple[Any, ...]) -> None:
        span.attrs["hit"] = value is not None
        span.attrs["kind"] = kind
        if value is not None:
            store, key = args[0], args[1]
            try:  # the record path is a store detail; size is best effort
                span.attrs["bytes"] = os.path.getsize(store._path(kind, key))
            except (AttributeError, OSError):
                span.attrs["bytes"] = 0

    return after

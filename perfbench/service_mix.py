"""The ``service-mix`` workload: ``repro serve`` under a seeded closed loop.

The server runs in its own process with a fresh cache directory.  This
process is the load generator: one closed-loop client submits a request
sequence that is a pure function of the seed (:func:`request_sequence`),
so the server receives exactly those requests, in sequence order.  The
client submits its next request only after the SSE ``end`` frame of the
previous one, so a request is due the moment the previous one ended and is
timed from then.  One client, not several: the server grades one job at a
time, so a second client only adds a queue wait that depends on what the
other client happened to submit, and on a 2-core host that wait swung the
median job latency by more than its bound from seed to seed.

Components are drawn from ALU, BSH, CTRL and BMUX, whose first grading
costs 0.1-0.2 s.  RegF and MulD are left out because either one dominates
any job it joins, and MCTRL, PCL, PLN and GL (2-13 s each under ``auto``)
for the same reason at this run length: their first grading would make job
times bimodal, and whether a seed draws them early or late would swing a
run's job latencies by more than the metrics' bounds.  ``phaseA-cold``
grades those four.  What stays costly is the reach screen, which interprets
the program again for every job that asks for it (3-5 s).

The sequence opens with two fixed requests, one per phase list, that grade
all four components with two jobs: they write the store through the
sharded runtime pool, the Phase A one with the reach screen skipping the
classes it proves unexercised.  Every later job is then a store hit (the
reach-screened ones after interpreting the program), so the number of
jobs that grade anew is the same for every seed.  Left to the seed, it
ranged from three to eight in a run, and the medians fell among those slow
first gradings in some runs and not in others.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench import metrics
from perfbench.host import child_env, peak_rss_mib
from perfbench.reference import Reference, check_table4, check_table5

MIX_COMPONENTS = ("ALU", "BSH", "CTRL", "BMUX")
REPEAT_ENGINES = ("packed", "compiled", "differential")
#: Requests come in blocks of twelve: four repeat an earlier fresh request
#: (exactly, or with the other ``jobs`` or another engine: the same
#: idempotency key); the eight fresh ones are one of each (number of
#: components, phases) kind below, two of them with the reach screen, and
#: four use two jobs.  Stratifying per block keeps the mix, down to the
#: kinds of the cheap jobs the medians fall among, the same from seed to
#: seed; the seed decides everything else.
REACH_KINDS = ((2, "A"), (2, "AB"))
PLAIN_KINDS = ((1, "A"), (1, "AB"), (2, "A"), (2, "AB"), (3, "A"), (3, "AB"))
REPEATS, TWO_JOBS = 4, 4
REACH = len(REACH_KINDS)
BLOCK = REPEATS + REACH + len(PLAIN_KINDS)
#: The opening requests: every mix component, per phase list, two jobs.
OPENING = tuple({"phases": phases, "components": list(MIX_COMPONENTS),
                 "jobs": 2, "reach": phases == "A", "engine": "auto"}
                for phases in ("A", "AB"))
#: One block per this many seconds asked for.  The closed loop has no
#: deadline, only whole blocks, which keeps the stratified mix identical
#: from seed to seed; a block takes 9-13 s on a 2-core host (its two
#: reach-screened jobs most of it), so a 20 s run submits the opening and
#: three blocks and loads the server for 30-40 s.
SECONDS_PER_BLOCK = 7.0
START_TIMEOUT = 60.0
JOB_TIMEOUT = 60.0
#: No new request is submitted after this many seconds of load.
LOAD_TIMEOUT = 100.0
#: Server starts timed per run; ``setup_s`` is their median.
SERVER_STARTS = 5


def blocks_for(seconds: float) -> int:
    return max(1, math.ceil(seconds / SECONDS_PER_BLOCK))


def request_sequence(seed: int, blocks: int) -> list[dict]:
    """The seeded request sequence: the opening, then ``blocks`` blocks."""
    rng = random.Random(seed)
    sequence = [dict(r) for r in OPENING]
    originals = list(sequence)
    seen: set[tuple[str, tuple[str, ...], bool]] = set()
    n_fresh = BLOCK - REPEATS
    for _ in range(blocks):
        kinds = ["repeat"] * REPEATS + ["fresh"] * n_fresh
        rng.shuffle(kinds)
        reach = _spread_out(rng, n_fresh, REACH)
        reach_kinds = rng.sample(REACH_KINDS, REACH)
        plain_kinds = rng.sample(PLAIN_KINDS, len(PLAIN_KINDS))
        slots = [reach_kinds.pop() if i in reach else plain_kinds.pop()
                 for i in range(n_fresh)]
        two = _half_each(rng, n_fresh, reach, TWO_JOBS)
        fresh = 0
        used = dict.fromkeys(MIX_COMPONENTS, 0)
        for kind in kinds:
            if kind == "repeat":
                request = dict(rng.choice(originals))
                change = rng.choice(("exact", "jobs", "engine"))
                if change == "jobs":
                    request["jobs"] = 3 - request["jobs"]
                elif change == "engine":
                    request["engine"] = rng.choice(REPEAT_ENGINES)
            else:
                size, phases = slots[fresh]
                phases, names = _fresh_pick(rng, seen, used, size, phases,
                                            fresh in reach)
                request = {
                    "phases": phases,
                    "components": names,
                    "jobs": 2 if fresh in two else 1,
                    "reach": fresh in reach,
                    "engine": "auto",
                }
                originals.append(request)
                fresh += 1
            sequence.append(request)
    return sequence


def _fresh_pick(rng: random.Random, seen: set, used: dict[str, int],
                size: int, phases: str, reach: bool) -> tuple[str, list[str]]:
    """A component subset of ``size`` for a fresh request.

    Fresh means a new idempotency key, so the subset (or, failing that,
    the phase) is chosen to avoid every earlier key: repeats then stay
    exactly a third of the requests.  Among unseen subsets the block's
    least-used components win (random among ties), so every component is
    graded about equally often.
    """
    subsets = sorted(
        itertools.combinations(MIX_COMPONENTS, size),
        key=lambda names: (sum(used[c] for c in names), rng.random()))
    other = "A" if phases == "AB" else "AB"
    for choice in (phases, other):
        for names in subsets:
            if (choice, names, reach) not in seen:
                seen.add((choice, names, reach))
                for name in names:
                    used[name] += 1
                return choice, list(names)
    return phases, list(subsets[0])


def _half_each(rng: random.Random, n: int, reach: set[int],
               k: int) -> set[int]:
    """``k`` of ``range(n)``, half of them reach slots, so the reach jobs
    (the slowest kind) mix job counts the same way each block."""
    inside = rng.sample(sorted(reach), len(reach) // 2)
    outside = rng.sample([i for i in range(n) if i not in reach],
                         k - len(inside))
    return set(inside) | set(outside)


def _spread_out(rng: random.Random, n: int, k: int) -> set[int]:
    """``k`` of ``range(n)``, no two adjacent and never slot 0, so two
    reach-screened jobs (the slowest kind) never run back to back."""
    while True:
        picked = set(rng.sample(range(1, n), k))
        if all(i + 1 not in picked for i in picked):
            return picked


def sequence_digest(sequence: list[dict]) -> str:
    blob = json.dumps(sequence, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


# ------------------------------------------------------------------ server


@dataclass
class Server:
    """One ``repro serve`` process on an ephemeral port."""

    proc: subprocess.Popen
    port: int
    start_s: float
    peak_path: Path

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def peak_kib(self) -> int:
        """Peak resident size of the stopped server and its workers."""
        try:
            return int(self.peak_path.read_text())
        except (OSError, ValueError):
            return 0

    def cpu_seconds(self) -> float:
        """CPU the live server has used so far (0 where /proc is absent)."""
        try:
            stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        except OSError:
            return 0.0
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def start_server(root: Path, cache_dir: Path,
                 trace_path: Path | None = None) -> Server:
    """Spawn the server; return once it answers ``/v1/healthz``."""
    env = child_env(root)
    peak_path = cache_dir.with_name(cache_dir.name + ".peak")
    cmd = [sys.executable, "-m", "perfbench.serve", str(peak_path),
           "-" if trace_path is None else str(trace_path),
           "serve", "--port", "0", "--cache-dir", str(cache_dir)]
    started = time.perf_counter()
    # SIGINT is the server's clean stop.  A benchmark started in the
    # background inherits SIGINT ignored, and so would the server.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            preexec_fn=_default_sigint)
    deadline = started + START_TIMEOUT
    port = 0
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if "listening on http://" in line:
                port = int(line.rsplit(":", 1)[1])
                break
            if time.perf_counter() > deadline:
                break
        if not port:
            raise RuntimeError("repro serve did not start")
        status, _ = _request(port, "GET", "/v1/healthz")
        if status != 200:
            raise RuntimeError(f"healthz answered {status}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return Server(proc, port, time.perf_counter() - started, peak_path)


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _request(port: int, method: str, path: str,
             body: dict | None = None) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def _follow(port: int, job_id: str) -> tuple[str, list[dict]]:
    """Read a job's SSE stream to its ``end`` frame: (state, events)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT)
    try:
        conn.request("GET", f"/v1/campaigns/{job_id}/events")
        response = conn.getresponse()
        if response.status != 200:
            return f"http {response.status}", []
        events: list[dict] = []
        name = ""
        for raw in response:
            line = raw.decode().rstrip("\n")
            if line.startswith("event: "):
                name = line[7:]
            elif line.startswith("data: "):
                data = json.loads(line[6:])
                if name == "end":
                    return str(data.get("state")), events
                events.append(data)
        return "stream closed", events
    finally:
        conn.close()


# ------------------------------------------------------------------- load


@dataclass
class Outcome:
    """What one submitted request produced."""

    index: int
    request: dict
    due: float
    sent: float
    submit_s: float = 0.0
    end: float = 0.0
    status: int = 0
    attached: bool = False
    state: str = ""
    payload: dict = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def drive(port: int, sequence: list[dict],
          ref: Reference) -> tuple[list[Outcome], float]:
    """Submit the whole sequence in a closed loop: (outcomes, window)."""
    outcomes: list[Outcome] = []
    start = due = time.perf_counter()
    deadline = start + LOAD_TIMEOUT
    for index, request in enumerate(sequence):
        if time.perf_counter() > deadline:
            break
        out = Outcome(index, request, due, time.perf_counter())
        outcomes.append(out)
        try:
            out.status, body = _request(port, "POST", "/v1/campaigns",
                                        dict(request, tenant="bench"))
        except (OSError, ValueError) as exc:
            out.problems.append(f"submit failed: {exc}")
            body = {}
        out.submit_s = time.perf_counter() - out.sent
        _complete(port, out, body, ref)
        out.end = due = time.perf_counter()
    return outcomes, time.perf_counter() - start


def _complete(port: int, out: Outcome, body: dict, ref: Reference) -> None:
    """Follow one submission to its end and check its tables."""
    if out.problems:
        return
    if out.status not in (200, 202) or "id" not in body:
        out.problems.append(f"submit answered {out.status}: {body}")
        return
    out.attached = bool(body.get("attached_to_existing"))
    try:
        out.state, out.events = _follow(port, body["id"])
        _, out.payload = _request(port, "GET", f"/v1/campaigns/{body['id']}")
    except (OSError, ValueError) as exc:
        out.problems.append(f"job {body['id']}: {exc}")
        return
    phases = out.request["phases"]
    if out.state != "done":
        out.problems.append(f"job {body['id']} ended {out.state}: "
                            f"{out.payload.get('error', '')}")
        return
    coverage = out.payload.get("coverage", {})
    rows = coverage.get("table5", {}).get(phases, [])
    names = [r["name"] for r in rows if r["name"] != "Plasma"]
    if names != out.request["components"]:
        out.problems.append(f"job graded {names}, asked "
                            f"{out.request['components']}")
    out.problems += check_table4(ref, phases,
                                 coverage.get("table4", {}).get(phases, {}))
    out.problems += check_table5(ref, phases, rows, whole=False)


# ---------------------------------------------------------------- summary


def executed_jobs(outcomes: list[Outcome]) -> dict[str, Outcome]:
    """The first clean outcome of each distinct server job that ran."""
    jobs: dict[str, Outcome] = {}
    for out in sorted(outcomes, key=lambda o: o.index):
        job_id = out.payload.get("id")
        if (job_id and job_id not in jobs and not out.problems
                and out.payload.get("started")):
            jobs[job_id] = out
    return jobs


def job_record(out: Outcome) -> dict[str, Any]:
    """:func:`metrics.campaign_counts` record of one executed job."""
    rows = [r for r in out.payload["coverage"]["table5"][
        out.request["phases"]] if r["name"] != "Plasma"]
    cycles = out.payload["coverage"]["table4"][out.request["phases"]][
        "clock_cycles"]
    return {
        "faults": sum(r["faults"] for r in rows),
        "detected": sum(r["detected"] for r in rows),
        "simulated": out.payload.get("n_simulated", 0),
        "inferred": out.payload.get("n_inferred", 0),
        "reach_skipped": out.payload.get("n_reach_skipped", 0),
        "reach": bool(out.request["reach"]),
        "cycles": cycles,
    }


def shard_times(job: Outcome) -> dict[tuple[str, str], float]:
    """Summed shard compute per (phases, component) from SSE events."""
    sums: dict[tuple[str, str], float] = {}
    for event in job.events:
        key = str(event.get("job", ""))
        if event.get("kind") == "success" and "#" in key:
            phases, rest = key.split(":", 1)
            name = rest.split("#", 1)[0]
            sums[(phases, name)] = (sums.get((phases, name), 0.0)
                                    + float(event.get("duration", 0.0)))
    return sums


@dataclass
class Pass:
    """One server lifetime under load, with its accounting."""

    outcomes: list[Outcome]
    window: float
    cpu: float
    peak_kib: int
    spans: list = field(default_factory=list)

    @property
    def jobs(self) -> dict[str, Outcome]:
        return executed_jobs(self.outcomes)

    def run_times(self) -> list[float]:
        return [o.payload["finished"] - o.payload["started"]
                for o in self.jobs.values()]


def run_pass(root: Path, scratch: Path, ref: Reference,
             sequence: list[dict],
             trace_path: Path | None = None,
             server: Server | None = None) -> Pass:
    """Load one server (started here unless given) and stop it."""
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if server is None:
        server = start_server(root, scratch / f"cache-{time.time_ns()}",
                              trace_path)
    startup_cpu = server.cpu_seconds()
    try:
        outcomes, window = drive(server.port, sequence, ref)
    finally:
        server.stop()
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (kids1.ru_utime + kids1.ru_stime - kids0.ru_utime
           - kids0.ru_stime - startup_cpu)
    spans: list = []
    if trace_path is not None and trace_path.exists():
        from perfbench.spans import load_spans

        spans = load_spans(trace_path)
    return Pass(outcomes, window, cpu, server.peak_kib(), spans)


# ---------------------------------------------------------------- workload


def workload(root: Path, build_dir: Path, ref: Reference, seed: int,
             seconds: float, spans_path: Path | None, info: dict) -> dict:
    """Set up and run ``service-mix``."""
    scratch = build_dir / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    sequence = request_sequence(seed, blocks_for(seconds))
    info["sequence_digest"] = sequence_digest(sequence)
    servers: list = []
    try:
        for i in range(SERVER_STARTS):
            server = start_server(root, scratch / f"cache-setup{i}")
            servers.append(server)
            if i < SERVER_STARTS - 1:
                server.stop()
        setup_s = statistics.median(s.start_s for s in servers)
        if spans_path is None:
            done = run_pass(root, scratch, ref, sequence,
                            server=servers[-1])
            result = _service_e2e(done, info)
        else:
            # Two passes over the first half of the sequence: untraced,
            # then traced, each on a fresh server and cache.
            half = sequence[:len(OPENING) + BLOCK * blocks_for(seconds / 2)]
            plain = run_pass(root, scratch, ref, half, server=servers[-1])
            traced = run_pass(root, scratch, ref, half,
                              trace_path=spans_path)
            result = _service_e2e(traced, info)
            result["layers"] = _service_layers(plain, traced, info)
            result["attempted"] += len(plain.outcomes)
            result["failed"] += _failures(plain.outcomes, info)
            mismatch = _compare_passes(plain, traced)
            if mismatch:
                result["failed"] += 1
                info["problems"].append(mismatch)
        result["e2e"]["setup_s"] = setup_s
        return result
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)


def _failures(outcomes: list, info: dict) -> int:
    failed = 0
    for out in outcomes:
        if out.problems:
            failed += 1
            info.setdefault("problems", []).extend(out.problems[:2])
    info["problems"] = info.get("problems", [])[:20]
    return failed


def _service_e2e(done, info: dict) -> dict:
    outcomes = done.outcomes
    ok = [o for o in outcomes if not o.problems]
    failed = _failures(outcomes, info)
    jobs = done.jobs
    runs = done.run_times()
    latencies = [o.end - o.due for o in ok] or [0.0]
    classes = sum(
        sum(r["faults"] for r in o.payload["coverage"]["table5"][
            o.request["phases"]] if r["name"] != "Plasma")
        for o in jobs.values())
    info.update({
        "submitted": len(outcomes),
        "executed_jobs": len(jobs),
        "generator_lag_s_max": max(
            (o.sent - o.due for o in outcomes), default=0.0),
    })
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "samples": len(ok),
        "e2e": {
            "campaign_s_p50": metrics.p50(runs) if runs else 0.0,
            "campaign_s_p90": metrics.p90(runs) if runs else 0.0,
            "classes_per_s": metrics.ratio(classes, sum(runs)),
            "cpu_s": metrics.ratio(done.cpu, len(jobs)),
            "peak_rss_mib": peak_rss_mib(done.peak_kib),
            "job_s_p50": metrics.p50(latencies),
            "job_s_p90": metrics.p90(latencies),
            "jobs_per_s": len(ok) / done.window,
        },
    }


def _compare_passes(plain, traced) -> str:
    """Traced and untraced passes must agree on every common request."""
    first = {o.index: o.payload.get("coverage") for o in plain.outcomes}
    for out in traced.outcomes:
        if out.index in first and out.payload.get("coverage") != first[
                out.index]:
            return f"request {out.index}: traced tables differ"
    return ""


def _service_layers(plain, traced, info: dict) -> dict[str, float]:
    jobs = traced.jobs
    n_ops = max(1, len(jobs))
    values = {name: 0.0 for name in metrics.PER_LAYER}
    values.update(metrics.layer_times(traced.spans, n_ops))
    values.update(metrics.store_counts(traced.spans, n_ops))
    values.update(metrics.campaign_counts(
        [job_record(o) for o in jobs.values()], n_ops))
    shards: dict[tuple[str, str, bool], float] = {}
    n_shards = 0
    for job in jobs.values():
        for (phases, name), seconds in shard_times(job).items():
            key = (phases, name, bool(job.request["reach"]))
            shards[key] = shards.get(key, 0.0) + seconds
        n_shards += sum(1 for e in job.events if e.get("kind") == "success"
                        and "#" in str(e.get("job", "")))
    serial = serial_grade_seconds(set(shards))
    outcomes = traced.outcomes
    runs_traced = traced.run_times()
    runs_plain = plain.run_times()
    values.update({
        "runtime.shards": n_shards / n_ops,
        "runtime.shard_compute_s": sum(shards.values()) / n_ops,
        "runtime.shard_overhead_ratio": metrics.ratio(
            sum(shards.values()), sum(serial.values())),
        "service.submit_s": statistics.mean(o.submit_s for o in outcomes),
        "service.queue_wait_s": statistics.mean(
            o.payload["started"] - o.payload["created"]
            for o in jobs.values()) if jobs else 0.0,
        "service.run_s": statistics.mean(runs_traced) if jobs else 0.0,
        "service.attach_ratio": metrics.ratio(
            sum(1 for o in outcomes if o.attached), len(outcomes)),
        "trace.campaign_s_p50_traced": metrics.p50(runs_traced),
        "trace.campaign_s_p50_untraced": metrics.p50(runs_plain),
        "trace.spans": len(traced.spans) / n_ops,
    })
    values["trace.overhead_ratio"] = (
        values["trace.campaign_s_p50_traced"]
        / values["trace.campaign_s_p50_untraced"] - 1.0)
    info["serial_reference_s"] = {
        "/".join(map(str, k)): v for k, v in serial.items()}
    return values


def serial_grade_seconds(
    keys: set[tuple[str, str, bool]],
) -> dict[tuple[str, str, bool], float]:
    """Serial in-process grade time of each sharded (phases, component,
    reach) triple: the base of ``runtime.shard_overhead_ratio``."""
    if not keys:
        return {}
    from repro.core.campaign import execute_self_test, grade_traced
    from repro.core.methodology import SelfTestMethodology
    from repro.faultsim.lowering import clear_program_cache
    from repro.faultsim.options import GradeOptions
    from repro.faultsim.trace_cache import global_trace_cache

    seconds: dict[tuple[str, str, bool], float] = {}
    for phases, reach in sorted({(k[0], k[2]) for k in keys}):
        self_test = SelfTestMethodology().build_program(phases)
        cpu, tracer, _ = execute_self_test(self_test)
        names = sorted(k[1] for k in keys if k[0] == phases and k[2] == reach)
        global_trace_cache().clear()
        clear_program_cache()
        outcome = grade_traced(
            self_test, cpu, tracer.finalize(), components=names,
            options=GradeOptions(collapse=True, reach=reach))
        for name in names:
            seconds[(phases, name, reach)] = outcome.grading_seconds[name]
    return seconds

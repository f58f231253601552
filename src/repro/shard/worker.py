"""The shard worker: one partition, one process, one event kernel.

A worker is a frame loop on a ``multiprocessing`` pipe.  For every
:class:`~repro.shard.frames.TaskFrame` it deserializes the partition
spec, deploys it under full state isolation (its *own* registry,
tracer, kernel counters — that is why the process boundary exists), and
drives it with the traffic phase replaced by the granted-injection
seam: packets arrive only inside granted virtual-time windows, and the
kernel never runs past a grant's horizon.

The conservative contract is asserted, not assumed: a granted packet
whose arrival predates the shard's clock raises
:class:`~repro.shard.frames.ShardProtocolError` — no shard ever
receives an event in its past.
"""

from __future__ import annotations

import contextlib
import traceback
from typing import Dict

from repro.shard.frames import (
    AckFrame,
    ErrorFrame,
    FinishFrame,
    GrantFrame,
    ResultFrame,
    ShardProtocolError,
    ShutdownFrame,
    TaskFrame,
    packet_from_frame,
    registry_to_frame,
    trace_events_to_frame,
)

#: When the grant phase's hold event would fire: never, in practice.
_HOLD_NS = 2 ** 62


def granted_packet_phase(built, conn, index: int):
    """Drive the traffic phase grant by grant (the worker-side half of
    the synchronized-virtual-time protocol).

    Replaces :meth:`BuiltScenario._drive_packets`: instead of injecting
    the whole schedule up front, packets arrive in
    :class:`GrantFrame` windows.  Each grant is executed with the
    kernel handoff hook (:meth:`Simulator.run_handoff`) and
    acknowledged; the engine never sends grant ``k+1`` before ack
    ``k``, so the arrival assertion below can only fire on an engine
    bug — and fires loudly rather than silently reordering time.
    """
    runtime = built.runtime
    runtime.begin()
    # Arrivals not yet granted are work still to come.  Hold one event
    # past every horizon until Finish, so kernel-driven samplers that
    # keep ticking only while other work is queued (the SLO
    # aggregator) rotate through idle gaps between grants, as they do
    # in a monolithic run with every arrival queued up front.
    hold = runtime.sim.schedule_at(_HOLD_NS, lambda: None)
    while True:
        frame = conn.recv()
        if isinstance(frame, FinishFrame):
            hold.cancel()
            return runtime.drain()
        if not isinstance(frame, GrantFrame) or frame.index != index:
            raise ShardProtocolError(
                f"partition {index}: expected a grant, got "
                f"{type(frame).__name__}")
        now_ns = runtime.sim.now_ns
        packets = []
        for entry in frame.packets:
            packet = packet_from_frame(entry)
            if packet.arrival_ns < now_ns:
                raise ShardProtocolError(
                    f"partition {index}: granted packet arrives at "
                    f"{packet.arrival_ns} ns but the shard clock is "
                    f"already at {now_ns} ns")
            packets.append(packet)
        runtime.inject(packets)
        report = runtime.sim.run_handoff(frame.horizon_ns)
        conn.send(AckFrame(
            index=index,
            now_ns=report.now_ns,
            executed=report.executed,
            next_event_ns=None if report.next_event_ns == _HOLD_NS
            else report.next_event_ns,
        ))


# ----------------------------------------------------------------------
# Task runners
# ----------------------------------------------------------------------


def _run_cell_task(conn, task: TaskFrame) -> Dict[str, object]:
    """Run one matrix-style partition; never raises (mirrors
    ``run_cell``'s error-record discipline so merged error reports are
    deterministic too)."""
    from repro.analysis.isosan import sanitized
    from repro.hw import events as hw_events
    from repro.obs import metrics, tracer
    from repro.obs.bench import _isolate, jsonable
    from repro.scenario.build import build_scenario
    from repro.scenario.spec import ScenarioSpec

    spec = ScenarioSpec.from_dict(task.spec)
    data: Dict[str, object] = {"name": spec.name}
    _isolate()
    try:
        scope = sanitized() if task.sanitize else contextlib.nullcontext()
        with scope:
            with build_scenario(spec) as built:
                outputs = built.drive(
                    quick=task.quick,
                    packet_phase=lambda b: granted_packet_phase(
                        b, conn, task.index))
                latencies = sorted(
                    t.latency_ns for t in built.runtime.stats.timings)
        data["status"] = "ok"
        data["outputs"] = jsonable(outputs)
        data["latencies"] = latencies
    except Exception:
        data["status"] = "error"
        data["error"] = traceback.format_exc(limit=8)
        data["latencies"] = []
    finally:
        stats = hw_events.kernel_stats()
        data["kernel"] = stats
        data["trace_events"] = trace_events_to_frame(
            tracer.get_tracer().events)
        data["registry"] = registry_to_frame(metrics.get_registry())
        _isolate()
    return data


def _run_slo_task(conn, task: TaskFrame) -> Dict[str, object]:
    """Run one SLO scorecard partition (raises on failure, like the
    monolithic ``run_spec``)."""
    from repro.obs import scorecard
    from repro.scenario.spec import ScenarioSpec

    spec = ScenarioSpec.from_dict(task.spec)
    result = scorecard.run_spec(
        spec,
        quick=task.quick,
        sanitize=task.sanitize,
        window_ns=task.window_ns,
        packet_phase=lambda b: granted_packet_phase(b, conn, task.index))
    return {"slo": result}


def _run_bench_task(_conn, task: TaskFrame) -> Dict[str, object]:
    """Run one benchmark script (no grant phase: a bench script owns
    its whole simulation)."""
    from pathlib import Path

    from repro.obs.bench import run_scenario

    record = run_scenario(Path(str(task.spec["path"])), quick=task.quick,
                          capture=bool(task.spec.get("capture", True)))
    return {"record": record.as_dict()}


_RUNNERS = {
    "cell": _run_cell_task,
    "slo": _run_slo_task,
    "bench": _run_bench_task,
}


def worker_main(conn) -> None:
    """The worker process entry point: a frame loop until shutdown.

    Grant/finish frames arriving outside a task are stale leftovers of
    a partition that errored mid-protocol (the engine keeps at most one
    unacked frame in flight) and are skipped.
    """
    while True:
        try:
            frame = conn.recv()
        except EOFError:
            return
        if isinstance(frame, ShutdownFrame):
            return
        if isinstance(frame, (GrantFrame, FinishFrame)):
            continue  # stale: the task it belonged to already failed
        if not isinstance(frame, TaskFrame):
            conn.send(ErrorFrame(
                index=-1,
                traceback=f"unexpected frame {type(frame).__name__}"))
            continue
        runner = _RUNNERS.get(frame.mode)
        if runner is None:
            conn.send(ErrorFrame(
                index=frame.index,
                traceback=f"unknown shard mode {frame.mode!r}"))
            continue
        try:
            data = runner(conn, frame)
        except Exception:
            conn.send(ErrorFrame(index=frame.index,
                                 traceback=traceback.format_exc(limit=8)))
            continue
        conn.send(ResultFrame(index=frame.index, data=data))


__all__ = ["granted_packet_phase", "worker_main"]

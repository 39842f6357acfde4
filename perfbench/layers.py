"""Per-layer spans recorded from outside the program, by wrapping.

The benchmark never edits the program. A :class:`Tracer` replaces a
layer's public functions and methods with wrappers that time each
call, and puts the originals back when it is closed. Spans nest: a
span's *self* time is its duration minus the time its child spans
cover, so ``runner.run``'s self time is the part of a run no named
layer accounts for (``unattributed.s``).

A wrapper whose name is already the innermost open span passes the call
straight through, so a batched override that calls its event-engine
base (``BatchedAdServer.plan_epoch`` -> ``AdServer.plan_epoch``) counts
once.

Spans live in the process that installed them. Shards that run in
``repro.dist`` worker processes are not seen; the ``dist`` workload
reports only the execution-plane spans of the parent.
"""

from __future__ import annotations

import math
import pickle
import time
from collections import defaultdict
from typing import Any, Callable

#: Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # World build.
    ("workloads.build_population.s", "s", "lower"),
    ("traces.generate.s", "s", "lower"),
    ("traces.generate.sessions", "count", "lower"),
    ("client.compile_timeline.s", "s", "lower"),
    ("client.compile_timeline.calls", "count", "lower"),
    # Per-run work derived from the world.
    ("traces.epoch_slot_counts.s", "s", "lower"),
    # Shard: the prefetch path.
    ("server.warm_up.s", "s", "lower"),
    ("server.plan_epoch.self_s", "s", "lower"),
    ("server.plan_epoch.calls", "count", "lower"),
    ("exchange.sell_ahead.s", "s", "lower"),
    ("exchange.sell_ahead.calls", "count", "lower"),
    ("client.run_epoch.self_s", "s", "lower"),
    ("client.run_epoch.calls", "count", "lower"),
    ("client.flush_overdue.s", "s", "lower"),
    ("server.sync.self_s", "s", "lower"),
    ("server.sync.calls", "count", "lower"),
    ("server.rescue.self_s", "s", "lower"),
    ("server.rescue.calls", "count", "lower"),
    ("server.realtime_fill.self_s", "s", "lower"),
    ("server.realtime_fill.calls", "count", "lower"),
    ("exchange.sell_now.prefetch.s", "s", "lower"),
    ("exchange.sell_now.prefetch.calls", "count", "lower"),
    ("server.observe_epoch.s", "s", "lower"),
    ("radio.device_finish.s", "s", "lower"),
    ("server.finalize.s", "s", "lower"),
    ("prefetch.useful_download_ratio", "ratio", "higher"),
    ("server.rescue.useful_ratio", "ratio", "higher"),
    ("exchange.sell_now.fill_ratio", "ratio", "higher"),
    # Shard: the real-time baseline.
    ("baselines.run_realtime.self_s", "s", "lower"),
    ("exchange.sell_now.realtime.s", "s", "lower"),
    ("exchange.sell_now.realtime.calls", "count", "lower"),
    # Execution plane.
    ("runner.task_bytes", "bytes", "lower"),
    ("runner.shard.s", "s", "lower"),
    ("runner.shard.max_s", "s", "lower"),
    ("runner.merge.s", "s", "lower"),
    ("dist.coordinator.s", "s", "lower"),
    ("dist.idle_s", "s", "lower"),
    ("dist.attempts", "count", "lower"),
    ("dist.requeues", "count", "lower"),
    ("dist.duplicates_discarded", "count", "lower"),
    ("unattributed.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Span recorder over wrapped functions; restores them on close."""

    def __init__(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.captured: dict[str, list[Any]] = defaultdict(list)
        self._stack: list[list[Any]] = []   # [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def span(self, owner: object, attr: str,
             name: str | Callable[..., str],
             on_return: Callable[..., None] | None = None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``name`` may be a function of the call's arguments.
        ``on_return(result, *args)`` runs after the span has closed.
        """
        original = getattr(owner, attr)
        stack = self._stack
        clock = time.perf_counter
        inclusive, self_time, calls = (self.inclusive, self.self_time,
                                       self.calls)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(*args)
            if stack and stack[-1][0] == label:
                return original(*args, **kwargs)
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                inclusive[label] += elapsed
                self_time[label] += elapsed - frame[1]
                calls[label] += 1
                if stack:
                    stack[-1][1] += elapsed
            if on_return is not None:
                on_return(result, *args)
            return result

        self._patch(owner, attr, wrapper)

    def observe(self, owner: object, attr: str,
                on_return: Callable[..., None]) -> None:
        """Call ``on_return(result, *args)`` after ``owner.attr``; no span."""
        original = getattr(owner, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            on_return(result, *args)
            return result

        self._patch(owner, attr, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def close(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def device_energy_check(tracer: Tracer, problems: list[str]) -> None:
    """Check every settled device: per-tag energy sums to its total.

    Installed on every in-process run, traced or not. It costs one
    dictionary sum per device settlement and opens no span.
    """
    from repro.client.device import Device
    from repro.sim.batched import LogDevice

    def check(_result: object, device: Any, *_args: object) -> None:
        tracer.counts["devices.settled"] += 1
        if isinstance(device, LogDevice):
            total = sum(device.energy_by_tag().values())
        else:
            total = device.radio.communication_energy()
        tagged = device.ad_energy() + device.app_energy()
        if not math.isclose(tagged, total, rel_tol=1e-12, abs_tol=1e-9):
            problems.append(
                f"device {device.user_id}: ad + app energy {tagged!r} "
                f"!= device total {total!r}")

    tracer.observe(Device, "finish", check)
    tracer.observe(LogDevice, "finish", check)


def install_spans(tracer: Tracer) -> None:
    """Wrap the public functions of the world, shard and execution layers."""
    import repro.experiments.harness as harness
    import repro.runner as runner
    from repro.client.device import Device
    from repro.client.sdk import AdClient
    from repro.dist.coordinator import Coordinator
    from repro.exchange.marketplace import Exchange
    from repro.server.adserver import AdServer
    from repro.sim.batched import BatchedAdServer, BatchedExchange, LogDevice
    from repro.traces.generator import TraceGenerator

    counts, captured = tracer.counts, tracer.captured

    # World build.
    tracer.span(harness, "build_population", "workloads.build_population")

    def sessions(trace: Any, *_args: object) -> None:
        counts["traces.generate.sessions"] += sum(
            len(user.sessions) for user in trace.users.values())

    tracer.span(TraceGenerator, "generate", "traces.generate", sessions)
    tracer.span(harness, "compile_timeline", "client.compile_timeline")
    tracer.span(runner, "epoch_slot_counts", "traces.epoch_slot_counts")

    # Shard layer: each method on the event class and its batched override.
    for cls in (AdServer, BatchedAdServer):
        for method in ("warm_up", "plan_epoch", "sync", "rescue",
                       "realtime_fill", "observe_epoch", "finalize"):
            if method in cls.__dict__:
                tracer.span(cls, method, f"server.{method}")

    def sold(sale: Any, *_args: object) -> None:
        counts["exchange.sell_now.sales"] += sale is not None

    def sell_now_name(exchange: Any, *_args: object) -> str:
        if exchange.component.startswith("realtime"):
            return "exchange.sell_now.realtime"
        return "exchange.sell_now.prefetch"

    for cls in (Exchange, BatchedExchange):
        tracer.span(cls, "sell_ahead", "exchange.sell_ahead")
        tracer.span(cls, "sell_now", sell_now_name, sold)
    tracer.span(AdClient, "run_epoch", "client.run_epoch")
    tracer.span(AdClient, "flush_overdue", "client.flush_overdue")
    tracer.span(Device, "finish", "radio.device_finish")
    tracer.span(LogDevice, "finish", "radio.device_finish")
    tracer.span(harness, "_run_realtime_engine", "baselines.run_realtime")

    # Execution plane.
    tracer.span(runner.Runner, "run", "runner.run")
    tracer.observe(runner.Runner, "_tasks",
                   lambda tasks, *_: captured["tasks"].append(tasks))
    tracer.observe(runner, "run_shard_task",
                   lambda shard, *_: captured["shards"].append(shard))
    for merge in ("_merge_prefetch", "_merge_realtime", "compare"):
        tracer.span(runner, merge, "runner.merge")

    def coordinated(shards: Any, coordinator: Any) -> None:
        captured["shards"].extend(shards)
        counts["dist.workers"] = coordinator.workers

    tracer.span(Coordinator, "run", "dist.coordinator", coordinated)


def layer_metrics(tracer: Tracer, results: list[Any]) -> dict[str, float]:
    """The per-layer numbers of one traced iteration.

    ``results`` are the iteration's ``RunResult`` objects. Wall-clock
    spans come from the tracer; counts and ratios come from the run
    results and the wrappers' captures.
    """
    inc, own, calls = tracer.inclusive, tracer.self_time, tracer.calls
    counts, captured = tracer.counts, tracer.captured
    out: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        for suffix, table in ((".self_s", own), (".s", inc),
                              (".calls", calls)):
            if name.endswith(suffix):
                out[name] = float(table.get(name[:-len(suffix)], 0))
    out["traces.generate.sessions"] = counts["traces.generate.sessions"]
    cached = sum(r.prefetch.cached_displays for r in results)
    wasted = sum(r.prefetch.wasted_downloads for r in results)
    rescued = sum(r.prefetch.rescued_displays for r in results)
    auctions = (calls.get("exchange.sell_now.prefetch", 0)
                + calls.get("exchange.sell_now.realtime", 0))
    out["prefetch.useful_download_ratio"] = _ratio(cached, cached + wasted)
    out["server.rescue.useful_ratio"] = _ratio(
        rescued, calls.get("server.rescue", 0))
    out["exchange.sell_now.fill_ratio"] = _ratio(
        counts["exchange.sell_now.sales"], auctions)
    out["runner.task_bytes"] = float(sum(
        len(pickle.dumps(task)) for tasks in captured["tasks"]
        for task in tasks))
    shard_times = [shard.elapsed_s for shard in captured["shards"]]
    out["runner.shard.s"] = sum(shard_times)
    out["runner.shard.max_s"] = max(shard_times, default=0.0)
    workers = counts["dist.workers"]
    out["dist.idle_s"] = (workers * inc.get("dist.coordinator", 0.0)
                          - sum(shard_times)) if workers else 0.0
    for field in ("attempts", "requeues", "duplicates_discarded"):
        out[f"dist.{field}"] = float(sum(
            getattr(r.dist, field) for r in results if r.dist is not None))
    out["unattributed.s"] = own.get("runner.run", 0.0)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

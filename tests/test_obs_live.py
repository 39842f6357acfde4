"""Tests for the live telemetry plane (repro.obs.live).

Covers the beat record round-trip, the wall-clock-throttled emitter,
the straggler/stall watchdog under an injected fake clock, the
progress renderer's TTY/pipe modes, and — the hard invariant — that
runs with live telemetry on are bit-identical to runs with it off at
jobs 1 and 4.
"""

from __future__ import annotations

import io
import time

import pytest

from repro.obs.ledger import snapshot_digest
from repro.obs.live import (
    BeatEmitter,
    CallbackTransport,
    LiveAggregator,
    LiveOptions,
    LivePlane,
    NullBeatEmitter,
    ProgressRenderer,
    ShardBeat,
    StragglerEvent,
    render_progress,
    shard_heartbeat,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Obs, ObsOptions
from repro.obs.trace import MemoryRecorder
from repro.runner import Runner


class FakeClock:
    """Deterministic monotonic clock for watchdog/throttle tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ---------------------------------------------------------------------
# ShardBeat record
# ---------------------------------------------------------------------


def test_shard_beat_round_trip():
    beat = ShardBeat(shard_index=3, n_shards=8, seq=5, watermark_s=86400.0,
                     done=4, total=10, users=50, events_done=1234,
                     counters={"throughput.events_total": 17.0},
                     rss_bytes=1 << 20, final=True)
    assert ShardBeat.from_jsonable(beat.to_jsonable()) == beat


@pytest.mark.parametrize("field,value", [
    ("shard_index", "three"), ("seq", 1.5), ("watermark_s", "soon"),
    ("counters", [1, 2]), ("done", True),
])
def test_shard_beat_from_jsonable_rejects_wrong_types(field, value):
    payload = ShardBeat(shard_index=0, n_shards=1, seq=0,
                        watermark_s=0.0).to_jsonable()
    payload[field] = value
    with pytest.raises(ValueError, match=field):
        ShardBeat.from_jsonable(payload)


# ---------------------------------------------------------------------
# BeatEmitter: throttle, counter deltas, forced beats
# ---------------------------------------------------------------------


def test_emitter_throttles_on_wall_clock():
    clock = FakeClock()
    seen: list[ShardBeat] = []
    emitter = BeatEmitter(CallbackTransport(seen.append), shard_index=0,
                          n_shards=2, interval_s=10.0, clock=clock)
    assert emitter.beat(100.0) is not None       # first beat passes
    clock.advance(5.0)
    assert emitter.beat(200.0) is None           # throttled
    clock.advance(6.0)
    assert emitter.beat(300.0) is not None       # window elapsed
    assert [b.watermark_s for b in seen] == [100.0, 300.0]
    assert [b.seq for b in seen] == [0, 1]       # seq counts published only


def test_emitter_forced_and_final_bypass_throttle():
    clock = FakeClock()
    seen: list[ShardBeat] = []
    emitter = BeatEmitter(CallbackTransport(seen.append), shard_index=1,
                          n_shards=2, interval_s=1e9, clock=clock)
    assert emitter.beat(0.0, force=True) is not None
    assert emitter.beat(1.0) is None
    assert emitter.beat(2.0, final=True) is not None
    assert emitter.beat(3.0, failed=True) is not None
    assert [b.final for b in seen] == [False, True, False]
    assert seen[-1].failed


def test_emitter_counters_are_deltas():
    clock = FakeClock()
    seen: list[ShardBeat] = []
    registry = MetricsRegistry()
    emitter = BeatEmitter(CallbackTransport(seen.append), shard_index=0,
                          n_shards=1, interval_s=0.0, clock=clock,
                          registry=registry)
    registry.counter("shard.events").inc(10)
    clock.advance(1.0)
    emitter.beat(1.0)
    registry.counter("shard.events").inc(5)
    clock.advance(1.0)
    emitter.beat(2.0)
    clock.advance(1.0)
    emitter.beat(3.0)
    assert seen[0].counters == {"shard.events": 10.0}
    assert seen[1].counters == {"shard.events": 5.0}
    assert seen[2].counters == {}                # no change, no payload


def test_null_emitter_is_disabled_and_silent():
    emitter = NullBeatEmitter()
    assert emitter.enabled is False
    assert emitter.beat(1.0, final=True) is None


# ---------------------------------------------------------------------
# shard_heartbeat: the one shared helper (satellite: dedup)
# ---------------------------------------------------------------------


def test_shard_heartbeat_emits_instant_and_beat():
    recorder = MemoryRecorder(shard=2)
    seen: list[ShardBeat] = []
    beats = BeatEmitter(CallbackTransport(seen.append), shard_index=2,
                        n_shards=4, interval_s=0.0, clock=FakeClock())
    obs = Obs.create(recorder, beats)
    shard_heartbeat(obs, 3600.0, component="prefetch", done=2, total=7,
                    users=10, events_done=55)
    [event] = obs.recorder.events()
    assert (event.component, event.name) == ("shard", "heartbeat")
    assert event.ts == 3600.0
    assert event.args == {"component": "prefetch", "done": 2, "total": 7,
                          "users": 10, "events_done": 55}
    [beat] = seen
    assert (beat.watermark_s, beat.done, beat.total) == (3600.0, 2, 7)


def test_shard_heartbeat_noop_without_instruments():
    obs = Obs.create()                           # Null recorder + emitter
    shard_heartbeat(obs, 1.0, component="prefetch", done=1, total=1,
                    users=1, events_done=1)
    assert obs.recorder.events() == []


def test_heartbeat_instants_identical_across_backends(tiny_config,
                                                      tiny_world):
    """Trace parity: both backends emit the same heartbeat instants."""
    def heartbeats(backend):
        result = Runner(tiny_config, shards=2, world=tiny_world,
                        backend=backend,
                        obs=ObsOptions(trace=True)).run("headline")
        return [(e.ts, e.shard, e.args) for e in result.trace_events
                if (e.component, e.name) == ("shard", "heartbeat")]

    event_hb = heartbeats("event")
    batched_hb = heartbeats("batched")
    assert event_hb and event_hb == batched_hb
    components = {args["component"] for _, _, args in event_hb}
    assert components == {"prefetch", "realtime"}


# ---------------------------------------------------------------------
# Watchdog: fake-clock stall/lag detection (satellite: coverage)
# ---------------------------------------------------------------------


def _beat(shard, watermark=0.0, seq=0, **kw):
    return ShardBeat(shard_index=shard, n_shards=2, seq=seq,
                     watermark_s=watermark, **kw)


def test_watchdog_stall_fires_at_threshold_and_clears_on_late_beat():
    clock = FakeClock()
    events: list[StragglerEvent] = []
    agg = LiveAggregator(2, LiveOptions(stall_after_s=10.0),
                         clock=clock, on_straggler=events.append)
    agg.ingest(_beat(0))
    agg.ingest(_beat(1))
    clock.advance(9.9)
    assert agg.check() == []                     # inside the window
    clock.advance(0.2)                           # 10.1s of silence
    fired = agg.check()
    assert {e.shard_index for e in fired} == {0, 1}
    assert all(e.kind == "stall" for e in fired)
    assert agg.check() == []                     # fires once per episode
    # A late beat clears the flag and reports recovery.
    agg.ingest(_beat(1, seq=1))
    recoveries = [e for e in events if e.kind == "recovered"]
    assert [e.shard_index for e in recoveries] == [1]
    assert not agg.view(1).stalled and agg.view(0).stalled
    # The cleared shard re-arms: a fresh silence window refires.
    clock.advance(10.2)
    refired = agg.check()
    assert [e.shard_index for e in refired] == [1]


def test_watchdog_flags_watermark_laggard():
    clock = FakeClock()
    events: list[StragglerEvent] = []
    agg = LiveAggregator(3, LiveOptions(stall_after_s=1e9,
                                        lag_threshold_s=1000.0),
                         clock=clock, on_straggler=events.append)
    agg.ingest(ShardBeat(shard_index=0, n_shards=3, seq=0,
                         watermark_s=50_000.0))
    agg.ingest(ShardBeat(shard_index=1, n_shards=3, seq=0,
                         watermark_s=50_000.0))
    agg.ingest(ShardBeat(shard_index=2, n_shards=3, seq=0,
                         watermark_s=100.0))
    lagging = agg.check()
    assert [e.shard_index for e in lagging] == [2]
    assert lagging[0].kind == "lag"
    assert lagging[0].median_watermark_s == 50_000.0
    # Catching up clears the flag without an event.
    agg.ingest(ShardBeat(shard_index=2, n_shards=3, seq=1,
                         watermark_s=49_800.0))
    assert agg.check() == []
    assert not agg.view(2).lagging


def test_watchdog_ignores_finished_shards():
    clock = FakeClock()
    agg = LiveAggregator(2, LiveOptions(stall_after_s=10.0), clock=clock)
    agg.ingest(_beat(0, final=True))
    agg.ingest(_beat(1))
    clock.advance(20.0)
    assert [e.shard_index for e in agg.check()] == [1]
    assert agg.view(0).done and not agg.view(0).stalled


def test_aggregator_snapshot_folds_progress():
    clock = FakeClock()
    agg = LiveAggregator(4, LiveOptions(), clock=clock)
    agg.ingest(ShardBeat(shard_index=0, n_shards=4, seq=0,
                         watermark_s=10.0, done=5, total=10,
                         events_done=100, rss_bytes=512))
    agg.ingest(ShardBeat(shard_index=1, n_shards=4, seq=0,
                         watermark_s=30.0, done=10, total=10,
                         events_done=300, rss_bytes=1024, final=True))
    snap = agg.snapshot()
    assert snap.n_shards == 4 and snap.started == 2 and snap.done == 1
    assert snap.beats == 2
    assert snap.events_done == 400
    assert snap.progress == pytest.approx((0.5 + 1.0 + 0.0 + 0.0) / 4)
    assert snap.min_watermark_s == 10.0
    assert snap.peak_rss_bytes == 1024


# ---------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------


class _TtyStream(io.StringIO):
    def isatty(self):
        return True


def test_renderer_piped_output_is_line_oriented():
    stream = io.StringIO()
    renderer = ProgressRenderer(stream)
    agg = LiveAggregator(2, LiveOptions(), clock=FakeClock())
    renderer.render(agg.snapshot())
    renderer.render(agg.snapshot())              # unchanged: not rewritten
    agg.ingest(_beat(0, final=True))
    renderer.render(agg.snapshot())
    renderer.close()
    out = stream.getvalue()
    assert "\r" not in out and "\x1b" not in out
    lines = out.splitlines()
    assert len(lines) == 2                       # one per *distinct* state
    assert all(line.startswith("[live] ") for line in lines)
    assert "shards 1/2 done" in lines[1]


def test_renderer_tty_output_refreshes_one_line():
    stream = _TtyStream()
    renderer = ProgressRenderer(stream)
    agg = LiveAggregator(2, LiveOptions(), clock=FakeClock())
    renderer.render(agg.snapshot())
    agg.ingest(_beat(0, final=True))
    renderer.render(agg.snapshot())
    renderer.close()
    out = stream.getvalue()
    assert out.count("\r") == 2                  # one refresh per render
    assert out.endswith("\n")                    # close terminates the line


def test_render_progress_flags_trouble():
    clock = FakeClock()
    agg = LiveAggregator(2, LiveOptions(stall_after_s=1.0), clock=clock)
    agg.ingest(_beat(0))
    agg.ingest(_beat(1, failed=True))
    clock.advance(2.0)
    agg.check()
    line = render_progress(agg.snapshot())
    assert "STALLED" in line and "FAILED 1" in line


# ---------------------------------------------------------------------
# The hard invariant: live on == live off, jobs 1 and 4
# ---------------------------------------------------------------------


def _run(tiny_config, tiny_world, parallelism, live, tmp_path=None):
    options = None
    if live:
        options = ObsOptions(live=LiveOptions(
            beat_interval_s=0.01,
            postmortem_dir=tmp_path / "postmortems"))
    return Runner(tiny_config, shards=4, world=tiny_world,
                  parallelism=parallelism, obs=options).run("headline")


def test_live_runs_bit_identical_jobs1_and_jobs4(tiny_config, tiny_world,
                                                 tmp_path):
    plain = _run(tiny_config, tiny_world, 1, live=False)
    live_1 = _run(tiny_config, tiny_world, 1, True, tmp_path)
    live_4 = _run(tiny_config, tiny_world, 4, True, tmp_path)
    for live in (live_1, live_4):
        assert live.prefetch == plain.prefetch
        assert live.realtime == plain.realtime
        assert live.comparison == plain.comparison
        assert live.result_metrics() == plain.result_metrics()
        assert snapshot_digest(live.metrics) == snapshot_digest(
            plain.metrics)
        assert live.postmortems == ()


def test_healthy_run_never_trips_watchdog(tiny_config, tiny_world,
                                          tmp_path, caplog):
    """Default thresholds stay silent on a healthy run the machine can
    actually schedule. The worker count adapts to the box: on a 1-CPU
    container four workers get time-sliced so hard that the OS itself
    manufactures sim-time stragglers — which the watchdog would rightly
    flag, failing a "healthy" assertion that was never true there."""
    import logging
    import os

    jobs = 4 if (os.cpu_count() or 1) >= 4 else 1
    with caplog.at_level(logging.WARNING, logger="repro.obs.live"):
        result = _run(tiny_config, tiny_world, jobs, True, tmp_path)
    assert result.postmortems == ()
    pm_dir = tmp_path / "postmortems"
    assert not (pm_dir.exists() and list(pm_dir.glob("*.json")))
    assert "stalled" not in caplog.text
    assert "straggling" not in caplog.text


def test_live_plane_serial_collects_beats(tiny_config, tiny_world):
    plane = LivePlane(LiveOptions(beat_interval_s=0.0), n_shards=2,
                      system="realtime", parallel=False)
    plane.start()
    setup = plane.worker_setup()
    from repro.runner import run_shard_task
    runner = Runner(tiny_config, shards=2, world=tiny_world)
    world = runner.source.world_for(tiny_config)
    tasks = runner._tasks("realtime", world)
    for task in tasks:
        run_shard_task(task, setup)
    plane.finish()
    snap = plane.aggregator.snapshot()
    assert snap.done == 2 and snap.failed == 0
    assert snap.beats >= 4                       # hello + final per shard
    assert plane.postmortems == []


def test_live_plane_finish_does_not_wait_out_the_poll():
    # The drain thread blocks in a Manager-queue ``get`` for up to
    # ``poll_s``; finish() must wake it instead of joining through the
    # wait, and still ingest a beat published just before it.
    plane = LivePlane(LiveOptions(beat_interval_s=0.0), n_shards=1,
                      parallel=True)
    plane._poll_s = 30.0
    plane.start()
    thread = plane._thread
    try:
        time.sleep(0.2)                  # let the drain enter its get()
        plane.worker_setup().transport.publish(
            ShardBeat(shard_index=0, n_shards=1, seq=0, watermark_s=0.0,
                      final=True))
        started = time.monotonic()
        plane.finish()
        elapsed = time.monotonic() - started
    finally:
        plane._stop.set()
    assert elapsed < 2.0, f"finish() took {elapsed:.2f}s"
    assert not thread.is_alive()
    assert plane.aggregator.snapshot().done == 1

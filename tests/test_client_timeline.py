"""Unit tests for timeline compilation."""

import numpy as np
import pytest

from repro.client.timeline import (
    KIND_APP,
    KIND_APP_STREAM,
    KIND_SLOT,
    KIND_SLOT_START,
    compile_timeline,
    compile_trace,
)
from repro.radio.profiles import THREE_G, WIFI
from repro.sim.rng import RngRegistry
from repro.traces.schema import Session, UserTrace
from repro.workloads.appstore import TOP15, get_app


def _user_with(sessions) -> UserTrace:
    user = UserTrace("u1", "wp")
    for s in sessions:
        user.add(s)
    user.sort()
    return user


def test_offline_game_emits_only_slots():
    app = get_app("puzzle_blocks")    # offline, 30 s refresh
    user = _user_with([Session("u1", app.app_id, 100.0, 65.0)])
    timeline = compile_timeline(user, [app], THREE_G)
    assert timeline.slot_count() == 3
    assert timeline.kinds.tolist() == [KIND_SLOT_START, KIND_SLOT, KIND_SLOT]
    assert timeline.times.tolist() == [100.0, 130.0, 160.0]
    assert all(p == 0.0 for p in timeline.payload)   # app index


def test_chatty_app_emits_discrete_requests():
    app = get_app("daily_weather")    # 60 s interval > 3G high tail (5 s)
    user = _user_with([Session("u1", app.app_id, 0.0, 120.0)])
    timeline = compile_timeline(user, [app], THREE_G)
    app_events = timeline.kinds == KIND_APP
    assert app_events.sum() == 3      # t = 0, 60, 120
    assert (timeline.payload[app_events] == app.app_request_bytes).all()


def test_streaming_app_collapses_to_span():
    app = get_app("internet_radio")   # 4 s interval < 5 s high tail
    user = _user_with([Session("u1", app.app_id, 50.0, 300.0)])
    timeline = compile_timeline(user, [app], THREE_G)
    streams = timeline.kinds == KIND_APP_STREAM
    assert streams.sum() == 1
    assert timeline.payload[streams][0] == pytest.approx(300.0)


def test_events_sorted_across_sessions():
    app = get_app("puzzle_blocks")
    user = _user_with([Session("u1", app.app_id, 500.0, 10.0),
                       Session("u1", app.app_id, 0.0, 10.0)])
    timeline = compile_timeline(user, [app], THREE_G)
    assert (np.diff(timeline.times) >= 0).all()
    # Each session's first slot is a session-start event.
    starts = timeline.kinds == KIND_SLOT_START
    assert starts.sum() == 2


def test_window_slicing_half_open():
    app = get_app("puzzle_blocks")
    user = _user_with([Session("u1", app.app_id, 0.0, 95.0)])
    timeline = compile_timeline(user, [app], THREE_G)
    times, kinds, _ = timeline.window(30.0, 90.0)
    assert times.tolist() == [30.0, 60.0]
    assert timeline.first_slot_in(30.0, 90.0) == 30.0
    assert timeline.first_slot_in(1000.0, 2000.0) is None


def test_compile_trace_covers_all_users(tiny_world):
    assert set(tiny_world.timelines) == set(tiny_world.trace.users)
    total_slots = sum(t.slot_count() for t in tiny_world.timelines.values())
    refresh = tiny_world.refresh_of
    expected = sum(len(u.slots(refresh))
                   for u in tiny_world.trace.users.values())
    assert total_slots == expected


def test_user_without_sessions_compiles_to_empty_arrays():
    timeline = compile_timeline(UserTrace("u1", "wp"), TOP15, THREE_G)
    assert len(timeline) == 0
    assert (timeline.times.dtype, timeline.kinds.dtype,
            timeline.payload.dtype) == (np.float64, np.int8, np.float64)


def _oracle_timeline(user, apps, profile):
    """The list-built definition the array compiler must reproduce."""
    app_index = {a.app_id: i for i, a in enumerate(apps)}
    times, kinds, payload = [], [], []
    for session in user.sessions:
        app = apps[app_index[session.app_id]]
        for i, t in enumerate(session.slot_times(app.ad_refresh_s)):
            times.append(t)
            kinds.append(KIND_SLOT_START if i == 0 else KIND_SLOT)
            payload.append(float(app_index[session.app_id]))
        if app.app_request_interval_s is None:
            continue
        if app.app_request_interval_s < profile.high_tail_time:
            times.append(session.start)
            kinds.append(KIND_APP_STREAM)
            payload.append(session.duration)
        else:
            for t in session.app_request_times(app.app_request_interval_s):
                times.append(t)
                kinds.append(KIND_APP)
                payload.append(float(app.app_request_bytes))
    order = np.argsort(np.asarray(times, dtype=np.float64), kind="stable")
    return (np.asarray(times, dtype=np.float64)[order],
            np.asarray(kinds, dtype=np.int8)[order],
            np.asarray(payload, dtype=np.float64)[order])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("profile", [THREE_G, WIFI], ids=lambda p: p.name)
def test_array_compile_matches_list_oracle_with_ties(seed, profile):
    # Overlapping sessions on a coarse start grid give many equal
    # timestamps across slots, requests and streams; the stable sort
    # must order them exactly as the session-by-session lists did.
    rng = RngRegistry(seed).fresh("timeline-oracle")
    user = UserTrace("u1", "wp")
    for _ in range(40):
        app = TOP15[int(rng.integers(len(TOP15)))]
        user.add(Session("u1", app.app_id, 30.0 * int(rng.integers(60)),
                         float(rng.choice([0.0, 29.999, 60.0,
                                           rng.uniform(0.0, 900.0)]))))
    user.sort()
    timeline = compile_timeline(user, TOP15, profile)
    for got, want in zip((timeline.times, timeline.kinds, timeline.payload),
                         _oracle_timeline(user, TOP15, profile)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

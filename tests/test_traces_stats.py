"""Unit tests for trace characterization statistics."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry
from repro.traces.generator import TraceConfig, TraceGenerator
from repro.traces.schema import SECONDS_PER_HOUR, Session, Trace, UserTrace
from repro.traces.stats import (
    cdf,
    epoch_slot_counts,
    hour_of_day_profile,
    hourly_slot_counts,
    refresh_map,
    slots_per_user_day,
    summarize,
    user_hourly_slot_counts,
)
from repro.workloads.appstore import TOP15
from repro.workloads.population import PopulationConfig, build_population


def _hand_trace() -> tuple[Trace, dict[str, float]]:
    """Two users, two days, slot counts computable by hand."""
    trace = Trace(n_days=2)
    # u1: one 65 s session at 10:00 day 0 in a 30 s-refresh app -> 3 slots.
    trace.add_session(Session("u1", "g", 10 * SECONDS_PER_HOUR, 65.0))
    # u1: one 10 s session at 10:30 day 1 -> 1 slot.
    trace.add_session(Session("u1", "g", 34.5 * SECONDS_PER_HOUR, 10.0))
    # u2: one 130 s session at 20:00 day 0 in a 60 s-refresh app -> 3 slots.
    trace.add_session(Session("u2", "m", 20 * SECONDS_PER_HOUR, 130.0))
    return trace, {"g": 30.0, "m": 60.0}


def test_slots_per_user_day_by_hand():
    trace, refresh = _hand_trace()
    matrix = slots_per_user_day(trace, refresh)
    # Rows sorted by user id: u1, u2.
    assert matrix.tolist() == [[3, 1], [3, 0]]


def test_hourly_slot_counts_by_hand():
    trace, refresh = _hand_trace()
    hourly = hourly_slot_counts(trace, refresh)
    assert hourly[10] == 3
    assert hourly[20] == 3
    assert hourly[34] == 1
    assert hourly.sum() == 7
    assert user_hourly_slot_counts(trace, "u2", refresh)[20] == 3


def test_epoch_slot_counts_hourly_and_coarser():
    trace, refresh = _hand_trace()
    hourly = epoch_slot_counts(trace, refresh, 3600.0)
    assert hourly["u1"][10] == 3
    assert hourly["u1"][34] == 1
    two_hourly = epoch_slot_counts(trace, refresh, 7200.0)
    assert two_hourly["u1"][5] == 3      # hours 10-11 -> epoch 5
    assert two_hourly["u2"][10] == 3     # hours 20-21 -> epoch 10
    with pytest.raises(ValueError):
        epoch_slot_counts(trace, refresh, 0.0)


def test_summarize_by_hand():
    trace, refresh = _hand_trace()
    summary = summarize(trace, refresh)
    assert summary.n_users == 2
    assert summary.n_slots == 7
    assert summary.slots_per_user_day_mean == pytest.approx(7 / 4)
    assert summary.active_user_fraction == 1.0
    assert summary.peak_hour in (10, 20)


def test_hour_of_day_profile_sums_to_one():
    trace, refresh = _hand_trace()
    profile = hour_of_day_profile(trace, refresh)
    assert profile.sum() == pytest.approx(1.0)
    # Hour 10 collects u1's day-0 slots (3) plus its day-1 slot at 10:30.
    assert profile[10] == pytest.approx(4 / 7)
    assert profile[20] == pytest.approx(3 / 7)


def test_hour_of_day_profile_rejects_empty_trace():
    with pytest.raises(ValueError):
        hour_of_day_profile(Trace(n_days=1), {})


def test_cdf_properties():
    values, probs = cdf(np.array([3.0, 1.0, 2.0, 2.0]))
    assert values.tolist() == [1.0, 2.0, 2.0, 3.0]
    assert probs[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cdf(np.array([]))


def test_refresh_map_covers_catalog():
    refresh = refresh_map(TOP15)
    assert len(refresh) == 15
    assert all(v > 0 for v in refresh.values())


# -- array slot counting vs the per-AdSlot definition ------------------


def _oracle_epoch_slot_counts(trace, refresh_of, epoch_s):
    """The original definition: one AdSlot per slot, counted one by one."""
    n_epochs = int(np.ceil(trace.horizon / epoch_s))
    out = {}
    for user in trace.sorted_users():
        counts = np.zeros(n_epochs, dtype=np.int64)
        for slot in user.slots(refresh_of):
            idx = int(slot.time // epoch_s)
            if 0 <= idx < n_epochs:
                counts[idx] += 1
        out[user.user_id] = counts
    return out


def _oracle_trace(seed):
    """A generated trace plus a silent user and sessions at the horizon."""
    registry = RngRegistry(seed)
    population = build_population(PopulationConfig(n_users=12),
                                  registry.stream("population"), TOP15)
    trace = TraceGenerator(TOP15, TraceConfig(n_days=3),
                           registry.stream("trace")).generate(population)
    trace.users["zz-silent"] = UserTrace("zz-silent", "wp")
    horizon = trace.horizon
    app = TOP15[0].app_id
    # Clamped at the horizon the way the generator clamps...
    trace.add_session(Session("zz-edge", app, horizon - 100.0, 100.0 - 1e-6))
    # ...and overrunning it, so late slots fall past the last epoch.
    trace.add_session(Session("zz-edge", app, horizon - 50.0, 400.0))
    trace.add_session(Session("zz-edge", app, 0.0, 0.0))
    trace.users["zz-edge"].sort()
    return trace


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_epoch_slot_counts_match_per_slot_oracle(seed):
    trace = _oracle_trace(seed)
    refresh = refresh_map(TOP15)
    epochs = RngRegistry(seed).fresh("epochs").uniform(1.0, 20000.0, size=6)
    for epoch_s in [3600.0, 7000.0, 86400.0, 3 * 86400.0, *epochs.tolist()]:
        got = epoch_slot_counts(trace, refresh, epoch_s)
        want = _oracle_epoch_slot_counts(trace, refresh, epoch_s)
        assert list(got) == list(want)
        for uid in want:
            assert got[uid].dtype == np.int64
            assert np.array_equal(got[uid], want[uid]), (uid, epoch_s)
        assert not got["zz-silent"].any()


def test_day_and_hour_counts_match_per_slot_oracle():
    trace = _oracle_trace(4)
    refresh = refresh_map(TOP15)
    days = _oracle_epoch_slot_counts(trace, refresh, 86400.0)
    assert np.array_equal(slots_per_user_day(trace, refresh),
                          np.stack(list(days.values())))
    hours = _oracle_epoch_slot_counts(trace, refresh, SECONDS_PER_HOUR)
    assert np.array_equal(hourly_slot_counts(trace, refresh),
                          sum(hours.values()))
    assert np.array_equal(user_hourly_slot_counts(trace, "zz-edge", refresh),
                          hours["zz-edge"])

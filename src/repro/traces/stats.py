"""Trace characterization (experiment E3 and model calibration).

All functions take a :class:`~repro.traces.schema.Trace` plus the app
catalog's refresh intervals and produce the statistics the paper plots:
per-user slot volume, the population's hourly rhythm, and day-over-day
self-similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diurnal import HOURS_PER_DAY, autocorrelation_lag_one_day
from .schema import SECONDS_PER_HOUR, Trace, UserTrace, periodic_times


def refresh_map(apps) -> dict[str, float]:
    """app_id -> ad refresh period, from any AppProfile iterable."""
    return {a.app_id: a.ad_refresh_s for a in apps}


def _epoch_counts(users: list[UserTrace], refresh_of: dict[str, float],
                  epoch_s: float, n_epochs: int) -> np.ndarray:
    """Slot counts per user (row) and epoch, shape ``(len(users), n_epochs)``.

    A slot at time ``t`` counts in epoch ``t // epoch_s`` when that lies
    in ``[0, n_epochs)``. Slot times are the exact floats of
    :meth:`UserTrace.slots`, built with :func:`periodic_times`.
    """
    out = np.zeros((len(users), n_epochs), dtype=np.int64)
    for row, user in enumerate(users):
        starts = np.array([s.start for s in user.sessions], dtype=np.float64)
        durations = np.array([s.duration for s in user.sessions],
                             dtype=np.float64)
        periods = np.array([refresh_of[s.app_id] for s in user.sessions],
                           dtype=np.float64)
        times, _, _ = periodic_times(
            starts, 1 + (durations // periods).astype(np.int64), periods)
        epoch = times // epoch_s
        epoch = epoch[(epoch >= 0) & (epoch < n_epochs)].astype(np.int64)
        out[row] = np.bincount(epoch, minlength=n_epochs)
    return out


def slots_per_user_day(trace: Trace, refresh_of: dict[str, float]) -> np.ndarray:
    """Matrix of ad-slot counts, shape (n_users, n_days).

    Users are ordered by sorted user id.
    """
    return _epoch_counts(trace.sorted_users(), refresh_of,
                         HOURS_PER_DAY * SECONDS_PER_HOUR, trace.n_days)


def hourly_slot_counts(trace: Trace, refresh_of: dict[str, float]) -> np.ndarray:
    """Population-wide slot counts per absolute hour, shape (n_days*24,)."""
    return _epoch_counts(trace.sorted_users(), refresh_of, SECONDS_PER_HOUR,
                         trace.n_days * HOURS_PER_DAY).sum(axis=0)


def user_hourly_slot_counts(trace: Trace, user_id: str,
                            refresh_of: dict[str, float]) -> np.ndarray:
    """One user's slot counts per absolute hour."""
    return _epoch_counts([trace.user(user_id)], refresh_of, SECONDS_PER_HOUR,
                         trace.n_days * HOURS_PER_DAY)[0]


def cdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative probabilities)."""
    v = np.sort(np.asarray(values).ravel())
    if v.size == 0:
        raise ValueError("cdf of empty data")
    p = np.arange(1, v.size + 1) / v.size
    return v, p


@dataclass(frozen=True, slots=True)
class TraceSummary:
    """Headline characterization numbers for a trace (E3's table)."""

    n_users: int
    n_days: int
    n_sessions: int
    n_slots: int
    slots_per_user_day_mean: float
    slots_per_user_day_median: float
    slots_per_user_day_p90: float
    active_user_fraction: float      # users with >= 1 slot
    peak_hour: int                   # busiest hour of day (population)
    day_over_day_autocorrelation: float


def summarize(trace: Trace, refresh_of: dict[str, float]) -> TraceSummary:
    """Compute the E3 characterization summary."""
    per_ud = slots_per_user_day(trace, refresh_of)
    hourly = hourly_slot_counts(trace, refresh_of)
    by_hour_of_day = hourly.reshape(trace.n_days, HOURS_PER_DAY).sum(axis=0)
    flat = per_ud.ravel().astype(float)
    autocorr = (autocorrelation_lag_one_day(hourly.astype(float))
                if trace.n_days >= 2 else float("nan"))
    return TraceSummary(
        n_users=trace.n_users,
        n_days=trace.n_days,
        n_sessions=trace.n_sessions(),
        n_slots=int(per_ud.sum()),
        slots_per_user_day_mean=float(flat.mean()) if flat.size else 0.0,
        slots_per_user_day_median=float(np.median(flat)) if flat.size else 0.0,
        slots_per_user_day_p90=float(np.percentile(flat, 90)) if flat.size else 0.0,
        active_user_fraction=float((per_ud.sum(axis=1) > 0).mean()) if per_ud.size else 0.0,
        peak_hour=int(np.argmax(by_hour_of_day)),
        day_over_day_autocorrelation=autocorr,
    )


def hour_of_day_profile(trace: Trace, refresh_of: dict[str, float]) -> np.ndarray:
    """Fraction of all slots falling in each hour of day (sums to 1)."""
    hourly = hourly_slot_counts(trace, refresh_of)
    by_hour = hourly.reshape(trace.n_days, HOURS_PER_DAY).sum(axis=0).astype(float)
    total = by_hour.sum()
    if total == 0:
        raise ValueError("trace has no slots")
    return by_hour / total


def epoch_slot_counts(trace: Trace, refresh_of: dict[str, float],
                      epoch_s: float) -> dict[str, np.ndarray]:
    """Per-user slot counts in consecutive epochs of ``epoch_s`` seconds.

    This is the series the predictors are trained/evaluated on. The
    per-user arrays are rows of one ``int64`` matrix, in sorted user-id
    order.
    """
    if epoch_s <= 0:
        raise ValueError("epoch_s must be positive")
    n_epochs = int(np.ceil(trace.horizon / epoch_s))
    users = trace.sorted_users()
    counts = _epoch_counts(users, refresh_of, epoch_s, n_epochs)
    return {user.user_id: row for user, row in zip(users, counts)}

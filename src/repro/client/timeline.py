"""Per-client event timelines compiled from a trace.

The end-to-end simulations replay, per client, a chronological stream of
three event kinds:

* ``SLOT`` — an ad rotation fired while an app was in foreground;
* ``APP`` — one app-originated request/response;
* ``APP_STREAM`` — a continuous-activity span (chatty apps whose request
  gaps are shorter than the radio's first tail stage collapse into one
  span with identical radio energy).

Compiling the trace once into flat numpy arrays makes epoch slicing a
pair of ``searchsorted`` calls instead of a discrete-event queue with
millions of entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.radio.profiles import RadioProfile
from repro.traces.schema import Trace, UserTrace, periodic_times
from repro.workloads.appstore import AppProfile

KIND_SLOT = 0
KIND_APP = 1
KIND_APP_STREAM = 2
#: First ad slot of a foreground session (app launch) — the SDK's
#: natural check-in point.
KIND_SLOT_START = 3


@dataclass(slots=True)
class ClientTimeline:
    """One client's chronological event stream.

    ``payload`` is bytes for ``APP`` events, the span duration (seconds)
    for ``APP_STREAM`` events, and the catalog app index for ``SLOT``
    events (so fallback auctions know the slot's category).
    """

    user_id: str
    platform: str
    times: np.ndarray      # float64, sorted
    kinds: np.ndarray      # int8
    payload: np.ndarray    # float64

    def __len__(self) -> int:
        return int(self.times.size)

    def slot_count(self) -> int:
        return int(((self.kinds == KIND_SLOT)
                    | (self.kinds == KIND_SLOT_START)).sum())

    def window(self, start: float, end: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Events with ``start <= time < end`` (views, not copies)."""
        lo = int(np.searchsorted(self.times, start, side="left"))
        hi = int(np.searchsorted(self.times, end, side="left"))
        return self.times[lo:hi], self.kinds[lo:hi], self.payload[lo:hi]

    def first_slot_in(self, start: float, end: float) -> float | None:
        """Time of the first SLOT event in [start, end), or None."""
        times, kinds, _ = self.window(start, end)
        idx = np.flatnonzero((kinds == KIND_SLOT) | (kinds == KIND_SLOT_START))
        if idx.size == 0:
            return None
        return float(times[idx[0]])


def compile_timeline(user: UserTrace, apps: Sequence[AppProfile],
                     profile: RadioProfile) -> ClientTimeline:
    """Compile one user's sessions into a :class:`ClientTimeline`.

    Each session contributes a run of ad slots, then a run of app
    events; the runs are expanded as arrays (:func:`periodic_times`) in
    session order and then stably sorted by time, so ties keep that
    order.
    """
    app_index = {a.app_id: i for i, a in enumerate(apps)}
    sessions = user.sessions
    idx = np.array([app_index[s.app_id] for s in sessions], dtype=np.int64)
    start = np.array([s.start for s in sessions], dtype=np.float64)
    duration = np.array([s.duration for s in sessions], dtype=np.float64)
    # Per-catalog-app constants, gathered per session. Offline apps get
    # a NaN request interval, which is neither < nor >= the tail.
    interval = np.array([np.nan if a.app_request_interval_s is None
                         else a.app_request_interval_s for a in apps],
                        dtype=np.float64)[idx]
    # Streaming-class apps: the radio never leaves the active state
    # between requests — one continuous span, same energy.
    stream = interval < profile.high_tail_time
    requests = interval >= profile.high_tail_time
    request_s = np.where(requests, interval, 1.0)
    request_bytes = np.array([float(a.app_request_bytes) for a in apps],
                             dtype=np.float64)[idx]
    refresh_s = np.array([a.ad_refresh_s for a in apps], dtype=np.float64)[idx]
    n_slots = 1 + (duration // refresh_s).astype(np.int64)
    n_app = np.where(requests, 1 + (duration // request_s).astype(np.int64),
                     stream.astype(np.int64))
    # Rows 2i and 2i+1 are session i's slot run and app-event run.
    times, rows, k = periodic_times(
        np.repeat(start, 2),
        np.column_stack([n_slots, n_app]).ravel(),
        np.column_stack([refresh_s, request_s]).ravel())
    sess = rows // 2
    is_slot = rows % 2 == 0
    kinds = np.where(
        is_slot, np.where(k == 0, KIND_SLOT_START, KIND_SLOT),
        np.where(stream[sess], KIND_APP_STREAM, KIND_APP)).astype(np.int8)
    payload = np.where(
        is_slot, idx[sess].astype(np.float64),
        np.where(stream[sess], duration[sess], request_bytes[sess]))
    order = np.argsort(times, kind="stable")
    return ClientTimeline(
        user_id=user.user_id,
        platform=user.platform,
        times=times[order],
        kinds=kinds[order],
        payload=payload[order],
    )


def compile_trace(trace: Trace, apps: Sequence[AppProfile],
                  profile: RadioProfile) -> dict[str, ClientTimeline]:
    """Compile every user in a trace (sorted user-id order)."""
    return {
        user.user_id: compile_timeline(user, apps, profile)
        for user in trace.sorted_users()
    }

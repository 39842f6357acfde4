"""The status-quo baseline: real-time per-slot ad serving.

Every ad rotation runs an RTB auction and downloads the winning creative
on the spot — maximal revenue and freshness, maximal radio wakeups. This
is the system the paper measures to get "65% of communication energy"
and the denominator of every savings number.
"""

from __future__ import annotations

from typing import Sequence

from repro.client.device import Device
from repro.client.timeline import (KIND_APP, KIND_APP_STREAM, KIND_SLOT,
                                    KIND_SLOT_START, ClientTimeline)
from repro.exchange.marketplace import Exchange
from repro.faults.injector import FaultInjector
from repro.metrics.energy import aggregate_devices
from repro.metrics.outcomes import RealtimeOutcome
from repro.obs.live import shard_heartbeat
from repro.obs.runtime import current_obs
from repro.radio.profiles import RadioProfile
from repro.traces.schema import SECONDS_PER_DAY
from repro.workloads.appstore import AppProfile


def run_realtime(timelines: dict[str, ClientTimeline],
                 apps: Sequence[AppProfile],
                 profile: RadioProfile | dict[str, RadioProfile],
                 exchange: Exchange, start: float, end: float,
                 injector: FaultInjector | None = None,
                 device_cls: type = Device) -> RealtimeOutcome:
    """Replay ``[start, end)`` of every timeline under real-time serving.

    ``profile`` is one radio profile for everyone, or a per-user map
    (mixed 3G/LTE/WiFi populations). ``injector`` (optional) subjects
    every per-slot fetch to fault injection: a blocked attempt is an
    unfilled slot that still charged the radio for the failed request —
    real-time serving has no cache to fall back on. ``device_cls``
    selects the radio accountant (the batched backend passes
    :class:`repro.sim.batched.LogDevice`).
    """
    if end <= start:
        raise ValueError("empty simulation window")
    apps = list(apps)
    obs = current_obs()
    impressions_counter = obs.metrics.counter("realtime.impressions")
    unfilled_counter = obs.metrics.counter("realtime.unfilled_slots")
    wakeups_counter = obs.metrics.counter("realtime.radio.wakeups")
    # Shared throughput totals (see repro.obs.resources): deterministic
    # numerators for users/sec and events/sec, identical on the event
    # and batched backends because this loop is the backend itself.
    obs.metrics.counter("throughput.users_total").inc(len(timelines))
    events_counter = obs.metrics.counter("throughput.events_total")
    events_done = 0
    impressions = 0
    unfilled = 0
    devices: list[Device] = []
    n_users = len(timelines)
    for index, uid in enumerate(sorted(timelines)):
        timeline = timelines[uid]
        user_profile = (profile[uid] if isinstance(profile, dict)
                        else profile)
        device = device_cls(uid, user_profile)
        devices.append(device)
        faults = injector.for_user(uid) if injector is not None else None
        times, kinds, payload = timeline.window(start, end)
        events_counter.inc(int(times.size))
        events_done += int(times.size)
        if index % 32 == 31 or index == n_users - 1:
            # Per-shard progress heartbeat via the shared helper: the
            # sim-time trace instant (stamped at the window end, so
            # the trace stays deterministic at any parallelism and on
            # both backends) plus the live-plane beat when active.
            shard_heartbeat(obs, end, component="realtime",
                            done=index + 1, total=n_users,
                            users=n_users, events_done=events_done)
        # Python scalars: each event goes to pure-Python code.
        for t, kind, p in zip(times.tolist(), kinds.tolist(),
                              payload.tolist()):
            if faults is not None and faults.dark(t):
                break  # device churned away: no further events
            if kind == KIND_SLOT or kind == KIND_SLOT_START:
                if faults is not None and not faults.attempt(t):
                    unfilled += 1
                    nbytes = faults.plan.failed_attempt_bytes
                    if nbytes:
                        device.ad_fetch(t, nbytes)
                    continue
                app = apps[int(p)]
                sale = exchange.sell_now(t, category=app.category,
                                         platform=timeline.platform)
                if sale is None:
                    unfilled += 1
                    continue
                device.ad_fetch(t, sale.creative_bytes)
                impressions += 1
            elif kind == KIND_APP:
                device.app_request(t, int(p))
            elif kind == KIND_APP_STREAM:
                device.app_streaming(t, p)
        device.finish(end)
        wakeups_counter.inc(device.wakeups)
    impressions_counter.inc(impressions)
    unfilled_counter.inc(unfilled)
    days = (end - start) / SECONDS_PER_DAY
    return RealtimeOutcome(
        energy=aggregate_devices(devices, days),
        billed_revenue=exchange.billed_revenue,
        impressions=impressions,
        unfilled_slots=unfilled,
    )

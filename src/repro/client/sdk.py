"""The client ad SDK.

Runs inside each (simulated) app process. Per prefetch epoch it:

1. **checks in** at the first ad slot — reporting displays since the
   previous sync, receiving invalidations and its new staggered queue,
   and downloading the batch in one radio transfer;
2. **serves slots locally** from the cache (zero radio cost);
3. **falls back** to the classic real-time fetch when the cache is dry.

The sync deliberately rides the first slot rather than the epoch
boundary: at that moment an app is in foreground, so the radio wakeup
the batch costs is the *only* ad-related wakeup of the epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.overbooking import Assignment
from repro.faults.injector import UserFaults
from repro.obs.runtime import current_obs
from repro.workloads.appstore import AppProfile

from .cache import AdQueue
from .device import Device
from .timeline import (KIND_APP, KIND_APP_STREAM, KIND_SLOT,
                        KIND_SLOT_START, ClientTimeline)


@dataclass(slots=True)
class ClientStats:
    """Lifetime counters of one SDK instance."""

    cached_displays: int = 0
    rescued_displays: int = 0
    fallback_displays: int = 0
    house_displays: int = 0
    syncs: int = 0

    @property
    def total_slots(self) -> int:
        return (self.cached_displays + self.rescued_displays
                + self.fallback_displays + self.house_displays)


class AdClient:
    """One user's SDK: cache, device, and the per-epoch protocol."""

    def __init__(self, timeline: ClientTimeline, device: Device,
                 apps: Sequence[AppProfile],
                 report_delay_s: float = 900.0,
                 report_bytes: int = 200,
                 faults: UserFaults | None = None) -> None:
        self.timeline = timeline
        self.device = device
        self.apps = list(apps)
        self.queue = AdQueue()
        self.stats = ClientStats()
        self.report_delay_s = report_delay_s
        self.report_bytes = report_bytes
        self.faults = faults
        self._pending_reports: list[tuple[int, float]] = []
        # Sync retry state (reset per epoch): failed attempts so far and
        # the earliest time the next backoff retry may fire.
        self._sync_attempts = 0
        self._sync_retry_at: float | None = None
        obs = current_obs()
        self._recorder = obs.recorder
        self._sync_counter = obs.metrics.counter("client.syncs")
        self._beacon_counter = obs.metrics.counter("client.beacons")
        self._sync_bytes = obs.metrics.histogram("client.sync.bytes")
        self._display_counters = {
            outcome: obs.metrics.counter(f"client.displays.{outcome}")
            for outcome in ("cached", "rescued", "fallback", "house")}
        # Resilience instruments exist only on faulty runs so fault-free
        # metrics snapshots stay byte-identical to pre-fault builds.
        if faults is not None:
            self._retry_counter = obs.metrics.counter("sdk.retries")
            self._sync_failures = obs.metrics.counter("sdk.sync_failures")
            self._beacon_failures = obs.metrics.counter("sdk.beacon_failures")
            self._backoff_hist = obs.metrics.histogram("sdk.backoff_wait_s")

    @property
    def user_id(self) -> str:
        return self.timeline.user_id

    def run_epoch(self, start: float, end: float, server) -> None:
        """Replay this client's events in ``[start, end)``.

        ``server`` is an :class:`~repro.server.adserver.AdServer`; the
        first slot of the window triggers the sync.
        """
        times, kinds, payload = self.timeline.window(start, end)
        synced = False
        self._sync_attempts = 0
        self._sync_retry_at = None
        dark = False
        faults = self.faults
        device = self.device
        # Python scalars: every event below reaches pure-Python code,
        # where numpy scalars would cost a conversion per use.
        times_l = times.tolist()
        for t, kind, p in zip(times_l, kinds.tolist(), payload.tolist()):
            if faults is not None and faults.dark(t):
                dark = True  # device churned away: no further events
                break
            if kind == KIND_SLOT or kind == KIND_SLOT_START:
                if not synced:
                    if self._sync_due(t):
                        synced = self._attempt_sync(t, server)
                elif kind == KIND_SLOT_START and (len(self.queue)
                                                  or self._pending_reports):
                    # App launch mid-epoch: check in so stale replicas
                    # are invalidated before this session displays them
                    # (and pending deliveries arrive early).
                    self._attempt_sync(t, server)
                self._serve_slot(t, int(p), server)
                self._maybe_beacon(t, server)
            elif kind == KIND_APP:
                device.app_request(t, int(p))
                self._piggyback_reports(t, server)  # radio warm
            elif kind == KIND_APP_STREAM:
                device.app_streaming(t, p)
                self._piggyback_reports(t, server)  # radio warm
            else:  # pragma: no cover - timeline compiler emits only 4 kinds
                raise ValueError(f"unknown event kind {kind}")
        if times_l and not dark:
            self.flush_overdue(times_l[-1], end, server)

    def _sync_due(self, now: float) -> bool:
        """Is a (re)sync attempt allowed at ``now`` this epoch?

        The first attempt is always due; after a failure, the next
        attempt waits out its exponential backoff and the whole epoch
        gives up once the retry budget is spent.
        """
        if self._sync_attempts == 0:
            return True
        return self._sync_retry_at is not None and now >= self._sync_retry_at

    def _attempt_sync(self, now: float, server) -> bool:
        """One gated sync attempt; schedules a backoff retry on failure.

        A lost attempt still cost a radio transfer (the request went
        out), charged at the plan's ``failed_attempt_bytes``; the
        pending impression reports stay queued for the retry — the
        deferred-report queue.
        """
        faults = self.faults
        if faults is not None and self._sync_attempts > 0:
            self._retry_counter.inc()
        if faults is None or faults.attempt(now):
            self._sync(now, server)
            self._sync_retry_at = None
            return True
        self._sync_failures.inc()
        plan = faults.plan
        if plan.failed_attempt_bytes:
            self.device.ad_fetch(now, plan.failed_attempt_bytes)
        self._sync_attempts += 1
        if self._sync_attempts <= plan.max_retries:
            wait = faults.backoff_wait(self._sync_attempts)
            self._backoff_hist.observe(wait)
            self._sync_retry_at = now + wait
        else:
            self._sync_retry_at = None  # retry budget exhausted this epoch
        return False

    def _sync(self, now: float, server) -> None:
        """Check in: report, reconcile, download the new batch."""
        response = server.sync(self.user_id, now, self._pending_reports)
        self._pending_reports = []
        delay = self.faults.sync_delay() if self.faults is not None else 0.0
        arrival = now + delay
        self.queue.invalidate(response.invalidated_ids)
        # Merge before expiring: ads that are already past (or reach)
        # their deadline by the time the download lands must be counted
        # as deadline losses, not silently skipped.
        self.queue.install(response.assignments)
        self.queue.drop_expired(arrival)
        self.device.ad_fetch(now, response.nbytes, extra_s=delay)
        self.stats.syncs += 1
        self._sync_counter.inc()
        self._sync_bytes.observe(response.nbytes)
        if self._recorder.enabled:
            self._recorder.instant(
                now, "client", "sync",
                args={"user": self.user_id, "n_bytes": response.nbytes,
                      "n_ads": len(response.assignments)})

    def _serve_slot(self, now: float, app_index: int, server) -> None:
        """Fill one ad slot: cache first, fallback second."""
        sale = self.queue.pop_for_display(now)
        if sale is not None:
            server.record_display(sale.sale_id, self.user_id, now)
            self._pending_reports.append((sale.sale_id, now))
            self.stats.cached_displays += 1
            self._display_counters["cached"].inc()
            return
        if self.faults is not None and not self.faults.attempt(now):
            # Dry cache and the server is unreachable: the rescue /
            # realtime request dies in flight. The attempt still woke
            # the radio; the slot degrades to a house ad.
            nbytes = self.faults.plan.failed_attempt_bytes
            if nbytes:
                self.device.ad_fetch(now, nbytes)
            self.stats.house_displays += 1
            self._display_counters["house"].inc()
            return
        # Dry cache: first try to rescue sold-but-unshown ads — this
        # client is demonstrably consuming slots right now.
        rescued = server.rescue(self.user_id, now)
        if rescued:
            nbytes = sum(s.creative_bytes for s in rescued)
            self.device.ad_fetch(now, nbytes)
            self.queue.install([Assignment(s) for s in rescued])
            self._flush_reports(now, server)  # piggyback on the fetch
            sale = self.queue.pop_for_display(now)
            if sale is not None:
                server.record_display(sale.sale_id, self.user_id, now)
                self._pending_reports.append((sale.sale_id, now))
                # Report on the rescue fetch's still-open connection so
                # the original replicas are invalidated immediately.
                self._flush_reports(now, server)
                self.stats.rescued_displays += 1
                self._display_counters["rescued"].inc()
                return
        app = self.apps[app_index]
        fallback = server.realtime_fill(now, category=app.category,
                                        platform=self.timeline.platform)
        if fallback is not None:
            self.device.ad_fetch(now, fallback.creative_bytes)
            self._flush_reports(now, server)  # piggyback on the fetch
            self.stats.fallback_displays += 1
            self._display_counters["fallback"].inc()
        else:
            self.stats.house_displays += 1
            self._display_counters["house"].inc()

    def _flush_reports(self, now: float, server) -> None:
        """Hand pending impression reports to the server (free: the
        radio is already warm from the transfer we piggyback on); apply
        any invalidations the response carries.

        Callers must have cleared the fault gate for this contact
        already — the flush rides a transfer that is known to have
        reached the server."""
        if self._pending_reports:
            invalidated = server.report(self.user_id, self._pending_reports)
            self._pending_reports = []
            if invalidated:
                self.queue.invalidate(invalidated)

    def _piggyback_reports(self, now: float, server) -> None:
        """Opportunistic report flush on app traffic (free: radio warm).

        The app's own transfer succeeds regardless (app traffic is not
        the ad system's to lose), but the piggybacked report leg still
        crosses the ad network: under faults it can be lost, in which
        case the reports stay queued — the deferred-report queue.
        """
        if not self._pending_reports:
            return
        if self.faults is not None and not self.faults.attempt(now):
            return  # lost in flight: reports stay queued for later
        self._flush_reports(now, server)

    def flush_overdue(self, now: float, end: float, server) -> None:
        """Fire the SDK's background report timer if it is due.

        Real SDKs schedule an OS timer ``report_delay_s`` after the first
        unreported impression; it fires even when no app is running. The
        beacon's radio cost is charged at its actual firing time.
        """
        if not self._pending_reports:
            return
        due = self._pending_reports[0][1] + self.report_delay_s
        if due < end:
            beacon_at = max(due, now)
            if not self._beacon_attempt(beacon_at):
                return
            self.device.ad_fetch(beacon_at, self.report_bytes)
            self._flush_reports(beacon_at, server)
            self._beacon_counter.inc()
            if self._recorder.enabled:
                self._recorder.instant(beacon_at, "client", "beacon",
                                       args={"user": self.user_id,
                                             "kind": "timer"})

    def _beacon_attempt(self, now: float) -> bool:
        """Gate one impression beacon through the fault injector.

        A dark device costs nothing (it is off); a lost beacon still
        charged the radio for the failed request and keeps its reports
        queued for the next contact — the deferred-report queue.
        """
        if self.faults is None:
            return True
        if self.faults.dark(now):
            return False
        if self.faults.attempt(now):
            return True
        nbytes = self.faults.plan.failed_attempt_bytes
        if nbytes:
            self.device.ad_fetch(now, nbytes)
        self._beacon_failures.inc()
        return False

    def _maybe_beacon(self, now: float, server) -> None:
        """Flush reports with a dedicated beacon once they grow stale.

        This is the industry-standard batched impression beacon: it
        costs a real radio transfer (cheap when the tail is still warm,
        ~a full wakeup when not), bounding invalidation latency by
        ``report_delay_s``.
        """
        if not self._pending_reports:
            return
        oldest = self._pending_reports[0][1]
        if now - oldest >= self.report_delay_s:
            if not self._beacon_attempt(now):
                return
            self.device.ad_fetch(now, self.report_bytes)
            self._flush_reports(now, server)
            self._beacon_counter.inc()
            if self._recorder.enabled:
                self._recorder.instant(now, "client", "beacon",
                                       args={"user": self.user_id,
                                             "kind": "stale"})

"""The overbooking model: replica sets and queue positions for sold ads.

A sold ad must be displayed before its deadline (SLA) but should be
displayed only once (revenue). Clients under-deliver unpredictably, so
the server *overbooks*: it places copies of the ad on several clients
such that

``P(no replica is displayed before the deadline) = prod_i (1 - p_i) <= epsilon``

where ``p_i`` is the deadline-window show probability of replica *i*'s
queue position. The subtlety is the cost side: a replica whose position
is likely reached *quickly* (before sync-borne invalidation can remove
it) risks a duplicate — an unpaid impression. Positions deep in a busy
client's queue are the sweet spot: almost surely reached within a
multi-epoch deadline, rarely reached before the next sync.

The planner therefore works in two passes:

1. **Primaries** (price order): every sale takes the best available
   position by deadline-window probability — these are *supposed* to be
   displayed, so early display is not a cost.
2. **Backups** (neediest first): sales whose no-show probability still
   exceeds epsilon add replicas chosen by ``p_sla − λ·p_dup`` — maximal
   insurance per unit of duplicate risk.

Policies (ablation E10): ``staggered`` (the full model), ``greedy-
backfill`` (duplicate-blind backups, λ=0), ``random-k`` (fixed-count
random replication), ``no-replication``.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.exchange.marketplace import Sale

#: Positions with SLA probability below this are useless as replicas.
MIN_USEFUL_PROBABILITY = 1e-4


_Probe = Callable[[float, int], float]


def _probes(curve) -> tuple[_Probe, _Probe]:
    """The curve's ``(sla, epoch)`` probability functions, looked up once.

    Curves that expose only ``at_least`` (a single show-curve view) use
    it for both the deadline window and the duplicate window.
    """
    at_least = getattr(curve, "at_least", None)
    sla = getattr(curve, "sla", None) or at_least
    epoch = getattr(curve, "epoch", None) or at_least
    return sla, epoch


@dataclass(frozen=True, slots=True)
class Assignment:
    """One replica placed on one client's queue.

    ``active_from`` implements standby backups: the client must not
    display the ad before that time — the grace period in which the
    primary replica gets its chance and a sync can invalidate this copy
    without any duplicate risk.
    """

    sale: Sale
    active_from: float = 0.0

    @property
    def sale_id(self) -> int:
        return self.sale.sale_id


@dataclass(frozen=True, slots=True)
class ClientForecast:
    """Server-side snapshot of one client entering an epoch.

    Attributes
    ----------
    predicted:
        Predicted slot count for the coming epoch.
    backlog:
        Ads already queued (unshown, unexpired) from earlier epochs;
        new assignments sit behind them.
    capacity:
        Maximum number of new ads the client accepts this epoch.
    """

    client_id: str
    predicted: float
    backlog: int = 0
    capacity: int = 0

    def __post_init__(self) -> None:
        if self.predicted < 0:
            raise ValueError("predicted must be non-negative")
        if self.backlog < 0 or self.capacity < 0:
            raise ValueError("backlog/capacity must be non-negative")


@dataclass(slots=True)
class DispatchPlan:
    """Output of a policy: who gets which ad, in what queue order."""

    queues: dict[str, list[Assignment]] = field(default_factory=dict)
    replicas: dict[int, list[str]] = field(default_factory=dict)
    expected_violation: dict[int, float] = field(default_factory=dict)
    expected_duplicates: float = 0.0
    unplaced: list[Sale] = field(default_factory=list)

    def assignments(self) -> int:
        """Total ad copies dispatched."""
        return sum(len(q) for q in self.queues.values())

    def replication_factor(self) -> float:
        """Mean copies per placed sale (1.0 = no overbooking)."""
        if not self.replicas:
            return 0.0
        return self.assignments() / len(self.replicas)

    def replication_histogram(self) -> dict[int, int]:
        """#sales by replica count."""
        hist: dict[int, int] = {}
        for clients in self.replicas.values():
            hist[len(clients)] = hist.get(len(clients), 0) + 1
        return hist

    def mean_expected_violation(self) -> float:
        if not self.expected_violation:
            return 0.0
        return float(np.mean(list(self.expected_violation.values())))


@dataclass(slots=True)
class _Unit:
    """A consumed placement: client + probabilities at that position."""

    client_id: str
    p_sla: float
    p_dup: float


class _UnitPool:
    """Best-first pool of (client, next queue position) units.

    Each client exposes one unit at a time — its next free queue slot;
    consuming it reveals the next (deeper, lower-probability) one. The
    heap key is pluggable so the two planner passes can rank units
    differently.
    """

    def __init__(self, forecasts: list[ClientForecast], curve) -> None:
        self._sla, self._epoch = _probes(curve)
        self._forecast = {f.client_id: f for f in forecasts}
        self._next_pos: dict[str, int] = {}
        self._left: dict[str, int] = {}
        self._key: Callable[[float, float], float] = lambda p_sla, p_dup: p_sla
        # Entries are (-key, client_id, pos, p_sla, p_dup). The curve is
        # fixed while a plan runs, so the probabilities probed at push
        # are still exact at pop; (client_id, pos) is unique among
        # entries, so the trailing floats never take part in ordering.
        self._heap: list[tuple[float, str, int, float, float]] = []
        for f in forecasts:
            if f.capacity <= 0:
                continue
            self._next_pos[f.client_id] = 1
            self._left[f.client_id] = f.capacity
            self._push(f.client_id)

    def _push(self, client_id: str) -> None:
        f = self._forecast[client_id]
        next_pos = self._next_pos[client_id]
        pos = f.backlog + next_pos
        p_sla = self._sla(f.predicted, pos)
        p_dup = self._epoch(f.predicted, pos)
        heapq.heappush(self._heap, (-self._key(p_sla, p_dup), client_id,
                                    next_pos, p_sla, p_dup))

    def retarget(self, key: Callable[[float, float], float]) -> None:
        """Re-rank all current heads under a new key function."""
        self._key = key
        self._heap = []
        for client_id, left in self._left.items():
            if left > 0:
                self._push(client_id)

    def take_best(self, exclude: set[str]) -> _Unit | None:
        """Consume the best unit owned by a client not in ``exclude``."""
        stash: list[tuple[float, str, int, float, float]] = []
        taken: _Unit | None = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            _, client_id, pos, p_sla, p_dup = entry
            if pos != self._next_pos.get(client_id):
                continue  # stale entry from before a retarget/consume
            if client_id in exclude:
                stash.append(entry)
                continue
            taken = _Unit(client_id, p_sla, p_dup)
            self._left[client_id] -= 1
            self._next_pos[client_id] += 1
            if self._left[client_id] > 0:
                self._push(client_id)
            break
        for entry in stash:
            heapq.heappush(self._heap, entry)
        return taken


class DispatchPolicy(ABC):
    """Strategy deciding replica sets and positions for a batch of sales."""

    def __init__(self, epsilon: float = 0.01, max_replicas: int = 8) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if max_replicas < 1:
            raise ValueError("max_replicas must be >= 1")
        self.epsilon = epsilon
        self.max_replicas = max_replicas

    @abstractmethod
    def plan(self, sales: list[Sale], forecasts: list[ClientForecast],
             curve, rng: np.random.Generator | None = None,
             standby_until: float = 0.0) -> DispatchPlan:
        """Assign every sale to zero or more (client, position) units.

        ``standby_until`` is the activation time given to backup
        replicas (primaries are always active immediately).
        """

    def _new_plan(self, forecasts: list[ClientForecast]) -> DispatchPlan:
        plan = DispatchPlan()
        for f in forecasts:
            plan.queues[f.client_id] = []
        return plan

    @staticmethod
    def _assign(plan: DispatchPlan, sale: Sale, unit: _Unit,
                active_from: float = 0.0) -> None:
        plan.queues[unit.client_id].append(Assignment(sale, active_from))
        plan.replicas.setdefault(sale.sale_id, []).append(unit.client_id)


class StaggeredPolicy(DispatchPolicy):
    """The paper's model: primaries best-first, duplicate-aware backups.

    ``dup_penalty`` (λ) is the exchange rate between insurance value and
    duplicate risk when ranking backup positions.
    """

    def __init__(self, epsilon: float = 0.01, max_replicas: int = 8,
                 dup_penalty: float = 0.6) -> None:
        super().__init__(epsilon=epsilon, max_replicas=max_replicas)
        if dup_penalty < 0:
            raise ValueError("dup_penalty must be non-negative")
        self.dup_penalty = dup_penalty

    def plan(self, sales: list[Sale], forecasts: list[ClientForecast],
             curve, rng: np.random.Generator | None = None,
             standby_until: float = 0.0) -> DispatchPlan:
        plan = self._new_plan(forecasts)
        pool = _UnitPool(forecasts, curve)
        survival: dict[int, float] = {}
        dup_mass: dict[int, float] = {}
        owners: dict[int, set[str]] = {}
        placed: list[Sale] = []
        # Pass 1 — primaries, most valuable impressions first.
        for sale in sorted(sales, key=lambda s: -s.price):
            unit = pool.take_best(exclude=set())
            if unit is None:
                plan.unplaced.append(sale)
                continue
            self._assign(plan, sale, unit)
            owners[sale.sale_id] = {unit.client_id}
            survival[sale.sale_id] = 1.0 - unit.p_sla
            dup_mass[sale.sale_id] = 0.0  # the primary's display is paid
            placed.append(sale)
        # Pass 2 — backups where epsilon is unmet, neediest first,
        # ranked by insurance-per-duplicate-risk.
        lam = self.dup_penalty
        pool.retarget(lambda p_sla, p_dup: p_sla - lam * p_dup)
        if self.max_replicas > 1:
            needy = sorted(placed, key=lambda s: -survival[s.sale_id])
            for sale in needy:
                sid = sale.sale_id
                while (survival[sid] > self.epsilon
                       and len(owners[sid]) < self.max_replicas):
                    unit = pool.take_best(exclude=owners[sid])
                    if unit is None:
                        break
                    if unit.p_sla < MIN_USEFUL_PROBABILITY:
                        break
                    self._assign(plan, sale, unit, active_from=standby_until)
                    owners[sid].add(unit.client_id)
                    survival[sid] *= (1.0 - unit.p_sla)
                    dup_mass[sid] += unit.p_dup
        plan.expected_violation = survival
        plan.expected_duplicates = float(sum(dup_mass.values()))
        return plan


class GreedyBackfillPolicy(StaggeredPolicy):
    """Duplicate-blind variant: backups ranked purely by SLA probability.

    Identical structure to :class:`StaggeredPolicy` with λ=0 — the E10
    ablation isolating what duplicate-awareness buys.
    """

    def __init__(self, epsilon: float = 0.01, max_replicas: int = 8) -> None:
        super().__init__(epsilon=epsilon, max_replicas=max_replicas,
                         dup_penalty=0.0)


class RandomKPolicy(DispatchPolicy):
    """Fixed-``k`` replication on uniformly random capable clients.

    The strawman the overbooking model is compared against: it ignores
    both show probabilities and staggering, so it wastes duplicates on
    active clients and still misses deadlines on idle ones.
    """

    def __init__(self, k: int = 2, epsilon: float = 0.01,
                 max_replicas: int = 8) -> None:
        super().__init__(epsilon=epsilon, max_replicas=max_replicas)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = min(k, max_replicas)

    def plan(self, sales: list[Sale], forecasts: list[ClientForecast],
             curve, rng: np.random.Generator | None = None,
             standby_until: float = 0.0) -> DispatchPlan:
        if rng is None:
            raise ValueError("RandomKPolicy requires an rng")
        plan = self._new_plan(forecasts)
        sla, epoch = _probes(curve)
        capacity = {f.client_id: f.capacity for f in forecasts}
        state = {f.client_id: f for f in forecasts}
        next_pos = {f.client_id: 1 for f in forecasts}
        dup_total = 0.0
        for sale in sales:
            capable = [cid for cid, cap in capacity.items() if cap > 0]
            if not capable:
                plan.unplaced.append(sale)
                continue
            k = min(self.k, len(capable))
            chosen = rng.choice(len(capable), size=k, replace=False)
            survival = 1.0
            for rank, idx in enumerate(chosen):
                client_id = capable[int(idx)]
                f = state[client_id]
                pos = f.backlog + next_pos[client_id]
                p_sla = sla(f.predicted, pos)
                unit = _Unit(client_id, p_sla, epoch(f.predicted, pos))
                self._assign(plan, sale, unit,
                             active_from=standby_until if rank > 0 else 0.0)
                capacity[client_id] -= 1
                next_pos[client_id] += 1
                survival *= (1.0 - p_sla)
                if rank > 0:
                    dup_total += unit.p_dup
            plan.expected_violation[sale.sale_id] = survival
        plan.expected_duplicates = dup_total
        return plan


class NoReplicationPolicy(StaggeredPolicy):
    """One copy per sale at the best available position (naive prefetch)."""

    def __init__(self, epsilon: float = 0.01, max_replicas: int = 8) -> None:
        super().__init__(epsilon=epsilon, max_replicas=1)


_POLICIES: dict[str, Callable[..., DispatchPolicy]] = {
    "staggered": StaggeredPolicy,
    "greedy-backfill": GreedyBackfillPolicy,
    "random-k": RandomKPolicy,
    "no-replication": NoReplicationPolicy,
}


def make_policy(name: str, **kwargs) -> DispatchPolicy:
    """Build a dispatch policy by registry name."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {sorted(_POLICIES)}"
        ) from None
    return factory(**kwargs)


def policy_names() -> list[str]:
    """Registered dispatch-policy names, sorted."""
    return sorted(_POLICIES)

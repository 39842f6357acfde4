"""Golden digests of one ``headline`` shard: the serving path is bit-stable.

The digests below were recorded from the numpy-per-auction shard (one
``argsort`` per real-time auction, per-row numpy scalars in the bulk
sale, per-probe ``getattr`` in the dispatch planner, an eager
show-curve tail update per observation). Any rewrite of the serving
path must reproduce them exactly, on both backends:

* every sale from both exchanges (prefetch and real-time baseline):
  id, campaign, the price's exact bits, sale time and deadline;
* every epoch's :class:`~repro.server.adserver.EpochPlanStats`;
* every device's settled per-tag radio energy, prefetch then real-time.

The two backends are bit-identical, so one digest per seed serves both.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.client.device import Device
from repro.exchange.campaign import ANY
from repro.exchange.marketplace import Exchange, Sale
from repro.experiments import harness
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import ShardJob, build_world, execute_shard
from repro.sim.batched import BatchedExchange, LogDevice


def _recording_exchange(base: type[Exchange], log: list) -> type[Exchange]:
    """``base`` with every sale appended to ``log`` as ``(component, sale)``."""

    class Recording(base):  # type: ignore[valid-type, misc]
        def sell_now(self, now: float, category: str = ANY,
                     platform: str = ANY) -> Sale | None:
            sale = super().sell_now(now, category, platform)
            if sale is not None:
                log.append((self.component, sale))
            return sale

        def sell_ahead(self, now: float, count: int, deadline: float,
                       platform: str = ANY) -> list[Sale]:
            sales = super().sell_ahead(now, count, deadline, platform)
            log.extend((self.component, sale) for sale in sales)
            return sales

    return Recording


def _recording_device(base: type, log: list) -> type:
    """``base`` with every constructed device appended to ``log``."""

    class Recording(base):  # type: ignore[valid-type, misc]
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            log.append(self)

    return Recording


def _shard_digests(config: ExperimentConfig, backend: str,
                   monkeypatch: pytest.MonkeyPatch) -> dict[str, str]:
    sales_log: list[tuple[str, Sale]] = []
    devices_log: list = []
    for name, cls in (("Exchange", Exchange),
                      ("BatchedExchange", BatchedExchange)):
        monkeypatch.setattr(harness, name,
                            _recording_exchange(cls, sales_log))
    for name, cls in (("Device", Device), ("LogDevice", LogDevice)):
        monkeypatch.setattr(harness, name,
                            _recording_device(cls, devices_log))
    world = build_world(config)
    job = ShardJob.for_world(config, world, mode="headline", backend=backend)
    result = execute_shard(job)
    assert result.prefetch is not None and result.realtime is not None

    sales = hashlib.sha256()
    for component, s in sales_log:
        sales.update(f"{component}|{s.sale_id}|{s.campaign_id}|"
                     f"{s.price.hex()}|{s.sold_at.hex()}|"
                     f"{s.deadline.hex()};".encode())
    plans = hashlib.sha256()
    for st in result.prefetch.server.plan_stats:
        plans.update(f"{st.epoch_index}|{st.predicted_total.hex()}|"
                     f"{st.sold}|{st.assignments}|"
                     f"{float(st.replication_factor).hex()}|"
                     f"{float(st.expected_violation).hex()}|"
                     f"{st.unplaced};".encode())
    energy = hashlib.sha256()
    for device in devices_log:
        energy.update(f"{device.user_id}|".encode())
        by_tag = (device.energy_by_tag() if isinstance(device, LogDevice)
                  else device.radio.energy_by_tag())
        for tag, joules in sorted(by_tag.items()):
            energy.update(f"{tag}={joules.hex()};".encode())
    return {"sales": sales.hexdigest(), "plan_stats": plans.hexdigest(),
            "energy": energy.hexdigest(),
            "counts": f"{len(sales_log)}/{len(devices_log)}"}


GOLDEN = {
    3: {
        "sales": "d11d5a42817d0aad5bf4d2a534be4d8721572f876dee174b1d95c67570ee030c",
        "plan_stats": "a6d3bbacbb8caa6e0c942247fa27e8d96b49d9061842bf0f1ca613ad80502f4d",
        "energy": "dac6e31b3db14ed782cc3c075879d1d90b92d019d6c58b709b2edf6049a5856d",
        "counts": "20611/80",
    },
    11: {
        "sales": "e8787318002b18a15f3e5a9ddf2981f43485c8f26aeb679292bb5e5e39d878ed",
        "plan_stats": "412edbf95193707054ef1d04f48e50f0430ff405d0097f5c175567c91fbc92a0",
        "energy": "7f5e6f9a8af2dec0324a275499e9ff26c1c85939b4bd5da37dbd6f8fca9536f2",
        "counts": "17631/80",
    },
}


@pytest.mark.parametrize("backend", ["event", "batched"])
@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_headline_shard_matches_golden_digests(seed, backend, monkeypatch):
    config = ExperimentConfig(n_users=40, n_days=5, train_days=3, seed=seed,
                              wifi_fraction=0.3)
    assert _shard_digests(config, backend, monkeypatch) == GOLDEN[seed]

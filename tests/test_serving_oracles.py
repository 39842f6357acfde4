"""Oracle tests for the per-slot serving kernels.

The batched backend settles auctions and maintains show curves with
plain-Python kernels instead of numpy expressions on tiny arrays. The
numpy expressions they replace are kept here as references, and the
kernels must agree with them exactly — the same winner, the same price
bits, the same tail counts — on adversarial inputs: exact ties at the
top bid (where ``np.argsort`` is not stable above 16 elements), every
bid below the reserve, a lone live bidder, and pools at, below and
above ``max_bidders``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.showcurve import (
    BUCKET_EDGES,
    MAX_DEPTH,
    ShowCurveEstimator,
    poisson_tail,
)
from repro.exchange.auction import AuctionConfig
from repro.exchange.campaign import ANY, Campaign
from repro.exchange.marketplace import Exchange
from repro.sim.batched import BatchedExchange, clear_second_price
from repro.sim.rng import RngRegistry

# ----------------------------------------------------------------------
# Second-price clearing
# ----------------------------------------------------------------------


def _reference_clear(bids: np.ndarray,
                     reserve: float) -> tuple[int, float] | None:
    """The numpy winner/price expressions ``sell_now`` used to inline."""
    live = bids >= reserve
    n_live = int(live.sum())
    if n_live == 0:
        return None
    masked = np.where(live, bids, -np.inf)
    order = np.argsort(masked)
    col = int(order[-1])
    if n_live >= 2:
        price = max(float(masked[order[-2]]), reserve)
    else:
        price = reserve
    return col, price


#: A few distinct values, so exact ties (at the top and elsewhere) and
#: bids exactly at the reserve come up often.
_tie_prone = st.sampled_from([0.05, 0.1, 0.4, 0.75, 1.0, 1.5, 2.0])
_continuous = st.floats(min_value=0.0, max_value=5.0,
                        allow_nan=False, allow_infinity=False)


@given(bids=st.lists(st.one_of(_tie_prone, _continuous),
                     min_size=1, max_size=40),
       reserve=st.sampled_from([0.0, 0.1, 0.75, 1.0, 10.0]))
@settings(max_examples=400, deadline=None)
@example(bids=[1.0] * 17, reserve=0.1)            # tie above 16 elements
@example(bids=[0.05] * 5, reserve=0.1)            # every bid below reserve
@example(bids=[0.05, 2.0, 0.01], reserve=0.1)     # one live bidder
@example(bids=[2.0, 0.1], reserve=0.1)            # runner-up at the reserve
@example(bids=[1.5] + [0.4] * 30 + [1.5], reserve=0.1)
def test_clear_second_price_matches_numpy_reference(bids, reserve):
    array = np.array(bids, dtype=np.float64)
    got = clear_second_price(array, reserve)
    want = _reference_clear(array, reserve)
    assert got == want
    if got is not None:
        assert got[1].hex() == want[1].hex()


# ----------------------------------------------------------------------
# Whole auctions: BatchedExchange vs the event Exchange
# ----------------------------------------------------------------------


def _pool(bids: list[float]) -> list[Campaign]:
    return [Campaign(f"c{i}", f"adv{i}", bid, 1e6,
                     category=("news" if i % 3 else ANY),
                     platform=("ios" if i % 4 == 1 else ANY))
            for i, bid in enumerate(bids)]


@given(bids=st.lists(st.one_of(_tie_prone, _continuous.filter(bool)),
                     min_size=1, max_size=30),
       max_bidders=st.integers(min_value=1, max_value=24),
       sigma=st.sampled_from([0.0, 0.15]),
       reserve=st.sampled_from([0.1, 0.75, 10.0]),
       ops=st.lists(st.tuples(st.sampled_from(["now", "ahead"]),
                              st.sampled_from(["news", "games", ANY]),
                              st.integers(min_value=1, max_value=6)),
                    min_size=1, max_size=12),
       seed=st.integers(0, 2**31))
@settings(max_examples=120, deadline=None)
def test_batched_auctions_match_event_auctions(bids, max_bidders, sigma,
                                               reserve, ops, seed):
    """Pools below, at and above ``max_bidders``; ties when sigma is 0."""
    config = AuctionConfig(reserve_price=reserve, bid_jitter_sigma=sigma,
                           max_bidders=max_bidders)
    event = Exchange(_pool(bids), config, RngRegistry(seed).fresh("x"))
    batched = BatchedExchange(_pool(bids), config,
                              RngRegistry(seed).fresh("x"))
    now = 0.0
    for op, category, count in ops:
        now += 60.0
        if op == "now":
            a = event.sell_now(now, category=category, platform="android")
            b = batched.sell_now(now, category=category, platform="android")
            sales_a = [] if a is None else [a]
            sales_b = [] if b is None else [b]
        else:
            sales_a = event.sell_ahead(now, count, deadline=now + 3600.0,
                                       platform="android")
            sales_b = batched.sell_ahead(now, count, deadline=now + 3600.0,
                                         platform="android")
        assert sales_a == sales_b
        assert ([s.price.hex() for s in sales_a]
                == [s.price.hex() for s in sales_b])
        assert event.unsold_count == batched.unsold_count
    # Both sides consumed the stream identically.
    assert (event.rng.bit_generator.state
            == batched.rng.bit_generator.state)


def test_budget_exhaustion_tracks_event_exchange():
    """A campaign dropping out mid-batch updates the list mirrors."""
    config = AuctionConfig(reserve_price=0.1, bid_jitter_sigma=0.15,
                           max_bidders=2)

    def pool() -> list[Campaign]:
        return [Campaign(f"c{i}", f"adv{i}", 1.0 + i, 3.0 + i)
                for i in range(4)]

    event = Exchange(pool(), config, RngRegistry(5).fresh("x"))
    batched = BatchedExchange(pool(), config, RngRegistry(5).fresh("x"))
    for step in range(12):
        now = 60.0 * (step + 1)
        assert event.sell_ahead(now, 3, now + 600.0) == batched.sell_ahead(
            now, 3, now + 600.0)
        assert event.sell_now(now) == batched.sell_now(now)
        assert event.active_campaigns() == batched.active_campaigns()
        assert batched._active_list == batched._active_flags.tolist()
    assert event.active_campaigns() < 4


# ----------------------------------------------------------------------
# Show curve: lazy reverse-cumulative tail vs the eager update
# ----------------------------------------------------------------------


class _EagerEstimator:
    """The estimator's former eager update: one slice add per observation."""

    def __init__(self, min_samples: int) -> None:
        self.min_samples = min_samples
        n_buckets = len(BUCKET_EDGES) - 1
        self._tail_counts = np.zeros((n_buckets, MAX_DEPTH + 1),
                                     dtype=np.int64)
        self._totals = np.zeros(n_buckets, dtype=np.int64)

    def observe(self, predicted: float, actual: int) -> None:
        b = ShowCurveEstimator.bucket_of(predicted)
        upto = min(actual, MAX_DEPTH)
        self._tail_counts[b, : upto + 1] += 1
        self._totals[b] += 1

    def samples(self, predicted: float) -> int:
        return int(self._totals[ShowCurveEstimator.bucket_of(predicted)])

    def saturated_bucket(self, predicted: float) -> int | None:
        b = ShowCurveEstimator.bucket_of(predicted)
        return b if int(self._totals[b]) >= self.min_samples else None

    def empirical_tail(self, bucket: int, depth: int) -> float:
        return float(self._tail_counts[bucket, depth]) / int(
            self._totals[bucket])

    def at_least(self, predicted: float, j: int) -> float:
        if j <= 0:
            return 1.0
        prior = poisson_tail(predicted, j)
        b = ShowCurveEstimator.bucket_of(predicted)
        total = int(self._totals[b])
        if total == 0:
            return prior
        jj = min(j, MAX_DEPTH)
        empirical = float(self._tail_counts[b, jj]) / total
        if total >= self.min_samples:
            return empirical
        w = total / self.min_samples
        return w * empirical + (1.0 - w) * prior


_predicted = st.one_of(st.sampled_from(list(BUCKET_EDGES[:-1])),
                       st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False, allow_infinity=False))
_actual = st.one_of(st.just(0), st.integers(0, 20),
                    st.integers(MAX_DEPTH - 2, MAX_DEPTH + 50))
_depth = st.one_of(st.integers(-1, 25),
                   st.integers(MAX_DEPTH - 2, MAX_DEPTH + 10))
_curve_ops = st.lists(
    st.one_of(st.tuples(st.just("observe"), _predicted, _actual),
              st.tuples(st.just("read"), _predicted, _depth)),
    min_size=1, max_size=150)


@given(ops=_curve_ops, min_samples=st.integers(1, 8))
@settings(max_examples=150, deadline=None)
@example(ops=[("observe", 1.0, 0), ("read", 1.0, 1), ("observe", 1.0, 300),
              ("read", 1.0, MAX_DEPTH), ("read", 1.0, MAX_DEPTH + 5)],
         min_samples=1)
def test_lazy_tail_matches_eager_estimator(ops, min_samples):
    lazy = ShowCurveEstimator(min_samples)
    eager = _EagerEstimator(min_samples)
    for op, predicted, value in ops:
        if op == "observe":
            lazy.observe(predicted, value)
            eager.observe(predicted, value)
            continue
        assert lazy.samples(predicted) == eager.samples(predicted)
        bucket = lazy.saturated_bucket(predicted)
        assert bucket == eager.saturated_bucket(predicted)
        got = lazy.at_least(predicted, value)
        assert got.hex() == float(eager.at_least(predicted, value)).hex()
        if bucket is not None and value >= 0:
            depth = min(value, MAX_DEPTH)
            assert (lazy.empirical_tail(bucket, depth)
                    == eager.empirical_tail(bucket, depth))

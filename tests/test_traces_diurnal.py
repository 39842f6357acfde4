"""Unit tests for diurnal activity profiles."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry
from repro.traces.diurnal import (
    DAYPARTS,
    HOURS_PER_DAY,
    DiurnalProfile,
    autocorrelation_lag_one_day,
    choice_cdf,
    population_hourly_profile,
    random_profile,
)


def _uniformish():
    return DiurnalProfile(weights=(0.0,) * len(DAYPARTS), floor=1.0)


def test_hourly_pmf_sums_to_one(rng):
    profile = random_profile(rng)
    pmf = profile.hourly_pmf()
    assert pmf.shape == (HOURS_PER_DAY,)
    assert pmf.sum() == pytest.approx(1.0)
    assert (pmf > 0).all()


def test_flat_profile_is_uniform():
    pmf = _uniformish().hourly_pmf()
    assert np.allclose(pmf, 1.0 / HOURS_PER_DAY)


def test_evening_weighted_profile_peaks_in_evening():
    profile = DiurnalProfile(weights=(0.0, 0.0, 0.0, 1.0), floor=0.01)
    pmf = profile.hourly_pmf()
    assert 19 <= int(np.argmax(pmf)) <= 23


def test_phase_shifts_peak():
    base = DiurnalProfile(weights=(0.0, 0.0, 0.0, 1.0), floor=0.01)
    shifted = DiurnalProfile(weights=(0.0, 0.0, 0.0, 1.0), floor=0.01,
                             phase=3.0)
    delta = (int(np.argmax(shifted.hourly_pmf()))
             - int(np.argmax(base.hourly_pmf()))) % HOURS_PER_DAY
    assert delta == 3


def test_intensity_positive_everywhere(rng):
    profile = random_profile(rng)
    hours = np.linspace(0, 24, 97)
    assert all(profile.intensity(float(h)) > 0 for h in hours)


def test_sample_hour_in_range(rng):
    profile = random_profile(rng)
    samples = [profile.sample_hour(rng) for _ in range(200)]
    assert all(0.0 <= h < 24.0 for h in samples)


def test_sample_hour_follows_pmf(rng):
    profile = DiurnalProfile(weights=(0.0, 0.0, 0.0, 1.0), floor=0.02)
    samples = np.array([profile.sample_hour(rng) for _ in range(3000)])
    evening = ((samples >= 18) & (samples < 24)).mean()
    night = ((samples >= 2) & (samples < 6)).mean()
    assert evening > 5 * night


def _guard_pmfs(seed):
    """A random profile's PMF plus arbitrary PMFs, some with zero hours."""
    rng = RngRegistry(seed).fresh("pmfs")
    yield random_profile(rng).hourly_pmf()
    for zeros in (0, 1, 12, 23):
        pmf = rng.dirichlet(np.full(HOURS_PER_DAY, 0.5))
        pmf[rng.permutation(HOURS_PER_DAY)[:zeros]] = 0.0
        yield pmf / pmf.sum()


@pytest.mark.parametrize("seed", range(25))
def test_choice_cdf_draws_exactly_what_choice_draws(seed):
    # Trace synthesis relies on this identity to draw session hours
    # from a per-user CDF; a numpy change that breaks it must fail here
    # rather than silently shift every trace.
    for pmf in _guard_pmfs(seed):
        cdf = choice_cdf(pmf)
        ours = RngRegistry(seed).fresh("draws")
        theirs = RngRegistry(seed).fresh("draws")
        for _ in range(400):
            hour = int(cdf.searchsorted(ours.random(), side="right"))
            assert hour == int(theirs.choice(HOURS_PER_DAY, p=pmf))
        assert ours.random() == theirs.random()      # same stream position


@pytest.mark.parametrize("seed", range(10))
def test_sample_hour_matches_choice_then_uniform(seed):
    profile = random_profile(RngRegistry(seed).fresh("profile"))
    cdf = choice_cdf(profile.hourly_pmf())
    ours = RngRegistry(seed).fresh("draws")
    theirs = RngRegistry(seed).fresh("draws")
    for i in range(300):
        expected = (int(theirs.choice(HOURS_PER_DAY, p=profile.hourly_pmf()))
                    + float(theirs.uniform(0.0, 1.0)))
        # With and without a prebuilt CDF: same draw, same stream use.
        assert profile.sample_hour(ours, cdf if i % 2 else None) == expected


@pytest.mark.parametrize("pmf", [[0.5, 0.7, -0.2], [0.5, 0.6]],
                         ids=["negative", "sum-not-one"])
def test_choice_cdf_rejects_what_choice_rejects(pmf):
    pmf = np.array(pmf)
    with pytest.raises(ValueError):
        RngRegistry(0).fresh("draws").choice(pmf.size, p=pmf)
    with pytest.raises(ValueError):
        choice_cdf(pmf)


def test_profile_validation():
    with pytest.raises(ValueError):
        DiurnalProfile(weights=(1.0,))                    # wrong arity
    with pytest.raises(ValueError):
        DiurnalProfile(weights=(-1.0, 0, 0, 0))
    with pytest.raises(ValueError):
        DiurnalProfile(weights=(0.0, 0, 0, 0), floor=0.0)  # zero intensity


def test_population_profile_averages(rng):
    profiles = [random_profile(rng) for _ in range(30)]
    pop = population_hourly_profile(profiles)
    assert pop.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        population_hourly_profile([])


def test_autocorrelation_of_perfectly_repeating_series():
    day = np.arange(HOURS_PER_DAY, dtype=float)
    series = np.tile(day, 4)
    assert autocorrelation_lag_one_day(series) == pytest.approx(1.0)


def test_autocorrelation_requires_two_days():
    with pytest.raises(ValueError):
        autocorrelation_lag_one_day(np.zeros(30))


def test_autocorrelation_constant_series_is_nan():
    assert np.isnan(autocorrelation_lag_one_day(np.ones(48)))

"""Correlation and the regularized incomplete beta function against scipy.

scipy is a test dependency only. These references are kept apart from
``tests/test_analytics.py`` so that its other tests also run on an
interpreter without scipy.
"""

from __future__ import annotations

import random

import pytest
import scipy.special
import scipy.stats

from vindex.analytics import _betainc, pearson

from test_analytics import BETAINC_ARGUMENTS


def test_pearson_matches_scipy_reference():
    rng = random.Random(2718)
    for _ in range(25):
        n = rng.randint(3, 60)
        x = [rng.gauss(0, 1) for _ in range(n)]
        noise = rng.uniform(0.1, 2.0)
        slope = rng.uniform(-3, 3)
        y = [slope * value + rng.gauss(0, noise) for value in x]
        mine = pearson(x, y)
        reference_rho, reference_p = scipy.stats.pearsonr(x, y)
        assert mine.rho == pytest.approx(reference_rho, rel=1e-10, abs=1e-12)
        assert mine.p_value == pytest.approx(reference_p, rel=1e-8, abs=1e-300)


def _correlated(seed, n, noise):
    rng = random.Random(seed)
    x = [rng.gauss(0, 1) for _ in range(n)]
    return x, [value + rng.gauss(0, noise) for value in x]


@pytest.mark.parametrize(
    "n, noise, low, high",
    [
        (310, 1.0, 1e-52, 1e-47),  # p ~ 1e-50
        (1200, 0.9, 1e-210, 1e-200),  # p ~ 1e-205
        (100_000, 20.0, 1e-70, 1e-55),
    ],
)
def test_pearson_matches_scipy_for_tiny_p(n, noise, low, high):
    x, y = _correlated(7, n, noise)
    reference_rho, reference_p = scipy.stats.pearsonr(x, y)
    assert low < reference_p < high
    mine = pearson(x, y)
    assert mine.rho == pytest.approx(reference_rho, rel=1e-12)
    assert mine.p_value == pytest.approx(reference_p, rel=1e-10)


@pytest.mark.parametrize("seed", [13, 18])
def test_pearson_matches_scipy_for_p_near_one(seed):
    rng = random.Random(seed)
    x = [rng.gauss(0, 1) for _ in range(500)]
    y = [rng.gauss(0, 1) for _ in range(500)]
    reference_rho, reference_p = scipy.stats.pearsonr(x, y)
    assert reference_p > 0.95
    mine = pearson(x, y)
    assert mine.rho == pytest.approx(reference_rho, rel=1e-10, abs=1e-15)
    assert mine.p_value == pytest.approx(reference_p, rel=1e-10)


def test_betainc_matches_scipy_over_pearson_arguments():
    # The p-value of pearson is I_x(nu/2, 1/2) at x = nu / (nu + t^2).
    worst = 0.0
    for n in (3, 4, 5, 7, 10, 20, 50, 100, 250, 1000, 5000, 20_000, 50_000, 100_000):
        dof = n - 2
        for exponent in range(-12, 13):
            for mantissa in (1.0, 2.5, 6.0):
                t_squared = mantissa * 10.0**exponent
                x = dof / (dof + t_squared)
                reference = float(scipy.special.betainc(dof / 2.0, 0.5, x))
                if reference < 1e-300:
                    continue
                worst = max(worst, abs(_betainc(dof / 2.0, 0.5, x) - reference) / reference)
    assert worst <= 1e-10


def test_betainc_matches_scipy_at_assorted_arguments():
    for a, b, x in BETAINC_ARGUMENTS:
        assert _betainc(a, b, x) == pytest.approx(
            float(scipy.special.betainc(a, b, x)), rel=1e-12
        )

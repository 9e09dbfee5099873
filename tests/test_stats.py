import math

import numpy as np
import pytest

from qenergydex.stats import dkw_halfwidth, ecdf, wilson_interval


def test_wilson_zero_successes_upper_bound():
    # closed form at zero successes: z^2 / (n + z^2)
    lo, hi = wilson_interval(0, 10**6)
    assert lo == 0.0
    expected = 1.96**2 / (10**6 + 1.96**2)
    assert hi == pytest.approx(expected, rel=1e-12)
    assert hi == pytest.approx(3.8416e-6, rel=1e-3)


def test_wilson_all_successes():
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0
    assert 0.9 < lo < 1.0


def test_wilson_contains_point_estimate():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 10**6))
        k = int(rng.integers(0, n + 1))
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_dkw_halfwidth_formula():
    # sqrt(ln(2/alpha) / (2n)); n=3000, alpha=0.05 -> sqrt(ln 40 / 6000)
    assert dkw_halfwidth(3000) == pytest.approx(math.sqrt(math.log(40.0) / 6000.0))
    assert dkw_halfwidth(3000) == pytest.approx(0.0247954, abs=1e-6)


def test_dkw_decreases_with_n():
    widths = [dkw_halfwidth(n) for n in (10, 100, 1000, 10000)]
    assert widths == sorted(widths, reverse=True)


def test_dkw_validation():
    with pytest.raises(ValueError):
        dkw_halfwidth(0)
    with pytest.raises(ValueError):
        dkw_halfwidth(-3)


def test_ecdf_basic():
    e = ecdf([3.0, 1.0, 2.0])
    assert list(e.x) == [1.0, 2.0, 3.0]
    assert list(e.f) == pytest.approx([1 / 3, 2 / 3, 1.0])
    assert e.band_halfwidth == pytest.approx(dkw_halfwidth(3))


def test_ecdf_band_clipping():
    e = ecdf([1.0, 2.0])
    assert (e.lower() >= 0.0).all()
    assert (e.upper() <= 1.0).all()


def test_ecdf_empty_rejected():
    with pytest.raises(ValueError):
        ecdf([])

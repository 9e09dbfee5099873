import math

import pytest

from qenergydex.stats import dkw_halfwidth, ecdf


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

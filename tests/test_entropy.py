import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from qenergydex import entropy
from qenergydex.entropy import (
    QberTrace,
    binary_entropy,
    chi_square_miss_probability,
    extractable_length,
    generate_qber_trace,
    secure_capacity_bps,
)
from qenergydex.qkms import KeyPoolState, KmsReplica
from qenergydex.rng import substream

mp.mp.dps = 40


def h2_oracle(q: str) -> float:
    """High-precision binary entropy, independent of the implementation."""
    x = mp.mpf(q)
    if x == 0 or x == 1:
        return 0.0
    return float(-x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2))


def chi2_sf_oracle(statistic: float) -> float:
    """Complementary CDF of chi-square with 1 dof via erfc."""
    return float(mp.erfc(mp.sqrt(mp.mpf(statistic) / 2)))


# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------


def test_binary_entropy_extremes():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_matches_high_precision():
    assert binary_entropy(0.02) == pytest.approx(h2_oracle("0.02"), abs=1e-15)
    assert binary_entropy(0.02) == pytest.approx(0.14144, abs=1e-4)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_binary_entropy_symmetry_and_concavity():
    qs = np.linspace(0.0, 1.0, 100)
    vals = [binary_entropy(q) for q in qs]
    for q, v in zip(qs, vals):
        assert abs(v - binary_entropy(1.0 - q)) < 1e-12
    # midpoint concavity on interior triples
    for i in range(1, 99):
        mid = binary_entropy((qs[i - 1] + qs[i + 1]) / 2.0)
        assert mid >= (vals[i - 1] + vals[i + 1]) / 2.0 - 1e-12


@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
@settings(max_examples=200, deadline=None)
def test_binary_entropy_bounded(q):
    assert 0.0 <= binary_entropy(q) <= 1.0 + 1e-15


# ---------------------------------------------------------------------------
# extractable length
# ---------------------------------------------------------------------------


def test_extractable_length_large_block():
    # floor( 1e6 (1 - h2(0.02)) - 128 - 128 ) computed at high precision
    expected = int(mp.floor(10**6 * (1 - mp.mpf(h2_oracle("0.02"))) - 256))
    assert expected == 858303
    assert extractable_length(10**6, 0.02, 2.0**-64) == 858303


def test_extractable_length_clamps_to_zero():
    assert extractable_length(256, 0.02, 2.0**-64) == 0


def test_extractable_length_no_smoothing_limit():
    assert extractable_length(256, 0.0, 1.0) == 128


def test_extractable_monotone():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(256, 10**6))
        q = float(rng.uniform(0.001, 0.4))
        base = extractable_length(n, q)
        assert extractable_length(n, min(q * 1.2, 0.49)) <= base
        assert extractable_length(n * 2, q) >= base


def test_secure_capacity_loss_model():
    # each 1 ms interval's n = floor(R_max / 1000) raw bits lose
    # n h2(q) + 2 log2(1/eps) + 128; the capacity never goes negative
    q = np.array([0.0, 0.02, 0.49])
    cap = secure_capacity_bps(1e6, q)
    assert cap[0] == (1000 - 256) * 1000.0
    assert cap[1] == extractable_length(1000, 0.02) * 1000.0 == 602000.0
    assert cap[2] == 0.0
    # a raw budget below one bit per interval backs nothing
    assert (secure_capacity_bps(500, q) == 0.0).all()
    # the budget rounds down to whole bits per interval
    assert (secure_capacity_bps(1_000_999.0, q) == cap).all()


# ---------------------------------------------------------------------------
# chi-square eavesdropping test
# ---------------------------------------------------------------------------


def test_chi_square_no_deviation():
    assert chi_square_miss_probability(0.01, 0.0, 100) == 1.0


def test_chi_square_strong_deviation_tiny_miss():
    # statistic (0.002)^2 * 1e6 / 0.01 = 400
    assert chi_square_miss_probability(0.01, 0.002, 10**6) <= 1e-6


def test_chi_square_small_sample_matches_oracle():
    v = chi_square_miss_probability(0.01, 0.002, 100)
    assert v == pytest.approx(chi2_sf_oracle(0.04), abs=1e-12)
    assert v == pytest.approx(0.8415, abs=1e-3)


def test_chi_square_monotonicity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        q0 = float(rng.uniform(0.005, 0.05))
        dq = float(rng.uniform(0.0005, 0.01))
        n = int(rng.integers(100, 10**6))
        base = chi_square_miss_probability(q0, dq, n)
        assert chi_square_miss_probability(q0, dq, 2 * n) <= base
        assert chi_square_miss_probability(q0, 2 * dq, n) <= base


def test_chi_square_domain():
    with pytest.raises(ValueError):
        chi_square_miss_probability(0.0, 0.001, 100)
    with pytest.raises(ValueError):
        chi_square_miss_probability(0.01, -0.001, 100)


def test_chi_square_closed_form_matches_incomplete_gamma():
    # the chi-square(1) tail is Q(1/2, x/2), the regularized upper
    # incomplete gamma function; the code evaluates erfc(sqrt(x/2))
    def oracle(x):
        return mp.gammainc(0.5, mp.mpf(x) / 2, regularized=True)

    threshold = float(mp.findroot(lambda x: oracle(x) - mp.mpf("1e-6"), 24))
    near = threshold * (1.0 + np.array([-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3]))
    q0, n = 0.01, 10**6
    alarms = set()
    for x in np.concatenate((np.geomspace(1e-8, 700.0, 400), near)):
        # the QBER reading whose deviation gives statistic x, and the
        # statistic KmsReplica.audit computes from it
        qber = q0 + math.sqrt(float(x) * q0 / n)
        delta = abs(qber - q0)
        statistic = delta * delta * n / q0
        exact = oracle(statistic)
        got = chi_square_miss_probability(q0, delta, n)
        assert abs(got - exact) <= 1e-12 * exact
        kms = KmsReplica(0, KeyPoolState(10**6, 10**6, 0.0), baseline_qber=q0)
        kms.record_qber(qber, 1)
        alarm = "qber_alarm" in kms.audit("s", (0, 1), sample_bits=n).anomaly_flags
        # the audit decides as the exact tail and as the gamma-function form did
        assert alarm == (exact < 1e-6) == (gammaincc(0.5, statistic / 2.0) < 1e-6)
        alarms.add(alarm)
    assert alarms == {False, True}


# ---------------------------------------------------------------------------
# trace synthesis
# ---------------------------------------------------------------------------


def test_trace_constant_without_perturbation():
    tr = generate_qber_trace(2.0, seed=0, pulse_count=0, noise_sigma=0.0, base_q=0.01)
    assert (tr.samples == 0.01).all()
    assert len(tr) == 2000


def test_trace_deterministic():
    a = generate_qber_trace(5.0, seed=99)
    b = generate_qber_trace(5.0, seed=99)
    assert (a.samples == b.samples).all()
    c = generate_qber_trace(5.0, seed=100)
    assert not (a.samples == c.samples).all()


def test_trace_integer_base_level():
    # a config file may give the base level as an integer
    a = generate_qber_trace(2.0, seed=3, base_q=0)
    assert np.array_equal(a.samples, generate_qber_trace(2.0, seed=3, base_q=0.0).samples)


_EXP_ZERO_BELOW = -746.0   # np.exp rounds to 0.0 below this: exp(-745.13) is the least subnormal


def _full_length_trace(duration_s, seed, width_range):
    """generate_qber_trace with each pulse added over the whole trace, its oracle."""
    n = int(round(duration_s * 1000.0))
    rng = substream(seed, "trace")
    t = np.arange(n, dtype=float)
    q = np.full(n, 0.01, dtype=float)
    noise = rng.normal(0.0, 0.004, size=n)
    np.clip(noise, -3.0 * 0.004, 3.0 * 0.004, out=noise)
    q += noise
    z = np.empty(n)
    bump = np.empty(n)
    for _ in range(int(round(12 * duration_s / 60.0))):
        center = rng.uniform(0.0, n)
        width = rng.uniform(*width_range)
        amp = rng.uniform(0.01, 0.05)
        # q += amp * np.exp(-0.5 * ((t - center) / width) ** 2), the same
        # operations in preallocated buffers. np.exp is 0.0 below -746
        # (the test asserts it), so those entries keep the 0.0 they are
        # given instead of taking np.exp's slow path on underflow
        np.subtract(t, center, out=z)
        z /= width
        np.square(z, out=z)
        z *= -0.5
        bump.fill(0.0)
        np.exp(z, out=bump, where=z >= _EXP_ZERO_BELOW)
        bump *= amp
        q += bump
    np.clip(q, 0.001, 0.08, out=q)
    return q


def test_trace_pulse_windows_equal_full_length_pulses():
    # widths up to 20000 samples outreach every trace; 0.5 samples is
    # narrower than one step; centers fall near either end
    assert np.exp(_EXP_ZERO_BELOW) == 0.0     # so the oracle may skip exp below it
    # every term outside a pulse's window is exactly 0.0 (exp is monotone):
    # holds at a reach of 39 widths, fails at 38 (2.75e-314). The summed
    # trace below cannot see a missing term beyond about 9.7 widths.
    assert np.exp(-0.5 * entropy._PULSE_REACH ** 2) == 0.0
    for width_range in ((50.0, 500.0), (0.5, 2.0), (5000.0, 20000.0)):
        for duration_s in (5.0, 60.0, 61.7, 300.0):
            for seed in range(1, 21):
                tr = generate_qber_trace(duration_s, seed=seed, width_range=width_range)
                oracle = _full_length_trace(duration_s, seed, width_range)
                assert tr.samples.tobytes() == oracle.tobytes(), (width_range, duration_s, seed)


def test_trace_clipping_many_seeds():
    for seed in range(1000):
        tr = generate_qber_trace(1.0, seed=seed, pulse_count=4, noise_sigma=0.01)
        assert tr.samples.min() >= 0.001
        assert tr.samples.max() <= 0.08


def test_trace_rejects_out_of_range_samples():
    with pytest.raises(ValueError):
        QberTrace(samples=np.array([0.5]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="clipping bounds"):
            QberTrace(samples=np.array([0.01, bad]))


def test_nan_qber_is_refused_not_a_perfect_channel():
    # a NaN sample once got entropy 0, so more capacity than any real sample
    for q in ([np.nan, 0.01], [0.01, np.inf]):
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
            secure_capacity_bps(5e6, np.array(q))
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
            entropy.binary_entropy_vec(np.array(q))

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from qenergydex.entropy import (
    EntropyParams,
    QberTrace,
    binary_entropy,
    chi_square_miss_probability,
    extractable_length,
    generate_qber_trace,
    min_entropy_lower_bound,
    statistical_distance_bound,
)
from qenergydex.qkms import KeyPoolState, KmsReplica

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
# extraction bounds
# ---------------------------------------------------------------------------


def test_min_entropy_near_zero_qber():
    # h2 vanishes as q -> 0, leaving n - log2(1/eps)
    p = EntropyParams(n=1000, q=1e-15, epsilon=2.0**-64)
    assert min_entropy_lower_bound(p) == pytest.approx(936.0, abs=1e-9)


def test_min_entropy_values_from_oracle():
    v = min_entropy_lower_bound(EntropyParams(n=10**6, q=0.02, epsilon=2.0**-64))
    expected = float(10**6 * (1 - mp.mpf(h2_oracle("0.02"))) - 64)
    assert v == pytest.approx(expected, abs=1e-6)
    assert v == pytest.approx(858495.457, abs=1e-2)


def test_min_entropy_negative_regime():
    v = min_entropy_lower_bound(EntropyParams(n=64, q=0.02, epsilon=2.0**-64))
    assert v == pytest.approx(-9.052, abs=1e-3)
    assert v < 0


def test_extractable_length_large_block():
    # floor( 1e6 (1 - h2(0.02)) - 128 - 128 ) computed at high precision
    expected = int(mp.floor(10**6 * (1 - mp.mpf(h2_oracle("0.02"))) - 256))
    assert expected == 858303
    assert extractable_length(EntropyParams(n=10**6, q=0.02, epsilon=2.0**-64)) == 858303


def test_extractable_length_clamps_to_zero():
    assert extractable_length(EntropyParams(n=256, q=0.02, epsilon=2.0**-64)) == 0


def test_extractable_length_no_smoothing_limit():
    assert extractable_length(EntropyParams(n=256, q=0.0, epsilon=1.0)) == 128


def test_extractable_monotone():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(256, 10**6))
        q = float(rng.uniform(0.001, 0.4))
        base = extractable_length(EntropyParams(n=n, q=q))
        assert extractable_length(EntropyParams(n=n, q=min(q * 1.2, 0.49))) <= base
        assert extractable_length(EntropyParams(n=n * 2, q=q)) >= base


def test_extractor_subtracts_more_than_min_entropy_bound():
    # in the positive regime the extractor's budget is strictly below the
    # min-entropy bound (the clamp at zero makes the comparison vacuous in
    # the depleted regime)
    rng = np.random.default_rng(12)
    for _ in range(300):
        p = EntropyParams(
            n=int(rng.integers(64, 10**6)), q=float(rng.uniform(0.001, 0.45))
        )
        ext = extractable_length(p)
        if ext > 0:
            assert min_entropy_lower_bound(p) > ext


def test_entropy_params_validation():
    with pytest.raises(ValueError):
        EntropyParams(n=0, q=0.02)
    with pytest.raises(ValueError):
        EntropyParams(n=10, q=0.5)
    with pytest.raises(ValueError):
        EntropyParams(n=10, q=0.02, epsilon=0.0)
    with pytest.raises(ValueError):
        EntropyParams(n=10, q=0.02, epsilon=1.5)


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
        kms.record_qber(qber)
        alarm = "qber_alarm" in kms.audit("s", (0, 1), sample_bits=n).anomaly_flags
        # the audit decides as the exact tail and as the gamma-function form did
        assert alarm == (exact < 1e-6) == (gammaincc(0.5, statistic / 2.0) < 1e-6)
        alarms.add(alarm)
    assert alarms == {False, True}


# ---------------------------------------------------------------------------
# statistical distance
# ---------------------------------------------------------------------------


def test_statistical_distance_composition():
    assert statistical_distance_bound(2.0**-64, 1e-6) == 2.0**-64 + 1e-6
    assert statistical_distance_bound(0.0, 0.0) == 0.0
    assert statistical_distance_bound(0.5, 0.7) == 1.0


def test_statistical_distance_domain():
    with pytest.raises(ValueError):
        statistical_distance_bound(-0.1, 0.0)
    with pytest.raises(ValueError):
        statistical_distance_bound(0.0, 1.1)


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


def test_trace_clipping_many_seeds():
    for seed in range(1000):
        tr = generate_qber_trace(1.0, seed=seed, pulse_count=4, noise_sigma=0.01)
        assert tr.samples.min() >= 0.001
        assert tr.samples.max() <= 0.08


def test_trace_csv_roundtrip(tmp_path):
    tr = generate_qber_trace(1.0, seed=5)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t_ms,qber"
    back = QberTrace.from_csv(path, seed=5)
    assert (back.samples == tr.samples).all()


def test_trace_binary_roundtrip(tmp_path):
    tr = generate_qber_trace(2.0, seed=6)
    path = tmp_path / "trace.bin"
    tr.to_binary(path)
    back = QberTrace.from_binary(path, seed=6)
    assert (back.samples == tr.samples).all()
    assert path.stat().st_size == 8 * len(tr)


def test_trace_rejects_out_of_range_samples():
    with pytest.raises(ValueError):
        QberTrace(samples=np.array([0.5]), seed=0)

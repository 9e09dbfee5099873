import hashlib

import numpy as np
import pytest
from cryptography.hazmat.backends import default_backend
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from qenergydex.netsim import LinkModel
from qenergydex.qkms import KeyPoolState, KmsReplica
from qenergydex.qsah import (
    AuthFail,
    BaselineHandshakeModel,
    ClientSession,
    NoKey,
    Replay,
    ServerEndpoint,
    baseline_latencies,
    derive_session_key,
    gmac_tag,
    gmac_verify,
    handshake_latencies,
    latency_benchmark,
)
from qenergydex.rng import substream
from qenergydex.stats import dkw_halfwidth, ecdf

# ---------------------------------------------------------------------------
# GMAC: known-answer vector plus an independent GHASH reimplementation
# ---------------------------------------------------------------------------


def aes_ecb(key: bytes, block: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB(), backend=default_backend()).encryptor()
    return enc.update(block) + enc.finalize()


def gf_mult(x: int, y: int) -> int:
    """Carryless multiply in GF(2^128) with the GCM reduction polynomial."""
    R = 0xE1000000000000000000000000000000
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        v = (v >> 1) ^ R if v & 1 else v >> 1
    return z


def ghash(h_key: bytes, aad: bytes) -> bytes:
    h_int = int.from_bytes(h_key, "big")
    y = 0
    padded = aad + b"\x00" * ((16 - len(aad) % 16) % 16)
    for i in range(0, len(padded), 16):
        y = gf_mult(y ^ int.from_bytes(padded[i : i + 16], "big"), h_int)
    lengths = (len(aad) * 8).to_bytes(8, "big") + (0).to_bytes(8, "big")
    y = gf_mult(y ^ int.from_bytes(lengths, "big"), h_int)
    return y.to_bytes(16, "big")


def gmac_oracle(key: bytes, nonce12: bytes, aad: bytes) -> bytes:
    """GMAC recomputed from first principles: GHASH then counter-0 masking."""
    h_key = aes_ecb(key, b"\x00" * 16)
    j0 = nonce12 + b"\x00\x00\x00\x01"
    mask = aes_ecb(key, j0)
    return bytes(a ^ b for a, b in zip(ghash(h_key, aad), mask))


def test_gmac_empty_known_answer():
    # AES-256-GCM, all-zero key and nonce, empty plaintext and aad
    tag = gmac_tag(b"\x00" * 32, b"\x00" * 12, b"")
    assert tag.hex() == "530f8afbc74536b9a963b4f1c4cb738b"


def test_gmac_matches_ghash_oracle():
    rng = substream(1, "gmac")
    for n_aad in (0, 1, 15, 16, 17, 32, 33, 64):
        key = rng.bytes(32)
        nonce = rng.bytes(12)
        aad = rng.bytes(n_aad)
        assert gmac_tag(key, nonce, aad) == gmac_oracle(key, nonce, aad)


def test_gmac_verify_rejects_tamper():
    key = bytes(range(32))
    nonce = bytes(range(12))
    tag = gmac_tag(key, nonce, b"hello")
    assert gmac_verify(key, nonce, b"hello", tag)
    assert not gmac_verify(key, nonce, b"hellO", tag)
    assert not gmac_verify(key, nonce, b"hello", bytes([tag[0] ^ 1]) + tag[1:])


# ---------------------------------------------------------------------------
# session-key derivation
# ---------------------------------------------------------------------------


def test_derive_session_key_known_answer():
    # computed with a hand-written RFC 5869 HKDF-SHA256 (all-zero salt, info
    # "Q-EnergyDEX", 32 bytes) over K || n_c || n_s
    key = derive_session_key(bytes(range(32)), bytes(range(32, 48)), bytes(range(48, 64)))
    assert key.hex() == "332a74982c838a150666e93a147981bdca55c3c56322f45874f4323adde52a3a"


def test_derive_session_key_properties():
    rng = substream(3, "kdf")
    key, n_c, n_s = rng.bytes(32), rng.bytes(16), rng.bytes(16)
    a = derive_session_key(key, n_c, n_s)
    assert len(a) == 32
    assert a == derive_session_key(key, n_c, n_s)
    assert a != derive_session_key(key, n_c, rng.bytes(16))


# ---------------------------------------------------------------------------
# protocol state machine
# ---------------------------------------------------------------------------


def rent_key(seed=1):
    pool = KeyPoolState(balance_bits=10**6, capacity_bits=10**6, gen_rate_bps=0.0)
    return KmsReplica(0, pool, seed=seed).rent(256, 0)


def test_honest_handshake_establishes_matching_keys():
    key = rent_key()
    server = ServerEndpoint(rng=substream(4, "srv"))
    server.install_key(key)
    client = ClientSession(key, substream(4, "cli"))
    msg1 = client.client_hello()
    assert len(msg1) == 32
    msg2 = server.server_response(key.key_id, msg1)
    assert len(msg2) == 32
    session_key = client.client_finish(msg2)
    assert client.state == "established"
    # the server's key is the same function of the two wire messages
    assert session_key == derive_session_key(key.key_bits, msg1[:16], msg2[:16])
    assert client.n_c != client.n_s


def test_wire_layout_tag_over_ns_then_nc():
    key = rent_key()
    server = ServerEndpoint(rng=substream(5, "srv"))
    server.install_key(key)
    client = ClientSession(key, substream(5, "cli"))
    msg1 = client.client_hello()
    msg2 = server.server_response(key.key_id, msg1)
    n_c, n_s, tag2 = msg1[:16], msg2[:16], msg2[16:]
    nonce = hashlib.sha256(b"qsah/m2" + n_s + n_c).digest()[:12]
    assert gmac_oracle(key.key_bits, nonce, n_s + n_c) == tag2


def test_completeness_randomized_runs():
    rng = substream(6, "complete")
    pool = KeyPoolState(balance_bits=10**7, capacity_bits=10**7, gen_rate_bps=0.0)
    kms = KmsReplica(0, pool, seed=6)
    server = ServerEndpoint(rng=rng)
    for i in range(500):
        key = kms.rent(256, i)
        server.install_key(key)
        client = ClientSession(key, rng)
        msg1 = client.client_hello()
        msg2 = server.server_response(key.key_id, msg1)
        client.client_finish(msg2)
        assert client.state == "established"
        assert client.session_key == derive_session_key(key.key_bits, msg1[:16], msg2[:16])


def test_replayed_hello_rejected():
    key = rent_key()
    server = ServerEndpoint(rng=substream(7, "srv"))
    server.install_key(key)
    client = ClientSession(key, substream(7, "cli"))
    msg1 = client.client_hello()
    server.server_response(key.key_id, msg1)
    with pytest.raises(Replay):
        server.server_response(key.key_id, msg1)


def test_soundness_every_single_bit_tamper_rejected():
    key = rent_key()

    def fresh_pair():
        server = ServerEndpoint(rng=substream(9, "srv"))
        server.install_key(key)
        client = ClientSession(key, substream(9, "cli"))
        return server, client

    server, client = fresh_pair()
    msg1 = client.client_hello()
    msg2 = server.server_response(key.key_id, msg1)

    for bit in range(256):
        tampered = bytearray(msg1)
        tampered[bit // 8] ^= 1 << (bit % 8)
        server_t, _ = fresh_pair()
        with pytest.raises((AuthFail, Replay)):
            server_t.server_response(key.key_id, bytes(tampered))

    for bit in range(256):
        tampered = bytearray(msg2)
        tampered[bit // 8] ^= 1 << (bit % 8)
        _, client_t = fresh_pair()
        client_t.client_hello()
        with pytest.raises(AuthFail):
            client_t.client_finish(bytes(tampered))
        assert client_t.state == "failed"


def test_client_requires_key():
    with pytest.raises(NoKey):
        ClientSession(None, substream(10, "x"))


def test_nonce_uniqueness_at_scale():
    # the nonce source never repeats within a million handshakes
    rng = substream(11, "nonces")
    blob = rng.bytes(16 * 10**6)
    arr = np.frombuffer(blob, dtype=np.dtype("V16"))
    assert len(np.unique(arr)) == 10**6


# ---------------------------------------------------------------------------
# latency benchmark
# ---------------------------------------------------------------------------


def test_benchmark_zero_jitter_exact_latency():
    res = latency_benchmark(8, 4, LinkModel(d0_ms=20.0, jitter_max_ms=0.0), seed=1)
    assert np.allclose(res.qsah_latencies, 22.0)  # one RTT + 2 x 1 ms processing


def test_benchmark_baseline_round_trips_scale():
    _local, rtt = baseline_latencies(
        200, LinkModel(d0_ms=20.0, jitter_max_ms=0.0), BaselineHandshakeModel(round_trips=3), seed=2
    )
    assert rtt.min() >= 60.0   # 3 round trips of 20 ms each


def test_benchmark_dominance_and_bands():
    for seed in (1, 2, 3):
        res = latency_benchmark(1000, 500, LinkModel(), seed=seed)
        _local, rtt = baseline_latencies(1000, LinkModel(), BaselineHandshakeModel(), seed)
        assert res.established == 1000
        assert (np.sort(res.qsah_latencies) <= np.sort(rtt)).all()
    assert ecdf(res.qsah_latencies).band_halfwidth == pytest.approx(dkw_halfwidth(1000))
    assert dkw_halfwidth(3000) == pytest.approx(0.0248, abs=1e-4)


# sha256 of the Q-SAH, baseline-local and baseline-RTT latency arrays, in
# order, of 400 handshakes in batches of 150 on the default link at seed 9
BENCHMARK_DIGEST = "b4728f86761467ea43c3ba4dd06b2ffb333f18aa9428bb3d7c5dde3d69d98093"


def test_benchmark_latencies_pinned():
    # guards the network's one-way draws and the baseline arm's round trips
    arrays = (
        latency_benchmark(400, 150, LinkModel(), seed=9).qsah_latencies,
        *baseline_latencies(400, LinkModel(), BaselineHandshakeModel(), 9),
    )
    assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == BENCHMARK_DIGEST


def test_benchmark_batch_size_does_not_change_distribution():
    from scipy.stats import ks_2samp

    a = latency_benchmark(2000, 500, LinkModel(), seed=5)
    b = latency_benchmark(2000, 100, LinkModel(), seed=5)
    assert ks_2samp(a.qsah_latencies, b.qsah_latencies).pvalue > 0.01


def test_benchmark_validation():
    with pytest.raises(ValueError):
        latency_benchmark(0, 1, LinkModel(), seed=1)
    for bad in (
        {"round_trips": 0}, {"round_trips": 2.5}, {"round_trips": True},
        {"compute_median_ms": -1.0}, {"compute_median_ms": 0.0},
        {"compute_median_ms": float("nan")}, {"compute_median_ms": float("inf")},
        {"compute_sigma": -1.0}, {"compute_sigma": float("nan")}, {"compute_sigma": float("inf")},
    ):
        with pytest.raises(ValueError):
            BaselineHandshakeModel(**bad)
    BaselineHandshakeModel(round_trips=1, compute_median_ms=1e-9, compute_sigma=0.0)


# ---------------------------------------------------------------------------
# closed-form latencies, with the event-driven run as their oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, batch, link, seed", [
    *[(3000, 500, LinkModel(), seed) for seed in (1, 2, 3)],
    *[(n, batch, LinkModel(), seed)
      for n, batch in ((400, 150), (64, 64), (1000, 7), (10, 64)) for seed in (1, 2, 3)],
    # a slow link: hellos land 451-476 ms after their batch starts
    *[(1000, 7, LinkModel(900.0, 50.0), seed) for seed in (1, 2, 3)],
    # one batch needs no separation, however slow the link
    (40, 40, LinkModel(5000.0, 50.0), 1),
])
def test_closed_form_equals_event_driven_run(n, batch, link, seed):
    res = latency_benchmark(n, batch, link, seed=seed)
    assert handshake_latencies(n, batch, link, seed).tobytes() == res.qsah_latencies.tobytes()


def test_closed_form_latencies_pinned():
    # the digest the event-driven run and the baseline arms are pinned to
    arrays = (
        handshake_latencies(400, 150, LinkModel(), 9),
        *baseline_latencies(400, LinkModel(), BaselineHandshakeModel(), 9),
    )
    assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == BENCHMARK_DIGEST


def test_closed_form_refuses_batches_that_may_interleave():
    # worst hello delay d0/2 + jitter/2 + 1 ms: 526 ms, and exactly 500 ms
    for link in (LinkModel(1000.0, 50.0), LinkModel(948.0, 50.0)):
        with pytest.raises(ValueError, match="worst hello delay"):
            handshake_latencies(1000, 7, link, 1)
        with pytest.raises(ValueError, match="worst hello delay"):
            handshake_latencies(8, 7, link, 1)
        handshake_latencies(7, 7, link, 1)          # one batch
    # 499.999 ms: every hello lands before the next batch starts
    link = LinkModel(947.998, 50.0)
    res = latency_benchmark(100, 7, link, seed=1)
    assert handshake_latencies(100, 7, link, 1).tobytes() == res.qsah_latencies.tobytes()
    for n, batch in ((0, 1), (1, 0)):
        with pytest.raises(ValueError):
            handshake_latencies(n, batch, LinkModel(), 1)

"""Symmetric authenticated handshake over a rented quantum key.

Two messages establish a session between peers that already share a key
K of ``KEY_BITS`` = 256 bits, rented from the key service under one key
id:

    client -> server:  n_c (16 bytes) || GMAC_K(n_c)            (16 bytes)
    server -> client:  n_s (16 bytes) || GMAC_K(n_s || n_c)     (16 bytes)

The session key is RFC 5869 HKDF-SHA256 over K || n_c || n_s with context
label ``Q-EnergyDEX`` and no salt, 256 bits: ``derive_session_key`` calls
the ``cryptography`` package's ``HKDF``. The client derives it on
finishing; the server's key is the same function of the two wire
messages, and the server does not derive it. The handshake state lives in
``ClientSession`` itself (``state``: init, challenged, established or
failed); the server keeps no session state.

GMAC is instantiated as AES-GCM over an empty plaintext with the message
as associated data; the required 96-bit GCM nonce is derived
deterministically from the message transcript (the construction needs a
nonce, and deriving it from the transcript keeps the wire format exactly
two 16-byte fields per message). The server keeps a per-key replay cache
of client nonces for as long as the endpoint lives, so a replayed hello
is rejected even though its tag verifies.

Only ``gmac_tag`` (and so ``gmac_verify``) and ``derive_session_key``
touch ``cryptography``: they import its AES-GCM, HKDF and SHA-256
bindings through ``_crypto`` at their first call, which in the program is
a handshake's first message. Importing this module maps none of them, so
a process that never runs a handshake (``market``, whose latencies come
from ``handshake_latencies``, and every command but ``qsah-bench`` and
``full-stack``) never loads the bindings and their native libraries.

``latency_benchmark`` runs this one-round-trip handshake as protocol
messages over the simulated links and returns its latencies alone;
``baseline_latencies`` draws the two arms of the modeled multi-round-trip
PKI baseline it is compared with, over the same link model. No real TLS
stack is involved.

``handshake_latencies`` gives the benchmark's Q-SAH latencies in closed
form, without running the protocol, and ``latency_benchmark`` stays its
oracle. The two agree byte for byte because:

* ``Network`` has no server queue: a message takes its one-way delay plus
  the processing cost, rounded to a microsecond, whatever else is in
  flight, so neither the crypto nor the load moves a latency;
* only the network's one generator, ``substream(seed, "net")``, draws
  delays, one per message, at send time;
* within a batch the draws come in a fixed order: the k hello delays in
  handshake order, then the k reply delays in the order the hellos
  arrive, ties going to send order as the event heap breaks them.

The last point needs every hello of a batch to arrive before the next
batch starts, which holds when the worst hello delay,
``round((d0/2 + jitter_max/2 + processing) * 1000)`` µs, is below the
500 ms between batch starts. ``check_batch_separation`` raises where it
does not and more than one batch runs.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import math
from dataclasses import dataclass

import numpy as np

from .netsim import DEFAULT_PROCESSING_MS, LinkModel, Network
from .qkms import KeyPoolState, KeyRecord, KmsReplica
from .rng import draw_bytes, substream

__all__ = [
    "NoKey",
    "AuthFail",
    "Replay",
    "BaselineHandshakeModel",
    "gmac_tag",
    "gmac_verify",
    "derive_session_key",
    "ClientSession",
    "ServerEndpoint",
    "BenchmarkResult",
    "latency_benchmark",
    "baseline_latencies",
    "handshake_latencies",
    "check_batch_separation",
    "KDF_CONTEXT",
    "KEY_BITS",
]

NONCE_LEN = 16
TAG_LEN = 16
KDF_CONTEXT = b"Q-EnergyDEX"   # 11 ASCII bytes
KEY_BITS = 256                 # the shared key K each handshake rents
_BATCH_GAP_MS = 500.0          # between the starts of latency_benchmark's batches


class NoKey(RuntimeError):
    """Handshake attempted without a rented shared key."""


class AuthFail(RuntimeError):
    """MAC verification failed (wrong key or tampered message)."""


class Replay(RuntimeError):
    """Client nonce reused under the same key."""


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def _m1_nonce(n_c: bytes) -> bytes:
    return hashlib.sha256(b"qsah/m1" + n_c).digest()[:12]


def _m2_nonce(n_s: bytes, n_c: bytes) -> bytes:
    return hashlib.sha256(b"qsah/m2" + n_s + n_c).digest()[:12]


@functools.cache
def _crypto():
    """``(AESGCM, HKDF, SHA256)`` from ``cryptography``, imported at the first call.

    Importing them maps the package's native bindings (about 6 MB of
    resident memory), which only a handshake needs.
    """
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    from cryptography.hazmat.primitives.hashes import SHA256
    from cryptography.hazmat.primitives.kdf.hkdf import HKDF
    return AESGCM, HKDF, SHA256


def gmac_tag(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """16-byte GMAC tag: AES-GCM over empty plaintext with ``data`` as AAD."""
    aesgcm, _, _ = _crypto()
    return aesgcm(key).encrypt(nonce, b"", data)


def gmac_verify(key: bytes, nonce: bytes, data: bytes, tag: bytes) -> bool:
    return hmac.compare_digest(gmac_tag(key, nonce, data), tag)


def derive_session_key(shared_key: bytes, n_c: bytes, n_s: bytes) -> bytes:
    """Session key = HKDF(K || n_c || n_s, context ``Q-EnergyDEX``), 32 bytes."""
    _, hkdf, sha256 = _crypto()
    return hkdf(sha256(), length=32, salt=None, info=KDF_CONTEXT).derive(shared_key + n_c + n_s)


# ---------------------------------------------------------------------------
# protocol state machines
# ---------------------------------------------------------------------------


class ClientSession:
    """Client side: emits the hello, verifies the response, derives the key."""

    def __init__(self, key: KeyRecord | None, rng: np.random.Generator):
        if key is None:
            raise NoKey("client has no rented key")
        self.key_id = key.key_id
        self.shared_key = key.key_bits
        self.n_c = b""
        self.n_s = b""
        self.session_key = b""
        self.state = "init"        # init | challenged | established | failed
        self.t_start_ms = 0.0
        self._rng = rng

    def client_hello(self, now_ms: float = 0.0) -> bytes:
        """Build message 1: fresh nonce and its tag."""
        if self.state != "init":
            raise RuntimeError("hello already sent")
        self.n_c = draw_bytes(self._rng, NONCE_LEN)
        self.t_start_ms = now_ms
        self.state = "challenged"
        return self.n_c + gmac_tag(self.shared_key, _m1_nonce(self.n_c), self.n_c)

    def client_finish(self, message2: bytes) -> bytes:
        """Verify message 2 and derive the session key."""
        if self.state != "challenged":
            raise RuntimeError("unexpected finish")
        if len(message2) != NONCE_LEN + TAG_LEN:
            self.state = "failed"
            raise AuthFail("malformed response")
        n_s, tag2 = message2[:NONCE_LEN], message2[NONCE_LEN:]
        if not gmac_verify(self.shared_key, _m2_nonce(n_s, self.n_c), n_s + self.n_c, tag2):
            self.state = "failed"
            raise AuthFail("response tag invalid")
        if n_s == self.n_c:
            self.state = "failed"
            raise AuthFail("nonce collision")
        self.n_s = n_s
        self.session_key = derive_session_key(self.shared_key, self.n_c, n_s)
        self.state = "established"
        return self.session_key


class ServerEndpoint:
    """Server side: verifies hellos and answers with its own challenge.

    Keeps a replay cache of client nonces per key id for as long as the
    endpoint lives, and no session state.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._keys: dict[str, bytes] = {}
        self._seen: dict[str, set[bytes]] = {}

    def install_key(self, key: KeyRecord) -> None:
        self._keys[key.key_id] = key.key_bits
        self._seen.setdefault(key.key_id, set())

    def server_response(self, key_id: str, message1: bytes) -> bytes:
        """Verify message 1, enforce nonce freshness, build message 2."""
        shared = self._keys.get(key_id)
        if shared is None:
            raise NoKey(f"no key installed for {key_id}")
        if len(message1) != NONCE_LEN + TAG_LEN:
            raise AuthFail("malformed hello")
        n_c, tag = message1[:NONCE_LEN], message1[NONCE_LEN:]
        if not gmac_verify(shared, _m1_nonce(n_c), n_c, tag):
            raise AuthFail("hello tag invalid")
        if n_c in self._seen[key_id]:
            raise Replay("client nonce reused")
        self._seen[key_id].add(n_c)

        n_s = draw_bytes(self._rng, NONCE_LEN)
        if n_s == n_c:
            raise AuthFail("nonce collision")
        return n_s + gmac_tag(shared, _m2_nonce(n_s, n_c), n_s + n_c)


# ---------------------------------------------------------------------------
# latency benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaselineHandshakeModel:
    """PKI-handshake stand-in: several round trips plus lognormal compute."""

    round_trips: int = 3
    compute_median_ms: float = 2.0
    compute_sigma: float = 0.5

    def __post_init__(self):
        # bool is an int subclass; a float count fails in rtt's shape
        if type(self.round_trips) is not int or self.round_trips < 1:
            raise ValueError("round_trips must be an integer >= 1")
        # NaN fails both comparisons; log(median) is NaN below 0, -inf at 0
        if not 0 < self.compute_median_ms < math.inf:
            raise ValueError("compute_median_ms must be finite and > 0")
        if not 0 <= self.compute_sigma < math.inf:
            raise ValueError("compute_sigma must be finite and >= 0")


@dataclass(frozen=True)
class BenchmarkResult:
    qsah_latencies: np.ndarray
    established: int


def _check_counts(n_handshakes: int, batch_size: int) -> None:
    if n_handshakes < 1:
        raise ValueError("n_handshakes must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")


def _start_us(batch: int) -> int:
    """When a batch starts, in µs, rounded as ``Network.call_at`` rounds it."""
    return int(round(batch * _BATCH_GAP_MS * 1000.0))


def _delays_us(link: LinkModel, rng: np.random.Generator, k: int) -> np.ndarray:
    """k message delays in µs, drawn and rounded as ``Network.send`` does."""
    return np.rint((link.one_way(rng, k) + DEFAULT_PROCESSING_MS) * 1000.0).astype(np.int64)


def check_batch_separation(n_handshakes: int, batch_size: int, link: LinkModel) -> None:
    """Raise ValueError where ``handshake_latencies``' draw order may fail.

    With more than one batch, every hello of a batch must arrive before
    the next batch starts; see the module docstring.
    """
    _check_counts(n_handshakes, batch_size)
    if n_handshakes <= batch_size:
        return
    worst_us = int(round((link.d0_ms / 2.0 + link.jitter_max_ms / 2.0
                          + DEFAULT_PROCESSING_MS) * 1000.0))
    if worst_us >= _start_us(1):
        raise ValueError(
            f"the worst hello delay, {worst_us / 1000.0} ms with processing, must be"
            f" below the {_BATCH_GAP_MS} ms between batch starts"
        )


def handshake_latencies(
    n_handshakes: int, batch_size: int, link: LinkModel, seed: int
) -> np.ndarray:
    """``latency_benchmark(...).qsah_latencies``, byte for byte, in closed form.

    Per batch: the hello delays in handshake order, then the reply delays,
    handed out in the order the hellos arrive (a stable sort keeps send
    order among ties), and the latency as the event loop computes it from
    its µs clock. Raises ValueError as ``check_batch_separation`` does.
    """
    check_batch_separation(n_handshakes, batch_size, link)
    rng = substream(seed, "net")
    latencies = np.empty(n_handshakes)
    for batch, lo in enumerate(range(0, n_handshakes, batch_size)):
        k = min(batch_size, n_handshakes - lo)
        start_us = _start_us(batch)
        hello = _delays_us(link, rng, k)
        reply = np.empty(k, dtype=np.int64)
        reply[np.argsort(hello, kind="stable")] = _delays_us(link, rng, k)
        latencies[lo:lo + k] = (start_us + hello + reply) / 1000.0 - start_us / 1000.0
    return latencies


def baseline_latencies(
    n_handshakes: int, link: LinkModel, baseline: BaselineHandshakeModel, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The modeled baseline arms in ms: compute cost alone (loopback), and
    compute cost plus ``round_trips`` round trips on ``link``."""
    rng = substream(seed, "qsah", "baseline")
    compute = rng.lognormal(np.log(baseline.compute_median_ms), baseline.compute_sigma,
                            size=n_handshakes)
    # row i is handshake i's round trips; the columns add left to right
    rtt_draws = link.rtt(rng, (n_handshakes, baseline.round_trips))
    rtts = rtt_draws[:, 0]
    for j in range(1, baseline.round_trips):
        rtts = rtts + rtt_draws[:, j]
    return compute, compute + rtts


def latency_benchmark(
    n_handshakes: int,
    batch_size: int,
    link: LinkModel,
    seed: int,
) -> BenchmarkResult:
    """Measure the symmetric handshake's latency.

    The handshake runs as real protocol messages through the event-driven
    network (one round trip, per-message processing cost); requests start
    in batches of ``batch_size``, 500 ms apart, each over a key rented from
    a private replica.

    Returns the ``n_handshakes`` latencies in ms, in handshake order
    (unsorted), and the count of handshakes established.
    """
    _check_counts(n_handshakes, batch_size)

    net = Network(seed=seed, default_link=link)
    nonce_rng = substream(seed, "qsah", "nonces")
    server = ServerEndpoint(rng=nonce_rng)

    pool = KeyPoolState(balance_bits=n_handshakes * KEY_BITS,
                        capacity_bits=n_handshakes * KEY_BITS, gen_rate_bps=0.0)
    # index 1: full-stack runs this beside its own replica 0 on the same
    # root seed, and the index keeps the two replicas' key ids apart
    kms = KmsReplica(1, pool, seed=seed)

    clients: dict[int, ClientSession] = {}
    latencies = np.zeros(n_handshakes)
    established = 0

    def server_handler(network: Network, event) -> None:
        idx, key_id, message1 = event.payload
        reply = server.server_response(key_id, message1)
        network.send("server", "client", (idx, reply))

    def client_handler(network: Network, event) -> None:
        nonlocal established
        idx, message2 = event.payload
        client = clients[idx]
        client.client_finish(message2)
        latencies[idx] = network.now_ms - client.t_start_ms
        established += 1

    net.register_node("client", client_handler)
    net.register_node("server", server_handler)

    def start_handshake(idx: int) -> None:
        key = kms.rent(KEY_BITS, int(net.now_ms))
        server.install_key(key)
        client = ClientSession(key, nonce_rng)
        clients[idx] = client
        message1 = client.client_hello(now_ms=net.now_ms)
        net.send("client", "server", (idx, client.key_id, message1))

    for idx in range(n_handshakes):
        batch = idx // batch_size
        net.call_at(batch * _BATCH_GAP_MS, (lambda i: (lambda: start_handshake(i)))(idx))
    net.run_to_quiescence()
    return BenchmarkResult(qsah_latencies=latencies, established=established)

import numpy as np
import pytest

from qenergydex.rng import draw_bytes, substream, substream_seed


def test_substream_deterministic():
    a = substream(123, "net").random(16)
    b = substream(123, "net").random(16)
    assert (a == b).all()


def test_substreams_independent_by_label():
    a = substream(123, "net").random(16)
    b = substream(123, "trace").random(16)
    assert not (a == b).all()


def test_substreams_independent_by_seed():
    a = substream(1, "net").random(16)
    b = substream(2, "net").random(16)
    assert not (a == b).all()


def test_mixed_label_types():
    assert substream_seed(42, "kms", 3) != substream_seed(42, "kms", 4)
    assert substream_seed(42, "kms", 3) == substream_seed(42, "kms", "3")


def test_derivation_is_stable():
    # frozen values guard against accidental changes to the derivation,
    # which would silently break reproducibility of archived manifests
    assert substream_seed(1, "trace") == 5161524843575780676
    assert substream_seed(42, "kms", 3) == 1883598984256123719
    assert substream(1, "trace").integers(2**63) == 3228697440451508931


def test_negative_and_large_seeds():
    assert substream_seed(-1, "x") != substream_seed(1, "x")
    gen = substream(2**62, "y")
    assert isinstance(gen, np.random.Generator)


def _pcg_state(rng):
    # `uinteger` is left out: it is stale, and unread, when has_uint32 == 0
    s = rng.bit_generator.state
    return s["state"]["state"], s["state"]["inc"], s["has_uint32"]


def test_draw_bytes_matches_generator_bytes():
    lengths = (7, 8, 15, 16, 24, 32)
    for seed in range(50):
        fast, slow = substream(seed, "bytes"), substream(seed, "bytes")
        order = np.random.default_rng(seed).choice(lengths, size=20)
        for i, n in enumerate(order):
            assert draw_bytes(fast, int(n)) == slow.bytes(int(n))
            if i % 7 == 3:                    # floats take whole 64-bit words too
                assert fast.random() == slow.random()
        assert _pcg_state(fast) == _pcg_state(slow)


def test_draw_bytes_rejects_odd_word_counts():
    # Generator.bytes would buffer a half-word here, so later draws would part
    rng = substream(1, "bytes")
    before = _pcg_state(rng)
    for n in (0, 1, 4, 9, 12, 20, 28):
        with pytest.raises(ValueError):
            draw_bytes(rng, n)
    assert _pcg_state(rng) == before

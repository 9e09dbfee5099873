import numpy as np
import pytest

from qenergydex.netsim import DEFAULT_PROCESSING_MS, LinkModel, Network, UnknownNode
from qenergydex.rng import substream


def test_sample_rtt_zero_jitter():
    rng = substream(0, "t")
    link = LinkModel(d0_ms=20.0, jitter_max_ms=0.0)
    assert all(link.rtt(rng) == 20.0 for _ in range(10))
    assert all(link.one_way(rng) == 10.0 for _ in range(10))


def test_sample_rtt_bounds_and_mean():
    rng = substream(1, "t")
    link = LinkModel(d0_ms=20.0, jitter_max_ms=15.0)
    draws = np.array([link.rtt(rng) for _ in range(10**5)])
    assert draws.min() >= 20.0
    assert draws.max() <= 35.0
    assert abs(draws.mean() - 27.5) < 0.1


def test_sample_rtt_deterministic():
    rng = substream(5, "x")
    a = [LinkModel().rtt(rng) for _ in range(5)]
    rng = substream(5, "x")
    b = [LinkModel().rtt(rng) for _ in range(5)]
    assert a == b


@pytest.mark.parametrize("draw", ["rtt", "one_way"])
def test_link_vector_draws_equal_scalar_draws(draw):
    # size=k makes the same draws as k scalar calls, and leaves the stream
    # at the same point
    link = LinkModel(d0_ms=7.0, jitter_max_ms=3.0)
    for k in (1, 2, 16, 257):
        vec_rng, loop_rng = substream(k, "link"), substream(k, "link")
        vec = getattr(link, draw)(vec_rng, k)
        loop = [getattr(link, draw)(loop_rng) for _ in range(k)]
        assert vec.shape == (k,)
        assert vec.tolist() == loop
        assert vec_rng.random() == loop_rng.random()
    grid = link.rtt(substream(0, "link"), (5, 3))
    rng = substream(0, "link")
    assert grid.tolist() == [[link.rtt(rng) for _ in range(3)] for _ in range(5)]


def test_zero_jitter_one_way_delivery():
    # one-way delay is half the RTT, plus the 1 ms processing cost
    net = Network(seed=0, default_link=LinkModel(d0_ms=20.0, jitter_max_ms=0.0))
    net.register_node("a")
    got = []
    net.register_node("b", lambda n, ev: got.append(n.now_ms))
    net.send("a", "b", b"x")
    net.run_until(50.0)
    assert got == [10.0 + DEFAULT_PROCESSING_MS]


def test_run_until_an_earlier_time_keeps_the_clock():
    # zero jitter: a message sent at 50 ms lands 11 ms later, at 61 ms,
    # whatever earlier time a run asked for in between
    net = Network(seed=0, default_link=LinkModel(d0_ms=20.0, jitter_max_ms=0.0))
    net.register_node("a")
    got = []
    net.register_node("b", lambda n, ev: got.append(n.now_ms))
    net.run_until(50.0)
    assert net.run_until(10.0) == []
    assert net.now_ms == 50.0
    ev = net.send("a", "b", b"x")
    assert ev.deliver_at_us == 61_000
    net.run_until(100.0)
    assert got == [61.0]
    assert net.now_ms == 100.0


def test_unknown_node():
    net = Network(seed=0)
    net.register_node("a")
    with pytest.raises(UnknownNode):
        net.send("a", "ghost", b"x")
    with pytest.raises(UnknownNode):
        net.send("ghost", "a", b"x")


def test_delivery_log_deterministic():
    def run():
        net = Network(seed=7)
        net.register_node("a")
        net.register_node("b")
        events = []
        for i in range(1000):
            net.send("a", "b", i)
        for ev in net.run_until(10_000.0):
            events.append((ev.deliver_at_us, ev.seq, ev.payload))
        return events

    assert run() == run()


def test_no_event_before_send_and_ordering():
    net = Network(seed=3)
    net.register_node("a")
    net.register_node("b")
    sent_at = []
    for i in range(200):
        ev = net.send("a", "b", i)
        sent_at.append(ev.deliver_at_us)
    delivered = net.run_until(1000.0)
    times = [ev.deliver_at_us for ev in delivered]
    assert times == sorted(times)
    assert min(times) > 0


def test_round_trip_equals_rtt_plus_processing():
    # request/response through handlers: total = one_way*2 + processing*2,
    # with one_way jitter U(0, eps_max/2) per direction
    link = LinkModel(d0_ms=20.0, jitter_max_ms=15.0)
    totals = []
    for seed in range(300):
        net = Network(seed=seed, default_link=link)
        done = []
        net.register_node("server", lambda n, ev: n.send("server", "client", b"pong"))
        net.register_node("client", lambda n, ev: done.append(n.now_ms))
        net.send("client", "server", b"ping")
        net.run_until(200.0)
        totals.append(done[0])
    totals = np.array(totals)
    assert totals.min() >= 22.0
    assert totals.max() <= 37.0
    assert abs(totals.mean() - 29.5) < 0.7   # mean RTT 27.5 + 2 ms processing


def test_partitioned_link_drops():
    net = Network(seed=0)
    net.register_node("a")
    got = []
    net.register_node("b", lambda n, ev: got.append(ev.payload))
    net.set_link_down("a", "b")
    net.send("a", "b", b"lost")
    net.run_until(100.0)
    assert got == []
    net.set_link_down("a", "b", down=False)
    net.send("a", "b", b"through")
    net.run_until(200.0)
    assert got == [b"through"]


def test_link_model_validation():
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            LinkModel(d0_ms=bad)
        with pytest.raises(ValueError):
            LinkModel(jitter_max_ms=bad)


def test_same_microsecond_deliveries_follow_send_order():
    # zero jitter: every message lands at 10 ms plus the 1 ms processing
    # cost, and every timer is set for that same 11 ms
    net = Network(seed=0, default_link=LinkModel(d0_ms=20.0, jitter_max_ms=0.0))
    got = []
    net.register_node("a")
    net.register_node("b", lambda n, ev: got.append(ev.payload))
    expected = []
    for i in range(40):
        if i % 3 == 1:
            net.call_at(11.0, (lambda tag: lambda: got.append(tag))(f"timer{i}"))
            expected.append(f"timer{i}")
        else:
            net.send("a", "b", f"msg{i}")
            expected.append(f"msg{i}")
    delivered = net.run_until(11.0)
    assert got == expected
    assert [ev.seq for ev in delivered] == list(range(40))
    assert {ev.deliver_at_us for ev in delivered} == {11_000}


def test_run_to_quiescence_counts_deliveries():
    # zero jitter: the ten messages share one delivery time, yet each is
    # counted, as are the two timers and the message one of them sends
    link = LinkModel(d0_ms=20.0, jitter_max_ms=0.0)
    net = Network(seed=4, default_link=link)
    got = []
    net.register_node("a")
    net.register_node("b", lambda n, ev: got.append(ev.payload))
    for i in range(10):
        net.send("a", "b", i)
    net.call_at(500.0, lambda: net.send("a", "b", 10))
    net.call_at(900.0, lambda: None)
    assert net.run_to_quiescence() == 13
    assert got == list(range(11))
    assert net.now_ms == 900.0
    assert net.run_to_quiescence() == 0

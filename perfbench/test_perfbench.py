"""Tests of the benchmark's own machinery: wrappers, span arithmetic,
the market certificate, the determinism check and traced counts."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import certify_clear, compare_digests, digest_dir, leader_cost  # noqa: E402
from layers import layer_metrics, layer_targets  # noqa: E402
from spans import Span, Target, Tracer, self_times_ns  # noqa: E402

import run  # noqa: E402
from qenergydex import qkms  # noqa: E402
from qenergydex.market import (  # noqa: E402
    MarketOutcome,
    follower_response,
    random_instance,
    solve_social,
)


def test_wrapper_returns_value_and_restores_original():
    original = qkms.KmsReplica.rent
    pool = qkms.KeyPoolState(balance_bits=1024, capacity_bits=1024, gen_rate_bps=0.0)
    tracer = Tracer()
    with tracer.patched([Target(qkms.KmsReplica, "rent", "qkms.rent")]):
        assert qkms.KmsReplica.rent is not original
        record = qkms.KmsReplica(0, pool, seed=7).rent(256, 0)
    assert qkms.KmsReplica.rent is original
    expected = qkms.KmsReplica(0, pool, seed=7).rent(256, 0)
    assert record == expected
    assert [s.name for s in tracer.spans] == ["qkms.rent"]
    assert tracer.spans[0].end_ns >= tracer.spans[0].start_ns


def test_wrapper_reraises_the_same_exception():
    pool = qkms.KeyPoolState(balance_bits=100, capacity_bits=100, gen_rate_bps=0.0)
    kms = qkms.KmsReplica(0, pool, seed=7)
    tracer = Tracer()
    with tracer.patched([Target(qkms.KmsReplica, "rent", "qkms.rent")]):
        with pytest.raises(qkms.InsufficientEntropy):
            kms.rent(256, 0)
    span = tracer.spans[0]
    assert span.meta["raised"] == "InsufficientEntropy"
    assert span.end_ns >= span.start_ns
    assert tracer._open == []


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("root", 0, 100),
        Span("a", 10, 40, parent=0),
        Span("a.x", 15, 25, parent=1),
        Span("b", 50, 60, parent=0),
        Span("leaf", 70, 75, parent=-1),
    ]
    assert self_times_ns(spans) == [100 - 30 - 10, 30 - 10, 10, 10, 5]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0, 100), Span("c1", 10, 50, parent=0), Span("c2", 30, 120, parent=0)]
    assert self_times_ns(spans)[0] == 10


def test_layer_metrics_from_spans():
    spans = [
        Span("cli.qsah-bench", 0, 10_000),
        Span("netsim.run_until", 1_000, 5_000, parent=0, meta={"events": 4}),
        Span("qsah.server_response", 2_000, 3_000, parent=1),
        Span("qkms.rent", 6_000, 7_000, parent=0, meta={"raised": "InsufficientEntropy"}),
        Span("qkms.rent", 7_000, 8_000, parent=0),
    ]
    m = layer_metrics(spans)
    assert m["netsim.run_until.self_s"] == pytest.approx(3e-6)
    assert m["netsim.us_per_event"] == pytest.approx(0.75)
    assert m["qsah.crypto.s"] == pytest.approx(1e-6)
    assert m["qkms.rent.calls"] == 2
    assert m["qkms.rent.fail_share"] == 0.5
    assert m["cli.qsah-bench.self_s"] == pytest.approx(10e-6 - 4e-6 - 2e-6)
    assert m["keypool.simulate_pool.ns_per_event"] == 0.0


def test_certificate_and_ratio_on_a_small_instance():
    grid, prosumers = random_instance(12, 4, seed=26)
    social = solve_social(grid, prosumers)
    keep = np.arange(len(prosumers))

    def flows(u):
        h = grid.ptdf
        p = [follower_response(pr, u, h[:, i]) for i, pr in enumerate(prosumers)]
        return h @ np.array(p)

    def worst(u):
        over = (flows(u) - grid.line_limits) / (1.0 + np.abs(grid.line_limits))
        return max(0.0, float(over.max()))

    # SOCIAL's dual price as the leader's price: feasible, ratio exactly 1
    as_stack = {"STACK": social, "SOCIAL": social}
    cert = certify_clear(grid, prosumers, keep, as_stack, tol=1e-6)
    assert cert.feasible
    assert cert.cost_ratio == pytest.approx(1.0)

    # zero prices leave the congested lines overloaded
    zero = MarketOutcome(u=np.zeros(grid.n_lines), p=social.p, welfare=0.0,
                         scenario="STACK", feasible=True)
    assert worst(zero.u) > 1e-3
    cert = certify_clear(grid, prosumers, keep, {"STACK": zero, "SOCIAL": social}, tol=1e-6)
    assert not cert.feasible
    assert cert.max_violation == pytest.approx(worst(zero.u))
    assert cert.cost_ratio == 0.0

    # a dearer price: the ratio is the two leader costs divided
    dear = MarketOutcome(u=2.0 * social.u + 0.5, p=social.p, welfare=0.0,
                         scenario="STACK", feasible=True)
    cert = certify_clear(grid, prosumers, keep, {"STACK": dear, "SOCIAL": social}, tol=1e-6)
    u = 2.0 * social.u + 0.5
    assert cert.stack_cost == pytest.approx(0.5 * float(u @ u))
    assert cert.cost_ratio == pytest.approx(leader_cost(grid, u) / leader_cost(grid, social.u))
    assert cert.max_violation == pytest.approx(worst(u))


def test_determinism_check_flags_one_changed_byte(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for d in (first, second):
        (d / "sub").mkdir(parents=True)
        (d / "manifest.json").write_bytes(b'{"seed": 1}\n')
        (d / "sub" / "data.csv").write_bytes(b"x,y\n1,2\n")
    reference = digest_dir(first)
    assert compare_digests(reference, digest_dir(second)) == (2, 0)

    (second / "sub" / "data.csv").write_bytes(b"x,y\n1,3\n")
    assert compare_digests(reference, digest_dir(second)) == (2, 1)

    (second / "extra.csv").write_bytes(b"")
    (second / "manifest.json").unlink()
    assert compare_digests(reference, digest_dir(second)) == (3, 3)


def test_two_traced_protocols_passes_give_identical_counts(tmp_path):
    workload = run.Workload(("qsah-bench", "rate-adapt", "full-stack"), seed=1, out=tmp_path)
    passes = [workload.run_pass(layer_targets()) for _ in range(2)]
    assert workload.failed == 0
    assert not list(tmp_path.iterdir())
    counts = ("netsim.events", "netsim.run_until.calls", "qkms.rent.calls",
              "market.solve_stackelberg.iterations", "market.solve_social.iterations",
              "porlite.network.confirmed_share", "qsah.established_share")
    metrics = [layer_metrics(p.spans) for p in passes]
    assert metrics[0]["netsim.events"] == 9180
    for name in counts:
        assert metrics[0][name] == metrics[1][name], name
    sizes = [{c.command: c.output_bytes for c in p.commands} for p in passes]
    assert sizes[0] == sizes[1]
    clears = [run.clearing_metrics(p.certificates) for p in passes]
    assert clears[0] == clears[1]
    assert clears[0]["market.distinct_clear_share"] == 1.0


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

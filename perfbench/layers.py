"""Where the traced run wraps the program, and the per-layer metrics.

Each function is wrapped under the name its caller looks up: functions
the CLI imported by name on ``qenergydex.cli``, functions called inside a
layer on that layer's module, and methods on their class. Spans are named
``<layer>.<function>`` whichever attribute was wrapped.
"""

from __future__ import annotations

from qenergydex import cli, market, netsim, porlite, qkms, qsah

from spans import Span, Target, self_times_ns

COMMANDS = ("market", "keypool", "porlite", "qsah-bench", "rate-adapt", "full-stack")


def _meta(**extract):
    """An ``on_return`` hook that stores ``fn(args, kwargs, result)`` in span.meta."""

    def on_return(span: Span, args, kwargs, result) -> None:
        for key, fn in extract.items():
            span.meta[key] = fn(args, kwargs, result)

    return on_return


def _arg(pos: int, name: str, default=None):
    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)

    return get


_max_events = _arg(3, "max_events", 1_000_000)
_mode = _arg(5, "mode", "bernoulli")
_n_handshakes = _arg(0, "n_handshakes")


def layer_targets() -> list[Target]:
    """Every wrapped call site of the traced run."""
    t = Target
    return [
        # keypool
        t(cli, "simulate_pool", "keypool.simulate_pool",
          _meta(max_events=lambda a, k, r: int(_max_events(a, k)))),
        t(cli, "min_capacity", "keypool.min_capacity"),
        t(cli, "exact_min_capacity", "keypool.exact_min_capacity"),
        t(cli, "stationary_distribution", "keypool.stationary_distribution"),
        # porlite
        t(cli, "simulate_chain", "porlite.simulate_chain",
          _meta(mode=lambda a, k, r: _mode(a, k),
                heights=lambda a, k, r: len(r[0].outcomes),
                confirmed=lambda a, k, r: int((r[0].outcomes == 1).sum()))),
        t(porlite, "chain_metrics", "porlite.chain_metrics",
          _meta(heights=lambda a, k, r: len(a[0].outcomes))),
        t(porlite, "finality_depths", "porlite.finality_depths"),
        t(porlite, "fork_persistence_tail", "porlite.fork_persistence_tail"),
        t(porlite, "cp_violation_fraction", "porlite.cp_violation_fraction"),
        t(porlite, "growth_violation_fraction", "porlite.growth_violation_fraction"),
        t(porlite, "elect_leader", "porlite.elect_leader"),
        # market
        t(cli, "synthetic_grid_instance", "market.synthetic_grid_instance"),
        t(market, "solve_stackelberg", "market.solve_stackelberg",
          _meta(iterations=lambda a, k, r: r.iterations,
                kkt_residual=lambda a, k, r: r.kkt_residual)),
        t(market, "solve_social", "market.solve_social",
          _meta(iterations=lambda a, k, r: r.iterations)),
        t(market, "solve_base", "market.solve_base"),
        # qsah over netsim, keys from qkms
        t(cli, "latency_benchmark", "qsah.latency_benchmark",
          _meta(n_handshakes=lambda a, k, r: int(_n_handshakes(a, k)),
                established=lambda a, k, r: int(r.established))),
        t(qsah.ServerEndpoint, "server_response", "qsah.server_response"),
        t(qsah.ClientSession, "client_hello", "qsah.client_hello"),
        t(qsah.ClientSession, "client_finish", "qsah.client_finish"),
        t(netsim.Network, "run_until", "netsim.run_until",
          _meta(events=lambda a, k, r: len(r))),
        t(qkms.KmsReplica, "rent", "qkms.rent"),
        # rate controller and entropy
        t(cli, "run_rate_controller", "qkms.run_rate_controller",
          _meta(steps=lambda a, k, r: len(r.t_ms))),
        t(cli, "generate_qber_trace", "entropy.generate_qber_trace"),
    ]


# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "keypool.simulate_pool.s": ("s", "lower"),
    "keypool.simulate_pool.ns_per_event": ("ns", "lower"),
    "keypool.capacity_curve.s": ("s", "lower"),
    "porlite.chain_metrics.s": ("s", "lower"),
    "porlite.chain_metrics.ns_per_height": ("ns", "lower"),
    "porlite.finality_depths.s": ("s", "lower"),
    "porlite.streaks.s": ("s", "lower"),
    "porlite.growth_violation_fraction.s": ("s", "lower"),
    "porlite.network.ms_per_height": ("ms", "lower"),
    "porlite.elect_leader.s": ("s", "lower"),
    "porlite.network.confirmed_share": ("share", "higher"),
    "market.solve_stackelberg.s": ("s", "lower"),
    "market.solve_stackelberg.iterations": ("count", "lower"),
    "market.solve_stackelberg.kkt_residual": ("ratio", "lower"),
    "market.solve_social.s": ("s", "lower"),
    "market.solve_social.iterations": ("count", "lower"),
    "market.solve_base.s": ("s", "lower"),
    "market.synthetic_grid_instance.s": ("s", "lower"),
    "qsah.latency_benchmark.s": ("s", "lower"),
    "qsah.us_per_handshake": ("us", "lower"),
    "qsah.crypto.s": ("s", "lower"),
    "qsah.established_share": ("share", "higher"),
    "netsim.run_until.calls": ("count", "lower"),
    "netsim.run_until.self_s": ("s", "lower"),
    "netsim.events": ("count", "lower"),
    "netsim.us_per_event": ("us", "lower"),
    "qkms.run_rate_controller.s": ("s", "lower"),
    "qkms.run_rate_controller.ns_per_step": ("ns", "lower"),
    "qkms.rent.calls": ("count", "lower"),
    "qkms.rent.s": ("s", "lower"),
    "qkms.rent.fail_share": ("share", "lower"),
    "entropy.generate_qber_trace.s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    # a layer the workload never calls did no work and took no time
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of ``spans``; a layer not called reports 0."""
    selfs = self_times_ns(spans)

    def mode(i: int) -> str | None:
        while i >= 0:
            if spans[i].name == "porlite.simulate_chain":
                return spans[i].meta.get("mode")
            i = spans[i].parent
        return None

    def pick(*names: str, mode_is: str | None = None) -> list[int]:
        return [
            i for i, s in enumerate(spans)
            if s.name in names and (mode_is is None or mode(i) == mode_is)
        ]

    def busy_s(idx: list[int]) -> float:
        return sum(spans[i].duration_ns for i in idx) / 1e9

    def meta_sum(idx: list[int], key: str) -> float:
        return sum(spans[i].meta.get(key, 0) for i in idx)

    m: dict[str, float] = {}
    pool = pick("keypool.simulate_pool")
    m["keypool.simulate_pool.s"] = busy_s(pool)
    m["keypool.simulate_pool.ns_per_event"] = _ratio(busy_s(pool) * 1e9, meta_sum(pool, "max_events"))
    m["keypool.capacity_curve.s"] = busy_s(pick(
        "keypool.min_capacity", "keypool.exact_min_capacity", "keypool.stationary_distribution"))

    cm = pick("porlite.chain_metrics", mode_is="bernoulli")
    m["porlite.chain_metrics.s"] = busy_s(cm)
    m["porlite.chain_metrics.ns_per_height"] = _ratio(busy_s(cm) * 1e9, meta_sum(cm, "heights"))
    m["porlite.finality_depths.s"] = busy_s(pick("porlite.finality_depths", mode_is="bernoulli"))
    m["porlite.streaks.s"] = busy_s(pick(
        "porlite.fork_persistence_tail", "porlite.cp_violation_fraction", mode_is="bernoulli"))
    m["porlite.growth_violation_fraction.s"] = busy_s(
        pick("porlite.growth_violation_fraction", mode_is="bernoulli"))
    net = pick("porlite.simulate_chain", mode_is="network")
    m["porlite.network.ms_per_height"] = _ratio(busy_s(net) * 1e3, meta_sum(net, "heights"))
    m["porlite.elect_leader.s"] = busy_s(pick("porlite.elect_leader"))
    m["porlite.network.confirmed_share"] = _ratio(meta_sum(net, "confirmed"), meta_sum(net, "heights"))

    stack = pick("market.solve_stackelberg")
    social = pick("market.solve_social")
    m["market.solve_stackelberg.s"] = busy_s(stack)
    m["market.solve_stackelberg.iterations"] = meta_sum(stack, "iterations")
    m["market.solve_stackelberg.kkt_residual"] = max(
        (spans[i].meta.get("kkt_residual", 0.0) for i in stack), default=0.0)
    m["market.solve_social.s"] = busy_s(social)
    m["market.solve_social.iterations"] = meta_sum(social, "iterations")
    m["market.solve_base.s"] = busy_s(pick("market.solve_base"))
    m["market.synthetic_grid_instance.s"] = busy_s(pick("market.synthetic_grid_instance"))

    bench = pick("qsah.latency_benchmark")
    handshakes = meta_sum(bench, "n_handshakes")
    m["qsah.latency_benchmark.s"] = busy_s(bench)
    m["qsah.us_per_handshake"] = _ratio(busy_s(bench) * 1e6, handshakes)
    m["qsah.crypto.s"] = busy_s(pick(
        "qsah.server_response", "qsah.client_hello", "qsah.client_finish"))
    m["qsah.established_share"] = _ratio(meta_sum(bench, "established"), handshakes)

    run = pick("netsim.run_until")
    run_self_s = sum(selfs[i] for i in run) / 1e9
    events = meta_sum(run, "events")
    m["netsim.run_until.calls"] = len(run)
    m["netsim.run_until.self_s"] = run_self_s
    m["netsim.events"] = events
    m["netsim.us_per_event"] = _ratio(run_self_s * 1e6, events)

    ctl = pick("qkms.run_rate_controller")
    m["qkms.run_rate_controller.s"] = busy_s(ctl)
    m["qkms.run_rate_controller.ns_per_step"] = _ratio(busy_s(ctl) * 1e9, meta_sum(ctl, "steps"))
    rent = pick("qkms.rent")
    m["qkms.rent.calls"] = len(rent)
    m["qkms.rent.s"] = busy_s(rent)
    m["qkms.rent.fail_share"] = _ratio(
        sum(1 for i in rent if spans[i].meta.get("raised") == "InsufficientEntropy"), len(rent))
    m["entropy.generate_qber_trace.s"] = busy_s(pick("entropy.generate_qber_trace"))

    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = sum(selfs[i] for i in pick(f"cli.{command}")) / 1e9
    return m

"""Experiment harness and command-line surface.

Commands reproduce the case studies as machine-readable CSV/JSON:

    rate-adapt    adaptive vs fixed emission over a synthetic QBER trace
    qsah-bench    handshake latency ECDFs against the modeled PKI baseline
    porlite       consensus bound-domination curves and finality histogram
    keypool       stationary empty-pool table and capacity sizing curve
    market        security-coupled welfare grid across scenarios and stacks
    full-stack    one seeded run exercising every module in sequence

Every run writes ``manifest.json`` with the fully resolved configuration;
rerunning any command with ``--config <out>/manifest.json`` reproduces the
output files byte for byte. All randomness derives from the root seed via
named substreams. ``--check`` validates the command's acceptance
assertions and exits with status 3 on failure; configuration errors exit
with status 2.

The ``consensus``, ``links`` and ``qsah`` sections carry the fields of
``ConsensusParams``, ``LinkModel`` and ``BaselineHandshakeModel`` (with
those types' defaults) beside the harness's own keys: ``horizon``,
``seeds`` and ``max_depth`` for the PoR-Lite ensemble, ``n_handshakes``
and ``batch_size`` for the handshake benchmark. A key that no section
defines, a value its parameter type rejects, or a harness key outside
its range (a count below 1, a probability outside (0, 1), ...) exits with
status 2 before any output is written.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import generate_qber_trace
from .keypool import (
    BirthDeathParams,
    exact_min_capacity,
    min_capacity,
    simulate_pool,
    stationary_distribution,
)
from .market import (
    SCENARIOS,
    aggregate_response,
    leader_cost,
    security_coupled_clearing,
    synthetic_grid_instance,
)
from .netsim import LinkModel
from .porlite import (
    ConsensusParams,
    chain_metrics,
    finality_depth,
    fork_tail_bound,
    make_validators,
    simulate_chain,
)
from .qkms import (
    InsufficientEntropy,
    KeyPoolState,
    KmsReplica,
    RateAdaptState,
    generation_rate,
    run_rate_controller,
)
from .qsah import (
    BaselineHandshakeModel,
    ClientSession,
    ServerEndpoint,
    latency_benchmark,
)
from .rng import substream

DEFAULT_CONFIG = {
    "seed": 1,
    "trace": {
        "duration_s": 60.0,
        "base_q": 0.01,
        "noise_sigma": 0.004,
        "pulse_count": 12,
        "amp_lo": 0.01,
        "amp_hi": 0.05,
        "width_lo": 50.0,
        "width_hi": 500.0,
    },
    "kms": {
        "r_max_bps": 5.0e6,
        "gamma0": 0.5,
        "fixed_fraction": 0.8,
        "window_ms": 1,
    },
    "links": asdict(LinkModel()),
    "qsah": {**asdict(BaselineHandshakeModel()), "n_handshakes": 3000, "batch_size": 500},
    "consensus": {**asdict(ConsensusParams()), "horizon": 100000, "seeds": 30, "max_depth": 80},
    "keypool": {
        "rhos": [0.9, 0.99, 0.999, 0.9999],
        "capacity": 200,
        "max_events": 2000000,
        "n_epochs": 100000,
        "target_pi0": 1e-9,
        "curve_rho_lo": 0.5,
        "curve_rho_hi": 0.9999,
        "curve_points": 40,
    },
    "market": {
        "n_prosumers": 3000,
        "n_buses": 118,
        "n_lines": 186,
        "datasets": 1,
        "deadline_ms": 105.0,
        "per_node_key_cost_bits": 256,
        "tol": 1e-6,
    },
    "full_stack": {
        "alpha": 0.0,
        "heights": 300,
        "n_handshakes": 64,
        "n_validators": 20,
        "pool_capacity_bits": 4000000,
        "market_prosumers": 60,
        "market_lines": 8,
    },
}


class ConfigError(ValueError):
    pass


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise ConfigError(f"unknown configuration key: {key!r}")
        if isinstance(out[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be a mapping")
            for sub, sub_value in value.items():
                if sub not in out[key]:
                    raise ConfigError(f"unknown key {key}.{sub}")
                out[key][sub] = sub_value
        else:
            out[key] = value
    return out


def load_config(path: str | None, seed: int | None) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if "config" in doc and isinstance(doc["config"], dict):
            doc = doc["config"]    # a manifest was passed back in
        config = _merge(config, doc)
    if seed is not None:
        config["seed"] = int(seed)
    return config


def write_manifest(out: Path, command: str, config: dict) -> None:
    doc = {"command": command, "version": __version__, "config": config}
    (out / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write equal-length columns under ``header``, one row per index.

    Each column is taken as one array: a float column is written as the
    ``repr`` of each value (the shortest text that reads back to the same
    double), any other column with ``str``.
    """
    cells = [
        map(repr if col.dtype.kind == "f" else str, col.tolist())
        for col in map(np.asarray, columns)
    ]
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _trace_from_config(config: dict):
    t = config["trace"]
    return generate_qber_trace(
        duration_s=t["duration_s"],
        seed=config["seed"],
        pulse_count=t["pulse_count"],
        noise_sigma=t["noise_sigma"],
        base_q=t["base_q"],
        amp_range=(t["amp_lo"], t["amp_hi"]),
        width_range=(t["width_lo"], t["width_hi"]),
    )


# the config section that carries each parameter type's fields
_PARAM_SECTIONS = {ConsensusParams: "consensus", LinkModel: "links", BaselineHandshakeModel: "qsah"}


def _params(config: dict, cls):
    """``cls`` built from the keys of its config section that are its fields."""
    section = config[_PARAM_SECTIONS[cls]]
    try:
        return cls(**{f.name: section[f.name] for f in fields(cls)})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section {_PARAM_SECTIONS[cls]!r}: {exc}") from exc


def _full_stack_consensus(config: dict) -> ConsensusParams:
    """The consensus parameters with the full-stack run's adversary share."""
    try:
        return replace(_params(config, ConsensusParams), alpha=config["full_stack"]["alpha"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"full_stack.alpha: {exc}") from exc


# the harness's own keys and the range each must lie in: outside it a
# command raises mid-run or counts something a negative number of times
_HARNESS_RANGES = (
    ("an integer >= 1", lambda v: type(v) is int and v >= 1, {
        "kms": ("window_ms",),
        "qsah": ("n_handshakes", "batch_size"),
        "consensus": ("horizon", "seeds"),
        "keypool": ("capacity", "max_events"),
        "market": ("n_prosumers", "n_buses", "n_lines"),
        "full_stack": ("heights", "n_validators", "pool_capacity_bits", "market_prosumers",
                       "market_lines"),
    }),
    ("an integer >= 0", lambda v: type(v) is int and v >= 0, {
        "trace": ("pulse_count",),
        "consensus": ("max_depth",),
        "keypool": ("n_epochs", "curve_points"),
        "market": ("datasets",),
        "full_stack": ("n_handshakes",),
    }),
    ("in (0, 1)", lambda v: type(v) in (int, float) and 0 < v < 1, {
        "kms": ("gamma0",),
        "keypool": ("target_pi0", "curve_rho_lo", "curve_rho_hi"),
    }),
    ("> 0", lambda v: type(v) in (int, float) and v > 0, {
        "trace": ("duration_s",),
        "kms": ("r_max_bps",),
        "market": ("tol",),
    }),
)


def _check_harness_keys(config: dict) -> None:
    """Raise ConfigError for a harness key outside its range."""
    for rule, holds, sections in _HARNESS_RANGES:
        for section, keys in sections.items():
            for key in keys:
                value = config[section][key]
                if not holds(value):
                    raise ConfigError(f"{section}.{key} must be {rule}, got {value!r}")
    t = config["trace"]
    for lo, hi in (("amp_lo", "amp_hi"), ("width_lo", "width_hi")):
        if not t[lo] <= t[hi]:
            raise ConfigError(f"trace.{lo} must not exceed trace.{hi}")
    _full_stack_consensus(config)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_rate_adapt(config: dict, out: Path) -> list[tuple[str, bool, str]]:
    trace = _trace_from_config(config)
    kms = config["kms"]
    r_max = kms["r_max_bps"]
    st0 = RateAdaptState(r_t_bps=r_max, r_max_bps=r_max, gamma0=kms["gamma0"])
    adaptive = run_rate_controller(
        trace, st0, window_ms=kms["window_ms"], strategy="rate_adapt"
    )
    fixed = run_rate_controller(
        trace,
        st0,
        window_ms=kms["window_ms"],
        strategy="fixed",
        fixed_target_bps=kms["fixed_fraction"] * r_max,
    )

    _write_csv(
        out / "timeseries.csv",
        "t_ms,qber,capacity_bps,adaptive_target_bps,adaptive_output_bps,fixed_target_bps,fixed_output_bps",
        adaptive.t_ms,
        trace.samples,
        adaptive.capacity_bps,
        adaptive.target_bps,
        adaptive.output_bps,
        fixed.target_bps,
        fixed.output_bps,
    )

    names, rates, levels = [], [], []
    for name, result in (("rate_adapt", adaptive), ("fixed", fixed)):
        n = len(result.output_bps)
        idx = np.arange(0, n, max(1, n // 2000))
        names += [name] * len(idx)
        rates.append(np.sort(result.output_bps)[idx])
        levels.append((idx + 1) / n)
    _write_csv(
        out / "cdf.csv", "strategy,rate_bps,ecdf", names, np.concatenate(rates), np.concatenate(levels)
    )

    summary = [
        {
            "name": "Rate-Adapt",
            "cap_exceed_time": adaptive.cap_exceed_fraction,
            "dropped_bits": adaptive.total_dropped_bits,
        },
        {
            "name": "Fixed",
            "cap_exceed_time": fixed.cap_exceed_fraction,
            "dropped_bits": fixed.total_dropped_bits,
        },
    ]
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")

    delivered_floor = float(np.mean(adaptive.output_bps >= 0.76 * r_max))
    checks = [
        (
            "adaptive cap-exceed <= 1e-4",
            adaptive.cap_exceed_fraction <= 1e-4,
            f"{adaptive.cap_exceed_fraction:.2e}",
        ),
        (
            "fixed cap-exceed >= 1e-2",
            fixed.cap_exceed_fraction >= 1e-2,
            f"{fixed.cap_exceed_fraction:.2e}",
        ),
        (
            "dropped-bits ratio >= 1e3",
            fixed.total_dropped_bits >= 1e3 * max(adaptive.total_dropped_bits, 1.0),
            f"fixed {fixed.total_dropped_bits:.3e} adaptive {adaptive.total_dropped_bits:.3e}",
        ),
        (
            "delivered >= 0.76 R_max for >= 90% of samples",
            delivered_floor >= 0.90,
            f"{delivered_floor:.4f}",
        ),
        (
            "controller floor 0.1 R_max",
            bool((adaptive.state_bps >= 0.1 * r_max - 1e-9).all()),
            f"min state {adaptive.state_bps.min():.3e}",
        ),
    ]
    return checks


def cmd_qsah_bench(config: dict, out: Path) -> list[tuple[str, bool, str]]:
    qs = config["qsah"]
    link = _params(config, LinkModel)
    baseline = _params(config, BaselineHandshakeModel)
    res = latency_benchmark(
        qs["n_handshakes"], qs["batch_size"], link, baseline, seed=config["seed"]
    )
    scenarios = ("qsah_rtt", "baseline_local", "baseline_rtt")
    arms = (res.qsah_latencies, res.baseline_local, res.baseline_rtt)
    _write_csv(
        out / "latencies.csv",
        "scenario,handshake_idx,latency_ms",
        [name for name, arr in zip(scenarios, arms) for _ in arr],
        np.concatenate([np.arange(len(arr)) for arr in arms]),
        np.concatenate(arms),
    )

    ecdfs = (res.qsah_ecdf, res.baseline_local_ecdf, res.baseline_rtt_ecdf)
    _write_csv(
        out / "ecdf.csv",
        "scenario,latency_ms,ecdf,band_lo,band_hi",
        [name for name, e in zip(scenarios, ecdfs) for _ in e.x],
        np.concatenate([e.x for e in ecdfs]),
        np.concatenate([e.f for e in ecdfs]),
        np.concatenate([e.lower() for e in ecdfs]),
        np.concatenate([e.upper() for e in ecdfs]),
    )

    dominance = bool(
        (np.sort(res.qsah_latencies) <= np.sort(res.baseline_rtt)).all()
    )
    checks = [
        (
            "all handshakes established",
            res.established == qs["n_handshakes"],
            f"{res.established}/{qs['n_handshakes']}",
        ),
        (
            "median below baseline-with-rtt",
            float(np.median(res.qsah_latencies)) < float(np.median(res.baseline_rtt)),
            f"{np.median(res.qsah_latencies):.2f} vs {np.median(res.baseline_rtt):.2f} ms",
        ),
        ("latency ECDF dominates baseline at every quantile", dominance, ""),
    ]
    return checks


def _porlite_one_seed(args):
    params, horizon, max_depth, seed = args
    _trace, metrics = simulate_chain(
        params, horizon, seed=seed, mode="bernoulli", max_depth=max_depth
    )
    return metrics


def cmd_porlite(config: dict, out: Path, jobs: int = 1) -> list[tuple[str, bool, str]]:
    c = config["consensus"]
    params = _params(config, ConsensusParams)
    horizon = c["horizon"]
    max_depth = c["max_depth"]
    seeds = [substream(config["seed"], "porlite", k).integers(2 ** 63) for k in range(c["seeds"])]

    tasks = [(params, horizon, max_depth, int(s)) for s in seeds]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            metric_list = list(pool.map(_porlite_one_seed, tasks))
    else:
        metric_list = [_porlite_one_seed(t) for t in tasks]

    depths = metric_list[0].depths
    fork_emp = np.mean([m.fork_tail_empirical for m in metric_list], axis=0)
    cp_emp = np.mean([m.cp_empirical for m in metric_list], axis=0)
    growth_emp = np.mean([m.growth_empirical for m in metric_list], axis=0)
    hist = np.sum([m.finality_histogram for m in metric_list], axis=0)
    bounds = metric_list[0]

    _write_csv(out / "fork_tail.csv", "depth,empirical,bound", depths, fork_emp, bounds.fork_tail_bounds)
    _write_csv(out / "cp_violation.csv", "depth,empirical,bound", depths, cp_emp, bounds.cp_bounds)
    _write_csv(
        out / "growth_violation.csv", "depth,empirical,bound", depths, growth_emp, bounds.growth_bounds
    )
    _write_csv(out / "finality_hist.csv", "depth,count", depths, hist)

    dominated = all(m.dominated() for m in metric_list)
    # t_fin is the least depth whose fork-survival bound clears 2^-bits
    t_fin = finality_depth(params.alpha, params.security_bits)
    target = 2.0 ** -params.security_bits
    marker_ok = (
        fork_tail_bound(params.alpha, t_fin) <= target * (1 + 1e-12)
        and target * (1 - 1e-12) < fork_tail_bound(params.alpha, t_fin - 1)
    )
    if (params.alpha, params.security_bits) == (0.25, 40):
        marker_ok = marker_ok and t_fin == 56   # the paper's value
    floor_reached = bool((fork_emp == 0.0).any())
    checks = [
        ("every empirical frequency below its bound (all seeds)", dominated, ""),
        ("finality depth marker", marker_ok, f"t_fin={t_fin}"),
        ("empirical tail reaches the Monte Carlo floor", floor_reached, ""),
    ]
    return checks


def cmd_keypool(config: dict, out: Path) -> list[tuple[str, bool, str]]:
    kp = config["keypool"]
    capacity = kp["capacity"]
    rows = []
    ci_ok = True
    for rho in kp["rhos"]:
        params = BirthDeathParams.from_rho(rho, capacity, mu=1000.0)
        theo = stationary_distribution(params).empty_probability
        sim = simulate_pool(
            params,
            seed=config["seed"],
            max_events=kp["max_events"],
            n_epochs=kp["n_epochs"],
        )
        lo, hi = sim.wilson_ci
        rows.append((rho, theo, sim.empty_fraction, lo, hi))
        if sim.empty_fraction == 0.0 and hi < theo:
            ci_ok = False
    _write_csv(out / "table2.csv", "rho,theoretical,empirical,ci_lo,ci_hi", *zip(*rows))

    curve = []
    rhos = np.linspace(kp["curve_rho_lo"], kp["curve_rho_hi"], kp["curve_points"])
    for rho in rhos:
        curve.append(
            (rho, min_capacity(float(rho), kp["target_pi0"]), exact_min_capacity(float(rho), kp["target_pi0"]))
        )
    _write_csv(out / "capacity_curve.csv", "rho,min_capacity_bound,exact_min_capacity", *zip(*curve))

    bounds = [r[1] for r in curve]
    increasing = all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    checks = [
        ("empty-pool table emitted for all load factors", len(rows) == len(kp["rhos"]), ""),
        ("Wilson upper bound covers theory where zero observed", ci_ok, ""),
        ("capacity bound increases with load factor", increasing, ""),
    ]
    return checks


def cmd_market(config: dict, out: Path) -> list[tuple[str, bool, str]]:
    m = config["market"]
    qs = config["qsah"]
    link = _params(config, LinkModel)
    baseline = _params(config, BaselineHandshakeModel)
    rows = []
    checks = []
    for dataset in range(m["datasets"]):
        grid, prosumers = synthetic_grid_instance(
            n_prosumers=m["n_prosumers"],
            n_buses=m["n_buses"],
            n_lines=m["n_lines"],
            seed=substream(config["seed"], "market", "dataset", dataset).integers(2 ** 63),
        )
        bench = latency_benchmark(
            min(qs["n_handshakes"], m["n_prosumers"]),
            qs["batch_size"],
            link,
            baseline,
            seed=config["seed"] + dataset,
        )
        budget = float(m["per_node_key_cost_bits"]) * m["n_prosumers"]
        results = {}
        for stack, latencies in (
            ("qkd", bench.qsah_latencies),
            ("baseline", bench.baseline_rtt),
        ):
            keep, outcomes = security_coupled_clearing(
                grid,
                prosumers,
                key_budget_bits=budget,
                handshake_deadline_ms=m["deadline_ms"],
                qsah_latencies=latencies,
                per_node_key_cost_bits=m["per_node_key_cost_bits"],
                tol=m["tol"],
            )
            results[stack] = (keep, outcomes)
            for scenario in SCENARIOS:
                o = outcomes[scenario]
                rows.append(
                    (stack, scenario, o.welfare, len(keep), o.iterations, o.kkt_residual)
                )
        for scenario in SCENARIOS:
            w_q = results["qkd"][1][scenario].welfare
            w_b = results["baseline"][1][scenario].welfare
            rel = abs(w_q - w_b) / max(abs(w_b), 1e-9)
            checks.append(
                (
                    f"dataset {dataset} {scenario}: stack welfare within 2%",
                    rel <= 0.02,
                    f"qkd {w_q:.1f} vs baseline {w_b:.1f} ({100*rel:.3f}%)",
                )
            )
        for stack in ("qkd", "baseline"):
            outcomes = results[stack][1]
            w_social = outcomes["SOCIAL"].welfare
            dominated = all(
                w_social >= outcomes[s].welfare - 1e-6 * (1.0 + abs(w_social))
                for s in SCENARIOS
            )
            checks.append(
                (f"dataset {dataset} {stack}: SOCIAL dominates row", dominated, "")
            )
            # STACK's prices, re-checked from the capped responses: line
            # flows within tol, and no dearer for the leader than SOCIAL's
            # dual price (always a feasible leader price)
            keep = results[stack][0]
            h = grid.ptdf[:, keep]
            u = outcomes["STACK"].u
            flows = h @ aggregate_response([prosumers[i] for i in keep], u, h)
            limits = grid.line_limits
            viol = float((np.maximum(0.0, flows - limits) / (1.0 + np.abs(limits))).max())
            cost = leader_cost(grid, u)
            social_cost = leader_cost(grid, outcomes["SOCIAL"].u)
            checks.append(
                (
                    f"dataset {dataset} {stack}: STACK certified",
                    viol <= m["tol"] and cost <= social_cost * (1 + 1e-9) + 1e-9,
                    f"violation {viol:.1e}, leader cost {cost:.2f} vs SOCIAL price {social_cost:.2f}",
                )
            )
    _write_csv(
        out / "welfare_grid.csv",
        "stack,scenario,welfare,participants,iterations,kkt_residual",
        *zip(*rows),
    )
    return checks


def cmd_full_stack(config: dict, out: Path) -> list[tuple[str, bool, str]]:
    fs = config["full_stack"]
    seed = config["seed"]
    trace = _trace_from_config(config)

    r0 = config["kms"]["r_max_bps"]
    gen_bps = generation_rate(r0, trace.mean, n_block=max(int(r0 // 1000), 1))
    pool = KeyPoolState(
        balance_bits=fs["pool_capacity_bits"],
        capacity_bits=fs["pool_capacity_bits"],
        gen_rate_bps=gen_bps,
    )
    kms = KmsReplica(0, pool, seed=seed)

    # handshakes over rented keys
    nonce_rng = substream(seed, "fullstack", "nonces")
    server = ServerEndpoint(rng=nonce_rng)
    established = 0
    rent_failures = 0
    now_ms = 0
    for i in range(fs["n_handshakes"]):
        now_ms += 10
        try:
            key = kms.rent(256, now_ms)
        except InsufficientEntropy:
            rent_failures += 1
            continue
        server.install_key(key)
        client = ClientSession(key, nonce_rng)
        msg1 = client.client_hello(now_ms)
        msg2 = server.server_response(key.key_id, msg1, now_ms)
        client.client_finish(msg2, now_ms)
        if client.session.state == "established":
            established += 1

    # consensus with salts rented from the same pool
    params = _full_stack_consensus(config)
    nodes = make_validators(fs["n_validators"], fs["alpha"], seed)
    trace_chain, metrics = simulate_chain(
        params,
        fs["heights"],
        nodes=nodes,
        link=_params(config, LinkModel),
        seed=seed,
        mode="network",
        kms=kms,
        max_depth=min(40, fs["heights"]),
    )
    confirmed = int((trace_chain.outcomes == 1).sum())
    forks = int((trace_chain.outcomes == -1).sum())
    empty = int((trace_chain.outcomes == 0).sum())

    # market batch on the admitted prosumers
    grid, prosumers = synthetic_grid_instance(
        n_prosumers=fs["market_prosumers"],
        n_buses=max(4, fs["market_prosumers"] // 4),
        n_lines=fs["market_lines"],
        seed=substream(seed, "fullstack", "market").integers(2 ** 63),
    )
    qs = config["qsah"]
    bench = latency_benchmark(
        fs["market_prosumers"],
        min(qs["batch_size"], fs["market_prosumers"]),
        _params(config, LinkModel),
        _params(config, BaselineHandshakeModel),
        seed=seed,
    )
    keep, outcomes = security_coupled_clearing(
        grid,
        prosumers,
        key_budget_bits=256.0 * fs["market_prosumers"],
        handshake_deadline_ms=config["market"]["deadline_ms"],
        qsah_latencies=bench.qsah_latencies,
        per_node_key_cost_bits=256.0,
    )

    bits_rented = total_rent_failures = 0
    for (_t, ev, _r, _k, n, _b) in kms.events:
        if ev == "rent":
            bits_rented += n
        elif ev == "rent_fail":
            total_rent_failures += 1
    report = {
        "entropy": {
            "generation_bps": gen_bps,
            "bits_rented": bits_rented,
            "rent_failures": total_rent_failures,
        },
        "handshakes": {"attempted": fs["n_handshakes"], "established": established},
        "consensus": {
            "heights": fs["heights"],
            "confirmed": confirmed,
            "forks": forks,
            "empty_slots": empty,
            "mean_interval_ms": trace_chain.block_interval_ms,
        },
        "market": {
            "participants": int(len(keep)),
            "welfare": {s: outcomes[s].welfare for s in SCENARIOS},
        },
    }
    (out / "pipeline_report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    )

    checks = [
        (
            "all handshakes established",
            established == fs["n_handshakes"] and rent_failures == 0,
            f"{established}/{fs['n_handshakes']}",
        ),
    ]
    if fs["alpha"] == 0:
        checks.append(("zero forks at zero adversary", forks == 0, f"forks={forks}"))
    checks += [
        ("chain frequencies below their bounds", metrics.dominated(), ""),
        ("market cleared for admitted participants", len(keep) > 0, f"{len(keep)}"),
    ]
    return checks


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "rate-adapt": cmd_rate_adapt,
    "qsah-bench": cmd_qsah_bench,
    "porlite": cmd_porlite,
    "keypool": cmd_keypool,
    "market": cmd_market,
    "full-stack": cmd_full_stack,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qenergydex", description="deterministic case-study experiment harness"
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config or a prior manifest.json")
    parser.add_argument("--seed", type=int, default=None, help="root seed override")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for ensembles")
    parser.add_argument(
        "--check", action="store_true", help="run acceptance assertions; exit 3 on failure"
    )
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, args.seed)
        for cls in _PARAM_SECTIONS:   # reject what a parameter type refuses, before any output
            _params(config, cls)
        _check_harness_keys(config)
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(out, args.command, config)

    fn = COMMANDS[args.command]
    if args.command == "porlite":
        checks = fn(config, out, jobs=args.jobs)
    else:
        checks = fn(config, out)

    failed = False
    if args.check:
        for name, ok, detail in checks:
            status = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"[{status}] {name}{suffix}")
            failed = failed or not ok
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

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

Only ``qsah-bench`` and ``full-stack`` run the handshake protocol, so only
they need the ``cryptography`` package: it is imported at their first
handshake (``qsah._crypto``), and the other commands never load it.

Each config section holds the harness's own keys, which ``_HARNESS_KEYS``
lists with their defaults and ranges; the ``consensus``, ``links`` and
``qsah`` sections also carry the fields of ``ConsensusParams``,
``LinkModel`` and ``BaselineHandshakeModel``, at those types' defaults.
``load_config`` checks the whole config: one it rejects exits with status 2
before any output is written.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import SAMPLE_RATE_HZ, generate_qber_trace, secure_capacity_bps
from .keypool import (
    BirthDeathParams,
    exact_min_capacity,
    min_capacity,
    simulate_pool,
    stationary_distribution,
)
from .market import (
    DEFAULT_TOL,
    SCENARIOS,
    grid_response,
    leader_cost,
    security_coupled_clearing,
    synthetic_grid_instance,
)
from .netsim import LinkModel
from .porlite import (
    ConsensusParams,
    byzantine_count,
    finality_depth,
    fork_tail_bound,
    make_validators,
    simulate_chain,
)
from .qkms import (
    RATE_FLOOR_FRACTION,
    InsufficientEntropy,
    KeyPoolState,
    KmsReplica,
    run_rate_controller,
)
from .qsah import (
    KEY_BITS,
    BaselineHandshakeModel,
    ClientSession,
    ServerEndpoint,
    baseline_latencies,
    check_batch_separation,
    handshake_latencies,
    latency_benchmark,
)
from .rng import substream
from .stats import ecdf


def _real(v) -> bool:
    """An int (not a bool) or a finite float: JSON admits Infinity and NaN."""
    return type(v) is int or (type(v) is float and math.isfinite(v))


# the ranges of harness keys: each the text its error gives and its test
_COUNT = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
_POSITIVE = ("> 0", lambda v: _real(v) and v > 0)
_NON_NEGATIVE = (">= 0", lambda v: _real(v) and v >= 0)
_OPEN_UNIT = ("in (0, 1)", lambda v: _real(v) and 0 < v < 1)

# each section's harness keys, as key -> (default, *ranges). Outside its
# ranges a command raises mid-run, counts something a negative number of
# times, passes its checks on an empty output, or runs to the end on a
# value with no meaning (a negative deadline, key cost, noise level or pulse
# amplitude, a fraction or QBER outside its interval, an infinite duration,
# rate, pulse width or amplitude, a pulse width of 0 that drops every pulse)
_HARNESS_KEYS = {
    "trace": {
        "duration_s": (
            60.0,
            _POSITIVE,
            # generate_qber_trace's sample count; round(0.5) is 0
            ("long enough for one 1 kHz sample (> 0.0005)",
             lambda v: _real(v) and int(round(v * SAMPLE_RATE_HZ)) >= 1),
        ),
        "base_q": (0.01, ("in [0, 1)", lambda v: _real(v) and 0 <= v < 1)),
        "noise_sigma": (0.004, _NON_NEGATIVE),
        "pulse_count": (12, ("an integer >= 0", lambda v: type(v) is int and v >= 0)),
        "amp_lo": (0.01, _NON_NEGATIVE),
        "amp_hi": (0.05, _NON_NEGATIVE),
        "width_lo": (50.0, _POSITIVE),
        "width_hi": (500.0, _POSITIVE),
    },
    "kms": {
        "r_max_bps": (5.0e6, _POSITIVE),
        "gamma0": (0.5, _OPEN_UNIT),
        "fixed_fraction": (0.8, ("in [0, 1]", lambda v: _real(v) and 0 <= v <= 1)),
    },
    "qsah": {
        "n_handshakes": (3000, _COUNT),
        "batch_size": (500, _COUNT),
    },
    "consensus": {
        "horizon": (100000, _COUNT),
        "seeds": (30, _COUNT),
        "max_depth": (80, _COUNT),
    },
    "keypool": {
        "rhos": (
            [0.9, 0.99, 0.999, 0.9999],
            ("a non-empty list of finite numbers > 0",
             lambda v: type(v) is list and v and all(_real(rho) and rho > 0 for rho in v)),
        ),
        "capacity": (200, _COUNT),
        "max_events": (2000000, _COUNT),
        "n_epochs": (100000, _COUNT),
        "target_pi0": (1e-9, _OPEN_UNIT),
        "curve_rho_lo": (0.5, _OPEN_UNIT),
        "curve_rho_hi": (0.9999, _OPEN_UNIT),
        "curve_points": (40, ("an integer >= 2", lambda v: type(v) is int and v >= 2)),
    },
    "market": {
        "n_prosumers": (3000, _COUNT),
        "n_buses": (118, _COUNT),
        "n_lines": (186, _COUNT),
        "deadline_ms": (105.0, _NON_NEGATIVE),
        "per_node_key_cost_bits": (KEY_BITS, _NON_NEGATIVE),
        "tol": (DEFAULT_TOL, _POSITIVE),
    },
    "full_stack": {
        "alpha": (0.0,),   # checked against the consensus parameters in load_config
        "heights": (300, _COUNT),
        "n_handshakes": (64, _COUNT),
        "n_validators": (20, _COUNT),
        "pool_capacity_bits": (4000000, _COUNT),
        "market_prosumers": (60, _COUNT),
        "market_lines": (8, _COUNT),
    },
}

# the config section that carries each parameter type's fields, at that
# type's defaults, beside the section's harness keys
_PARAM_SECTIONS = {ConsensusParams: "consensus", LinkModel: "links", BaselineHandshakeModel: "qsah"}


def _default_config() -> dict:
    config = {"seed": 1, **{section: asdict(cls()) for cls, section in _PARAM_SECTIONS.items()}}
    for section, keys in _HARNESS_KEYS.items():
        config.setdefault(section, {}).update((key, spec[0]) for key, spec in keys.items())
    return config


DEFAULT_CONFIG = _default_config()


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


def load_config(path: str | None, seed: int | None) -> dict:
    """``DEFAULT_CONFIG`` with the document at ``path``, then ``seed``, over it.

    The document is a config or a prior ``manifest.json``. Every command
    runs on what this returns, so it raises ConfigError for anything a
    command would fail on or run to the end with no meaning: a document
    that is not a JSON object or names an unknown key, a seed outside the
    signed 128-bit range ``substream_seed`` hashes, a value a parameter
    type rejects, a harness key outside a range ``_HARNESS_KEYS`` gives it,
    a lower bound above its upper one, a full-stack validator set in which
    ``full_stack.alpha`` makes a third or more Byzantine, and a link on
    which a batch of handshakes may still be sending hellos when the next
    batch starts, since ``qsah-bench`` and ``market`` take their latencies
    from the closed form (``qsah.check_batch_separation``).
    """
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must be a JSON object, got {type(doc).__name__}")
        if isinstance(doc.get("config"), dict):
            doc = doc["config"]    # a manifest was passed back in
        config = _merge(config, doc)
    if seed is not None:
        config["seed"] = seed
    # substream_seed hashes the root seed as a signed 128-bit integer
    seed = config["seed"]
    if type(seed) is not int or not -2 ** 127 <= seed < 2 ** 127:
        raise ConfigError(f"seed must be an integer in [-2**127, 2**127), got {seed!r}")

    for cls in _PARAM_SECTIONS:
        _params(config, cls)
    for section, keys in _HARNESS_KEYS.items():
        for key, (_default, *ranges) in keys.items():
            value = config[section][key]
            for rule, holds in ranges:
                if not holds(value):
                    raise ConfigError(f"{section}.{key} must be {rule}, got {value!r}")
    for section, lo, hi in (("trace", "amp_lo", "amp_hi"), ("trace", "width_lo", "width_hi"),
                            ("keypool", "curve_rho_lo", "curve_rho_hi")):
        if not config[section][lo] <= config[section][hi]:
            raise ConfigError(f"{section}.{lo} must not exceed {section}.{hi}")
    fs = config["full_stack"]
    _full_stack_consensus(config)
    try:
        byzantine_count(fs["n_validators"], fs["alpha"])
    except ValueError as exc:
        raise ConfigError(f"full_stack: {exc}") from exc
    # the handshake runs whose latencies come from the closed form
    link = _params(config, LinkModel)
    batch_size = config["qsah"]["batch_size"]
    for section, key in (("qsah", "n_handshakes"), ("market", "n_prosumers")):
        try:
            check_batch_separation(config[section][key], batch_size, link)
        except ValueError as exc:
            raise ConfigError(
                f"links: {exc} when {section}.{key} exceeds qsah.batch_size"
            ) from exc
    return config


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# rows formatted per write of _write_csv
_CSV_BLOCK = 4096


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write equal-length columns under ``header``, one row per index.

    Each column is taken as one array: a float column is written as the
    ``repr`` of each value (the shortest text that reads back to the same
    double), any other column with ``str``. Columns of unequal length raise
    ValueError before the file is opened. Rows are formatted and written
    ``_CSV_BLOCK`` at a time, so the Python objects staged at once number
    O(``_CSV_BLOCK`` x columns) whatever the row count. A column object
    passed more than once is formatted once and its texts shared, and a
    broadcast column (stride 0) is formatted from its one value; the texts
    stay lazy iterators that the row join consumes in step.
    """
    cols = [np.asarray(col) for col in columns]
    lengths = [len(col) for col in cols]
    if len(set(lengths)) > 1:
        raise ValueError(f"{path.name}: columns differ in length: {lengths}")
    formats = [repr if col.dtype.kind == "f" else str for col in cols]
    # the position at which each argument first appears
    seen: dict[int, int] = {}
    firsts = [seen.setdefault(id(col), j) for j, col in enumerate(columns)]
    n = max(lengths, default=0)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, _CSV_BLOCK):
            hi = min(n, lo + _CSV_BLOCK)
            cells = []
            for first, fmt, col in zip(firsts, formats, cols):
                if first < len(cells):
                    cells[first], texts = itertools.tee(cells[first])
                elif col.strides == (0,):
                    texts = itertools.repeat(fmt(col[0].item()), hi - lo)
                else:
                    texts = map(fmt, col[lo:hi].tolist())
                cells.append(texts)
            fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


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


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_rate_adapt(config: dict, out: Path) -> list[tuple[str, bool, str]]:
    trace = _trace_from_config(config)
    kms = config["kms"]
    r_max = kms["r_max_bps"]
    res = run_rate_controller(trace, r_max, kms["gamma0"], float(kms["fixed_fraction"] * r_max))
    adaptive, fixed = res.adaptive, res.fixed

    _write_csv(
        out / "timeseries.csv",
        "t_ms,qber,capacity_bps,adaptive_target_bps,adaptive_output_bps,fixed_target_bps,fixed_output_bps",
        res.t_ms, trace.samples, res.capacity_bps,
        # the adaptive request never exceeds capacity, so it is also the output
        adaptive.output_bps, adaptive.output_bps,
        np.broadcast_to(res.fixed_target_bps, res.t_ms.shape), fixed.output_bps,
    )

    names, rates, levels = [], [], []
    for name, result in (("rate_adapt", adaptive), ("fixed", fixed)):
        e = ecdf(result.output_bps)
        idx = np.arange(0, e.x.size, max(1, e.x.size // 2000))
        names += [name] * len(idx)
        rates.append(e.x[idx])
        levels.append(e.f[idx])
    _write_csv(
        out / "cdf.csv", "strategy,rate_bps,ecdf", names, np.concatenate(rates), np.concatenate(levels)
    )

    _write_json(out / "summary.json", [
        {"name": name, "cap_exceed_time": result.cap_exceed_fraction,
         "dropped_bits": result.total_dropped_bits}
        for name, result in (("Rate-Adapt", adaptive), ("Fixed", fixed))
    ])

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
            bool((res.state_bps >= RATE_FLOOR_FRACTION * r_max - 1e-9).all()),
            f"min state {res.state_bps.min():.3e}",
        ),
    ]
    return checks


def cmd_qsah_bench(config: dict, out: Path) -> list[tuple[str, bool, str]]:
    qs = config["qsah"]
    link = _params(config, LinkModel)
    res = latency_benchmark(qs["n_handshakes"], qs["batch_size"], link, seed=config["seed"])
    baseline_local, baseline_rtt = baseline_latencies(
        qs["n_handshakes"], link, _params(config, BaselineHandshakeModel), config["seed"]
    )
    scenarios = ("qsah_rtt", "baseline_local", "baseline_rtt")
    arms = (res.qsah_latencies, baseline_local, baseline_rtt)
    _write_csv(
        out / "latencies.csv",
        "scenario,handshake_idx,latency_ms",
        [name for name, arr in zip(scenarios, arms) for _ in arr],
        np.concatenate([np.arange(len(arr)) for arr in arms]),
        np.concatenate(arms),
    )

    ecdfs = [ecdf(arr) for arr in arms]
    _write_csv(
        out / "ecdf.csv",
        "scenario,latency_ms,ecdf,band_lo,band_hi",
        [name for name, e in zip(scenarios, ecdfs) for _ in e.x],
        np.concatenate([e.x for e in ecdfs]),
        np.concatenate([e.f for e in ecdfs]),
        np.concatenate([e.lower() for e in ecdfs]),
        np.concatenate([e.upper() for e in ecdfs]),
    )

    # the ECDFs hold each arm's latencies sorted
    dominance = bool((ecdfs[0].x <= ecdfs[2].x).all())
    checks = [
        (
            "all handshakes established",
            res.established == qs["n_handshakes"],
            f"{res.established}/{qs['n_handshakes']}",
        ),
        (
            "median below baseline-with-rtt",
            float(np.median(res.qsah_latencies)) < float(np.median(baseline_rtt)),
            f"{np.median(res.qsah_latencies):.2f} vs {np.median(baseline_rtt):.2f} ms",
        ),
        ("latency ECDF dominates baseline at every quantile", dominance, ""),
        (
            "event-driven latencies equal the closed form",
            res.qsah_latencies.tobytes() == handshake_latencies(
                qs["n_handshakes"], qs["batch_size"], link, config["seed"]
            ).tobytes(),
            "",
        ),
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
    # a process pool forks all its workers at the first submit: no more than the tasks
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            metric_list = list(pool.map(_porlite_one_seed, tasks))
    else:
        metric_list = [_porlite_one_seed(t) for t in tasks]

    depths = metric_list[0].depths
    tail = np.mean([m.fork_tail_empirical for m in metric_list], axis=0)
    fork_emp, cp_emp = tail[:-1], tail[1:]
    growth_emp = np.mean([m.growth_empirical for m in metric_list], axis=0)
    hist = np.sum([m.finality_histogram for m in metric_list], axis=0)
    bounds = metric_list[0]

    _write_csv(out / "fork_tail.csv", "depth,empirical,bound", depths, fork_emp, bounds.fork_tail_bounds)
    _write_csv(out / "cp_violation.csv", "depth,empirical,bound", depths, cp_emp, bounds.fork_tail_bounds)
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
    chains = [BirthDeathParams.from_rho(rho, capacity, mu=1000.0) for rho in kp["rhos"]]
    sims = simulate_pool(
        chains,
        seed=config["seed"],
        max_events=kp["max_events"],
        n_epochs=kp["n_epochs"],
    )
    rows = []
    ci_ok = True
    for rho, params, sim in zip(kp["rhos"], chains, sims):
        theo = stationary_distribution(params).empty_probability
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
    grid, prosumers = synthetic_grid_instance(
        n_prosumers=m["n_prosumers"],
        n_buses=m["n_buses"],
        n_lines=m["n_lines"],
        # the substream path from when a run cleared several datasets; it
        # stays so that the instance, and every output, keeps its bytes
        seed=substream(config["seed"], "market", "dataset", 0).integers(2 ** 63),
    )
    # one handshake per prosumer: node i is admitted on latency i. The
    # closed form gives the latencies of latency_benchmark's event-driven
    # run byte for byte (qsah-bench --check compares the two) without
    # running its crypto and key rents, which move no latency
    link = _params(config, LinkModel)
    qkd = handshake_latencies(m["n_prosumers"], config["qsah"]["batch_size"], link, config["seed"])
    _local, baseline = baseline_latencies(
        m["n_prosumers"], link, _params(config, BaselineHandshakeModel), config["seed"]
    )
    budget = float(m["per_node_key_cost_bits"]) * m["n_prosumers"]
    clears = {}   # admitted set -> its clear; stacks that admit the same nodes share one
    results = {}
    rows = []
    for stack, latencies in (("qkd", qkd), ("baseline", baseline)):
        keep, outcomes = security_coupled_clearing(
            grid, prosumers, key_budget_bits=budget, handshake_deadline_ms=m["deadline_ms"],
            qsah_latencies=latencies, per_node_key_cost_bits=m["per_node_key_cost_bits"],
            tol=m["tol"], clears=clears,
        )
        results[stack] = (keep, outcomes)
        for scenario in SCENARIOS:
            o = outcomes[scenario]
            rows.append((stack, scenario, o.welfare, len(keep), o.iterations, o.kkt_residual))
    _write_csv(
        out / "welfare_grid.csv", "stack,scenario,welfare,participants,iterations,kkt_residual",
        *zip(*rows),
    )

    checks = []
    for scenario in SCENARIOS:
        w_q = results["qkd"][1][scenario].welfare
        w_b = results["baseline"][1][scenario].welfare
        rel = abs(w_q - w_b) / max(abs(w_b), 1e-9)
        checks.append((f"{scenario}: stack welfare within 2%", rel <= 0.02,
                       f"qkd {w_q:.1f} vs baseline {w_b:.1f} ({100*rel:.3f}%)"))
    for stack, (keep, outcomes) in results.items():
        w_social = outcomes["SOCIAL"].welfare
        dominated = all(
            w_social >= outcomes[s].welfare - 1e-6 * (1.0 + abs(w_social)) for s in SCENARIOS
        )
        checks.append((f"{stack}: SOCIAL dominates row", dominated, ""))
        # STACK's prices, re-checked from the capped responses: line flows
        # within tol, and no dearer for the leader than SOCIAL's dual price
        # (always a feasible leader price)
        admitted = grid.restrict(keep)
        u = outcomes["STACK"].u
        viol = admitted.overload(admitted.flows(grid_response(admitted, prosumers[keep], u)))
        cost = leader_cost(grid, u)
        social_cost = leader_cost(grid, outcomes["SOCIAL"].u)
        checks.append((
            f"{stack}: STACK certified",
            viol <= m["tol"] and cost <= social_cost * (1 + 1e-9) + 1e-9,
            f"violation {viol:.1e}, leader cost {cost:.2f} vs SOCIAL price {social_cost:.2f}",
        ))
    return checks


def cmd_full_stack(config: dict, out: Path) -> list[tuple[str, bool, str]]:
    fs = config["full_stack"]
    seed = config["seed"]
    trace = _trace_from_config(config)

    # the pool accrues the trace's mean secure capacity: the mean of
    # rate-adapt's capacity_bps column over the same trace
    gen_bps = float(secure_capacity_bps(config["kms"]["r_max_bps"], trace.samples).mean())
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
    now_ms = 0
    for i in range(fs["n_handshakes"]):
        now_ms += 10
        try:
            key = kms.rent(KEY_BITS, now_ms)
        except InsufficientEntropy:
            continue   # counted in the report; its handshake is not established
        server.install_key(key)
        client = ClientSession(key, nonce_rng)
        msg1 = client.client_hello(now_ms)
        msg2 = server.server_response(key.key_id, msg1)
        client.client_finish(msg2)   # raises AuthFail unless established
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
    # the real protocol through the network, as a run of every module
    # should; market takes the same latencies in closed form
    qs = config["qsah"]
    bench = latency_benchmark(
        fs["market_prosumers"],
        min(qs["batch_size"], fs["market_prosumers"]),
        _params(config, LinkModel),
        seed=seed,
    )
    keep, outcomes = security_coupled_clearing(
        grid,
        prosumers,
        key_budget_bits=KEY_BITS * fs["market_prosumers"],
        handshake_deadline_ms=config["market"]["deadline_ms"],
        qsah_latencies=bench.qsah_latencies,
        per_node_key_cost_bits=KEY_BITS,
    )

    bits_rented, _rents, rent_failures = kms.tally()
    report = {
        "entropy": {
            "generation_bps": gen_bps,
            "bits_rented": bits_rented,
            "rent_failures": rent_failures,
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
    _write_json(out / "pipeline_report.json", report)

    checks = [
        (
            "all handshakes established",
            established == fs["n_handshakes"],
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
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json",
                {"command": args.command, "version": __version__, "config": config})

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

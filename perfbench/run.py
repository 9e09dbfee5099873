"""Benchmark of the qenergydex case studies, run from the repository root.

    python3 perfbench/run.py --workload clearing --seed 1 --seconds 45 --trace 0

A workload is a batch of CLI commands run one after another in this
process through ``qenergydex.cli.main``, each with ``--check --jobs 1`` at
the paper config and with a fresh output directory (a closed loop with
one client):

    clearing             market: one paper-scale clear per stack
    ensembles-protocols  keypool, porlite (pure-Python Monte Carlo kernels),
                         qsah-bench, rate-adapt, full-stack (per-message
                         and per-step paths)

Passes of the workload repeat until ``--seconds`` are measured; the
workload seed orders the commands within each pass. Every pass is checked:
each ``--check`` assertion, a byte comparison of every output file with
the first pass, and an independent certificate of each market clear. A
command that raises counts all of its checks as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced pass, then traced passes that wrap the layers' functions from
outside (see ``layers.py``), and reports the per-layer metrics. The last
line of standard output is the JSON result; the lines before it give each
metric with its unit and the environment. A fuller record, with the spans
of one traced pass, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

if __name__ == "__main__" and not (SRC / "qenergydex" / "cli.py").is_file():
    sys.exit(f"no qenergydex sources under {SRC}")
sys.path.insert(0, str(SRC))

from checks import (  # noqa: E402
    ClearingCapture,
    compare_digests,
    count_check_lines,
    digest_dir,
)
from layers import COMMANDS, LAYER_METRICS, layer_metrics, layer_targets  # noqa: E402
from spans import Target, Tracer  # noqa: E402

import cryptography  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

from qenergydex import cli  # noqa: E402

# The per-message paths run in the same workload as the Monte Carlo
# kernels: on their own, a pass of them lasts about 1.7 s, and the host's
# drift moved the median of a 30 s run by more than 25% between runs.
WORKLOADS = {
    "clearing": ("market",),
    "ensembles-protocols": ("keypool", "porlite", "qsah-bench", "rate-adapt", "full-stack"),
}

# Every command runs at the paper config. Other CLI seeds are different
# case studies, not noise: at seed 2 `market` clears in a tenth of the
# time, at seeds 3, 4 and 6 it raises NoConvergence, and `rate-adapt`
# fails its own delivered-rate check at seeds 2, 3, 7, 9 and 10.
CLI_SEED = 1
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric of a traced run: name -> (unit, better)."""
    units = dict(LAYER_METRICS)
    units.update({
        "market.clears": ("count", "lower"),
        "market.distinct_clear_share": ("share", "higher"),
        "market.admitted": ("count", "higher"),
        "market.stack_cost_ratio": ("ratio", "lower"),
        "market.stack_max_violation": ("ratio", "lower"),
    })
    for command in COMMANDS:
        units[f"cli.{command}.s"] = ("s", "lower")
        units[f"cli.{command}.self_s"] = ("s", "lower")
        units[f"cli.{command}.output_bytes"] = ("bytes", "lower")
        units[f"trace.{command}.overhead_s"] = ("s", "lower")
    units["proc.cpu_per_wall"] = ("ratio", "higher")
    return units


@dataclass
class CommandRun:
    command: str
    wall_s: float
    cpu_s: float
    output_bytes: int
    checks_passed: int = 0
    checks_failed: int = 0
    raised: str | None = None


@dataclass
class PassRun:
    commands: list[CommandRun]
    certificates: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)


class Workload:
    """Runs passes of one workload and counts every check made on them."""

    def __init__(self, commands: tuple[str, ...], seed: int, out: Path):
        self.commands = commands
        self.order = random.Random(seed)
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.capture = ClearingCapture()
        self.capture_target = Target(
            cli, "security_coupled_clearing", "market.security_coupled_clearing",
            self.capture.on_return,
        )
        self._reference: dict[str, dict[str, str]] = {}
        self._n_checks: dict[str, int] = {}
        self._n_out = 0

    def _count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def run_pass(self, targets=()) -> PassRun:
        tracer = Tracer()
        order = self.order.sample(self.commands, len(self.commands))
        with tracer.patched([self.capture_target, *targets]):
            runs = [self._run_command(command, tracer) for command in order]
        certificates = self.capture.certify()
        for cert in certificates:
            self._count(1, 0 if cert.feasible else 1)
        return PassRun(runs, certificates, tracer.spans)

    def _run_command(self, command: str, tracer) -> CommandRun:
        out = self.out / f"{self._n_out:04d}-{command}"
        self._n_out += 1
        argv = [command, "--check", "--seed", str(CLI_SEED), "--jobs", "1", "--out", str(out)]
        stdout = io.StringIO()
        raised = None
        tracer.command = command
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), tracer.span(f"cli.{command}"):
                rc = cli.main(argv)
        except Exception as exc:  # a failing command is counted, and the run goes on
            rc = None
            raised = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0

        passed, failed = count_check_lines(stdout.getvalue())
        if rc not in (0, 3):   # raised, or refused its arguments
            n = self._n_checks.get(command, 1)
            self._count(n, n)
        else:
            self._n_checks.setdefault(command, passed + failed)
            self._count(passed + failed, failed)

        digests = digest_dir(out)
        reference = self._reference.setdefault(command, digests)
        if reference is not digests:
            self._count(*compare_digests(reference, digests))
        size = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        shutil.rmtree(out)
        return CommandRun(command, wall, cpu, size, passed, failed, raised)


def run_passes(workload: Workload, seconds: float, targets=()) -> list[PassRun]:
    """At least one pass, then more until ``seconds`` are measured; none
    starts that would end more than half a pass late."""
    passes: list[PassRun] = []
    t_start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(targets))
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * passes[-1].wall_s > seconds:
            return passes


def measure_setup(samples: int) -> list[float]:
    """Wall time of fresh interpreters that import ``qenergydex.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import qenergydex.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)  # writes the bytecode caches
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, n_passes: int) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cryptography": cryptography.__version__,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
        "cli_seed": CLI_SEED,
        "passes": n_passes,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def command_medians(passes: list[PassRun]) -> dict[str, float]:
    by_command: dict[str, list[float]] = {}
    for p in passes:
        for c in p.commands:
            by_command.setdefault(c.command, []).append(c.wall_s)
    return {command: _median(times) for command, times in by_command.items()}


def end_to_end_metrics(passes: list[PassRun], setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": _median(setup),
        "pass_s": _median([p.wall_s for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def clearing_metrics(certificates) -> dict[str, float]:
    ratios = [c.cost_ratio for c in certificates]
    return {
        "market.clears": len(certificates),
        "market.distinct_clear_share": (
            len({c.admitted_key for c in certificates}) / len(certificates) if certificates else 0.0
        ),
        "market.admitted": sum(c.admitted for c in certificates),
        "market.stack_cost_ratio": max(ratios, default=0.0),
        "market.stack_max_violation": max((c.max_violation for c in certificates), default=0.0),
    }


def per_layer_metrics(untraced: PassRun, traced: list[PassRun]) -> dict[str, float]:
    base = {c.command: c for c in untraced.commands}
    rows = []
    for p in traced:
        m = layer_metrics(p.spans)
        m.update(clearing_metrics(p.certificates))
        runs = {c.command: c for c in p.commands}
        for command in COMMANDS:
            ran = command in runs
            m[f"cli.{command}.s"] = base[command].wall_s if ran else 0.0
            m[f"cli.{command}.output_bytes"] = runs[command].output_bytes if ran else 0
            m[f"trace.{command}.overhead_s"] = (
                runs[command].wall_s - base[command].wall_s if ran else 0.0
            )
        rows.append(m)
    out = {name: _median([m[name] for m in rows]) for name in rows[0]}
    cpu = sum(c.cpu_s for c in untraced.commands)
    out["proc.cpu_per_wall"] = cpu / untraced.wall_s
    return out


def _write_record(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup = measure_setup(SETUP_SAMPLES) if not args.trace else []
    pass_dir = OUT / f"passes-{args.workload}-{os.getpid()}"
    workload = Workload(WORKLOADS[args.workload], args.seed, pass_dir)
    try:
        if args.trace:
            untraced = workload.run_pass()
            spent = untraced.wall_s
            traced = run_passes(workload, args.seconds - spent, layer_targets())
            passes = [untraced, *traced]
            metrics = per_layer_metrics(untraced, traced)
            units = {name: unit for name, (unit, _better) in per_layer_units().items()}
        else:
            passes = run_passes(workload, args.seconds)
            metrics = end_to_end_metrics(passes, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)

    env = environment(args.seed, len(passes))
    certificates = [c for p in passes for c in p.certificates]
    report = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    n = len(passes) - (1 if args.trace else 0)
    print(f"workload {args.workload}, seed {args.seed}, {n} {'traced ' if args.trace else ''}passes")
    if not args.trace:
        for command, median in command_medians(passes).items():
            print(f"  {command.replace('-', '_')}_s = {median:.4f} s (median of {len(passes)})")
        if certificates:
            ratio = clearing_metrics(certificates)["market.stack_cost_ratio"]
            print(f"  stack_cost_ratio = {ratio:.4f} ratio")
        print(f"  fail_share = {workload.failed / workload.attempted:.4f} share"
              f" ({workload.failed} of {workload.attempted} checks)")
    for name, item in report["metrics"].items():
        print(f"  {name} = {item['value']:.6g} {item['unit']}")
    print("env " + json.dumps(env, sort_keys=True))

    record = dict(report, environment=env, setup_s=setup,
                  passes=[[asdict(c) for c in p.commands] for p in passes],
                  certificates=[asdict(c) for c in certificates])
    if args.trace:
        record["spans_of_first_traced_pass"] = [s.to_json() for s in passes[1].spans]
    _write_record(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

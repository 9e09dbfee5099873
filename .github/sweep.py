"""Every case study's checks at CLI seeds 1-10, with a ratchet.

Runs each command of ``qenergydex.cli`` in process, through its ``cmd_*``
function, at each seed and the default config, and records per command
and check the seeds where the check fails, with the check's detail
string there:

    python .github/sweep.py --write SWEEP.json   # record the sweep
    python .github/sweep.py --check SWEEP.json   # rerun it against the record

``--check`` exits 1 when the set of failing (command, check, seed) triples
differs from the record in either direction: a check that starts failing,
or one that stops. A change that makes a check pass rewrites the record in
the same change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from qenergydex.cli import COMMANDS, load_config

SEEDS = tuple(range(1, 11))


def sweep(seeds=SEEDS, config_path: str | None = None) -> dict:
    """{command: {check: {seed: detail}}}, every check listed, failing seeds only."""
    failures: dict[str, dict[str, dict[str, str]]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, fn in sorted(COMMANDS.items()):
            checks = failures.setdefault(command, {})
            for seed in seeds:
                out = Path(tmp, command, str(seed))
                out.mkdir(parents=True)
                for name, ok, detail in fn(load_config(config_path, seed), out):
                    failed = checks.setdefault(name, {})
                    if not ok:
                        failed[str(seed)] = detail
    return failures


def failing(failures: dict) -> set[tuple[str, str, str]]:
    return {(command, check, seed)
            for command, checks in failures.items()
            for check, seeds in checks.items()
            for seed in seeds}


def ratchet(recorded: dict, now: dict) -> list[str]:
    """One line per (command, check, seed) whose verdict differs from the record."""
    was, runs = failing(recorded), failing(now)
    return ([f"now fails: {c} / {k} / seed {s}: {now[c][k][s]}" for c, k, s in sorted(runs - was)]
            + [f"no longer fails: {c} / {k} / seed {s}" for c, k, s in sorted(was - runs)])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="PATH", help="write the sweep's record to PATH")
    mode.add_argument("--check", metavar="PATH", help="rerun the sweep against the record at PATH")
    args = parser.parse_args(argv)

    now = sweep()
    if args.write:
        doc = {"seeds": list(SEEDS), "failures": now}
        Path(args.write).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return 0
    recorded = json.loads(Path(args.check).read_text())
    changes = ratchet(recorded["failures"], now)
    for line in changes:
        print(line)
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())

"""The seed sweep of every case study's checks (``.github/sweep.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

from qenergydex.cli import COMMANDS, ConfigError, main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("sweep", ROOT / ".github" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

# at these configs, seed 4 fails market's BASE and WBASE checks, seed 6
# rate-adapt's delivered-rate check, and seed 27 keypool's Wilson check
SMALL = {
    "trace": {"duration_s": 5.0},
    "qsah": {"n_handshakes": 300, "batch_size": 100},
    "consensus": {"horizon": 20_000, "seeds": 3},
    "keypool": {"max_events": 200_000},
    "market": {"n_prosumers": 600, "n_buses": 60, "n_lines": 50},
    "full_stack": {"heights": 60, "n_handshakes": 8},
}


def test_sweep_records_the_failures_that_check_prints(tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    seeds = (4, 6, 27)
    failures = sweep.sweep(seeds, str(path))
    assert {command for command, _check, _seed in sweep.failing(failures)} == {
        "market", "keypool", "rate-adapt"}
    for command in COMMANDS:
        for seed in seeds:
            argv = [command, "--check", "--config", str(path), "--seed", str(seed)]
            main([*argv, "--out", str(tmp_path / command)])
            printed = {line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("[FAIL] ")}
            recorded = {f"[FAIL] {check}" + (f" ({detail})" if detail else "")
                        for check, at in failures[command].items()
                        for s, detail in at.items() if s == str(seed)}
            assert recorded == printed
    # the committed record lists the same checks, at seeds 1-10
    committed = json.loads((ROOT / "SWEEP.json").read_text())
    assert committed["seeds"] == list(range(1, 11))
    assert {c: sorted(checks) for c, checks in committed["failures"].items()} == {
        c: sorted(checks) for c, checks in failures.items()}


def test_ratchet_fails_on_a_changed_verdict_in_either_direction(tmp_path, monkeypatch, capsys):
    recorded = {"market": {"a": {"4": "x"}, "b": {}}}
    assert sweep.ratchet(recorded, recorded) == []
    # a detail string is reported, not compared
    assert sweep.ratchet(recorded, {"market": {"a": {"4": "y"}, "b": {}}}) == []
    new = {"market": {"a": {"4": "x"}, "b": {"6": "y"}}}
    assert sweep.ratchet(recorded, new) == ["now fails: market / b / seed 6: y"]
    fixed = {"market": {"a": {}, "b": {}}}
    assert sweep.ratchet(recorded, fixed) == ["no longer fails: market / a / seed 4"]

    path = tmp_path / "SWEEP.json"
    path.write_text(json.dumps({"seeds": list(sweep.SEEDS), "failures": recorded}))
    for now, status in ((recorded, 0), (new, 1), (fixed, 1)):
        monkeypatch.setattr(sweep, "sweep", lambda now=now: now)
        assert sweep.main(["--check", str(path)]) == status
    assert capsys.readouterr().out.splitlines() == [
        "now fails: market / b / seed 6: y", "no longer fails: market / a / seed 4"]


def test_sweep_runs_no_command_on_a_config_load_config_rejects(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(sweep, "COMMANDS", {
        command: lambda config, out, command=command: ran.append(command) or []
        for command in COMMANDS})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"keypool": {"curve_points": 1}}))
    with pytest.raises(ConfigError, match="keypool.curve_points must be an integer >= 2, got 1"):
        sweep.sweep((1,), str(path))
    assert ran == []

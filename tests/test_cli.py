import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import qenergydex
from qenergydex import market, qkms
from qenergydex.cli import (
    _CSV_BLOCK,
    _HARNESS_KEYS,
    _PARAM_SECTIONS,
    DEFAULT_CONFIG,
    _write_csv,
    load_config,
    main,
)


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_rows(path, header, rows) -> None:
    """The row-at-a-time writer the column writer replaced, kept as its byte oracle."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def test_column_writer_matches_row_writer(tmp_path):
    # 0.0 and -0.0 compare and hash equal, and NaN equals nothing
    specials = [-0.0, 0.0, 1e-300, float("inf"), float("-inf"), float("nan"), 0.1, 1 / 3, 1e16,
                5e-324, 2.5]
    n = len(specials)
    doubles = np.array(specials)
    columns = [
        doubles,                                         # float64 array
        doubles,                                         # the same array again
        specials,                                        # Python floats
        [np.float64(v) for v in specials],               # NumPy float scalars in a list
        np.arange(-3, n - 3, dtype=np.int64),            # int64 array
        [2 ** 40 * i - 7 for i in range(n)],             # Python ints
        range(n),
        [f"s{i}" for i in range(n)],                     # strings
        np.array(specials, dtype=np.float32),            # float32 array
    ]
    header = ",".join(f"c{j}" for j in range(len(columns)))
    _write_csv(tmp_path / "cols.csv", header, *columns)
    _write_rows(tmp_path / "rows.csv", header, zip(*columns))
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    _write_csv(tmp_path / "empty.csv", "a,b", [], np.empty(0))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"

    # row counts on either side of the block boundaries, every column kind
    for rows in (0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 3 * _CSV_BLOCK + 7):
        cycled = [[col[i % n] for i in range(rows)] for col in columns]
        doubles = np.array(cycled[0])
        kinds = [doubles, doubles, cycled[2], cycled[3], np.array(cycled[4], dtype=np.int64),
                 cycled[5], range(rows), cycled[7], np.array(cycled[8], dtype=np.float32)]
        _write_csv(tmp_path / "cols.csv", header, *kinds)
        _write_rows(tmp_path / "rows.csv", header, zip(*kinds))
        written = (tmp_path / "cols.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        assert written.count(b"\n") == rows + 1


def test_column_writer_shares_repeated_and_broadcast_columns(tmp_path):
    # one array passed three times, and stride-0 columns of float64, int64
    # and float32, each also passed twice
    for rows in (0, 1, _CSV_BLOCK + 1):
        values = np.random.default_rng(rows).random(rows)
        broadcast = [np.broadcast_to(np.float64(0.1), (rows,)), np.broadcast_to(np.int64(-7), (rows,)),
                     np.broadcast_to(np.float32(1 / 3), (rows,))]
        assert all(col.strides == (0,) for col in broadcast)
        columns = [values, *broadcast, values, broadcast[2], values, broadcast[0]]
        header = ",".join(f"c{j}" for j in range(len(columns)))
        _write_csv(tmp_path / "cols.csv", header, *columns)
        _write_rows(tmp_path / "rows.csv", header, zip(*columns))
        written = (tmp_path / "cols.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        assert written.count(b"\n") == rows + 1


def test_column_writer_stages_one_block_at_a_time(tmp_path):
    columns = list(np.random.default_rng(5).random((7, 200_000)))
    # a column passed twice and a broadcast column are staged per block too
    columns += [columns[0], np.broadcast_to(0.1, (200_000,))]
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "big.csv", ",".join("abcdefghi"), *columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every row at once stages about 45 MB of Python floats and strings
    assert peak < 8e6
    assert (tmp_path / "big.csv").read_bytes().count(b"\n") == 200_001


def test_column_writer_rejects_unequal_lengths(tmp_path):
    # zip would truncate every column to the shortest
    with pytest.raises(ValueError, match=r"\[3, 2, 3\]"):
        _write_csv(tmp_path / "short.csv", "a,b,c", [1, 2, 3], np.ones(2), range(3))
    assert not (tmp_path / "short.csv").exists()


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_manifest_replay_is_byte_identical(tmp_path):
    small = {
        "trace": {"duration_s": 5.0},
        "qsah": {"n_handshakes": 200, "batch_size": 50},
        "full_stack": {"heights": 60, "n_handshakes": 8},
    }
    config = tmp_path / "small.json"
    config.write_text(json.dumps(small))
    for command in ("rate-adapt", "qsah-bench", "full-stack"):
        first = tmp_path / command / "first"
        again = tmp_path / command / "again"
        assert main([command, "--config", str(config), "--seed", "3", "--out", str(first)]) == 0
        assert main([command, "--config", str(first / "manifest.json"), "--out", str(again)]) == 0
        assert json.loads((first / "manifest.json").read_text())["config"]["seed"] == 3
        assert _files(first) == _files(again)


def test_default_config_is_pinned_and_each_key_declared_once():
    # the digest of the literal DEFAULT_CONFIG that the table replaced
    text = json.dumps(DEFAULT_CONFIG, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2bfc0ba664d2e7780178d898b109df14e9cc5616b52976092cc00452862a99ab")
    param_fields = {section: {f.name for f in fields(cls)} for cls, section in _PARAM_SECTIONS.items()}
    for section, keys in DEFAULT_CONFIG.items():
        if section != "seed":
            for key in keys:
                harness = key in _HARNESS_KEYS.get(section, {})
                assert harness != (key in param_fields.get(section, ())), f"{section}.{key}"
    assert load_config(None, None) == DEFAULT_CONFIG


def test_config_errors_exit_with_status_2(tmp_path, capsys):
    docs = (
        {"bogus": 1},
        {"kms": {"bogus": 1}},
        {"consensus": {"alpha": 0.4}},      # rejected by ConsensusParams
        {"links": {"d0_ms": -1}},           # rejected by LinkModel
        {"consensus": {"mode": "network"}},
        # not a JSON object: each raised a traceback
        [1, 2],
        None,
        "x",
        # a seed that is not an integer: "a" died after the manifest was
        # written, 1.5 and true ran silently as seed 1
        {"seed": "a"},
        {"seed": 1.5},
        {"seed": True},
        # outside substream_seed's signed 128-bit range: an OverflowError
        # after the manifest was written
        {"seed": 2 ** 127},
        {"seed": -2 ** 127 - 1},
    )
    for doc in docs:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for command in ("rate-adapt", "porlite"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert main(["rate-adapt", "--jobs", "0", "--out", str(tmp_path / "o")]) == 2
    for seed in (2 ** 127, -2 ** 127 - 1):
        assert main(["rate-adapt", "--seed", str(seed), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert err.count("config error") == 2 * len(docs) + 3
    assert "unknown key consensus.mode" in err
    assert "must be a JSON object, got list" in err
    assert "must be a JSON object, got NoneType" in err
    assert "seed must be an integer in [-2**127, 2**127), got True" in err
    assert f"got {2 ** 127}" in err


def test_harness_key_errors_exit_with_status_2(tmp_path, capsys):
    # each raised mid-run and left a manifest behind before they were checked
    for command, doc, message in (
        ("full-stack", {"full_stack": {"alpha": 0.4}},
         "full_stack.alpha: alpha must lie in [0, 1/3)"),
        # 7 of 20 Byzantine: no block confirmed, 264 forks and exit 3
        ("full-stack", {"full_stack": {"alpha": 0.33}},
         "full_stack: alpha 0.33 makes 7 of 20 validators Byzantine, at least 1/3 of the weight"),
        ("qsah-bench", {"qsah": {"n_handshakes": 0}},
         "qsah.n_handshakes must be an integer >= 1"),
        ("rate-adapt", {"trace": {"amp_lo": 0.2}},
         "trace.amp_lo must not exceed trace.amp_hi"),
        # an empty table whose checks passed; a traceback after the manifest;
        # a True row; an inf row of NaNs whose checks passed; a failed check
        # on a curve that runs backwards
        ("keypool", {"keypool": {"rhos": []}},
         "keypool.rhos must be a non-empty list of finite numbers > 0, got []"),
        ("keypool", {"keypool": {"rhos": [0]}},
         "keypool.rhos must be a non-empty list of finite numbers > 0, got [0]"),
        ("keypool", {"keypool": {"rhos": [0.9, -0.5]}},
         "keypool.rhos must be a non-empty list of finite numbers > 0, got [0.9, -0.5]"),
        ("keypool", {"keypool": {"rhos": "abc"}},
         "keypool.rhos must be a non-empty list of finite numbers > 0, got 'abc'"),
        ("keypool", {"keypool": {"rhos": [True]}},
         "keypool.rhos must be a non-empty list of finite numbers > 0, got [True]"),
        ("keypool", {"keypool": {"rhos": [float("inf")]}},
         "keypool.rhos must be a non-empty list of finite numbers > 0, got [inf]"),
        ("keypool", {"keypool": {"curve_rho_lo": 0.9, "curve_rho_hi": 0.5}},
         "keypool.curve_rho_lo must not exceed keypool.curve_rho_hi"),
        # each of these passed every check on an empty or one-row output
        ("keypool", {"keypool": {"curve_points": 1}},
         "keypool.curve_points must be an integer >= 2, got 1"),
        ("full-stack", {"full_stack": {"n_handshakes": 0}},
         "full_stack.n_handshakes must be an integer >= 1, got 0"),
        # a trace of no samples: died after the manifest, in QberTrace
        ("full-stack", {"trace": {"duration_s": 0.0004}},
         "trace.duration_s must be long enough for one 1 kHz sample (> 0.0005), got 0.0004"),
        ("porlite", {"consensus": {"max_depth": 0}},
         "consensus.max_depth must be an integer >= 1, got 0"),
        # pulse shapes that are not numbers: a ValueError after the manifest,
        # and a TypeError in the width_lo <= width_hi comparison
        ("rate-adapt", {"trace": {"amp_lo": "a", "amp_hi": "b"}},
         "trace.amp_lo must be >= 0, got 'a'"),
        ("rate-adapt", {"trace": {"width_hi": "x"}},
         "trace.width_hi must be > 0, got 'x'"),
        # a key that is gone: a run clears the one dataset its seed picks
        ("market", {"market": {"datasets": 0}}, "unknown key market.datasets"),
        # each wrote a manifest, then died in Network.send or Generator.uniform
        ("qsah-bench", {"links": {"d0_ms": float("inf")}},
         "section 'links': delays must be finite and non-negative"),
        ("qsah-bench", {"links": {"d0_ms": float("nan")}},
         "section 'links': delays must be finite and non-negative"),
        ("qsah-bench", {"links": {"jitter_max_ms": float("nan")}},
         "section 'links': delays must be finite and non-negative"),
        # hellos that may land after the next batch starts: the closed-form
        # latencies would not be the event-driven run's
        ("qsah-bench", {"links": {"d0_ms": 1000.0}},
         "links: the worst hello delay, 508.5 ms with processing, must be below the"
         " 500.0 ms between batch starts when qsah.n_handshakes exceeds qsah.batch_size"),
        ("qsah-bench", {"links": {"d0_ms": 1000.0}, "qsah": {"n_handshakes": 10}},
         "when market.n_prosumers exceeds qsah.batch_size"),
        # parameter-type fields: each wrote a manifest, then died in the
        # lognormal draw, the round-trip shape or finality_depth, or ran to
        # the end on NaN (a median below 0) or a zero cost (a median of 0)
        ("qsah-bench", {"qsah": {"compute_sigma": -1.0}},
         "section 'qsah': compute_sigma must be finite and >= 0"),
        ("qsah-bench", {"qsah": {"round_trips": 2.5}},
         "section 'qsah': round_trips must be an integer >= 1"),
        ("porlite", {"consensus": {"security_bits": 0}},
         "section 'consensus': security_bits must be an integer >= 1"),
        ("qsah-bench", {"qsah": {"compute_median_ms": -1.0}},
         "section 'qsah': compute_median_ms must be finite and > 0"),
        ("market", {"qsah": {"compute_median_ms": -1.0}},
         "section 'qsah': compute_median_ms must be finite and > 0"),
        ("market", {"qsah": {"compute_median_ms": 0.0}},
         "section 'qsah': compute_median_ms must be finite and > 0"),
        # each ran to the end and was written to the manifest
        *((command, {"consensus": {"block_interval_ms": value}},
           "section 'consensus': block_interval_ms must be a finite number > 0")
          for command in ("porlite", "full-stack")
          for value in ("x", -1.0, 0, float("inf"), float("nan"), True)),
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# json.dumps writes the infinities as Infinity and -Infinity, which
# json.loads reads back
INFINITIES = (float("inf"), float("-inf"))
BAD_VALUES = {
    "an integer >= 1": (0, 2.0, True),
    "an integer >= 2": (1, 0, 2.0, True),
    "an integer >= 0": (-1, 0.5),
    "in (0, 1)": (0, 1, "0.5", *INFINITIES),
    "> 0": (0, -1.0, None, *INFINITIES),
    ">= 0": (-1, -0.5, "1", *INFINITIES),
    "in [0, 1]": (-0.1, 1.5, None, *INFINITIES),
    "in [0, 1)": (-0.01, 1, 1.0, *INFINITIES),
    # each passes "> 0", and each rounds to a trace of no samples
    "long enough for one 1 kHz sample (> 0.0005)": (0.0004, 0.0005, 1e-300),
}


# keypool.rhos's list rule has its own cases in test_harness_key_errors_exit_with_status_2
@pytest.mark.parametrize("rule, section, key", [
    (rule, section, key)
    for section, keys in _HARNESS_KEYS.items()
    for key, (_default, *ranges) in keys.items()
    for rule, _holds in ranges
    if (section, key) != ("keypool", "rhos")
])
def test_every_harness_range_is_checked_before_output(tmp_path, capsys, rule, section, key):
    for value in BAD_VALUES[rule]:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({section: {key: value}}))
        assert main(["rate-adapt", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"{section}.{key} must be {rule}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", [
    # small batches on a slow link; and one batch on a link too slow for two
    {"qsah": {"n_handshakes": 300, "batch_size": 7}, "links": {"d0_ms": 900.0, "jitter_max_ms": 50.0}},
    {"qsah": {"n_handshakes": 20, "batch_size": 3000}, "links": {"d0_ms": 1000.0}},
])
def test_qsah_bench_checks_the_closed_form(tmp_path, capsys, doc):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    assert main(["qsah-bench", "--check", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "[PASS] event-driven latencies equal the closed form" in capsys.readouterr().out


def test_porlite_jobs_2_writes_the_bytes_of_jobs_1(tmp_path):
    # --jobs 2 is the one path that runs the ensemble in worker processes (two)
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"consensus": {"horizon": 20_000, "seeds": 6}}))
    for jobs in ("1", "2"):
        argv = ["porlite", "--check", "--jobs", jobs, "--config", str(config)]
        assert main([*argv, "--out", str(tmp_path / jobs)]) == 0
    assert _files(tmp_path / "1") == _files(tmp_path / "2")


def test_porlite_forks_no_more_workers_than_seeds(tmp_path, monkeypatch):
    # a process pool forks all of max_workers at its first submit; this one
    # runs in process and records how many it was asked for
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"consensus": {"horizon": 20_000, "seeds": 3}}))
    for jobs in ("1", "8"):
        argv = ["porlite", "--check", "--jobs", jobs, "--config", str(config)]
        assert main([*argv, "--out", str(tmp_path / jobs)]) == 0
    assert asked == [3]
    assert _files(tmp_path / "1") == _files(tmp_path / "8")


def test_market_clears_each_admitted_set_once(tmp_path, monkeypatch):
    # paper config: at seed 1 both stacks admit all 3000 nodes and share one
    # clear; at seed 2 they admit 3000 and 2995, so there are two; a second
    # run in the same process clears again
    calls = []
    real = market.clear_all_scenarios

    def counted(grid, prosumers, tol):
        calls.append(len(prosumers))
        return real(grid, prosumers, tol)

    monkeypatch.setattr(market, "clear_all_scenarios", counted)
    runs = []
    for i, seed in enumerate((1, 1, 2)):
        assert main(["market", "--seed", str(seed), "--out", str(tmp_path / str(i))]) == 0
        runs.append(calls[:])
        calls.clear()
    assert runs == [[3000], [3000], [3000, 2995]]
    assert _files(tmp_path / "0") == _files(tmp_path / "1")


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports this package."""
    src = str(Path(qenergydex.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test-only dependency: a fresh interpreter that runs the
    # leader QP and the chi-square audit path loads no scipy module
    config = tmp_path / "small.json"
    config.write_text(json.dumps({
        "market": {"n_prosumers": 300, "n_buses": 30, "n_lines": 24},
        "qsah": {"n_handshakes": 300, "batch_size": 100},
        "full_stack": {"heights": 60, "n_handshakes": 8},
    }))
    code = "\n".join([
        "import sys",
        "from qenergydex.cli import main",
        "for command in ('market', 'full-stack'):",
        f"    out = {str(tmp_path)!r} + '/' + command",
        f"    assert main([command, '--config', {str(config)!r}, '--out', out]) == 0",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ])
    assert _fresh_python(code).strip() == "[]"
    rows = (tmp_path / "market" / "welfare_grid.csv").read_text().splitlines()[1:]
    assert all(int(row.split(",")[4]) > 0 for row in rows if ",STACK," in row)   # QPs were solved


# reduced configs of the commands that run no handshake, and of qsah-bench
NO_HANDSHAKE = ("market", "keypool", "porlite", "rate-adapt")
SMALL_CONFIG = {
    "market": {"n_prosumers": 300, "n_buses": 30, "n_lines": 24},
    "keypool": {"max_events": 200_000},
    "consensus": {"horizon": 20_000, "seeds": 3},
    "trace": {"duration_s": 5.0},
    "qsah": {"n_handshakes": 300, "batch_size": 100},
}


def test_commands_without_a_handshake_run_without_cryptography(tmp_path, capsys):
    # a fresh interpreter in which importing cryptography raises ImportError
    # (this one has imported it already) gives the same exit status, stdout
    # and output bytes as this one; qsah-bench fails at its first handshake,
    # so the block holds
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    code = "\n".join([
        "import contextlib, io, json, sys, traceback",
        "sys.modules['cryptography'] = None",
        "from qenergydex.cli import main",
        "runs = {}",
        f"for command in {NO_HANDSHAKE!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:",
        f"        status = main([command, '--check', '--config', {str(config)!r},",
        f"                       '--out', {str(tmp_path / 'blocked')!r} + '/' + command])",
        "    runs[command] = [status, buf.getvalue()]",
        "try:",
        f"    main(['qsah-bench', '--config', {str(config)!r}, '--out', {str(tmp_path / 'qsah')!r}])",
        "except ImportError as exc:",
        "    runs['qsah-bench'] = [f.name for f in traceback.extract_tb(exc.__traceback__)]",
        "print(json.dumps(runs))",
    ])
    runs = json.loads(_fresh_python(code))
    assert "client_hello" in runs["qsah-bench"] and runs["qsah-bench"][-1] == "_crypto"
    for command in NO_HANDSHAKE:
        out = tmp_path / "open" / command
        status = main([command, "--check", "--config", str(config), "--out", str(out)])
        assert runs[command] == [status, capsys.readouterr().out]
        assert _files(out) == _files(tmp_path / "blocked" / command)


def test_only_a_handshake_loads_the_crypto_bindings(tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    code = "\n".join([
        "import json, sys",
        "import qenergydex, qenergydex.cli, qenergydex.qsah",
        "def hazmat():",
        "    return sorted(m for m in sys.modules if m.startswith('cryptography.hazmat'))",
        "seen = [hazmat()]",
        "for command in ('market', 'qsah-bench'):",
        f"    qenergydex.cli.main([command, '--config', {str(config)!r},",
        f"                         '--out', {str(tmp_path)!r} + '/' + command])",
        "    seen.append(hazmat())",
        "print(json.dumps(seen))",
    ])
    imported, after_market, after_qsah = json.loads(_fresh_python(code))
    assert imported == after_market == []
    assert "cryptography.hazmat.primitives.ciphers.aead" in after_qsah


def test_porlite_finality_marker_holds_at_every_security_level(tmp_path, capsys):
    # t_fin = ceil(30 ln 2 / (2 (1 - 2 alpha)^2)) = 42 at alpha = 0.25
    doc = {"consensus": {"security_bits": 30, "horizon": 3000, "seeds": 2}}
    path = tmp_path / "bits30.json"
    path.write_text(json.dumps(doc))
    assert main(["porlite", "--check", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "[PASS] finality depth marker (t_fin=42)" in capsys.readouterr().out


# SHA-256 of each Monte Carlo CSV at a reduced config: a kernel change that
# moves any byte of table2.csv or of the PoR-Lite curves fails here
MONTE_CARLO_PINS = {
    ("keypool", "paper"): {
        "table2.csv": "046f05b38ad8f6420a79253708747586d94f73c77519b75784f255f99ccbf68b",
    },
    ("keypool", "capacity 12"): {
        "table2.csv": "02d29479dc57570609fdd2a0c156cb55dd53583ed37e492b608821a594679a86",
    },
    ("porlite", "paper"): {
        "cp_violation.csv": "8c932459e0e5c812ffd5d54130f94639f65ee1b30dda50f9b355e9595ecfdeaa",
        "finality_hist.csv": "010d586a321476063d076d5bb19f0954e489faff669a89d1dbae1ea6cee08098",
        "fork_tail.csv": "775ecc376efe2274e0a95dc33bd64ab463be019bdff7f8a0d265f0584e4b87ce",
        "growth_violation.csv": "4e085dd7d011534c94015d35faa74c1586091a904496e923e05195f3b98f6040",
    },
    ("porlite", "alpha 0"): {
        "cp_violation.csv": "e42aa96396354f633b40dc56e741e93c9ce37ad2391d8f455dfaf79ea21ed9f1",
        "finality_hist.csv": "682fce61828cb3908ecea2d74a3bf235f80e00551a75e2117a2a8557dc0ae17b",
        "fork_tail.csv": "e42aa96396354f633b40dc56e741e93c9ce37ad2391d8f455dfaf79ea21ed9f1",
        "growth_violation.csv": "9b1506cabe32d95cca41675ac3c919e1ae6124dbc2e088adc84e46e519ae631c",
    },
    ("porlite", "alpha 0.3 beta 0"): {
        "cp_violation.csv": "60f2229a5028195dce634d23be744cd20b8cdcbc567f3d9506fc0c866cdcdfbb",
        "finality_hist.csv": "53b6fd3f118b4ca7d84e547a00624f69913247dc192fb859a0749bfa70b1ca27",
        "fork_tail.csv": "97cb3d24d2343ad15e9bc5d16ce0d172bd388763971aa644e4492acfdef3c9bc",
        "growth_violation.csv": "ed13deec78274160313f51319429fee0338ef5adfd249bf84e1983a99e9a00e6",
    },
}


@pytest.mark.parametrize("command,variant", sorted(MONTE_CARLO_PINS))
def test_monte_carlo_outputs_pinned(tmp_path, command, variant):
    doc = {"keypool": {"max_events": 200_000}, "consensus": {"horizon": 20_000, "seeds": 3}}
    if variant == "capacity 12":   # rows shorter than _SCAN_COLS
        doc["keypool"]["capacity"] = 12
    elif variant == "alpha 0":   # no forks: the CDF repeats an entry
        doc["consensus"]["alpha"] = 0.0
    elif variant == "alpha 0.3 beta 0":   # no empty slots
        doc["consensus"].update(alpha=0.3, beta=0.0)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--check", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
        for name in MONTE_CARLO_PINS[command, variant]
    }
    assert digests == MONTE_CARLO_PINS[command, variant]


# SHA-256 of full-stack's pipeline_report.json at a reduced config. The KMS
# key and salt bytes, the elections and the handshake latencies all feed
# it; alpha 0.25 is the one setting that reaches a Byzantine branch
# (equivocate). The same bytes with one BLAS thread and with the default.
PIPELINE_PINS = {
    0.0: "3ed73e67c260e311936b9add59eab452f77ba9df58a0cc4e08fb9513d4cf86d4",
    0.25: "ee3cafab1f4bcbab421fd470d98ab6f8835b80a89452d0f5ee8af9cd47432ee9",
}


@pytest.mark.parametrize("alpha", sorted(PIPELINE_PINS))
def test_full_stack_report_pinned(tmp_path, alpha):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"full_stack": {"alpha": alpha, "heights": 60, "n_handshakes": 8}}))
    assert main(["full-stack", "--check", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    report = (tmp_path / "o" / "pipeline_report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == PIPELINE_PINS[alpha]


def test_full_stack_issues_each_key_id_once(tmp_path, monkeypatch):
    # the handshakes' and salts' replica and the market handshakes' replica
    # draw from one root seed: only their indices keep their ids apart
    issued = []
    rent = qkms.KmsReplica.rent

    def recorded(self, n_bits, now_ms):
        record = rent(self, n_bits, now_ms)
        issued.append(record.key_id)
        return record

    monkeypatch.setattr(qkms.KmsReplica, "rent", recorded)
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"full_stack": {"heights": 60, "n_handshakes": 8}}))
    assert main(["full-stack", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert len(issued) > 8 + 60
    assert len(set(issued)) == len(issued)


# SHA-256 of the other case studies' data files at reduced configs, seed 1.
# The market config is past the clear memo: the stacks admit 600 and 599
# nodes, and STACK takes 10 QPs on each. The same bytes with one BLAS
# thread and with the default. The market bytes are those of the clear in
# bus space, which sums flows per bus first: every value agrees with the
# prosumer-space clear to rounding (STACK's welfare to the last digit).
CASE_STUDY_PINS = {
    ("market", '{"market": {"n_prosumers": 600, "n_buses": 60, "n_lines": 50}}'): {
        "welfare_grid.csv": "bd439bac1bbaf0508567049a0d35a035808c764f95f4735c829f26af65b5f8df",
    },
    ("rate-adapt", '{"trace": {"duration_s": 5.0}}'): {
        "cdf.csv": "776881f6be63fc0fdd821dffac9ccabab94e3928fae6bee05314a5a31032f975",
        "summary.json": "69dbae027a678c5b9b1deb232d4fbe808c53884d0c40950253670e261ebf40d6",
        "timeseries.csv": "b18bc9bc1eab235d001ff6e7eb86ea866add1b0155be1327bd814a4dee57a16c",
    },
    ("qsah-bench", '{"qsah": {"n_handshakes": 300, "batch_size": 100}}'): {
        "ecdf.csv": "02995ca7b3e748c1c9a39461652d364909175bb1e76d25657ace689fa0228809",
        "latencies.csv": "eebd0f36be1c8577c8551cc04bd6395e0a858696d608622fe257f44c1bcf8251",
    },
}


@pytest.mark.parametrize("command, doc", sorted(CASE_STUDY_PINS))
def test_case_study_outputs_pinned(tmp_path, command, doc):
    path = tmp_path / "small.json"
    path.write_text(doc)
    assert main([command, "--check", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
        for name in CASE_STUDY_PINS[command, doc]
    }
    assert digests == CASE_STUDY_PINS[command, doc]


@pytest.mark.parametrize("seed, doc", [
    (1, {}),
    (2, {}),
    # a raw budget of 0 bits per 1 ms interval: nothing is extractable
    (1, {"kms": {"r_max_bps": 500}}),
])
def test_pool_accrues_the_mean_secure_capacity(tmp_path, seed, doc):
    # one extractor loss model: full-stack's pool rate is the mean of the
    # per-interval capacity that rate-adapt meters against, on the same trace
    path = tmp_path / "small.json"
    path.write_text(json.dumps({**doc, "full_stack": {"heights": 60, "n_handshakes": 8}}))
    for command in ("rate-adapt", "full-stack"):
        argv = [command, "--config", str(path), "--seed", str(seed), "--out", str(tmp_path / command)]
        assert main(argv) == 0
    with open(tmp_path / "rate-adapt" / "timeseries.csv") as fh:
        column = fh.readline().rstrip("\n").split(",").index("capacity_bps")
        capacity = np.array([float(line.split(",")[column]) for line in fh])
    report = json.loads((tmp_path / "full-stack" / "pipeline_report.json").read_text())
    generation_bps = report["entropy"]["generation_bps"]
    assert generation_bps == float(capacity.mean())
    if doc:
        assert generation_bps == 0.0

import json

import numpy as np

from qenergydex.cli import _write_csv, main


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
    specials = [-0.0, 1e-300, float("inf"), float("-inf"), float("nan"), 0.1, 1 / 3, 1e16, 5e-324, 2.5]
    n = len(specials)
    columns = [
        np.array(specials),                              # float64 array
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


def test_config_errors_exit_with_status_2(tmp_path, capsys):
    docs = (
        {"bogus": 1},
        {"kms": {"bogus": 1}},
        {"consensus": {"alpha": 0.4}},      # rejected by ConsensusParams
        {"links": {"d0_ms": -1}},           # rejected by LinkModel
        {"consensus": {"mode": "network"}},
    )
    for doc in docs:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for command in ("rate-adapt", "porlite"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert main(["rate-adapt", "--jobs", "0", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert err.count("config error") == 2 * len(docs) + 1
    assert "unknown key consensus.mode" in err


def test_porlite_finality_marker_holds_at_every_security_level(tmp_path, capsys):
    # t_fin = ceil(30 ln 2 / (2 (1 - 2 alpha)^2)) = 42 at alpha = 0.25
    doc = {"consensus": {"security_bits": 30, "horizon": 3000, "seeds": 2}}
    path = tmp_path / "bits30.json"
    path.write_text(json.dumps(doc))
    assert main(["porlite", "--check", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "[PASS] finality depth marker (t_fin=42)" in capsys.readouterr().out

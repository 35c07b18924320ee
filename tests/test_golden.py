"""Golden hashes of end-to-end outputs.

The sha256 of every trace and CSV from one small lazy `cli run`, and of the
`replay-figure fig2` table, are pinned here.  A refactor that is meant to
keep outputs byte-identical must keep these hashes.
"""

import hashlib

from dynaforest.cli import main

RUN_ARGS = [
    "run", "--adversary", "edge-markov", "--nodes", "12", "--p-birth", "0.3",
    "--p-death", "0.3", "--rounds", "60", "--lazy", "--rest-probability", "0.3",
    "--seeds", "0-2",
]

RUN_HASHES = {
    "aggregate.csv":
        "e023699b44a3cefca8f67782c8fab9cfbd538c341d16cc6c18420396a7606d24",
    "metrics_seed0.csv":
        "f80bc56dc6eacc53fd9baa414fbea612c0747849841774823fa7f7caf8bcaea9",
    "metrics_seed1.csv":
        "c69ea1344a5adda1e59c6e92ba5eb203aff18cd18daa05b9ca2cafa15d5b54e4",
    "metrics_seed2.csv":
        "be9d0a9c444614ed1e02181e592e04b517da7f81792613a41eb7865dafceddb0",
    "trace_seed0.txt":
        "c435e7ea9fcaa193c74fc7ae57a6f835aa082f6146dbaece6417409e29a5be8a",
    "trace_seed1.txt":
        "df3a878eaf9be92abdbe06b81dbfb338287f10f59d99bb1d6f8c3ed7d1fb4ed5",
    "trace_seed2.txt":
        "3bd2fae4f66f0a4b605244108e850e37876aead3a610ad908ba0bfa65c46392a",
}

FIG2_HASH = "3d5624bac06f32d82911ee970f94cf7cce5b9ccf6ef345121d2c07de81ff009e"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_cli_run_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("DYNAFOREST_WORKERS", "1")
    assert main([*RUN_ARGS, "--out", str(tmp_path)]) == 0
    hashes = {name: sha256((tmp_path / name).read_bytes()) for name in RUN_HASHES}
    assert hashes == RUN_HASHES


def test_replay_fig2_output_is_byte_identical(capsys):
    assert main(["replay-figure", "fig2"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == FIG2_HASH

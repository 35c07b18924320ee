import argparse
import errno
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dynaforest import cli, engine, topology
from dynaforest.cli import (
    ConfigError,
    RunConfig,
    build_run_config,
    build_arg_parser,
    fig2_graph,
    main,
    parse_seeds,
    read_trace_file,
)
from dynaforest.model import Action, Configuration, Status

from test_analysis import contact_graph


def run_args(*extra):
    return ["run", "--adversary", "edge-markov", "--nodes", "10", "--p-birth", "0.3",
            "--p-death", "0.3", "--rounds", "40", *extra]


def run_long_options():
    """The `run` subparser's long flags, except --config and --help."""
    parser = build_arg_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(
        flag
        for action in sub.choices["run"]._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag not in ("--config", "--help")
    )


# flag -> (file value, flag argv, RunConfig field, value from the file, value from the flag)
RUN_OPTION_VALUES = {
    "--adversary": ("scripted", ["--adversary", "trace"], "adversary", "scripted", "trace"),
    "--nodes": ("5", ["--nodes", "8"], "nodes", 5, 8),
    "--p-birth": ("0.1", ["--p-birth", "0.2"], "p_birth", 0.1, 0.2),
    "--p-death": ("0.9", ["--p-death", "0.8"], "p_death", 0.9, 0.8),
    "--trace-file": ("a.txt", ["--trace-file", "b.txt"], "trace_file", "a.txt", "b.txt"),
    "--script-file": ("a.txt", ["--script-file", "b.txt"], "script_file", "a.txt", "b.txt"),
    "--rounds-per-second": (
        "5/2", ["--rounds-per-second", "4"], "rounds_per_second", Fraction(5, 2), Fraction(4)
    ),
    "--rounds": ("7", ["--rounds", "9"], "rounds", 7, 9),
    "--seeds": ("3-5", ["--seeds", "1,2"], "seeds", (3, 4, 5), (1, 2)),
    "--lazy": ("true", ["--no-lazy"], "lazy", True, False),
    "--no-lazy": ("false", ["--no-lazy"], "lazy", True, False),
    "--checkers": ("false", ["--checkers"], "checkers", False, True),
    "--no-checkers": ("true", ["--checkers"], "checkers", False, True),
    "--rest-probability": ("0.2", ["--rest-probability", "0.7"], "rest_probability", 0.2, 0.7),
    "--out": ("from-file", ["--out", "from-flag"], "out", "from-file", "from-flag"),
}


def assert_nothing_left(out, before):
    """A failed `run` leaves no `out`, and nothing new next to it: `before`
    lists `out`'s parent as it was before the run."""
    assert not out.exists()
    assert sorted(out.parent.iterdir()) == before


# the files of a one-seed `run`, in the order it writes them
WRITE_ORDER = ["metrics_seed0.csv", "trace_seed0.txt", "aggregate.csv", "trees_per_component.svg"]


class TestConfigParsing:
    def test_seeds_forms(self):
        assert parse_seeds("0-3") == (0, 1, 2, 3)
        assert parse_seeds("1,5,7") == (1, 5, 7)
        assert parse_seeds("1,4-6") == (1, 4, 5, 6)

    def test_bad_seeds(self):
        with pytest.raises(ConfigError):
            parse_seeds("7-3")
        with pytest.raises(ConfigError):
            parse_seeds("x")
        with pytest.raises(ConfigError, match="bad seed range '5-x'"):
            parse_seeds("5-x")

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("adversary=edge-markov\nnodes=5\np-birth=0.1\np-death=0.9\n"
                       "rounds=7\nseeds=3\nlazy=true\nno-checkers=true\n")
        parser = build_arg_parser()
        args = parser.parse_args(["run", "--config", str(cfg), "--nodes", "8"])
        config = build_run_config(args)
        assert config.nodes == 8          # flag wins
        assert config.rounds == 7         # file value survives
        assert config.seeds == (3,)
        assert config.lazy is True
        assert config.checkers is False

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        parser = build_arg_parser()
        args = parser.parse_args(["run", "--config", str(cfg)])
        with pytest.raises(ConfigError, match="frobnicate"):
            build_run_config(args)

    @pytest.mark.parametrize("option", run_long_options())
    def test_every_run_option_from_file_and_flag(self, tmp_path, option):
        file_value, flag, name, from_file, from_flag = RUN_OPTION_VALUES[option]
        assert from_file != getattr(RunConfig(), name)  # the file value is seen to arrive
        contacts = tmp_path / "contacts.txt"
        contacts.write_text("1 2 0 5\n")
        cfg = tmp_path / "run.cfg"
        # both input files exist, so every adversary passes validation
        cfg.write_text(f"trace-file={contacts}\nscript-file={contacts}\n{option[2:]}={file_value}\n")
        parser = build_arg_parser()
        alone = build_run_config(parser.parse_args(["run", "--config", str(cfg)]))
        assert getattr(alone, name) == from_file
        both = build_run_config(parser.parse_args(["run", "--config", str(cfg), *flag]))
        assert getattr(both, name) == from_flag

    @pytest.mark.parametrize("option", run_long_options())
    def test_help_names_the_default(self, option):
        parser = build_arg_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        run_parser = sub.choices["run"]
        action = next(a for a in run_parser._actions if option in a.option_strings)
        default = getattr(RunConfig(), action.dest)
        if default is None:
            shown = "none"
        elif isinstance(default, bool):
            shown = str(default).lower()
        elif isinstance(default, tuple):
            shown = ",".join(map(str, default))
        else:
            shown = str(default)
        # one unwrapped line, as a wide terminal shows it
        formatter = run_parser.formatter_class(run_parser.prog, width=10_000)
        formatter.add_argument(action)
        rendered = formatter.format_help().strip()
        assert rendered.endswith(f"(default: {shown})")
        assert rendered.count("(default:") == 1

    @pytest.mark.parametrize(
        "text, lazy",
        [("1", True), ("true", True), ("Yes", True), ("on", True),
         ("0", False), ("false", False), ("no", False), ("OFF", False)],
    )
    def test_boolean_spellings(self, tmp_path, text, lazy):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"lazy={text}\n")
        args = build_arg_parser().parse_args(["run", "--config", str(cfg)])
        assert build_run_config(args).lazy is lazy

    def test_config_line_without_equals_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nodes=4\nrounds 7\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"config error: {cfg}: line 2: expected key=value, got 'rounds 7'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--nodes", "0"], "nodes must be >= 1, got 0"),
            (["--rounds", "0"], "rounds must be >= 1, got 0"),
            (["--adversary", "scripted"], "the scripted adversary needs --script-file"),
        ],
        ids=["zero-nodes", "zero-rounds", "scripted-without-script"],
    )
    def test_bad_run_value_is_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(run_args(*flags, "--out", str(out))) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_non_integer_worker_cap_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DYNAFOREST_WORKERS", "abc")
        out = tmp_path / "out"
        assert main(run_args("--seeds", "0-1", "--out", str(out))) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "config error: DYNAFOREST_WORKERS='abc' is not an integer\n"
        )
        assert not out.exists()

    def test_bad_boolean_names_the_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-checkers=maybe\n")
        args = build_arg_parser().parse_args(["run", "--config", str(cfg)])
        with pytest.raises(ConfigError, match="bad value 'maybe' for config key 'no-checkers'"):
            build_run_config(args)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--p-birth", "1.5"],
            ["--p-death", "-0.1"],
            ["--p-birth", "nan"],
            ["--lazy", "--rest-probability", "7"],
            ["--rest-probability", "nan"],
        ],
        ids=["p-birth-above-1", "negative-p-death", "nan-p-birth", "rest-7", "nan-rest"],
    )
    def test_probability_outside_unit_interval_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        rc = main(run_args(*flags, "--out", str(out)))
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"config error: {flags[-2][2:]} must be in [0, 1], got {float(flags[-1])}\n"
        assert not out.exists()

    def test_zero_denominator_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main(run_args("--rounds-per-second", "1/0", "--out", str(out)))
        assert exited.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --rounds-per-second: zero denominator in '1/0'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_zero_denominator_in_config_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nodes=4\nrounds-per-second=1/0\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"config error: {cfg}: line 2: bad value '1/0' for config key 'rounds-per-second'\n"
        )
        assert not out.exists()

    def test_non_utf8_config_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"nodes=4\nrounds=\xff\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: line 2: 'utf-8' codec can't decode byte 0xff")
        assert not out.exists()

    def test_comments_blank_lines_and_crlf_in_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# a sweep\r\n\r\nnodes = 4  # four\r\n   \r\n#seeds=9\r\nseeds=1-2\r\n")
        given = {k: v for k, v in vars(cli.parse_config_file(cfg)).items() if v is not None}
        assert given == {"nodes": 4, "seeds": (1, 2)}

    def test_unknown_adversary_rejected_by_validate(self):
        # argparse's choices catch it on the command line and in a config file
        with pytest.raises(ConfigError, match="unknown adversary 'ring'"):
            RunConfig(adversary="ring").validate()

    def test_zero_seeds_is_usage_error(self, capsys):
        rc = main(run_args("--seeds", ","))
        assert rc == cli.EXIT_USAGE
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds, repeated", [("0,0,1", 0), ("0-3,2", 2)])
    def test_seed_given_twice_is_usage_error(self, tmp_path, capsys, seeds, repeated):
        out = tmp_path / "out"
        rc = main(run_args("--seeds", seeds, "--out", str(out)))
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"config error: seed {repeated} given twice\n"
        assert not out.exists()

    def test_seed_given_twice_in_config_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nodes=4\nseeds=0-3,2\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == "config error: seed 2 given twice\n"
        assert not out.exists()
        # the flag replaces the file's seeds rather than adding to them
        args = build_arg_parser().parse_args(["run", "--config", str(cfg), "--seeds", "2"])
        assert build_run_config(args).seeds == (2,)

    def test_trace_adversary_requires_file(self):
        rc = main(["run", "--adversary", "trace", "--seeds", "1"])
        assert rc == cli.EXIT_USAGE


class TestCmdRun:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "out"
        rc = main(run_args("--seeds", "0-2", "--out", str(out)))
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "aggregate.csv",
            "metrics_seed0.csv",
            "metrics_seed1.csv",
            "metrics_seed2.csv",
            "trace_seed0.txt",
            "trace_seed1.txt",
            "trace_seed2.txt",
            "trees_per_component.svg",
        ]
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "seed,meanTreesPerComponent,fractionOptimalRounds"
        assert len(agg) == 4
        csv0 = (out / "metrics_seed0.csv").read_text().splitlines()
        assert len(csv0) == 41
        assert (out / "trees_per_component.svg").read_text().startswith("<svg")
        assert list(tmp_path.iterdir()) == [out]  # the seeds' staging directory is gone

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(run_args("--seeds", "0-1", "--lazy", "--out", str(out1))) == 0
        assert main(run_args("--seeds", "0-1", "--lazy", "--out", str(out2))) == 0
        for name in ("aggregate.csv", "metrics_seed0.csv", "metrics_seed1.csv",
                     "trace_seed0.txt", "trace_seed1.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_single_worker_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DYNAFOREST_WORKERS", "1")
        out = tmp_path / "out"
        assert main(run_args("--seeds", "0-1", "--out", str(out))) == 0
        assert (out / "aggregate.csv").exists()

    def test_violation_aborts_with_distinct_code(self, tmp_path, monkeypatch, capsys):
        # a correct engine never violates, so fake one to cover the abort path
        from dynaforest.analysis import Violation, ViolationKind

        monkeypatch.setenv("DYNAFOREST_WORKERS", "1")
        monkeypatch.setattr(
            cli.analysis,
            "run_all_checks",
            lambda config, edges: [
                Violation(config.round, ViolationKind.StateConsistency, "node 1 faked")
            ],
        )
        out = tmp_path / "out"
        before = sorted(tmp_path.iterdir())
        rc = main(run_args("--seeds", "0", "--out", str(out)))
        assert rc == cli.EXIT_VIOLATION
        err = capsys.readouterr().err
        assert "replay with --seeds 0" in err and "faked" in err
        assert_nothing_left(out, before)  # nothing written after an aborted sweep

    def test_violation_in_a_worker_reads_as_in_process(self, tmp_path, monkeypatch, capsys):
        # the violations cross the pickle boundary as `Violation` objects
        from dynaforest.analysis import Violation, ViolationKind

        def fake_checks(config, edges):
            if config.round < 3:
                return []
            return [
                Violation(config.round, ViolationKind.StateConsistency, "node 1 faked"),
                Violation(config.round, ViolationKind.ScorePermutation, "score 2 twice"),
            ]

        monkeypatch.setattr(cli.analysis, "run_all_checks", fake_checks)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", ForkPool)
        for workers in ("1", "2"):
            monkeypatch.setenv("DYNAFOREST_WORKERS", workers)
            out = tmp_path / f"workers{workers}"
            before = sorted(tmp_path.iterdir())
            assert main(run_args("--seeds", "0-1", "--out", str(out))) == cli.EXIT_VIOLATION
            assert capsys.readouterr().err == (
                "invariant violation in seed 0 (replay with --seeds 0):\n"
                "  round 3: StateConsistency: node 1 faked\n"
                "  round 3: ScorePermutation: score 2 twice\n"
            )
            assert_nothing_left(out, before)

    def test_serial_and_pool_fan_out_write_the_same_files(self, tmp_path, monkeypatch):
        outs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("DYNAFOREST_WORKERS", workers)
            outs.append(tmp_path / f"workers{workers}")
            assert main(run_args("--seeds", "0-3", "--lazy", "--out", str(outs[-1]))) == 0
        serial, pooled = outs
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in pooled.iterdir())
        assert len(names) == 10 and "trees_per_component.svg" in names
        for name in names:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_seed_order_does_not_reach_the_files(self, tmp_path, monkeypatch, workers):
        contacts = tmp_path / "contacts.txt"
        write_contacts(contacts, seconds=30, nodes=9)
        monkeypatch.setenv("DYNAFOREST_WORKERS", workers)
        outs = []
        for seeds in ("0-2", "2,0,1"):
            outs.append(tmp_path / seeds)
            assert main(["run", "--adversary", "trace", "--trace-file", str(contacts),
                         "--seeds", seeds, "--out", str(outs[-1])]) == 0
        ordered, shuffled = outs
        names = sorted(p.name for p in ordered.iterdir())
        assert names == sorted(p.name for p in shuffled.iterdir())
        assert len(names) == 8 and "aggregate.csv" in names and "trees_per_component.svg" in names
        for name in names:
            assert (ordered / name).read_bytes() == (shuffled / name).read_bytes(), name

    def test_scripted_adversary_from_file(self, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text("1-2 2-3\n-\n1-3\n")
        out = tmp_path / "out"
        rc = main(["run", "--adversary", "scripted", "--script-file", str(script),
                   "--nodes", "3", "--rounds", "6", "--seeds", "0", "--out", str(out)])
        assert rc == 0
        rounds = list(read_trace_file(out / "trace_seed0.txt"))
        assert len(rounds) == 6
        assert rounds[0][1] == frozenset({(1, 2), (2, 3)})
        assert rounds[1][1] == frozenset()
        assert rounds[5][1] == frozenset({(1, 3)})  # tail repetition


    # Each input file reads through one reader: bad content on line 2, a byte
    # that is not UTF-8 included, is `config error: <path>: line 2: ...`.
    @pytest.mark.parametrize(
        "record, message",
        [(b"1 x 0 5", "non-integer field in '1 x 0 5'"),
         (b"3 3 0 5", "(3, 3, 0, 5): contact endpoints must differ"),
         (b"1 2 9 5", "(1, 2, 9, 5): contact must end after it starts"),
         (b"1 2 -1 5", "(1, 2, -1, 5): contact cannot start before time 0"),
         (b"0 2 0 5", "(0, 2, 0, 5): contact endpoints must be positive ids"),
         (b"1 2 0", "expected 'a b start end', got '1 2 0'"),
         (b"1 2 0 \xff", "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte")],
        ids=["non-integer", "self-contact", "ends-before-start", "negative-start", "zero-id",
             "three-fields", "not-utf-8"],
    )
    def test_malformed_contact_file_fails_before_fan_out(
        self, tmp_path, monkeypatch, capsys, record, message
    ):
        contacts = tmp_path / "contacts.txt"
        contacts.write_bytes(b"1 2 0 5\n" + record + b"  # the bad line\n")
        err = self.assert_fails_before_fan_out(
            tmp_path, monkeypatch, capsys,
            ["--adversary", "trace", "--trace-file", str(contacts)],
        )
        assert err == f"config error: {contacts}: line 2: {message}\n"

    @pytest.mark.parametrize(
        "line, message",
        [(b"1-x", "invalid literal for int() with base 10: 'x'"),
         (b"2-2", "self-loop {2,2} is not a valid edge"),
         (b"1-2 12", "bad edge token '12'"),
         (b"1-\xff", "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte")],
        ids=["non-integer", "self-loop", "no-dash", "not-utf-8"],
    )
    def test_malformed_script_file_fails_before_fan_out(
        self, tmp_path, monkeypatch, capsys, line, message
    ):
        script = tmp_path / "script.txt"
        script.write_bytes(b"1-2\n" + line + b"\n")
        err = self.assert_fails_before_fan_out(
            tmp_path, monkeypatch, capsys,
            ["--adversary", "scripted", "--script-file", str(script), "--nodes", "3"],
        )
        assert err == f"config error: {script}: line 2: {message}\n"

    @pytest.mark.parametrize(
        "line, message",
        [(b"colour=red", "unknown key 'colour'"),
         (b"rounds=\xff",
          "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte")],
        ids=["unknown-key", "not-utf-8"],
    )
    def test_malformed_config_file_fails_before_fan_out(
        self, tmp_path, monkeypatch, capsys, line, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"nodes=4\n" + line + b"\n")
        err = self.assert_fails_before_fan_out(
            tmp_path, monkeypatch, capsys, ["--config", str(cfg)]
        )
        assert err == f"config error: {cfg}: line 2: {message}\n"

    def test_comments_blank_lines_and_crlf_in_script_file(self, tmp_path):
        script = tmp_path / "script.txt"
        script.write_bytes(b"# round 1\r\n1-2 3-2\r\n\r\n  -  # no edges\r\n#2-3\r\n1-3\r\n")
        assert cli.read_script_file(script) == [
            frozenset({(1, 2), (2, 3)}), frozenset(), frozenset({(1, 3)})
        ]

    def test_contact_file_without_rounds_fails_before_fan_out(self, tmp_path, monkeypatch, capsys):
        contacts = tmp_path / "contacts.txt"
        contacts.write_text("# a b start end\n\n# no contact at all\n")
        err = self.assert_fails_before_fan_out(
            tmp_path, monkeypatch, capsys,
            ["--adversary", "trace", "--trace-file", str(contacts)],
        )
        assert err == "config error: contact trace defines no rounds (no usable contacts)\n"

    def test_zero_round_rate_fails_before_fan_out(self, tmp_path, monkeypatch, capsys):
        contacts = tmp_path / "contacts.txt"
        contacts.write_text("1 2 0 5\n")
        err = self.assert_fails_before_fan_out(
            tmp_path, monkeypatch, capsys,
            ["--adversary", "trace", "--trace-file", str(contacts), "--rounds-per-second", "0"],
        )
        assert err == "config error: rounds_per_second must be positive, got 0\n"

    @pytest.mark.parametrize("unreadable", ["missing", "directory"])
    @pytest.mark.parametrize(
        "adversary, option",
        [(["--adversary", "trace"], "--trace-file"),
         (["--adversary", "scripted"], "--script-file"),
         ([], "--config")],
        ids=["trace-file", "script-file", "config"],
    )
    def test_unreadable_input_fails_before_fan_out(
        self, tmp_path, monkeypatch, capsys, adversary, option, unreadable
    ):
        path = tmp_path / "input"
        if unreadable == "directory":
            path.mkdir()
        err = self.assert_fails_before_fan_out(
            tmp_path, monkeypatch, capsys, [*adversary, option, str(path)],
            code=cli.EXIT_FAILURE, prefix="I/O error: ",
        )
        assert err.endswith(f": {str(path)!r}\n")

    def assert_fails_before_fan_out(
        self, tmp_path, monkeypatch, capsys, adversary,
        code=cli.EXIT_USAGE, prefix="config error: ",
    ):
        """Run two seeds on two workers; return the one-line error on stderr."""

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setenv("DYNAFOREST_WORKERS", "2")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "out"
        before = sorted(tmp_path.iterdir())
        rc = main(["run", *adversary, "--rounds", "5", "--seeds", "0-1", "--out", str(out)])
        assert rc == code
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert err.count("\n") == 1
        assert_nothing_left(out, before)
        return err

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "out, code",
        [("afile", errno.EEXIST), ("afile/sub", errno.ENOTDIR)],
        ids=["a-file", "under-a-file"],
    )
    def test_out_that_is_or_lies_under_a_file_fails_before_any_seed(
        self, tmp_path, monkeypatch, capsys, out, code, workers
    ):
        started = []

        def never(*args, **kwargs):
            started.append(args)
            raise AssertionError("started before --out was found unusable")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("DYNAFOREST_WORKERS", str(workers))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", never)
        monkeypatch.setattr(cli, "run_one_seed", never)
        (tmp_path / "afile").write_text("keep\n")
        assert main(run_args("--seeds", "0-1", "--out", out)) == cli.EXIT_FAILURE
        assert started == []
        assert capsys.readouterr().err == (
            f"I/O error: [Errno {code}] {os.strerror(code)}: {out!r}\n"
        )
        assert (tmp_path / "afile").read_text() == "keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]  # no .dynaforest-run-*

    @pytest.mark.parametrize("blocked", WRITE_ORDER)
    def test_unwritable_output_is_an_io_error(self, tmp_path, monkeypatch, capsys, blocked):
        monkeypatch.setenv("DYNAFOREST_WORKERS", "1")
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main(run_args("--seeds", "0", "--out", str(out))) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and err.endswith(f": {str(out / blocked)!r}\n")
        written = WRITE_ORDER[: WRITE_ORDER.index(blocked)]
        for name in written:  # the files written before stay
            assert (out / name).is_file(), name
        # and nothing else is left, in `out` or next to it
        assert sorted(p.name for p in out.iterdir()) == sorted([*written, blocked])
        assert list(tmp_path.iterdir()) == [out]


class ForkPool(ProcessPoolExecutor):
    """A process pool whose workers fork, so they inherit a test's patches."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, mp_context=multiprocessing.get_context("fork"), **kwargs)


class TestSeedFailure:
    def fail_seed(self, monkeypatch, failing_seed, fail):
        real_build_graph = cli.build_graph

        def build_graph(config, seed):
            if seed == failing_seed:
                fail()
            return real_build_graph(config, seed)

        monkeypatch.setattr(cli, "build_graph", build_graph)

    def boom(self):
        raise RuntimeError("boom")

    def test_exception_in_process(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DYNAFOREST_WORKERS", "1")
        self.fail_seed(monkeypatch, 1, self.boom)
        out = tmp_path / "out"
        before = sorted(tmp_path.iterdir())
        assert main(run_args("--seeds", "0-2", "--out", str(out))) == cli.EXIT_FAILURE
        assert capsys.readouterr().err == "seed 1 failed: RuntimeError: boom\n"
        assert_nothing_left(out, before)

    def test_exception_in_a_worker(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DYNAFOREST_WORKERS", "2")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", ForkPool)
        self.fail_seed(monkeypatch, 1, self.boom)
        out = tmp_path / "out"
        before = sorted(tmp_path.iterdir())
        assert main(run_args("--seeds", "0-2", "--out", str(out))) == cli.EXIT_FAILURE
        assert capsys.readouterr().err == "seed 1 failed: RuntimeError: boom\n"
        assert_nothing_left(out, before)

    def test_io_error_in_a_worker_is_reported_by_main(self, tmp_path, monkeypatch, capsys):
        # such as a seed's trace that cannot be written for a full disk
        def disk_full():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), "trace_seed1.txt")

        monkeypatch.setenv("DYNAFOREST_WORKERS", "2")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", ForkPool)
        self.fail_seed(monkeypatch, 1, disk_full)
        out = tmp_path / "out"
        before = sorted(tmp_path.iterdir())
        assert main(run_args("--seeds", "0-2", "--out", str(out))) == cli.EXIT_FAILURE
        assert capsys.readouterr().err == (
            "I/O error: [Errno 28] No space left on device: 'trace_seed1.txt'\n"
        )
        assert_nothing_left(out, before)

    def test_dead_worker(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DYNAFOREST_WORKERS", "2")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", ForkPool)
        self.fail_seed(monkeypatch, 0, lambda: os._exit(1))
        out = tmp_path / "out"
        before = sorted(tmp_path.iterdir())
        assert main(run_args("--seeds", "0-1", "--out", str(out))) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("a worker died; seeds without a result: 0, 1: BrokenProcessPool: ")
        assert err.count("\n") == 1
        assert_nothing_left(out, before)

    def test_dead_worker_is_not_blamed_on_a_running_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DYNAFOREST_WORKERS", "2")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", ForkPool)
        self.fail_seed(monkeypatch, 0, lambda: time.sleep(1))  # still running when seed 1 dies
        self.fail_seed(monkeypatch, 1, lambda: os._exit(1))
        out = tmp_path / "out"
        before = sorted(tmp_path.iterdir())
        assert main(run_args("--seeds", "0-1", "--out", str(out))) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("a worker died; seeds without a result: 0, 1: BrokenProcessPool: ")
        assert err.count("\n") == 1
        assert_nothing_left(out, before)


class TestCmdCheck:
    def make_trace(self, tmp_path):
        out = tmp_path / "out"
        assert main(run_args("--seeds", "4", "--out", str(out))) == 0
        return out / "trace_seed4.txt"

    def test_self_consistency(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        assert main(["check", str(trace)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_mutated_parent_detected(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        # find a node tuple with a real parent and point it somewhere else valid
        for i, line in enumerate(lines[5:], start=5):
            if i % 2 == 0:  # node lines sit at even indices (0-based) after the header
                tokens = line.split()
                for j, tok in enumerate(tokens):
                    nid, status, parent, score, children = tok.split(":")
                    if parent != "-":
                        other = next(
                            t.split(":")[0]
                            for t in tokens
                            if t.split(":")[0] not in (nid, parent)
                        )
                        tokens[j] = ":".join([nid, status, other, score, children])
                        lines[i] = " ".join(tokens)
                        mutated = trace.with_name("mutated.txt")
                        mutated.write_text("\n".join(lines) + "\n")
                        rc = main(["check", str(mutated)])
                        assert rc == cli.EXIT_VIOLATION
                        assert "violation" in capsys.readouterr().err.lower()
                        return
        pytest.fail("trace contained no parent pointer to mutate")

    def test_token_one_character_off_the_one_two_rounds_back(self, tmp_path, capsys):
        # non-lazy, nodes 1 and 2 swap the same two tuples: round 6's tuple
        # of node 1 reads as round 4's, and is parsed from two lines back
        script = tmp_path / "pair.script"
        script.write_text("1-2\n")
        out = tmp_path / "out"
        assert main(["run", "--adversary", "scripted", "--script-file", str(script),
                     "--nodes", "2", "--rounds", "8", "--seeds", "0", "--out", str(out)]) == 0
        lines = (out / "trace_seed0.txt").read_text().splitlines()
        node_line = {r: 5 + 2 * (r - 1) + 1 for r in range(1, 9)}  # round -> line index
        assert lines[node_line[4]] == lines[node_line[6]] != lines[node_line[5]]
        tokens = lines[node_line[6]].split()
        nid, status, parent, score, children = tokens[0].split(":")
        assert (nid, parent) == ("1", "2")
        tokens[0] = ":".join([nid, status, "3", score, children])  # parent 2 -> 3
        lines[node_line[6]] = " ".join(tokens)
        tampered = tmp_path / "tampered.txt"
        tampered.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_VIOLATION
        assert "round 6: ForestConsistency: node 1 has parent 3" in capsys.readouterr().err

    def tampered_round_1(self, tmp_path, edit):
        """A real trace whose round-1 edge and node lines pass through `edit`."""
        lines = self.make_trace(tmp_path).read_text().splitlines()
        lines[5], lines[6] = edit(lines[5], lines[6])
        tampered = tmp_path / "tampered.txt"
        tampered.write_text("\n".join(lines) + "\n")
        return tampered

    def tamper_node_1(self, tmp_path, parent):
        """Round 1 of a real trace with node 1 given `parent`."""

        def edit(edges, nodes):
            tokens = nodes.split()
            nid, _, _, score, children = tokens[0].split(":")
            assert nid == "1"
            tokens[0] = ":".join([nid, "N", parent, score, children])
            return edges, " ".join(tokens)

        return self.tampered_round_1(tmp_path, edit)

    def test_parent_outside_vertex_set_is_a_violation(self, tmp_path, capsys):
        # no edge to 99 is added: that would make the trace unparseable
        tampered = self.tamper_node_1(tmp_path, "99")
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_VIOLATION
        err = capsys.readouterr().err
        assert "round 1: ForestConsistency: node 1 has parent 99" in err
        assert "Traceback" not in err

    def test_negative_parent_is_a_violation(self, tmp_path, capsys):
        tampered = self.tamper_node_1(tmp_path, "-3")
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_VIOLATION
        err = capsys.readouterr().err
        assert "round 1: ForestConsistency: node 1 has parent -3" in err
        assert "round 1: GraphConsistency: node 1 has parent -3 but edge {1,-3}" in err

    def test_zero_score_is_a_parse_error(self, tmp_path, capsys):
        lines = self.make_trace(tmp_path).read_text().splitlines()
        tokens = lines[6].split()
        nid, status, parent, _, children = tokens[0].split(":")
        tokens[0] = ":".join([nid, status, parent, "0", children])
        lines[6] = " ".join(tokens)
        tampered = tmp_path / "tampered.txt"
        tampered.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("cannot parse trace: ")
        assert "score must be positive, got 0" in err

    def test_edge_endpoint_outside_vertex_set_is_a_parse_error(self, tmp_path, capsys):
        tampered = self.tampered_round_1(
            tmp_path, lambda edges, nodes: ("4-99" if edges == "-" else f"{edges} 4-99", nodes)
        )
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("cannot parse trace: ")
        assert "line 6: edge {4,99} endpoint 99 is not in the vertex set" in err

    def test_node_tuple_with_four_fields_is_a_parse_error(self, tmp_path, capsys):
        def edit(edges, nodes):
            first, *rest = nodes.split()
            return edges, " ".join([first.rsplit(":", 1)[0], *rest])

        tampered = self.tampered_round_1(tmp_path, edit)
        first = tampered.read_text().splitlines()[6].split()[0]
        assert first.count(":") == 3
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_FAILURE
        assert capsys.readouterr().err == (
            f"cannot parse trace: {tampered}: line 7: bad node tuple {first!r}\n"
        )

    def test_node_listed_twice_is_a_parse_error(self, tmp_path, capsys):
        tampered = self.tampered_round_1(
            tmp_path, lambda edges, nodes: (edges, f"{nodes} {nodes.split()[0]}")
        )
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("cannot parse trace: ")
        assert "line 7: node 1 is listed twice" in err

    @pytest.mark.parametrize(
        "node_line, edit, message",
        [
            (False, lambda t: [t[0], *t], "edges not in canonical form"),
            (False, lambda t: ["-".join(reversed(t[0].split("-"))), *t[1:]],
             "edges not in canonical form"),
            (False, lambda t: [t[1], t[0], *t[2:]] if len(t) > 1 else t,
             "edges not in canonical form"),
            (True, lambda t: [t[1], t[0], *t[2:]], "nodes not in canonical form"),
            (True, lambda t: [_reverse_children(x) for x in t], "nodes not in canonical form"),
        ],
        ids=["duplicate-edge", "reversed-edge", "unsorted-edges", "nodes-out-of-order",
             "unsorted-children"],
    )
    def test_non_canonical_line_is_a_parse_error(
        self, tmp_path, capsys, node_line, edit, message
    ):
        # the parsed round would pass every checker: the text itself is refused
        lines = self.make_trace(tmp_path).read_text().splitlines()
        for k in range(6 if node_line else 5, len(lines), 2):
            tokens = lines[k].split()
            if tokens != ["-"] and edit(tokens) != tokens:
                lines[k] = " ".join(edit(tokens))
                break
        else:
            pytest.fail("no round of the trace can take the edit")
        tampered = tmp_path / "tampered.txt"
        tampered.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("cannot parse trace: ")
        assert f"line {k + 1}: {message}" in err

    @pytest.mark.parametrize(
        "lineno, edit",
        [
            (2, lambda line: line.replace("vertices 1 2 ", "vertices 2 1 ")),
            (2, lambda line: line.replace("vertices 1 ", "vertices 1 1 ")),
            (3, lambda line: line.replace("seed ", "seed 0")),
            (4, lambda line: "lazy 5"),
            (5, lambda line: " ".join(["params", *reversed(line.split()[1:])])),
            (5, lambda line: line + " "),
        ],
        ids=["unsorted-vertices", "repeated-vertex", "seed-leading-zero", "lazy-5",
             "params-out-of-order", "trailing-space"],
    )
    def test_non_canonical_header_is_a_parse_error(self, tmp_path, capsys, lineno, edit):
        # `int`, `frozenset` and `split` read each edited line, which the writer never writes
        lines = self.make_trace(tmp_path).read_text().splitlines()
        edited = edit(lines[lineno - 1])
        assert edited != lines[lineno - 1]
        lines[lineno - 1] = edited
        tampered = tmp_path / "tampered.txt"
        tampered.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith(f"cannot parse trace: {tampered}: line {lineno}: ")
        assert "header not in canonical form" in err

    def test_edge_line_without_node_line_is_a_parse_error(self, tmp_path, capsys):
        lines = self.make_trace(tmp_path).read_text().splitlines()
        cut = tmp_path / "cut.txt"
        cut.write_text("\n".join(lines[:-1]) + "\n")
        capsys.readouterr()
        assert main(["check", str(cut)]) == cli.EXIT_FAILURE
        assert capsys.readouterr().err == (
            f"cannot parse trace: {cut}: line {len(lines) - 1}: round 40 has no node line\n"
        )

    @pytest.mark.parametrize(
        "kept, message",
        [(5, "no round after the header"),
         (3, "header cut short after line 3 of 5"),
         (1, "header cut short after line 1 of 5")],
        ids=["header-only", "three-lines", "magic-only"],
    )
    def test_trace_cut_at_or_inside_its_header_is_a_parse_error(
        self, tmp_path, capsys, kept, message
    ):
        lines = self.make_trace(tmp_path).read_text().splitlines()
        cut = tmp_path / "cut.txt"
        cut.write_text("\n".join(lines[:kept]) + "\n")
        capsys.readouterr()
        assert main(["check", str(cut)]) == cli.EXIT_FAILURE
        assert capsys.readouterr().err == f"cannot parse trace: {cut}: {message}\n"

    def test_non_utf8_byte_is_a_parse_error(self, tmp_path, capsys):
        data = self.make_trace(tmp_path).read_bytes()
        tampered = tmp_path / "tampered.txt"
        tampered.write_bytes(data[:-1] + b"\xff\n")
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        lineno = data.count(b"\n")
        assert err.startswith(
            f"cannot parse trace: {tampered}: line {lineno}: 'utf-8' codec can't decode byte 0xff"
        )

    def test_crlf_trace_reads_as_its_lf_twin(self, tmp_path):
        trace = self.make_trace(tmp_path)
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(trace.read_bytes().replace(b"\n", b"\r\n"))
        assert list(read_trace_file(crlf)) == list(read_trace_file(trace))

    @pytest.mark.parametrize(
        "lineno, line",
        [(2, "vertices 1 x 3"), (3, "seed"), (3, "seed 1 2"), (4, "lazy"), (5, "params nodes")],
        ids=["vertex-not-an-int", "seed-missing", "two-seeds", "lazy-missing",
             "param-without-value"],
    )
    def test_header_line_without_its_value_names_its_line(self, tmp_path, capsys, lineno, line):
        lines = self.make_trace(tmp_path).read_text().splitlines()
        lines[lineno - 1] = line
        tampered = tmp_path / "tampered.txt"
        tampered.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_FAILURE
        assert capsys.readouterr().err == (
            f"cannot parse trace: {tampered}: line {lineno}: malformed header line {line!r}\n"
        )

    def test_edge_line_that_does_not_parse_is_a_parse_error(self, tmp_path, capsys):
        tampered = self.tampered_round_1(tmp_path, lambda edges, nodes: ("1-x", nodes))
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_FAILURE
        assert capsys.readouterr().err == (
            f"cannot parse trace: {tampered}: line 6: "
            "invalid literal for int() with base 10: 'x'\n"
        )

    @pytest.mark.parametrize(
        "node_line, message",
        [(False, "line 6: bad edge token '#'"), (True, "line 7: bad node tuple '#'")],
        ids=["edge-line", "node-line"],
    )
    def test_hash_is_not_a_comment_in_a_trace(self, tmp_path, capsys, node_line, message):
        # the input files' `#` comments are cut by `read_lines`; a trace line is read whole
        def edit(edges, nodes):
            return (edges, nodes + " # note") if node_line else (edges + " # note", nodes)

        tampered = self.tampered_round_1(tmp_path, edit)
        assert tampered.read_text().splitlines()[5 + node_line].endswith(" # note")
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_FAILURE
        assert capsys.readouterr().err == f"cannot parse trace: {tampered}: {message}\n"

    def test_node_line_without_a_header_vertex_is_a_parse_error(self, tmp_path, capsys):
        tampered = self.tampered_round_1(
            tmp_path, lambda edges, nodes: (edges, " ".join(nodes.split()[:-1]))
        )
        capsys.readouterr()
        assert main(["check", str(tampered)]) == cli.EXIT_FAILURE
        assert capsys.readouterr().err == (
            f"cannot parse trace: {tampered}: line 7: round 1 nodes do not match the header\n"
        )

    def test_reading_holds_one_round_at_a_time(self, tmp_path):
        cli.run_one_seed(RunConfig(nodes=12, rounds=2000, checkers=False, out=str(tmp_path)), 0)
        lines = (tmp_path / "trace_seed0.txt").read_text().splitlines()

        def peak(rounds):
            path = tmp_path / f"trace{rounds}.txt"
            path.write_text("\n".join(lines[: 5 + 2 * rounds]) + "\n")
            tracemalloc.start()
            try:
                assert sum(1 for _ in read_trace_file(path)) == rounds
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short = peak(200)
        assert peak(2000) <= 1.5 * short

    def test_writing_holds_one_round_at_a_time(self, tmp_path):
        """A seed streams its trace to disk: doubling its rounds grows its
        peak by far less than the trace the extra rounds write."""

        def run(seconds):
            contacts, out = tmp_path / f"contacts{seconds}.txt", tmp_path / f"out{seconds}"
            write_contacts(contacts, seconds)
            out.mkdir()
            config = RunConfig(adversary="trace", trace_file=str(contacts), out=str(out))
            tracemalloc.start()
            try:
                result = cli.run_one_seed(config, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(result.summary.per_round) == 10 * seconds
            return peak, (out / "trace_seed0.txt").stat().st_size

        short_peak, short_bytes = run(100)
        long_peak, long_bytes = run(200)
        assert long_peak - short_peak < 0.5 * (long_bytes - short_bytes)

    def test_empty_file_is_parse_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["check", str(empty)]) == cli.EXIT_FAILURE
        assert "cannot parse" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.txt")]) == cli.EXIT_FAILURE

    @pytest.mark.parametrize("unreadable", ["missing", "directory"])
    def test_unreadable_trace_is_an_io_error(self, tmp_path, capsys, unreadable):
        path = tmp_path / "trace.txt"
        if unreadable == "directory":
            path.mkdir()
        assert main(["check", str(path)]) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and err.endswith(f": {str(path)!r}\n")


def _reverse_children(token):
    """A node tuple with its children listed in descending order."""
    *head, children = token.split(":")
    return ":".join([*head, ",".join(reversed(children.split(",")))])


def _scripted_graph(n, pool, pattern):
    """Rounds drawn from a pool of edge sets: `scripted` gives each round its
    own frozenset, so a repeated set is equal to the last one but not the same."""
    pairs = [[(u % n + 1, v % n + 1) for u, v in es if u % n != v % n] for es in pool]
    return topology.scripted(range(1, n + 1), [pairs[k % len(pairs)] for k in pattern])


class TestTraceWriter:
    """One `TraceWriter` over a run writes what `trace_round_lines` writes."""

    @settings(max_examples=60, deadline=None)
    @given(
        adversary=st.sampled_from(["edge-markov", "contacts", "scripted"]),
        n=st.integers(1, 9),
        seed=st.integers(0, 2**16),
        lazy=st.booleans(),
        pool=st.lists(
            st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=12),
            min_size=1,
            max_size=3,
        ).map(lambda pool: [[], *pool]),
        pattern=st.lists(st.integers(0, 3), min_size=1, max_size=40),
    )
    def test_lines_equal_stateless_formatting(self, adversary, n, seed, lazy, pool, pattern):
        if adversary == "edge-markov":
            graph = topology.edge_markov(topology.EdgeMarkovParams(n, 0.3, 0.3, seed=seed))
        elif adversary == "contacts":
            graph = contact_graph(seed, n=n + 1, contacts=2 * n, seconds=6)
        else:
            graph = _scripted_graph(n, pool, pattern)
        writer = cli.TraceWriter()
        for i, edges, config in engine.iter_run(graph, len(pattern), seed, lazy):
            assert writer.round_lines(edges, config) == cli.trace_round_lines(edges, config)

    def test_states_keyed_out_of_id_order_are_written_in_it(self):
        # a round keyed in another order is formatted from scratch, and the
        # rounds after it are diffed against it
        graph = topology.scripted(range(1, 6), [[(1, 2), (3, 4), (4, 5)]])
        writer = cli.TraceWriter()
        for i, edges, config in engine.iter_run(graph, 12, seed=0):
            if i % 4 == 2:
                config = Configuration(i, dict(reversed(config.states.items())))
            assert writer.round_lines(edges, config) == cli.trace_round_lines(edges, config)


class TestReplayFigure:
    def test_unknown_scenario(self, capsys):
        assert main(["replay-figure", "fig3"]) == cli.EXIT_USAGE
        assert "unknown scenario" in capsys.readouterr().err

    def test_fig2_violation_exits_3(self, monkeypatch, capsys):
        # a correct engine never violates, so fake the checks to cover the exit
        from dynaforest.analysis import Violation, ViolationKind

        def fake_checks(config, edges):
            if config.round < 2:
                return []
            return [Violation(config.round, ViolationKind.StateConsistency, "node 1 faked")]

        monkeypatch.setattr(cli.analysis, "run_all_checks", fake_checks)
        assert main(["replay-figure", "fig2"]) == cli.EXIT_VIOLATION
        captured = capsys.readouterr()
        assert "round 2" in captured.out and "round 3" not in captured.out
        assert captured.err == "  VIOLATION round 2: StateConsistency: node 1 faked\n"

    def test_fig2_prints_table_and_passes_checks(self, capsys):
        assert main(["replay-figure", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "round 6" in out
        assert out.count("node status parent score") == 6

    def test_fig2_trajectory_matches_hand_execution(self):
        # hand-derived oracle (seed 1): per round {node: (status, parent, score)}
        expected = {
            1: {n: ("T", None, n) for n in range(1, 9)},
            2: {
                1: ("N", 4, 1), 2: ("N", 8, 2), 3: ("N", 4, 3), 4: ("N", 8, 4),
                5: ("N", 7, 5), 6: ("N", 7, 6), 7: ("T", None, 7), 8: ("T", None, 8),
            },
            3: {
                1: ("N", 4, 1), 2: ("T", None, 8), 3: ("N", 4, 3), 4: ("N", 8, 4),
                5: ("T", None, 7), 6: ("N", 7, 6), 7: ("N", 5, 5), 8: ("N", 2, 2),
            },
            4: {
                1: ("N", 4, 1), 2: ("N", 8, 2), 3: ("N", 4, 3), 4: ("T", None, 4),
                5: ("N", 8, 7), 6: ("N", 7, 6), 7: ("N", 5, 5), 8: ("T", None, 8),
            },
            5: {
                1: ("T", None, 4), 2: ("N", 8, 2), 3: ("N", 4, 3), 4: ("N", 1, 1),
                5: ("T", None, 8), 6: ("N", 7, 6), 7: ("N", 5, 5), 8: ("N", 5, 7),
            },
            6: {
                1: ("N", 4, 1), 2: ("N", 8, 2), 3: ("N", 4, 3), 4: ("T", None, 4),
                5: ("N", 8, 7), 6: ("N", 7, 6), 7: ("N", 5, 5), 8: ("T", None, 8),
            },
        }
        graph = fig2_graph()
        for i, edges, config in engine.iter_run(graph, rounds=6, seed=cli.FIG2_SEED):
            got = {
                u: (st.status.value, st.parent, st.score)
                for u, st in config.states.items()
            }
            assert got == expected[i], f"round {i} diverged from the hand execution"

    def test_fig2_round4_regenerates_in_the_severing_round(self):
        graph = fig2_graph()
        configs = dict()
        for i, edges, config in engine.iter_run(graph, rounds=4, seed=cli.FIG2_SEED):
            configs[i] = config
        # node 4's parent edge {4,8} vanished in round 4; same round it is a root again
        assert configs[3].states[4].parent == 8
        assert configs[4].states[4].status is Status.T
        assert configs[4].states[4].parent is None
        # and its old subtree kept exactly one token per piece
        roots = [u for u, st in configs[4].states.items() if st.status is Status.T]
        assert sorted(roots) == [4, 8]


# ---------------------------------------------------------------------------
# `dynaforest` in a fresh interpreter: what one process imports and holds

# sys.argv[1:] is the dynaforest command line; the exit code is main's
BLOCK_NUMPY = """
import sys
sys.modules["numpy"] = None  # from here on, importing numpy raises ImportError
from dynaforest import cli
sys.exit(cli.main(sys.argv[1:]))
"""

# the same, then the process's peak RSS in KiB as the last stdout line.  It
# is read from VmHWM, not ru_maxrss: Linux keeps in ru_maxrss the peak of the
# address space an exec replaced, so a process started from pytest would
# report pytest's peak whenever its own is smaller.
PEAK_RSS = """
import sys
from dynaforest import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def run_fresh(script, args, workers):
    """`script` in a new interpreter that imports this dynaforest."""
    package_parent = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, DYNAFOREST_WORKERS=str(workers))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def write_contacts(path, seconds, nodes=78, seed=0):
    """A contact file whose trace lasts `seconds` * 10 rounds at the default
    rate: each node meets a neighbour in the first second, then one random
    pair meets every second, for 1-30 s, the last contact ending at `seconds`."""
    rng = random.Random(seed)
    lines = [f"{u} {u + 1} 0 1" for u in range(1, nodes, 2)]
    for start in range(seconds):
        a, b = rng.sample(range(1, nodes + 1), 2)
        lines.append(f"{a} {b} {start} {min(seconds, start + rng.randint(1, 30))}")
    path.write_text("\n".join(lines) + "\n")


class TestWithoutNumpy:
    """Only the edge-Markov adversary needs numpy."""

    def test_contact_check_and_replay_paths_never_import_numpy(self, tmp_path):
        contacts = tmp_path / "contacts.txt"
        write_contacts(contacts, seconds=5, nodes=8)
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            done = run_fresh(BLOCK_NUMPY, ["run", "--adversary", "trace", "--trace-file", contacts,
                                           "--seeds", "0-1", "--out", out], workers)
            assert done.returncode == cli.EXIT_OK, done.stderr
            done = run_fresh(BLOCK_NUMPY, ["check", out / "trace_seed1.txt"], workers)
            assert done.returncode == cli.EXIT_OK, done.stderr
        done = run_fresh(BLOCK_NUMPY, ["replay-figure", "fig2"], 1)
        assert done.returncode == cli.EXIT_OK, done.stderr

    def test_the_trace_format_imports_without_numpy_or_the_cli(self):
        # `-S`: no site hook imports anything before the script runs
        script = (
            'import sys\n'
            'sys.modules["numpy"] = None\n'
            'import dynaforest.tracefile\n'
            'print(*sorted({"argparse", "concurrent.futures", "tempfile"} & set(sys.modules)))\n'
        )
        package_parent = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-S", "-c", script], env=dict(os.environ, PYTHONPATH=package_parent),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "\n"

    def test_the_block_stops_an_edge_markov_run(self, tmp_path):
        done = run_fresh(BLOCK_NUMPY, run_args("--seeds", "0", "--out", tmp_path / "out"), 1)
        assert done.returncode == 1
        # one line, no traceback
        assert done.stderr == (
            "the edge-markov adversary cannot load: "
            "ModuleNotFoundError: import of numpy halted; None in sys.modules\n"
        )
        assert "Traceback" not in done.stderr


def test_a_seed_result_grows_with_its_runs_not_its_rounds(tmp_path):
    """The summary a worker pickles back holds one entry per run of equal
    rounds, whatever the number of rounds in each run."""
    contacts = tmp_path / "contacts.txt"
    write_contacts(contacts, seconds=300)
    config = RunConfig(adversary="trace", trace_file=str(contacts), checkers=False,
                       out=str(tmp_path))
    result = cli.run_one_seed(config, 0)
    runs = len(result.summary.run_starts)
    assert result.summary.rounds == 3000 and runs < 3000
    assert len(pickle.dumps(result)) <= 32 * runs + 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_long_replay_holds_far_less_than_its_trace(tmp_path):
    """A seed streams its trace to disk as it runs, and holds its per-round
    metrics as runs of equal rounds, so 100x the rounds costs far less than
    the trace they write."""
    peak_kib = {}
    for rounds in (100, 10_000):
        contacts, out = tmp_path / f"contacts{rounds}.txt", tmp_path / f"out{rounds}"
        write_contacts(contacts, seconds=rounds // 10)
        done = run_fresh(PEAK_RSS, ["run", "--adversary", "trace", "--trace-file", contacts,
                                    "--seeds", "0", "--out", out], 1)
        assert done.returncode == cli.EXIT_OK, done.stderr
        assert f"1 seeds x {rounds} rounds" in done.stdout
        peak_kib[rounds] = int(done.stdout.splitlines()[-1])
    trace_bytes = (out / "trace_seed0.txt").stat().st_size  # the 10 000-round trace
    excess = (peak_kib[10_000] - peak_kib[100]) * 1024
    print(f"peak RSS {peak_kib} KiB, excess {excess / trace_bytes:.2f}x the trace")
    assert excess <= 0.5 * trace_bytes, (peak_kib, trace_bytes)

import os

import pytest

from dynaforest import cli, engine
from dynaforest.cli import (
    ConfigError,
    build_run_config,
    build_arg_parser,
    fig2_graph,
    main,
    parse_seeds,
    read_trace_file,
)
from dynaforest.model import Action, Status


def run_args(*extra):
    return ["run", "--adversary", "edge-markov", "--nodes", "10", "--p-birth", "0.3",
            "--p-death", "0.3", "--rounds", "40", *extra]


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

    def test_zero_seeds_is_usage_error(self, capsys):
        rc = main(run_args("--seeds", ","))
        assert rc == cli.EXIT_USAGE
        assert "seed" in capsys.readouterr().err

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
        rc = main(run_args("--seeds", "0", "--out", str(out)))
        assert rc == cli.EXIT_VIOLATION
        err = capsys.readouterr().err
        assert "replay with --seeds 0" in err and "faked" in err
        assert not out.exists()  # nothing written after an aborted sweep

    def test_scripted_adversary_from_file(self, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text("1-2 2-3\n-\n1-3\n")
        out = tmp_path / "out"
        rc = main(["run", "--adversary", "scripted", "--script-file", str(script),
                   "--nodes", "3", "--rounds", "6", "--seeds", "0", "--out", str(out)])
        assert rc == 0
        stored = read_trace_file(out / "trace_seed0.txt")
        assert len(stored.rounds) == 6
        assert stored.rounds[0][1] == frozenset({(1, 2), (2, 3)})
        assert stored.rounds[1][1] == frozenset()
        assert stored.rounds[5][1] == frozenset({(1, 3)})  # tail repetition


    @pytest.mark.parametrize(
        "record", ["1 x 0 5", "1 1 0 5"], ids=["non-integer", "self-contact"]
    )
    def test_malformed_contact_file_fails_before_fan_out(
        self, tmp_path, monkeypatch, capsys, record
    ):
        contacts = tmp_path / "contacts.txt"
        contacts.write_text(f"1 2 0 5\n{record}\n")
        self.assert_config_error_before_fan_out(
            tmp_path, monkeypatch, capsys,
            ["--adversary", "trace", "--trace-file", str(contacts)],
        )

    @pytest.mark.parametrize("line", ["1-x", "2-2"], ids=["non-integer", "self-loop"])
    def test_malformed_script_file_fails_before_fan_out(
        self, tmp_path, monkeypatch, capsys, line
    ):
        script = tmp_path / "script.txt"
        script.write_text(f"1-2\n{line}\n")
        self.assert_config_error_before_fan_out(
            tmp_path, monkeypatch, capsys,
            ["--adversary", "scripted", "--script-file", str(script), "--nodes", "3"],
        )

    def assert_config_error_before_fan_out(self, tmp_path, monkeypatch, capsys, adversary):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setenv("DYNAFOREST_WORKERS", "2")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "out"
        rc = main(["run", *adversary, "--rounds", "5", "--seeds", "0-1", "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "line 2" in err
        assert not out.exists()


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

    def tamper_node_1(self, tmp_path, parent, extra_edge=None):
        """Round 1 of a real trace with node 1 given `parent` (and an extra edge)."""
        lines = self.make_trace(tmp_path).read_text().splitlines()
        if extra_edge is not None:
            lines[5] = extra_edge if lines[5] == "-" else f"{lines[5]} {extra_edge}"
        tokens = lines[6].split()
        nid, _, _, score, children = tokens[0].split(":")
        assert nid == "1"
        tokens[0] = ":".join([nid, "N", parent, score, children])
        lines[6] = " ".join(tokens)
        tampered = tmp_path / "tampered.txt"
        tampered.write_text("\n".join(lines) + "\n")
        return tampered

    def test_parent_outside_vertex_set_is_a_violation(self, tmp_path, capsys):
        tampered = self.tamper_node_1(tmp_path, "99", extra_edge="1-99")
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

    def test_empty_file_is_parse_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["check", str(empty)]) == cli.EXIT_FAILURE
        assert "cannot parse" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.txt")]) == cli.EXIT_FAILURE


class TestReplayFigure:
    def test_unknown_scenario(self, capsys):
        assert main(["replay-figure", "fig3"]) == cli.EXIT_USAGE
        assert "unknown scenario" in capsys.readouterr().err

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

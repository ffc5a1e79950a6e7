import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from descriptorsim import bell, chsh, cli
from descriptorsim.bell import run_bell
from descriptorsim.cli import (
    ConfigError,
    RunConfig,
    execute_and_report,
    main,
    parse_config,
)
from conftest import child_env


# stands for the path of a config file that is not valid UTF-8
NOT_UTF8 = "<latin-1 config>"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(args, **kwargs):
    """``python -m descriptorsim.cli *args`` in a child process."""
    return subprocess.run(
        [sys.executable, "-m", "descriptorsim.cli", *args],
        capture_output=True,
        env=child_env(),
        **kwargs,
    )


def test_readme_cli_examples_exit_0(capsys):
    # every documented `descriptorsim run ...` line of README's sh blocks
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M)
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("descriptorsim run ")
    ]
    assert commands
    for argv in commands:
        code, _, err = run_main(capsys, *argv)
        assert code == 0, (argv, err)


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(["run", "bell"])
        assert cfg == RunConfig(experiment="bell")
        assert cfg.theta == 0.0
        assert cfg.phi == pytest.approx(math.pi / 4)
        assert cfg.format == "table"

    def test_explicit_angles(self):
        cfg = parse_config(["run", "bell", "--theta", "0", "--phi", "0.7853981634"])
        assert cfg.phi == pytest.approx(math.pi / 4, abs=1e-9)

    def test_presets_map_to_strategy_angles(self):
        cfg = parse_config(["run", "bell", "--preset", "chsh-11"])
        assert cfg.theta == pytest.approx(math.pi / 2)
        assert cfg.phi == pytest.approx(-math.pi / 4)

    def test_preset_conflicts_with_angles(self):
        with pytest.raises(ConfigError):
            parse_config(["run", "bell", "--preset", "chsh-00", "--theta", "1"])

    def test_config_file_key_value(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("theta=0.5\nphi=0.25\nformat=csv\n# comment\n")
        cfg = parse_config(["run", "bell", "--config", str(path)])
        assert (cfg.theta, cfg.phi, cfg.format) == (0.5, 0.25, "csv")

    def test_config_file_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 9, "tolerance": 1e-7}))
        cfg = parse_config(["run", "decoherence", "--config", str(path)])
        assert cfg.seed == 9 and cfg.tolerance == 1e-7

    def test_every_runconfig_field_is_a_config_key(self, tmp_path):
        values = {
            "experiment": "chain", "theta": 0.5, "phi": 0.25, "seed": 3,
            "chain_alice": 1, "chain_bob": 0, "tolerance": 1e-7, "format": "csv",
            "output": str(tmp_path / "report.csv"),
        }
        assert set(values) == {f.name for f in dataclasses.fields(RunConfig)}
        path = tmp_path / "cfg.txt"
        path.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
        assert parse_config(["run", "chain", "--config", str(path)]) == RunConfig(**values)

    def test_cli_overrides_config_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("theta=0.5\n")
        cfg = parse_config(["run", "bell", "--theta", "0.9", "--config", str(path)])
        assert cfg.theta == 0.9

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("volume=11\n")
        with pytest.raises(ConfigError):
            parse_config(["run", "bell", "--config", str(path)])

    def test_env_var_tolerance_fallback(self, monkeypatch):
        monkeypatch.setenv("DESCRIPTOR_SIM_TOLERANCE", "1e-5")
        assert parse_config(["run", "bell"]).tolerance == 1e-5
        assert (
            parse_config(["run", "bell", "--tolerance", "1e-7"]).tolerance == 1e-7
        )

    def test_bad_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv("DESCRIPTOR_SIM_TOLERANCE", "soft")
        with pytest.raises(ConfigError):
            parse_config(["run", "bell"])

    @pytest.mark.parametrize(
        "values,expected",
        [
            ({"seed": 1.7}, None),
            ({"seed": True}, None),
            ({"seed": math.inf}, None),
            ({"chain_alice": True}, None),
            ({"tolerance": True}, None),
            ({"theta": False}, None),
            ({"output": None}, None),
            ({"theta": 10**400}, None),
            ({"seed": 2.0}, {"seed": 2}),
            ({"theta": 1, "tolerance": 1}, {"theta": 1.0, "tolerance": 1.0}),
        ],
        ids=["seed-1.7", "seed-true", "seed-inf", "chain-true", "tolerance-true",
             "theta-false", "output-null", "theta-10**400", "seed-2.0", "int-for-float"],
    )
    def test_json_values_keep_their_kind(self, tmp_path, values, expected):
        # a JSON boolean is no number, a fractional number no int and null
        # no path; a JSON integer still serves a float field
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        argv = ["run", "chain", "--config", str(path)]
        if expected is None:
            with pytest.raises(ConfigError, match="bad value"):
                parse_config(argv)
        else:
            cfg = parse_config(argv)
            for key, want in expected.items():
                got = getattr(cfg, key)
                assert got == want and type(got) is type(want)

    def test_experiment_conflict_with_config_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("experiment=chsh\n")
        with pytest.raises(ConfigError):
            parse_config(["run", "bell", "--config", str(path)])


class TestExitCodes:
    def test_unknown_experiment_exits_two(self, capsys):
        code, _, _ = run_main(capsys, "run", "bogus")
        assert code == 2

    def test_malformed_number_exits_two(self, capsys):
        code, _, _ = run_main(capsys, "run", "bell", "--theta", "abc")
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value, expected",
        [
            ("--phi", "-1e-3", 0), ("--theta", "-2E-1", 0), ("--ph", "-1e-3", 0),
            ("--phi", "-inf", 2),
        ],
    )
    def test_negative_number_after_a_space_is_a_value(self, capsys, flag, value, expected):
        # argparse alone reads "-1e-3" as a flag and leaves "--phi" without a value
        spaced = run_main(capsys, "run", "bell", flag, value)
        assert spaced == run_main(capsys, "run", "bell", f"{flag}={value}")
        assert spaced[0] == expected

    def test_conflicting_flags_exit_two(self, capsys):
        code, _, err = run_main(capsys, "run", "bell", "--preset", "chsh-00", "--phi", "1")
        assert code == 2
        assert "conflict" in err

    def test_pass_exits_zero(self, capsys):
        code, out, _ = run_main(capsys, "run", "bell", "--format", "csv")
        assert code == 0

    def test_residual_violation_exits_one(self, capsys):
        code, out, _ = run_main(capsys, "run", "bell", "--tolerance", "1e-20")
        assert code == 1
        assert "FAIL" in out

    def test_over_budget_chain_exits_two_before_evolving(self, monkeypatch, capsys):
        # chain 3/3 would need 5.5 GiB of initial descriptors; the layout
        # refuses it, so no evolution starts and nothing of that size is made
        def no_evolution(network):
            raise AssertionError("an over-budget network reached evolution")

        monkeypatch.setattr(bell, "NetworkEvolution", no_evolution)
        code, out, err = run_main(
            capsys, "run", "chain", "--chain-alice", "3", "--chain-bob", "3"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: initial descriptors need 5.5 GiB")


class TestReports:
    def test_bell_csv_has_four_rows(self, capsys):
        code, out, _ = run_main(
            capsys, "run", "bell", "--theta", "0", "--phi", "0.7853981634",
            "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "branch,measure,expected,residual"
        assert len(lines) == 5
        branches = [line.split(",")[0] for line in lines[1:]]
        assert branches == ["00", "01", "10", "11"]
        measure = float(lines[1].split(",")[1])
        assert measure == pytest.approx(math.cos(math.pi / 8) ** 2 / 2, abs=1e-9)

    def test_chsh_json_contains_rates(self, capsys):
        code, out, _ = run_main(capsys, "run", "chsh", "--format", "json")
        assert code == 0
        assert '"win_rate": 0.8535533906' in out
        assert '"classical_bound": 0.75' in out
        doc = json.loads(out)
        assert doc["pass"] is True

    def test_json_report_is_deterministic(self, capsys):
        args = ("run", "decoherence", "--seed", "5", "--format", "json")
        _, first, _ = run_main(capsys, *args)
        _, second, _ = run_main(capsys, *args)
        assert first == second

    def test_csv_report_is_deterministic(self, capsys):
        args = ("run", "bell", "--theta", "0.31", "--phi", "-0.7", "--format", "csv")
        _, first, _ = run_main(capsys, *args)
        _, second, _ = run_main(capsys, *args)
        assert first == second

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out, _ = run_main(
            capsys, "run", "bell", "--format", "csv", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("branch,measure,expected,residual")

    def test_wigner_table(self, capsys):
        code, out, _ = run_main(capsys, "run", "wigner", "--theta", "0")
        assert code == 0
        assert "p_bob1_given_alice0 = 1" in out
        assert "PASS" in out

    def test_nonisomorphism_passes(self, capsys):
        code, out, _ = run_main(capsys, "run", "nonisomorphism", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        section = doc["experiments"][0]
        assert section["checks"]["descriptors_differ"] is True

    def test_run_all_aggregates(self, capsys):
        code, out, _ = run_main(
            capsys, "run", "all", "--seed", "7",
            "--chain-alice", "0", "--chain-bob", "0", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        names = [s["experiment"] for s in doc["experiments"]]
        assert names == ["bell", "chsh", "decoherence", "chain", "wigner", "nonisomorphism"]
        assert doc["pass"] is True

    def test_all_csv_gains_experiment_column(self, capsys):
        code, out, _ = run_main(
            capsys, "run", "all", "--chain-alice", "0", "--chain-bob", "0",
            "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "experiment,branch,measure,expected,residual"
        assert lines[1].startswith("bell,")


class TestShellLevel:
    @pytest.mark.parametrize(
        "args,expected",
        [
            (["run", "nonisomorphism", "--format", "csv"], 0),
            (["run", "bell", "--tolerance", "1e-20"], 1),
            (["run", "bell", "--theta", "abc"], 2),
            # theta - phi overflows to inf; each angle is finite
            (["run", "all", "--theta", "1e308", "--phi=-1e308",
              "--chain-alice", "1", "--chain-bob", "1"], 0),
        ],
    )
    def test_exit_codes_from_a_real_process(self, args, expected):
        proc = run_process(args)
        assert proc.returncode == expected

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "bell", "--tolerance", "nan"],
            ["run", "chain", "--chain-alice", "8", "--chain-bob", "8"],
            ["run", "decoherence", "--seed", "-1"],
            ["run", "bell", "--theta", "inf"],
            ["run", "bell", "--output", "/nonexistent/dir/x"],
            ["run", "bell", "--output", ""],
            ["run", "bell", "--config", NOT_UTF8],
            ["run", "chain", "--chain-alice", "600"],
        ],
    )
    def test_bad_inputs_exit_2_without_traceback(self, args, tmp_path):
        config = tmp_path / "latin1.txt"
        config.write_bytes("theta=0.5\n# café\n".encode("latin-1"))
        args = [str(config) if arg == NOT_UTF8 else arg for arg in args]
        proc = run_process(args, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("experiment", ["bell", "decoherence"])
    def test_huge_tolerance_bounds_residuals_only(self, experiment):
        # the reporting tolerance never reaches the sharpness test
        proc = run_process(["run", experiment, "--tolerance", "1e300"], text=True)
        assert proc.returncode == 0
        assert "alice_unsharp = True" in proc.stdout
        assert "result: PASS" in proc.stdout

    def test_huge_tolerance_keeps_wigner_conditionals(self):
        proc = run_process(["run", "wigner", "--tolerance", "1e300"], text=True)
        assert proc.returncode == 0
        shown = re.findall(r"p_bob\d_given_alice\d = (\S+)", proc.stdout)
        assert len(shown) == 4
        assert sorted(float(value) for value in shown) == pytest.approx([0, 0, 1, 1], abs=1e-9)


class TestExecuteAndReport:
    def test_returns_code_and_text(self):
        code, text = execute_and_report(RunConfig(experiment="bell", format="csv"))
        assert code == 0
        assert text.startswith("branch,measure,expected,residual")

    def test_bad_runconfig_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(experiment="bell", format="yaml")
        with pytest.raises(ConfigError):
            RunConfig(experiment="nope")
        with pytest.raises(ConfigError):
            RunConfig(experiment="bell", tolerance=-1)
        for bad in (
            {"tolerance": math.nan},
            {"tolerance": math.inf},
            {"theta": math.inf},
            {"phi": math.nan},
            {"seed": -1},
            {"seed": 1.5},
            {"chain_alice": 1.5},
            # a value of the wrong kind, neither a traceback nor coerced
            {"theta": "0.3"},
            {"tolerance": "1e-9"},
            {"phi": None},
            {"theta": True},
            {"chain_alice": True},
            {"seed": True},
        ):
            with pytest.raises(ConfigError):
                RunConfig(experiment="bell", **bad)

    def test_chsh_runs_each_input_pair_once(self, monkeypatch):
        calls = []

        def counting_run_bell(cfg):
            calls.append(cfg)
            return run_bell(cfg)

        for module in (bell, chsh, cli):
            monkeypatch.setattr(module, "run_bell", counting_run_bell)
        code, _ = execute_and_report(RunConfig("chsh"))
        assert code == 0
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "cfg, networks",
        [
            (RunConfig("bell"), 1),
            (RunConfig("decoherence"), 1),
            (RunConfig("chain", chain_alice=1, chain_bob=1), 1),
            (RunConfig("wigner"), 1),
            (RunConfig("chsh"), 4),  # one per input pair
        ],
        ids=["bell", "decoherence", "chain", "wigner", "chsh"],
    )
    def test_bell_like_section_builds_its_network_once(self, monkeypatch, cfg, networks):
        # the oracle column reads the network run_bell built
        built = []
        build = bell.build_bell_network

        def counting_build(bell_cfg):
            built.append(bell_cfg)
            return build(bell_cfg)

        for module in (bell, cli):
            if hasattr(module, "build_bell_network"):
                monkeypatch.setattr(module, "build_bell_network", counting_build)
        code, _ = execute_and_report(cfg)
        assert code == 0
        assert len(built) == networks

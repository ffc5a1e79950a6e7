import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptorsim import bell, chsh, cli
from descriptorsim.cli import (
    ENV_TOLERANCE,
    EXPERIMENTS,
    FORMATS,
    PRESETS,
    ConfigError,
    RunConfig,
    execute_and_report,
    main,
    parse_config,
)
from descriptorsim.operators import Operator
from conftest import child_env


# each stands for the path of a config file with these bytes: not valid
# UTF-8, JSON nested past the recursion limit, and an int past the
# interpreter's int-to-string digit limit
CONFIG_FILES = {
    "<latin-1 config>": "theta=0.5\n# café\n".encode("latin-1"),
    "<deep JSON config>": ('{"theta": ' + "[" * 100_000 + "]" * 100_000 + "}").encode(),
    "<long-int JSON config>": ('{"seed": ' + "1" * 5000 + "}").encode(),
}


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
        # every value of a key=value line is text, parsed as its field's kind
        path.write_text("theta=0.5\nphi=0.25\nseed=7\nformat=csv\n# comment\n")
        cfg = parse_config(["run", "bell", "--config", str(path)])
        assert (cfg.theta, cfg.phi, cfg.seed, cfg.format) == (0.5, 0.25, 7, "csv")

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

    def test_env_var_tolerance_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DESCRIPTOR_SIM_TOLERANCE", "1e-5")
        assert parse_config(["run", "bell"]).tolerance == 1e-5
        assert (
            parse_config(["run", "bell", "--tolerance", "1e-7"]).tolerance == 1e-7
        )
        # a config file's tolerance beats the variable too
        path = tmp_path / "cfg.txt"
        path.write_text("tolerance=1e-3\n")
        assert parse_config(["run", "bell", "--config", str(path)]).tolerance == 1e-3

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
            ({"seed": "7"}, None),
            ({"theta": "0.3"}, None),
            ({"tolerance": "1e-9"}, None),
            ({"chain_alice": "1"}, None),
            ({"seed": 2.0}, {"seed": 2}),
            ({"theta": 1, "tolerance": 1}, {"theta": 1.0, "tolerance": 1.0}),
        ],
        ids=["seed-1.7", "seed-true", "seed-inf", "chain-true", "tolerance-true",
             "theta-false", "output-null", "theta-10**400", "seed-string", "theta-string",
             "tolerance-string", "chain-string", "seed-2.0", "int-for-float"],
    )
    def test_json_values_keep_their_kind(self, tmp_path, values, expected):
        # a JSON boolean is no number, a fractional number no int, null no
        # path and a string no number; a JSON integer still serves a float field
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
            # int flags take no float notation, and no tolerance is negative
            ("--seed", "-1e0", 2), ("--chain-alice", "-1e0", 2), ("--chain-bob", "-2e0", 2),
            ("--tolerance", "-1e-9", 2),
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
            # theta/2 - phi/2 rounds phi away; the closed form keeps it
            (["run", "bell", "--theta=1e308"], 0),
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
            ["run", "bell", "--config", "<latin-1 config>"],
            ["run", "chain", "--chain-alice", "600"],
            ["run", "decoherence", "--config", "<deep JSON config>"],
            pytest.param(
                ["run", "decoherence", "--config", "<long-int JSON config>"],
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no int-to-string digit limit",
                ),
            ),
        ],
    )
    def test_bad_inputs_exit_2_without_traceback(self, args, tmp_path):
        config = tmp_path / "config"
        if args[-1] in CONFIG_FILES:
            config.write_bytes(CONFIG_FILES[args[-1]])
            args = [*args[:-1], str(config)]
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


class TestSectionConditions:
    """At tolerance 1e300 every residual passes, so only a section's own
    conditions can fail it: Alice unsharp, the classical best at 3 of 4,
    and the witness's states matching."""

    MUTANTS = {
        "bell": ("run_bell", lambda out: dataclasses.replace(
            out, alice_sharpness=dict.fromkeys(out.alice_sharpness, True))),
        "chsh": ("enumerate_classical", lambda result: (4, result[1])),
        "nonisomorphism": ("nonisomorphism_witness",
                           lambda report: dataclasses.replace(report, states_match=False)),
    }

    @pytest.mark.parametrize("experiment", sorted(MUTANTS))
    def test_holding_conditions_pass(self, experiment):
        code, text = execute_and_report(RunConfig(experiment, tolerance=1e300))
        assert code == 0
        assert "result: PASS" in text

    @pytest.mark.parametrize("experiment", sorted(MUTANTS))
    def test_failed_condition_fails_the_section(self, monkeypatch, experiment):
        name, mutate = self.MUTANTS[experiment]
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: mutate(original(*args)))
        code, text = execute_and_report(RunConfig(experiment, tolerance=1e300))
        assert code == 1
        assert "result: FAIL" in text


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
            # an int too large for a float
            {"theta": 10**400},
            {"tolerance": 10**400},
        ):
            with pytest.raises(ConfigError):
                RunConfig(experiment="bell", **bad)

    def test_chsh_runs_each_input_pair_once(self, monkeypatch):
        # one sweep of the four input pairs, which evolves one network
        sweeps, evolutions = [], []
        run_bells, evolution = bell.run_bells, bell.NetworkEvolution

        def counting_run_bells(cfgs):
            sweeps.append([(cfg.theta, cfg.phi) for cfg in cfgs])
            return run_bells(cfgs)

        def counting_evolution(network):
            evolutions.append(network)
            return evolution(network)

        for module in (bell, chsh, cli):
            if hasattr(module, "run_bells"):
                monkeypatch.setattr(module, "run_bells", counting_run_bells)
        monkeypatch.setattr(bell, "NetworkEvolution", counting_evolution)
        code, _ = execute_and_report(RunConfig("chsh"))
        assert code == 0
        assert sweeps == [[(chsh.ALICE_ANGLES[x], chsh.BOB_ANGLES[y]) for x, y in chsh.INPUT_PAIRS]]
        assert len(evolutions) == 1

    @pytest.mark.parametrize(
        "cfg, networks",
        [
            (RunConfig("bell"), 1),
            (RunConfig("decoherence"), 1),
            (RunConfig("chain", chain_alice=1, chain_bob=1), 1),
            (RunConfig("wigner"), 1),
            (RunConfig("chsh"), 4),  # one per input pair; the sweep is made from them
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

    def test_counted_work_does_not_depend_on_cache_warmth(self, monkeypatch):
        # the benchmark's traced counts repeat exactly only if no counted
        # product or check is done once per cache fill: run cold, every
        # cache of the package emptied, then warm, and count the same
        counted = ("__matmul__", "is_hermitian", "is_unitary", "is_involution",
                   "is_projector", "commutes_with")
        calls = Counter()
        for name in counted:
            def counting(self, *args, _name=name, _method=getattr(Operator, name), **kwargs):
                calls[_name] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(Operator, name, counting)
        for module in [m for n, m in sys.modules.items() if n.startswith("descriptorsim")]:
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
        configs = [RunConfig("bell", theta=0.3), RunConfig("chsh"),
                   RunConfig("chain", chain_alice=1, chain_bob=1),
                   RunConfig("decoherence", seed=5)]
        runs = []
        for _ in ("cold", "warm"):
            calls.clear()
            reports = [execute_and_report(cfg) for cfg in configs]
            runs.append((dict(calls), reports))
        assert runs[0] == runs[1]
        assert set(counted) - {"is_projector"} <= set(runs[0][0])


# the exit-code contract on generated command lines: every flag whole or
# abbreviated, in the "=" or the space form, odd numeric tokens, config
# files of both kinds, the tolerance's environment variable, and chains of
# at most 1/1; "<output>" and "<config>" stand for paths in a fresh directory
ODD_NUMBERS = ["nan", "inf", "-inf", "1e309", "-0", "0x10", "1" * 5000]
ANGLES = ["0", "0.3", "-1e-3", "1e308", "-1e308"]
FLAG_VALUES = {
    "--theta": ANGLES,
    "--phi": ANGLES,
    "--seed": ["0", "3", "-1", "1.5"],
    "--chain-alice": ["0", "1"],
    "--chain-bob": ["0", "1"],
    "--tolerance": ["1e-20", "1e-9", "1e300", "0"],
    "--format": [*FORMATS, "xml"],
    "--output": ["", "<output>"],
    "--preset": [*PRESETS, "chsh-22"],
    "--config": ["<config>"],
}
NUMERIC = {"--theta", "--phi", "--seed", "--chain-alice", "--chain-bob", "--tolerance"}
CONFIG_VALUES = {
    "experiment": [*EXPERIMENTS, "bogus"],
    "volume": ["11"],
    **{
        flag[2:].replace("-", "_"): values + ODD_NUMBERS * (flag in NUMERIC)
        for flag, values in FLAG_VALUES.items() if flag != "--config"
    },
}


def unique_prefix(flag: str) -> str:
    """The shortest abbreviation of ``flag`` that names no other flag."""
    return next(
        flag[:k] for k in range(3, len(flag) + 1)
        if not any(f != flag and f.startswith(flag[:k]) for f in FLAG_VALUES)
    )


@st.composite
def config_files(draw):
    """A config file's text, or a key of ``CONFIG_FILES`` naming its bytes."""
    kind = draw(st.sampled_from(["key=value", "JSON", *CONFIG_FILES]))
    if kind in CONFIG_FILES:
        return kind
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), unique=True, max_size=4))
    pairs = [(key, draw(st.sampled_from(CONFIG_VALUES[key]))) for key in keys]
    if kind == "key=value":
        return "".join(f"{key}={value}\n" for key, value in pairs)
    # a value as a bare JSON token (not always valid JSON) or as a string
    tokens = [draw(st.sampled_from([value, json.dumps(value)])) for _, value in pairs]
    return "{" + ", ".join(f'"{key}": {t}' for (key, _), t in zip(pairs, tokens)) + "}"


@st.composite
def command_lines(draw):
    """(argv, config file text or None, the tolerance variable or None)."""
    experiment = draw(st.sampled_from([*EXPERIMENTS, "bogus"]))
    # --output and --config, each on every other command line
    others = sorted(FLAG_VALUES.keys() - {"--output", "--config"})
    flags = draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
    if experiment in ("chain", "all"):  # the default chain is 2/2
        flags += [f for f in ("--chain-alice", "--chain-bob") if f not in flags]
    config = draw(st.none() | config_files())
    for flag, present in (("--output", draw(st.booleans())), ("--config", config is not None)):
        if present:
            flags.insert(draw(st.integers(0, len(flags))), flag)
    argv = ["run", experiment]
    for flag in flags:
        # whole, abbreviated, or now and then cut to three characters, which
        # leaves some ambiguous; the fair coins keep most command lines valid
        spelled = flag
        if draw(st.booleans()):
            cut = draw(st.booleans()) and draw(st.booleans())
            spelled = flag[:3] if cut else unique_prefix(flag)
        odd = flag in NUMERIC and all(draw(st.booleans()) for _ in range(3))
        value = draw(st.sampled_from(ODD_NUMBERS if odd else FLAG_VALUES[flag]))
        argv += [f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value]
    env = draw(st.none() | st.sampled_from(["1e-5", "1e-20", "soft", "nan", "", "1" * 5000]))
    return argv, config, env


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(command_lines())
def test_exit_code_contract_on_generated_inputs(case):
    argv, config, env = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        output, config_path = Path(tmp, "report"), Path(tmp, "config")
        if config in CONFIG_FILES:
            config_path.write_bytes(CONFIG_FILES[config])
        elif config is not None:
            config_path.write_text(config.replace("<output>", str(output)))
        argv = [a.replace("<output>", str(output)).replace("<config>", str(config_path))
                for a in argv]
        os.environ.pop(ENV_TOLERANCE, None)
        if env is not None:
            os.environ[ENV_TOLERANCE] = env
        runs = []
        for _ in range(2):
            code, out, err = run_captured(argv)
            runs.append((code, out, err, output.read_bytes() if output.exists() else None))
            output.unlink(missing_ok=True)
        assert runs[0] == runs[1], argv
        code, out, err, written = runs[0]
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "", argv
            lines = err.splitlines()
            usage = err.startswith("usage: ") and ": error: " in lines[-1]
            assert usage or (len(lines) == 1 and err.startswith("error: ")), (argv, err)
            return
        cfg = parse_config(argv)
    assert err == "", argv
    if cfg.output is not None:
        assert out == "", argv
        text = written.decode()
    else:
        assert written is None, argv
        text = out
    if cfg.format == "json":
        assert json.loads(text)["pass"] is (code == 0)
    elif cfg.format == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][-4:] == ["branch", "measure", "expected", "residual"]
        for row in rows[1:]:
            assert len(row) == len(rows[0])
            list(map(float, row[-3:]))
    else:
        verdict = "PASS" if code == 0 else "FAIL"
        assert text.splitlines()[-1].startswith(f"overall: {verdict} (tolerance ")

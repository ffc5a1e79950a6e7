"""Command-line experiment runner.

``descriptorsim run <experiment>`` executes one of the library's
experiments (or all of them), compares every reported measure against its
closed form and against the independent state-vector oracle, and emits a
table, CSV, or JSON report.  Exit code 0 means every residual stayed
below the tolerance, 1 flags a residual violation, and 2 a configuration
error or a layout over the byte budget.  Identical
configurations produce byte-identical reports.

``--tolerance`` is a reporting tolerance: it bounds the reported
residuals and nothing else.  The library's algebraic validation and
sharpness tests use the fixed ``operators.DEFAULT_TOLERANCE`` (1e-9).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import get_args, get_type_hints

from .bell import (
    BellConfig,
    BellOutcome,
    Chained,
    Decohered,
    Plain,
    closed_form_measures,
    nonisomorphism_witness,
    record_measures,
    run_bell,
    run_wigner_undo,
)
from .chsh import (
    ALICE_ANGLES,
    BOB_ANGLES,
    CLASSICAL_BOUND,
    INPUT_PAIRS,
    enumerate_classical,
    quantum_distribution,
    win_rate,
)
from .operators import DEFAULT_TOLERANCE, LayoutError, as_real

FORMATS = ("table", "csv", "json")
PRESETS = {f"chsh-{x}{y}": (x, y) for x, y in INPUT_PAIRS}
ENV_TOLERANCE = "DESCRIPTOR_SIM_TOLERANCE"


class ConfigError(ValueError):
    """Bad flag combination, malformed value, or unknown config key."""


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    theta: float = 0.0
    phi: float = math.pi / 4
    seed: int = 0
    chain_alice: int = 2
    chain_bob: int = 2
    tolerance: float = DEFAULT_TOLERANCE
    format: str = "table"
    output: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}")
        # the library types check their own parameters, chain lengths first
        try:
            chained = Chained(self.chain_alice, self.chain_bob)
            tolerance = as_real(self.tolerance, "tolerance", ValueError)
            if not (math.isfinite(tolerance) and tolerance > 0):
                raise ValueError("tolerance must be finite and positive")
            BellConfig(self.theta, self.phi, chained)
            Decohered(self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


# a config-file key is a RunConfig field, parsed as the field's type (an
# optional field as the type it holds when set), or the extra key preset
_CONFIG_KEYS = {key: (get_args(kind) or (kind,))[0]
                for key, kind in get_type_hints(RunConfig).items()} | {"preset": str}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    raw: dict = {}
    if is_json := text.lstrip().startswith("{"):
        import json  # here and in _render_json only: a table or CSV run never needs it
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also over-deep nesting, over-long ints
            raise ConfigError(f"malformed JSON config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("JSON config must be an object")
    else:
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno} is not key=value: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    out = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        kind = _CONFIG_KEYS[key]
        # JSON values keep their kind: true is no number, 1.7 no int, null no path, "7" no number
        if (
            isinstance(value, bool)
            or is_json and (kind is str) != isinstance(value, str)
            or kind is int and isinstance(value, float) and not value.is_integer()
        ):
            raise ConfigError(f"bad value for {key!r}: {value!r}")
        try:
            out[key] = kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descriptorsim",
        description="Run descriptor-evolution experiments and report branch measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment and emit a report")
    run.add_argument("experiment", choices=EXPERIMENTS)
    run.add_argument("--theta", type=float, default=None, help="Alice's rotation (radians; default 0)")
    run.add_argument("--phi", type=float, default=None, help="Bob's rotation (radians; default pi/4)")
    run.add_argument("--seed", type=int, default=None, help="environment scramble seed (default 0)")
    run.add_argument("--chain-alice", type=int, default=None, dest="chain_alice",
                     help="Alice-side chain length (default 2)")
    run.add_argument("--chain-bob", type=int, default=None, dest="chain_bob",
                     help="Bob-side chain length (default 2)")
    run.add_argument("--tolerance", type=float, default=None,
                     help=f"reporting tolerance for residuals (default {DEFAULT_TOLERANCE}; "
                          f"env {ENV_TOLERANCE}); algebraic validation and sharpness "
                          f"use the fixed {DEFAULT_TOLERANCE}")
    run.add_argument("--format", choices=FORMATS, default=None, help="report format (default table)")
    run.add_argument("--output", default=None, help="write the report to this path instead of stdout")
    run.add_argument("--preset", choices=sorted(PRESETS), default=None,
                     help="CHSH input pair; sets theta and phi")
    run.add_argument("--config", default=None, help="key=value or JSON config file")
    return parser


# argparse reads "-1e-3" as a flag (only -1 and -.5 pass as numbers), so a
# number that follows a numeric flag, one per int or float config key, is
# attached to it, as in "--phi=-1e-3"
_NUMERIC_FLAGS = tuple("--" + key.replace("_", "-")
                       for key, kind in _CONFIG_KEYS.items() if kind in (int, float))


def _takes_number(flag: str, token: str) -> bool:
    """Whether ``token`` is a number after a numeric flag, whole or abbreviated."""
    # "-" and "--" abbreviate no flag
    if len(flag) < 3 or not any(f.startswith(flag) for f in _NUMERIC_FLAGS):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve CLI flags, config file, environment, and defaults, in that
    precedence order; deterministic for identical inputs."""
    args: list[str] = []
    for token in argv:
        if args and _takes_number(args[-1], token):
            args[-1] += "=" + token
        else:
            args.append(token)
    ns = _build_parser().parse_args(args)
    values = _load_config_file(ns.config) if ns.config else {}
    if values.get("experiment", ns.experiment) != ns.experiment:
        raise ConfigError(
            f"config file experiment {values['experiment']!r} conflicts "
            f"with command line {ns.experiment!r}"
        )
    values.update((k, v) for k, v in vars(ns).items() if k in _CONFIG_KEYS and v is not None)

    if (preset := values.pop("preset", None)) is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        if "theta" in values or "phi" in values:
            raise ConfigError("--preset conflicts with explicit --theta/--phi")
        x, y = PRESETS[preset]
        values.update(theta=ALICE_ANGLES[x], phi=BOB_ANGLES[y])

    if "tolerance" not in values and ENV_TOLERANCE in os.environ:
        try:
            values["tolerance"] = float(os.environ[ENV_TOLERANCE])
        except ValueError as exc:
            raise ConfigError(f"bad {ENV_TOLERANCE}: {os.environ[ENV_TOLERANCE]!r}") from exc
    return RunConfig(**values)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _row(branch: str, measure: float, expected: float) -> dict:
    return {"branch": branch, "measure": measure, "expected": expected,
            "residual": abs(measure - expected)}


def _rows(outcome: BellOutcome, expected: dict[str, float], prefix: str = "") -> list[dict]:
    """One row per record branch: measure, closed form, and the oracle's
    probability for the network the measures came from."""
    oracle = record_measures(outcome.network)
    return [
        {**_row(prefix + key, measure, expected[key]), "oracle": oracle[key],
         "oracle_residual": abs(measure - oracle[key])}
        for key, measure in outcome.branch_measures.items()
    ]


def _section_variant(name: str, cfg: RunConfig) -> tuple:
    """The bell, decoherence and chain sections: one Bell variant each,
    all held to the plain network's closed forms."""
    variant, extra = Plain(), {}
    if name == "decoherence":
        variant, extra = Decohered(cfg.seed), {"seed": cfg.seed}
    elif name == "chain":
        variant = Chained(cfg.chain_alice, cfg.chain_bob)
        extra = {"chain_alice": cfg.chain_alice, "chain_bob": cfg.chain_bob}
    outcome = run_bell(BellConfig(cfg.theta, cfg.phi, variant))
    expected = closed_form_measures(cfg.theta, cfg.phi)
    rows = _rows(outcome, expected)
    checks = {
        "measure_sum_residual": abs(sum(outcome.branch_measures.values()) - 1.0),
        "alice_marginal_residual": max(abs(m - 0.5) for m in outcome.alice_marginal),
        "bob_marginal_residual": max(abs(m - 0.5) for m in outcome.bob_marginal),
        "reconstruction_residual": outcome.reconstruction_residual,
        "alice_unsharp": not any(outcome.alice_sharpness.values()),
        **outcome.diagnostics,
    }
    # every check but alice_unsharp is a residual held to the tolerance
    conditions = [v if k == "alice_unsharp" else v < cfg.tolerance for k, v in checks.items()]
    return {"theta": cfg.theta, "phi": cfg.phi, **extra}, rows, checks, conditions


def _section_wigner(name: str, cfg: RunConfig) -> tuple:
    report = run_wigner_undo(cfg.theta, cfg.phi)
    outcome = report.outcome
    expected = closed_form_measures(cfg.theta, report.effective_bob_angle)
    rows = _rows(outcome, expected)
    checks = {
        "effective_bob_angle": report.effective_bob_angle,
        "reconstruction_residual": outcome.reconstruction_residual,
    }
    for (b, a), value in sorted(report.conditional_bob_given_alice.items()):
        checks[f"p_bob{b}_given_alice{a}"] = "undefined" if value is None else value
    conditions = [outcome.reconstruction_residual < cfg.tolerance]
    return {"theta": cfg.theta, "phi": cfg.phi}, rows, checks, conditions


def _section_chsh(name: str, cfg: RunConfig) -> tuple:
    outcomes = dict(zip(INPUT_PAIRS, quantum_distribution(*zip(*INPUT_PAIRS))))  # one sweep
    rate = win_rate({pair: o.branch_measures for pair, o in outcomes.items()})
    expected_rate = math.cos(math.pi / 8) ** 2
    best, _ = enumerate_classical()
    bound = float(CLASSICAL_BOUND)
    rows = [_row("win_rate", rate, expected_rate), _row("classical_bound", best / 4, bound)]
    for (x, y), outcome in outcomes.items():
        expected = closed_form_measures(ALICE_ANGLES[x], BOB_ANGLES[y])
        rows += _rows(outcome, expected, f"x{x}y{y}:")
    params = {"alice_angles": list(ALICE_ANGLES), "bob_angles": list(BOB_ANGLES)}
    checks = {"classical_best_wins": best, "win_rate": rate, "classical_bound": bound}
    return params, rows, checks, [best == 3]


def _section_nonisomorphism(name: str, cfg: RunConfig) -> tuple:
    report = nonisomorphism_witness()
    exact_gap = 2 * math.sqrt(2)  # the controlled-not turns q1x into a two-qubit product
    rows = [
        _row("state_distance", report.state_distance, 0.0),
        _row("descriptor_distance", report.descriptor_distance, exact_gap),
        _row("marginal_expectation_gap", report.marginal_expectation_gap, 0.0),
    ]
    checks = {"states_match": report.states_match, "descriptors_differ": report.descriptors_differ}
    return {}, rows, checks, list(checks.values())


_SECTIONS = {
    "bell": _section_variant,
    "chsh": _section_chsh,
    "decoherence": _section_variant,
    "chain": _section_variant,
    "wigner": _section_wigner,
    "nonisomorphism": _section_nonisomorphism,
}
EXPERIMENTS = (*_SECTIONS, "all")


def _section(name: str, cfg: RunConfig) -> dict:
    """Run experiment ``name``, whose builder returns its parameters, rows,
    checks and further conditions.  It passes when every row's residual
    and oracle residual is below the tolerance and every condition holds."""
    parameters, rows, checks, conditions = _SECTIONS[name](name, cfg)
    ok = all(
        r["residual"] < cfg.tolerance and r.get("oracle_residual", 0.0) < cfg.tolerance
        for r in rows
    ) and all(conditions)
    return {"experiment": name, "parameters": parameters, "rows": rows, "checks": checks,
            "pass": ok}


def _render_json(sections: list[dict], cfg: RunConfig) -> str:
    def clean(value):
        if isinstance(value, float):
            return float(_fmt(value))
        if isinstance(value, dict):
            return {k: clean(v) for k, v in value.items()}
        if isinstance(value, list):
            return [clean(v) for v in value]
        return value

    import json
    doc = {
        "tolerance": float(_fmt(cfg.tolerance)),
        "experiments": clean(sections),
        "pass": all(s["pass"] for s in sections),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render_csv(sections: list[dict], cfg: RunConfig) -> str:
    multi = len(sections) > 1
    header = ("experiment," if multi else "") + "branch,measure,expected,residual"
    lines = [header]
    for section in sections:
        prefix = f"{section['experiment']}," if multi else ""
        for row in section["rows"]:
            lines.append(
                prefix
                + ",".join(
                    (row["branch"], _fmt(row["measure"]), _fmt(row["expected"]),
                     _fmt(row["residual"]))
                )
            )
    return "\n".join(lines) + "\n"


def _render_table(sections: list[dict], cfg: RunConfig) -> str:
    lines = []
    for section in sections:
        params = "  ".join(f"{k}={v}" for k, v in section["parameters"].items())
        lines.append(f"== {section['experiment']} {params}".rstrip())
        lines.append(
            f"{'branch':<26}{'measure':>18}{'expected':>18}{'residual':>18}"
            f"{'oracle':>18}"
        )
        for row in section["rows"]:
            oracle = _fmt(row["oracle"]) if "oracle" in row else "-"
            lines.append(
                f"{row['branch']:<26}{_fmt(row['measure']):>18}"
                f"{_fmt(row['expected']):>18}{_fmt(row['residual']):>18}"
                f"{oracle:>18}"
            )
        for name, value in section["checks"].items():
            shown = _fmt(value) if isinstance(value, float) else value
            lines.append(f"  {name} = {shown}")
        lines.append(f"  result: {'PASS' if section['pass'] else 'FAIL'}")
        lines.append("")
    overall = all(s["pass"] for s in sections)
    lines.append(f"overall: {'PASS' if overall else 'FAIL'} (tolerance {_fmt(cfg.tolerance)})")
    return "\n".join(lines) + "\n"


def execute_and_report(cfg: RunConfig) -> tuple[int, str]:
    """Run the configured experiment(s); returns (exit code, report text)."""
    names = list(_SECTIONS) if cfg.experiment == "all" else [cfg.experiment]
    sections = [_section(name, cfg) for name in names]
    render = {"json": _render_json, "csv": _render_csv, "table": _render_table}[cfg.format]
    text = render(sections, cfg)
    code = 0 if all(s["pass"] for s in sections) else 1
    return code, text


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
        code, text = execute_and_report(cfg)
    except (ConfigError, LayoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse reports and exits 2 on bad flags
        return int(exc.code or 0)
    if cfg.output is not None:
        try:
            with open(cfg.output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

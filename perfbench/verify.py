"""Independent check of every report the benchmark collects.

Expected measures are recomputed here with ``math`` alone, never with the
library, and compared with the measures parsed back out of the report text
in whichever format it was rendered.
"""

from __future__ import annotations

import json
import math

BRANCHES = ("00", "01", "10", "11")
# the CHSH angle table of the optimal quantum strategy
CHSH_ALICE = (0.0, math.pi / 2)
CHSH_BOB = (math.pi / 4, -math.pi / 4)


def bell_measures(theta: float, phi: float) -> dict[str, float]:
    """Record branch measures cos^2 / sin^2 of (theta - phi)/2, halved."""
    half = (theta - phi) / 2
    same, differ = math.cos(half) ** 2 / 2, math.sin(half) ** 2 / 2
    return {"00": same, "01": differ, "10": differ, "11": same}


def expected_rows(spec: dict) -> dict[str, float]:
    """Branch label -> expected measure for one experiment spec."""
    kind = spec["experiment"]
    if kind in ("bell", "chain", "decoherence"):
        return bell_measures(spec["theta"], spec["phi"])
    if kind == "wigner":
        # Bob's particle turns by phi, is un-measured, then turns by pi - phi:
        # his effective angle is pi whatever phi was
        return bell_measures(spec["theta"], math.pi)
    if kind == "chsh":
        rows = {"win_rate": math.cos(math.pi / 8) ** 2, "classical_bound": 0.75}
        for x, alice in enumerate(CHSH_ALICE):
            for y, bob in enumerate(CHSH_BOB):
                for key, value in bell_measures(alice, bob).items():
                    rows[f"x{x}y{y}:{key}"] = value
        return rows
    if kind == "nonisomorphism":
        return {
            "state_distance": 0.0,
            "descriptor_distance": 2 * math.sqrt(2),
            "marginal_expectation_gap": 0.0,
        }
    raise ValueError(f"no expected measures for experiment {kind!r}")


class ReportError(ValueError):
    """A report that cannot be parsed or disagrees with the expectation."""


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ReportError(f"not a number: {text!r}") from exc


def parse_report(fmt: str, text: str) -> tuple[dict[str, tuple[float, float]], bool | None]:
    """Rows as branch -> (measure, expected), and the report's own overall
    verdict (None for CSV, which carries none)."""
    rows: dict[str, tuple[float, float]] = {}
    if fmt == "json":
        try:
            doc = json.loads(text)
            (section,) = doc["experiments"]
            for row in section["rows"]:
                rows[row["branch"]] = (float(row["measure"]), float(row["expected"]))
            return rows, doc["pass"] is True
        except (ValueError, KeyError, TypeError) as exc:
            raise ReportError(f"malformed JSON report: {exc}") from exc
    lines = text.splitlines()
    if fmt == "csv":
        if not lines or lines[0] != "branch,measure,expected,residual":
            raise ReportError("CSV header missing")
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != 4:
                raise ReportError(f"CSV row has {len(fields)} fields: {line!r}")
            rows[fields[0]] = (_float(fields[1]), _float(fields[2]))
        return rows, None
    if fmt == "table":
        if len(lines) < 3 or not lines[0].startswith("== ") or not lines[1].startswith("branch"):
            raise ReportError("table header missing")
        for line in lines[2:]:
            if line.startswith("  ") or not line:
                break
            fields = line.split()
            if len(fields) != 5:
                raise ReportError(f"table row has {len(fields)} fields: {line!r}")
            rows[fields[0]] = (_float(fields[1]), _float(fields[2]))
        return rows, lines[-1].startswith("overall: PASS")
    raise ReportError(f"unknown format {fmt!r}")


def check(spec: dict, code: int, text: str, tolerance: float) -> None:
    """Raise ReportError unless the run exited 0 and every reported measure,
    and the expectation printed beside it, is within ``tolerance`` of the
    independently computed value."""
    if code != 0:
        raise ReportError(f"exit code {code}")
    rows, verdict = parse_report(spec["format"], text)
    if verdict is False:
        raise ReportError("report says FAIL")
    expected = expected_rows(spec)
    if set(rows) != set(expected):
        raise ReportError(f"branches {sorted(rows)} != {sorted(expected)}")
    for branch, want in expected.items():
        measure, printed = rows[branch]
        if not (abs(measure - want) <= tolerance and abs(printed - want) <= tolerance):
            raise ReportError(
                f"{branch}: measure {measure!r}, printed expectation {printed!r}, "
                f"independent value {want!r}"
            )

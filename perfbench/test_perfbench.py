"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They check the independent output check, the seeding rule, the tracer's
determinism and clean removal, and that BENCHMARK.json names exactly the
metrics the code reports.
"""

from __future__ import annotations

import collections
import json
import random
import shutil
import subprocess
import sys

import pytest

import program
import run
from tracer import LAYER_METRICS, Tracer, find_wrappers
from verify import ReportError, check, expected_rows
from workloads import TOLERANCE, WORKLOADS

program.import_program()
from descriptorsim import cli  # noqa: E402

REFERENCE = program.Reference()


def _traced_round(workload: str, seed: int) -> Tracer:
    rounds = WORKLOADS[workload].schedule(random.Random(seed), 1)
    tracer = Tracer()
    with tracer:
        assert tracer.unwrapped_bindings() == []
        done, _, whole = run.closed_loop(cli, rounds, REFERENCE, tracer=tracer)
    assert whole
    assert run.verify_all(done) == []
    return tracer


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("spec", [
    {"experiment": "bell", "theta": 0.3, "phi": -2.1},
    {"experiment": "wigner", "theta": 1.2, "phi": 0.4},
    {"experiment": "chsh"},
    {"experiment": "nonisomorphism"},
    {"experiment": "chain", "theta": -0.5, "phi": 2.9, "chain_alice": 1, "chain_bob": 0},
])
def test_check_accepts_correct_reports(spec, fmt):
    spec = {**spec, "format": fmt, "tolerance": TOLERANCE}
    code, text = cli.execute_and_report(cli.RunConfig(**spec))
    check(spec, code, text, TOLERANCE)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_check_rejects_a_wrong_measure(fmt):
    spec = {"experiment": "bell", "theta": 0.3, "phi": -2.1, "format": fmt, "tolerance": TOLERANCE}
    code, text = cli.execute_and_report(cli.RunConfig(**spec))
    with pytest.raises(ReportError):
        check({**spec, "phi": -2.0}, code, text, TOLERANCE)
    with pytest.raises(ReportError):
        check(spec, 1, text, TOLERANCE)
    measure = f"{expected_rows(spec)['00']:.10g}"
    assert measure in text
    with pytest.raises(ReportError):
        check(spec, code, text.replace(measure, "0.5", 1), TOLERANCE)


def test_wigner_expectation_uses_the_effective_bob_angle():
    rows = expected_rows({"experiment": "wigner", "theta": 0.0, "phi": 0.9})
    assert rows["00"] == pytest.approx(0.0, abs=1e-15)
    assert rows["01"] == pytest.approx(0.5)


def test_library_error_fails_one_experiment_and_the_run_goes_on():
    bad = {"experiment": "chain", "chain_alice": 8, "chain_bob": 8, "format": "csv",
           "tolerance": TOLERANCE, "theta": 0.0, "phi": 0.5}
    good = {"experiment": "bell", "format": "csv", "tolerance": TOLERANCE, "theta": 0.0, "phi": 0.5}
    done, _, _ = run.closed_loop(cli, [[bad, good]], REFERENCE)
    failures = run.verify_all(done)
    assert len(done) == 2 and len(failures) == 1
    assert "LayoutError" in failures[0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_inputs_but_not_kind_and_shape_counts(workload):
    def shapes(seed):
        rounds = WORKLOADS[workload].rounds(random.Random(seed))
        specs = [spec for _ in range(3) for spec in next(rounds)]
        kinds = collections.Counter(
            (s["experiment"], s.get("chain_alice"), s.get("chain_bob")) for s in specs)
        return kinds, [s.get("theta") for s in specs]

    kinds_a, angles_a = shapes(1)
    kinds_b, angles_b = shapes(2)
    assert kinds_a == kinds_b
    assert angles_a != angles_b
    assert shapes(1) == (kinds_a, angles_a)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly_and_every_mapped_span_fires(workload):
    first = _traced_round(workload, 5)
    assert find_wrappers() == []
    assert first.silent(workload) == []
    assert _traced_round(workload, 5).counts() == first.counts()


def test_wrappers_are_removed_when_the_traced_code_raises():
    with pytest.raises(RuntimeError):
        with Tracer():
            assert find_wrappers()
            raise RuntimeError("boom")
    assert find_wrappers() == []


def test_self_time_excludes_children():
    tracer = _traced_round("bell_sweep", 7)
    metrics = tracer.layer_metrics()
    calls, inclusive, own = tracer._by_name()
    assert own["cli.execute"] < inclusive["cli.execute"]
    assert metrics["engine.conjugate_s"] < metrics["engine.advance_s"]
    assert metrics["operators.max_dim"] == 64


def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(i) for i in range(1, 1001)]
    assert run.tail_percentile(values) == (99.0, 990.0, 10)
    assert run.tail_percentile(values[:900]) == (pytest.approx(98.89, abs=0.01), 890.0, 10)
    assert run.tail_percentile(values[:5]) == (100.0, 5.0, 0)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS
    ]


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(program.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bell_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_schedule_cut_by_the_safety_stop_is_reported(monkeypatch):
    spec = {"experiment": "bell", "format": "csv", "tolerance": TOLERANCE, "theta": 0.0, "phi": 0.5}
    done, _, whole = run.closed_loop(cli, [[spec, spec]], REFERENCE)
    assert len(done) == 2 and whole
    monkeypatch.setattr(run, "LOOP_LIMIT_S", 0.0)
    done, _, whole = run.closed_loop(cli, [[spec, spec]], REFERENCE)
    assert len(done) < 2 and not whole


def test_the_timed_schedule_depends_on_seconds_alone():
    for workload in WORKLOADS.values():
        assert workload.timed_rounds(20) == workload.timed_rounds(20.0)
        assert workload.timed_rounds(1) == workload.min_rounds
    assert WORKLOADS["copy_chain"].timed_rounds(20) == 3

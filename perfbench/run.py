"""End-to-end and per-layer benchmark for descriptorsim.

    python3 perfbench/run.py --workload bell_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there.  Each experiment is one in-process call of
``descriptorsim.cli.execute_and_report(RunConfig(...))``, the path a CLI
user takes, oracle cross-check included.  One client runs a closed loop:
an experiment starts only when the previous one has finished.

``--trace 0`` runs a fixed number of rounds of the workload, set by
``--seconds`` and the workload's nominal round duration alone, so that a
faster or slower program runs the same schedule, and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of rounds chosen by the seed
alone, once plain and once with every layer wrapped by ``tracer.Tracer``,
and reports the per-layer metrics; its counts repeat exactly for one seed,
so ``--seconds`` does not apply to it.  A schedule cut short by the safety
stop (``LOOP_LIMIT_S``) fails the run, as its figures would not compare.

The cores this runs on are shared, and their speed drifts by up to 2x
over seconds to minutes.  A fixed reference kernel (``program.Reference``)
is timed between experiments, and every end-to-end timing is rescaled to
the speed at which that kernel takes ``program.REFERENCE_NOMINAL_S``.
Over ten seeds the rescaled figures spread 2 to 9 % (interquartile range
over median) where the raw ones spread 5 to 38 %.  Throughput is therefore
passed experiments over their summed rescaled call times, not over the
loop's wall time, which would include the kernel's own runs.  A set-up
probe times the kernel in its own process.  The raw figures are printed
beside them and recorded.  Per-layer times are as measured.

Every report is checked against measures recomputed independently
(``verify.py``) after the timed loop.  A raised library error, a nonzero
exit code or a failed check counts as a failed experiment and the run goes
on.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when ``correct`` is false, and 2 when the checkout holds no program.  A
fuller record, with the environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import program
from tracer import LAYER_METRICS, Tracer, find_wrappers
from verify import ReportError, check
from workloads import WORKLOADS

SETUP_PROBES = 9
# no experiment starts after this, so that a run ends well within its 180 s
# allowance even if the program slows down; a cut schedule fails the run
LOOP_LIMIT_S = 100.0
# the machine speed during an experiment is the mean of two medians of the
# reference kernel's times, over this many seconds before it and after it:
# local enough to follow the drift, and the medians drop the kernel's own
# outliers
REFERENCE_WINDOW_S = 0.25
# after an experiment the kernel runs once per this many seconds of its
# latency, up to REFERENCE_RUNS_MAX times: a single kernel time is noisy,
# and more runs next to a long experiment steady its rescaled time at a
# cost of a few percent
REFERENCE_EVERY_S = 0.04
REFERENCE_RUNS_MAX = 9
END_TO_END_UNITS = {
    "throughput_eps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# run_bell per variant from the ROADMAP baseline table (2 cores, numpy
# 2.4.6 / OpenBLAS 0.3.31 with its default thread count, warm)
BASELINE_RUN_BELL_MS = {"plain": 11.0, "decohered seed 3": 449.0, "chain(1,1)": 285.0}


@dataclass
class Experiment:
    spec: dict
    start_s: float
    latency_s: float
    code: int | None = None
    text: str | None = None
    failure: str | None = None
    # the median time of the reference kernel runs around this experiment
    reference_s: float = math.nan

    @property
    def nominal_s(self) -> float:
        return program.at_nominal_speed(self.latency_s, self.reference_s)


def closed_loop(cli, rounds: list[list[dict]], reference: program.Reference,
                tracer: Tracer | None = None):
    """Run every experiment of ``rounds`` in order, timing the reference
    kernel between experiments, unless LOOP_LIMIT_S passes first; returns
    (experiments, wall seconds, whether the whole schedule ran)."""
    done: list[Experiment] = []
    starts: list[float] = []  # of the reference runs, in time order
    references: list[float] = []

    def time_reference(runs: int) -> None:
        for _ in range(runs):
            starts.append(time.perf_counter())
            references.append(reference.seconds())

    start = time.perf_counter()
    time_reference(1)
    schedule = [spec for specs in rounds for spec in specs]
    for spec in schedule:
        if time.perf_counter() - start >= LOOP_LIMIT_S:
            break
        if tracer is not None:
            tracer.experiment = len(done)
        t0 = time.perf_counter()
        try:
            code, text = cli.execute_and_report(cli.RunConfig(**spec))
            failure = None
        except Exception as exc:  # a library error fails this experiment only
            code, text, failure = None, None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        done.append(Experiment(spec, t0, latency, code, text, failure))
        time_reference(min(REFERENCE_RUNS_MAX, 1 + int(latency / REFERENCE_EVERY_S)))
    wall = time.perf_counter() - start
    for exp in done:
        # each side always holds the run just before or just after; the mean
        # of the two sides follows a change of speed during the experiment
        first = bisect.bisect_left(starts, exp.start_s - REFERENCE_WINDOW_S)
        middle = bisect.bisect_left(starts, exp.start_s)
        last = bisect.bisect_right(starts, exp.start_s + exp.latency_s + REFERENCE_WINDOW_S)
        exp.reference_s = (statistics.median(references[first:middle])
                           + statistics.median(references[middle:last])) / 2
    return done, wall, len(done) == len(schedule)


def verify_all(experiments: list[Experiment]) -> list[str]:
    """Check every report independently; returns one reason per failure."""
    failures = []
    for exp in experiments:
        if exp.failure is None:
            try:
                check(exp.spec, exp.code, exp.text, exp.spec["tolerance"])
            except ReportError as exc:
                exp.failure = str(exc)
        exp.text = None
        if exp.failure is not None:
            failures.append(f"{exp.spec}: {exp.failure}")
    return failures


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample, at percentile 100 (n - 10) / n.  Returns
    (percentile, value, samples beyond).  A whole-number percentile would
    leave anywhere from 10 to 10 + n/100 samples beyond and jump as n
    crosses a multiple of 100.  With ten samples or fewer there is none,
    and the maximum is returned as percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1], 0
    return 100 * (n - 10) / n, xs[n - 11], 10


def setup_times(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, reference seconds) from SETUP_PROBES fresh
    processes, one at a time; each times the reference kernel itself."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for i in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), "--workload", workload, "--seed", str(seed + i)],
            capture_output=True, text=True, timeout=60, cwd=program.ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        setup_s, reference_s = map(float, done.stdout.split()[-2:])
        samples.append((setup_s, reference_s))
    return samples


def warm_up(cli, workload, rng, reference) -> str | None:
    spec = workload.warmup_spec(rng)
    (exp,), _, _ = closed_loop(cli, [[spec]], reference)
    failures = verify_all([exp])
    return failures[0] if failures else None


def run_bell_sanity(descriptorsim) -> dict[str, float]:
    """Median ms of three run_bell calls per baseline variant, as measured."""
    variants = {
        "plain": descriptorsim.Plain(),
        "decohered seed 3": descriptorsim.Decohered(3),
        "chain(1,1)": descriptorsim.Chained(1, 1),
    }
    out = {}
    for name, variant in variants.items():
        cfg = descriptorsim.BellConfig(0.0, math.pi / 4, variant)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            descriptorsim.run_bell(cfg)
            times.append((time.perf_counter() - t0) * 1e3)
        out[name] = statistics.median(times)
    return out


def end_to_end(cli, args, rng, lines: list[str], record: dict) -> tuple[dict, list[Experiment], list[str]]:
    workload = WORKLOADS[args.workload]
    reference = program.Reference()
    probes = setup_times(args.workload, args.seed)
    problems = [f"warm-up: {f}" for f in [warm_up(cli, workload, rng, reference)] if f]
    n_rounds = workload.timed_rounds(args.seconds)
    experiments, wall, whole = closed_loop(cli, workload.schedule(rng, n_rounds), reference)
    if not whole:
        problems.append(f"schedule cut after {LOOP_LIMIT_S:g} s: "
                        f"{len(experiments)} experiments of {n_rounds} rounds ran")
    failures = verify_all(experiments)
    passed = len(experiments) - len(failures)
    latencies = [e.nominal_s * 1e3 for e in experiments]
    raw = [e.latency_s * 1e3 for e in experiments]
    p, tail, beyond = tail_percentile(latencies)
    setups = [program.at_nominal_speed(*probe) for probe in probes]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "throughput_eps": passed / (sum(latencies) / 1e3),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mib,
    }
    as_measured = {
        "throughput_eps": passed / wall,
        "latency_p50_ms": statistics.median(raw),
        "latency_tail_ms": tail_percentile(raw)[1],
        "setup_s": statistics.median(setup for setup, _ in probes),
    }
    speed = statistics.median(program.REFERENCE_NOMINAL_S / e.reference_s for e in experiments)
    kinds = collections.Counter(
        e.spec["experiment"] + (f"({e.spec['chain_alice']},{e.spec['chain_bob']})"
                                if e.spec["experiment"] == "chain" else "")
        for e in experiments
    )
    lines += [
        f"loop: {len(experiments)} experiments in {n_rounds} rounds, {wall:.3f} s wall",
        f"kinds: {json.dumps(kinds, sort_keys=True)}",
        f"machine speed: median {speed:.3f} of nominal; figures below are at nominal "
        "speed, as measured in brackets",
        f"throughput_eps = {metrics['throughput_eps']:.4f} 1/s ({passed} passed; "
        f"[{as_measured['throughput_eps']:.4f}] over {wall:.3f} s wall)",
        f"latency_p50_ms = {metrics['latency_p50_ms']:.4f} ms "
        f"[{as_measured['latency_p50_ms']:.4f}] (n = {len(latencies)})",
        f"latency_tail_ms = {tail:.4f} ms [{as_measured['latency_tail_ms']:.4f}] "
        f"(p{p:.2f}, {beyond} samples beyond it, n = {len(latencies)})",
        f"setup_s = {metrics['setup_s']:.4f} s [{as_measured['setup_s']:.4f}] (median of "
        f"{len(setups)} fresh processes: " + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"peak_rss_mb = {rss_mib:.2f} MiB (ru_maxrss of this process)",
        f"fail_ratio = {len(failures) / len(experiments):.6g} 1 ({len(failures)} / {len(experiments)})",
    ]
    record.update(rounds=n_rounds, wall_s=wall, kinds=kinds, setup_probes=probes,
                  tail_percentile=p, tail_samples_beyond=beyond, samples=len(latencies),
                  fail_ratio=len(failures) / len(experiments), machine_speed=speed,
                  as_measured=as_measured)
    return metrics, experiments, problems + failures


def per_layer(cli, descriptorsim, args, rng, lines: list[str], record: dict):
    workload = WORKLOADS[args.workload]
    reference = program.Reference()
    problems = [f"warm-up: {f}" for f in [warm_up(cli, workload, rng, reference)] if f]
    rounds = workload.schedule(rng, workload.trace_rounds)

    plain, _, plain_whole = closed_loop(cli, rounds, reference)
    tracer = Tracer()
    with tracer:
        problems += [f"binding left unwrapped: {b}" for b in tracer.unwrapped_bindings()]
        traced, _, traced_whole = closed_loop(cli, rounds, reference, tracer=tracer)
    problems += [f"{name} schedule cut after {LOOP_LIMIT_S:g} s: {len(done)} experiments ran"
                 for name, done, whole in (("plain", plain, plain_whole),
                                           ("traced", traced, traced_whole)) if not whole]
    problems += [f"wrapper left installed: {w}" for w in find_wrappers()]
    problems += [f"span never fired: {s}" for s in tracer.silent(args.workload)]
    problems += verify_all(plain) + verify_all(traced)

    metrics = tracer.layer_metrics()
    # both passes run one schedule, so the throughput ratio is the time ratio
    plain_s = sum(e.nominal_s for e in plain)
    traced_s = sum(e.nominal_s for e in traced)
    metrics["trace.overhead_pct"] = 100 * (traced_s / plain_s - 1)
    spans_path = program.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)

    sanity = run_bell_sanity(descriptorsim)
    lines.append(f"traced schedule: {len(traced)} experiments in {workload.trace_rounds} rounds; "
                 f"plain {plain_s:.3f} s, traced {traced_s:.3f} s at nominal speed; "
                 f"{len(tracer.spans)} spans -> {spans_path.relative_to(program.ROOT)}")
    lines += [f"{m.name} = {metrics[m.name]:.6g} {m.unit} (moves {m.moves} on {m.on})"
              for m in LAYER_METRICS]
    lines.append(f"run_bell sanity check, ms as measured (this run with {program.BLAS_THREADS} "
                 "BLAS thread(s) | ROADMAP baseline with the default count):")
    lines += [f"  {name:<18}{ms:10.1f} | {BASELINE_RUN_BELL_MS[name]:g}" for name, ms in sanity.items()]
    record.update(counts=tracer.counts(), spans=len(tracer.spans), run_bell_ms=sanity,
                  plain_s=plain_s, traced_s=traced_s)
    return {m.name: metrics[m.name] for m in LAYER_METRICS}, plain + traced, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    program.pin_blas_threads()
    try:
        descriptorsim = program.import_program()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from descriptorsim import cli

    rng = random.Random(args.seed)
    env = program.environment_record()
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
             "env: " + "  ".join(f"{k}={v}" for k, v in env.items())]
    record = {"args": vars(args), "environment": env}
    if args.trace:
        metrics, experiments, problems = per_layer(cli, descriptorsim, args, rng, lines, record)
        units = {m.name: m.unit for m in LAYER_METRICS}
    else:
        metrics, experiments, problems = end_to_end(cli, args, rng, lines, record)
        units = END_TO_END_UNITS
    failed = sum(e.failure is not None for e in experiments)
    result = {
        "correct": not problems,
        "attempted": len(experiments),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record.update(result=result, problems=problems)
    program.OUT.mkdir(parents=True, exist_ok=True)
    out = program.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Measure set-up time in a fresh process.

Prints the seconds from just before ``import descriptorsim`` to the end of
the workload's untimed warm-up experiment, which must pass the independent
check, then the median time of the reference kernel run right after, in
this process and so on this core.  ``run.py`` starts this several times per
run and reports the median set-up time, rescaled by that kernel time, as
``setup_s``.

    python3 perfbench/setup_probe.py --workload copy_chain --seed 1
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

import program
from verify import check
from workloads import WORKLOADS

REFERENCE_RUNS = 9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload].warmup_spec(random.Random(args.seed))
    program.pin_blas_threads()

    start = time.perf_counter()
    program.import_program()
    from descriptorsim import cli

    code, text = cli.execute_and_report(cli.RunConfig(**spec))
    elapsed = time.perf_counter() - start
    reference = program.Reference()
    reference_s = statistics.median(reference.seconds() for _ in range(REFERENCE_RUNS))
    check(spec, code, text, spec["tolerance"])
    print(repr(elapsed), repr(reference_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())

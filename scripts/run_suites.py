#!/usr/bin/env python3
"""Run every verification suite across the variants it applies to and
print a summary table; optionally write the JSON reports to a directory.
Each suite's wall time and rate (cases/s) go to stderr, so stdout and
the reports stay identical from run to run.

    python scripts/run_suites.py --seed 7 --count 200 --json-dir reports/
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hnn_nearring import (  # noqa: E402
    SampleConfig,
    Variant,
    check_conjugacy,
    check_equiprime_instances_A,
    check_invariant_subgroups,
    check_nearring_axioms,
    find_left_distrib_counterexample,
    witness_nonequiprime_B,
    witness_nonequiprime_C,
    write_report,
)

MATRIX = [
    ("axioms", "ABC", lambda v, c: check_nearring_axioms(v, c)),
    ("conjugacy", "ABC", lambda v, c: check_conjugacy(v, c)),
    ("nonequiprime", "B", lambda v, c: witness_nonequiprime_B(c)),
    ("nonequiprime", "C", lambda v, c: witness_nonequiprime_C(c)),
    ("equiprime", "A", lambda v, c: check_equiprime_instances_A(c)),
    ("invariants", "BC", lambda v, c: check_invariant_subgroups(v, c)),
    ("leftdistrib", "ABC", lambda v, c: find_left_distrib_counterexample(v, c)),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--json-dir", type=pathlib.Path)
    args = parser.parse_args()

    config = SampleConfig(seed=args.seed, count=args.count, max_level=args.depth)
    if args.json_dir:
        args.json_dir.mkdir(parents=True, exist_ok=True)

    all_passed = True
    for name, variants, runner in MATRIX:
        for tag in variants:
            variant = Variant(tag)
            start = time.perf_counter()
            report = runner(variant, config)
            elapsed = time.perf_counter() - start
            all_passed = all_passed and report.passed
            status = "PASS" if report.passed else "FAIL"
            print(f"{status}  {report.suite_name:28s} variant={tag} "
                  f"cases={report.cases_run:5d} failures={len(report.failures)}")
            for w in report.witnesses:
                print(f"        {w}")
            print(f"time  {report.suite_name:28s} variant={tag} {elapsed:8.3f} s "
                  f"{report.cases_run / elapsed:9.1f} cases/s", file=sys.stderr)
            if args.json_dir:
                path = args.json_dir / f"{report.suite_name}_{tag}_seed{args.seed}.json"
                path.write_bytes(write_report(report))
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())

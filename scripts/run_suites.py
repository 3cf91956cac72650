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

from hnn_nearring import SUITES, SampleConfig, Variant, write_report  # noqa: E402
from hnn_nearring.cli_io import int_at_least  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int_at_least(1), default=200)
    parser.add_argument("--depth", type=int_at_least(0), default=3)
    parser.add_argument("--json-dir", type=pathlib.Path)
    args = parser.parse_args()

    config = SampleConfig(seed=args.seed, count=args.count, max_level=args.depth)
    if args.json_dir:
        args.json_dir.mkdir(parents=True, exist_ok=True)

    all_passed = True
    for tags, runner in SUITES.values():
        for tag in tags:
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

#!/usr/bin/env python3
"""Run every verification suite across the variants it applies to and
print a summary table; optionally write the JSON reports to a directory.
Each suite's wall time and rate (cases/s) go to stderr, followed after
the run by the peak size, hits and misses of the two engine memos (each
suite starts from empty engine memos, so their counts are read after
every suite and summed, and their peak is the largest one suite
reached) and the size, hits and misses of the two sampler memos, the
size of the intern table ``word_core._INTERNED`` at the end and its
peak (each suite start frees the values nothing holds, so the peak is
the largest size any suite ended with), the number of cyclic-collector
runs per generation and the peak resident set size of the process, so
stdout and the reports stay identical from run to run.  A suite that
meets an engine error (an element too large to materialize) ends the
run with one ``error:`` line and exit status 2.  The suites come from
``SUITES``, and ``--seed``, ``--count`` and ``--depth`` from the
declaration ``check`` uses.

    python scripts/run_suites.py --seed 7 --count 200 --json-dir reports/
"""

import argparse
import gc
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hnn_nearring import (  # noqa: E402
    SUITES, EngineError, SampleConfig, Variant, sample_element, sample_nonzero, word_core,
    write_report)
from hnn_nearring.cli_io import GC_THRESHOLD, add_sample_options  # noqa: E402
from hnn_nearring.nearring_maps import memo_stats  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_sample_options(parser)
    parser.add_argument("--json-dir", type=pathlib.Path)
    args = parser.parse_args()

    config = SampleConfig(seed=args.seed, count=args.count, max_level=args.depth)
    if args.json_dir:
        try:
            args.json_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _cannot_write(args.json_dir, exc)

    all_passed = True
    memos = {}  # memo -> (peak, hits, misses), the engine's summed over the suites
    table_peak = 0  # the largest size the intern table had when a suite ended
    for tags, runner in SUITES.values():
        for tag in tags:
            variant = Variant(tag)
            start = time.perf_counter()
            try:
                report = runner(variant, config)
            except EngineError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            elapsed = time.perf_counter() - start
            for name, (size, hits, misses) in memo_stats().items():
                peak, total_hits, total_misses = memos.get(name, (0, 0, 0))
                memos[name] = max(peak, size), total_hits + hits, total_misses + misses
            table_peak = max(table_peak, len(word_core._INTERNED))
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
                try:
                    path.write_bytes(write_report(report))
                except OSError as exc:
                    return _cannot_write(path, exc)
    for sampler in (sample_element, sample_nonzero):
        info = sampler.cache_info()
        memos[f"verify_suites.{sampler.__name__}"] = info.currsize, info.hits, info.misses
    for name, (peak, hits, misses) in sorted(memos.items()):
        print(f"memo {name} peak={peak} hits={hits} misses={misses}", file=sys.stderr)
    print(f"table word_core._INTERNED size={len(word_core._INTERNED)} peak={table_peak}",
          file=sys.stderr)
    print("gc collections=" + "/".join(str(g["collections"]) for g in gc.get_stats()),
          file=sys.stderr)
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss {peak_mb:.1f} MB", file=sys.stderr)
    return 0 if all_passed else 1


def _cannot_write(path, exc) -> int:
    print(f"error: cannot write report {path}: {exc.strerror}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    gc.set_threshold(*GC_THRESHOLD)
    sys.exit(main())

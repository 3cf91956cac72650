"""One fresh process of the benchmark: a set-up probe or one matrix pass.

    python bench/worker.py setup <workload> <seed>
    python bench/worker.py matrix <workload> <seed> <plain|gc|trace>

The last line of standard output is one JSON object.  Only ``sys`` and
``time`` are imported before the set-up clock starts, so every module the
library needs is paid for inside the set-up time.
"""

import sys
import time


def _setup(workload, seed):
    """Import the library and build the workload's inputs."""
    t0 = time.perf_counter()
    import hnn_nearring as hn

    import inputs

    if workload == "cli-oneshot":
        made = inputs.cli_batch(hn, seed)
    else:
        depth, count = inputs.MATRIX_SIZES[workload]
        config = hn.SampleConfig(seed=seed, count=count, max_level=depth)
        made = (config, [(name, tag, inputs.suite_runner(hn, name, tag))
                         for name, tag in inputs.matrix_pairs()])
    return hn, inputs, made, time.perf_counter() - t0


def _roundtrip_problems(hn, config):
    """parse_element(render(x)) is x, and preimage(z, f_eval(z, x)) is x
    because every embedding is injective.  ``preimage`` gives no answer on
    a few inputs (README.md, "Known faults"); only an answer other than x,
    which would show two elements with one image, is a problem."""
    problems = []
    for tag in "ABC":
        v = hn.Variant(tag)
        for pos in range(24):
            x = hn.sample_element(config, pos, v)
            if hn.parse_element(hn.render(x), v) is not x:
                problems.append(f"{tag}: parse(render(x)) is not x for {hn.render(x)}")
            z = hn.sample_nonzero(config, 1000 + pos, v)
            back = hn.preimage(z, hn.f_eval(z, x))
            if back is not None and back is not x:
                problems.append(f"{tag}: preimage(z, f(z, x)) is not x for {hn.render(x)}")
    return problems


def _matrix(workload, seed, mode):
    hn, inputs, (config, runs), setup_s = _setup(workload, seed)
    import json
    import resource
    import traceback

    import tracing

    tracer = tracing.Tracer() if mode == "trace" else None
    gc_timer = tracing.GcTimer() if mode == "gc" else None
    if tracer:
        tracer.install()
    if gc_timer:
        gc_timer.install()
    clock = time.perf_counter
    done, errors, report_ms = [], [], []
    t0 = clock()
    for name, tag, runner in runs:
        r0 = clock()
        try:
            report = runner(config)
            blob = hn.write_report(report)
        except Exception:
            errors.append(f"{name}/{tag}: {traceback.format_exc(limit=3)}")
        else:
            done.append((name, tag, report, blob))
        report_ms.append((clock() - r0) * 1000.0)
    wall_s = clock() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    if gc_timer:
        gc_timer.uninstall()

    problems = []
    for name, tag, report, blob in done:
        problems += inputs.report_problems(json.loads(blob), name, tag,
                                           config.seed, config.count)
        if hn.write_report(report) != blob:
            problems.append(f"{name}/{tag}: encoding the report twice gave different bytes")
    problems += _roundtrip_problems(hn, config)
    out = {"setup_s": setup_s, "wall_s": wall_s, "rss_mb": rss_mb, "report_ms": report_ms,
           "attempted": len(runs), "failed": len(errors), "errors": errors,
           "problems": problems}
    if tracer:
        out["trace"] = tracer.snapshot()
    if gc_timer:
        out["gc"] = gc_timer.snapshot()
    print(json.dumps(out))


def main():
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if mode == "setup":
        setup_s = _setup(workload, seed)[3]
        print('{"setup_s": %r}' % setup_s)
    elif mode == "matrix":
        _matrix(workload, seed, sys.argv[4])
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()

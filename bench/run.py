"""The repository's benchmark: run one workload, check it, print its metrics.

    python3 bench/run.py --workload matrix-deep --seed 1 --seconds 55 --trace 0

Workloads (see README.md):
  matrix-deep     13 suite/variant pairs at max_level 4, one pass per
                  sample seed drawn from --seed, each in a fresh worker
                  process, passes repeated for --seconds
  matrix-default  the same at the CLI default max_level 3
  cli-oneshot     a batch of single ``hnn-nearring`` commands, each in a
                  fresh interpreter, batches repeated for --seconds

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run instead, plus the tracing overhead.  Work runs in whole
rounds (a matrix pass, or the whole command batch) so the share of
failed operations does not depend on the run length.
"""

import argparse
import json
import os
import pathlib
import random
import re
import statistics
import subprocess
import sys
import threading
import time
import tomllib

import inputs
import tracing

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("matrix-deep", "matrix-default", "cli-oneshot")
#: fresh processes timed for set-up in every run
SETUP_PROBES = 15
#: fresh ``python -X importtime`` processes in a traced run
IMPORT_PROBES = 5
#: a child that runs longer than this is killed and its operation failed
CHILD_TIMEOUT_S = 60.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("cmd_p50_ms", "ms"), ("cmd_p90_ms", "ms"))


class Child:
    """Outcome of one child process: exit code, output, spawn-to-exit
    latency and peak RSS from the kernel's own accounting."""

    def __init__(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=ROOT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        self.latency_s = time.perf_counter() - t0
        timer.cancel()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.stdout = out.decode("utf-8", "replace")
        self.stderr = err[0].decode("utf-8", "replace")
        self.rss_mb = usage.ru_maxrss / 1024.0

    def last_json(self):
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            raise RuntimeError(f"child failed with code {self.code}:\n{self.stderr[-2000:]}")
        return json.loads(lines[-1])


def python(*args):
    return Child([sys.executable, *map(str, args)])


def percentile(values, q):
    """The q-th percentile, interpolated between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(workload, seed):
    """Median set-up time of ``SETUP_PROBES`` fresh processes, after one
    that warms the file cache and is not counted."""
    probes = [python(BENCH / "worker.py", "setup", workload, seed).last_json()["setup_s"]
              for _ in range(SETUP_PROBES + 1)]
    return statistics.median(probes[1:])


def import_seconds():
    """Self import time of each library module, median over fresh
    ``python -X importtime`` processes."""
    samples = {mod: [] for mod in tracing.MODULES}
    pattern = re.compile(r"import time:\s*(\d+) \|\s*\d+ \|\s*hnn_nearring\.(\w+)\s*$")
    for _ in range(IMPORT_PROBES):
        child = python("-X", "importtime", "-c", "import hnn_nearring")
        if child.code != 0:
            raise RuntimeError(f"importing the library failed:\n{child.stderr[-2000:]}")
        for line in child.stderr.splitlines():
            m = pattern.match(line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e6)
    return {mod: statistics.median(v) for mod, v in samples.items()}


def until(seconds, round_fn):
    """Run whole rounds while the next one, as long as the last, still
    ends within ``seconds``; always at least one."""
    start = time.perf_counter()
    results = []
    while True:
        r0 = time.perf_counter()
        results.append(round_fn())
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return results


# ---------------------------------------------------------------------------
# Matrix workloads
# ---------------------------------------------------------------------------

def matrix_pass(workload, seed, mode):
    return python(BENCH / "worker.py", "matrix", workload, seed, mode).last_json()


def run_matrix(workload, seed, seconds, trace):
    """A round is one pass, each on its own sample seed drawn from ``seed``.

    A suite's time hangs on the few largest elements a draw holds, so a run
    pools the reports of many draws.  Over 85 single passes, the median of
    the 13 per-pair means of four draws spread 21% between groups (first
    to third quartile over the median), and the median of the pooled
    reports of sixteen draws 6%."""
    draw = random.Random(seed).randrange
    if trace:
        def traced_round():
            sample_seed = draw(1 << 31)
            return matrix_pass(workload, sample_seed, "gc"), matrix_pass(workload, sample_seed, "trace")
        pairs = until(seconds, traced_round)
        passes = [p for pair in pairs for p in pair]
    else:
        passes = until(seconds, lambda: matrix_pass(workload, draw(1 << 31), "plain"))
    result = {
        "correct": not any(p["problems"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [x for p in passes for x in p["problems"] + p["errors"]],
    }
    if trace:
        plain_wall = sum(p["wall_s"] for p, _ in pairs)
        traced_wall = sum(t["wall_s"] for _, t in pairs)
        result["trace"] = [t["trace"] for _, t in pairs]
        result["metrics"] = tracing.layer_values(
            result["trace"], [p["gc"] for p, _ in pairs], import_seconds(),
            100.0 * (traced_wall / plain_wall - 1.0), len(pairs))
        return result
    print("wall_s of each pass: " + " ".join(f"{p['wall_s']:.3f}" for p in passes), file=sys.stderr)
    report_ms = [ms for p in passes for ms in p["report_ms"]]
    result["values"] = {
        "setup_s": setup_seconds(workload, seed),
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "cmd_p50_ms": percentile(report_ms, 50),
        "cmd_p90_ms": percentile(report_ms, 90),
    }
    return result


# ---------------------------------------------------------------------------
# The one-shot command batch
# ---------------------------------------------------------------------------

def console_entry(name="hnn-nearring"):
    """The ``module:function`` that ``pip install`` binds to the console
    script ``name``, read from the project metadata."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


class Checker:
    """Judges one command's outcome against computations made outside the
    program or properties the method must have, never stored output."""

    def __init__(self, hn, seed):
        self.hn = hn
        self.seed = seed
        self.reports = {}

    def parse(self, text, tag):
        return self.hn.parse_element(text, self.hn.Variant(tag))

    def judge(self, cmd, child):
        """(failed, problem): a command fails when it gives no answer (a
        traceback, or killed); a wrong answer is a problem.  A known-faulty
        command fails until it is fixed."""
        if cmd["kind"].startswith("fault-"):
            return not self.fault_fixed(cmd, child), None
        if "Traceback" in child.stderr or child.code < 0:
            return True, None
        return False, self.problem(cmd, child)

    def problem(self, cmd, child):
        """None when the command is correct, else why it is not."""
        kind, out = cmd["kind"], child.stdout.strip()
        if child.code != 0:
            return f"exit {child.code}: {child.stderr.strip()[-300:]}"
        hn = self.hn
        if kind in ("roundtrip", "relation"):
            if self.parse(out, cmd["variant"]) is not cmd["want"]:
                return f"got {out!r}, expected {hn.render(cmd['want'])!r}"
            if kind == "roundtrip" and out != cmd["args"][-1]:
                return f"canonical text {cmd['args'][-1]!r} came back as {out!r}"
            return None
        if kind in ("product", "apply"):
            y = self.parse(out, cmd["variant"])
            back = hn.preimage(cmd["zeta"], y)
            if back is None:
                # preimage gives no answer on a few inputs (README.md,
                # "Known faults"); the output must then be the image the
                # library computes in this process
                if y is not hn.f_eval(cmd["zeta"], cmd["want"]):
                    return f"got {out!r}, expected {hn.render(hn.f_eval(cmd['zeta'], cmd['want']))!r}"
            elif back is not cmd["want"]:
                return f"preimage of {out!r} is not {hn.render(cmd['want'])!r}"
            return None
        if kind in ("intprod", "freeword", "member-h", "member-w"):
            return None if out == cmd["text"] else f"got {out!r}, expected {cmd['text']!r}"
        if kind == "check":
            return self.check_problem(cmd, child)
        raise ValueError(f"unknown command kind {kind!r}")

    @staticmethod
    def json_path(cmd):
        return OUT / f"check-{cmd['suite']}-{cmd['variant']}.json"

    def check_problem(self, cmd, child):
        name, tag = cmd["suite"], cmd["variant"]
        if not child.stdout.startswith("PASS "):
            return f"no PASS line: {child.stdout[:200]!r}"
        blob = self.json_path(cmd).read_bytes()
        problems = inputs.report_problems(json.loads(blob), name, tag, self.seed,
                                          inputs.CHECK_COUNT)
        if problems:
            return "; ".join(problems)
        # the same report, computed and encoded in this process
        key = (name, tag)
        if key not in self.reports:
            hn = self.hn
            config = hn.SampleConfig(seed=self.seed, count=inputs.CHECK_COUNT,
                                     max_level=inputs.CHECK_DEPTH)
            self.reports[key] = hn.write_report(inputs.suite_runner(hn, name, tag)(config))
        if blob != self.reports[key]:
            return "report bytes differ from the same report encoded in-process"
        return None

    def fault_fixed(self, cmd, child):
        """A known-faulty command counts as fixed once it gives an exact
        answer that parses back (exit 0) or a clean usage error (exit 2)."""
        if "Traceback" in child.stderr:
            return False
        if child.code == 2:
            return any(line.startswith("error:") or ": error:" in line
                       for line in child.stderr.splitlines())
        if child.code == 0 and cmd["kind"] == "fault-eval":
            try:
                return self.parse(child.stdout.strip(), "A") is self.parse(cmd["args"][-1], "A")
            except Exception:
                return False
        return False


class Outcome:
    """One command of a round: the child, its stats snapshot and verdict."""

    def __init__(self, child, stats, failed, problem):
        self.child, self.stats, self.failed, self.problem = child, stats, failed, problem


def run_batch(batch, entry, mode, checker):
    """Run one round of the batch, checking each command as it exits."""
    done = []
    for i, cmd in enumerate(batch):
        args = list(cmd["args"])
        if cmd["kind"] == "member-h":
            args[-1] = done[-1].child.stdout.strip()
        if cmd["kind"] == "check":
            args += ["--json", str(checker.json_path(cmd))]
        stats_path = OUT / f"stats-{i}.json"
        child = python(BENCH / "cli_entry.py", entry, mode, stats_path, *args)
        stats = None
        if mode != "plain" and stats_path.exists():
            stats = json.loads(stats_path.read_text())
            stats_path.unlink()
        failed, problem = checker.judge(cmd, child)
        if problem:
            problem = f"{' '.join(args[:4])} ...: {problem}"
        done.append(Outcome(child, stats, failed, problem))
    return done


def run_cli_oneshot(seed, seconds, trace):
    sys.path.insert(0, str(SRC))
    import hnn_nearring as hn

    entry = console_entry()
    batch = inputs.cli_batch(hn, seed)
    checker = Checker(hn, seed)
    OUT.mkdir(exist_ok=True)

    def one_round():
        if trace:
            return run_batch(batch, entry, "gc", checker), run_batch(batch, entry, "trace", checker)
        return run_batch(batch, entry, "plain", checker), None

    rounds = until(seconds, one_round)
    outcomes = [o for r in rounds for o in (r[0] + r[1] if trace else r[0])]
    result = {"correct": not any(o.problem for o in outcomes),
              "attempted": len(outcomes),
              "failed": sum(o.failed for o in outcomes),
              "problems": [o.problem for o in outcomes if o.problem]}
    if trace:
        plain_s = sum(o.child.latency_s for plain, _ in rounds for o in plain)
        traced_s = sum(o.child.latency_s for _, traced in rounds for o in traced)
        result["trace"] = [o.stats for _, traced in rounds for o in traced if o.stats]
        result["metrics"] = tracing.layer_values(
            result["trace"], [o.stats for plain, _ in rounds for o in plain if o.stats],
            import_seconds(), 100.0 * (traced_s / plain_s - 1.0), len(rounds))
    else:
        # Rounds repeat the same commands, and other tenants of the box only
        # ever add time, so each command keeps its fastest latency.
        latencies = [min(r[0][i].child.latency_s for r in rounds) * 1000.0
                     for i in range(len(batch))]
        result["values"] = {
            "setup_s": setup_seconds("cli-oneshot", seed),
            "wall_s": sum(latencies) / 1000.0,
            "peak_rss_mb": max(o.child.rss_mb for plain, _ in rounds for o in plain),
            "cmd_p50_ms": percentile(latencies, 50),
            "cmd_p90_ms": percentile(latencies, 90),
        }
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hnn_nearring" / "__init__.py").is_file():
        sys.exit(f"error: no library source under {SRC}; run from a checkout of the repository")

    if args.workload == "cli-oneshot":
        result = run_cli_oneshot(args.seed, args.seconds, args.trace)
    else:
        result = run_matrix(args.workload, args.seed, args.seconds, args.trace)
    for line in result.pop("problems")[:20]:
        print(f"problem: {line}", file=sys.stderr)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"metrics": result["metrics"],
                                    "spans": tracing.merge_spans(result.pop("trace"))},
                                   indent=1))
        print(f"trace written to {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        values = result.pop("values")
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
    print(json.dumps(result))


if __name__ == "__main__":
    main()

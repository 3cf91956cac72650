"""Golden gate: the seed-7, count-200, depth-3 reports of every
suite/variant pair must stay byte-identical to the committed files in
``tests/golden``, which were written by

    scripts/run_suites.py --seed 7 --count 200 --depth 3 --json-dir tests/golden

A change to the engine that alters any normal form, sampled element or
report encoding shows up here as a byte difference.  The reports carry
few element texts, so ``normal_forms_seed7.txt``, written by
``scripts/write_normal_forms.py``, pins rendered normal forms of sampled
elements, their negatives, sums and embedding images as well."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from hnn_nearring import SUITES, SampleConfig, Variant, write_report

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIG = SampleConfig(seed=7, count=200, max_level=3)


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_suites = _load_script("run_suites")
write_normal_forms = _load_script("write_normal_forms")

#: every (suite, variant) pair of the suite registry, with its runner
PAIRS = [pytest.param(runner, tag, id=f"{name}-{tag}")
         for name, (tags, runner) in SUITES.items() for tag in tags]


@pytest.mark.parametrize("runner, tag", PAIRS)
def test_report_matches_golden(runner, tag):
    report = runner(Variant(tag), CONFIG)
    path = GOLDEN / f"{report.suite_name}_{tag}_seed{CONFIG.seed}.json"
    assert write_report(report) == path.read_bytes()


def test_normal_forms_match_golden():
    assert write_normal_forms.normal_forms() == write_normal_forms.GOLDEN.read_bytes()


def test_every_golden_is_checked():
    assert len(PAIRS) == len(list(GOLDEN.glob("*.json"))) == 14


def test_run_suites_times_on_stderr_only():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_suites.py"),
         "--seed", "7", "--count", "3", "--depth", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    timings = proc.stderr.splitlines()
    assert len(timings) == len(PAIRS)
    assert all(line.startswith("time ") and line.endswith(" cases/s") for line in timings)
    assert "cases/s" not in proc.stdout
    assert len([ln for ln in proc.stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]) == len(PAIRS)


@pytest.mark.parametrize("flag, value", [("--count", "0"), ("--depth", "-1")])
def test_run_suites_rejects_out_of_range_sizes(flag, value, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_suites.py", flag, value])
    with pytest.raises(SystemExit) as exc:
        run_suites.main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: must be at least" in captured.err

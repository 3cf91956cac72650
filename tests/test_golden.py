"""Golden gate: the seed-7, count-200, depth-3 reports of every
suite/variant pair must stay byte-identical to the committed files in
``tests/golden``, which were written by

    scripts/run_suites.py --seed 7 --count 200 --depth 3 --json-dir tests/golden

A change to the engine that alters any normal form, sampled element or
report encoding shows up here as a byte difference.  The reports carry
few element texts, so ``normal_forms_seed7.txt``, written by
``scripts/write_normal_forms.py``, pins rendered normal forms of sampled
elements, their negatives, sums and embedding images as well.  The
depth-4 summary ``run_suites_seed11_depth4.txt`` is the standard output
of

    scripts/run_suites.py --seed 11 --count 200 --depth 4"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from hnn_nearring import (
    SEED_LIMIT, SUITES, Report, SampleConfig, Variant, make_int, make_stable, scale,
    write_report)
from conftest import load_script

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIG = SampleConfig(seed=7, count=200, max_level=3)


demo_witnesses = load_script("demo_witnesses")
run_suites = load_script("run_suites")
write_normal_forms = load_script("write_normal_forms")

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


def test_run_suites_depth_4_summary_matches_golden(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_suites.py", "--seed", "11", "--count", "200",
                                      "--depth", "4"])
    assert run_suites.main() == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "run_suites_seed11_depth4.txt").read_bytes()


def test_every_golden_is_checked():
    assert len(PAIRS) == len(list(GOLDEN.glob("*.json"))) == 14


def test_run_suites_times_on_stderr_only():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_suites.py"),
         "--seed", "7", "--count", "3", "--depth", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    lines = proc.stderr.splitlines()
    timings, memos = lines[:len(PAIRS)], lines[len(PAIRS):-3]
    table, collections, peak_rss = lines[-3:]
    assert all(line.startswith("time ") and line.endswith(" cases/s") for line in timings)
    # then one line per memo, after the run: the engine's memos, emptied
    # as each suite starts, report the largest size one suite reached and
    # the hits and misses of all suites together
    assert memos == [
        "memo nearring_maps._F_CACHE peak=44 hits=33 misses=121",
        "memo verify_suites.sample_element peak=27 hits=21 misses=27",
        "memo verify_suites.sample_nonzero peak=21 hits=12 misses=21",
        "memo word_core._coset_split peak=29 hits=43 misses=75"]
    # then the intern table: its size after the run, and the largest
    # size a suite ended with, as each suite start frees the values
    # nothing holds
    assert table == "table word_core._INTERNED size=89 peak=115"
    # then the collector runs per generation, and last the peak resident
    # set size of the process
    assert re.fullmatch(r"gc collections=\d+/\d+/\d+", collections)
    assert re.fullmatch(r"peak_rss [1-9]\d*\.\d MB", peak_rss)
    assert not any(word in proc.stdout
                   for word in ("cases/s", "memo ", "table ", "gc ", "peak_rss"))
    assert len([ln for ln in proc.stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]) == len(PAIRS)


def test_run_suites_unwritable_json_dir_is_a_usage_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "report"
    path.write_bytes(b"")
    monkeypatch.setattr(sys, "argv", ["run_suites.py", "--count", "1", "--depth", "0",
                                      "--json-dir", str(path)])
    assert run_suites.main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write report {path}: ")
    assert captured.err.count("\n") == 1


def test_run_suites_engine_error_is_a_usage_error(monkeypatch, capsys):
    # a suite that meets an element too large to materialize: three
    # million copies of a one-letter stream
    def too_large(variant, config):
        return scale(3_000_000, make_stable(make_int(1, variant), make_int(2, variant)))

    monkeypatch.setattr(run_suites, "SUITES", {"stub": ("A", too_large)})
    monkeypatch.setattr(sys, "argv", ["run_suites.py", "--count", "1", "--depth", "0"])
    assert run_suites.main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: refusing to materialize ")
    assert captured.err.count("\n") == 1


def test_run_suites_passes_at_depth_8(monkeypatch, capsys):
    # this run once ended in an engine error: axioms A asked for a 1-fold
    # power of an element of size 2964476, which is the element itself
    monkeypatch.setattr(sys, "argv", ["run_suites.py", "--seed", "3", "--count", "60",
                                      "--depth", "8"])
    assert run_suites.main() == 0
    out = capsys.readouterr().out
    assert len([ln for ln in out.splitlines() if ln.startswith("PASS")]) == len(PAIRS)


@pytest.mark.parametrize("flag, value", [("--count", "0"), ("--depth", "-1")])
def test_run_suites_rejects_out_of_range_sizes(flag, value, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_suites.py", flag, value])
    with pytest.raises(SystemExit) as exc:
        run_suites.main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: must be at least" in captured.err


@pytest.mark.parametrize("seed, accepted", [(-1, False), (SEED_LIMIT, False),
                                            (0, True), (SEED_LIMIT - 1, True)])
def test_run_suites_seed_range(seed, accepted, monkeypatch, capsys):
    seeds = []

    def stub(variant, config):
        seeds.append(config.seed)
        return Report("stub", variant, config, 1)

    monkeypatch.setattr(run_suites, "SUITES", {"stub": ("A", stub)})
    monkeypatch.setattr(sys, "argv", ["run_suites.py", "--seed", str(seed)])
    if accepted:
        assert run_suites.main() == 0
        assert seeds == [seed]
        return
    with pytest.raises(SystemExit) as exc:
        run_suites.main()
    assert exc.value.code == 2
    assert "error: argument --seed: must be " in capsys.readouterr().err
    assert seeds == []


def test_run_suites_defaults_are_the_sample_config_defaults(monkeypatch, capsys):
    configs = []

    def stub(variant, config):
        configs.append(config)
        return Report("stub", variant, config, 1)

    monkeypatch.setattr(run_suites, "SUITES", {"stub": ("A", stub)})
    monkeypatch.setattr(sys, "argv", ["run_suites.py"])
    assert run_suites.main() == 0
    assert configs == [SampleConfig()]


def test_demo_witnesses_shows_both_witnesses(capsys):
    demo_witnesses.main()
    out = capsys.readouterr().out
    _, witnesses = out.split("\nFree-base witness (variant B)")
    b_part, witnesses = witnesses.split("\nCentral-generator witness (variant C)")
    c_part, left = witnesses.split("\nLeft distributivity fails")

    def verdicts(part):
        return [line.rsplit("equal = ", 1)[1] for line in part.splitlines()
                if "equal = " in line]

    # every B and C witness line shows a*x*b = a*x*c; left
    # distributivity fails
    assert (verdicts(b_part), verdicts(c_part)) == (["True"] * 3, ["True"] * 2)
    assert verdicts(left) == ["False"]

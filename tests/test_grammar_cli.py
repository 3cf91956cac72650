"""Expression grammar, canonical rendering, CLI behavior, JSON reports."""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings

from hnn_nearring import (
    SEED_LIMIT,
    SUITES,
    EngineError,
    Report,
    ExprSyntaxError,
    SampleConfig,
    Variant,
    WrongVariant,
    add,
    identity_element,
    make_int,
    make_pi,
    make_stable,
    mul,
    neg,
    parse_element,
    render,
    run_cli,
    sample_element,
    scale,
    witness_nonequiprime_C,
    write_report,
)
from hnn_nearring import cli_io
from conftest import colliding_halves, elements

A = Variant.A_INT_BASE
B = Variant.B_FREE_BASE
C = Variant.C_INT_OMEGA_BASE


#: the interpreter's limit on integer <-> text conversion (0: none)
_DIGIT_LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
#: an integer literal too long to read, and one whose square is too long
#: to print (about 1.4 times the limit's digits)
_UNREADABLE = "9" * (_DIGIT_LIMIT + 700)
_UNPRINTABLE_SQUARE = "7" * (_DIGIT_LIMIT * 7 // 10)


def _tower(levels, a="1", b="2"):
    """``t[...t[t[a,b],b]...,b]``, nested ``levels`` letters deep."""
    text = f"t[{a},{b}]"
    for _ in range(levels - 1):
        text = f"t[{text},{b}]"
    return text


def _staircase(levels):
    """The sum of towers ``levels``, ``levels - 1``, ..., 1 letters deep."""
    return " + ".join(_tower(k) for k in range(levels, 0, -1))


class TestParse:
    def test_relation_example(self):
        e = parse_element("-t[1,2] + 1 + t[1,2]", A)
        assert e is make_int(2, A)
        assert render(e) == "2"

    def test_whitespace_insensitive(self):
        assert parse_element("-t[ 1 , 2 ]+1+t[1,2]", A) is parse_element(
            "-t[1,2] + 1 + t[1,2]", A)

    def test_letter_with_scalar_subscript(self):
        e = parse_element("t[pi(1), 2*pi(1)]", B)
        pi1 = make_pi([1])
        assert e is make_stable(pi1, parse_element("2*pi(1)", B))

    def test_scalar_is_repeated_addition(self):
        assert parse_element("3*t[1,2]", A) is parse_element(
            "t[1,2] + t[1,2] + t[1,2]", A)

    def test_parenthesized_difference(self):
        assert parse_element("(1 + 2) - 3", A) is parse_element("0", A)

    def test_wrong_variant_atoms(self):
        with pytest.raises(WrongVariant):
            parse_element("om(0)", A)
        with pytest.raises(WrongVariant):
            parse_element("pi(1)", A)
        with pytest.raises(WrongVariant):
            parse_element("5", B)

    def test_scalar_allowed_under_free_base(self):
        assert parse_element("2*pi(1)", B) is make_pi([(1, 2)])

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_element("1 + $", A)
        assert exc.value.position == 4
        with pytest.raises(ExprSyntaxError):
            parse_element("t[1,", A)
        with pytest.raises(ExprSyntaxError):
            parse_element("1 2", A)

    @pytest.mark.parametrize("text, message, position", [
        ("1 2", "trailing input 2", 2),
        ("t[1,", "expected a term, found END", 4),
        ("1 + $", "unexpected character '$'", 4),
        ("t[1,2", "expected ], found END", 5),
        ("(1", "expected ), found END", 2),
        ("t[1;2]", "unexpected character ';'", 3),
        ("t[1,2]]", "trailing input ']'", 6),
        ("", "expected a term, found END", 0),
        ("-", "expected a term, found END", 1),
        ("3*", "expected a term, found END", 2),
        ("foo(1)", "unknown name 'foo'", 0),
    ])
    def test_syntax_error_text(self, text, message, position):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_element(text, A)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    @pytest.mark.skipif(not _DIGIT_LIMIT, reason="no limit on integer text")
    def test_overlong_literal_is_a_syntax_error(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_element("1 + " + "9" * (_DIGIT_LIMIT + 1), A)
        assert str(exc.value) == (f"integer literal longer than {_DIGIT_LIMIT} digits "
                                  f"(at position 4)")

    def test_unclosed_atom_of_the_wrong_variant(self):
        with pytest.raises(WrongVariant) as exc:
            parse_element("om(1", A)
        assert str(exc.value) == "om(...) is not available under variant A"


class TestRender:
    def test_zero(self):
        from hnn_nearring import ZERO
        assert render(ZERO) == "0"

    def test_letter(self):
        assert render(make_stable(make_int(2, A), make_int(-2, A))) == "t[2,-2]"

    def test_self_similar_tower_is_refused_quickly(self):
        # each level doubles the text while the element stays a small DAG
        x = make_int(1, A)
        for _ in range(30):
            x = make_stable(x, neg(x))
        start = time.perf_counter()
        with pytest.raises(EngineError, match="refusing to render"):
            render(x)
        assert time.perf_counter() - start < 1.0

    def test_10000_level_tower_round_trips(self):
        text = _tower(10_000, "pi(1)", "pi(2)")
        e = parse_element(text, B)
        assert e.level == 10_000
        assert render(e) == text

    @given(elements(A))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_A(self, e):
        assert parse_element(render(e), A) is e

    @given(elements(B))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_B(self, e):
        assert parse_element(render(e), B) is e

    @given(elements(C))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_C(self, e):
        assert parse_element(render(e), C) is e


class TestCli:
    def test_eval(self, capsys):
        assert run_cli(["eval", "--variant", "A", "-t[1,2]+1+t[1,2]"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_mul_matches_library(self, capsys):
        assert run_cli(["mul", "--variant", "A", "t[1,-1]", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "t[2,-2]"
        assert out == render(mul(parse_element("t[1,-1]", A), parse_element("2", A)))

    def test_apply(self, capsys):
        assert run_cli(["apply", "--variant", "C", "--zeta", "om(0)", "om(1)"]) == 0
        assert capsys.readouterr().out.strip() == "om(2)"

    def test_member(self, capsys):
        assert run_cli(["member", "--variant", "B", "--subgroup", "W", "pi(1)"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert run_cli(["member", "--variant", "B", "--subgroup", "W", "pi(0)"]) == 0
        assert capsys.readouterr().out.strip() == "false"
        assert run_cli(["member", "--variant", "C", "--subgroup", "H", "om(1)"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_member_H_of_a_power_of_zeta_in_the_base(self, capsys):
        # 2*zeta is the base letter pi(3), so pi(3) + pi(4) is the image
        # of 2*pi(0) + pi(1)
        zeta = "t[pi(3),2*pi(1)] + pi(1) + -t[pi(3),2*pi(1)]"
        assert run_cli(["member", "--variant", "B", "--subgroup", "H", "--zeta", zeta,
                        "pi(3) + pi(4)"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_member_H_of_blocks_around_an_image_letter(self, capsys):
        # the image of pi(0) + t[pi(1),pi(2)] + pi(0): zeta's own letter
        # is also an image letter, and zeta's blocks read as powers first
        zeta = "t[pi(1),-2*pi(1)] + -pi(1) + -t[pi(1),-2*pi(1)]"
        assert run_cli(["member", "--variant", "B", "--subgroup", "H", "--zeta", zeta,
                        f"{zeta} + t[pi(2),pi(3)] + {zeta}"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_check_pass_and_json(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = run_cli(["check", "--variant", "C", "--suite", "nonequiprime",
                        "--seed", "7", "--count", "30", "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["passed"] is True
        assert payload["suite"] == "nonequiprime_C"
        assert list(payload) == ["suite", "variant", "seed", "count", "max_level",
                                 "cases_run", "passed", "failures", "witnesses"]

    @pytest.mark.parametrize("path", ["missing/report.json", ".", ""],
                             ids=["missing-directory", "directory", "empty"])
    def test_check_unwritable_json_is_a_usage_error(self, path, tmp_path, capsys,
                                                     monkeypatch):
        calls = []
        # the report file is opened before the suite runs
        monkeypatch.setitem(SUITES, "nonequiprime", ("BC", lambda v, c: calls.append(c)))
        monkeypatch.chdir(tmp_path)
        code = run_cli(["check", "--variant", "C", "--suite", "nonequiprime",
                        "--count", "3", "--json", path])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write report {path}: ")
        assert captured.err.count("\n") == 1
        assert calls == []

    def test_check_failure_exit_code(self):
        # one sampled triple is not enough to find a left-distributivity
        # counterexample at this seed, so the suite reports failure
        code = run_cli(["check", "--variant", "A", "--suite", "leftdistrib",
                        "--seed", "1", "--count", "1"])
        assert code == 1

    @pytest.mark.parametrize("flag, value", [("--count", "0"), ("--count", "-3"),
                                             ("--depth", "-1")])
    def test_check_rejects_out_of_range_sizes(self, flag, value, capsys):
        code = run_cli(["check", "--variant", "A", "--suite", "axioms", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be at least" in err

    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT])
    def test_check_rejects_out_of_range_seed(self, seed, capsys):
        code = run_cli(["check", "--variant", "A", "--suite", "axioms", "--seed", str(seed)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --seed: must be " in captured.err

    @pytest.mark.parametrize("seed", [0, SEED_LIMIT - 1])
    def test_check_accepts_seed_range_ends(self, seed, tmp_path, monkeypatch):
        configs = []

        def stub(variant, config):
            configs.append(config)
            return Report("stub", variant, config, 1)

        monkeypatch.setitem(SUITES, "axioms", ("A", stub))
        path = tmp_path / "report.json"
        code = run_cli(["check", "--variant", "A", "--suite", "axioms",
                        "--seed", str(seed), "--json", str(path)])
        assert code == 0
        assert [c.seed for c in configs] == [seed]
        assert json.loads(path.read_text())["seed"] == seed

    def test_option_value_starting_with_dash(self, capsys):
        assert run_cli(["apply", "--variant", "A", "--zeta=-t[1,2]", "3"]) == 0
        joined = capsys.readouterr().out
        assert run_cli(["apply", "--variant", "A", "--zeta", "-t[1,2]", "3"]) == 0
        assert capsys.readouterr().out == joined
        assert run_cli(["apply", "--variant", "A", "3", "--zeta", "-t[1,2]"]) == 0
        assert capsys.readouterr().out == joined

    @pytest.mark.parametrize("option", sorted(
        opt for opt, takes_value in cli_io._options(cli_io.build_parser()).items()
        if takes_value))
    def test_every_value_option_takes_a_value_starting_with_dash(self, option):
        parser = cli_io.build_parser()
        for argv in (["cmd", option, "-t[1,2]", "x"], ["cmd", "x", option, "-t[1,2]"],
                     ["cmd", f"{option}=-t[1,2]", "x"]):
            assert cli_io._normalize_argv(parser, argv) == [
                "cmd", f"{option}=-t[1,2]", "--", "x"]

    def test_an_added_option_needs_no_second_list(self):
        parser = argparse.ArgumentParser()
        parser.add_subparsers().add_parser("cmd").add_argument("--new")
        assert cli_io._normalize_argv(parser, ["cmd", "--new", "-1", "x"]) == [
            "cmd", "--new=-1", "--", "x"]

    def test_check_defaults_are_the_sample_config_defaults(self):
        args = cli_io.build_parser().parse_args(
            ["check", "--variant", "A", "--suite", "axioms"])
        assert (args.seed, args.count, args.depth) == SampleConfig()

    def test_python_dash_m(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "hnn_nearring", "eval", "--variant", "A",
             "-t[1,2] + 1 + t[1,2]"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2"
        assert proc.stderr == ""

    @pytest.mark.parametrize("args", [
        # a sum of towers 600, 599, ..., 1 levels deep: add meets each
        # coefficient through _assemble, one chain of frames per level
        ["eval", "--variant", "A", _staircase(600)],
    ], ids=["eval-staircase-600"])
    def test_deep_nesting_is_a_usage_error(self, args, capsys):
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expression nested too deeply\n"

    @pytest.mark.parametrize("args, out", [
        (["eval", "--variant", "A", _tower(450)], _tower(450)),
        (["apply", "--variant", "A", "--zeta=" + _tower(200), _tower(200)], None),
        (["member", "--variant", "B", "--subgroup", "W", _tower(450, "pi(1)", "pi(2)")],
         "true"),
        (["eval", "--variant", "A", _tower(800)], _tower(800)),
        (["apply", "--variant", "A", "--zeta=" + _tower(300), _tower(300)], None),
        (["member", "--variant", "C", "--subgroup", "H", _tower(800)], "false"),
        (["eval", "--variant", "A", _staircase(400)], None),
    ], ids=["eval-450", "apply-200", "member-W-450", "eval-800", "apply-300",
            "member-H-800", "eval-staircase-400"])
    def test_moderate_nesting_evaluates(self, args, out, capsys):
        # the parser, the renderer and the structural walks run on explicit
        # stacks; a walk that recursed per level would fail here
        assert run_cli(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if out is not None:
            assert captured.out.strip() == out

    def test_python_dash_m_eval_of_a_10000_level_tower(self):
        tower = _tower(10_000)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "hnn_nearring", "eval", "--variant", "A", tower],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == tower + "\n"

    @pytest.mark.parametrize("args, out", [
        (["--variant", "C", _tower(10_000)], "false"),
        (["--variant", "B", "--zeta", "t[pi(0),pi(1)]", _tower(10_000, "pi(2)", "pi(3)")],
         "true"),
    ], ids=["C", "B-level-1-zeta"])
    def test_python_dash_m_member_H_of_a_10000_level_tower(self, args, out):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "hnn_nearring", "member", "--subgroup", "H", *args],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", out + "\n")

    def test_oversized_result_is_a_usage_error(self, capsys):
        # the product of two 2,000-level towers renders to about 4e7 characters
        assert run_cli(["mul", "--variant", "A", _tower(2000), _tower(2000)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: refusing to render")
        assert "Traceback" not in captured.err

    @pytest.mark.skipif(not _DIGIT_LIMIT, reason="no limit on integer text")
    @pytest.mark.parametrize("args", [
        ["eval", "--variant", "A", _UNREADABLE],
        ["eval", "--variant", "B", f"pi({_UNREADABLE})"],
        ["mul", "--variant", "A", _UNPRINTABLE_SQUARE, _UNPRINTABLE_SQUARE],
        ["apply", "--variant", "B", "--zeta", "pi(1)", f"pi({'9' * _DIGIT_LIMIT})"],
        ["apply", "--variant", "C", "--zeta", "om(0)", f"om({'9' * _DIGIT_LIMIT})"],
        ["apply", "--variant", "A", "--zeta", "t[1,2]",
         f"{_UNPRINTABLE_SQUARE}*{_UNPRINTABLE_SQUARE}"],
    ], ids=["eval-literal", "eval-pi-index", "mul-product", "apply-pi-index",
            "apply-om-index", "apply-scale-exponent"])
    def test_integers_past_the_digit_limit_are_usage_errors(self, args):
        # int(str) and str(int) raise ValueError past the interpreter's
        # limit; the parser, the renderer and scale's refusal message each
        # turn that into an error line
        env = dict(os.environ, PYTHONPATH=str(_SRC))
        proc = subprocess.run([sys.executable, "-m", "hnn_nearring", *args],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [
        ["member", "--variant", "A", "--subgroup", "H", "1"],
        ["member", "--variant", "B", "--subgroup", "H", "pi(1)"],
        # an engine error in a complete prefix may come before a later syntax error
        ["eval", "--variant", "A", "t[1,1] 2"],
        ["member", "--variant", "B", "--subgroup", "W", "--zeta", "pi(1)", "pi(1)"],
        ["member", "--variant", "B", "--subgroup", "W", "--zeta=((", "pi(1)"],
    ], ids=["member-H-A", "member-H-B", "engine-error-before-syntax-error",
            "member-W-zeta", "member-W-malformed-zeta"])
    def test_errors_carry_the_prefix(self, args, capsys):
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("variant", [A, B, C], ids=["A", "B", "C"])
    def test_an_undefined_product_is_a_usage_error(self, variant, capsys):
        # f_z sends u and the identity to z, so the letter t[u,1] has no
        # image, nor has t[u + -1,2], whose first subscript goes to 0
        # (README, "What it computes")
        z, u = colliding_halves(variant)
        one = identity_element(variant)
        letters = [(make_stable(u, one), f" to t[{render(z)},{render(z)}], which is no letter\n"),
                   (make_stable(add(u, neg(one)), scale(2, one)), " to t[0,")]
        for letter, tail in letters:
            assert run_cli(["mul", "--variant", variant.value, render(letter), render(z)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: product undefined: the embedding sends "
                                           f"the letter {render(letter)}")
            assert tail in captured.err
            assert captured.err.count("\n") == 1
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize("suite, tag, supported", [
        ("nonequiprime", "A", "B or C"), ("equiprime", "B", "A"),
        ("equiprime", "C", "A"), ("invariants", "A", "B or C"),
    ])
    def test_check_rejects_unsupported_variant(self, suite, tag, supported, capsys):
        assert run_cli(["check", "--variant", tag, "--suite", suite, "--count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: suite {suite} runs under variant {supported} "
                                f"only, not {tag}\n")

    def test_usage_errors(self):
        assert run_cli(["eval", "--variant", "A", "om(0)"]) == 2
        assert run_cli(["check", "--variant", "A", "--suite", "nonequiprime"]) == 2
        assert run_cli(["eval", "--variant", "Z", "1"]) == 2
        assert run_cli(["eval", "--variant", "A", "t[1,"]) == 2
        assert run_cli(["member", "--variant", "A", "--subgroup", "H", "1"]) == 2


_START_UP = """
import sys
before = set(sys.modules)
import hnn_nearring.cli_io
print(sorted(m for m in ("dataclasses", "inspect", "json") if m not in before
             and m in sys.modules))
code = hnn_nearring.cli_io.run_cli(["check", "--variant", "A", "--suite", "leftdistrib",
                                    "--seed", "7", "--count", "200", "--depth", "3",
                                    "--json", sys.argv[1]])
print(code, "json" in sys.modules)
"""


class TestStartUp:
    def test_no_dataclasses_and_json_only_with_a_report(self, tmp_path):
        # every one-shot command imports the library; dataclasses (with
        # inspect, ast and dis) and json would add to each start-up
        path = tmp_path / "report.json"
        env = dict(os.environ, PYTHONPATH=str(_SRC))
        proc = subprocess.run([sys.executable, "-c", _START_UP, str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[0] == "[]"
        assert proc.stdout.splitlines()[-1] == "0 True"
        golden = _SRC.parent / "tests" / "golden" / "left_distrib_counterexample_A_seed7.json"
        assert path.read_bytes() == golden.read_bytes()

    def test_the_package_import_loads_every_library_module(self):
        # the benchmark takes each module's import time from this output,
        # with this pattern (bench/run.py, import_seconds), and stops on a
        # module it finds no line for
        env = dict(os.environ, PYTHONPATH=str(_SRC))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hnn_nearring"],
                              capture_output=True, text=True, env=env, timeout=60)
        pattern = re.compile(r"import time:\s*(\d+) \|\s*\d+ \|\s*hnn_nearring\.(\w+)\s*$")
        loaded = {m.group(2) for m in map(pattern.match, proc.stderr.splitlines()) if m}
        missing = {"word_core", "nearring_maps", "grammar", "verify_suites", "cli_io"} - loaded
        assert not missing, (f"import hnn_nearring no longer loads {sorted(missing)}; a lazy "
                             "module waits for the benchmark change of ROADMAP item 7")


class TestReports:
    def test_byte_identical_reruns(self):
        cfg = SampleConfig(seed=11, count=25)
        r1 = witness_nonequiprime_C(cfg)
        r2 = witness_nonequiprime_C(cfg)
        assert write_report(r1) == write_report(r2)

    def test_reports_carry_their_depth(self, tmp_path, capsys):
        # once the reports at --depth 3 and 4 were byte for byte the same
        paths = [tmp_path / f"depth{depth}.json" for depth in (3, 4)]
        for depth, path in zip((3, 4), paths):
            assert run_cli(["check", "--variant", "A", "--suite", "conjugacy", "--seed", "7",
                            "--count", "5", "--depth", str(depth), "--json", str(path)]) == 0
        payloads = [json.loads(path.read_text()) for path in paths]
        assert [p["max_level"] for p in payloads] == [3, 4]
        assert paths[0].read_bytes() != paths[1].read_bytes()

    def test_failure_shape(self):
        from hnn_nearring import Report
        rep = Report("synthetic", A, SampleConfig(seed=1, count=1), 1)
        rep.record(("x",), "lhs = rhs", "lhs != rhs")
        payload = json.loads(write_report(rep))
        assert payload["passed"] is False
        assert payload["failures"] == [
            {"inputs": ["x"], "expected": "lhs = rhs", "got": "lhs != rhs"}]

    def test_sampler_renders_round_trip(self):
        cfg = SampleConfig(seed=3, count=0)
        for variant in (A, B, C):
            for pos in range(40):
                e = sample_element(cfg, pos, variant)
                assert parse_element(render(e), variant) is e

"""Sampler determinism, coverage and memos; every suite passes at small
scale and starts from empty engine memos."""

import importlib
import pathlib
import random
import sys
import threading

import pytest

from hnn_nearring import (
    SUITES,
    ZERO,
    Report,
    SampleConfig,
    Variant,
    WrongVariant,
    check_conjugacy,
    check_equiprime_instances_A,
    check_invariant_subgroups,
    check_nearring_axioms,
    cyclic_reduce,
    find_left_distrib_counterexample,
    f_eval,
    in_w,
    level,
    make_pi,
    mu,
    mul,
    parse_element,
    preimage,
    preimage_detail,
    render,
    renormalize,
    run_cli,
    sample_element,
    sample_nonzero,
    sample_w_element,
    witness_nonequiprime_B,
    witness_nonequiprime_C,
    write_report,
)
from hnn_nearring import nearring_maps, verify_suites, word_core
from hnn_nearring.word_core import EngineError

A = Variant.A_INT_BASE
B = Variant.B_FREE_BASE
C = Variant.C_INT_OMEGA_BASE

SMALL = SampleConfig(seed=7, count=40)


class TestSampler:
    def test_deterministic(self):
        cfg = SampleConfig(seed=5, count=0)
        for variant in (A, B, C):
            first = [sample_element(cfg, k, variant) for k in range(30)]
            second = [sample_element(cfg, k, variant) for k in range(30)]
            assert all(x is y for x, y in zip(first, second))

    def test_seed_changes_stream(self):
        xs = [sample_element(SampleConfig(seed=1, count=0), k, A) for k in range(20)]
        ys = [sample_element(SampleConfig(seed=2, count=0), k, A) for k in range(20)]
        assert any(x is not y for x, y in zip(xs, ys))

    def test_level_coverage(self):
        cfg = SampleConfig(seed=7, count=0)
        for variant in (A, B, C):
            seen = {level(sample_element(cfg, k, variant)) for k in range(100)}
            assert {0, 1, 2} <= seen

    def test_canonical_stream(self):
        cfg = SampleConfig(seed=9, count=0)
        for variant in (A, B, C):
            for k in range(30):
                e = sample_element(cfg, k, variant)
                assert renormalize(e) is e

    def test_nonzero_sampler(self):
        cfg = SampleConfig(seed=13, count=0)
        for variant in (A, B, C):
            assert all(sample_nonzero(cfg, k, variant).level >= 0 for k in range(30))

    def test_nonzero_redraws_keep_the_level_cap(self):
        # position 65 at seed 1 draws zero first under A; its redraw once
        # took the config's max_level 4 for its cap, not the caller's 1
        cfg = SampleConfig(seed=1, count=60, max_level=4)
        for variant in (A, B, C):
            assert all(level(sample_nonzero(cfg, k, variant, max_level=1)) <= 1
                       for k in range(61, 130))

    def test_w_sampler_members(self):
        cfg = SampleConfig(seed=21, count=0)
        for k in range(30):
            assert in_w(sample_w_element(cfg, k))

    def test_w_is_the_image_of_pi1(self):
        # the invariants suite samples W as images under the embedding of
        # pi(1); on sampled elements membership and an inverse image under
        # pi(1) go together, and the inverse image maps back
        pi1 = make_pi([1])
        cfg = SampleConfig(seed=31, count=0, max_level=4)
        xs = [sample_element(cfg, k, B) for k in range(60)]
        xs += [sample_w_element(cfg, k) for k in range(30)]
        assert 0 < sum(map(in_w, xs)) < len(xs)
        for x in xs:
            back = preimage(pi1, x)
            assert in_w(x) == (back is not None)
            if back is not None:
                assert f_eval(pi1, back) is x

    def test_max_level_respected(self):
        cfg = SampleConfig(seed=3, count=0, max_level=2)
        assert all(level(sample_element(cfg, k, C)) <= 2 for k in range(60))

    def test_draws_are_what_random_draws(self):
        # the samplers draw integers and signs through _draw, which must
        # give what randint and choice give from an identically seeded
        # random.Random: every range the samplers use lies in -6..8
        ranges = [(lo, hi) for lo in range(-6, 2) for hi in range(lo, 9)]
        for seed in (0, 1, 11, 2**64 + 5):
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(8):
                for lo, hi in ranges:
                    assert verify_suites._draw(ours, lo, hi) == ref.randint(lo, hi)
                    assert (verify_suites._SIGNS[verify_suites._draw(ours, 0, 1)]
                            == ref.choice((1, -1)))
            assert ours.getstate() == ref.getstate()


class TestSuitesPass:
    @pytest.mark.parametrize("variant", [A, B, C])
    def test_axioms(self, variant):
        rep = check_nearring_axioms(variant, SMALL)
        assert rep.passed and rep.cases_run == 40

    def test_axioms_empty_config(self):
        rep = check_nearring_axioms(A, SampleConfig(seed=7, count=0))
        assert rep.passed and rep.cases_run == 0

    @pytest.mark.parametrize("variant", [A, B, C])
    def test_conjugacy(self, variant):
        assert check_conjugacy(variant, SMALL).passed

    def test_nonequiprime_B(self):
        rep = witness_nonequiprime_B(SMALL)
        assert rep.passed
        assert rep.cases_run == 41  # the zero case plus the sampled stream
        assert rep.witnesses

    def test_nonequiprime_C(self):
        rep = witness_nonequiprime_C(SMALL)
        assert rep.passed and rep.witnesses

    def test_equiprime_A(self):
        rep = check_equiprime_instances_A(SMALL)
        assert rep.passed
        assert "x = t[1,-1]" in rep.witnesses

    @pytest.mark.parametrize("variant", [B, C])
    def test_invariants(self, variant):
        rep = check_invariant_subgroups(variant, SMALL)
        assert rep.passed and rep.witnesses

    @pytest.mark.parametrize("variant, member, probe_failures, witnesses, claims", [
        (B, "in_w",
         [(["pi(0)"], "in_w(pi(0)) = False", "True"),
          (["pi(1)"], "in_w(pi(1)) = True", "False")],
         ["in_w(pi(0)) = True", "in_w(pi(1)) = False"],
         ["g*w in W", "w*g in W"]),
        (C, "in_h",
         [(["om(0)"], "in_h(om(0), om(0)) = True", "False")],
         ["in_h(om(0), om(0)) = False", "in_h(om(0), 1) = True"],
         ["g*h in H", "h*g in H"]),
    ])
    def test_invariants_failure_texts(self, variant, member, probe_failures, witnesses,
                                      claims, monkeypatch):
        # a membership test that answers the opposite rejects every
        # product and turns every probe around
        real = getattr(nearring_maps, member)
        monkeypatch.setattr(nearring_maps, member, lambda *args: not real(*args))
        rep = check_invariant_subgroups(variant, SampleConfig(seed=7, count=2))
        assert not rep.passed and rep.cases_run == 2
        assert rep.witnesses == witnesses
        n = len(probe_failures)
        assert [(f["inputs"], f["expected"], f["got"])
                for f in rep.failures[:n]] == probe_failures
        products = rep.failures[n:]
        assert [f["expected"] for f in products] == claims * 2
        for f in products:  # inputs are the factors in product order
            left, right = (parse_element(text, variant) for text in f["inputs"])
            assert f["got"] == render(mul(left, right))

    def test_invariants_wrong_variant(self):
        with pytest.raises(WrongVariant):
            check_invariant_subgroups(A, SMALL)

    @pytest.mark.parametrize("variant", [A, B, C])
    def test_left_distrib(self, variant):
        rep = find_left_distrib_counterexample(variant, SampleConfig(seed=7, count=300))
        assert rep.passed and rep.witnesses

    def test_left_distrib_not_found_is_failure(self):
        rep = find_left_distrib_counterexample(A, SampleConfig(seed=7, count=0))
        assert not rep.passed


class TestReportReproducibility:
    @pytest.mark.parametrize("make", [
        lambda: check_nearring_axioms(B, SMALL),
        lambda: check_conjugacy(C, SMALL),
        lambda: witness_nonequiprime_B(SMALL),
        lambda: check_invariant_subgroups(C, SMALL),
    ])
    def test_identical_reruns(self, make):
        r1, r2 = make(), make()
        assert r1 == r2


class TestRecordTypes:
    """``SampleConfig`` and ``PreimageResult`` are named tuples and
    ``Report`` a ``SimpleNamespace``: the library imports no
    ``dataclasses``."""

    def test_config_fields_are_read_only(self):
        cfg = SampleConfig(seed=5)
        with pytest.raises(AttributeError):
            cfg.seed = 6
        assert cfg.seed == 5

    def test_equal_configs_hash_equal(self):
        x, y = SampleConfig(seed=5, max_level=2), SampleConfig(5, 200, 2)
        assert x == y and hash(x) == hash(y)
        assert x == (5, 200, 2)
        assert x != SampleConfig(seed=6, max_level=2)

    def test_report_starts_empty_and_compares_by_value(self):
        r1, r2 = Report("s", A, SMALL, 2), Report("s", A, SMALL, 2)
        assert (r1.failures, r1.witnesses, r1.passed) == ([], [], True)
        assert r1 == r2 and r1.failures is not r2.failures
        r1.record(("x",), "e", "g")
        assert r1 != r2 and r2.failures == [] and not r1.passed
        assert repr(r2).startswith("Report(suite_name='s', variant=<Variant.A")

    def test_passed_stays_false_past_the_kept_failures(self):
        rep = Report("s", A, SMALL, 26)
        for case in range(26):
            assert rep.passed is (case == 0)
            rep.record((str(case),), "e", "g")
        assert len(rep.failures) == 25 and rep.passed is False
        with pytest.raises(AttributeError):
            rep.passed = True


class TestMemos:
    """The two samplers are ``functools.cache`` functions, and ``_invert``
    folds into a memo of its own call; a memo may change the cost of a
    run, never its elements or its report bytes."""

    SAMPLERS = (sample_element, sample_nonzero)

    def test_warm_sampler_matches_the_computation(self):
        cfg = SampleConfig(seed=101, count=0, max_level=3)
        for variant in (A, B, C):
            for k in range(40):
                for sampler, args in ((sample_element, ()), (sample_nonzero, ()),
                                      (sample_nonzero, (1,))):
                    warm = sampler(cfg, k, variant, *args)
                    assert sampler(cfg, k, variant, *args) is warm
                    assert sampler.__wrapped__(cfg, k, variant, *args) is warm

    @pytest.mark.parametrize("field, value", [("max_level", 4), ("seed", 104)])
    def test_every_config_field_is_in_the_key(self, field, value):
        # a key that dropped a field would hand the second config the
        # first config's elements
        base = SampleConfig(seed=103, count=0, max_level=3)
        other = base._replace(**{field: value})
        for sampler in self.SAMPLERS:
            xs = [sampler(base, k, A) for k in range(40)]
            ys = [sampler(other, k, A) for k in range(40)]
            assert ys == [sampler.__wrapped__(other, k, A) for k in range(40)]
            assert any(x is not y for x, y in zip(xs, ys))

    def test_cache_clear_resamples_identical_objects(self):
        cfg = SampleConfig(seed=107, count=0, max_level=4)
        before = [[sampler(cfg, k, v) for k in range(30) for v in (A, B, C)]
                  for sampler in self.SAMPLERS]
        for sampler in self.SAMPLERS:
            sampler.cache_clear()
            assert sampler.cache_info().currsize == 0
        after = [[sampler(cfg, k, v) for k in range(30) for v in (A, B, C)]
                 for sampler in self.SAMPLERS]
        assert all(x is y for xs, ys in zip(before, after) for x, y in zip(xs, ys))

    def test_reverse_order_matches_the_goldens(self):
        # the suites share sample streams and inverse images; run in the
        # opposite order, each still writes its golden report byte for byte
        golden = pathlib.Path(__file__).resolve().parent / "golden"
        config = SampleConfig(seed=7, count=200, max_level=3)
        for sampler in self.SAMPLERS:
            sampler.cache_clear()
        pairs = [(tag, runner) for tags, runner in SUITES.values() for tag in tags]
        assert len(pairs) == 14
        for tag, runner in reversed(pairs):
            report = runner(Variant(tag), config)
            path = golden / f"{report.suite_name}_{tag}_seed{config.seed}.json"
            assert write_report(report) == path.read_bytes()

    def test_inverse_memo_repeats_the_cold_answer(self):
        # a warm search gives the cold reason, no_parse included (the
        # merged-block pair of TestKnownFaults)
        cfg = SampleConfig(seed=109, count=0, max_level=3)
        cases = [(parse_element("t[-2,2] + 1 + -t[-2,2]", v),
                  parse_element("t[-3,3] + -t[2,-2] + 5", v)) for v in (A, C)]
        cases += [(sample_nonzero(cfg, 2 * k, v), sample_element(cfg, 2 * k + 1, v))
                  for k in range(20) for v in (A, B, C)]
        xs = [f_eval(z, y) for z, y in cases]
        cold = [preimage_detail(z, x) for (z, _), x in zip(cases, xs)]
        assert {"ok", "no_parse"} <= {d.reason for d in cold}
        warm = [preimage_detail(z, x) for (z, _), x in zip(cases, xs)]
        assert warm == cold
        assert cold[0].reason == "no_parse"


#: the seven public suites, with the arguments of a small run
SUITE_CALLS = [
    (check_nearring_axioms, (C, SMALL)),
    (check_conjugacy, (B, SMALL)),
    (witness_nonequiprime_B, (SMALL,)),
    (witness_nonequiprime_C, (SMALL,)),
    (check_equiprime_instances_A, (SMALL,)),
    (check_invariant_subgroups, (C, SMALL)),
    (find_left_distrib_counterexample, (A, SMALL)),
]

ENGINE_FUNCTION_MEMOS = (word_core._coset_split,)
#: the benchmark, whose tracer rebinds the library's public names
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _engine_memo_sizes():
    return ([len(nearring_maps._F_CACHE)]
            + [fn.cache_info().currsize for fn in ENGINE_FUNCTION_MEMOS])


def _tracing(monkeypatch):
    """The benchmark's ``tracing`` module, imported from ``bench/``."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def _image_cases(seed, max_level=3, per_variant=10):
    cfg = SampleConfig(seed=seed, count=0, max_level=max_level)
    return [(sample_nonzero(cfg, 2 * k, v), sample_element(cfg, 2 * k + 1, v))
            for v in (A, B, C) for k in range(per_variant)]


class TestMemoDrop:
    """Every public suite empties the engine's two memos when it starts;
    the samplers' memos stay, and so does every interned value a caller
    or a sampler holds, so the elements a caller kept are the ones a
    recomputation returns."""

    #: an embedding image that no suite computes: no sampled basis index
    #: reaches 9
    PLANTED = (make_pi([(9, 2)]), make_pi([(9, -1), (0, 1)]))

    def _plant(self):
        zeta, x = self.PLANTED
        f_eval(zeta, x)
        assert x in nearring_maps._F_CACHE[zeta]

    def _planted_is_gone(self):
        zeta, x = self.PLANTED
        return x not in nearring_maps._F_CACHE.get(zeta, {})

    @pytest.mark.parametrize("suite, args", SUITE_CALLS,
                             ids=[suite.__name__ for suite, _ in SUITE_CALLS])
    def test_suite_drops_the_memos_and_keeps_the_intern_tables(self, suite, args):
        table = word_core._INTERNED
        self._plant()
        kept = dict(table)
        suite(*args)
        # the suite started from empty memos, and they hold what it filled
        # them with
        assert self._planted_is_gone()
        assert sum(m for _, _, m in nearring_maps.memo_stats().values()) > 0
        assert word_core._INTERNED is table
        assert all(table[key] is value for key, value in kept.items())
        assert sample_element.cache_info().currsize > 0

    def test_a_suite_after_a_raising_suite_starts_empty(self, monkeypatch):
        def failing_mul(a, b):
            self._plant()
            raise EngineError("product refused")

        witness_nonequiprime_B(SMALL)  # warms the samplers
        clean = nearring_maps.memo_stats()
        with monkeypatch.context() as patch:
            patch.setattr(nearring_maps, "mul", failing_mul)
            with pytest.raises(EngineError, match="product refused"):
                witness_nonequiprime_C(SMALL)
        assert not self._planted_is_gone()
        witness_nonequiprime_B(SMALL)
        assert self._planted_is_gone()
        assert nearring_maps.memo_stats() == clean

    def test_memo_counts_after_a_suite_ignore_the_suite_before(self):
        # a cold sampler draw fills the coset memo itself, so every stream
        # is drawn once before the counts are compared
        for suite, args in SUITE_CALLS:
            suite(*args)
        check_nearring_axioms(B, SMALL)
        counts = []
        for suite, args in SUITE_CALLS:
            suite(*args)
            check_nearring_axioms(B, SMALL)
            counts.append(nearring_maps.memo_stats())
        assert all(c == counts[0] for c in counts)
        assert counts[0]["nearring_maps._F_CACHE"][2] > 0

    def test_kept_elements_are_recomputed_identically(self):
        cases = _image_cases(113)
        images = [f_eval(z, x) for z, x in cases]
        back = [preimage(z, y) for (z, _), y in zip(cases, images)]
        nonzero = [x for _, x in cases if x is not ZERO]
        reduced = [cyclic_reduce(x) for x in nonzero]
        offsets = [mu(z) for z, _ in cases if z.variant is B]
        nearring_maps.drop_memos()
        assert _engine_memo_sizes() == [0] * 2
        assert all(f_eval(z, x) is y for (z, x), y in zip(cases, images))
        assert all(preimage(z, y) is x for (z, _), y, x in zip(cases, images, back))
        assert all(u is v for x, pair in zip(nonzero, reduced)
                   for u, v in zip(cyclic_reduce(x), pair))
        assert [mu(z) for z, _ in cases if z.variant is B] == offsets

    def test_drop_inside_a_fold_gives_the_clean_image(self, monkeypatch):
        # a fold keeps the memo it was handed, so a drop while it runs
        # (here at every sum of pieces) leaves its answer as it was
        cases = _image_cases(127, max_level=4)
        nearring_maps.drop_memos()
        clean = [f_eval(z, x) for z, x in cases]
        nearring_maps.drop_memos()
        drops = []
        sum_elements = nearring_maps.sum_elements

        def dropping(pieces):
            drops.append(None)
            nearring_maps.drop_memos()
            return sum_elements(pieces)

        monkeypatch.setattr(nearring_maps, "sum_elements", dropping)
        assert all(f_eval(z, x) is y for (z, x), y in zip(cases, clean))
        assert len(drops) > len(cases)

    def test_drop_reaches_memos_behind_rebound_names(self, monkeypatch):
        # the benchmark's tracer rebinds the public names of the engine to
        # plain wrappers in every namespace that binds them
        wrapped = _tracing(monkeypatch).WRAPPED
        names = {*wrapped["word_core"], *wrapped["nearring_maps"]}
        for module in (word_core, nearring_maps):
            for name in names & vars(module).keys():
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *args, fn=fn: fn(*args))
        nearring_maps.drop_memos()
        for zeta, x in _image_cases(137):
            nearring_maps.mul(x, zeta)
        assert 0 not in _engine_memo_sizes()
        nearring_maps.drop_memos()
        assert _engine_memo_sizes() == [0] * 2

    def test_threads_fold_through_drops(self):
        # folds on three threads while a fourth drops the memos; each
        # image is the one a clean run gives
        cases = _image_cases(131)
        nearring_maps.drop_memos()
        clean = [f_eval(z, x) for z, x in cases]
        nearring_maps.drop_memos()
        done = threading.Event()
        results = [None] * 3

        def fold(i):
            results[i] = [f_eval(z, x) for z, x in cases]

        def drop():
            while not done.is_set():
                nearring_maps.drop_memos()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            dropper = threading.Thread(target=drop)
            dropper.start()
            folders = [threading.Thread(target=fold, args=(i,)) for i in range(3)]
            for th in folders:
                th.start()
            for th in folders:
                th.join(timeout=120)
            done.set()
            dropper.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in folders + [dropper])
        assert all(r is not None and all(u is v for u, v in zip(r, clean)) for r in results)


class TestTracedRun:
    """The benchmark's traced run (``bench/run.py --trace 1``) wraps the
    library's public functions in every namespace that binds them; the
    suites and ``check`` give the same bytes through the wrappers."""

    def _run(self, tmp_path):
        reports = [write_report(runner(Variant(tag), SMALL))
                   for tags, runner in SUITES.values() for tag in tags]
        path = tmp_path / "check.json"
        code = run_cli(["check", "--variant", "B", "--suite", "nonequiprime",
                        "--seed", "7", "--count", "40", "--json", str(path)])
        return reports, code, path.read_bytes()

    def test_traced_reports_match_the_untraced_ones(self, monkeypatch, tmp_path, capsys):
        plain = self._run(tmp_path)
        tracer = _tracing(monkeypatch).Tracer()
        tracer.install()
        try:
            traced = self._run(tmp_path)
        finally:
            tracer.uninstall()
        assert traced == plain and plain[1] == 0
        groups = {group for group, *_ in tracer.snapshot()["spans"]}
        assert {"verify_suites.suite", "word_core.cyclic_reduce",
                "nearring_maps.f_eval"} <= groups

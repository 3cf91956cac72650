"""Sampler determinism, coverage and memos; every suite passes at small
scale."""

import pathlib

import pytest

from hnn_nearring import (
    SUITES,
    Report,
    SampleConfig,
    Variant,
    WrongVariant,
    check_conjugacy,
    check_equiprime_instances_A,
    check_invariant_subgroups,
    check_nearring_axioms,
    find_left_distrib_counterexample,
    f_eval,
    in_w,
    level,
    make_pi,
    mul,
    parse_element,
    preimage,
    preimage_detail,
    render,
    renormalize,
    sample_element,
    sample_nonzero,
    sample_w_element,
    witness_nonequiprime_B,
    witness_nonequiprime_C,
    write_report,
)
from hnn_nearring import nearring_maps
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

    def test_nonequiprime_C_rejects_bad_indices(self):
        with pytest.raises(EngineError):
            witness_nonequiprime_C(SMALL, zeta1=1, zeta2=3)
        with pytest.raises(EngineError):
            witness_nonequiprime_C(SMALL, zeta1=2, zeta2=2)

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
        assert x == (5, 200, 2, 4, (-6, 6), (0, 5), (0, 3))
        assert x != SampleConfig(seed=6, max_level=2)

    def test_report_starts_empty_and_compares_by_value(self):
        r1, r2 = Report("s", A, SMALL, 2), Report("s", A, SMALL, 2)
        assert (r1.failures, r1.witnesses, r1.passed) == ([], [], True)
        assert r1 == r2 and r1.failures is not r2.failures
        r1.record(("x",), "e", "g")
        assert r1 != r2 and r2.failures == [] and not r1.passed
        assert repr(r2).startswith("Report(suite_name='s', variant=<Variant.A")


class TestMemos:
    """The two samplers are ``functools.cache`` functions, and ``_invert``
    folds into ``_INV_CACHE``, where ``None`` stands for no inverse image;
    a memo may change the cost of a run, never its elements or its report
    bytes."""

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

    @pytest.mark.parametrize("field, value", [("max_level", 4), ("int_range", (-60, 60))])
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
        nearring_maps._INV_CACHE.clear()
        pairs = [(tag, runner) for tags, runner in SUITES.values() for tag in tags]
        assert len(pairs) == 14
        for tag, runner in reversed(pairs):
            report = runner(Variant(tag), config)
            path = golden / f"{report.suite_name}_{tag}_seed{config.seed}.json"
            assert write_report(report) == path.read_bytes()

    def test_inverse_memo_repeats_the_cold_answer(self):
        # the memo stores a missing inverse image as None, so a warm search
        # gives the cold reason, no_parse included (the merged-block pair of
        # TestKnownFaults)
        cfg = SampleConfig(seed=109, count=0, max_level=3)
        cases = [(parse_element("t[-2,2] + 1 + -t[-2,2]", v),
                  parse_element("t[-3,3] + -t[2,-2] + 5", v)) for v in (A, C)]
        cases += [(sample_nonzero(cfg, 2 * k, v), sample_element(cfg, 2 * k + 1, v))
                  for k in range(20) for v in (A, B, C)]
        xs = [f_eval(z, y) for z, y in cases]
        nearring_maps._INV_CACHE.clear()
        cold = [preimage_detail(z, x) for (z, _), x in zip(cases, xs)]
        assert {"ok", "no_parse"} <= {d.reason for d in cold}
        warm = [preimage_detail(z, x) for (z, _), x in zip(cases, xs)]
        assert warm == cold
        stored = nearring_maps._INV_CACHE[cases[0][0]][xs[0]]
        assert cold[0].reason == "no_parse" and stored is None

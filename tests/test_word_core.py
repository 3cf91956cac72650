"""Core engine: constructors, canonical arithmetic, cyclic reduction,
power membership."""

import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hnn_nearring import (
    ZERO,
    DegeneratePair,
    SampleConfig,
    Seq,
    Variant,
    VariantMismatch,
    WrongVariant,
    ZeroAlpha,
    ZeroInput,
    add,
    check_nearring_axioms,
    conjugator,
    cyclic_reduce,
    equal,
    f_eval,
    level,
    make_int,
    make_omega,
    make_pi,
    make_stable,
    neg,
    parse_element,
    power_of,
    preimage,
    render,
    renormalize,
    sample_element,
    scale,
    size,
    sum_elements,
    top_letter_count,
)
from hnn_nearring import nearring_maps, word_core
from conftest import elements, load_script, nonzero_elements, sum_pieces

A = Variant.A_INT_BASE
B = Variant.B_FREE_BASE
C = Variant.C_INT_OMEGA_BASE


class TestConstructors:
    def test_zero_int(self):
        assert make_int(0, A) is ZERO
        assert equal(ZERO, make_int(0, A))

    def test_pi_identity(self):
        pi0 = make_pi([0])
        assert level(pi0) == 0
        assert make_pi([(0, 1)]) is pi0

    def test_pi_reduces(self):
        assert make_pi([(1, 2), (1, -2)]) is ZERO

    def test_omega_levels(self):
        assert level(make_omega(0, 1)) == 1
        assert level(make_omega(2, -3)) == 3
        assert make_omega(1, 0) is ZERO

    def test_int_rejected_under_free_base(self):
        with pytest.raises(WrongVariant):
            make_int(3, B)

    def test_stable_levels(self):
        one, two = make_int(1, A), make_int(2, A)
        assert level(make_stable(one, two)) == 1
        om0 = make_omega(0, 1)
        assert level(make_stable(om0, make_int(1, C))) == 2

    def test_stable_degenerate(self):
        one = make_int(1, A)
        with pytest.raises(DegeneratePair):
            make_stable(one, one)
        with pytest.raises(DegeneratePair):
            make_stable(one, ZERO)

    def test_variant_mismatch(self):
        with pytest.raises(VariantMismatch):
            add(make_int(1, A), make_int(1, C))
        with pytest.raises(VariantMismatch):
            equal(make_int(1, A), make_pi([0]))

    def test_distinct_letter_keys(self):
        one, two, three = make_int(1, A), make_int(2, A), make_int(3, A)
        assert not equal(make_stable(one, two), make_stable(one, three))
        assert not equal(make_stable(one, two), make_stable(two, one))


class TestAdd:
    def test_identity(self):
        a = make_stable(make_int(1, A), make_int(2, A))
        assert add(a, ZERO) is a
        assert add(ZERO, a) is a

    def test_inverse_letter_cancel(self):
        t = make_stable(make_int(1, A), make_int(2, A))
        assert add(t, neg(t)) is ZERO

    def test_defining_relation(self):
        # -t[1,2] + 1 + t[1,2] = 2
        one, two = make_int(1, A), make_int(2, A)
        t = make_stable(one, two)
        assert add(add(neg(t), one), t) is two

    def test_reverse_pinch(self):
        # 4 = 2*beta, so t + 4 - t = 2*alpha = 2
        one, two = make_int(1, A), make_int(2, A)
        t = make_stable(one, two)
        got = add(add(t, make_int(4, A)), neg(t))
        assert got is two

    def test_neg_reverses(self):
        one = make_int(1, A)
        t = make_stable(one, make_int(2, A))
        x = add(one, t)
        assert add(x, neg(x)) is ZERO
        assert add(neg(x), x) is ZERO

    def test_omega_coefficients_add(self):
        x = add(make_omega(0, 2), make_omega(0, -2))
        assert x is ZERO
        y = add(make_int(3, C), make_omega(0, 1))
        z = add(make_omega(0, 1), make_int(3, C))
        assert y is z  # the central generator commutes below its stage


class TestLevel:
    def test_zero(self):
        assert level(ZERO) == -1

    def test_omega(self):
        assert level(make_omega(0, 1)) == 1

    def test_letter_over_omega(self):
        t = make_stable(make_omega(0, 1), make_int(2, C))
        assert level(t) == 2

    @given(elements(A), elements(A))
    @settings(max_examples=60, deadline=None)
    def test_level_monotone_under_add(self, a, b):
        assert level(add(a, b)) <= max(level(a), level(b))


class TestCyclicReduce:
    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            cyclic_reduce(ZERO)

    def test_base_int(self):
        c, core = cyclic_reduce(make_int(7, A))
        assert c is ZERO and core is make_int(7, A)

    def test_strips_shell(self):
        # with t = t[2,3] the middle 5 is no power of 2, so the shell stays
        t = make_stable(make_int(2, A), make_int(3, A))
        a = add(add(neg(t), make_int(5, A)), t)
        c, core = cyclic_reduce(a)
        assert core is make_int(5, A)
        assert add(add(neg(c), core), c) is a

    def test_single_letter_reduced(self):
        t = make_stable(make_int(1, A), make_int(2, A))
        c, core = cyclic_reduce(t)
        assert c is ZERO and core is t

    @given(nonzero_elements(C))
    @settings(max_examples=60, deadline=None)
    def test_recomposition(self, a):
        c, core = cyclic_reduce(a)
        assert add(add(neg(c), core), c) is a

    @given(nonzero_elements(B))
    @settings(max_examples=60, deadline=None)
    def test_core_powers_multiply_letters(self, a):
        _, core = cyclic_reduce(a)
        if level(core) >= 1:
            p = top_letter_count(core, level(core))
            for k in (2, 3, 4):
                assert top_letter_count(scale(k, core), level(core)) == k * p


class TestPowerOf:
    def test_zero_alpha(self):
        with pytest.raises(ZeroAlpha):
            power_of(make_int(4, A), ZERO)

    def test_base_ints(self):
        assert power_of(make_int(6, A), make_int(2, A)) == 3
        assert power_of(make_int(3, A), make_int(2, A)) is None
        assert power_of(ZERO, make_int(2, A)) == 0

    def test_letter_powers(self):
        t = make_stable(make_int(1, A), make_int(2, A))
        assert power_of(add(t, t), t) == 2
        assert power_of(neg(t), t) == -1

    def test_conjugated_powers(self):
        t = make_stable(make_int(2, A), make_int(3, A))
        alpha = add(add(neg(t), make_int(5, A)), t)
        g = add(alpha, alpha)
        assert power_of(g, alpha) == 2

    def test_pure_omega(self):
        assert power_of(make_omega(1, 6), make_omega(1, 2)) == 3
        assert power_of(make_omega(1, 6), make_omega(0, 2)) is None

    def test_mixed_omega_core(self):
        a = add(make_int(3, C), make_omega(0, 2))
        g = add(a, a)
        assert power_of(g, a) == 2
        assert power_of(add(g, make_omega(0, 1)), a) is None

    def test_multiples_below_the_level_of_alpha(self):
        # 2*alpha pinches down to the base: -t[2,7] + 2 + t[2,7] = 7
        t = make_stable(make_int(2, A), make_int(7, A))
        alpha = add(add(neg(t), make_int(1, A)), t)
        assert alpha.level == 1
        assert power_of(make_int(7, A), alpha) == 2
        assert power_of(make_int(-7, A), alpha) == -2
        assert power_of(make_int(3, A), alpha) is None

    def test_above_the_level_of_alpha(self):
        alpha = make_int(2, A)
        t = make_stable(alpha, make_int(4, A))
        assert power_of(t, alpha) is None
        assert power_of(add(t, scale(2, alpha)), alpha) is None

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_matches_repeated_addition(self, variant):
        @given(nonzero_elements(variant), st.integers(-6, 6))
        @settings(max_examples=80, deadline=None)
        def check(a, k):
            g = ZERO
            step = a if k >= 0 else neg(a)
            for _ in range(abs(k)):
                g = add(g, step)
            assert power_of(g, a) == k

        check()


class TestScale:
    @given(nonzero_elements(C), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_repeated_addition(self, a, k):
        rep = ZERO
        step = a if k >= 0 else neg(a)
        for _ in range(abs(k)):
            rep = add(rep, step)
        assert scale(k, a) is rep

    @given(nonzero_elements(B), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_torsion_free(self, a, k):
        assert scale(k, a) is not ZERO

    @given(nonzero_elements(C), st.integers(-5, 5).filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_level_preserved_on_reduced_cores(self, a, k):
        _, core = cyclic_reduce(a)
        assert level(scale(k, core)) == level(core)

    def test_huge_materializations_rejected(self):
        from hnn_nearring import EngineError
        t = make_stable(make_int(1, A), make_int(2, A))
        with pytest.raises(EngineError):
            scale(3_000_000, t)

    def test_cheap_multiples_of_huge_elements(self):
        # the guard counts the copied stream, not the hereditary size: a
        # one-letter tower past the limit still has a negative and a double
        x = make_int(1, A)
        while size(x) <= word_core._MATERIALIZE_LIMIT:
            x = make_stable(x, neg(x))
        assert scale(-1, x) is neg(x)
        assert scale(2, x) is add(x, x)
        # a letter-free central core is one product, like an integer core
        assert scale(3_000_000, make_omega(0, 4)) is make_omega(0, 12_000_000)


class TestConjugator:
    def test_relation(self):
        one, two = make_int(1, A), make_int(2, A)
        t = conjugator(one, two)
        assert add(add(neg(t), one), t) is two

    def test_negative_pair(self):
        one = make_int(1, A)
        t = conjugator(one, neg(one))
        assert add(add(neg(t), one), t) is neg(one)

    def test_degenerate(self):
        two = make_int(2, A)
        with pytest.raises(DegeneratePair):
            conjugator(two, two)


class TestSize:
    def test_values(self):
        assert size(ZERO) == 0
        assert size(make_int(3, A)) == 3
        assert size(make_int(-3, A)) == 3
        t = make_stable(make_int(1, A), make_int(2, A))
        assert size(t) == 1 + 1 + 2

    @given(nonzero_elements(C))
    @settings(max_examples=40, deadline=None)
    def test_positive(self, a):
        assert size(a) > 0


class TestCanonical:
    @given(elements(B))
    @settings(max_examples=60, deadline=None)
    def test_renormalize_is_identity(self, a):
        assert renormalize(a) is a

    @given(elements(C), elements(C), elements(C))
    @settings(max_examples=60, deadline=None)
    def test_add_associative(self, a, b, c):
        assert add(add(a, b), c) is add(a, add(b, c))

    @given(elements(A), elements(A))
    @settings(max_examples=60, deadline=None)
    def test_neg_of_sum(self, a, b):
        assert neg(add(a, b)) is add(neg(b), neg(a))


class TestSumElements:
    """``sum_elements`` normalizes the whole stream once; the answer is the
    left fold of ``add``, a signed letter counting as its one-letter
    element."""

    @staticmethod
    def fold(pieces):
        out = ZERO
        for p in pieces:
            if not isinstance(p, word_core.Element):
                p = make_stable(p[1].alpha, p[1].beta, p[0])
            out = add(out, p)
        return out

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_is_the_left_fold_of_add(self, variant):
        @given(sum_pieces(variant))
        @settings(max_examples=80, deadline=None)
        def check(pieces):
            assert sum_elements(pieces) is self.fold(pieces)

        check()

    def test_letters_and_zero_pieces(self):
        one, two = make_int(1, A), make_int(2, A)
        t = make_stable(one, two)
        lt = t.items[0][1]
        assert sum_elements([]) is ZERO
        assert sum_elements([ZERO, (1, lt), ZERO]) is t
        # t - t cancels; 2 + t - 2 - t leaves the commutator's normal form
        assert sum_elements([(1, lt), (-1, lt)]) is ZERO
        assert sum_elements([two, (1, lt), neg(two), (-1, lt)]) is add(
            add(add(two, t), neg(two)), neg(t))
        # a letter below the top level is one coefficient
        u = make_stable(t, two)
        assert sum_elements([(1, lt), u]) is add(t, u)

    def test_mixed_variants_rejected(self):
        lt = make_stable(make_int(1, A), make_int(2, A)).items[0][1]
        with pytest.raises(VariantMismatch):
            sum_elements([(1, lt), make_omega(0, 1)])

    def test_mixed_variants_rejected_where_they_cancel(self):
        # zero is variant-free, so add lets 1 - 1 + 5 mix; sum_elements
        # joins the variants of all its pieces before adding any
        pieces = [make_int(1, A), make_int(-1, A), make_int(5, C)]
        assert add(add(pieces[0], pieces[1]), pieces[2]) is make_int(5, C)
        with pytest.raises(VariantMismatch):
            sum_elements(pieces)


class TestRepr:
    """Element reprs never raise, also for integers past the interpreter's
    digit limit, and stay distinct for distinct values;
    ``normal_forms_seed7.txt`` pins them byte for byte on sampled
    elements."""

    def test_past_the_digit_limit(self):
        huge = 10 ** (sys.get_int_max_str_digits() + 1)
        n = make_int(huge, A)
        assert repr(n) == hex(huge)
        assert repr(make_int(huge + 1, A)) != repr(n)
        assert repr(make_stable(make_int(1, A), n)) == f"{{t[1,{hex(huge)}]}}"
        assert repr(make_omega(0, -huge)) == f"{{{hex(-huge)}w0}}"
        assert repr(make_pi([huge])) == f"p({hex(huge + 1)})"


def _reachable_seqs(x):
    """Every ``Seq`` in the hereditary structure of ``x``, ``x`` included."""
    seen, stack = {}, [x]
    while stack:
        y = stack.pop()
        if not isinstance(y, Seq) or y in seen:
            continue
        seen[y] = None
        for it in y.items:
            stack += [it] if isinstance(it, word_core.Element) else [it[1].alpha, it[1].beta]
    return list(seen)


def _seq_count():
    """The number of interned ``Seq`` values."""
    return sum(type(v) is Seq for v in word_core._INTERNED.values())


class TestSharing:
    """Interning stores each value once: a stream holds the shared pair
    of each signed letter, and a ``Seq`` without a central part is keyed
    on its own ``items`` tuple."""

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_signed_letters_are_shared_pairs(self, variant):
        @given(elements(variant), elements(variant))
        @settings(max_examples=40, deadline=None)
        def check(a, b):
            for s in _reachable_seqs(add(a, neg(b))):
                letters = [it for it in s.items if not isinstance(it, word_core.Element)]
                assert len(letters) == s.n_letters
                assert all(it is word_core._signed(it[0], it[1]) for it in letters)

        check()

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_seq_is_keyed_on_its_items(self, variant):
        @given(elements(variant))
        @settings(max_examples=20, deadline=None)
        def check(a):
            seqs = [s for s in _reachable_seqs(a) if s.omega == 0]
            keys = {id(k): k for k in word_core._INTERNED}
            for s in seqs:
                assert s.n_letters > 0 and not hasattr(s, "letters")
                assert keys[id(s.items)] is s.items
                assert word_core._INTERNED[s.items] is s

        check()
        for key, s in word_core._INTERNED.items():
            if type(s) is Seq:
                assert key is s.items if s.omega == 0 else key == (s.level, s.items, s.omega)

    @given(nonzero_elements(C), st.sampled_from([1, -1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_central_parts_keep_their_own_keys(self, a, m):
        for s in _reachable_seqs(a):
            om = make_omega(s.level - 1, m)
            both = add(s, om) if s.omega == 0 else s
            if s.omega == 0:
                assert both is not s and both.items == s.items and both.omega == m
                assert word_core._INTERNED[s.items] is s
            assert word_core._INTERNED[(both.level, both.items, both.omega)] is both
            assert om.items == () and word_core._INTERNED[(s.level, (), m)] is om
            assert om is not make_omega(s.level, m)

    def test_inverse_letters_are_shared_pairs(self):
        # the inverse image of a letter enters the sum as its shared pair,
        # so inverting f_3(t[202,206] + 10) interns no one-letter
        # t[202,206]; the subscripts keep other tests from interning it first
        x = f_eval(make_int(2, A), parse_element("t[101,103] + 5", A))
        f = f_eval(make_int(3, A), x)
        before = _seq_count()
        assert preimage(make_int(3, A), f) is x
        assert _seq_count() == before


    @pytest.mark.parametrize("variant", [A, C], ids=["A", "C"])
    def test_a_lone_letter_piece_is_held_as_its_shared_pair(self, variant):
        # a caller's own (sign, letter) tuple never enters a stream, even
        # where a lone piece or a one-letter negation skips the
        # normalizer; the subscripts keep other tests from interning
        # either one-letter stream first
        lt = word_core._letter(make_int(9041, variant), make_int(-9043, variant))
        assert (lt._pos,) not in word_core._INTERNED
        assert (lt._neg,) not in word_core._INTERNED
        piece = (1, lt)
        assert piece is not lt._pos
        s = sum_elements([piece])
        assert s.items[0] is lt._pos
        assert neg(s).items[0] is lt._neg
        assert sum_elements([ZERO, (-1, lt), ZERO]) is neg(s)


class TestIdentityHashing:
    """Interned values hash by identity, so an element reached by two
    routes must be the very same dictionary key."""

    @given(elements(A), elements(A))
    @settings(max_examples=40, deadline=None)
    def test_add_and_renormalize_give_one_key(self, a, b):
        s = add(a, b)
        table = {s: "sum", (s, A): "pair"}
        assert table[renormalize(s)] == "sum"
        assert table[(renormalize(s), A)] == "pair"
        assert len({s: 0, renormalize(s): 0, add(a, b): 0}) == 1

    @given(elements(C), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_scale_and_repeated_add_give_one_key(self, a, k):
        total = ZERO
        for _ in range(k):
            total = add(total, a)
        assert {scale(k, a): k}[total] == k

    def test_variant_members_as_keys(self):
        table = {v: v.value for v in Variant}
        for tag in "ABC":
            assert table[Variant(tag)] == tag
            assert (1, Variant(tag)) in {(1, v) for v in Variant}
        assert len(table) == 3


#: the memoized functions of the engine, each owning its table
MEMOS = [fn for fn in vars(word_core).values() if hasattr(fn, "cache_info")]


def _memo_sizes():
    return [fn.cache_info().currsize for fn in MEMOS]


class TestMemos:
    """The coset split is memoized by ``functools.cache``; cyclic
    reduction, ``add``, power membership and interning are not."""

    def test_memoized_functions(self):
        assert {fn.__name__ for fn in MEMOS} == {"_coset_split"}

    def test_cache_clear_recomputes_identical_objects(self):
        x = make_stable(make_int(1, A), make_int(-1, A))
        y = add(add(make_int(3, A), x), x)
        pairs = [(x, make_int(2, A)), (y, neg(x)), (neg(y), y)]
        sums = [add(a, b) for a, b in pairs]
        reduced = cyclic_reduce(y)
        assert isinstance(sums[0], Seq) and sums[2] is ZERO
        for fn in MEMOS:
            fn.cache_clear()
        assert _memo_sizes() == [0] * len(MEMOS)
        for (a, b), s in zip(pairs, sums):
            assert add(a, b) is s
        assert all(u is v for u, v in zip(cyclic_reduce(y), reduced))
        normal_forms = load_script("write_normal_forms")
        assert normal_forms.normal_forms() == normal_forms.GOLDEN.read_bytes()

    def test_zero_operands_and_base_sums_stay_out(self):
        # a memo entry per zero operand or base sum would cost keys on every
        # pass for answers add and its callers give without a lookup
        five = make_int(5, A)
        t = make_stable(make_int(17, A), make_int(-23, A))
        before = _memo_sizes()
        assert add(ZERO, t) is t and add(t, ZERO) is t
        assert add(five, make_int(2, A)) is make_int(7, A)
        assert add(make_pi([1, 2]), make_pi([(2, -1), 3])) is make_pi([1, 3])
        # the stream of t + 5 starts with a letter, so _assemble meets it
        # with a zero coefficient; neg(t) and the junction t - t likewise
        s = add(t, five)
        assert s.items == (t.items[0], five)
        assert neg(t).items == ((-1, t.items[0][1]),)
        assert not word_core._joins_clean(t, neg(t), 1)
        assert _memo_sizes() == before

    def test_threads_build_identical_objects(self):
        # interning hands out one object per value only if racing misses
        # agree; a short switch interval makes the threads interleave inside
        # the constructors and memoized functions (a plain store in place of
        # setdefault in _intern_seq failed here in 9 of 10 runs)
        config = SampleConfig(seed=9001, count=200, max_level=3)
        barrier = threading.Barrier(4)

        def build():
            barrier.wait()
            elems, powers = [], []
            for variant in Variant:
                xs = [sample_element(config, i, variant) for i in range(config.count)]
                for x, y in zip(xs, xs[1:]):
                    s = add(x, y)
                    elems += [x, s, add(s, s)]
                    if x is not ZERO:
                        powers.append(power_of(s, x))
            return elems, powers

        results = [None] * 4

        def run(i):
            results[i] = build()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        finally:
            sys.setswitchinterval(interval)
        elems, powers = results[0]
        assert len(elems) == 3 * 3 * (config.count - 1)
        for other_elems, other_powers in results[1:]:
            assert len(other_elems) == len(elems)
            assert all(u is v for u, v in zip(elems, other_elems))
            assert other_powers == powers


def _dropped_value():
    """Build ``t[9001,-9001] + 9003`` and hold none of it: the texts of
    the element and its letter, to look it up by."""
    x = add(make_stable(make_int(9001, A), make_int(-9001, A)), make_int(9003, A))
    return repr(x), repr(x.items[0][1])


def _interned(seq_text, letter_text):
    """Which of the value ``_dropped_value`` built are still interned."""
    return ([n for n in (9001, -9001, 9003) if (n, A) in word_core._INTERNED]
            + [v for v in word_core._INTERNED.values() if repr(v) in (seq_text, letter_text)])


class TestSweep:
    """``drop_memos`` frees the values interned since the last drop that
    nothing but the intern table holds; whatever something holds stays,
    and building its value again returns it."""

    def test_a_dropped_value_leaves_its_tables(self):
        texts = _dropped_value()
        assert len(_interned(*texts)) == 5
        nearring_maps.drop_memos()
        # the element, its letter and the integers only they held go in
        # one sweep
        assert _interned(*texts) == []

    def test_held_values_survive_a_suite(self):
        x = parse_element("t[9011,9013] + -t[9013,9011] + 9017", A)
        one, two = make_int(9019, A), make_int(9023, A)
        letter = word_core._letter(one, two)
        del one, two
        cfg = SampleConfig(seed=9029, count=8, max_level=3)
        held_by_memo = [render(sample_element(cfg, 3, v)) for v in Variant]
        check_nearring_axioms(A, SampleConfig(seed=9031, count=6))
        assert parse_element(render(x), A) is x
        t = make_stable(make_int(9019, A), make_int(9023, A))
        assert t.items[0] is letter._pos and letter._pos[1] is letter
        assert neg(t).items[0] is letter._neg and letter._neg[1] is letter
        for v, text in zip(Variant, held_by_memo):
            y = sample_element(cfg, 3, v)
            assert isinstance(y, Seq) and render(y) == text
            assert parse_element(text, v) is y

    def test_no_sweep_while_another_thread_runs(self):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            texts = _dropped_value()
            nearring_maps.drop_memos()
            assert len(_interned(*texts)) == 5
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        nearring_maps.drop_memos()
        assert _interned(*texts) == []

    def test_a_direct_sweep_waits_for_a_second_thread(self):
        # the guard is the sweep's own, not only its callers'
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            texts = _dropped_value()
            word_core._sweep()
            assert len(_interned(*texts)) == 5
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        word_core._sweep()
        assert _interned(*texts) == []


def _samples(variant, seed, count, max_level):
    config = SampleConfig(seed=seed, count=count, max_level=max_level)
    return [sample_element(config, i, variant) for i in range(count)]


class TestJoinsClean:
    """``_joins_clean`` reads off at the junction what building the sum
    and counting its letters (basis codes at stage 0) would say."""

    @staticmethod
    def agrees(x, y, lvl):
        count = word_core._metric
        whole = count(add(x, y), lvl) == count(x, lvl) + count(y, lvl)
        return word_core._joins_clean(x, y, lvl) is whole

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_sampled_pairs(self, variant):
        xs = _samples(variant, 41, 100, 4)
        low = [z for z in xs if z.level == 0][:3]
        checked = pinched = 0
        for i, x in enumerate(xs):
            # neg(x) behind a base element meets x's last letter inverted,
            # across coefficients that do and do not pinch
            ys = [xs[(i + 1) % len(xs)], xs[(i * 7 + 3) % len(xs)], x, neg(x)]
            for y in ys + [add(z, neg(x)) for z in low]:
                for lvl in range(max(x.level, y.level, 0), 5):
                    assert self.agrees(x, y, lvl), (i, lvl)
                    checked += 1
                    pinched += not word_core._joins_clean(x, y, lvl)
        assert checked > 500 and pinched > 50

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_walk_steps(self, variant):
        # the coset walk appends a cyclically reduced core or its negative
        xs = _samples(variant, 43, 60, 4)
        for i, g in enumerate(xs):
            if g is ZERO:
                continue
            _, a = cyclic_reduce(g)
            lvl = max(a.level, 0)
            for e in xs[i + 1:i + 6]:
                if e.level > lvl:
                    continue
                for x in (e, add(e, a), add(e, neg(a)), a, neg(a)):
                    for y in (a, neg(a)):
                        assert self.agrees(x, y, lvl), (i, lvl)
                    assert (word_core._joins_clean_neg(x, a, lvl)
                            is word_core._joins_clean(x, neg(a), lvl)), (i, lvl)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_neg_junction_read_off_a(self, variant):
        # the walk tests its first -1 junction without building neg(a)
        @given(elements(variant), elements(variant), elements(variant))
        @settings(max_examples=80, deadline=None)
        def check(x, a, b):
            lvl = max(x.level, a.level, 0)
            # x + a (+ b) ends in the last letter of a, which neg(a) starts
            # by inverting, so the coefficient decides the junction
            for y in (x, add(x, a), add(add(x, a), b)):
                if y.level <= lvl:
                    assert (word_core._joins_clean_neg(y, a, lvl)
                            is word_core._joins_clean(y, neg(a), lvl))

        check()

    def test_hand_built(self):
        one, two, three = (make_int(n, A) for n in (1, 2, 3))
        t, u = make_stable(one, two), make_stable(one, three)
        cases = [
            # single pinch: t + 2 - t = 1
            (add(t, two), neg(t), 1, False),
            # inverse letters across a coefficient outside <2>: no pinch
            (add(t, three), neg(t), 1, True),
            # cascading pinch: both letters of x cancel
            (add(t, u), add(add(neg(u), neg(t)), make_stable(two, three)), 1, False),
            # lower-level x: nothing to cancel against
            (make_int(5, A), t, 1, True),
            (t, make_stable(t, two), 2, True),
            # free words at stage 0
            (make_pi([1, 2]), make_pi([(2, -1)]), 0, False),
            (make_pi([1, 2]), make_pi([2]), 0, True),
        ]
        for x, y, lvl, clean in cases:
            assert word_core._joins_clean(x, y, lvl) is clean
            assert self.agrees(x, y, lvl)


class TestCosetInvariance:
    """``_coset_split`` picks one representative per coset, from
    whichever member it starts, also beyond the walk's cap."""

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_representative_is_coset_invariant(self, variant):
        xs = _samples(variant, 47, 48, 3)
        gens = [g for g in xs if 1 <= g.level <= 3][:8]
        assert len(gens) >= 6
        for n, gen in enumerate(gens):
            _, core = cyclic_reduce(gen)
            p = max(1, top_letter_count(core, core.level))
            for c in xs[3 * n:3 * n + 3]:
                le = top_letter_count(c, core.level)
                cap = (2 * le) // p + 4
                r, _ = word_core._coset_split(c, gen)
                for k in range(-cap - 5, cap + 6):
                    member = add(c, scale(k, gen))
                    rk, jk = word_core._coset_split(member, gen)
                    assert rk is r, (n, k)
                    assert add(rk, scale(jk, gen)) is member

"""Embeddings, the product, the basis offset, inverse images and the
invariant subgroups."""

import math
import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from hnn_nearring import (
    ZERO,
    DegeneratePair,
    Element,
    SampleConfig,
    Variant,
    WrongVariant,
    ZeroInput,
    ZeroZeta,
    add,
    f_eval,
    identity_element,
    in_h,
    in_w,
    level,
    make_int,
    make_omega,
    make_pi,
    make_stable,
    mu,
    mul,
    neg,
    parse_element,
    preimage,
    preimage_detail,
    render,
    sample_element,
    sample_nonzero,
    sample_w_element,
    scale,
)
from hnn_nearring import nearring_maps, word_core
from conftest import elements, nonzero_elements

A = Variant.A_INT_BASE
B = Variant.B_FREE_BASE
C = Variant.C_INT_OMEGA_BASE


def _tower(levels, a, b):
    """``t[...t[t[a,b],b]...,b]``, nested ``levels`` letters deep."""
    x = make_stable(a, b)
    for _ in range(levels - 1):
        x = make_stable(x, b)
    return x


def _word_codes():
    """The number of basis codes the interned words hold together."""
    return sum(len(w.letters) for w in word_core._INTERNED.values()
               if type(w) is word_core.WordChunk)


class TestTenThousandLevels:
    """The structural walks run on an explicit stack, so a tower far
    deeper than the recursion limit folds under the default limit."""

    def test_f_eval(self):
        x = _tower(10_000, make_int(1, A), make_int(2, A))
        assert f_eval(make_int(3, A), x) is _tower(10_000, make_int(3, A), make_int(6, A))

    def test_f_eval_by_a_tower(self):
        z = _tower(10_000, make_int(1, A), make_int(2, A))
        assert f_eval(z, make_stable(make_int(1, A), make_int(2, A))) is make_stable(
            z, add(z, z))

    def test_mu_and_in_w(self):
        pi0, pi1, pi2 = make_pi([0]), make_pi([1]), make_pi([2])
        assert mu(_tower(10_000, pi1, pi2)) == 2
        assert in_w(_tower(10_000, pi1, pi2))
        assert not in_w(_tower(10_000, pi0, pi2))

    @pytest.mark.parametrize("variant, z, a, b", [
        (A, "3", "1", "2"),
        (C, "om(0)", "1", "2"),
        # the image of a sits at the level of z and is decided by the
        # free-product split, which opens no node below the top one
        (B, "t[pi(0),pi(1)]", "t[pi(1),pi(2)] + pi(0)", "pi(1)"),
        (B, "pi(1)", "pi(0)", "pi(1)"),
    ], ids=["A-3", "C-om0", "B-level-1-zeta", "B-pi1"])
    def test_preimage_and_in_h(self, variant, z, a, b):
        z = parse_element(z, variant)
        x = _tower(10_000, parse_element(a, variant), parse_element(b, variant))
        assert preimage(z, f_eval(z, x)) is x
        if variant is not B:
            assert not in_h(z, x)  # the base element 1 is no image


class TestFEval:
    def test_integer_scaling(self):
        assert f_eval(make_int(3, A), make_int(5, A)) is make_int(15, A)

    def test_omega_shift_by_level(self):
        om0, om1 = make_omega(0, 1), make_omega(1, 1)
        assert f_eval(make_int(2, C), om0) is om0          # integer index, level 0
        assert f_eval(om0, om1) is make_omega(2, 1)        # index om0 sits at level 1

    def test_basis_offset(self):
        assert f_eval(make_pi([1]), make_pi([2])) is make_pi([3])

    @pytest.mark.parametrize("zeta_level", [0, 1])
    def test_many_runs_copy_n_log_n_codes(self, zeta_level):
        # a word of r alternating runs maps to r adjacent base pieces, below
        # a level-1 zeta block too when the word starts with pi(0); added
        # in pairs they intern about r log r codes, where a left fold
        # interns every prefix of the image, about r**2 / 2 codes
        r = 4000
        i = 7 + 2 * zeta_level  # words of their own, not interned by the other case
        x = scale(r // 2, add(make_pi([i]), make_pi([i + 1])))
        if zeta_level:
            zeta, x = make_stable(make_pi([0]), make_pi([1])), add(make_pi([0]), x)
        else:
            zeta = make_pi([1])
        before = _word_codes()
        image = f_eval(zeta, x)
        assert level(image) == zeta_level
        assert _word_codes() - before < r * math.log2(r)

    def test_letter_mapping(self):
        one = make_int(1, A)
        t = make_stable(one, neg(one))
        expected = make_stable(make_int(2, A), make_int(-2, A))
        assert f_eval(make_int(2, A), t) is expected

    def test_identity_index_fixes_everything(self):
        for variant in (A, B, C):
            one = identity_element(variant)
            x = make_stable(one, neg(one))
            assert f_eval(one, x) is x

    def test_zero_index_rejected(self):
        with pytest.raises(ZeroZeta):
            f_eval(ZERO, make_int(1, A))

    @given(nonzero_elements(C), elements(C), elements(C))
    @settings(max_examples=50, deadline=None)
    def test_homomorphism(self, z, x, y):
        assert f_eval(z, add(x, y)) is add(f_eval(z, x), f_eval(z, y))

    @given(nonzero_elements(B), nonzero_elements(B), elements(B))
    @settings(max_examples=40, deadline=None)
    def test_composition_law(self, z, t, x):
        assert f_eval(z, f_eval(t, x)) is f_eval(f_eval(z, t), x)

    @given(nonzero_elements(A), elements(A), elements(A))
    @settings(max_examples=40, deadline=None)
    def test_injectivity_on_samples(self, z, x, y):
        if x is not y:
            assert f_eval(z, x) is not f_eval(z, y)

    @given(st.integers(-5, 5).filter(lambda n: n not in (0, 1)), nonzero_elements(C))
    @settings(max_examples=50, deadline=None)
    def test_integer_index_preserves_level(self, n, lam):
        assert level(f_eval(make_int(n, C), lam)) == level(lam)

    @given(nonzero_elements(C), st.integers(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_omega_law(self, z, j):
        assert f_eval(z, make_omega(j, 1)) is make_omega(level(z) + j, 1)


class TestMul:
    def test_identity_and_zero(self):
        one = make_int(1, A)
        a = add(make_int(3, A), make_stable(one, neg(one)))
        assert mul(a, one) is a
        assert mul(one, a) is a
        assert mul(a, ZERO) is ZERO
        assert mul(ZERO, a) is ZERO

    def test_distinguisher_value(self):
        one = make_int(1, A)
        t = make_stable(one, neg(one))
        b = make_int(2, A)
        assert mul(t, b) is make_stable(b, neg(b))

    def test_omega_times_letter(self):
        t = make_stable(make_int(1, C), make_int(2, C))
        assert mul(make_omega(0, 1), t) is make_omega(1, 1)

    @given(elements(A), elements(A), elements(A))
    @settings(max_examples=50, deadline=None)
    def test_right_distributivity(self, a, b, c):
        assert mul(add(a, b), c) is add(mul(a, c), mul(b, c))

    @given(elements(B), elements(B), elements(B))
    @settings(max_examples=40, deadline=None)
    def test_product_associativity(self, a, b, c):
        assert mul(mul(a, b), c) is mul(a, mul(b, c))


class TestMu:
    def test_grid_line(self):
        assert mu(scale(2, make_pi([1]))) == 1
        assert mu(make_pi([0])) == 0
        assert mu(add(make_pi([0]), make_pi([2]))) == 2

    def test_rejects_zero_and_wrong_variant(self):
        with pytest.raises(ZeroInput):
            mu(ZERO)
        with pytest.raises(WrongVariant):
            mu(make_int(1, A))

    @given(st.integers(-3, 3).filter(bool), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_grid(self, k, i):
        assert mu(scale(k, make_pi([i]))) == i

    @given(nonzero_elements(B), nonzero_elements(B))
    @settings(max_examples=50, deadline=None)
    def test_additivity(self, g, x):
        assert mu(f_eval(g, x)) == mu(g) + mu(x)

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_span_matches_the_rendered_basis_letters(self, seed):
        # the span each element fixes when it is built, read against the
        # basis letters its text shows: mu is the largest index, and W
        # holds exactly the elements whose smallest index is at least 1
        xs = [sample_element(SampleConfig(seed=seed, count=0, max_level=depth), k, B)
              for depth in range(5) for k in range(40)]
        xs += [sample_w_element(SampleConfig(seed=seed, count=0, max_level=4), k)
               for k in range(40)]
        xs = [x for x in xs if x is not ZERO]
        assert len(xs) > 200 and not all(map(in_w, xs)) and any(map(in_w, xs))
        for x in xs:
            indices = [int(i) for i in re.findall(r"pi\((\d+)\)", render(x))]
            assert (mu(x), in_w(x)) == (max(indices), min(indices) >= 1), render(x)


class TestPreimage:
    def test_base_division(self):
        assert preimage(make_int(2, A), make_int(6, A)) is make_int(3, A)

    def test_omega_cases(self):
        om0, om1 = make_omega(0, 1), make_omega(1, 1)
        assert preimage(om0, om0) is make_int(1, C)
        assert preimage(om0, om1) is om0
        assert preimage(om0, make_int(5, C)) is None

    def test_no_integers_in_omega_image(self):
        # small sweep: images of simple elements never hit a bare 5
        om0 = make_omega(0, 1)
        five = make_int(5, C)
        probes = [make_int(n, C) for n in range(-5, 6) if n] + [
            make_omega(j, m) for j in range(3) for m in (-2, -1, 1, 2)]
        probes += [make_stable(make_int(1, C), make_int(n, C)) for n in (2, 3, -1)]
        probes += [add(p, q) for p in probes[:6] for q in probes[6:10]]
        for y in probes:
            assert f_eval(om0, y) is not five

    def test_detail_reasons(self):
        om0 = make_omega(0, 1)
        ok = preimage_detail(om0, make_omega(1, 1))
        assert ok.reason == "ok" and ok.element is make_omega(0, 1)
        bad = preimage_detail(om0, make_int(5, C))
        assert bad.element is None and bad.reason in ("no_parse", "ambiguous_parse")
        element, reason = bad  # a named tuple
        assert (element, reason) == (None, bad.reason)

    def test_pi1_shifts_the_basis_down(self):
        x = parse_element("t[pi(1),pi(2)] + pi(3)", B)
        assert preimage(make_pi([1]), x) is parse_element("t[pi(0),pi(1)] + pi(2)", B)

    def test_zero_cases(self):
        om0 = make_omega(0, 1)
        assert preimage(om0, ZERO) is ZERO
        with pytest.raises(ZeroZeta):
            preimage(ZERO, om0)

    @given(nonzero_elements(C), elements(C))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_C(self, z, y):
        assert preimage(z, f_eval(z, y)) is y

    @given(nonzero_elements(B), elements(B))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_B(self, z, y):
        assert preimage(z, f_eval(z, y)) is y

    @given(nonzero_elements(A), elements(A))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_A(self, z, y):
        assert preimage(z, f_eval(z, y)) is y


#: a level-1 zeta whose double is the base letter pi(3); mu(zeta) = 3
_ZETA_ABOVE_BASE = "t[pi(3),2*pi(1)] + pi(1) + -t[pi(3),2*pi(1)]"
#: a level-1 zeta whose double is pi(1): both subscripts of its own letter
#: t[pi(1),-2*pi(1)] are images, of 2*pi(0) and -4*pi(0)
_ZETA_OWN_IMAGES = "t[pi(1),-2*pi(1)] + -pi(1) + -t[pi(1),-2*pi(1)]"


def _blocks_zeta(rng):
    """``t[a,2*b] + b + -t[a,2*b]`` over seeded base words ``a`` (1-3
    letters) and ``b`` (1-2 letters) on pi(0..3), with ``a`` not ``2*b``;
    its double is ``a``."""
    def word(n):
        return make_pi([(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(n)])

    while True:
        a, b = word(rng.randint(1, 3)), word(rng.randint(1, 2))
        if ZERO not in (a, b) and a is not scale(2, b):
            letter = make_stable(a, scale(2, b))
            return add(add(letter, b), neg(letter))


class TestFreeProductSplit:
    """Under B the image of the base is ``<zeta> * F(pi(j) : j > mu)``: a
    base word is an image exactly when every maximal run of the letters
    pi(0..mu(zeta)) is a power of zeta."""

    @pytest.mark.parametrize("x, y", [
        ("2*pi(0) + pi(1)", "pi(3) + pi(4)"),
        ("t[pi(1),2*pi(0) + pi(1)]", "t[pi(4),pi(3) + pi(4)]"),
    ], ids=["word", "letter"])
    def test_powers_of_a_zeta_above_the_base(self, x, y):
        z = parse_element(_ZETA_ABOVE_BASE, B)
        x, y = parse_element(x, B), parse_element(y, B)
        assert f_eval(z, x) is y
        assert preimage(z, y) is x
        assert in_h(z, y)

    @pytest.mark.parametrize("zeta, x, target", [
        # the run pi(0) is no power of 2*pi(0)
        ("2*pi(0)", None, "pi(0) + pi(2)"),
        # the run pi(1) + pi(0) is a conjugate of zeta, not a power
        ("pi(0) + pi(1)", None, "pi(1) + pi(0) + pi(3)"),
        # zeta is not cyclically reduced, so its powers share its ends
        ("pi(1) + pi(0) + -pi(1)", "3*pi(0) + pi(1) + -pi(0)", None),
        ("pi(1) + pi(0) + -pi(1)", "t[pi(2) + 2*pi(0),-pi(0)] + pi(1)", None),
    ], ids=["no-power", "conjugate", "image-word", "image-letter"])
    def test_decision(self, zeta, x, target):
        z = parse_element(zeta, B)
        if x is None:
            assert preimage_detail(z, parse_element(target, B)) == (None, "no_parse")
        else:
            x = parse_element(x, B)
            assert preimage_detail(z, f_eval(z, x)) == (x, "ok")

    @pytest.mark.parametrize("x", [
        "pi(0) + t[pi(1),pi(2)] + pi(0)",
        "t[pi(1) + pi(0),-pi(0) + -pi(1)]",
        "pi(0) + t[2*pi(0),-2*pi(0)]",
    ], ids=["blocks-around-a-letter", "blocks-in-subscripts", "block-and-image-letter"])
    def test_blocks_of_a_zeta_whose_letter_is_an_image(self, x):
        # zeta's own letter also reads as the image of t[2*pi(0),-4*pi(0)];
        # zeta's blocks read as powers of zeta first
        z, x = parse_element(_ZETA_OWN_IMAGES, B), parse_element(x, B)
        assert preimage(z, f_eval(z, x)) is x

    @pytest.mark.parametrize("x", [
        "t[2*pi(0),-4*pi(0)]",
        "t[2*pi(0),-4*pi(0)] + pi(1)",
        "t[2*pi(0),-4*pi(0)] + pi(0)",
    ], ids=["letter", "letter-and-word", "letter-then-block"])
    def test_own_letter_read_as_an_image_letter(self, x):
        # the image of x has no power of zeta where zeta's own letter stands
        # alone, so the run parse reads the fewest own letters as images
        z, x = parse_element(_ZETA_OWN_IMAGES, B), parse_element(x, B)
        assert preimage(z, f_eval(z, x)) is x

    @pytest.mark.parametrize("variant", [A, B, C], ids=["A", "B", "C"])
    def test_seeded_round_trip_over_a_base_zeta(self, variant):
        misses = []
        for seed in range(1, 61):
            cfg = SampleConfig(seed=seed, count=0, max_level=4)
            for k in range(40):
                x = sample_element(cfg, 2 * k, variant)
                z = sample_nonzero(cfg, 2 * k + 1, variant, 0)
                if preimage(z, f_eval(z, x)) is not x:
                    misses.append((seed, k))
        assert misses == []

    @pytest.mark.parametrize("zeta_level", [1, 2])
    def test_seeded_round_trip_over_a_zeta_above_the_base(self, zeta_level):
        misses = []
        for seed in range(1, 61):
            cfg = SampleConfig(seed=seed, count=0, max_level=4)
            for k in range(40):
                x = sample_element(cfg, 2 * k, B)
                z = sample_nonzero(cfg, 2 * k + 1, B, zeta_level)
                if preimage(z, f_eval(z, x)) is not x:
                    misses.append((seed, k))
        assert misses == []

    def test_seeded_round_trip_over_blocks_zetas(self):
        # zeta = t[a,2*b] + b + -t[a,2*b]: images of samples and of elements
        # that put powers of zeta (images of even multiples e of pi(0))
        # beside, inside and under image letters
        pi0 = make_pi([0])
        misses = []
        for seed in range(1, 41):
            rng = random.Random(seed)
            z = _blocks_zeta(rng)
            cfg = SampleConfig(seed=seed, count=0, max_level=2)
            xs = [sample_element(cfg, pos, B) for pos in range(12)]
            for _ in range(12):
                e = make_pi([(0, 2 * rng.choice((-2, -1, 1, 2)))])
                w = make_pi([(rng.randint(1, 4), rng.choice((1, -1)))
                             for _ in range(rng.randint(1, 3))])
                if w is ZERO:
                    w = make_pi([1])
                xs += [add(e, w), make_stable(e, w, rng.choice((1, -1))),
                       add(add(make_stable(w, e), pi0), w),
                       add(add(make_stable(e, neg(e)), pi0), make_stable(w, neg(w)))]
            misses += [(seed, i) for i, x in enumerate(xs)
                       if preimage(z, f_eval(z, x)) is not x]
        assert misses == []


class TestInvariantSubgroups:
    def test_w_membership(self):
        assert in_w(make_pi([1]))
        assert not in_w(make_pi([0]))
        assert in_w(make_stable(make_pi([1]), make_pi([2])))
        assert not in_w(make_stable(make_pi([0]), make_pi([1])))
        assert in_w(ZERO)

    def test_w_wrong_variant(self):
        with pytest.raises(WrongVariant):
            in_w(make_int(1, A))

    def test_h_membership(self):
        om0 = make_omega(0, 1)
        assert in_h(om0, make_omega(1, 1))
        assert not in_h(om0, make_int(5, C))
        assert in_h(om0, ZERO)
        with pytest.raises(ZeroZeta):
            in_h(ZERO, om0)

    @given(nonzero_elements(B), nonzero_elements(B))
    @settings(max_examples=40, deadline=None)
    def test_w_closed_under_products(self, w, g):
        if in_w(w):
            assert in_w(mul(g, w))
            assert in_w(mul(w, g))

    @given(elements(C), nonzero_elements(C))
    @example(parse_element("-t[4,1] + 4", C), parse_element("-t[4,1] + 12", C))
    @settings(max_examples=40, deadline=None)
    def test_h_closed_under_products(self, y, g):
        om0 = make_omega(0, 1)
        h = f_eval(om0, y)
        assert in_h(om0, mul(g, h))
        assert in_h(om0, mul(h, g))

    def test_h_product_through_a_huge_central_multiple(self):
        # g*h pushes a 1398100-fold multiple of 4*om(0) through a letter:
        # one integer product, which the size guard once refused
        om0 = make_omega(0, 1)
        h = f_eval(om0, parse_element("-t[4,1] + 4", C))
        assert h is parse_element("-t[4*om(0),om(0)] + 4*om(0)", C)
        g = parse_element("-t[4,1] + 12", C)
        gh = mul(g, h)
        assert render(gh).endswith(" + 22369620*om(0)")
        assert in_h(om0, gh) and in_h(om0, mul(h, g))


class TestWitnessValues:
    def test_free_base_witness_value(self):
        # a = b = pi(1), c = 2*pi(1), x = pi(1): both products land on pi(3)
        a = make_pi([1])
        c = scale(2, a)
        x = a
        lhs = mul(mul(a, x), a)
        rhs = mul(mul(a, x), c)
        assert lhs is rhs is make_pi([3])

    def test_central_witness_value(self):
        om0 = make_omega(0, 1)
        tau = make_stable(make_int(1, C), make_int(2, C))
        lhs = mul(mul(om0, tau), make_int(2, C))
        rhs = mul(mul(om0, tau), make_int(3, C))
        assert lhs is rhs is make_omega(1, 1)

    def test_left_distributivity_fails(self):
        one = make_int(1, A)
        t = make_stable(one, neg(one))
        lhs = mul(t, add(one, one))
        rhs = add(mul(t, one), mul(t, one))
        assert lhs is make_stable(make_int(2, A), make_int(-2, A))
        assert lhs is not rhs

    def test_equiprime_distinguisher(self):
        one = make_int(1, A)
        x = make_stable(one, neg(one))
        a, b, c = one, make_int(2, A), make_int(3, A)
        assert mul(mul(a, x), b) is not mul(mul(a, x), c)


def _colliding_halves(variant):
    """``z = t[1,-2] + -1 + -t[1,-2]`` and ``u = t[2,-4] + -2 + -t[2,-4]``,
    under B with ``pi(1)`` for ``1`` in ``z`` and ``pi(0)`` for ``1`` in
    ``u``: 2*z is the base element the letter conjugates, and u is a
    second half of twice the identity, so ``f_z(u) = z = f_z(identity)``."""
    one, base = ("pi(0)", "pi(1)") if variant is B else ("1", "1")
    z = parse_element("t[{0},-2*{0}] + -{0} + -t[{0},-2*{0}]".format(base), variant)
    u = parse_element("t[2*{0},-4*{0}] + -2*{0} + -t[2*{0},-4*{0}]".format(one), variant)
    return z, u


class TestKnownFaults:
    """Faults recorded as FOUND lines in CHANGES.md or as ROADMAP items,
    pinned so that the change that mends one sees its test pass (strict
    xfail) and flips it; the inputs they rest on are checked plainly."""

    @pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: f_eval sends om(j) to "
                       "om(level(zeta) + j), so the product is not associative under C")
    def test_omega_product_associates(self):
        c = parse_element("-t[2,-2] + 1 + t[2,-2] + 6", C)
        om3, four = make_omega(3, 1), make_int(4, C)
        assert mul(mul(om3, four), c) is mul(om3, mul(four, c))

    @pytest.mark.xfail(strict=True, reason="README Variant C: no om shift rule makes the "
                       "product associative; this case fails on every run")
    def test_omega_product_associates_deterministic(self):
        # d has level 1 and 2*d = -2, so (om(0)*2)*d is om(1) while
        # om(0)*(2*d) = om(0)*(-2) is om(0)
        d = parse_element("-t[2,-2] + 1 + t[2,-2]", C)
        om0, two = make_omega(0, 1), make_int(2, C)
        assert mul(mul(om0, two), d) is mul(om0, mul(two, d))

    @pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: preimage gives no_parse "
                       "when an image merges zeta-blocks with the integers beside them")
    @pytest.mark.parametrize("variant", [A, C], ids=["A", "C"])
    def test_preimage_inverts_merged_blocks(self, variant):
        x = parse_element("t[-3,3] + -t[2,-2] + 5", variant)
        z = parse_element("t[-2,2] + 1 + -t[-2,2]", variant)
        y = f_eval(z, x)
        for memo in ("cold", "warm"):  # a second search repeats the first
            detail = preimage_detail(z, y)
            assert (memo, detail.reason, detail.element) == (memo, "ok", x)

    @pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: f_zeta sends two elements "
                       "to one, so it is no embedding")
    @pytest.mark.parametrize("variant", [A, B, C], ids=["A", "B", "C"])
    def test_embedding_is_injective(self, variant):
        z, u = _colliding_halves(variant)
        assert f_eval(z, u) is not f_eval(z, identity_element(variant))

    @pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND (ROADMAP item 7): the sweep never "
                       "revisits a value that survived it, so a sample the samplers dropped "
                       "stays interned")
    def test_a_sample_the_samplers_dropped_leaves_its_table(self):
        text = repr(sample_element(SampleConfig(seed=424242, count=1, max_level=3), 3, A))
        nearring_maps.drop_memos()  # the sampler memo holds the sample here
        sample_element.cache_clear()
        sample_nonzero.cache_clear()
        nearring_maps.drop_memos()
        assert [s for s in word_core._INTERNED.values() if repr(s) == text] == []

    @pytest.mark.parametrize("variant", [A, B, C], ids=["A", "B", "C"])
    def test_the_colliding_inputs_are_valid(self, variant):
        # the faults below are not bad input: u, the letter t[u,1] and
        # u + -1 are nonzero elements, and z is a nonzero right factor
        z, u = _colliding_halves(variant)
        identity = identity_element(variant)
        assert u is not identity and scale(2, u) is scale(2, identity)
        assert z is not ZERO and add(u, neg(identity)) is not ZERO
        assert isinstance(make_stable(u, identity), Element)

    @pytest.mark.xfail(strict=True, raises=DegeneratePair, reason="ROADMAP item 2: f_z sends "
                       "u and the identity to one element, so the image of t[u,1] would be "
                       "a letter with equal subscripts")
    @pytest.mark.parametrize("variant", [A, B, C], ids=["A", "B", "C"])
    def test_product_is_total(self, variant):
        z, u = _colliding_halves(variant)
        assert isinstance(mul(make_stable(u, identity_element(variant)), z), Element)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: f_z sends u + -1 to 0, so two "
                       "nonzero elements have the product 0")
    @pytest.mark.parametrize("variant", [A, B, C], ids=["A", "B", "C"])
    def test_no_zero_divisors(self, variant):
        z, u = _colliding_halves(variant)
        assert mul(add(u, neg(identity_element(variant))), z) is not ZERO

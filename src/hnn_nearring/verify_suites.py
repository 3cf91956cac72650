"""Seeded, reproducible verification suites.

Each suite samples elements deterministically from a ``SampleConfig``,
checks one family of desk-checkable claims (nearring axioms, universal
conjugacy, the non-equiprime witnesses, equiprime instances, invariant
subgroup closure, failure of left distributivity) and returns a
machine-readable ``Report``.  Each sampled position seeds its own
``random.Random``, and its stream depends only on that seeding and on
the generator's ``random()`` and ``getrandbits`` outputs: integers and
signs are made from those bits by ``_draw``, not by the interpreter's
``randint`` and ``choice``.  Identical configs produce identical
reports; cases are evaluated in stream order.  Every suite first
empties the engine's memos and frees the interned values nothing holds
(``drop_memos``), so a run holds one suite's memos at a time and what
``memo_stats`` reads after a suite is that suite's alone; the samplers'
memos stay, as suites redraw each other's positions, and so do the
values they hold.  ``SUITES`` names every suite and the variants it
runs under, for the command line and the scripts.
"""

from __future__ import annotations

import functools
import random
from types import SimpleNamespace
from typing import NamedTuple, Optional

from . import nearring_maps as nr
from . import word_core as wc
from .grammar import render
from .word_core import ZERO, Element, Variant

__all__ = [
    "Report",
    "SEED_LIMIT",
    "SUITES",
    "SampleConfig",
    "check_conjugacy",
    "check_equiprime_instances_A",
    "check_invariant_subgroups",
    "check_nearring_axioms",
    "find_left_distrib_counterexample",
    "sample_element",
    "sample_nonzero",
    "sample_w_element",
    "witness_nonequiprime_B",
    "witness_nonequiprime_C",
]

_MAX_RECORDED_FAILURES = 25

#: the sampler keeps a seed's low 64 bits, so the command line takes
#: seeds in [0, SEED_LIMIT), where distinct seeds give distinct streams
SEED_LIMIT = 1 << 64

#: the shape of sampled elements: syllables per level, the range of base
#: integers (A, C), of basis indices (B) and the highest om index (C)
_MAX_SYLLABLES = 4
_INT_RANGE = (-6, 6)
_BASIS_INDEX_RANGE = (0, 5)
_MAX_OMEGA_INDEX = 3
#: the signs a sampled letter or basis power takes, drawn by index
_SIGNS = (1, -1)


class SampleConfig(NamedTuple):
    """Deterministic generation parameters; equal configs yield equal
    element streams.  A tuple, so it is immutable and hashes by value (the
    samplers' memo key)."""

    seed: int = 7
    count: int = 200
    max_level: int = 3


class Report(SimpleNamespace):
    """Outcome of one suite run.  ``record`` keeps the first failures,
    so ``passed``, read off them, holds until the first.  Reports compare
    equal attribute by attribute."""

    def __init__(self, suite_name: str, variant: Variant, config: SampleConfig,
                 cases_run: int):
        super().__init__(suite_name=suite_name, variant=variant, config=config,
                         cases_run=cases_run, failures=[], witnesses=[])

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, inputs, expected, got):
        if len(self.failures) < _MAX_RECORDED_FAILURES:
            self.failures.append(
                {"inputs": list(inputs), "expected": expected, "got": got})


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------

def _rng_for(config: SampleConfig, position: int) -> random.Random:
    return random.Random((config.seed & (SEED_LIMIT - 1)) * 0x100000000 + position)


def _draw(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``, drawn as CPython 3.10-3.13 draw it: the
    offset below ``hi - lo + 1`` is ``getrandbits`` of that count's bit
    length, redrawn until it fits.  ``rng.choice((1, -1))`` is
    ``(1, -1)[_draw(rng, 0, 1)]``.  One call in place of the three
    Python frames of ``randint``, so every sampled stream is what
    ``random.Random`` would draw from the same seed."""
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


@functools.cache
def sample_element(config: SampleConfig, position: int, variant: Variant) -> Element:
    """Canonical element of level at most ``max_level``, deterministic in
    ``(seed, position)``.  Target levels cycle with the position so short
    streams already cover every level.  Memoized: suites that share a
    stream draw each element once per process."""
    rng = _rng_for(config, position)
    if rng.random() < 0.04:
        return ZERO
    target = position % (config.max_level + 1)
    return _gen(rng, variant, target, _MAX_SYLLABLES)


@functools.cache
def sample_nonzero(config: SampleConfig, position: int, variant: Variant,
                   max_level: Optional[int] = None) -> Element:
    """Nonzero element drawn like ``sample_element`` (redrawing zeros),
    with target levels cycling up to ``max_level`` when given, redraws
    included; memoized alike."""
    rng = _rng_for(config, position)
    cap = max_level if max_level is not None else config.max_level
    target = position % (cap + 1)
    for _ in range(24):
        e = _gen(rng, variant, target, _MAX_SYLLABLES)
        if e is not ZERO:
            return e
        target = _draw(rng, 0, cap)
    return nr.identity_element(variant)


def _gen_base(rng, variant, small=False) -> Element:
    if variant is Variant.B_FREE_BASE:
        lo, hi = _BASIS_INDEX_RANGE
        for _ in range(8):
            n = _draw(rng, 1, 2 if small else 3)
            items = [(_draw(rng, lo, hi), _SIGNS[_draw(rng, 0, 1)]) for _ in range(n)]
            e = wc.make_pi(items)
            if e is not ZERO:
                return e
        return wc.make_pi([1])
    lo, hi = _INT_RANGE
    if small:
        lo, hi = max(lo, -3), min(hi, 3)
    n = _draw(rng, lo, hi)
    if n == 0:
        n = 1
    return wc.make_int(n, variant)


def _gen_exact(rng, variant, lvl, budget) -> Element:
    for _ in range(8):
        e = _gen(rng, variant, lvl, budget, sub=True)
        if e.level == lvl:
            return e
    return _fallback_exact(variant, lvl)


def _fallback_exact(variant: Variant, lvl: int) -> Element:
    # lvl >= 1: at level 0 _gen_base never returns zero, so _gen_exact
    # returns on its first try
    e = wc.make_pi([1]) if variant is Variant.B_FREE_BASE else wc.make_int(1, variant)
    for _ in range(lvl):
        e = wc.make_stable(e, wc.neg(e))
    return e


def _gen(rng, variant, lvl, budget, sub=False) -> Element:
    if lvl <= 0:
        return _gen_base(rng, variant, small=sub)
    pieces = []
    syllables = _draw(rng, 1, max(1, budget))
    sub_budget = max(1, budget - 2)
    for pos in range(syllables):
        roll = rng.random()
        if (variant is Variant.C_INT_OMEGA_BASE and roll < 0.18
                and lvl - 1 <= _MAX_OMEGA_INDEX):
            m = _draw(rng, -2, 2)
            pieces.append(wc.make_omega(lvl - 1, m if m else 1))
        elif roll < 0.75 or pos == 0:
            pieces.append(_gen_letter(rng, variant, lvl, sub_budget))
        else:
            pieces.append(_gen(rng, variant, _draw(rng, 0, lvl - 1), sub_budget, sub=sub))
    return wc.sum_elements(pieces)


def _gen_letter(rng, variant, lvl, sub_budget):
    """A signed letter ``(sign, StableLetter)`` whose subscripts have equal
    sizes (mostly negation pairs), so pushing coefficients through sampled
    words cannot grow them geometrically."""
    alpha = _gen_exact(rng, variant, lvl - 1, sub_budget)
    beta = wc.neg(alpha)
    if rng.random() >= 0.8:
        for _ in range(3):
            other = _gen(rng, variant, _draw(rng, 0, lvl - 1), sub_budget, sub=True)
            if other is not ZERO and other is not alpha and wc.size(other) == wc.size(alpha):
                beta = other
                break
    if rng.random() < 0.5:
        alpha, beta = beta, alpha
    return wc._signed(_SIGNS[_draw(rng, 0, 1)], wc._letter(alpha, beta))


def _distinct_from(alpha: Element, variant: Variant) -> Element:
    one = nr.identity_element(variant)
    if alpha is not one:
        return one
    if variant is Variant.B_FREE_BASE:
        return wc.make_pi([1])
    return wc.make_int(2, variant)


def sample_w_element(config: SampleConfig, position: int) -> Element:
    """Element of the invariant subgroup W of variant B: the image of a
    sampled element under the embedding of pi(1), which sends pi(i) to
    pi(i+1) and so maps the whole tower onto W."""
    return nr.f_eval(wc.make_pi([1]), sample_element(config, position, Variant.B_FREE_BASE))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def check_nearring_axioms(variant: Variant, config: SampleConfig) -> Report:
    """Right distributivity, associativity of the product, two-sided
    identity, zero symmetry; sampled triples."""
    nr.drop_memos()
    rep = Report("nearring_axioms", variant, config, 0)
    one = nr.identity_element(variant)
    for case in range(config.count):
        a = sample_element(config, 3 * case, variant)
        b = sample_element(config, 3 * case + 1, variant)
        c = sample_element(config, 3 * case + 2, variant)
        rep.cases_run += 1
        ins = (a, b, c)  # rendered only when a case fails
        lhs = nr.mul(wc.add(a, b), c)
        rhs = wc.add(nr.mul(a, c), nr.mul(b, c))
        if lhs is not rhs:
            rep.record(map(render, ins), "(a+b)c = ac+bc", f"{render(lhs)} != {render(rhs)}")
        lhs = nr.mul(nr.mul(a, b), c)
        rhs = nr.mul(a, nr.mul(b, c))
        if lhs is not rhs:
            rep.record(map(render, ins), "(ab)c = a(bc)", f"{render(lhs)} != {render(rhs)}")
        if nr.mul(a, one) is not a or nr.mul(one, a) is not a:
            rep.record(map(render, ins), "a*1 = 1*a = a", render(nr.mul(a, one)))
        if nr.mul(a, ZERO) is not ZERO or nr.mul(ZERO, a) is not ZERO:
            rep.record(map(render, ins), "a*0 = 0*a = 0", "nonzero")
    return rep


def check_conjugacy(variant: Variant, config: SampleConfig) -> Report:
    """Any two distinct nonzero elements are conjugate through their
    letter: ``-t + alpha + t`` normalizes exactly to ``beta``."""
    nr.drop_memos()
    rep = Report("conjugacy", variant, config, 0)
    for case in range(config.count):
        alpha = sample_nonzero(config, 2 * case, variant)
        beta = sample_nonzero(config, 2 * case + 1, variant)
        if alpha is beta:
            beta = _distinct_from(alpha, variant)
        t = wc.conjugator(alpha, beta)
        rep.cases_run += 1
        got = wc.add(wc.add(wc.neg(t), alpha), t)
        if got is not beta:
            rep.record((render(alpha), render(beta)), render(beta), render(got))
    if rep.passed and rep.cases_run:
        rep.witnesses.append("conjugator(alpha,beta) = t[alpha,beta]")
    return rep


def witness_nonequiprime_B(config: SampleConfig) -> Report:
    """With a = b = pi(1) and c = 2*pi(1), the products a*x*b and a*x*c
    agree for every x although b and c differ."""
    nr.drop_memos()
    variant = Variant.B_FREE_BASE
    rep = Report("nonequiprime_B", variant, config, 0)
    a = wc.make_pi([1])
    b = a
    c = wc.scale(2, a)
    if wc.equal(b, c):
        rep.record(("pi(1)", "2*pi(1)"), "b != c", "equal")
    xs = [ZERO] + [sample_element(config, k, variant) for k in range(config.count)]
    for x in xs:
        rep.cases_run += 1
        lhs = nr.mul(nr.mul(a, x), b)
        rhs = nr.mul(nr.mul(a, x), c)
        if lhs is not rhs:
            rep.record((render(x),), "a*x*b = a*x*c", f"{render(lhs)} != {render(rhs)}")
    rep.witnesses.extend([f"a = b = {render(b)}", f"c = {render(c)}"])
    return rep


def witness_nonequiprime_C(config: SampleConfig) -> Report:
    """With the distinct integers zeta1 = 2 and zeta2 = 3 outside {0, 1},
    the products om(0)*tau*zeta1 and om(0)*tau*zeta2 agree for every tau."""
    nr.drop_memos()
    variant = Variant.C_INT_OMEGA_BASE
    zeta1, zeta2 = 2, 3
    rep = Report("nonequiprime_C", variant, config, 0)
    om0 = wc.make_omega(0, 1)
    z1 = wc.make_int(zeta1, variant)
    z2 = wc.make_int(zeta2, variant)
    if wc.equal(z1, z2):
        rep.record((str(zeta1), str(zeta2)), "zeta1 != zeta2", "equal")
    taus = [ZERO] + [sample_element(config, k, variant) for k in range(config.count)]
    for tau in taus:
        rep.cases_run += 1
        lhs = nr.mul(nr.mul(om0, tau), z1)
        rhs = nr.mul(nr.mul(om0, tau), z2)
        if lhs is not rhs:
            rep.record((render(tau),), "om(0)*tau*zeta1 = om(0)*tau*zeta2",
                       f"{render(lhs)} != {render(rhs)}")
    rep.witnesses.extend([f"a = {render(om0)}", f"zeta1 = {zeta1}", f"zeta2 = {zeta2}"])
    return rep


def check_equiprime_instances_A(config: SampleConfig) -> Report:
    """Instance evidence that the integer-base nearring is equiprime:
    x = t[1,-1] distinguishes any distinct nonzero b, c against any
    nonzero a, and ``t[1,-1] * b`` is exactly ``t[b,-b]``."""
    nr.drop_memos()
    variant = Variant.A_INT_BASE
    rep = Report("equiprime_instances_A", variant, config, 0)
    one = wc.make_int(1, variant)
    x = wc.make_stable(one, wc.neg(one))
    for case in range(config.count):
        a = sample_nonzero(config, 3 * case, variant)
        b = sample_nonzero(config, 3 * case + 1, variant)
        c = sample_nonzero(config, 3 * case + 2, variant)
        if b is c:
            c = _distinct_from(b, variant)
        rep.cases_run += 1
        tb = nr.mul(x, b)
        expected_tb = wc.make_stable(b, wc.neg(b))
        if tb is not expected_tb:
            rep.record((render(b),), render(expected_tb), render(tb))
        lhs = nr.mul(nr.mul(a, x), b)
        rhs = nr.mul(nr.mul(a, x), c)
        if lhs is rhs:
            rep.record((render(a), render(b), render(c)),
                       "a*x*b != a*x*c", render(lhs))
    rep.witnesses.append(f"x = {render(x)}")
    return rep


def check_invariant_subgroups(variant: Variant, config: SampleConfig) -> Report:
    """Closure of the designated invariant subgroup under multiplication
    from both sides, plus nontriviality and an empirical properness
    record.  The subgroup is the image of the embedding of its generator
    (W of pi(1) under B, H of om(0) under C), so members are sampled as
    images of sampled elements."""
    nr.drop_memos()
    rep = Report("invariant_subgroups", variant, config, 0)
    if variant is Variant.B_FREE_BASE:
        gen, name = wc.make_pi([1]), "w"
        member, test = nr.in_w, "in_w({})"
        probes = ((wc.make_pi([0]), False), (gen, True))
    elif variant is Variant.C_INT_OMEGA_BASE:
        gen, name = wc.make_omega(0, 1), "h"
        member, test = (lambda x: nr.in_h(gen, x)), "in_h(om(0), {})"
        probes = ((gen, True), (wc.make_int(1, variant), None))  # None: witness only
    else:
        raise wc.WrongVariant("no designated invariant subgroup under variant A")
    for p, expected in probes:
        got, claim = member(p), test.format(render(p))
        if expected is not None and got is not expected:
            rep.record((render(p),), f"{claim} = {expected}", str(got))
        rep.witnesses.append(f"{claim} = {got}")
    for case in range(config.count):
        h = nr.f_eval(gen, sample_element(config, 2 * case, variant))
        g = sample_nonzero(config, 2 * case + 1, variant)
        rep.cases_run += 1
        left = nr.mul(g, h)
        right = nr.mul(h, g)
        if not member(left):
            rep.record((render(g), render(h)), f"g*{name} in {name.upper()}", render(left))
        if not member(right):
            rep.record((render(h), render(g)), f"{name}*g in {name.upper()}", render(right))
    return rep


def find_left_distrib_counterexample(variant: Variant, config: SampleConfig) -> Report:
    """Search sampled triples for c*(a+b) != c*a + c*b; passes exactly
    when a counterexample turns up, witnessing that the structure is a
    nearring and not a ring."""
    nr.drop_memos()
    rep = Report("left_distrib_counterexample", variant, config, 0)
    for case in range(config.count):
        c = sample_element(config, 3 * case, variant)
        a = sample_element(config, 3 * case + 1, variant)
        b = sample_element(config, 3 * case + 2, variant)
        rep.cases_run += 1
        lhs = nr.mul(c, wc.add(a, b))
        rhs = wc.add(nr.mul(c, a), nr.mul(c, b))
        if lhs is not rhs:
            rep.witnesses.extend(
                [f"c = {render(c)}", f"a = {render(a)}", f"b = {render(b)}",
                 f"c*(a+b) = {render(lhs)}", f"c*a + c*b = {render(rhs)}"])
            return rep
    rep.record(("<stream>",), "a left-distributivity counterexample", "none found")
    return rep


#: suite name -> (tags of the variants it runs under, runner taking the
#: variant and the config), in the order the scripts run and report them;
#: the one suite registry, which ``check`` and ``scripts/run_suites.py``
#: both read.  Runners look the suite function up when called, so a
#: wrapped module attribute is what runs.
SUITES = {
    "axioms": ("ABC", lambda v, c: check_nearring_axioms(v, c)),
    "conjugacy": ("ABC", lambda v, c: check_conjugacy(v, c)),
    "nonequiprime": ("BC", lambda v, c: (witness_nonequiprime_B(c) if v is Variant.B_FREE_BASE
                                         else witness_nonequiprime_C(c))),
    "equiprime": ("A", lambda v, c: check_equiprime_instances_A(c)),
    "invariants": ("BC", lambda v, c: check_invariant_subgroups(v, c)),
    "leftdistrib": ("ABC", lambda v, c: find_left_distrib_counterexample(v, c)),
}

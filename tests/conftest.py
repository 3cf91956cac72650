"""Shared hypothesis strategies (random canonical elements per variant)
and a loader for the scripts in ``scripts/``."""

import importlib.util
import pathlib

import hypothesis.strategies as st

from hnn_nearring import (
    ZERO,
    Element,
    Variant,
    add,
    make_int,
    make_omega,
    make_pi,
    make_stable,
    neg,
    parse_element,
)


def base_elements(variant):
    if variant is Variant.B_FREE_BASE:
        item = st.tuples(st.integers(0, 4), st.sampled_from([1, -1, 2, -2]))
        return st.lists(item, min_size=1, max_size=3).map(make_pi)
    return st.integers(-6, 6).map(lambda n: make_int(n, variant))


def elements(variant, max_level=2):
    """Recursive element strategy; letters are built over distinct
    nonzero lower-level pairs, sums over sampled pieces."""

    def extend(children):
        @st.composite
        def build(draw):
            pieces = draw(st.lists(children, min_size=1, max_size=3))
            out = ZERO
            for idx, p in enumerate(pieces):
                roll = draw(st.integers(0, 9))
                if roll < 6:
                    q = draw(children)
                    if q is ZERO or q is p:
                        q = neg(p) if p is not ZERO else _unit(variant)
                    if p is ZERO:
                        p = neg(q)
                    sign = 1 if draw(st.booleans()) else -1
                    out = add(out, make_stable(p, q, sign))
                elif roll < 8 and variant is Variant.C_INT_OMEGA_BASE:
                    out = add(out, make_omega(draw(st.integers(0, 2)),
                                              draw(st.sampled_from([1, -1, 2]))))
                else:
                    out = add(out, p)
            return out

        return build()

    return st.recursive(base_elements(variant), extend, max_leaves=max_level + 2)


def sum_pieces(variant, max_level=2):
    """Lists of pieces for ``sum_elements``: elements of mixed levels,
    zeros, ``om`` pieces under C, signed letters ``(sign, StableLetter)``
    at and below the top level, and inverses of earlier pieces, which
    make the stream pinch across piece boundaries."""
    element = elements(variant, max_level)
    pair = st.tuples(nonzero_elements(variant, max_level),
                     nonzero_elements(variant, max_level), st.sampled_from([1, -1]))
    letter = pair.filter(lambda p: p[0] is not p[1]).map(
        lambda p: (p[2], make_stable(p[0], p[1]).items[0][1]))
    kinds = [element, letter, st.just(ZERO)]
    if variant is Variant.C_INT_OMEGA_BASE:
        kinds.append(st.builds(make_omega, st.integers(0, 2), st.sampled_from([1, -1, 2])))
    piece = st.one_of(kinds)

    @st.composite
    def build(draw):
        out = []
        for _ in range(draw(st.integers(0, 6))):
            if out and draw(st.integers(0, 3)) == 0:
                p = draw(st.sampled_from(out))
                out.append(neg(p) if isinstance(p, Element) else (-p[0], p[1]))
            else:
                out.append(draw(piece))
        return out

    return build()


def _unit(variant):
    if variant is Variant.B_FREE_BASE:
        return make_pi([0])
    return make_int(1, variant)


def colliding_halves(variant):
    """``z = t[1,-2] + -1 + -t[1,-2]`` and ``u = t[2,-4] + -2 + -t[2,-4]``,
    under B with ``pi(1)`` for ``1`` in ``z`` and ``pi(0)`` for ``1`` in
    ``u``: 2*z is the base element the letter conjugates, and u is a
    second half of twice the identity, so ``f_z(u) = z = f_z(identity)``."""
    one, base = ("pi(0)", "pi(1)") if variant is Variant.B_FREE_BASE else ("1", "1")
    z = parse_element("t[{0},-2*{0}] + -{0} + -t[{0},-2*{0}]".format(base), variant)
    u = parse_element("t[2*{0},-4*{0}] + -2*{0} + -t[2*{0},-4*{0}]".format(one), variant)
    return z, u


def nonzero_elements(variant, max_level=2):
    return elements(variant, max_level).filter(lambda e: e is not ZERO)


def load_script(name):
    """The module ``scripts/<name>.py``, executed once per call."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

#!/usr/bin/env python3
"""Write the normal-form golden: for every sampled element its rendered
canonical form, ``repr`` (the last tie-break of the coset walk), size,
negative, ``-2`` multiple, sum with the next sample, image under a
sampled embedding and the inverse image of that image, one per line,
under every variant at max_level 4; under variant B also ``mu``, ``in_w``
and a sampled member of ``W``, under variant C ``in_h(om(0), x)``.

    python scripts/write_normal_forms.py

writes ``tests/golden/normal_forms_seed7.txt``, which
``tests/test_golden.py`` compares with what this script computes, byte
for byte.  The suite reports carry few element texts, so a change to a
coset representative or to a tie-break of the coset walk shows up here
first.  Regenerate the file only for a change meant to alter a normal
form.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hnn_nearring import (  # noqa: E402
    ZERO,
    SampleConfig,
    Variant,
    add,
    f_eval,
    in_h,
    in_w,
    make_omega,
    mu,
    neg,
    preimage_detail,
    render,
    sample_element,
    sample_nonzero,
    sample_w_element,
    scale,
    size,
)

GOLDEN = ROOT / "tests" / "golden" / "normal_forms_seed7.txt"
CONFIG = SampleConfig(seed=7, count=60, max_level=4)


def normal_form_lines():
    """``<variant> <position> <kind> <text>`` for the first
    ``CONFIG.count`` samples of every variant."""
    om0 = make_omega(0)
    for variant in Variant:
        xs = [sample_element(CONFIG, i, variant) for i in range(CONFIG.count + 1)]
        for i, x in enumerate(xs[:-1]):
            zeta = sample_nonzero(CONFIG, CONFIG.count + 1 + i, variant, max_level=1)
            fx = f_eval(zeta, x)
            back = preimage_detail(zeta, fx)
            tag = f"{variant.value} {i}"
            yield f"{tag} x {render(x)}"
            yield f"{tag} repr {x!r}"
            yield f"{tag} size {size(x)}"
            yield f"{tag} neg {render(neg(x))}"
            yield f"{tag} scale-2 {render(scale(-2, x))}"
            yield f"{tag} sum {render(add(x, xs[i + 1]))}"
            yield f"{tag} f {render(fx)}"
            yield f"{tag} preimage {back.reason} " + (
                "-" if back.element is None else render(back.element))
            if variant is Variant.B_FREE_BASE:
                w = sample_w_element(CONFIG, i)
                yield f"{tag} mu {'-' if x is ZERO else mu(x)}"
                yield f"{tag} in_w {in_w(x)}"
                yield f"{tag} w {render(w)} {in_w(w)}"
            if variant is Variant.C_INT_OMEGA_BASE:
                yield f"{tag} in_h {in_h(om0, x)}"


def normal_forms() -> bytes:
    return "".join(line + "\n" for line in normal_form_lines()).encode("utf-8")


if __name__ == "__main__":
    GOLDEN.write_bytes(normal_forms())

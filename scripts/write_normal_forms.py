#!/usr/bin/env python3
"""Write the normal-form golden: the rendered canonical form of every
sampled element, its negative, its sum with the next sample and its
image under a sampled embedding, one per line, under every variant at
max_level 4.

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
    SampleConfig,
    Variant,
    add,
    f_eval,
    neg,
    render,
    sample_element,
    sample_nonzero,
)

GOLDEN = ROOT / "tests" / "golden" / "normal_forms_seed7.txt"
CONFIG = SampleConfig(seed=7, count=60, max_level=4)


def normal_form_lines():
    """``<variant> <position> <x|neg|sum|f> <text>`` for the first
    ``CONFIG.count`` samples of every variant."""
    for variant in Variant:
        xs = [sample_element(CONFIG, i, variant) for i in range(CONFIG.count + 1)]
        for i, x in enumerate(xs[:-1]):
            zeta = sample_nonzero(CONFIG, CONFIG.count + 1 + i, variant, max_level=1)
            tag = f"{variant.value} {i}"
            yield f"{tag} x {render(x)}"
            yield f"{tag} neg {render(neg(x))}"
            yield f"{tag} sum {render(add(x, xs[i + 1]))}"
            yield f"{tag} f {render(f_eval(zeta, x))}"


def normal_forms() -> bytes:
    return "".join(line + "\n" for line in normal_form_lines()).encode("utf-8")


if __name__ == "__main__":
    GOLDEN.write_bytes(normal_forms())

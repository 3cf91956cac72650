"""Exact arithmetic and nearring products on towers of HNN extensions.

Three towers are supported: variant A over the integers, variant B over
a free group of countable rank, and variant C over the integers with an
extra central generator adjoined at every stage.  Elements carry
canonical normal forms, the nearring product is computed through the
subgroup embeddings attached to nonzero elements, and seeded suites
verify every desk-checkable claim (axioms, conjugacy, equiprime and
non-equiprime witnesses, invariant subgroups).
"""

from .word_core import (
    ZERO,
    DegeneratePair,
    Element,
    EngineError,
    IntChunk,
    Seq,
    StableLetter,
    Variant,
    VariantMismatch,
    WordChunk,
    WrongVariant,
    ZeroAlpha,
    ZeroInput,
    add,
    conjugator,
    cyclic_reduce,
    equal,
    level,
    make_int,
    make_omega,
    make_pi,
    make_stable,
    neg,
    power_of,
    renormalize,
    scale,
    size,
    sum_elements,
    top_letter_count,
)
from .nearring_maps import (
    PreimageResult,
    ZeroZeta,
    drop_memos,
    f_eval,
    identity_element,
    in_h,
    in_w,
    mu,
    mul,
    preimage,
    preimage_detail,
)
from .grammar import ExprSyntaxError, parse_element, render
from .verify_suites import (
    SEED_LIMIT,
    SUITES,
    Report,
    SampleConfig,
    check_conjugacy,
    check_equiprime_instances_A,
    check_invariant_subgroups,
    check_nearring_axioms,
    find_left_distrib_counterexample,
    sample_element,
    sample_nonzero,
    sample_w_element,
    witness_nonequiprime_B,
    witness_nonequiprime_C,
)
from .cli_io import run_cli, write_report

__all__ = [name for name in dir() if not name.startswith("_")]

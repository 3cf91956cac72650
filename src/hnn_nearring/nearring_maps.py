"""Nearring structure carried by the tower groups.

Every nonzero element ``zeta`` determines a homomorphism of the whole
group into itself, sending the designated identity element to ``zeta``;
it is called the embedding attached to ``zeta``, although it need not
be injective (README, "What it computes").  Integers map to integer
multiples of ``zeta`` (basis letters shift by the index offset of
``zeta`` under the free base), letters map to letters of the mapped
subscripts, and central generators shift level by the level of
``zeta``.  The product ``a * b`` is the image of ``a`` under the
embedding attached to ``b``; composing two embeddings gives the
embedding attached to an image, which is associativity.

The product is partial under every variant as built: an embedding can
send two distinct elements to one, so with ``z = t[1,-2] + -1 +
-t[1,-2]`` and ``u = t[2,-4] + -2 + -t[2,-4]`` the letter ``t[u,1]``
would map to ``t[z,z]``, which is no letter.  ``f_eval`` raises
``UndefinedProduct`` there, and where a subscript maps to zero.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Optional

from .word_core import (
    ZERO,
    DegeneratePair,
    Element,
    EngineError,
    IntChunk,
    Seq,
    SignedLetter,
    StableLetter,
    Variant,
    WordChunk,
    WrongVariant,
    ZeroInput,
    _basis_runs,
    _coset_split,
    _fold,
    _join_variants,
    _letter,
    _signed,
    _sweep,
    _word_from,
    make_int,
    make_omega,
    make_pi,
    power_of,
    scale,
    sum_elements,
)

__all__ = [
    "PreimageResult",
    "UndefinedProduct",
    "ZeroZeta",
    "drop_memos",
    "f_eval",
    "identity_element",
    "in_h",
    "in_w",
    "memo_stats",
    "mu",
    "mul",
    "preimage",
    "preimage_detail",
]


class ZeroZeta(EngineError):
    """The embedding family is indexed by nonzero elements only."""


class UndefinedProduct(EngineError):
    """An embedding sends a letter's two subscripts to one element, or
    one of them to zero, so the letter has no image (README, "What it
    computes")."""

    def __init__(self, letter: StableLetter, alpha_image: Element, beta_image: Element):
        # the grammar sits above the engine, and the package has loaded it
        # by the time a product can fail
        from .grammar import render

        super().__init__(
            f"product undefined: the embedding sends the letter "
            f"t[{render(letter.alpha)},{render(letter.beta)}] to "
            f"t[{render(alpha_image)},{render(beta_image)}], which is no letter")


def identity_element(variant: Variant) -> Element:
    """The multiplicative identity: 1 for the integer bases, pi(0) for
    the free base."""
    if variant is Variant.B_FREE_BASE:
        return make_pi([0])
    return make_int(1, variant)


# ---------------------------------------------------------------------------
# The basis offset of variant B
# ---------------------------------------------------------------------------

def mu(gamma: Element) -> int:
    """Largest basis index in the hereditary support of ``gamma``
    (base chunks plus, recursively, letter subscripts); 0 when only
    pi(0) occurs.  Governs where the embedding of ``gamma`` sends the
    basis: pi(i) goes to pi(mu(gamma) + i) for i > 0.  The index is
    fixed when ``gamma`` is built (``Element._hi``)."""
    if gamma is ZERO:
        raise ZeroInput("the basis offset is defined for nonzero elements")
    if gamma.variant is not Variant.B_FREE_BASE:
        raise WrongVariant("the basis offset belongs to the free-base tower")
    return gamma._hi


# ---------------------------------------------------------------------------
# The embeddings
# ---------------------------------------------------------------------------

#: zeta -> {x: image of x under the embedding attached to zeta}; plain
#: dicts, because ``_fold`` reads the children's images out of them
_F_CACHE: dict = {}

#: [hits, misses] of the ``f_eval`` calls since the last ``drop_memos``;
#: a hit is a call answered straight from ``_F_CACHE``.  The counts are
#: unlocked, so racing threads may lose an increment
_F_LOOKUPS = [0, 0]


def f_eval(zeta: Element, x: Element) -> Element:
    """Image of ``x`` under the embedding attached to nonzero ``zeta``.

    Structural on canonical forms, then renormalized: integers scale,
    pi(0) maps to ``zeta`` and pi(i) to the offset letter, ``t[a,b]``
    maps to ``t[image a, image b]``, ``om(j)`` to ``om(level(zeta)+j)``.
    The identity element is a fixed point index: ``f_eval(1, x) = x``.
    """
    if zeta is ZERO:
        raise ZeroZeta("embeddings are attached to nonzero elements")
    _join_variants(zeta.variant, x.variant)
    if x is ZERO:
        return ZERO
    memo = _F_CACHE.setdefault(zeta, {})
    hit = memo.get(x)
    if hit is not None:
        _F_LOOKUPS[0] += 1
        return hit
    _F_LOOKUPS[1] += 1

    def image_of_chunk(b: Element) -> Element:
        if isinstance(b, IntChunk):
            return scale(b.n, zeta)
        # a run of pi(idx > 0) goes to the run of pi(mu(zeta) + idx)
        mz = zeta._hi
        return sum_elements(
            scale(e, zeta) if idx == 0
            else _word_from((mz + idx + 1 if e > 0 else -(mz + idx + 1),) * abs(e))
            for idx, e in _basis_runs(b))

    def image_of_seq(s: Seq, images: dict) -> Element:
        pieces = []
        try:
            for it in s.items:
                if isinstance(it, Element):
                    pieces.append(images[it])
                else:
                    lt = it[1]
                    image = _letter(images[lt.alpha], images[lt.beta])
                    pieces.append(image._pos if it[0] > 0 else image._neg)
        except DegeneratePair:
            raise UndefinedProduct(lt, images[lt.alpha], images[lt.beta]) from None
        if s.omega:
            pieces.append(make_omega(zeta.level + s.level - 1, s.omega))
        return sum_elements(pieces)

    return _fold(x, memo, image_of_chunk, image_of_seq)


def mul(a: Element, b: Element) -> Element:
    """Nearring product: the image of ``a`` under the embedding of ``b``;
    zero annihilates on both sides."""
    _join_variants(a.variant, b.variant)
    if b is ZERO:
        return ZERO
    return f_eval(b, a)


# ---------------------------------------------------------------------------
# Inverse images and the invariant subgroups
# ---------------------------------------------------------------------------

class PreimageResult(NamedTuple):
    """Outcome of an inverse-image search.

    ``reason`` is ``ok``, ``no_parse`` (some component failed to invert)
    or ``ambiguous_parse`` (a candidate was built but failed the final
    verification), so suite failures stay attributable.
    """

    element: Optional[Element]
    reason: str


def preimage_detail(zeta: Element, x: Element) -> PreimageResult:
    """Sound inverse image: any returned element maps back onto ``x``
    exactly (checked before returning)."""
    if zeta is ZERO:
        raise ZeroZeta("embeddings are attached to nonzero elements")
    _join_variants(zeta.variant, x.variant)
    if x is ZERO:
        return PreimageResult(ZERO, "ok")
    y = _invert(zeta, x)
    if y is None:
        return PreimageResult(None, "no_parse")
    if f_eval(zeta, y) is not x:
        return PreimageResult(None, "ambiguous_parse")
    return PreimageResult(y, "ok")


def preimage(zeta: Element, x: Element) -> Optional[Element]:
    return preimage_detail(zeta, x).element


def _scalar_preimage(k: int, variant: Variant) -> Element:
    if variant is Variant.B_FREE_BASE:
        return make_pi([(0, k)])
    return make_int(k, variant)


def _invert(zeta: Element, x: Element) -> Optional[Element]:
    """Candidate inverse image of nonzero ``x`` under the embedding
    attached to ``zeta``, or None, folded bottom up into a memo of this
    call's own, so a shared subterm is inverted once per call and nothing
    is kept after it; None in the memo means no inverse image."""

    def step(y: Element, memo: Optional[dict] = None) -> Optional[Element]:
        # both the leaf and the node of the fold: a Seq comes with the memo
        # holding the inverse images of its children
        k = power_of(y, zeta)
        if k is not None:
            return _scalar_preimage(k, zeta.variant)
        if zeta.variant is Variant.B_FREE_BASE:
            return _invert_free(zeta, y, memo)
        if isinstance(y, IntChunk):
            return None
        pieces = []
        for it in y.items:
            piece = (memo[it] if isinstance(it, Element)
                     else _letter_over(it[0], memo[it[1].alpha], memo[it[1].beta]))
            if piece is None:
                return None
            pieces.append(piece)
        if y.omega:
            piece = _invert_omega(zeta, y.level - 1, y.omega)
            if piece is None:
                return None
            pieces.append(piece)
        return sum_elements(pieces)

    return _fold(x, {}, step, step)


def _invert_free(zeta: Element, y: Element, memo: Optional[dict]) -> Optional[Element]:
    """Inverse image of a node ``y`` under B by the free-product split of
    the image.  ``zeta`` lives on the letters pi(0..mu) and the offset
    letters pi(j > mu) are free of it, so the image of the base is
    ``<zeta> * F(high)``, and above the base the image letters join it.
    ``_pieces`` lays ``y`` out as low pieces, which live on pi(0..mu),
    and inverse images of the others; ``y`` is an image when each
    maximal run of low pieces is a power of ``zeta`` (``_powers``)."""
    own = {it[1] for it in zeta.items if not isinstance(it, Element)} \
        if isinstance(zeta, Seq) else set()
    out = []
    for low, run in groupby(_pieces(y, memo, mu(zeta), own), itemgetter(0)):
        run = [piece for _, piece in run]
        if low:
            run = _powers(zeta, run, memo, own)
        if run is None or None in run:
            return None
        out += run
    return sum_elements(out)


def _powers(zeta: Element, run: list, memo: Optional[dict],
            own: set) -> Optional[list]:
    """Inverse image of a run of low pieces, as pieces: ``k*pi(0)`` when
    the run is ``k*zeta``.  Otherwise the fewest of zeta's own letters
    over images that split the rest into powers of ``zeta`` are read as
    image letters, leftmost first: the embedding is not injective, and
    such a letter is both."""
    k = power_of(sum_elements(run), zeta)
    if k is not None:
        return [make_pi([(0, k)])]
    letters = {i: _letter_over(p[0], memo[p[1].alpha], memo[p[1].beta])
               for i, p in enumerate(run)
               if not isinstance(p, Element) and p[1] in own}
    # cut -> the fewest-letter parse of run[:cut + 1] that ends in the
    # letter at the cut read as an image letter
    parses = {-1: []}
    for j in [i for i, letter in letters.items() if letter is not None] + [len(run)]:
        options = []
        for i, pieces in parses.items():
            k = power_of(sum_elements(run[i + 1:j]), zeta)
            if k is not None:
                options.append(pieces + [make_pi([(0, k)]), letters.get(j)])
        if options:
            parses[j] = min(options, key=len)
    parse = parses.get(len(run))
    return None if parse is None else parse[:-1]


def _pieces(y: Element, memo: Optional[dict], mz: int, own: set):
    """``(low, piece)`` pairs laying out the free-base node ``y``, on an
    explicit stack; ``memo`` holds the inverse images of every element
    below ``y``, ``mz`` is mu(zeta) and ``own`` holds zeta's top-level
    letters.

    A base word gives its maximal runs of low letters, and of high
    letters, shifted down by ``mz``.  A letter over low subscripts is
    low when a subscript has no inverse image, or when it is one of
    zeta's own, so that zeta's blocks read as powers of zeta first.  Any
    other letter is the letter over its subscripts' inverse images.  Any
    other element below ``y`` is its inverse image when it has one, low
    when it lives on pi(0..mz), and otherwise opened into its items, as
    ``y`` itself is first."""
    stack = [y] if isinstance(y, WordChunk) else list(reversed(y.items))
    while stack:
        p = stack.pop()
        if isinstance(p, WordChunk):
            for low, codes in groupby(p.letters, lambda code: abs(code) <= mz + 1):
                codes = tuple(codes)
                yield (True, _word_from(codes)) if low else (False, make_pi(
                    (abs(code) - 1 - mz, 1 if code > 0 else -1) for code in codes))
        elif not isinstance(p, Element):
            sign, lt = p
            ai, bi = memo[lt.alpha], memo[lt.beta]
            if (max(lt.alpha._hi, lt.beta._hi) <= mz
                    and (lt in own or ai is None or bi is None)):
                yield True, p
            else:
                yield False, _letter_over(sign, ai, bi)
        elif memo[p] is not None:
            yield False, memo[p]
        elif p._hi <= mz:
            yield True, p
        else:
            stack += reversed(p.items)


def _letter_over(sign: int, ai: Optional[Element],
                 bi: Optional[Element]) -> Optional[SignedLetter]:
    """Inverse image of a signed letter whose subscripts have the inverse
    images ``ai`` and ``bi``: the shared signed letter over them, a piece
    for ``sum_elements``, if both exist and differ."""
    if ai is None or bi is None:
        return None
    try:
        return _signed(sign, _letter(ai, bi))
    except DegeneratePair:
        return None


def _invert_omega(zeta: Element, om_index: int, m: int) -> Optional[Element]:
    piece = make_omega(om_index, m)
    k = power_of(piece, zeta)
    if k is not None:
        return make_int(k, zeta.variant)
    j = om_index - zeta.level
    if j >= 0:
        return make_omega(j, m)
    return None


def in_w(x: Element) -> bool:
    """Membership in the invariant subgroup generated by the positive
    basis letters: hereditarily, no pi(0) in any base chunk and both
    subscripts of every letter again members, that is, the lowest basis
    index fixed when ``x`` is built (``Element._lo``) is at least 1."""
    if x is ZERO:
        return True
    if x.variant is not Variant.B_FREE_BASE:
        raise WrongVariant("this subgroup lives in the free-base tower")
    return x._lo >= 1


def in_h(zeta: Element, x: Element) -> bool:
    """Membership in the image subgroup of the embedding attached to
    ``zeta``, decided through the inverse-image search."""
    if zeta is ZERO:
        raise ZeroZeta("embeddings are attached to nonzero elements")
    return preimage(zeta, x) is not None


# ---------------------------------------------------------------------------
# Memo lifetime
# ---------------------------------------------------------------------------

def drop_memos() -> None:
    """Empty the engine's two memos (``_F_CACHE`` and ``_coset_split``)
    and their lookup counts, then free the values interned since the
    last drop that nothing holds any more; every public suite calls this
    first, so the memos live from the start of one suite to the start of
    the next, and so does a value only they held.

    The memos only save recomputation, and interning hands a
    recomputation the very object a caller kept, so dropping them never
    changes an answer.  The intern table loses only values no reference
    reaches (``word_core._sweep``), so identity stays equality; the
    sweep frees nothing while another thread runs.  ``_F_CACHE`` is
    cleared in place: a fold in flight on another thread holds its own
    zeta's inner dict, not ``_F_CACHE``, and finishes on it.
    ``_coset_split`` is a private name no tracer rebinds, so the memo is
    cleared through it."""
    _F_CACHE.clear()
    _F_LOOKUPS[:] = 0, 0
    _coset_split.cache_clear()
    _sweep()


def memo_stats() -> dict:
    """memo -> (size, hits, misses) of the two engine memos as they
    stand, counted since the last ``drop_memos``; the size of
    ``_F_CACHE`` counts its entries over all zetas."""
    info = _coset_split.cache_info()
    return {"nearring_maps._F_CACHE": (sum(map(len, _F_CACHE.values())), *_F_LOOKUPS),
            "word_core._coset_split": (info.currsize, info.hits, info.misses)}

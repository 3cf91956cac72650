"""Nearring structure carried by the tower groups.

Every nonzero element ``zeta`` determines an embedding of the whole group
onto a proper subgroup, sending the designated identity element to
``zeta``.  Integers map to integer multiples of ``zeta`` (basis letters
shift by the index offset of ``zeta`` under the free base), letters map
to letters of the mapped subscripts, and central generators shift level
by the level of ``zeta``.  The product ``a * b`` is the image of ``a``
under the embedding attached to ``b``; composing two embeddings gives
the embedding attached to an image, which is associativity.
"""

from __future__ import annotations

import threading
from itertools import groupby
from typing import NamedTuple, Optional, Tuple, Union

from .word_core import (
    ZERO,
    DegeneratePair,
    Element,
    EngineError,
    IntChunk,
    Seq,
    SignedLetter,
    Variant,
    WordChunk,
    WrongVariant,
    ZeroInput,
    _basis_runs,
    _coset_split,
    _first_letter,
    _fold,
    _join_variants,
    _letter,
    _signed,
    _word_from,
    add,
    cyclic_reduce,
    make_int,
    make_omega,
    make_pi,
    make_stable,
    neg,
    power_of,
    scale,
    size,
    sum_elements,
    top_letter_count,
)

__all__ = [
    "PreimageResult",
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


def identity_element(variant: Variant) -> Element:
    """The multiplicative identity: 1 for the integer bases, pi(0) for
    the free base."""
    if variant is Variant.B_FREE_BASE:
        return make_pi([0])
    return make_int(1, variant)


# ---------------------------------------------------------------------------
# The basis offset of variant B
# ---------------------------------------------------------------------------

#: nonzero x -> lowest and highest basis index in the hereditary support
#: of x (base chunks plus, at every level, letter subscripts), filled by
#: ``_span``; a plain dict, not functools.cache, because ``_join_spans``
#: reads the children's values out of it
_SPAN_CACHE: dict = {}

#: dict memo -> [hits, misses] of the calls that read it since the last
#: ``drop_memos``; a hit is a call answered straight from the memo.  The
#: counts are unlocked, so racing threads may lose an increment
_LOOKUPS: dict = {"_F_CACHE": [0, 0], "_INV_CACHE": [0, 0], "_SPAN_CACHE": [0, 0]}


def _span(x: Element) -> Tuple[int, int]:
    span = _SPAN_CACHE.get(x)
    if span is not None:
        _LOOKUPS["_SPAN_CACHE"][0] += 1
        return span
    _LOOKUPS["_SPAN_CACHE"][1] += 1
    return _fold(x, _SPAN_CACHE, _word_span, _join_spans)


def _word_span(w: WordChunk) -> Tuple[int, int]:
    indices = [abs(c) - 1 for c in w.letters]
    return min(indices), max(indices)


def _join_spans(x: Seq, spans: dict) -> Tuple[int, int]:
    kids = []
    for it in x.items:
        if isinstance(it, Element):
            kids.append(spans[it])
        else:
            kids += spans[it[1].alpha], spans[it[1].beta]
    los, his = zip(*kids)
    return min(los), max(his)


def mu(gamma: Element) -> int:
    """Largest basis index in the hereditary support of ``gamma``
    (base chunks plus, recursively, letter subscripts); 0 when only
    pi(0) occurs.  Governs where the embedding of ``gamma`` sends the
    basis: pi(i) goes to pi(mu(gamma) + i) for i > 0."""
    if gamma is ZERO:
        raise ZeroInput("the basis offset is defined for nonzero elements")
    if gamma.variant is not Variant.B_FREE_BASE:
        raise WrongVariant("the basis offset belongs to the free-base tower")
    return _span(gamma)[1]


# ---------------------------------------------------------------------------
# The embeddings
# ---------------------------------------------------------------------------

#: zeta -> {x: image of x under the embedding attached to zeta}; plain
#: dicts, because ``_fold`` reads the children's images out of them
_F_CACHE: dict = {}


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
        _LOOKUPS["_F_CACHE"][0] += 1
        return hit
    _LOOKUPS["_F_CACHE"][1] += 1

    def image_of_chunk(b: Element) -> Element:
        if isinstance(b, IntChunk):
            return scale(b.n, zeta)
        mz = mu(zeta)
        return sum_elements(scale(e, zeta) if idx == 0 else make_pi([(mz + idx, e)])
                            for idx, e in _basis_runs(b))

    def image_of_seq(s: Seq, images: dict) -> Element:
        pieces = [images[it] if isinstance(it, Element)
                  else _signed(it[0], _letter(images[it[1].alpha], images[it[1].beta]))
                  for it in s.items]
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


#: zeta -> {x: candidate inverse image of x under the embedding attached
#: to zeta, or None when x has none}; plain dicts, because ``_fold``
#: reads the children's inverse images out of them
_INV_CACHE: dict = {}


def _invert(zeta: Element, x: Element) -> Optional[Element]:
    """Candidate inverse image of ``x`` under the embedding attached to
    ``zeta``, or None, folded bottom up into ``_INV_CACHE``.  The peel at
    the level of ``zeta`` may invert letter subscripts by a nested fold
    on the same memo; those sit below that level, so it never peels."""
    if x is ZERO:
        return ZERO
    memo = _INV_CACHE.setdefault(zeta, {})
    if x in memo:
        _LOOKUPS["_INV_CACHE"][0] += 1
        return memo[x]
    _LOOKUPS["_INV_CACHE"][1] += 1
    peel = zeta.variant is Variant.B_FREE_BASE and zeta.level >= 1

    def step(y: Element, memo: Optional[dict] = None) -> Optional[Element]:
        # both the leaf and the node of the fold: a Seq comes with the memo
        # holding the inverse images of its children
        k = power_of(y, zeta)
        if k is not None:
            return _scalar_preimage(k, zeta.variant)
        if isinstance(y, IntChunk):
            return None
        if isinstance(y, WordChunk):
            return _invert_word(zeta, y)
        if peel and y.level == zeta.level:
            # blocks spelling powers of zeta and images of basis letters can
            # interleave at this one level; peel generators off the left
            return _peel_invert(zeta, y)
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

    return _fold(x, memo, step, step)


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


def _peel_invert(zeta: Element, x: Element) -> Optional[Element]:
    """Greedy left-to-right parse of an element sitting at the level of
    ``zeta`` itself.  The leftmost atom is either an image of a basis
    letter (index above the offset of ``zeta``), an image letter (both
    subscripts invert), or the head of a block spelling ``zeta``; the
    three cases cannot overlap, so peeling is deterministic on genuine
    images and the final verification rejects everything else."""
    mz = mu(zeta)
    out = []
    v = x
    for _ in range(4 * size(x) + 8):
        if v is ZERO:
            return sum_elements(out)
        k = power_of(v, zeta)
        if k is not None:
            out.append(_scalar_preimage(k, zeta.variant))
            return sum_elements(out)
        atom = _leftmost_atom(v)
        ginv = _invert_atom(zeta, mz, atom)
        if ginv is not None:
            nxt = add(neg(atom), v)
            if _peel_better(nxt, v, zeta.level):
                out.append(ginv)
                v = nxt
                continue
        stripped = False
        for sign in (1, -1):
            cand = add(scale(-sign, zeta), v)
            if _peel_better(cand, v, zeta.level):
                out.append(make_pi([(0, sign)]))
                v = cand
                stripped = True
                break
        if not stripped:
            return None
    return None


def _leftmost_atom(v: Element) -> Element:
    """Leftmost generator of a free-base element: its first signed letter
    as an element, or else the first basis letter of its base word."""
    while isinstance(v, Seq):
        first = v.items[0]
        if isinstance(first, Element):
            v = first
            continue
        sign, lt = first
        return make_stable(lt.alpha, lt.beta, sign)
    code = v.letters[0]
    return make_pi([(abs(code) - 1, 1 if code > 0 else -1)])


def _invert_atom(zeta: Element, mz: int,
                 atom: Element) -> Optional[Union[Element, SignedLetter]]:
    if isinstance(atom, WordChunk):
        code = atom.letters[0]
        idx = abs(code) - 1
        if idx <= mz:
            return None
        return make_pi([(idx - mz, 1 if code > 0 else -1)])
    sign, lt = _first_letter(atom)
    return _letter_over(sign, _invert(zeta, lt.alpha), _invert(zeta, lt.beta))


def _peel_better(cand: Element, v: Element, lvl: int) -> bool:
    return ((top_letter_count(cand, lvl), size(cand))
            < (top_letter_count(v, lvl), size(v)))


def _invert_omega(zeta: Element, om_index: int, m: int) -> Optional[Element]:
    piece = make_omega(om_index, m)
    k = power_of(piece, zeta)
    if k is not None:
        return make_int(k, zeta.variant)
    j = om_index - zeta.level
    if j >= 0:
        return make_omega(j, m)
    return None


def _invert_word(zeta: Element, w: WordChunk) -> Optional[Element]:
    """Inverse image of a free-base chunk by the free-product split of the
    image of the base.  ``zeta`` lives on the letters pi(0..mu) and the
    offset letters pi(j > mu) are free of it, so the image is
    ``<zeta> * F(high)``: ``w`` is an image exactly when every maximal run
    of low letters is a power of ``zeta`` (the image of a power of pi(0)),
    and each high letter pi(j) is the image of pi(j - mu)."""
    mz = mu(zeta)
    items = []
    for low, run in groupby(w.letters, lambda code: abs(code) <= mz + 1):
        if low:
            k = power_of(_word_from(tuple(run)), zeta)
            if k is None:
                return None
            items.append((0, k))
        else:
            items += ((abs(code) - 1 - mz, 1 if code > 0 else -1) for code in run)
    return make_pi(items)


def in_w(x: Element) -> bool:
    """Membership in the invariant subgroup generated by the positive
    basis letters: hereditarily, no pi(0) in any base chunk and both
    subscripts of every letter again members."""
    if x is ZERO:
        return True
    if x.variant is not Variant.B_FREE_BASE:
        raise WrongVariant("this subgroup lives in the free-base tower")
    return _span(x)[0] >= 1


def in_h(zeta: Element, x: Element) -> bool:
    """Membership in the image subgroup of the embedding attached to
    ``zeta``, decided through the inverse-image search."""
    if zeta is ZERO:
        raise ZeroZeta("embeddings are attached to nonzero elements")
    return preimage(zeta, x) is not None


# ---------------------------------------------------------------------------
# Memo lifetime
# ---------------------------------------------------------------------------

#: held while the drop record is read or moved, so racing drops count
#: each memo once
_DROP_LOCK = threading.Lock()
#: the word engine's functools memos, held from import on, so a wrapper
#: later bound to their names (a tracer, say) leaves them reachable
_FUNCTION_MEMOS = (_coset_split, cyclic_reduce)


def _live_memos() -> dict:
    """memo -> (size, hits, misses) of the engine memos as they stand;
    the size of a per-zeta memo counts its entries over all zetas."""
    live = {f"nearring_maps.{name}": (sum(map(len, table.values())), *_LOOKUPS[name])
            for name, table in (("_F_CACHE", _F_CACHE), ("_INV_CACHE", _INV_CACHE))}
    live["nearring_maps._SPAN_CACHE"] = (len(_SPAN_CACHE), *_LOOKUPS["_SPAN_CACHE"])
    for fn in _FUNCTION_MEMOS:
        info = fn.cache_info()
        live[f"word_core.{fn.__name__}"] = (info.currsize, info.hits, info.misses)
    return live


def _combined(total, counts):
    """``(peak, hits, misses)`` over ``total`` and one more memo's counts."""
    return max(total[0], counts[0]), total[1] + counts[1], total[2] + counts[2]


#: memo -> (largest size, hits, misses) over the memos dropped so far
_DROPPED = dict.fromkeys(_live_memos(), (0, 0, 0))


def drop_memos() -> None:
    """Empty the engine's memo tables, keeping their sizes and lookup
    counts in the record that ``memo_stats`` reads.

    The memos only save recomputation, and interning hands a
    recomputation the very object a caller kept, so dropping them never
    changes an answer.  The intern tables stay, because identity is
    equality.  The dict memos are rebound, not cleared: a fold in flight
    on another thread finishes on the memo it was handed."""
    global _F_CACHE, _INV_CACHE, _SPAN_CACHE, _LOOKUPS
    with _DROP_LOCK:
        for name, counts in _live_memos().items():
            _DROPPED[name] = _combined(_DROPPED[name], counts)
        _F_CACHE, _INV_CACHE, _SPAN_CACHE = {}, {}, {}
        _LOOKUPS = {name: [0, 0] for name in _LOOKUPS}
        for fn in _FUNCTION_MEMOS:
            fn.cache_clear()


def memo_stats() -> dict:
    """memo -> (peak, hits, misses) of every engine memo over the
    process: the largest size it reached, dropped or live, and the hits
    and misses of its dropped tables and its live one together."""
    with _DROP_LOCK:
        return {name: _combined(_DROPPED[name], counts)
                for name, counts in _live_memos().items()}

"""Exact arithmetic for towers of HNN extensions.

Starting from a base group (the integers, the integers extended stage by
stage with central generators, or a free group of countable rank), every
stage of the tower adjoins one free letter ``t[a,b]`` per ordered pair of
distinct nonzero elements already present, subject to the single relation
``-t[a,b] + a + t[a,b] = b``.  Iterating forever yields a group in which
any two distinct nonzero elements are conjugate.

Elements are immutable, interned, and always canonical: each element
above the base is stored as its syllable stream in Britton normal form
(Lyndon & Schupp, *Combinatorial Group Theory*, ch. IV), lower-level
coefficients alternating with signed stable letters, pinch free, with
the coefficient in front of each letter a fixed representative of the
coset of the cyclic subgroup attached to that letter.  Structural
equality of canonical forms is therefore equality in the group.  Every
walk over an element iterates that one stored stream.  The group law is
written additively throughout even though the group is highly
nonabelian.

Because every element and letter is interned, identity is equality is
the hash: elements and letters define neither ``__eq__`` nor
``__hash__``, and ``Variant`` takes ``object.__hash__``, so dictionary
keys built from them hash and compare at C speed and memo tables keyed
on operands cost O(1).  Hashes are then addresses, which differ between
runs, so no output may depend on the iteration order of a set of them.
Each value is stored once: a ``Seq`` is keyed on its own stream, and a
signed letter is one of the two pairs its ``StableLetter`` owns.  All
values share one intern table, and a value is kept while anything
outside it holds it: ``_sweep`` deletes the values interned since it
last ran that nothing else holds, so a lookup pays nothing for the bound
and no two live objects ever share a value.
"""

from __future__ import annotations

import enum
import functools
import sys
import threading
from typing import Iterable, Optional, Tuple, Union

__all__ = [
    "DegeneratePair",
    "Element",
    "EngineError",
    "IntChunk",
    "Seq",
    "StableLetter",
    "Variant",
    "VariantMismatch",
    "WordChunk",
    "WrongVariant",
    "ZERO",
    "ZeroAlpha",
    "ZeroInput",
    "add",
    "conjugator",
    "cyclic_reduce",
    "equal",
    "level",
    "make_int",
    "make_omega",
    "make_pi",
    "make_stable",
    "neg",
    "power_of",
    "renormalize",
    "scale",
    "size",
    "sum_elements",
    "top_letter_count",
]


class EngineError(Exception):
    """Base class for every error raised by the engine."""


class WrongVariant(EngineError):
    """A constructor was used under a variant that does not admit it."""


class VariantMismatch(EngineError):
    """Operands belong to different tower variants."""


class DegeneratePair(EngineError):
    """Letter subscripts must be distinct and nonzero."""


class ZeroInput(EngineError):
    """The operation requires a nonzero element."""


class ZeroAlpha(EngineError):
    """Power membership needs a nonzero subgroup generator."""


class Variant(enum.Enum):
    """Which of the three towers the engine is running.

    ``A_INT_BASE`` starts from the integers, ``B_FREE_BASE`` from a free
    group on basis letters ``pi(0), pi(1), ...`` with ``pi(0)`` acting as
    the multiplicative identity of the nearring layer, and
    ``C_INT_OMEGA_BASE`` from the integers but with an extra central
    generator ``om(i)`` adjoined at every stage.
    """

    A_INT_BASE = "A"
    B_FREE_BASE = "B"
    C_INT_OMEGA_BASE = "C"

    # members are singletons, so the identity hash is exact and avoids
    # Enum.__hash__, which hashes the member name in Python
    __hash__ = object.__hash__

    @property
    def int_base(self) -> bool:
        return self is not Variant.B_FREE_BASE


def _join_variants(u: Optional[Variant], v: Optional[Variant]) -> Optional[Variant]:
    if u is None:
        return v
    if v is None or u is v:
        return u
    raise VariantMismatch(f"cannot mix variant {u.value} with variant {v.value}")


# ---------------------------------------------------------------------------
# Element representation
# ---------------------------------------------------------------------------

def _int_repr(n: int) -> str:
    """``str(n)``, or ``hex(n)`` for an integer past
    ``sys.get_int_max_str_digits()``, which ``str`` refuses: element
    reprs never raise and stay distinct for distinct values."""
    try:
        return str(n)
    except ValueError:
        return hex(n)


class Element:
    """A canonical element of the tower group.

    Instances are immutable and interned; two elements are equal in the
    group exactly when they are the same object.  ``level`` is the first
    stage of the tower containing the element (-1 for zero), ``variant``
    is the tower it lives in (None for zero, which belongs to all three).
    ``_lo`` and ``_hi`` are the lowest and highest basis index in the
    hereditary support of a free-base element (base chunks plus, at every
    level, letter subscripts), fixed when it is built; None for zero and
    under variants A and C.
    """

    __slots__ = ()

    level: int = -1
    variant: Optional[Variant] = None
    _lo: Optional[int] = None
    _hi: Optional[int] = None

    def _size(self) -> int:
        raise NotImplementedError


class _Zero(Element):
    __slots__ = ()

    def __repr__(self):
        return "0"

    def _size(self):
        return 0


ZERO = _Zero()


class IntChunk(Element):
    """Nonzero base integer, variants A and C."""

    __slots__ = ("n", "variant")

    level = 0

    def __init__(self, n: int, variant: Variant):
        self.n = n
        self.variant = variant

    def __repr__(self):
        return _int_repr(self.n)

    def _size(self):
        return abs(self.n)


class WordChunk(Element):
    """Nonempty reduced word over the free basis, variant B.

    ``letters`` holds signed codes: ``+(i+1)`` for ``pi(i)`` and
    ``-(i+1)`` for its inverse.
    """

    __slots__ = ("letters", "_lo", "_hi")

    level = 0
    variant = Variant.B_FREE_BASE

    def __init__(self, letters: Tuple[int, ...]):
        self.letters = letters
        self._lo = min(map(abs, letters)) - 1
        self._hi = max(map(abs, letters)) - 1

    def __repr__(self):
        return "p(" + ",".join(map(_int_repr, self.letters)) + ")"

    def _size(self):
        return len(self.letters)


class StableLetter:
    """The letter ``t[alpha,beta]``, identified by its ordered subscript
    pair; it owns the pairs ``(1, self)``, ``(-1, self)`` streams share."""

    __slots__ = ("alpha", "beta", "level", "variant", "_sz", "_pos", "_neg")

    def __init__(self, alpha: Element, beta: Element):
        self.alpha = alpha
        self.beta = beta
        self.level = max(alpha.level, beta.level) + 1
        self.variant = _join_variants(alpha.variant, beta.variant)
        self._sz = 1 + alpha._size() + beta._size()
        self._pos = (1, self)
        self._neg = (-1, self)

    def __repr__(self):
        return f"t[{self.alpha!r},{self.beta!r}]"


#: a signed letter is a pair (sign, StableLetter) with sign in {+1, -1}
SignedLetter = Tuple[int, StableLetter]


def _signed(sign: int, lt: StableLetter) -> SignedLetter:
    """The shared pair ``(sign, lt)`` that streams hold for that letter."""
    return lt._pos if sign > 0 else lt._neg


class Seq(Element):
    """Leveled syllable stream ``c0 s1 c1 ... sk ck`` plus, under variant
    C, an integer coefficient of the central generator of this level
    (kept rightmost).

    ``items`` is the stream itself: the nonzero coefficients (elements of
    lower level) and the shared signed letters ``(sign, StableLetter)`` in
    order, zero coefficients left out; ``n_letters`` counts the letters.
    No two coefficients are adjacent, so a ``Seq`` with letters has its
    first at item 0 or 1 and its last at item -1 or -2.

    Invariants (enforced by the normalizer, assumed everywhere else):
    letters all have letter level equal to ``level``; coefficients live
    strictly below; no pinches; each coefficient in front of a letter is
    the canonical representative of its coset; at least one letter or a
    nonzero ``omega``.

    Under variant B, ``_lo`` and ``_hi`` join the spans of the
    coefficients and of the letters' subscripts; under A and C they are
    None.
    """

    __slots__ = ("level", "variant", "items", "n_letters", "omega", "_sz", "_rp",
                 "_lo", "_hi")

    def __init__(self, lvl, variant, items, omega):
        self.level = lvl
        self.variant = variant
        self.items = items
        self.omega = omega
        n = 0
        sz = abs(omega)
        kids = []
        for it in items:
            if isinstance(it, Element):
                sz += it._size()
                kids.append(it)
            else:
                n += 1
                sz += it[1]._sz
                kids += it[1].alpha, it[1].beta
        self.n_letters = n
        self._sz = sz
        self._rp = None
        self._lo = self._hi = None
        if variant is Variant.B_FREE_BASE:
            self._lo = min(kid._lo for kid in kids)
            self._hi = max(kid._hi for kid in kids)

    def __repr__(self):
        if self._rp is None:
            parts = []
            for it in self.items:
                if isinstance(it, Element):
                    parts.append(repr(it))
                else:
                    parts.append(("" if it[0] > 0 else "-") + repr(it[1]))
            if self.omega:
                parts.append(f"{_int_repr(self.omega)}w{self.level - 1}")
            self._rp = "{" + "+".join(parts) + "}"
        return self._rp

    def _size(self):
        return self._sz


# the intern table: keys hold only ints and already-interned objects, so
# identity is equality is the hash, and one canonical object per value
# makes that hold for what the table returns; setdefault keeps racing
# constructors harmless under threads, where functools.cache would let
# the second of two racing misses overwrite the first and hand out two
# objects for one value.  The four key shapes never collide: an integer
# is keyed on (n, variant), the only key holding a Variant; a word on
# its letters, only ints; a letter on (alpha, beta), two elements; a Seq
# without a central part on its own items, which hold a signed-letter
# pair (its letters fix level and variant), and one with it on (level,
# items, omega), whose first entry is an int and whose second is a
# tuple.  Insertion order is creation order, so a value comes after
# every value it holds, which _sweep relies on
_INTERNED: dict = {}
#: how many of the table's first entries the last ``_sweep`` looked at;
#: the entries after them were interned since
_swept = 0


def _intern_int(n, variant):
    key = (n, variant)
    el = _INTERNED.get(key)
    if el is None:
        el = _INTERNED.setdefault(key, IntChunk(n, variant))
    return el


def _intern_word(letters):
    el = _INTERNED.get(letters)
    if el is None:
        el = _INTERNED.setdefault(letters, WordChunk(letters))
    return el


def _intern_letter(alpha, beta):
    key = (alpha, beta)
    lt = _INTERNED.get(key)
    if lt is None:
        lt = _INTERNED.setdefault(key, StableLetter(alpha, beta))
    return lt


def _intern_seq(lvl, variant, items, omega):
    key = (lvl, items, omega) if omega else items
    el = _INTERNED.get(key)
    if el is None:
        el = _INTERNED.setdefault(key, Seq(lvl, variant, items, omega))
    return el


def _unheld_refcount() -> int:
    """``sys.getrefcount`` of a value that one dict holds besides the
    local it is read into by subscript, read as ``_sweep`` reads it:
    CPython versions count a local and a call argument differently, so
    the figure is measured here rather than written down."""
    table = {None: object()}
    v = table[None]
    return sys.getrefcount(v)


_UNHELD = _unheld_refcount()


def _sweep() -> None:
    """Delete from the intern table every value interned since the last
    sweep that nothing but the table holds, newest first.

    The sweep pops a snapshot of the keys added since the last sweep,
    reads each value by subscript and deletes by the key in hand.
    Creation order is dependency order, so a value freed here releases
    its parts (and its key, which may hold them) before they come up,
    and the same pass frees the parts that only it held; a value
    something held survives and is never looked at again.  A
    ``StableLetter`` also needs its two signed pairs unheld, and its
    ``_pos``/``_neg`` cycle is broken so that reference counting frees
    it.  A value is deleted only when no reference to it exists
    anywhere, so the next build of that value makes the one object of
    it, and identity stays equality.  Frees nothing while another thread
    runs, as that thread could look a value up between the count of its
    references and its deletion; the next sweep with one thread frees
    what was left."""
    global _swept
    if threading.active_count() > 1:
        return
    table, unheld, refs = _INTERNED, _UNHELD, sys.getrefcount
    keys = list(table)[_swept:]
    while keys:
        # rebinding key and v releases the value before, and what only it held
        key = keys.pop()
        v = table[key]
        if type(v) is StableLetter:
            pos, neg_ = v._pos, v._neg
            # each pair holds the letter once
            if refs(v) == unheld + 2 and refs(pos) == unheld and refs(neg_) == unheld:
                del table[key]
                v._pos = v._neg = None
            # kept past this value, the pairs would keep the letter alive
            del pos, neg_
        elif refs(v) == unheld:
            del table[key]
    _swept = len(table)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def make_int(n: int, variant: Variant = Variant.A_INT_BASE) -> Element:
    """Base integer chunk; ``make_int(0)`` is the zero element."""
    if not variant.int_base:
        raise WrongVariant("bare integers are not elements of the free-base tower")
    if n == 0:
        return ZERO
    return _intern_int(n, variant)


def make_pi(word: Iterable[Union[int, Tuple[int, int]]]) -> Element:
    """Free-base word (variant B) from basis indices.

    Items are either a plain index ``i`` (meaning ``pi(i)``) or a pair
    ``(i, e)`` meaning ``pi(i)`` raised to the integer power ``e``.
    """
    raw = []
    for item in word:
        if isinstance(item, tuple):
            idx, exp = item
        else:
            idx, exp = item, 1
        if idx < 0:
            raise WrongVariant("basis indices are natural numbers")
        code = idx + 1 if exp > 0 else -(idx + 1)
        raw.extend([code] * abs(exp))
    reduced = _reduce_word_letters(raw)
    if not reduced:
        return ZERO
    return _intern_word(tuple(reduced))


def make_omega(j: int, m: int = 1) -> Element:
    """Central generator ``om(j)`` scaled by ``m`` (variant C only)."""
    if j < 0:
        raise WrongVariant("omega indices are natural numbers")
    if m == 0:
        return ZERO
    return _intern_seq(j + 1, Variant.C_INT_OMEGA_BASE, (), m)


def make_stable(alpha: Element, beta: Element, sign: int = 1) -> Element:
    """The element consisting of the single signed letter ``t[alpha,beta]``."""
    lt = _letter(alpha, beta)
    if sign not in (1, -1):
        raise EngineError("letter sign must be +1 or -1")
    return _intern_seq(lt.level, lt.variant, (_signed(sign, lt),), 0)


def _letter(alpha: Element, beta: Element) -> StableLetter:
    if alpha is ZERO or beta is ZERO:
        raise DegeneratePair("letter subscripts must be nonzero")
    if alpha is beta:
        raise DegeneratePair("letter subscripts must be distinct")
    _join_variants(alpha.variant, beta.variant)
    return _intern_letter(alpha, beta)


# ---------------------------------------------------------------------------
# Free-word helpers (variant B base chunks)
# ---------------------------------------------------------------------------

def _reduce_word_letters(codes):
    out = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return out


def _word_from(codes) -> Element:
    if not codes:
        return ZERO
    return _intern_word(tuple(codes))


def _word_neg(w: WordChunk) -> Element:
    return _intern_word(tuple(-c for c in reversed(w.letters)))


def _basis_runs(w: WordChunk):
    """Runs of equal basis letters as (index, signed exponent) pairs."""
    out = []
    for code in w.letters:
        idx = abs(code) - 1
        e = 1 if code > 0 else -1
        if out and out[-1][0] == idx:
            out[-1] = (idx, out[-1][1] + e)
        else:
            out.append((idx, e))
    return out


# ---------------------------------------------------------------------------
# Basic queries
# ---------------------------------------------------------------------------

def level(a: Element) -> int:
    """First tower stage containing ``a``; zero sits at stage -1."""
    return a.level


def size(a: Element) -> int:
    """Hereditary weight: base magnitude / word length, plus one per
    signed letter plus the sizes of its subscripts."""
    return a._size()


def top_letter_count(a: Element, lvl: int) -> int:
    """Number of signed letters of ``a`` at stage ``lvl`` (0 if below)."""
    if isinstance(a, Seq) and a.level == lvl:
        return a.n_letters
    return 0


def _first_letter(x: Seq) -> SignedLetter:
    return x.items[1] if isinstance(x.items[0], Element) else x.items[0]


def _last_letter(x: Seq) -> SignedLetter:
    return x.items[-2] if isinstance(x.items[-1], Element) else x.items[-1]


#: stack marker of ``_fold``: the ``Seq`` below it has all its children
#: in the memo
_COMBINE = object()


def _fold(x: Element, memo: dict, leaf, node):
    """Fold over the hereditary structure of nonzero ``x``, bottom up.

    ``leaf(b)`` gives the value of a base chunk and ``node(s, memo)``
    that of a ``Seq`` once ``memo`` holds the values of its children:
    its coefficients and the subscripts of its letters.  Values are
    memoized per interned node in ``memo``, which the caller owns.  The
    walk is an explicit-stack post-order visiting children left to
    right, so depth costs no Python frames and a shared subterm is
    folded once.  A ``Seq`` is expanded once: it goes back on the stack
    with the marker ``_COMBINE`` above it and its missing children above
    that, and is combined when the marker comes up again."""
    stack = [x]
    while stack:
        y = stack.pop()
        if y is _COMBINE:
            y = stack.pop()
            memo[y] = node(y, memo)
            continue
        if y in memo:
            continue
        if not isinstance(y, Seq):
            memo[y] = leaf(y)
            continue
        stack += (y, _COMBINE)
        for it in reversed(y.items):
            if isinstance(it, Element):
                if it not in memo:
                    stack.append(it)
            else:
                if it[1].beta not in memo:
                    stack.append(it[1].beta)
                if it[1].alpha not in memo:
                    stack.append(it[1].alpha)
    return memo[x]


def equal(a: Element, b: Element) -> bool:
    """Group equality; canonical forms make this an identity check."""
    _join_variants(a.variant, b.variant)
    return a is b


def conjugator(alpha: Element, beta: Element) -> Element:
    """The letter conjugating ``alpha`` to ``beta``:
    ``-t[alpha,beta] + alpha + t[alpha,beta]`` normalizes to ``beta``."""
    return make_stable(alpha, beta, 1)


# ---------------------------------------------------------------------------
# The normalizer
# ---------------------------------------------------------------------------

def _items_of(x: Element, lvl: int):
    """Syllable stream of ``x`` viewed inside stage ``lvl`` plus its
    central coefficient at that stage."""
    if x.level < lvl:
        return (x,), 0
    return x.items, x.omega


def _head(x: Seq) -> Element:
    """The coefficient in front of the first letter of ``x``, zero if none
    (the whole stream when ``x`` has no letter)."""
    first = x.items[0] if x.items else ZERO
    return first if isinstance(first, Element) else ZERO


def _tail(x: Seq) -> Element:
    """The coefficient after the last letter of ``x``, zero if none."""
    last = x.items[-1] if x.items else ZERO
    return last if isinstance(last, Element) else ZERO


def _neg_items(x: Seq) -> list:
    """The syllable stream of ``-x``: the stream of ``x`` reversed with
    every coefficient and letter inverted."""
    return [neg(it) if isinstance(it, Element) else _signed(-it[0], it[1])
            for it in reversed(x.items)]


def _assemble(lvl: int, items, omega: int, variant: Variant) -> Element:
    """Normalize an alternating stream of lower-level elements and signed
    stage-``lvl`` letters into a canonical element.

    One left-to-right pass: each accumulated coefficient is split against
    the cyclic subgroup of the next letter, the subgroup part is pushed
    through the letter (changing generator), and a letter meeting its
    inverse across a coefficient that lies entirely in the subgroup is
    cancelled as a pinch.  Cancellations cascade through the stack.

    The stack is the output stream: it always ends in a letter (or is
    empty) while ``acc`` gathers the coefficient after it, and a pinch
    pops that letter, then the coefficient in front of it.
    """
    acc = ZERO
    out = []
    for it in items:
        if isinstance(it, Element):
            if it is not ZERO:
                acc = add(acc, it)
            continue
        sign, lt = it
        gen_in = lt.alpha if sign > 0 else lt.beta
        gen_out = lt.beta if sign > 0 else lt.alpha
        r, j = _coset_split(acc, gen_in) if acc is not ZERO else (ZERO, 0)
        if r is ZERO and out and out[-1][1] is lt and out[-1][0] == -sign:
            out.pop()
            c = out.pop() if out and isinstance(out[-1], Element) else ZERO
            acc = add(c, scale(j, gen_out))
        else:
            if r is not ZERO:
                out.append(r)
            out.append(it)
            acc = scale(j, gen_out)
    if not out and omega == 0:
        return acc
    if acc is not ZERO:
        out.append(acc)
    return _intern_seq(lvl, variant, tuple(out), omega)


def add(a: Element, b: Element) -> Element:
    """Group sum of two canonical elements, in canonical form.  Zero is
    variant-free, so ``add(add(1_A, -1_A), 5_C)`` is ``5_C`` by design."""
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    v = _join_variants(a.variant, b.variant)
    if a.level == 0 and b.level == 0:
        if v is Variant.B_FREE_BASE:
            return _word_from(_reduce_word_letters(list(a.letters) + list(b.letters)))
        return make_int(a.n + b.n, v)
    lvl = a.level if a.level >= b.level else b.level
    ia, oa = _items_of(a, lvl)
    ib, ob = _items_of(b, lvl)
    return _assemble(lvl, ia + ib, oa + ob, v)


def sum_elements(pieces) -> Element:
    """Ordered sum of ``pieces`` in one normalization pass.

    A piece is an element or a signed letter ``(sign, StableLetter)``.
    Above the base the pieces are laid out as one syllable stream at the
    highest level among them: a piece at that level gives its ``items``
    and ``omega``, a lower element is one coefficient, and so is a lower
    signed letter, through ``make_stable``.  A single ``_assemble`` then
    normalizes the whole stream, so no partial sum at that level is built
    or interned.  Base chunks, and a run of adjacent lower pieces, are
    summed pairwise with ``add``: ``n`` of them copy about ``n log n``
    syllables into partial sums, where a left fold would copy and intern
    every prefix, about ``n**2 / 2``.  All pieces' variants are joined
    first: a mixed sum raises ``VariantMismatch`` even where it cancels."""
    pieces = [p for p in pieces if p is not ZERO]
    lvl = -1
    v = None
    for p in pieces:
        q = p if isinstance(p, Element) else p[1]
        v = _join_variants(v, q.variant)
        if q.level > lvl:
            lvl = q.level
    if lvl <= 0:
        return _sum_pairwise(pieces)
    if len(pieces) == 1 and isinstance(pieces[0], Element):
        return pieces[0]
    items = []
    omega = 0
    run = []
    for p in pieces:
        if isinstance(p, Element):
            if p.level < lvl:
                run.append(p)
                continue
        else:
            sign, lt = p
            if lt.level < lvl:
                run.append(make_stable(lt.alpha, lt.beta, sign))
                continue
        if run:
            items.append(_sum_pairwise(run))
            run = []
        if isinstance(p, Element):
            items += p.items
            omega += p.omega
        else:
            items.append(_signed(sign, lt))
    if run:
        items.append(_sum_pairwise(run))
    return _assemble(lvl, items, omega, v)


def _sum_pairwise(items) -> Element:
    """Ordered sum of nonzero elements, added in pairs, then pairs of
    pairs, so each element is copied into ``log n`` partial sums."""
    while len(items) > 1:
        items = [add(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
                 for i in range(0, len(items), 2)]
    return items[0] if items else ZERO


def neg(a: Element) -> Element:
    """Group inverse; ``add(a, neg(a))`` is zero."""
    if a is ZERO:
        return ZERO
    if isinstance(a, IntChunk):
        return _intern_int(-a.n, a.variant)
    if isinstance(a, WordChunk):
        return _word_neg(a)
    return _assemble(a.level, _neg_items(a), -a.omega, a.variant)


_MATERIALIZE_LIMIT = 2_000_000


def scale(k: int, a: Element) -> Element:
    """Integer multiple ``k*a`` (k-fold sum), computed through the
    cyclically reduced core so the cost is linear in ``k``."""
    if k == 0 or a is ZERO:
        return ZERO
    if k == 1:
        return a
    if k == -1:
        return neg(a)
    if isinstance(a, IntChunk):
        return _intern_int(k * a.n, a.variant)
    d, core = cyclic_reduce(a)
    # the guard counts the stream copied below: none for an integer core,
    # and none for a letter-free central core, whose power is one product
    copied = (0 if isinstance(core, IntChunk)
              else len(core.letters if isinstance(core, WordChunk) else core.items))
    if abs(k) * copied > _MATERIALIZE_LIMIT:
        try:
            power = f"{abs(k)}-fold power"
        except ValueError:  # k is longer than sys.get_int_max_str_digits()
            power = f"power with a more than {sys.get_int_max_str_digits()}-digit exponent"
        raise EngineError(
            f"refusing to materialize a {power} of an element of size {core._size()}")
    if isinstance(core, IntChunk):
        kc = _intern_int(k * core.n, core.variant)
    elif isinstance(core, WordChunk):
        letters = core.letters if k > 0 else tuple(-c for c in reversed(core.letters))
        kc = _intern_word(letters * abs(k))
    else:
        single = core.items if k > 0 else _neg_items(core)
        kc = _assemble(core.level, single * abs(k), k * core.omega, core.variant)
    if d is ZERO:
        return kc
    return add(add(neg(d), kc), d)


def renormalize(a: Element) -> Element:
    """Rebuild ``a`` from scratch through the public constructors.

    Canonical forms are fixed points; used as the idempotence oracle."""
    if a is ZERO:
        return ZERO
    if isinstance(a, IntChunk):
        return make_int(a.n, a.variant)
    if isinstance(a, WordChunk):
        return make_pi([(abs(c) - 1, 1 if c > 0 else -1) for c in a.letters])
    out = ZERO
    for it in a.items:
        if isinstance(it, Element):
            out = add(out, renormalize(it))
        else:
            sign, lt = it
            out = add(out, make_stable(renormalize(lt.alpha), renormalize(lt.beta), sign))
    if a.omega:
        out = add(out, make_omega(a.level - 1, a.omega))
    return out


# ---------------------------------------------------------------------------
# Cyclic reduction
# ---------------------------------------------------------------------------

def cyclic_reduce(a: Element):
    """Split ``a = -c + core + c`` with ``core`` cyclically reduced,
    meaning ``core + core`` carries exactly twice the top-level letters
    of ``core`` (no cancellation or pinch across the junction).  Not
    memoized: ``scale`` and the misses of ``_coset_split`` call it, and a
    memo here saved no time (README, "Tables")."""
    if a is ZERO:
        raise ZeroInput("cannot cyclically reduce zero")
    d = ZERO
    cur = a
    while True:
        if isinstance(cur, IntChunk):
            break
        if isinstance(cur, WordChunk):
            letters = cur.letters
            while len(letters) >= 2 and letters[0] == -letters[-1]:
                head = _word_from([letters[0]])
                d = add(neg(head), d)
                letters = letters[1:-1]
            cur = _word_from(list(letters))
            break
        if _joins_clean(cur, cur, cur.level):
            break
        first = _head(cur)
        if first is ZERO:
            sign, lt = _first_letter(cur)
            first = make_stable(lt.alpha, lt.beta, sign)
        cur = add(add(neg(first), cur), first)
        d = add(neg(first), d)
    return d, cur


# ---------------------------------------------------------------------------
# Coset representatives
# ---------------------------------------------------------------------------

@functools.cache
def _coset_split(c: Element, gen: Element):
    """Write nonzero ``c = r + j*gen`` where ``r`` is the canonical
    representative of the coset ``{c + k*gen}``.  The choice of
    representative depends only on the coset, which is what makes the
    normal form unique.  Callers answer zero (``r = 0``, ``j = 0``)
    themselves, which keeps it out of the memo."""
    k = _shift_any(c, gen)
    if k == 0:
        return c, 0
    return add(c, scale(k, gen)), -k


def _shift_any(e: Element, gen: Element) -> int:
    d, core = cyclic_reduce(gen)
    if d is not ZERO:
        e = add(e, neg(d))
    return _rep_shift(e, core)


def _rep_shift(e: Element, a: Element) -> int:
    """Canonical shift ``k`` such that ``e + k*a`` represents the coset
    ``{e + k*a : k}``; ``a`` must be cyclically reduced and nonzero."""
    if e is ZERO:
        return 0
    if e.level > a.level:
        # a merges into the trailing coefficient, which no letter guards
        return _rep_shift(_tail(e), a)
    if isinstance(a, IntChunk):
        ev = e.n
        r0 = ev % abs(a.n)
        return (r0 - ev) // a.n
    if isinstance(a, WordChunk):
        return _walk_argmin(e, a, len(e.letters) if isinstance(e, WordChunk) else 0,
                            len(a.letters))
    # a is a Seq
    p = a.n_letters
    if a.variant is Variant.C_INT_OMEGA_BASE and p == 0:
        a_k = _head(a)
        if isinstance(e, Seq) and e.level == a.level:
            e_k, e_m = _k_part(e), e.omega
        else:
            e_k, e_m = e, 0
        if a_k is ZERO:
            r0 = e_m % abs(a.omega)
            return (r0 - e_m) // a.omega
        return _shift_any(e_k, a_k)
    le = top_letter_count(e, a.level)
    return _walk_argmin(e, a, le, p)


def _k_part(e: Seq) -> Element:
    if e.n_letters == 0:
        return _head(e)
    if e.omega == 0:
        return e
    return _intern_seq(e.level, e.variant, e.items, 0)


def _walk_argmin(e: Element, a: Element, le: int, p: int) -> int:
    """Pick the coset representative among ``e + k*a``.

    Walk both directions from ``e``, testing each append at the junction
    with ``_joins_clean`` before building it.  A clean append keeps every
    letter, so it has exactly ``p`` letters more than the candidate before
    it, which is already in the set: neither it nor any later append (all
    clean once one is, ``a`` being cyclically reduced) can minimize the
    letter count, and the direction stops without building it.  The
    candidates therefore contain every letter-count minimizer of the
    coset no matter which member the walk starts from, which keeps the
    choice coset-invariant."""
    lvl = a.level
    cap = (2 * le) // p + 4
    cands = [(_metric(e, lvl), 0, e)]
    walks = [(a, 1)]
    # the first -1 junction is read off a, so neg(a) is built only for a
    # walk that takes at least one step
    if not _joins_clean_neg(e, a, lvl):
        walks.append((neg(a), -1))
    for step, sgn in walks:
        x = e
        for k in range(1, cap + 1):
            if _joins_clean(x, step, lvl):
                break
            x = add(x, step)
            cands.append((_metric(x, lvl), sgn * k, x))
    best_m = min(c[0] for c in cands)
    pool = [c for c in cands if c[0] == best_m]
    if len(pool) > 1:
        best_s = min(c[2]._size() for c in pool)
        pool = [c for c in pool if c[2]._size() == best_s]
        if len(pool) > 1:
            pool.sort(key=lambda c: repr(c[2]))
    return pool[0][1]


def _joins_clean(x: Element, y: Element, lvl: int) -> bool:
    """Whether ``x + y`` keeps every stage-``lvl`` letter of both
    canonical operands (of level at most ``lvl``), read off at the
    junction without building the sum.

    Two reduced words can cancel only where they meet (Britton's lemma):
    at stage 0 the last code of ``x`` against the first code of ``y``;
    above it the last letter of ``x`` against the first letter of ``y``,
    which pinch exactly when they are inverse and the junction
    coefficient splits to the zero representative against the generator
    ``_assemble`` splits against for that letter."""
    if lvl == 0:
        return not (isinstance(x, WordChunk) and isinstance(y, WordChunk)
                    and x.letters[-1] == -y.letters[0])
    if top_letter_count(y, lvl) == 0:
        return True
    sign, lt = _first_letter(y)
    return _letter_joins_clean(x, sign, lt, _head(y), lvl)


def _joins_clean_neg(x: Element, a: Element, lvl: int) -> bool:
    """``_joins_clean(x, neg(a), lvl)`` without building ``neg(a)``.

    The first letter of ``-a`` inverts the last letter of ``a``, and the
    coefficient in front of it is the coset representative of
    ``neg(_tail(a))`` against the generator that letter splits against,
    so both coefficients give the junction the same coset."""
    if lvl == 0:
        return not (isinstance(x, WordChunk) and isinstance(a, WordChunk)
                    and x.letters[-1] == a.letters[-1])
    if top_letter_count(a, lvl) == 0:
        return True
    sign, lt = _last_letter(a)
    return _letter_joins_clean(x, -sign, lt, neg(_tail(a)), lvl)


def _letter_joins_clean(x: Element, sign: int, lt: StableLetter, c0: Element,
                        lvl: int) -> bool:
    """Whether the last stage-``lvl`` letter of ``x``, if any, survives
    when ``x`` is followed by the coefficient ``c0`` and the letter
    ``(sign, lt)``: it pinches exactly when the two letters are inverse
    and the junction coefficient lies in the cyclic subgroup
    ``_assemble`` splits against."""
    if top_letter_count(x, lvl) == 0 or _last_letter(x) is not _signed(-sign, lt):
        return True
    gen_in = lt.alpha if sign > 0 else lt.beta
    c = add(_tail(x), c0)
    return c is not ZERO and _coset_split(c, gen_in)[0] is not ZERO


def _metric(x: Element, lvl: int) -> int:
    if lvl == 0:
        return len(x.letters) if isinstance(x, WordChunk) else 0
    return top_letter_count(x, lvl)


# ---------------------------------------------------------------------------
# Power membership
# ---------------------------------------------------------------------------

def power_of(g: Element, alpha: Element) -> Optional[int]:
    """Exact decision of ``g = k*alpha``: returns the integer ``k`` when it
    exists (0 exactly for ``g`` zero), ``None`` otherwise.

    ``g`` is a multiple of ``alpha`` exactly when its coset of
    ``<alpha>`` is the subgroup itself, whose representative is zero: the
    same test ``_assemble`` makes for a pinch.  No nonzero multiple lies
    above the level of ``alpha``."""
    if alpha is ZERO:
        raise ZeroAlpha("power membership needs a nonzero generator")
    _join_variants(g.variant, alpha.variant)
    if g is ZERO:
        return 0
    if g.level > alpha.level:
        return None
    r, j = _coset_split(g, alpha)
    return j if r is ZERO else None

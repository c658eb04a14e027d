"""Symbolic sets: the tame algebra extended by one axiomatized Vitali atom V.

V is never constructed.  It is a formal atom subject to the axioms

    V is a Vitali set:  exactly one representative of each coset of Q
                        in R, so V has at most one point in any single
                        coset, and exactly one rational point;
    V subset of W1, V dense in W1, kV = kW1, iV = empty;
    dV = kW0;
    every open U meets the complement of V in a nonmeager set
    (hence cV is dense and d(cV) = k(cV) = R),

for session parameters W0 subset of W1, both open with rational endpoints,
W0 nonempty (V's rational translates cover R, so V is nonmeager by Baire).
The evaluation universe is then

    tame(B)    = B            (a TameSet)
    plusV(B)   = B union V
    minusV(B)  = B minus V

which is closed under k, i, c, d, f:

  * c swaps plusV and minusV over cB with no collapse check: a plusV(B)
    that did not collapse has W1 not inside B, so cB meets W1 and
    minusV(cB) does not collapse either; conversely a minusV(B) that did
    not collapse has B meeting W1, so W1 is not inside cB.
  * k(plusV(B)) = kB u kW1 by additivity of closure.
  * k(minusV(B)) = kB.  Justification, cell by cell of B: a full or
    irrationals cell stays dense in its span after removing V because
    every open U has U & cV nonmeager (for the irrationals trace, remove
    the meager rationals too); a rationals trace is a single coset of Q
    and loses at most one point to V; an isolated point p of B outside
    W1 is certainly kept (V lies inside the open set W1).  An isolated
    point strictly inside W1 is the one genuinely undecidable case —
    whether p is in V is not determined by the axioms — and the
    evaluator raises Undecidable instead of guessing.
  * d(plusV(B)) = dB u kW0 by finite additivity of d.
  * d(minusV(B)) = dB, with no undecidable case: full cells keep every
    neighborhood nonmeager (U & cV nonmeager), irrationals cells likewise
    (if (U minus Q) minus V were meager then U & cV would be meager),
    rationals traces and isolated points are meager with or without V.
  * i = c k c, so its undecidable case is an isolated point of the
    *complement* of a plusV base inside W1.
  * f(S) = k(S) & k(cS), always tame because k-images are tame.

apply_word folds a word right to left.  While the image is plusV or
minusV, each letter goes through sym_apply behind a value cache keyed on
(letter, SymbolicSet).  That prefix is at most a run of c's plus one more
letter, because k, d, f and i = ckc always give a tame image, and it is
the only place Undecidable can arise; k, d and f on a plusV set merge
breakpoints with kW1 or kW0, which the cache spares the words applied to
one set.  From the first tame image on, the rest of the word is one
realsets.apply_word walk on the profile's shape, one move of the interned
shape graph per letter.  That walk is exact: sym_apply on tame(B) is tame
of the realsets operator on B, and by the locality lemma (see realsets)
composing the moves and their keep maps gives the very profile the
letter-by-letter fold builds.  Tame steps therefore never reach the value
cache.

A subset test A in B is the three-valued AND of an off-V question and an
on-V question.  Off V every mode equals its base, so the off-V question is
whether the remainder R = A.base minus B.base is a subset of V.  It is
answered from one inclusion walk of the two bases,
realsets.difference_points, which never builds R:

    None (R holds an interval or a dense trace)   False
    two or more points                            False
    one point outside W1                          False
    one point inside W1                           None (undecidable)
    () (R is empty)                               True

An interval or a trace holds two points of one coset of Q, and so do two
rationals, while V holds at most one point of each coset; V lies inside
the open set W1; whether a rational inside W1 is V's one rational point
is not determined by the axioms.

The on-V question is driven by the two modes.  Where neither mode settles
it, it asks whether a tame set T misses V (T = cB for A plusV and B tame,
T = A for A tame and B minusV).  That is decided by intersecting with W1:
V meets every open interval of W1 and every irrationals trace in W1 (V
minus Q is still dense in W1); a rationals trace or a finite point set
inside W1 may or may not catch V's single rational representative —
undecidable.  For two tame sets T would be R itself, and the on-V answer
is the off-V one: an empty R misses V, and one rational inside W1 may or
may not be V's.  So a tame pair is answered by the walk alone.

Answers are returned as soon as they are settled: a False off-V answer
skips the on-V question, and a False first direction of an equality skips
the second.  Two tame sets that differ by one rational point inside W1
still come out None: each half is undecidable on its own, though together
they force False.  That is a known completeness defect, pinned by an xfail
test and not yet mended.

Boolean combinations have one case analysis, in sym_union; intersection
and difference follow by De Morgan:

    A & B = c(cA u cB)        A minus B = c(cA u B)

This is exact because c is an involution on canonical symbolic sets (the
no-collapse argument in the c bullet above).  Every case of the
intersection is a case of the union with plusV and minusV swapped, and
the union's "tame part partly meets W1" raise asks the same two questions
(does V miss T?  does V miss cT?) with T and cT exchanged.
"""

from __future__ import annotations

from functools import lru_cache

from . import realsets
from .realsets import TameSet, closure, complement, intersect, second_category, union
from .words import CONSTANTS, LETTERS, render_word


class Undecidable(Exception):
    """The axioms of the Vitali atom do not determine the answer."""


class VitaliParams:
    """Session parameters of the atom: open W0 subset of W1, W0 nonempty.

    Immutable by convention, like TameSet; equal when every field is equal.
    """

    __slots__ = ("w0", "w1", "kw0", "kw1", "_hash")

    def __init__(self, w0: TameSet, w1: TameSet, kw0: TameSet, kw1: TameSet):
        self.w0 = w0
        self.w1 = w1
        self.kw0 = kw0
        self.kw1 = kw1
        self._hash = hash((w0, w1, kw0, kw1))

    def __eq__(self, other):
        if other.__class__ is not VitaliParams:
            return NotImplemented
        return (self.w0, self.w1, self.kw0, self.kw1) == (
            other.w0, other.w1, other.kw0, other.kw1)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"VitaliParams(w0={self.w0!r}, w1={self.w1!r}, "
                f"kw0={self.kw0!r}, kw1={self.kw1!r})")

    @classmethod
    def make(cls, w0: TameSet, w1: TameSet) -> "VitaliParams":
        if not w0.is_open() or not w1.is_open():
            raise ValueError("W0 and W1 must be open")
        if w0.is_empty():
            raise ValueError("W0 must be nonempty: V is nonmeager (its rational "
                             "translates cover R), so dV = kW0 is not empty")
        if not realsets.is_subset(w0, w1):
            raise ValueError("W0 must be a subset of W1")
        return cls(w0, w1, closure(w0), closure(w1))


DEFAULT_PARAMS = VitaliParams.make(realsets.interval(8, 9), realsets.interval(8, 10))

MODE_TAME = "tame"
MODE_PLUS = "plusV"
MODE_MINUS = "minusV"


class SymbolicSet:
    """tame(base), plusV(base) or minusV(base); immutable by convention, like
    TameSet, and equal when base, mode and params are equal."""

    __slots__ = ("base", "mode", "params")

    def __init__(self, base: TameSet, mode: str = MODE_TAME,
                 params: VitaliParams | None = None):
        self.base = base
        self.mode = mode
        self.params = params

    def __eq__(self, other):
        if other.__class__ is not SymbolicSet:
            return NotImplemented
        return (self.base, self.mode, self.params) == (other.base, other.mode, other.params)

    def __hash__(self):
        return hash((self.base, self.mode, self.params))

    def is_tame(self) -> bool:
        return self.mode == MODE_TAME

    def render(self) -> str:
        return render_symbolic(self)

    def __repr__(self):
        return f"SymbolicSet({render_symbolic(self)!r})"


def tame(base: TameSet) -> SymbolicSet:
    return SymbolicSet(base, MODE_TAME, None)


def plus_v(base: TameSet, params: VitaliParams = DEFAULT_PARAMS) -> SymbolicSet:
    """B u V, collapsed to tame when W1 (hence V) is inside B."""
    if realsets.is_subset(params.w1, base):
        return tame(base)
    return SymbolicSet(base, MODE_PLUS, params)


def minus_v(base: TameSet, params: VitaliParams = DEFAULT_PARAMS) -> SymbolicSet:
    """B minus V, collapsed to tame when B misses W1 (V lives inside open W1)."""
    if intersect(base, params.w1).is_empty():
        return tame(base)
    return SymbolicSet(base, MODE_MINUS, params)


def _params_of(*sets: SymbolicSet) -> VitaliParams:
    params = None
    for s in sets:
        if s.params is not None:
            if params is not None and params != s.params:
                raise ValueError("mixed Vitali parameters")
            params = s.params
    return params if params is not None else DEFAULT_PARAMS


# -- operator action -------------------------------------------------------


def _check_k_decidable(base: TameSet, params: VitaliParams) -> None:
    for p in base.isolated_points():
        if params.w1.contains(p):
            raise Undecidable(
                f"isolated point {p} lies inside W1: membership in V is not "
                f"determined by the atom's axioms")


def sym_apply(letter: str, s: SymbolicSet) -> SymbolicSet:
    if len(letter) != 1 or letter not in LETTERS + CONSTANTS:
        raise ValueError(f"unknown operator letter {letter!r}")
    if s.mode == MODE_TAME or letter in CONSTANTS:  # constants are absolute
        return tame(realsets.apply_word(letter, s.base))
    params = s.params
    if letter == "c":  # never collapses (module docstring)
        mode = MODE_MINUS if s.mode == MODE_PLUS else MODE_PLUS
        return SymbolicSet(complement(s.base), mode, params)
    if letter == "k":
        if s.mode == MODE_PLUS:
            return tame(union(closure(s.base), params.kw1))
        _check_k_decidable(s.base, params)
        return tame(closure(s.base))
    if letter == "d":
        if s.mode == MODE_PLUS:
            return tame(union(second_category(s.base), params.kw0))
        return tame(second_category(s.base))
    if letter == "i":
        return sym_apply("c", sym_apply("k", sym_apply("c", s)))
    # letter == "f": both closures are tame, so the frontier always is.
    k_img = sym_apply("k", s)
    kc_img = sym_apply("k", sym_apply("c", s))
    return tame(intersect(k_img.base, kc_img.base))


@lru_cache(maxsize=262144)
def _cached_apply(letter: str, s: SymbolicSet) -> SymbolicSet:
    return sym_apply(letter, s)


def apply_word(word: str, s: SymbolicSet) -> SymbolicSet:
    """Right-to-left fold of sym_apply; constants 0 and 1 are absolute.

    Letters applied to a plusV or minusV set go through the value cache.
    From the first tame image on, the rest of the word is one
    realsets.apply_word walk on the profile's shape.
    """
    cur = s
    pos = len(word) - 1
    while pos >= 0 and cur.mode != MODE_TAME:
        ch = word[pos]
        try:
            cur = _cached_apply(ch, cur)
        except Undecidable as exc:
            raise Undecidable(
                f"{exc} [letter {ch!r} at position {pos + 1} of "
                f"{render_word(word)!r}]") from None
        pos -= 1
    if pos < 0:
        return cur
    base = realsets.apply_word(word[:pos + 1], cur.base)
    return cur if base is cur.base else tame(base)


# -- three-valued V facts ---------------------------------------------------


def _disjoint_from_v(r: TameSet, params: VitaliParams):
    """Is the tame set r disjoint from V?  True/False/None(undecidable)."""
    rw = intersect(r, params.w1)
    if rw.is_empty():
        return True
    if any(g in (realsets.FULL, realsets.IRRS) for g in rw.gaps):
        return False  # V (even minus its one rational) is dense in W1
    return None  # rational traces / points may or may not catch V's rational


def _and3(*vals):
    if any(v is False for v in vals):
        return False
    if any(v is None for v in vals):
        return None
    return True


def _subset3(a: SymbolicSet, b: SymbolicSet):
    params = _params_of(a, b)
    ma, mb = a.mode, b.mode
    # Off V every mode reduces to its base: is R = a.base minus b.base in V?
    points = realsets.difference_points(a.base, b.base)
    if points == ():
        off_v = True
    elif points is None or len(points) > 1 or not params.w1.contains(points[0]):
        # An interval or a trace of R holds two points of one coset of Q, and
        # so do two rationals; V holds at most one point of each coset and
        # lies inside the open set W1.
        return False
    else:
        off_v = None  # is the one rational point inside W1 V's own?
    if ma == MODE_TAME and mb == MODE_TAME:
        return off_v  # on V: R misses V, or it is that one point again
    if ma == MODE_MINUS or mb == MODE_PLUS:
        on_v = True
    elif ma == MODE_PLUS and mb == MODE_MINUS:
        on_v = False  # V is nonempty
    elif ma == MODE_PLUS:  # b tame: need V inside b
        on_v = _disjoint_from_v(complement(b.base), params)
    else:  # a tame, b minusV: need V to miss a
        on_v = _disjoint_from_v(a.base, params)
    return _and3(off_v, on_v)


def _equal3(a: SymbolicSet, b: SymbolicSet):
    if a == b:
        return True
    forward = _subset3(a, b)
    if forward is False:
        return False
    return _and3(forward, _subset3(b, a))


def sym_subset(a: SymbolicSet, b: SymbolicSet) -> bool:
    res = _subset3(a, b)
    if res is None:
        raise Undecidable(
            f"subset of {render_symbolic(a)!r} in {render_symbolic(b)!r} is not "
            f"determined by the atom's axioms")
    return res


def sym_equal(a: SymbolicSet, b: SymbolicSet) -> bool:
    res = _equal3(a, b)
    if res is None:
        raise Undecidable(
            f"equality of {render_symbolic(a)!r} and {render_symbolic(b)!r} is not "
            f"determined by the atom's axioms")
    return res


# -- boolean combinations ----------------------------------------------------


def sym_union(a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    params = _params_of(a, b)
    ma, mb = a.mode, b.mode
    if ma == MODE_TAME and mb == MODE_TAME:
        return tame(union(a.base, b.base))
    if MODE_PLUS in (ma, mb):
        # (X u V) u Y = (X u Y) u V whether or not Y subtracts V.
        return plus_v(union(a.base, b.base), params)
    if ma == MODE_MINUS and mb == MODE_MINUS:
        return minus_v(union(a.base, b.base), params)
    # minusV u tame: representable only when the tame side's relation to V is known.
    m, t = (a, b) if ma == MODE_MINUS else (b, a)
    if _disjoint_from_v(t.base, params) is True:
        return minus_v(union(m.base, t.base), params)
    if _disjoint_from_v(complement(t.base), params) is True:
        return tame(union(m.base, t.base))  # V inside the tame side
    raise Undecidable(
        f"union of {render_symbolic(m)!r} with {render_symbolic(t)!r} is not "
        f"representable: the tame part partly meets W1")


def sym_intersect(a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    return sym_apply("c", sym_union(sym_apply("c", a), sym_apply("c", b)))


def sym_difference(a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    return sym_apply("c", sym_union(sym_apply("c", a), b))


# -- derived predicates ------------------------------------------------------


def is_meager(s: SymbolicSet) -> bool:
    """dS = empty (the d operator characterizes meagerness)."""
    return apply_word("d", s).base.is_empty()


def has_baire_property(s: SymbolicSet):
    """True / False / "unknown".

    Tame sets differ from an open set by a meager set.  A surviving
    plusV/minusV set fails the property whenever its V-part is nonmeager,
    which happens exactly when W0 minus the base (resp. base & W0) still
    has a full or irrationals gap.  When that part is provably meager the
    conservative answer is "unknown".
    """
    if s.mode == MODE_TAME:
        return True
    params = s.params
    if s.mode == MODE_PLUS:
        v_part = realsets.difference(params.w0, s.base)
    else:
        v_part = intersect(s.base, params.w0)
    if v_part.is_meager():
        return "unknown"
    return False


def distinguish(s: SymbolicSet, ops) -> tuple[int, tuple[SymbolicSet, ...]]:
    """Number of distinct images of s under the given words, and the images
    in ops order.

    Each image is filed under its key, the part of its base outside kW1
    (W1 from s's own parameters), and compared with sym_equal only against
    the representatives that share its key.  The key is exact in both
    directions, because V lies inside W1, hence inside kW1, and off V every
    mode equals its base:

      * equal sets agree outside kW1, so they have equal keys, and no
        equal pair is split;
      * different keys mean the two sets differ at a point outside kW1,
        so outside V: they are distinct, a decided answer rather than a
        skipped comparison (sym_equal would answer False there too);
      * images with equal keys still go through sym_equal, so an
        Undecidable comparison still raises and is never read as
        "distinct".

    For a tame s every image is tame and tame equality is exact, so the
    key from the default parameters is sound as well.
    """
    outside = complement(_params_of(s).kw1)
    groups: dict[TameSet, list[SymbolicSet]] = {}
    images = []
    for w in ops:
        img = apply_word(w, s)
        reps = groups.setdefault(intersect(img.base, outside), [])
        if not any(sym_equal(img, r) for r in reps):
            reps.append(img)
        images.append(img)
    return sum(map(len, groups.values())), tuple(images)


def render_symbolic(s: SymbolicSet) -> str:
    if s.mode == MODE_TAME:
        return realsets.render(s.base)
    if s.mode == MODE_PLUS:
        if s.base.is_empty():
            return "V"
        return realsets.render(s.base) + " u V"
    return realsets.render(s.base) + " ∖ V"

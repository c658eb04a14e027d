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

Evaluation is one walk of realsets' interned shape graph, one move per
letter (realsets._walk).  A tame set walks from the node of its base.  A
plusV or minusV set walks from its refined shape:

  * The frame of the parameters is the sorted breakpoints of W0, W1, kW0
    and kW1, with a label on each frame gap and each frame point: which of
    W1, kW1 and kW0 hold it.  W0 and W1 are open, so each of the four
    sets is all or nothing on a frame gap, a gap's label holds for every
    point inside it, and on a gap W0 is kW0; W0 at a point decides no
    letter, so it is not recorded.
  * The refined shape of a set is its base on the union of the base's
    and the frame's breakpoints, unminimized, each gap and point
    labelled by the frame: its code is the base's code with the natural
    byte of its gap inserted at each frame point the base lacks.  It is
    made once, by one walk of the frame, and the set keeps its
    breakpoints and its key, the mode, the code and the three masks of
    its labels (SymbolicSet._refined); a walk looks the key up in
    realsets' table, where it is one interned node (_VShape), so
    realsets._reset_shapes and the table's bound cover it too.
  * The masks are ints over the bytes of the refined code.  The kW1 and
    kW0 masks are the codes of kW1 and kW0 there: FULL gaps and member
    points where the label holds the set.  The W1 mask has the membership
    bit of each point inside W1.  The frame keeps the three mask bytes of
    a refined breakpoint inside each frame gap and at each frame point,
    so refining a set appends bytes, and every third one is one mask's.

On the refined shape every letter is local, as realsets' operators are
on a plain shape (its locality lemma): the image's trace on a gap reads
only the gap's base trace and label, and its membership at a point only
the point's base triple and label.  So by the bullets above each letter
is a byte operation on the code, on top of its realsets translation:

  * k on plusV is the base's k image ORed with the kW1 mask, and d is
    the base's d image ORed with the kW0 mask.  OR is the union there: a
    k or d image has only NONE and FULL traces, 0 and 1, so ORing FULL's
    1 into a trace gives FULL and NONE's 0 leaves it, and a membership
    bit ORs as a bool;
  * k on minusV is the base's k image, except at a point whose base
    triple is (NONE, member, NONE) and whose label is inside W1: the
    nonzero bytes of the code translated to keep that one byte, ANDed
    with the W1 mask.  Such a point is exactly an isolated point of the
    minimal base inside W1: minimization keeps a member point with empty
    gaps on both sides, and the gaps beside a kept point keep their
    traces.  The move raises the index of the first nonzero byte, an
    index into the refined breakpoints, and apply_word names the point,
    so k is undecidable exactly where the k bullet says, at the leftmost
    such point;
  * d on minusV is the base's d image;
  * c is one translation of the code, with the masks kept, and flips the
    mode, so its image is again a refined node: it never collapses, by
    the c bullet;
  * i = ckc is the k image of the c node translated by c's table, on the
    same breakpoints.  c maps the four natural bytes onto one another,
    (NONE, 0, NONE) <-> (FULL, 1, FULL) and (RATS, 1, RATS) <-> (IRRS, 0,
    IRRS), and every other byte to one that is not natural, so minimizing
    commutes with c: the outer c of the ckc walk keeps every breakpoint
    and moves to the c image of the k move's node, and the i move keeps
    what that k move keeps, so its picker is the k image's.  The inner c
    keeps every breakpoint too, so an undecidable k raises from the same
    k image, at the same index;
  * f = k & kc is the AND of the two k images, on the same breakpoints.
    AND is the intersection there, because both images have only NONE
    and FULL traces.

A tame image is minimized into a plain realsets node, whose picker
selects from the refined breakpoints, and the walk goes on there.  So the
letters applied while the image is plusV or minusV are a run of c's and
one more letter, the only one that can be undecidable.  That walk is
exact: each move gives, up to minimization, the shape the case analysis
above gives letter by letter, and by the locality lemma following the
moves, with their pickers applied to the breakpoints as they ride along,
gives the very set the fold builds.

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

from bisect import bisect_left
from fractions import Fraction

from . import realsets
from .realsets import TameSet, closure, complement, intersect, union
from .words import CONSTANTS, LETTERS, render_word


class Undecidable(Exception):
    """The axioms of the Vitali atom do not determine the answer."""


# Frame labels: the bits of the frame sets that hold a gap or a point.
_W1, _KW1, _KW0 = 1, 2, 4


def _masks(gap_w, pt_w) -> bytes:
    """The kW1, kW0 and W1 mask bytes, in that order, of a one-byte code (one
    point, or no breakpoint) whose gaps and points carry these frame labels.
    The kW1 and kW0 masks are the codes of the shapes that are FULL and
    member where the label holds the set; the W1 mask has the membership
    bit of the points in W1."""
    def mask(bit, trace):
        return realsets._code([trace if w & bit else realsets.NONE for w in gap_w],
                              [w & bit != 0 for w in pt_w])

    return mask(_KW1, realsets.FULL) + mask(_KW0, realsets.FULL) + mask(_W1, realsets.NONE)


def _frame(w0: TameSet, w1: TameSet, kw0: TameSet, kw1: TameSet):
    """(breaks, inside, at, whole) of the frame (module docstring): the mask
    bytes (_masks) of a refined breakpoint inside each frame gap and at each
    frame point, and of a refined shape with no breakpoint.

    W0 and W1 are open, so each of the four sets is FULL or NONE on a frame
    gap, and the gap is labelled by one rational inside it."""
    breaks = sorted({*w0.breaks, *w1.breaks, *kw0.breaks, *kw1.breaks})
    inside = ([breaks[0] - 1, *((x + y) / 2 for x, y in zip(breaks, breaks[1:])),
               breaks[-1] + 1] if breaks else [Fraction(0)])

    def label(x):
        return ((_W1 if w1.contains(x) else 0) | (_KW1 if kw1.contains(x) else 0)
                | (_KW0 if kw0.contains(x) else 0))

    gap_w, pt_w = list(map(label, inside)), list(map(label, breaks))
    return (tuple(breaks), tuple(_masks((w, w), (w,)) for w in gap_w),
            tuple(_masks(gap_w[j:j + 2], pt_w[j:j + 1]) for j in range(len(breaks))),
            _masks(gap_w[:1], ()))


class VitaliParams:
    """Session parameters of the atom: open W0 subset of W1, W0 nonempty.

    Immutable by convention, like TameSet; equal when every field is equal.
    `frame` is derived from the four sets (module docstring).
    """

    __slots__ = ("w0", "w1", "kw0", "kw1", "frame", "_hash")

    def __init__(self, w0: TameSet, w1: TameSet, kw0: TameSet, kw1: TameSet):
        self.w0 = w0
        self.w1 = w1
        self.kw0 = kw0
        self.kw1 = kw1
        self.frame = _frame(w0, w1, kw0, kw1)
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
    TameSet, and equal when base, mode and params are equal.  The refined
    shape that a plusV or minusV set keeps is ignored by equality and
    hashing."""

    __slots__ = ("base", "mode", "params", "_refined")

    def __init__(self, base: TameSet, mode: str = MODE_TAME,
                 params: VitaliParams | None = None):
        self.base = base
        self.mode = mode
        self.params = params
        self._refined = None  # (breaks, key) of the refined shape, see _refinement

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


def _refine(base: TameSet, frame):
    """(breaks, code, kW1 mask, kW0 mask, W1 mask): base on its breakpoints
    and the frame's, unminimized, and the int masks of its frame labels.
    Each frame point is placed by one bisection of base's breakpoints; base's
    bytes are copied by slice, a frame point base lacks gets the natural byte
    of its gap, and each refined breakpoint appends the three mask bytes the
    frame holds for its place, so every third byte is one mask."""
    fb, inside, at, whole = frame
    xs, base_code = base.breaks, base.code
    breaks, code, masks = [], bytearray(), bytearray()
    i = 0
    for j in range(len(fb) + 1):
        # Base points i..hi-1 lie inside frame gap j.
        hi = bisect_left(xs, fb[j], i) if j < len(fb) else len(xs)
        breaks += xs[i:hi]
        code += base_code[i:hi]
        masks += inside[j] * (hi - i)
        i = hi
        if j == len(fb):
            break
        x = fb[j]
        if i < len(xs) and xs[i] == x:
            code.append(base_code[i])
            i += 1
        else:
            code.append(realsets._natural_byte(base_code, i))
        breaks.append(x)
        masks += at[j]
    return (tuple(breaks), bytes(code) or base_code,
            *(int.from_bytes((masks or whole)[m::3], "big") for m in range(3)))


# A translation table that keeps the byte (NONE, member, NONE) of an
# isolated member point and maps every other byte to 0.
_ISOLATED_MEMBER = realsets._code((realsets.NONE, realsets.NONE), (True,))[0]
_ISOLATED = bytes(b if b == _ISOLATED_MEMBER else 0 for b in range(256))


class _Stuck(Exception):
    """k met an isolated member point inside W1 at `index` of the refined
    shape: whether it is V's rational point is undecidable."""

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index


class _VShape(realsets._Shape):
    """One interned refined shape of a plusV or minusV set (module docstring):
    the code of the base's traces and memberships on the refined shape,
    the masks of their frame labels and the mode.  c moves to the node of
    the other mode; every other letter moves to a plain realsets node, whose
    picker selects from the refined breakpoints."""

    __slots__ = ("mode", "kw1", "kw0", "w1")

    def __init__(self, key: tuple):
        self.mode, code, self.kw1, self.kw0, self.w1 = key
        super().__init__(code)

    def key(self) -> tuple:
        return self.mode, self.code, self.kw1, self.kw0, self.w1

    def move(self, letter: str):
        if letter != "c":
            return super().move(letter)
        # c never collapses (module docstring).
        mode = MODE_MINUS if self.mode == MODE_PLUS else MODE_PLUS
        move = self.moves["c"] = None, realsets._intern(
            (mode, super().image("c"), self.kw1, self.kw0, self.w1), _VShape)
        return move

    def image(self, letter: str) -> bytes:
        """The code of the unminimized tame image under k, i, d or f (module
        docstring); the constants as on a plain shape."""
        if letter == "i" or letter == "f":
            _, c = self.moves.get("c") or self.move("c")
            kc = c.image("k")
            if letter == "i":  # ckc: minimizing commutes with c
                return kc.translate(realsets._table("c"))
            k = self.image("k")
            return (int.from_bytes(k, "big") & int.from_bytes(kc, "big")).to_bytes(len(k), "big")
        img = super().image(letter)
        if letter != "k" and letter != "d":
            return img
        if self.mode == MODE_PLUS:  # k(B u V) = kB u kW1, d(B u V) = dB u kW0
            mask = self.kw1 if letter == "k" else self.kw0
            return (int.from_bytes(img, "big") | mask).to_bytes(len(img), "big")
        if letter == "k":  # k(B minus V) = kB, but for an isolated point inside W1
            stuck = int.from_bytes(self.code.translate(_ISOLATED), "big") & self.w1
            if stuck:
                raise _Stuck(len(img) - 1 - (stuck.bit_length() - 1) // 8)
        return img


def _refinement(s: SymbolicSet):
    """(breaks, node) of the refined shape of the plusV or minusV set s: its
    breakpoints and key are made on the first walk of s, and its node is
    looked up by the key on every walk."""
    refined = s._refined
    if refined is None:
        breaks, *shape = _refine(s.base, s.params.frame)
        refined = s._refined = breaks, (s.mode, *shape)
    return refined[0], realsets._intern(refined[1], _VShape)


def _apply(word: str, s: SymbolicSet) -> SymbolicSet:
    """The image of s under word, by one walk of the interned shape graph;
    Undecidable carries no position."""
    if s.mode == MODE_TAME:
        base = realsets.apply_word(word, s.base)
        return s if base is s.base else SymbolicSet(base)
    breaks, start = _refinement(s)
    try:
        picked, node = realsets._walk(word, start, breaks)
    except _Stuck as stuck:  # only c's, which drop nothing, came before
        raise Undecidable(
            f"isolated point {breaks[stuck.index]} lies inside W1: membership in V "
            f"is not determined by the atom's axioms") from None
    if node is start:
        return s
    if node.__class__ is not _VShape:
        return SymbolicSet(TameSet(picked, node.code, True))
    # Only c's were walked, so picked is breaks: the base is the node's code minimized.
    img = SymbolicSet(realsets._from_code(breaks, node.code), node.mode, s.params)
    img._refined = (breaks, node.key())
    return img


def sym_apply(letter: str, s: SymbolicSet) -> SymbolicSet:
    """The image of s under one letter: apply_word on a one-letter word,
    with no position in an Undecidable message."""
    if len(letter) != 1 or letter not in LETTERS + CONSTANTS:
        raise ValueError(f"unknown operator letter {letter!r}")
    return _apply(letter, s)


def apply_word(word: str, s: SymbolicSet) -> SymbolicSet:
    """Right-to-left image of s under word; constants 0 and 1 are absolute.

    One walk of the interned shape graph (module docstring).  An
    Undecidable message names the letter: only a letter applied to a plusV
    or minusV set can be undecidable, and such a set is s after a run of
    c's, so the letter is the first one from the right that is not c.
    """
    try:
        return _apply(word, s)
    except Undecidable as exc:
        pos = len(word.rstrip("c"))
        raise Undecidable(
            f"{exc} [letter {word[pos - 1]!r} at position {pos} of "
            f"{render_word(word)!r}]") from None


# -- three-valued V facts ---------------------------------------------------


def _disjoint_from_v(r: TameSet, params: VitaliParams):
    """Is the tame set r disjoint from V?  True/False/None(undecidable)."""
    rw = intersect(r, params.w1)
    if rw.is_empty():
        return True
    if not rw.is_meager():
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

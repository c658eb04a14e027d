"""Exact algebra of tame subsets of the real line.

A TameSet is a finite union of cells: intervals with rational endpoints
carrying a density kind (full, rationals-trace, irrationals-trace), plus
isolated rational points.  The family is closed under closure k, interior
i, complement c, the Baire second-category operator d, and the frontier
f, and every one of them is computed exactly — no floating point anywhere,
so structural equality of normalized sets coincides with set equality.

Internally a set is (breaks, code): its strictly increasing rational
breakpoints b1 < ... < bn, and the code of its shape, one byte per
breakpoint, gl*8 + p*4 + gr: the traces on the open gaps left and right
of it and its membership; or the one byte 32 + g when there is no
breakpoint and the line has the trace g.  A trace, on a gap of (-inf,b1),
(b1,b2), ..., (bn,inf), is NONE, FULL, RATS (rationals of the gap) or
IRRS (irrationals of the gap).  Minimality: a breakpoint is kept only if
the traces on its two sides differ, or its own membership differs from
what the surrounding trace would give a rational point, i.e. its byte is
not one of the four *natural* bytes (g, natural(g), g).  Under that
invariant (breaks, code) is an intrinsic description of the set, which
is what makes equality exact.

All five operators act gap-wise and point-wise on shapes:

  * k fills every nonempty gap and adds its endpoints;
  * i keeps only FULL gaps and interior breakpoints;
  * c swaps NONE<->FULL and RATS<->IRRS and negates memberships;
  * d fills FULL and IRRS gaps (a co-countable trace is locally
    nonmeager by the Baire category theorem) and kills RATS gaps and
    points (countable, hence meager);
  * f is k intersected with k of the complement, computed in one pass:
    a gap is FULL when its trace is RATS or IRRS (both the set and its
    complement are dense there), and a breakpoint is kept when it lies
    in k of the set and in k of the complement.

Locality lemma.  Before minimization, a gap's new trace depends only on
its old trace, and a breakpoint's new membership only on its triple (left
trace, membership, right trace).  Minimization reads only traces and
memberships too.  So each operator is a map on the shape: it yields the
image's shape and the indices `keep` of the breakpoints that survive, and
the breakpoint values merely ride along (breaks[j] for j in keep).  Each
operator is written once as such a map.

Letters are byte translations: by the lemma, a letter's 256-byte table,
read off one call of _SHAPE_OPS on U's unminimized shape (below), which
shows all 32 triples and all 4 traces, maps each byte to the byte of its
image, so a letter's image is code.translate(table), one pass in C.
Minimization (_minimal, the only one) deletes the natural bytes with one
more translate; a dropped byte has one trace on both sides, so what is
left is again a code (32 + g when nothing is).  `keep`, the indices of
the surviving breakpoints, is computed only when some byte was dropped.

Shapes are interned (hash-consing): each distinct code is one _Shape
node, made once through the table _SHAPES, and a node holds its moves,
letter -> (picker, next node), each computed on first use.  The picker
selects the surviving breakpoints in C: an operator.itemgetter of a slice
when `keep` is contiguous (which covers keeping none or one), of the
indices otherwise, and None when every breakpoint survives.  The
constants 0 and 1 are moves too, to the empty or the full shape with no
breakpoint kept.  The table alone holds nodes: a set keeps its code, and
`apply_word` finds the node of that code in _SHAPES (a bytes object
caches its hash, and an image carries its node's own code object), then
follows one move per letter: no Fraction is hashed or compared on the
way, and no shape is converted.  `_walk` is that loop: from a node it
follows the word's moves, and the breakpoints ride along, each move's
picker applied to them as the move is taken; `apply_word` gives the
walked breakpoints the code of the node reached.  Each of the five
operators is `apply_word` on its one-letter word.  vitali walks the same
graph from the refined shape of a plusV or minusV set, a node of the same
table under a tuple key.  Since no set holds a node, `_reset_shapes`,
which empties the tables of shapes and of letter translations, is exact:
every later walk starts at a node made after it, so moves and
translations made before a reset (say, under a patched _SHAPE_OPS) are
never used again.  A full table (262,144 shapes) is emptied by `_intern`
before it inserts, even during a walk, which is harmless: a move is a
pure function of codes, so the nodes the walk still holds move as fresh
ones would.

Universal witness.  By the lemma, the image of a set under a word over
kicdf01 has, on each gap, a trace that depends only on the gap's trace,
and at each breakpoint a membership that depends only on its triple; a
rational point inside a gap of trace g acts as the triple (g, natural(g),
g).  Two words therefore agree on every tame set exactly when they agree
on one set whose unminimized profile shows all 4 traces and all 32
triples.  UNIVERSAL is such a set.  Let B = 0,0,1,0,2,0,3,1,1,2,1,3,2,2,
3,3 be the cyclic de Bruijn sequence over NONE, FULL, RATS, IRRS: read
cyclically, its 16 windows (B[j], B[j+1]) are all 16 pairs of traces.  U
has the 33 gaps B + B + B[:1] around the breakpoints 21, ..., 52; the
first 16 breakpoints are outside the set and the last 16 inside, so
breakpoint j carries the triple (B[j mod 16], j >= 16, B[j+1 mod 16]) and
every triple occurs once.  Minimization drops the four triples (g,
natural(g), g), which leaves 28 breakpoints; the dropped ones survive as
rational points inside gaps, with the same triples.

Universal pair.  The lemma extends to pairs.  On the joint profile of two
sets S and T (the union of their breakpoints, each side's trace and
membership read off there) a gap has one of 16 joint traces and a
breakpoint one of 16 * 4 * 16 = 1,024 joint triples (trace pair,
membership pair, trace pair).  _merge gives union and intersection the
same locality, so any expression in S and T built from kicdf01, union and
intersection has, on each joint gap, a trace that depends only on the
joint trace, and at each point a membership that depends only on the
joint triple.  An inclusion or an equality between two such expressions,
or the meagerness of one (a meager tame set is one with no FULL or IRRS
gap), holds at each location or fails there by its own trace or triple.
So it holds for every tame pair when it holds for one pair whose joint
profile shows all 16 joint traces and all 1,024 joint triples.
universal_pair() builds such a pair as U is built, over the alphabet of
the 16 joint traces: a cyclic de Bruijn sequence of their 256 pairs,
repeated once for each membership pair, puts every joint triple at one of
1,024 shared breakpoints.  Each side is minimized on its own (896
breakpoints each); a breakpoint dropped from both sides carries the joint
triple of a rational point inside its joint gap, so the union of the two
kept tuples (1,008 breakpoints) still shows every triple.

Breakpoints are compared as little as the algebra allows.  Union,
intersection and inclusion are each one walk, `_merge`, over the two
sorted breakpoint tuples, which compares each pair of breakpoints once
for equality and at most once for order.  It emits one byte per merged
breakpoint through the operation's 36 x 36 byte table (_byte_table), a
breakpoint missing from one side taking that side's natural byte in the
gap around it, as a rational point inside a gap of U does.  The
inclusion walk also says what a minus b is when it is small: a gap
failing _LE is an interval or a dense trace of the difference, and with
every gap passing the difference is exactly the breakpoints failing
_IMPLIES.  So `difference_points` answers "is a minus b empty, one point
or more?" from that walk alone, and the walk stops at the first gap
failing _LE.  A TameSet computes its hash on first use, so short-lived
intermediate sets that never serve as a cache key hash no Fraction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import getitem, itemgetter
from typing import Iterable, Sequence

INF = float("inf")
NEG_INF = float("-inf")

# Trace of a set on an open interval.
NONE, FULL, RATS, IRRS = range(4)

DENSITY_NAMES = {FULL: "full", RATS: "rationals", IRRS: "irrationals"}
DENSITY_CODES = {"full": FULL, "rationals": RATS, "irrationals": IRRS}

# Whether a rational point inside a gap with the given trace lies in the set.
_NATURAL = (False, True, True, False)

# Union / intersection / inclusion of traces on a common open gap.
_UNION = (
    (NONE, FULL, RATS, IRRS),
    (FULL, FULL, FULL, FULL),
    (RATS, FULL, RATS, FULL),
    (IRRS, FULL, FULL, IRRS),
)
_INTER = (
    (NONE, NONE, NONE, NONE),
    (NONE, FULL, RATS, IRRS),
    (NONE, RATS, RATS, NONE),
    (NONE, IRRS, NONE, IRRS),
)
_COMPL = (FULL, NONE, IRRS, RATS)
_LE = (
    (True, True, True, True),
    (False, True, False, False),
    (False, True, True, False),
    (False, True, False, True),
)
# The same three operations on memberships, indexed by two bools.
_OR = ((False, True), (True, True))
_AND = ((False, False), (False, True))
_IMPLIES = ((True, True), (False, True))


def _coerce(x) -> Fraction | float:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if x == "inf":
            return INF
        if x == "-inf":
            return NEG_INF
        return Fraction(x)
    if isinstance(x, float):
        if x == INF or x == NEG_INF:
            return x
        raise TypeError("finite endpoints must be exact (int, Fraction or string)")
    raise TypeError(f"bad endpoint {x!r}")


@dataclass(frozen=True)
class Cell:
    """One building block: an interval trace or an isolated point."""

    lo: Fraction | float
    hi: Fraction | float
    lo_closed: bool
    hi_closed: bool
    density: str = "full"

    def __post_init__(self):
        object.__setattr__(self, "lo", _coerce(self.lo))
        object.__setattr__(self, "hi", _coerce(self.hi))
        if self.density not in DENSITY_CODES:
            raise ValueError(f"unknown density {self.density!r}")
        if self.lo == NEG_INF and self.lo_closed or self.hi == INF and self.hi_closed:
            raise ValueError("infinite endpoints must be open")
        if self.lo > self.hi:
            raise ValueError(f"empty cell: lo {self.lo} > hi {self.hi}")
        if self.lo == self.hi:
            if not (isinstance(self.lo, Fraction) and self.lo_closed and self.hi_closed
                    and self.density == "full"):
                raise ValueError("degenerate cell must be a closed full singleton")


class TameSet:
    """A normalized finite union of cells; immutable and hashable."""

    __slots__ = ("breaks", "code", "_hash")

    def __init__(self, breaks, code, _trusted=False):
        if not _trusted:
            raise TypeError("use from_cells/interval/point/empty/reals constructors")
        self.breaks = breaks
        self.code = code
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_cells(cells: Iterable[Cell]) -> "TameSet":
        """Normalize an arbitrary (possibly overlapping) cell collection.

        The finite endpoints are sorted once, as positions into the list of
        all endpoints, and equal neighbours share one breakpoint index, so
        no Fraction is hashed.  Each cell then covers gaps lo+1..hi (-1 and
        n stand for the infinite ends) and, unless it is an irrationals
        trace, the breakpoints strictly between its ends and its closed
        ends.  Only integers are compared after the sort.
        """
        cells = list(cells)
        ends = [e for c in cells for e in (c.lo, c.hi)]
        finite = [j for j, e in enumerate(ends) if isinstance(e, Fraction)]
        finite.sort(key=ends.__getitem__)
        breaks: list[Fraction] = []
        index = [-1] * len(ends)
        for j in finite:
            x = ends[j]
            if not breaks or x is not breaks[-1] and x != breaks[-1]:
                breaks.append(x)
            index[j] = len(breaks) - 1
        n = len(breaks)
        gaps = [NONE] * (n + 1)
        pts = [False] * n
        for i, c in enumerate(cells):
            lo = index[2 * i]
            hi = index[2 * i + 1] if isinstance(c.hi, Fraction) else n
            code = DENSITY_CODES[c.density]
            for j in range(lo + 1, hi + 1):
                gaps[j] = _UNION[gaps[j]][code]
            # Breakpoints are rational, so an irrationals trace holds none of them.
            if code != IRRS:
                for j in range(lo + 1, hi):
                    pts[j] = True
                if c.lo_closed:
                    pts[lo] = True
                if c.hi_closed:
                    pts[hi] = True
        return _from_code(breaks, _code(gaps, pts))

    # -- basic protocol ------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, TameSet) and self.breaks == other.breaks
                and self.code == other.code)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.breaks, self.code))
        return h

    def __bool__(self):
        return self.code != EMPTY.code

    def __repr__(self):
        return f"TameSet({render(self)!r})"

    # -- set operations --------------------------------------------------

    def is_empty(self) -> bool:
        return not self

    def contains(self, x) -> bool:
        x = _coerce(x)
        if not isinstance(x, Fraction):
            raise ValueError("membership is decided only at rational points")
        j = bisect_left(self.breaks, x)
        at = j < len(self.breaks) and self.breaks[j] == x
        return bool((self.code[j] if at else _natural_byte(self.code, j)) & 4)

    @property
    def cells(self) -> tuple[Cell, ...]:
        return _cells(self)

    def render(self) -> str:
        return render(self)

    def is_open(self) -> bool:
        return self == interior(self)

    def is_meager(self) -> bool:
        """Syntactic test: only rational traces and isolated points (countable).
        A FULL or IRRS trace is odd: bit 3 or bit 0 of a byte, bit 0 of 32 + g."""
        return not any(b & 9 for b in self.code)


# -- shape codes (module docstring) -------------------------------------------


def _code(gaps: Sequence[int], pts: Sequence[bool]) -> bytes:
    """The code of the shape (gaps, pts): the byte gl*8 + p*4 + gr of each
    breakpoint, or 32 + g for a shape with no breakpoint and the trace g."""
    if not pts:
        return bytes((32 + gaps[0],))
    return bytes([8 * g + 4 * p + h for g, p, h in zip(gaps, pts, gaps[1:])])


def _decode(code: bytes) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """(gaps, pts) of a code, for rendering."""
    if code[0] >= 32:
        return (code[0] - 32,), ()
    return (code[0] >> 3, *(b & 3 for b in code)), tuple(bool(b & 4) for b in code)


# The natural bytes (g, natural(g), g), which minimization drops, and a
# table that maps them to 0 and keeps every other byte, which is nonzero.
_NATURAL_CODES = bytes(9 * g + 4 * _NATURAL[g] for g in range(4))
_KEPT = bytes.maketrans(_NATURAL_CODES, bytes(len(_NATURAL_CODES)))
# The natural byte of the gap left and right of each byte's breakpoint; of
# the one gap, for a byte 32 + g.
_NATURAL_LEFT = bytes(_NATURAL_CODES[b >> 3] for b in range(32)) + _NATURAL_CODES
_NATURAL_RIGHT = bytes(_NATURAL_CODES[b & 3] for b in range(32)) + _NATURAL_CODES


def _natural_byte(code: bytes, j: int) -> int:
    """The natural byte of gap j of code: the triple of a rational point inside it."""
    return _NATURAL_LEFT[code[j]] if j < len(code) else _NATURAL_RIGHT[code[-1]]


def _minimal(code: bytes):
    """(keep, code) of the minimal shape: the indices of the surviving
    breakpoints (None when all survive) and the code with the triples
    (g, natural(g), g) deleted.  When none is left, every triple had one
    trace g, the first byte's left trace, and the code is 32 + g."""
    kept = code.translate(None, _NATURAL_CODES)
    if len(kept) == len(code):
        return None, code
    keep = tuple(compress(range(len(code)), code.translate(_KEPT)))
    return keep, kept or bytes((32 + (code[0] >> 3),))


def _picker(keep):
    """An itemgetter that gives the breakpoints keep of a tuple, always as a
    tuple: of a slice when keep is contiguous (which covers keeping none or
    one, where itemgetter(j) would give a bare item), of the indices
    otherwise; None when keep is None (every breakpoint survives)."""
    if keep is None:
        return None
    if not keep or keep[-1] - keep[0] == len(keep) - 1:
        return itemgetter(slice(keep[0], keep[-1] + 1) if keep else slice(0))
    return itemgetter(*keep)


def _from_code(breaks: Sequence, code: bytes) -> TameSet:
    """The minimal set of the unminimized code on breaks."""
    keep, code = _minimal(code)
    if keep is not None:
        breaks = map(breaks.__getitem__, keep)
    return TameSet(tuple(breaks), code, True)


EMPTY = TameSet((), bytes((32 + NONE,)), True)
REALS = TameSet((), bytes((32 + FULL,)), True)
RATIONALS = TameSet((), bytes((32 + RATS,)), True)
IRRATIONALS = TameSet((), bytes((32 + IRRS,)), True)


def _de_bruijn(k: int) -> tuple[int, ...]:
    """The cyclic de Bruijn sequence of the pairs over range(k): read
    cyclically, its k*k windows (B[j], B[j+1]) are all k*k pairs.  It is the
    Lyndon words of length 1 and 2 in lexicographic order (a, then a b for
    each b > a), concatenated."""
    return tuple(x for a in range(k)
                 for x in (a, *(y for b in range(a + 1, k) for y in (a, b))))


# The universal witness U (see the module docstring): the cyclic de Bruijn
# sequence B of the trace pairs gives the 33 gaps B + B + B[:1] around the
# breakpoints 21..52, which are members exactly from the 17th on.
_DE_BRUIJN = _de_bruijn(4)
_UNIVERSAL_SHAPE = (_DE_BRUIJN * 2 + _DE_BRUIJN[:1], tuple(j >= 16 for j in range(32)))
UNIVERSAL = _from_code([Fraction(b) for b in range(21, 53)], _code(*_UNIVERSAL_SHAPE))


@lru_cache(maxsize=None)
def universal_pair() -> tuple[TameSet, TameSet]:
    """The universal pair (U_S, U_T) (see the module docstring), built on
    first use: the joint trace 4*s + t stands for the traces s of U_S and t
    of U_T, and the cyclic de Bruijn sequence J of the joint trace pairs
    gives the 1,025 joint gaps J * 4 + J[:1] around the breakpoints
    21..1044, whose membership pair steps through (out, out), (out, in),
    (in, out), (in, in) once every 256 breakpoints."""
    joint = _de_bruijn(16)
    gaps = joint * 4 + joint[:1]
    breaks = [Fraction(b) for b in range(21, 21 + 4 * len(joint))]
    members = [divmod(j // len(joint), 2) for j in range(len(breaks))]
    return (_from_code(breaks, _code([g // 4 for g in gaps], [m == 1 for m, _ in members])),
            _from_code(breaks, _code([g % 4 for g in gaps], [m == 1 for _, m in members])))


def interval(lo, hi, lo_closed=False, hi_closed=False, density="full") -> TameSet:
    return TameSet.from_cells([Cell(lo, hi, lo_closed, hi_closed, density)])


def point(x) -> TameSet:
    return TameSet.from_cells([Cell(x, x, True, True, "full")])


# -- binary operations -----------------------------------------------------


def _byte_table(gap_op, pt_op) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """The merge table of an operation as (rows, columns) of translations:
    rows[x] maps y, and columns[y] maps x, to the byte of the triples x and
    y combined by the trace table gap_op and the membership table pt_op, or
    32 + gap_op[x & 3][y & 3] when either is a byte 32 + g (no breakpoint).
    A symmetric operation (union, intersection) has its rows for columns."""
    table = [[32 + gap_op[x & 3][y & 3] if x >= 32 or y >= 32 else
              8 * gap_op[x >> 3][y >> 3] + 4 * pt_op[x >> 2 & 1][y >> 2 & 1] + gap_op[x & 3][y & 3]
              for y in range(36)] for x in range(36)]
    rows, columns = (tuple(bytes(line).ljust(256, b"\0") for line in lines)
                     for lines in (table, zip(*table)))
    return rows, rows if columns == rows else columns


_UNION_TABLE = _byte_table(_UNION, _OR)
_INTER_TABLE = _byte_table(_INTER, _AND)
_LE_TABLE = _byte_table(_LE, _IMPLIES)
# The bytes of _LE_TABLE with a gap that fails the inclusion: a triple whose
# left (8) or right (1) trace bit is clear, or the byte 32 + False.
_NOT_LE = frozenset([*(b for b in range(32) if b & 9 != 9), 32])


def _merge(a: TameSet, b: TameSet, table, stop=frozenset()):
    """(breaks, code): a and b combined through the byte table of an
    operation on their merged breakpoints, unminimized.

    One linear walk of the two strictly increasing tuples (module
    docstring).  A combined byte in `stop` ends the walk there, and _merge
    returns None (stop=_NOT_LE: the first gap an inclusion fails).
    """
    xs, ys, ca, cb = a.breaks, b.breaks, a.code, b.code
    rows, columns = table
    if xs is ys:
        code = bytes(map(getitem, map(rows.__getitem__, ca), cb))
        return (xs, code) if stop.isdisjoint(code) else None
    breaks, code = [], bytearray()
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        x, y = xs[i], ys[j]
        if x is y or x == y:
            byte = rows[ca[i]][cb[j]]
            i += 1
            j += 1
        elif x < y:
            byte = rows[ca[i]][_NATURAL_LEFT[cb[j]]]
            i += 1
        else:
            x, byte = y, rows[_NATURAL_LEFT[ca[i]]][cb[j]]
            j += 1
        if byte in stop:
            return None
        breaks.append(x)
        code.append(byte)
    # The rest of one side (all of it, if the other has no breakpoint) lies
    # inside the other's last gap: one translation.
    if i < nx:
        tail = ca[i:].translate(columns[_NATURAL_RIGHT[cb[-1]]])
        breaks += xs[i:]
    else:
        tail = cb[j:].translate(rows[_NATURAL_RIGHT[ca[-1]]])
        breaks += ys[j:]
    if not stop.isdisjoint(tail):
        return None
    code += tail
    return breaks, bytes(code)


def union(a: TameSet, b: TameSet) -> TameSet:
    return _from_code(*_merge(a, b, _UNION_TABLE))


def intersect(a: TameSet, b: TameSet) -> TameSet:
    return _from_code(*_merge(a, b, _INTER_TABLE))


def difference(a: TameSet, b: TameSet) -> TameSet:
    return intersect(a, complement(b))


# A translation table to 1 for a byte outside the set, 0 for a member.
_OUTSIDE = (b"\1" * 4 + bytes(4)) * 32


def difference_points(a: TameSet, b: TameSet) -> tuple | None:
    """a minus b when it is a finite set of breakpoints, else None.

    One inclusion walk: the first gap whose traces fail _LE leaves an
    interval or a dense trace of a outside b, and ends the walk (None);
    otherwise a minus b is the breakpoints whose memberships fail _IMPLIES,
    () when a is a subset of b.
    """
    merged = _merge(a, b, _LE_TABLE, _NOT_LE)
    if merged is None:
        return None
    breaks, code = merged
    outside = code.translate(_OUTSIDE)
    return tuple(compress(breaks, outside)) if any(outside) else ()


def is_subset(a: TameSet, b: TameSet) -> bool:
    return difference_points(a, b) == ()


# -- the five operators ----------------------------------------------------
#
# Each operator is written once, as a map from a shape (gaps, pts) to the
# unminimized shape of its image (the locality lemma in the module docstring).


def _closure_shape(gs, ps):
    return ([FULL if g != NONE else NONE for g in gs],
            [p or gs[j] != NONE or gs[j + 1] != NONE for j, p in enumerate(ps)])


def _interior_shape(gs, ps):
    return ([FULL if g == FULL else NONE for g in gs],
            [p and gs[j] == FULL and gs[j + 1] == FULL for j, p in enumerate(ps)])


def _complement_shape(gs, ps):
    return [_COMPL[g] for g in gs], [not p for p in ps]


def _second_category_shape(gs, ps):
    filled = [g in (FULL, IRRS) for g in gs]
    return ([FULL if f else NONE for f in filled],
            [filled[j] or filled[j + 1] for j in range(len(ps))])


def _frontier_shape(gs, ps):
    return ([FULL if g == RATS or g == IRRS else NONE for g in gs],
            [(p or gs[j] != NONE or gs[j + 1] != NONE)
             and (not p or gs[j] != FULL or gs[j + 1] != FULL)
             for j, p in enumerate(ps)])


def _empty_shape(gs, ps):
    return [NONE] * len(gs), [False] * len(ps)


def _reals_shape(gs, ps):
    return [FULL] * len(gs), [True] * len(ps)


_SHAPE_OPS = {
    "k": _closure_shape,
    "i": _interior_shape,
    "c": _complement_shape,
    "d": _second_category_shape,
    "f": _frontier_shape,
    "0": _empty_shape,
    "1": _reals_shape,
}


class _Shape:
    """One interned shape, by its code, with the letters already walked from it.

    `moves` maps a letter to (picker, next): picker selects, from a tuple
    of this shape's breakpoints, those that survive in the letter's minimal
    image (_picker; None when all of them do), and next is the node of the
    image's shape.  A move is computed once, on first use, by minimizing
    `image`.
    """

    __slots__ = ("code", "moves")

    def __init__(self, code: bytes):
        self.code = code
        self.moves = {}

    def image(self, letter: str) -> bytes:
        """The code of the letter's unminimized image: one translation."""
        return self.code.translate(_table(letter))

    def move(self, letter: str):
        keep, code = _minimal(self.image(letter))
        move = self.moves[letter] = _picker(keep), _intern(code)
        return move


_SHAPES: dict = {}
_TABLES: dict[str, bytes] = {}


def _table(letter: str) -> bytes:
    """The translation table of a letter, made on first use.  By the
    locality lemma a byte's image depends on the byte alone, so the table is
    read off one call of _SHAPE_OPS on the unminimized shape of U: its 32
    bytes are the 32 triples, and its gaps show the 4 traces."""
    table = _TABLES.get(letter)
    if table is None:
        op = _SHAPE_OPS.get(letter)
        if op is None:
            raise ValueError(f"unknown operator letter {letter!r}")
        gaps, pts = _UNIVERSAL_SHAPE
        img_gaps, img_pts = op(gaps, pts)
        table = _TABLES[letter] = bytes.maketrans(
            _code(gaps, pts) + bytes(32 + g for g in range(4)),
            _code(img_gaps, img_pts) + bytes(32 + img_gaps[gaps.index(g)] for g in range(4)))
    return table


def _intern(key, cls=_Shape) -> _Shape:
    """The node of key, made as cls(key) on first use: the code of a plain
    shape; vitali's refined shapes have tuple keys.  A full table (262,144
    shapes) is emptied before the insert (module docstring)."""
    node = _SHAPES.get(key)
    if node is None:
        if len(_SHAPES) >= 262144:
            _SHAPES.clear()
        node = _SHAPES[key] = cls(key)
    return node


def _reset_shapes() -> None:
    """Forget every interned shape, move and letter table.  No set holds a
    node, so no move or table made before the reset (say, under another
    _SHAPE_OPS) is ever used again."""
    _SHAPES.clear()
    _TABLES.clear()


def _walk(word: str, node: _Shape, breaks: tuple):
    """(breaks, node) of the walk of word, right to left, from node with the
    breakpoints breaks: one move per letter, each move's picker applied to
    the breakpoints as they ride along."""
    for ch in reversed(word):
        pick, node = node.moves.get(ch) or node.move(ch)
        if pick is not None:
            breaks = pick(breaks)
    return breaks, node


def closure(s: TameSet) -> TameSet:
    return apply_word("k", s)


def interior(s: TameSet) -> TameSet:
    return apply_word("i", s)


def complement(s: TameSet) -> TameSet:
    return apply_word("c", s)


def second_category(s: TameSet) -> TameSet:
    """The Baire operator d: points whose every neighborhood meets s nonmeagerly.

    Gap-wise: a FULL or IRRS gap is locally nonmeager everywhere in its
    closed span (for IRRS because a co-countable subset of an interval is
    comeager there, and nonmeager by the Baire category theorem); a RATS
    gap and isolated points are countable, hence meager, and vanish.
    Finite additivity of d makes the gap-wise computation exact.
    """
    return apply_word("d", s)


def frontier(s: TameSet) -> TameSet:
    """k(s) & k(cs), in one pass over the shape of s.

    A gap lies in both closures exactly when both s and its complement
    are dense in it, i.e. when its trace is RATS or IRRS.  A breakpoint
    is in k(s) unless it is outside s with NONE on both sides, and in
    k(cs) unless it is inside s with FULL on both sides.
    """
    return apply_word("f", s)


def apply_word(word: str, s: TameSet) -> TameSet:
    """Right-to-left image of s under a word over kicdf01, on the shape alone.

    One _walk from the node of the code of s, its breakpoints picked on the
    way; the image carries the code of the node reached.  Returns s itself
    exactly when the walk leaves its breakpoints and its code unchanged.
    """
    breaks, node = _walk(word, _intern(s.code), s.breaks)
    if breaks is s.breaks and node.code == s.code:
        return s
    return TameSet(breaks, node.code, True)


# -- rendering ------------------------------------------------------------


def _fmt(x) -> str:
    if x == INF:
        return "inf"
    if x == NEG_INF:
        return "-inf"
    return str(x)


def _cells(s: TameSet) -> tuple[Cell, ...]:
    bs: list = [NEG_INF, *s.breaks, INF]
    n = len(s.breaks)
    gaps, pts = _decode(s.code)
    out: list[Cell] = []
    for j in range(n + 1):
        if j > 0 and pts[j - 1] and gaps[j - 1] != FULL and gaps[j] != FULL:
            out.append(Cell(bs[j], bs[j], True, True, "full"))
        g = gaps[j]
        if g == NONE:
            continue
        lo, hi = bs[j], bs[j + 1]
        if g == FULL:
            lo_cl = j > 0 and pts[j - 1] and gaps[j - 1] != FULL
            hi_cl = j < n and pts[j]
            out.append(Cell(lo, hi, lo_cl, hi_cl, "full"))
        else:
            out.append(Cell(lo, hi, False, False, DENSITY_NAMES[g]))
    return tuple(out)


def _render_cell(c: Cell) -> str:
    if c.lo == c.hi:
        return "{%s}" % _fmt(c.lo)
    body = "%s%s,%s%s" % ("[" if c.lo_closed else "(", _fmt(c.lo),
                          _fmt(c.hi), "]" if c.hi_closed else ")")
    if c.density == "rationals":
        return "Q" + body
    if c.density == "irrationals":
        return "I" + body
    return body


def render(s: TameSet) -> str:
    """Canonical text form, e.g. "[1,3] u {4} u Q(5,6) u I(6,7)"; "{}" is empty."""
    cs = _cells(s)
    if not cs:
        return "{}"
    return " u ".join(_render_cell(c) for c in cs)

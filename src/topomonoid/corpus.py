"""Canonical witness sets, seeded random tame sets, and the set-expression DSL.

Grammar of the DSL (whitespace-insensitive):

    set      := term ("u" term)*  [ "∖" "V" ]      backslash accepted too
    term     := interval | "{" num "}" | "{}" | "Q" interval | "I" interval | "V"
    interval := ("(" | "[") num "," num (")" | "]")
    num      := rational ("3", "-7/2", "0.5") | "-inf" | "inf"

"V" joins the Vitali atom (at most once); the trailing "minus V" form
builds the complementary mode.  "{}" denotes the empty set, which is
also how the empty set renders.
"""

from __future__ import annotations

import math
import random
import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import realsets
from .realsets import FULL, IRRS, NONE, RATS, Cell, TameSet
from .vitali import DEFAULT_PARAMS, SymbolicSet, VitaliParams, minus_v, plus_v, tame
from .words import ParseError

A18_TEXT = "(1,2) u (2,3) u {4} u Q(5,6) u I(6,7)"

WITNESS_NAMES = ("A18", "A22", "V", "cV", "empty", "full")


def witness(name: str, params: VitaliParams = DEFAULT_PARAMS) -> SymbolicSet:
    if name == "A18":
        return parse_set_dsl(A18_TEXT, params)
    if name == "A22":
        return plus_v(parse_set_dsl(A18_TEXT, params).base, params)
    if name == "V":
        return plus_v(realsets.EMPTY, params)
    if name == "cV":
        return minus_v(realsets.REALS, params)
    if name == "empty":
        return tame(realsets.EMPTY)
    if name == "full":
        return tame(realsets.REALS)
    raise ValueError(f"unknown witness {name!r} (expected one of {WITNESS_NAMES})")


class RandomSets(Sequence):
    """The random tame sets of a corpus: set j is random_tame(seed + j, 4).

    Set j is built on first access and kept.  Each set is seeded on its
    own, so which sets are built, and in which order, changes none of them.
    """

    def __init__(self, size: int, seed: int):
        self.seed = seed
        self._sets: list[TameSet | None] = [None] * size

    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, j: int) -> TameSet:
        j = range(len(self._sets))[j]  # negative j counts from the end; IndexError
        s = self._sets[j]
        if s is None:
            s = self._sets[j] = random_tame(self.seed + j, 4)
        return s


@dataclass(frozen=True)
class Corpus:
    """The named witnesses and the random tame sets of one seed.

    The random sets are built on first use (RandomSets).  verify decides
    every law on the tame sets through a witness that shows every location
    (the locality lemma in realsets), so a passing run builds only the
    random sets it evaluates; its claims about the whole corpus hold for
    the unbuilt sets through that lemma.
    """

    named: dict[str, SymbolicSet]
    random: RandomSets


def build_corpus(size: int = 1000, seed: int = 1729,
                 params: VitaliParams = DEFAULT_PARAMS) -> Corpus:
    named = {name: witness(name, params) for name in WITNESS_NAMES}
    return Corpus(named, RandomSets(size, seed))


# -- random generation --------------------------------------------------------

_GRID_SPAN = 10   # endpoints in [-10, 10]
_MAX_DEN = 8
_KEY_SCALE = math.lcm(*range(1, _MAX_DEN + 1))


def random_tame(seed: int, n: int = 4) -> TameSet:
    """Deterministic for fixed (seed, n); at most n cells after normalization.

    Cells are laid over consecutive points of a sorted draw so spans never
    properly overlap, but shared endpoints (touching cells, isolated points
    on trace boundaries) occur often enough to exercise the merge logic.

    A drawn grid value num/den has den <= _MAX_DEN, which divides
    _KEY_SCALE, so num * (_KEY_SCALE // den) is an exact integer key: the
    draws are sorted and told apart by their keys, and a Fraction is made
    only for a breakpoint of the result.  Consecutive points bound the
    cells, so cell j writes the one gap trace gaps[j + 1] and the
    memberships of its ends, and the profile over all drawn points is
    minimized.  The rng is called as when each grid value was a Fraction
    and each cell a Cell, so a seed gives the same set as it always did.
    """
    if n < 1:
        raise ValueError("cell bound must be at least 1")
    rng = random.Random(f"tame:{seed}:{n}")
    k = rng.randint(1, n)
    draws = []
    for _ in range(2 * k):
        den = rng.randint(1, _MAX_DEN)
        num = rng.randint(-_GRID_SPAN * den, _GRID_SPAN * den)
        draws.append((num * (_KEY_SCALE // den), num, den))
    draws.sort()
    points = draws[:1] + [q for p, q in zip(draws, draws[1:]) if q[0] != p[0]]
    m = len(points)
    gaps = [NONE] * (m + 1)
    pts = [False] * m
    for j in range(0, m - 1, 2 if rng.random() < 0.5 else 1)[:k]:
        roll = rng.random()
        if roll < 0.12:
            pts[j] = True
        elif roll < 0.55:
            gaps[j + 1] = FULL
            if rng.random() < 0.5:
                pts[j] = True
            if rng.random() < 0.5:
                pts[j + 1] = True
        elif roll < 0.8:
            gaps[j + 1] = RATS
        else:
            gaps[j + 1] = IRRS
    if m == 1:  # no cell: the one point
        pts[0] = True
    keep, gaps, pts = realsets._minimize(gaps, pts)
    return TameSet._raw([Fraction(points[j][1], points[j][2]) for j in keep], gaps, pts)


# -- DSL parsing ---------------------------------------------------------------

_TOKEN = re.compile(r"""
    \s*(?:
      (?P<num>-?\d+(?:/\d+|\.\d+)?|-inf|inf)
    | (?P<punct>[(){}\[\],uQIV]|∖|\\)
    )""", re.VERBOSE)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].isspace():
                break
            raise ParseError(f"unexpected character {text[pos]!r}", position=pos + 1)
        if m.group("num"):
            out.append(("num", m.group("num"), m.start("num") + 1))
        elif m.group("punct"):
            out.append(("punct", m.group("punct"), m.start("punct") + 1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, None)

    def take(self, value=None, kind=None):
        tok_kind, tok_val, pos = self.peek()
        if tok_kind is None:
            raise ParseError("unexpected end of set expression")
        if value is not None and tok_val != value or kind is not None and tok_kind != kind:
            raise ParseError(f"unexpected token {tok_val!r}", position=pos)
        self.i += 1
        return tok_val, pos

    def number(self):
        val, pos = self.take(kind="num")
        if val == "inf":
            return realsets.INF, pos
        if val == "-inf":
            return realsets.NEG_INF, pos
        try:
            return Fraction(val), pos
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {val!r}", position=pos) from None

    def interval(self, density: str) -> Cell:
        opener, pos = self.take(kind="punct")
        if opener not in "([":
            raise ParseError(f"expected an interval, got {opener!r}", position=pos)
        lo, lo_pos = self.number()
        self.take(value=",")
        hi, _ = self.number()
        closer, cpos = self.take(kind="punct")
        if closer not in ")]":
            raise ParseError(f"expected ')' or ']', got {closer!r}", position=cpos)
        return _cell(lo, hi, opener == "[", closer == "]", density, lo_pos)


def _cell(lo, hi, lo_closed: bool, hi_closed: bool, density: str, position: int) -> Cell:
    """A Cell, with Cell's own validation reported as a ParseError at the
    position of the cell's first number."""
    try:
        return Cell(lo, hi, lo_closed, hi_closed, density)
    except ValueError as exc:
        raise ParseError(str(exc), position=position) from None


def parse_set_dsl(text: str, params: VitaliParams = DEFAULT_PARAMS) -> SymbolicSet:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty set expression")
    p = _Parser(tokens)
    cells: list[Cell] = []
    v_count = 0
    minus_mode = False

    def term():
        nonlocal v_count
        kind, val, pos = p.peek()
        if kind is None:
            raise ParseError("unexpected end of set expression")
        if val == "V":
            p.take()
            v_count += 1
            if v_count > 1:
                raise ParseError("at most one V term", position=pos)
            return
        if val in ("Q", "I"):
            p.take()
            cells.append(p.interval("rationals" if val == "Q" else "irrationals"))
            return
        if val == "{":
            p.take()
            if p.peek()[1] == "}":
                p.take()
                return  # "{}": the empty set contributes nothing
            x, xpos = p.number()
            p.take(value="}")
            cells.append(_cell(x, x, True, True, "full", xpos))
            return
        if val in "([":
            cells.append(p.interval("full"))
            return
        raise ParseError(f"expected a set term, got {val!r}", position=pos)

    term()
    while True:
        kind, val, pos = p.peek()
        if val == "u":
            p.take()
            term()
            continue
        if val in ("∖", "\\"):
            p.take()
            _, vpos = p.take(value="V")
            if v_count:
                raise ParseError("V cannot appear on both sides", position=vpos)
            minus_mode = True
            kind, val, pos = p.peek()
            if kind is not None:
                raise ParseError(f"trailing input {val!r}", position=pos)
            break
        if kind is None:
            break
        raise ParseError(f"expected 'u' between terms, got {val!r}", position=pos)

    base = TameSet.from_cells(cells)
    if minus_mode:
        return minus_v(base, params)
    if v_count:
        return plus_v(base, params)
    return tame(base)


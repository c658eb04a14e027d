"""Independent pointwise oracle for the tame evaluator.

Membership of a rational probe x in k(S), i(S), c(S), d(S), f(S) is
re-derived here straight from the *cell* view of S, one point at a time,
with none of the profile machinery:

  * x adheres to a cell iff it lies in the closed span (every density is
    dense in its span);
  * x is interior iff x is in S and, on both sides, probe intervals
    shorter than the nearest endpoint are fully covered by cells that
    together supply both the rational and the irrational points;
  * x is in dS iff x lies in the closed span of some fat cell (full or
    irrationals density) -- countable pieces never matter;
  * frontier = adherent but not interior (every point adheres to the
    complement unless it is interior).

The fast evaluator must agree at every probe: all cell endpoints of the
input and of the image, shifted by small offsets that land inside gaps.
"""

from fractions import Fraction

from topomonoid.corpus import random_tame
from topomonoid.realsets import apply_word, complement

OFFSETS = (Fraction(0), Fraction(1, 16), Fraction(-1, 16),
           Fraction(1, 3), Fraction(-1, 3), Fraction(1), Fraction(-1))


def member(cells, x):
    for c in cells:
        if c.lo < x < c.hi or (x == c.lo and c.lo_closed) or (x == c.hi and c.hi_closed):
            if c.density in ("full", "rationals"):
                return True
    return False


def adherent(cells, x):
    return any(c.lo <= x <= c.hi for c in cells)


def _covered(cells, x, side):
    """Probe interval on one side of x fully inside the set?"""
    endpoints = [e for c in cells for e in (c.lo, c.hi)
                 if isinstance(e, Fraction)]
    if side > 0:
        beyond = [e - x for e in endpoints if e > x]
    else:
        beyond = [x - e for e in endpoints if e < x]
    eps = min(beyond) / 2 if beyond else Fraction(1)
    lo, hi = (x, x + eps) if side > 0 else (x - eps, x)
    covering = [c for c in cells if c.lo <= lo and hi <= c.hi]
    has_q = any(c.density in ("full", "rationals") for c in covering)
    has_i = any(c.density in ("full", "irrationals") for c in covering)
    return has_q and has_i


def interior_point(cells, x):
    return member(cells, x) and _covered(cells, x, +1) and _covered(cells, x, -1)


def d_point(cells, x):
    return any(c.lo <= x <= c.hi and c.lo < c.hi
               and c.density in ("full", "irrationals") for c in cells)


def probes(*cell_views):
    pts = {Fraction(0)}
    for cells in cell_views:
        for c in cells:
            for e in (c.lo, c.hi):
                if isinstance(e, Fraction):
                    pts.update(e + off for off in OFFSETS)
    return sorted(pts)


def test_pointwise_oracle_agrees_with_evaluator():
    for seed in range(200):
        s = random_tame(seed, 4)
        images = {letter: apply_word(letter, s) for letter in "kicdf"}
        xs = probes(s.cells, *(img.cells for img in images.values()))
        for x in xs:
            assert member(images["c"].cells, x) == (not member(s.cells, x)), (seed, x)
            assert member(images["k"].cells, x) == adherent(s.cells, x), (seed, x)
            assert member(images["i"].cells, x) == interior_point(s.cells, x), (seed, x)
            assert member(images["d"].cells, x) == d_point(s.cells, x), (seed, x)
            want_f = adherent(s.cells, x) and not interior_point(s.cells, x)
            assert member(images["f"].cells, x) == want_f, (seed, x)


def test_oracle_on_composites():
    """Two-step words, evaluated stepwise, still agree pointwise."""
    for seed in range(60):
        s = random_tame(seed + 1000, 3)
        for word in ("ki", "ik", "dc", "cd", "fk", "ic"):
            mid = apply_word(word[1], s)
            img = apply_word(word[0], mid)
            for x in probes(s.cells, mid.cells, img.cells):
                if word[0] == "k":
                    assert member(img.cells, x) == adherent(mid.cells, x)
                elif word[0] == "i":
                    assert member(img.cells, x) == interior_point(mid.cells, x)
                elif word[0] == "d":
                    assert member(img.cells, x) == d_point(mid.cells, x)
                elif word[0] == "c":
                    assert member(img.cells, x) == (not member(mid.cells, x))
                elif word[0] == "f":
                    assert member(img.cells, x) == (
                        adherent(mid.cells, x) and not interior_point(mid.cells, x))


def test_oracle_complement_round_trip():
    for seed in range(100):
        s = random_tame(seed + 2000, 4)
        cs = complement(s)
        for x in probes(s.cells, cs.cells):
            assert member(cs.cells, x) != member(s.cells, x)

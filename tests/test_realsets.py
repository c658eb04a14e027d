import itertools
import os
import random
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from test_oracle import member
from topomonoid import realsets
from topomonoid.corpus import random_tame
from topomonoid.realsets import (Cell, TameSet, apply_word, closure, complement,
                                 difference, frontier, interior, intersect,
                                 interval, is_subset, point, render,
                                 second_category, union)

Q56 = interval(5, 6, density="rationals")
I67 = interval(6, 7, density="irrationals")
A18 = union(union(interval(1, 2), interval(2, 3)),
            union(point(4), union(Q56, I67)))


def rnd(n=300, start=0):
    return [random_tame(start + j, 4) for j in range(n)]


# -- normalization -------------------------------------------------------------


def test_merge_touching_full_cells():
    s = TameSet.from_cells([
        Cell(1, 2, False, False), Cell(2, 2, True, True), Cell(2, 3, False, False)])
    assert render(s) == "(1,3)"


def test_density_union_upgrades():
    s = TameSet.from_cells([
        Cell(5, 6, False, False, "rationals"), Cell(5, 6, False, False, "irrationals")])
    assert render(s) == "(5,6)"


def test_normalization_fixpoint():
    s = interval(0, 1)
    assert TameSet.from_cells(s.cells) == s


def test_singleton_merges_into_half_closed_interval():
    s = union(point(2), interval(2, 3))
    assert render(s) == "[2,3)"


def test_rational_trace_absorbs_interior_singleton():
    s = union(union(Q56, point(Fraction(11, 2))), interval(5, 6, density="rationals"))
    assert render(s) == "Q(5,6)"
    t = TameSet.from_cells([Cell(5, 6, True, True, "rationals")])
    assert render(t) == "{5} u Q(5,6) u {6}"


def test_irrational_trace_ignores_closed_flags():
    t = TameSet.from_cells([Cell(6, 7, True, True, "irrationals")])
    assert render(t) == "I(6,7)"


# -- operators -----------------------------------------------------------------


def test_operator_images_of_a_witness():
    assert render(closure(A18)) == "[1,3] u {4} u [5,7]"
    assert render(second_category(A18)) == "[1,3] u [6,7]"
    assert render(interior(A18)) == "(1,2) u (2,3)"


def test_d_of_rational_trace_is_empty():
    assert second_category(Q56).is_empty()
    assert render(second_category(I67)) == "[6,7]"


def test_frontier_of_closed_interval():
    assert render(frontier(interval(0, 1, True, True))) == "{0} u {1}"


def test_interior_merges_before_computing():
    s = union(union(interval(1, 2), point(2)), interval(2, 3))
    assert render(interior(s)) == "(1,3)"


def test_combine_examples():
    assert render(union(interval(1, 2), interval(2, 3))) == "(1,2) u (2,3)"
    assert render(intersect(interval(5, 6), Q56)) == "Q(5,6)"
    assert render(difference(interval(6, 7), interval(6, 7, density="rationals"))) == "I(6,7)"


def test_compare_examples():
    assert is_subset(second_category(A18), closure(A18))
    assert interior(closure(A18)) == union(interval(1, 3), interval(5, 7))
    assert not is_subset(interval(0, 1, True, True), interval(0, 1))


def test_unbounded_sets():
    r = realsets.REALS
    assert render(complement(interval(8, 9, True, True))) == "(-inf,8) u (9,inf)"
    assert closure(r) == r and interior(r) == r
    assert render(second_category(realsets.RATIONALS)) == "{}"
    assert render(second_category(realsets.IRRATIONALS)) == "(-inf,inf)"


def test_contains():
    assert A18.contains(4)
    assert A18.contains(Fraction(11, 2))
    assert not A18.contains(Fraction(13, 2))
    assert not A18.contains(2)
    # Against the cell oracle: at every breakpoint, inside every gap, beyond both ends.
    sets = rnd(300, 7000)
    sets += [complement(s) for s in sets[:100]]
    sets += [realsets.EMPTY, realsets.REALS, realsets.RATIONALS, realsets.IRRATIONALS]
    for s in sets:
        bs = s.breaks
        probes = [Fraction(0)] if not bs else [bs[0] - 1, *bs, bs[-1] + 1]
        probes += [(x + y) / 2 for x, y in zip(bs, bs[1:])]
        for x in probes:
            assert s.contains(x) == member(s.cells, x), (render(s), x)


# -- algebraic laws over a seeded corpus ----------------------------------------


def test_idempotence_and_duality_laws():
    for s in rnd(1000):
        ks, is_, cs = closure(s), interior(s), complement(s)
        assert closure(ks) == ks
        assert interior(is_) == is_
        assert complement(cs) == s
        assert is_subset(s, ks) and is_subset(is_, s)
        assert interior(cs) == complement(ks)
        assert interior(s) == complement(closure(cs))  # i = ckc


def test_d_laws():
    sets = rnd()
    for s, t in zip(sets, sets[1:]):
        ds = second_category(s)
        assert closure(ds) == ds
        assert is_subset(ds, closure(s))
        assert second_category(interior(s)) == closure(interior(s))
        assert second_category(union(s, t)) == union(ds, second_category(t))
        assert second_category(difference(s, ds)).is_empty()
        assert s.is_meager() == ds.is_empty()
        assert second_category(ds) == ds
        assert second_category(closure(s)) == closure(interior(closure(s)))
        assert closure(interior(ds)) == ds


def test_baire_property_equalities_hold_on_tame_sets():
    for s in rnd(200):
        ds, dcs = second_category(s), second_category(complement(s))
        assert interior(dcs) == complement(ds)
        assert interior(ds) == complement(second_category(complement(ds)))
        assert second_category(difference(ds, s)).is_empty()


def test_frontier_is_closure_minus_interior():
    for s in rnd(1000):
        assert frontier(s) == difference(closure(s), interior(s))
        assert frontier(s) == intersect(closure(s), closure(complement(s)))


def _pairs():
    """Seeded pairs whose break tuples interleave, coincide or are disjoint."""
    sets = rnd(300, 5000)
    left, right = interval(-11, -1), interval(1, 11)
    pairs = list(zip(sets, sets[1:]))
    pairs += [(s, s) for s in sets[:50]]
    pairs += [(s, complement(s)) for s in sets[50:100]]
    pairs += [(intersect(s, left), intersect(t, right))
              for s, t in zip(sets[100:150], sets[150:200])]
    pairs += [(b, a) for a, b in pairs[-50:]]
    return pairs


def _shape(a, b):
    if a.breaks == b.breaks:
        return "equal"
    if not a.breaks or not b.breaks:
        return "one empty"
    if a.breaks[-1] < b.breaks[0] or b.breaks[-1] < a.breaks[0]:
        return "disjoint"
    return "interleaved"


# (trace table, membership table) of union, intersection and inclusion.
TABLE_PAIRS = ((realsets._UNION, realsets._OR), (realsets._INTER, realsets._AND),
               (realsets._LE, realsets._IMPLIES))


def test_combinators_match_cell_normalization():
    shapes = set()
    for a, b in _pairs():
        shapes.add(_shape(a, b))
        for gap_op, pt_op in TABLE_PAIRS:
            merged = realsets._merge(a, b, gap_op, pt_op)[0]
            assert list(merged) == sorted(set(a.breaks) | set(b.breaks))
        # The inclusion walk stops at its first failing gap, and only there.
        full = realsets._merge(a, b, realsets._LE, realsets._IMPLIES)
        stopped = realsets._merge(a, b, realsets._LE, realsets._IMPLIES, stop=False)
        assert stopped == (full if all(full[1]) else None)
        assert union(a, b) == TameSet.from_cells(a.cells + b.cells)
        assert intersect(a, b) == complement(
            TameSet.from_cells(complement(a).cells + complement(b).cells))
        assert is_subset(a, b) == (TameSet.from_cells(a.cells + b.cells) == b)
    assert {"equal", "disjoint", "interleaved"} <= shapes


def test_difference_points_match_the_built_difference():
    u_s, u_t = realsets.universal_pair()
    sizes = set()
    for a, b in _pairs() + [(u_s, u_t), (u_t, u_s)]:
        got = realsets.difference_points(a, b)
        r = difference(a, b)
        if any(g != realsets.NONE for g in r.gaps):
            assert got is None, (a, b)
        else:
            assert got == tuple(x for x, p in zip(r.breaks, r.pts) if p), (a, b)
        assert is_subset(a, b) == (got == ())
        sizes.add(None if got is None else min(len(got), 2))
    assert sizes == {None, 0, 1, 2}


# -- the merge and from_cells against the scans they replaced -------------------


def _merged_breaks_by_scan(a, b):
    """The merge _merge replaced: merged tuple first, then two expansions."""
    xs, ys = a.breaks, b.breaks
    if xs == ys:
        return xs
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        x, y = xs[i], ys[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    return out + list(xs[i:]) + list(ys[j:])


def _expand_by_scan(s, breaks):
    gaps, pts = [], []
    j = 0
    for b in breaks:
        gaps.append(s.gaps[j])
        if j < len(s.breaks) and b == s.breaks[j]:
            pts.append(s.pts[j])
            j += 1
        else:
            pts.append(realsets._NATURAL[s.gaps[j]])
    gaps.append(s.gaps[j])
    return gaps, pts


def _fresh(s):
    """s with every breakpoint a new Fraction object equal to the old one."""
    return TameSet._raw([Fraction(b.numerator, b.denominator) for b in s.breaks],
                        s.gaps, s.pts)


def _aligned_pairs():
    sets = rnd(200, 6000)
    pairs = list(zip(sets, sets[1:]))
    pairs += [(s, s) for s in sets[:20]]
    # A different tuple holding the very same breakpoint objects.
    pairs += [(s, TameSet._raw(list(s.breaks), complement(s).gaps, complement(s).pts))
              for s in sets[20:40]]
    # Equal breakpoints that are different Fraction objects.
    pairs += [(s, _fresh(union(s, t))) for s, t in zip(sets[40:80], sets[80:120])]
    pairs += [(_fresh(s), s) for s in sets[120:140]]
    pairs += [(s, realsets.EMPTY) for s in sets[140:160]]
    pairs += [(realsets.REALS, s) for s in sets[160:180]]
    pairs += [(realsets.EMPTY, realsets.RATIONALS)]
    pairs += [(interval(Fraction(17, 2), 9), point(Fraction(17, 2)))]
    return pairs


def test_aligned_walk_matches_merge_then_expand():
    kinds = set()
    for a, b in _aligned_pairs():
        kinds.add(_shape(a, b))
        for x in a.breaks:
            for y in b.breaks:
                if x is y:
                    kinds.add("same object")
                elif x == y:
                    kinds.add("equal objects")
        expected = _merged_breaks_by_scan(a, b)
        assert list(expected) == sorted(set(a.breaks) | set(b.breaks))
        ga, pa = _expand_by_scan(a, expected)
        gb, pb = _expand_by_scan(b, expected)
        for gap_op, pt_op in TABLE_PAIRS:
            breaks, gaps, pts = realsets._merge(a, b, gap_op, pt_op)
            assert list(breaks) == list(expected)
            assert list(gaps) == [gap_op[x][y] for x, y in zip(ga, gb)]
            assert list(pts) == [pt_op[x][y] for x, y in zip(pa, pb)]
    assert {"equal", "disjoint", "interleaved", "one empty",
            "same object", "equal objects"} <= kinds


def _from_cells_by_scan(cells):
    """The normalization from_cells replaced: every gap and breakpoint against every cell."""
    breaks = sorted({c.lo for c in cells if isinstance(c.lo, Fraction)}
                    | {c.hi for c in cells if isinstance(c.hi, Fraction)})
    gaps = []
    for i in range(len(breaks) + 1):
        lo = breaks[i - 1] if i > 0 else realsets.NEG_INF
        hi = breaks[i] if i < len(breaks) else realsets.INF
        t = realsets.NONE
        for c in cells:
            if c.lo <= lo and hi <= c.hi and c.lo < c.hi:
                t = realsets._UNION[t][realsets.DENSITY_CODES[c.density]]
        gaps.append(t)

    def contains(c, p):
        if c.lo < p < c.hi or (p == c.lo and c.lo_closed) or (p == c.hi and c.hi_closed):
            return c.density in ("full", "rationals")
        return False

    pts = [any(contains(c, b) for c in cells) for b in breaks]
    return realsets._from_profile(breaks, gaps, pts)


def _random_cells(rng):
    """1-6 cells over a coarse grid, so overlapping, nested and touching cells are common."""
    grid = [Fraction(m, 2) for m in range(-6, 7)]
    cells = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.2:
            x = rng.choice(grid)
            cells.append(Cell(x, x, True, True, "full"))
            continue
        lo, hi = sorted(rng.sample(grid, 2))
        lo = realsets.NEG_INF if rng.random() < 0.1 else lo
        hi = realsets.INF if rng.random() < 0.1 else hi
        cells.append(Cell(lo, hi, lo != realsets.NEG_INF and rng.random() < 0.5,
                          hi != realsets.INF and rng.random() < 0.5,
                          rng.choice(("full", "rationals", "irrationals"))))
    return cells


def _cell_relations(cells):
    seen = set()
    spans = [c for c in cells if c.lo < c.hi]
    seen.update(c.density for c in spans)
    if len(spans) < len(cells):
        seen.add("singleton")
    if any(c.lo == realsets.NEG_INF or c.hi == realsets.INF for c in spans):
        seen.add("infinite")
    for c in spans:
        for d in spans:
            if c is d:
                continue
            if c.hi == d.lo:
                seen.add("touching")
            elif c.lo < d.lo and d.hi < c.hi:
                seen.add("nested")
            elif c.lo < d.lo < c.hi < d.hi:
                seen.add("overlapping")
    return seen


def test_from_cells_matches_the_cell_by_gap_scan():
    rng = random.Random("from_cells")
    seen = set()
    for _ in range(2000):
        cells = _random_cells(rng)
        seen |= _cell_relations(cells)
        assert TameSet.from_cells(cells) == _from_cells_by_scan(cells), cells
    assert {"full", "rationals", "irrationals", "singleton", "infinite",
            "touching", "nested", "overlapping"} <= seen


def test_hash_is_computed_on_first_use():
    s = union(interval(0, 1), point(3))
    assert s._hash is None
    h = hash(s)
    assert h == hash((s.breaks, s.gaps, s.pts)) == s._hash
    assert hash(TameSet.from_cells(s.cells)) == h


def test_one_letter_words_are_the_five_operators():
    named = {"k": closure, "i": interior, "c": complement, "d": second_category,
             "f": frontier}
    for s in rnd(100, 9000):
        for letter, op in named.items():
            assert apply_word(letter, s) == op(s), (letter, s)
    with pytest.raises(ValueError, match="unknown operator letter 'x'"):
        apply_word("x", interval(0, 1))


def test_structural_equality_is_set_equality():
    a = union(interval(0, 1), interval(1, 2))
    b = TameSet.from_cells([Cell(0, 2, False, False)])
    assert a != b
    assert union(a, point(1)) == b


def test_float_endpoints_rejected():
    with pytest.raises(TypeError):
        interval(0.1, 0.5)


# -- the locality lemma: every operator is a map on the profile's shape ----------

LOCAL = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def shape_with_two_placements(draw):
    """A profile shape (gaps, pts) and two different breakpoint tuples for it."""
    n = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.sampled_from(range(4)), min_size=n + 1, max_size=n + 1))
    pts = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    placements = []
    for _ in range(2):
        denominator = draw(st.integers(1, 7))
        numerators = draw(st.lists(st.integers(-99, 99), min_size=n, max_size=n, unique=True))
        placements.append(tuple(sorted({Fraction(m, denominator) for m in numerators})))
    assume(placements[0] != placements[1])
    return gaps, pts, placements


def _minimize_by_rule(gaps, pts):
    """The minimality rule of the module docstring, breakpoint by breakpoint:
    keep j when its two traces differ or its membership is not the one its
    trace gives a rational point."""
    keep = [j for j in range(len(pts))
            if gaps[j] != gaps[j + 1] or pts[j] != realsets._NATURAL[gaps[j]]]
    return keep, (gaps[0], *[gaps[j + 1] for j in keep]), tuple(pts[j] for j in keep)


@LOCAL
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from(range(4)), min_size=n + 1, max_size=n + 1),
    st.lists(st.booleans(), min_size=n, max_size=n))))
@example(([2, 2, 2], [True, True]))  # every breakpoint dropped: one RATS gap is left
@example(([1, 1], [False]))  # a FULL gap with one missing point: kept
def test_minimize_follows_the_minimality_rule(shape):
    gaps, pts = shape
    keep, min_gaps, min_pts = realsets._minimize(gaps, pts)
    assert (list(keep), min_gaps, min_pts) == _minimize_by_rule(gaps, pts)


def _kept(img, s):
    """Indices of s's breakpoints that the image keeps (a subsequence of s.breaks)."""
    keep = [s.breaks.index(b) for b in img.breaks]
    assert keep == sorted(keep)
    return keep


@LOCAL
@given(shape_with_two_placements())
def test_each_letter_acts_on_the_shape_alone(drawn):
    gaps, pts, (xs, ys) = drawn
    # The drawn profile need not be minimal, so every (trace, membership,
    # trace) triple occurs; minimization is itself a map on the shape.
    raw_a, raw_b = TameSet._raw(xs, gaps, pts), TameSet._raw(ys, gaps, pts)
    a, b = realsets._from_profile(xs, gaps, pts), realsets._from_profile(ys, gaps, pts)
    assert (a.gaps, a.pts) == (b.gaps, b.pts)
    assert _kept(a, raw_a) == _kept(b, raw_b)
    for s, t in ((raw_a, raw_b), (a, b)):
        for letter in "kicdf":
            ia, ib = apply_word(letter, s), apply_word(letter, t)
            assert (ia.gaps, ia.pts) == (ib.gaps, ib.pts), letter
            assert _kept(ia, s) == _kept(ib, t), letter


@LOCAL
@given(shape_with_two_placements())
def test_interior_and_frontier_identities_on_drawn_shapes(drawn):
    gaps, pts, placements = drawn
    for xs in placements:
        for s in (TameSet._raw(xs, gaps, pts), realsets._from_profile(xs, gaps, pts)):
            assert interior(s) == complement(closure(complement(s)))
            assert frontier(s) == intersect(closure(s), closure(complement(s)))


def test_apply_word_walks_like_the_letter_fold():
    words = ["", "k", "ck", "fkic", "dcdf", "kk0", "i1c", "cfcdkicdfc", "1k0"]
    for s in rnd(100, 8000):
        for w in words:
            img = s
            for ch in reversed(w):
                if ch in "01":
                    img = realsets.EMPTY if ch == "0" else realsets.REALS
                else:
                    img = apply_word(ch, img)
            assert apply_word(w, s) == img, (w, s)
    s = interval(0, 1, True, True)
    assert apply_word("kc" * 3, s) is not s and apply_word("cc", s) is s
    with pytest.raises(ValueError, match="unknown operator letter 'x'"):
        apply_word("kx", s)


def _fold(word, s):
    """The image of s under word, letter by letter through _SHAPE_OPS and
    _minimize, with the breakpoints selected through the composed keep maps."""
    start, gaps, pts, keep = s, s.gaps, s.pts, range(len(s.breaks))
    for ch in reversed(word):
        if ch in "01":
            start = realsets.EMPTY if ch == "0" else realsets.REALS
            gaps, pts, keep = start.gaps, start.pts, ()
            continue
        step, gaps, pts = realsets._minimize(*realsets._SHAPE_OPS[ch](gaps, pts))
        keep = [keep[j] for j in step]
    return TameSet._raw([start.breaks[j] for j in keep], gaps, pts)


def _interned_moves():
    return len(realsets._SHAPES), sum(len(node.moves) for node in realsets._SHAPES.values())


@LOCAL
@given(shape_with_two_placements(), st.text(alphabet="kicdf01", max_size=12))
def test_interned_walk_is_the_letter_fold(drawn, word):
    gaps, pts, (xs, _) = drawn
    realsets._reset_shapes()
    for s in (TameSet._raw(xs, gaps, pts), realsets._from_profile(xs, gaps, pts)):
        img = apply_word(word, s)
        assert img == _fold(word, s), (word, s)
        assert img._shape.epoch == realsets._epoch
        assert img._shape.code == realsets._code(img.gaps, img.pts)
        if "0" not in word and "1" not in word and img == s:
            assert img is s, word
        interned = _interned_moves()
        assert apply_word(word, s) == img
        assert _interned_moves() == interned, word


def test_a_reset_forgets_moves_computed_under_another_operator(monkeypatch):
    u = realsets.UNIVERSAL
    original = apply_word("d", u)
    assert "d" in u._shape.moves

    def d_that_fills_every_nonempty_gap(gs, ps):
        filled = [g != realsets.NONE for g in gs]
        return ([realsets.FULL if f else realsets.NONE for f in filled],
                [filled[j] or filled[j + 1] for j in range(len(ps))])

    monkeypatch.setitem(realsets._SHAPE_OPS, "d", d_that_fills_every_nonempty_gap)
    realsets._reset_shapes()
    try:
        patched = apply_word("d", u)
    finally:
        monkeypatch.undo()
        realsets._reset_shapes()
    assert patched == realsets._from_profile(u.breaks, *d_that_fills_every_nonempty_gap(u.gaps, u.pts))
    assert patched != original
    assert apply_word("d", u) == original


# -- boolean and Kuratowski laws on drawn sets ------------------------------------


@st.composite
def tame_sets(draw):
    """A minimal TameSet on a coarse grid, so two draws often share breakpoints;
    each draw builds new Fraction objects, equal but not identical to another's."""
    numerators = sorted(draw(st.lists(st.integers(-8, 8), max_size=6, unique=True)))
    n = len(numerators)
    gaps = draw(st.lists(st.sampled_from(range(4)), min_size=n + 1, max_size=n + 1))
    pts = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return realsets._from_profile([Fraction(m, 2) for m in numerators], gaps, pts)


@LOCAL
@given(tame_sets(), tame_sets(), tame_sets())
def test_boolean_laws(a, b, c):
    assert union(a, b) == union(b, a)
    assert intersect(a, b) == intersect(b, a)
    assert union(union(a, b), c) == union(a, union(b, c))
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))
    assert complement(union(a, b)) == intersect(complement(a), complement(b))
    assert complement(intersect(a, b)) == union(complement(a), complement(b))
    assert is_subset(a, b) == (union(a, b) == b) == (intersect(a, b) == a)


@LOCAL
@given(tame_sets(), tame_sets())
def test_kuratowski_and_baire_laws(a, b):
    ka = closure(a)
    assert closure(union(a, b)) == union(ka, closure(b))
    assert is_subset(a, ka)
    assert closure(ka) == ka
    assert closure(realsets.EMPTY) == realsets.EMPTY
    assert second_category(union(a, b)) == union(second_category(a), second_category(b))


# -- the universal witness U ------------------------------------------------------


def _spelled_out(s, breaks):
    """(gaps, pts) of s on a superset of its breakpoints, read by scanning."""
    gaps = [s.gaps[bisect_right(s.breaks, lo)] for lo in [realsets.NEG_INF, *breaks]]
    return gaps, [s.contains(b) for b in breaks]


def test_universal_witness_shows_every_trace_and_triple():
    u = realsets.UNIVERSAL
    breaks = [Fraction(b) for b in range(21, 53)]
    gaps, pts = _spelled_out(u, breaks)
    assert len(gaps) == 33 and len(pts) == 32
    assert set(gaps) == set(range(4))
    triples = {(gaps[j], pts[j], gaps[j + 1]) for j in range(32)}
    assert len(triples) == 32
    assert len(u.breaks) == 28 and set(u.breaks) <= set(breaks)


def test_universal_pair_shows_every_joint_trace_and_triple():
    u_s, u_t = realsets.universal_pair()
    kept = sorted(set(u_s.breaks) | set(u_t.breaks))
    # A rational point inside a joint gap is a location too: spell one out
    # in every joint gap.
    inside = [kept[0] - 1, *((a + b) / 2 for a, b in zip(kept, kept[1:])), kept[-1] + 1]
    points = sorted(kept + inside)
    (gs, ps), (gt, pt) = _spelled_out(u_s, points), _spelled_out(u_t, points)
    traces = list(zip(gs, gt))
    assert set(traces) == set(itertools.product(range(4), repeat=2))
    triples = {(traces[j], (ps[j], pt[j]), traces[j + 1]) for j in range(len(points))}
    assert len(triples) == 16 * 4 * 16
    assert len(u_s.breaks) == len(u_t.breaks) == 896 and len(kept) == 1008


def test_importing_the_cli_does_not_build_the_universal_pair():
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import topomonoid.cli; from topomonoid import realsets; "
            "print(realsets.universal_pair.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "0", "")


words_over_kicdf01 = st.text(alphabet="kicdf01", max_size=6)

# Two random words rarely agree on U and yet act differently on a set: with
# one triple dropped from U, about 3 in 10,000 pairs of words of length at
# most 4 would.  So the drawn words are checked together with every word of
# length at most 3 over kicdf01.
SHORT_WORDS = tuple("".join(p) for n in range(4) for p in itertools.product("kicdf01", repeat=n))


@LOCAL
@given(words_over_kicdf01, words_over_kicdf01, tame_sets())
def test_agreement_on_the_universal_witness_is_agreement_everywhere(w, v, s):
    first = {}  # image on U -> (first word with that image, its image on s)
    for x in (w, v, *SHORT_WORDS):
        on_u, on_s = apply_word(x, realsets.UNIVERSAL), apply_word(x, s)
        y, on_s_y = first.setdefault(on_u, (x, on_s))
        assert on_s == on_s_y, (x, y, render(s))

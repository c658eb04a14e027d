import random
from fractions import Fraction

import pytest

from test_realsets import _fold as _letter_fold
from test_realsets import _from_profile
from topomonoid import realsets, vitali
from topomonoid.corpus import build_corpus, random_tame, witness
from topomonoid.monoid import enumerate_monoid
from topomonoid.realsets import interval, point, union
from topomonoid.rules import BASE, PB
from topomonoid.vitali import (Undecidable, VitaliParams, apply_word,
                               distinguish, has_baire_property, is_meager,
                               minus_v, plus_v, render_symbolic, sym_apply,
                               sym_difference, sym_equal,
                               sym_intersect, sym_subset, sym_union, tame)
from topomonoid.words import render_word

V = witness("V")
CV = witness("cV")
A22 = witness("A22")


def test_atom_axioms():
    assert render_symbolic(apply_word("d", V)) == "[8,9]"
    assert render_symbolic(apply_word("k", V)) == "[8,10]"
    assert apply_word("i", V).base.is_empty()
    assert render_symbolic(apply_word("d", CV)) == "(-inf,inf)"
    assert render_symbolic(apply_word("k", CV)) == "(-inf,inf)"


@pytest.mark.parametrize("word,expected", [
    ("idc", "(-inf,inf)"),
    ("cd", "(-inf,8) u (9,inf)"),
    ("cdc", "{}"),
    ("cidc", "{}"),
    ("id", "(8,9)"),
    ("kcd", "(-inf,8] u [9,inf)"),
])
def test_word_images_of_v(word, expected):
    assert render_symbolic(apply_word(word, V)) == expected


def test_d_of_a_witness():
    a18 = witness("A18")
    assert render_symbolic(apply_word("d", a18)) == "[1,3] u [6,7]"
    assert render_symbolic(apply_word("d", A22)) == "[1,3] u [6,7] u [8,9]"


def test_complement_swaps_modes():
    s = sym_apply("c", plus_v(interval(1, 2)))
    assert s.mode == "minusV"
    assert render_symbolic(s) == "(-inf,1] u [2,inf) ∖ V"
    assert sym_apply("c", s) == plus_v(interval(1, 2))


def test_canonical_collapses():
    assert plus_v(realsets.REALS).is_tame()
    assert minus_v(interval(0, 1)).is_tame()  # base misses W1
    assert not minus_v(interval(8, 9)).is_tame()


def test_mode_algebra_closure():
    for s in (V, CV, A22, tame(interval(0, 1))):
        for ch in "kicdf":
            assert sym_apply(ch, s).mode in ("tame", "plusV", "minusV")


def test_constants_are_absolute_in_every_mode():
    for s in (V, CV, A22):
        assert sym_apply("0", s) == tame(realsets.EMPTY)
        assert sym_apply("1", s) == tame(realsets.REALS)
    for bad in ("x", "", "kc"):
        with pytest.raises(ValueError, match="unknown operator letter"):
            sym_apply(bad, V)


def test_undecidable_isolated_point_inside_w1():
    s = minus_v(union(interval(8, 9, True, True), point(realsets.Fraction(19, 2))))
    with pytest.raises(Undecidable):
        sym_apply("k", s)
    # d ignores isolated points entirely, so it stays decidable.
    assert render_symbolic(sym_apply("d", s)) == "[8,9]"


def test_undecidable_interior_of_punctured_plus_v():
    s = plus_v(union(interval(8, realsets.Fraction(17, 2)),
                     interval(realsets.Fraction(17, 2), 9)))
    with pytest.raises(Undecidable):
        sym_apply("i", s)


def test_boundary_singleton_is_decidable():
    # 8 sits on the boundary of W1 = (8,10); V lives inside the open set.
    s = minus_v(union(point(8), interval(9, 10)))
    assert render_symbolic(sym_apply("k", s)) == "{8} u [9,10]"


def test_apply_word_error_carries_position():
    s = minus_v(union(interval(8, 9, True, True), point(realsets.Fraction(19, 2))))
    with pytest.raises(Undecidable) as exc:
        apply_word("ik", s)
    assert "position 2" in str(exc.value)


def test_subset_examples():
    assert sym_subset(V, plus_v(realsets.EMPTY))
    assert sym_equal(apply_word("cdc", V), tame(realsets.EMPTY))
    assert sym_subset(apply_word("d", A22), apply_word("kik", A22))
    assert sym_subset(V, tame(interval(8, 10, True, True)))
    assert not sym_subset(V, tame(interval(8, 9, True, True)))
    assert not sym_subset(tame(realsets.REALS), V)


def test_equal_undecidable_on_single_rational_difference():
    a = plus_v(realsets.EMPTY)
    b = plus_v(point(9))
    with pytest.raises(Undecidable):
        sym_equal(a, b)
    # Two rational points cannot both sit in V: decidably different.
    c = plus_v(union(point(9), point(realsets.Fraction(17, 2))))
    assert not sym_equal(a, c)


def test_is_meager():
    assert is_meager(tame(interval(5, 6, density="rationals")))
    assert not is_meager(V)
    assert not is_meager(tame(interval(6, 7, density="irrationals")))


def test_has_baire_property():
    assert has_baire_property(witness("A18")) is True
    assert has_baire_property(V) is False
    assert has_baire_property(CV) is False
    assert has_baire_property(A22) is False
    assert has_baire_property(plus_v(realsets.REALS)) is True  # collapses to tame
    # V-part provably meager: conservative "unknown".
    assert has_baire_property(plus_v(interval(8, 9, True, True))) == "unknown"
    assert has_baire_property(minus_v(interval(9, 10, density="rationals"))) == "unknown"


def test_distinguish_counts():
    n, images = distinguish(witness("empty"), enumerate_monoid("kcd", BASE).elements)
    assert n == 2
    assert {render_symbolic(i) for i in images} == {"{}", "(-inf,inf)"}
    n, _ = distinguish(witness("A18"), enumerate_monoid("kcd", PB).elements)
    assert n == 18


def test_combinations():
    assert sym_union(V, tame(interval(0, 1))) == plus_v(interval(0, 1))
    assert sym_intersect(V, CV) == tame(realsets.EMPTY)
    assert sym_union(V, CV) == tame(realsets.REALS)
    assert sym_difference(CV, tame(realsets.REALS)) == tame(realsets.EMPTY)
    assert sym_intersect(A22, tame(interval(0, 5))) == tame(
        union(union(interval(1, 2), interval(2, 3)), point(4)))
    with pytest.raises(Undecidable):
        sym_union(CV, tame(interval(9, 10)))  # partly meets W1


def test_baire_equality_dichotomy_on_vitali():
    for lhs, rhs in (("idc", "cd"), ("id", "cdc"), ("d", "cidc"), ("dc", "kcd")):
        assert not sym_equal(apply_word(lhs, V), apply_word(rhs, V))


def test_d_overshoot_is_nonmeager_exactly_off_the_baire_sets():
    # dS - S meager characterizes the Baire property; V fails it.
    overshoot = sym_difference(apply_word("d", V), V)
    assert not is_meager(overshoot)
    assert not is_meager(sym_difference(apply_word("d", CV), CV))
    a18 = witness("A18")
    assert is_meager(sym_difference(apply_word("d", a18), a18))


def test_apply_word_normalization_consistency_on_corpus():
    from topomonoid.rewrite import normalize
    corpus = build_corpus(size=25, seed=9)
    words = ["kcd", "dcd", "ikic", "fkik", "dfk", "cidc", "ddc", "kikc"]
    for s in [*corpus.named.values(), *(tame(corpus.random(j)) for j in range(corpus.size))]:
        for w in words:
            assert sym_equal(apply_word(w, s), apply_word(normalize(w, BASE), s))


def test_custom_params():
    params = VitaliParams.make(interval(0, 1), interval(0, 2))
    v = plus_v(realsets.EMPTY, params)
    assert render_symbolic(apply_word("d", v)) == "[0,1]"
    assert render_symbolic(apply_word("k", v)) == "[0,2]"
    with pytest.raises(ValueError):
        VitaliParams.make(interval(0, 1, True, True), interval(0, 2))
    with pytest.raises(ValueError):
        VitaliParams.make(interval(0, 3), interval(0, 2))
    with pytest.raises(ValueError):
        sym_equal(v, V)  # mixed parameters


def test_params_and_symbolic_sets_are_values():
    p, q = (VitaliParams.make(interval(0, 1), interval(0, 2)) for _ in range(2))
    assert p is not q and p == q and hash(p) == hash(q)
    assert p != vitali.DEFAULT_PARAMS
    base = interval(0, 3, density="rationals")
    assert plus_v(base, p) == plus_v(base, q)
    assert hash(plus_v(base, p)) == hash(plus_v(base, q))
    assert plus_v(base, p) != minus_v(base, p) and plus_v(base, p) != tame(base)
    # A set on equal parameters walks the node and the move interned for the other.
    apply_word("k", plus_v(base, p))
    before = _interned_moves()
    assert apply_word("k", plus_v(base, q)) == tame(interval(0, 3, True, True))
    assert _interned_moves() == before
    with pytest.raises(ValueError, match="mixed Vitali parameters"):
        sym_subset(plus_v(base, p), V)
    assert repr(plus_v(base, p)) == "SymbolicSet('Q(0,3) u V')"
    assert repr(minus_v(interval(8, 9))) == "SymbolicSet('(8,9) ∖ V')"
    assert repr(tame(base)) == "SymbolicSet('Q(0,3)')"


def _interned_moves():
    return len(realsets._SHAPES), sum(len(node.moves) for node in realsets._SHAPES.values())


def test_empty_w0_is_rejected():
    # V is nonmeager, so dV = kW0 must be nonempty.
    with pytest.raises(ValueError, match="W0 must be nonempty.*nonmeager"):
        VitaliParams.make(realsets.EMPTY, interval(0, 2))


# -- comparison short-circuits against the full formula -------------------------


def _subset_of_v(r, params):
    """Is the tame remainder r a subset of V?  True/False/None(undecidable)."""
    if r.is_empty():
        return True
    gaps, pts = realsets._decode(r.code)
    if any(g != realsets.NONE for g in gaps):
        return False  # any interval or trace holds two points of one coset
    points = [b for j, b in enumerate(r.breaks) if pts[j]]
    if len(points) > 1:
        return False  # two rationals share the coset Q; V holds at most one
    if not params.w1.contains(points[0]):
        return False  # V lies inside the open set W1
    return None


def _full_subset3(a, b):
    """_subset3 as the full formula on the built remainder: both halves
    always evaluated."""
    params = vitali._params_of(a, b)
    off_v = _subset_of_v(realsets.difference(a.base, b.base), params)
    ma, mb = a.mode, b.mode
    if ma == "minusV" or mb == "plusV":
        on_v = True
    elif ma == "plusV" and mb == "minusV":
        on_v = False
    elif ma == "plusV":
        on_v = vitali._disjoint_from_v(realsets.complement(b.base), params)
    elif mb == "minusV":
        on_v = vitali._disjoint_from_v(a.base, params)
    else:
        on_v = vitali._disjoint_from_v(realsets.difference(a.base, b.base), params)
    return vitali._and3(off_v, on_v)


def _full_equal3(a, b):
    if a == b:
        return True
    return vitali._and3(_full_subset3(a, b), _full_subset3(b, a))


def _symbolic_groups():
    """Seeded groups of related sets of every mode.

    Each group holds a random base with and without one rational point
    inside W1, their V-variants and some of their images, so that pairs
    drawn from one group differ by little, down to that single point.
    """
    groups = []
    for seed in range(60):
        base = random_tame(7000 + seed, 4)
        if seed % 2:
            base = union(base, interval(8 + Fraction(seed % 7, 4), 10))
        group = []
        for b in (base, union(base, point(8 + Fraction(1 + seed % 7, 4)))):
            for s in (tame(b), plus_v(b), minus_v(b)):
                group.append(s)
                for w in ("k", "c", "kc", "ck", "d", "cd"):
                    try:
                        group.append(apply_word(w, s))
                    except Undecidable:
                        pass
        groups.append(group)
    return groups


def test_comparison_short_circuits_match_full_formula():
    groups = _symbolic_groups()
    rng = random.Random(3)
    pairs = [tuple(rng.sample(g, 2)) for g in groups for _ in range(60)]
    pairs += [(rng.choice(g), rng.choice(h)) for g, h in zip(groups, groups[1:])]
    seen = {}
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            got = vitali._subset3(x, y)
            assert got is _full_subset3(x, y), (x, y)
            assert vitali._equal3(x, y) is _full_equal3(x, y), (x, y)
            seen.setdefault((x.mode, y.mode), set()).add(got)
    modes = ("tame", "plusV", "minusV")
    assert set(seen) == {(m, n) for m in modes for n in modes}
    assert seen[("plusV", "minusV")] == {False}  # V is nonempty
    assert all(seen[p] == {True, False, None} for p in seen if p != ("plusV", "minusV"))


@pytest.mark.xfail(strict=True, raises=Undecidable,
                   reason="tame-tame comparisons split the difference into on-V "
                          "and off-V halves, each undecidable for one rational "
                          "point inside W1")
def test_tame_sets_differing_by_one_rational_point_in_w1():
    a = tame(union(interval(0, 1), point(Fraction(17, 2))))
    b = tame(interval(0, 1))
    assert sym_subset(a, b) is False
    assert sym_equal(a, b) is False


def _counting_realsets(monkeypatch, *names):
    calls = []
    for name in names:
        real = getattr(realsets, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(realsets, name, counting)
    return calls


@pytest.mark.parametrize("a,b,expected", [
    (interval(0, 3), interval(0, 1), False),  # the remainder holds an interval
    (interval(0, 1, True, True), interval(0, 1), False),  # two points
    (interval(0, 1, True), interval(0, 1), False),  # one point outside W1
    (union(interval(0, 1), point(Fraction(17, 2))), interval(0, 1), None),  # inside W1
], ids=["interval", "two-points", "point-off-w1", "point-in-w1"])
def test_a_tame_inclusion_that_fails_is_one_merge_walk(monkeypatch, a, b, expected):
    calls = _counting_realsets(monkeypatch, "_merge", "_from_code")
    try:
        got = sym_subset(tame(a), tame(b))
    except Undecidable:
        got = None
    assert got is expected
    assert calls == ["_merge"]
# -- intersection and difference by De Morgan against the case analysis ---------


def _intersect_by_cases(a, b):
    """sym_intersect as its own case analysis, the form De Morgan replaced."""
    params = vitali._params_of(a, b)
    ma, mb = a.mode, b.mode
    if ma == "tame" and mb == "tame":
        return tame(realsets.intersect(a.base, b.base))
    if "minusV" in (ma, mb) and "tame" not in (ma, mb):
        return minus_v(realsets.intersect(a.base, b.base), params)
    if ma == "plusV" and mb == "plusV":
        return plus_v(realsets.intersect(a.base, b.base), params)
    m, t = (a, b) if ma != "tame" else (b, a)
    if m.mode == "minusV":
        return minus_v(realsets.intersect(m.base, t.base), params)
    if vitali._disjoint_from_v(t.base, params) is True:
        return tame(realsets.intersect(m.base, t.base))
    if vitali._disjoint_from_v(realsets.complement(t.base), params) is True:
        return plus_v(realsets.intersect(m.base, t.base), params)
    raise Undecidable("the tame part partly meets W1")


def _outcome(fn, a, b):
    try:
        return fn(a, b)
    except Undecidable:
        return Undecidable


def _w1_span(params):
    """The least and greatest breakpoints of W1; 8 and 10 when W1 = R has none."""
    if not params.w1.breaks:
        return Fraction(8), Fraction(10)
    return params.w1.breaks[0], params.w1.breaks[-1]


def _de_morgan_pool(params, seed):
    """Seeded sets of every mode, half of them built on the edge of W1."""
    lo, hi = _w1_span(params)
    mid, quarter = (lo + hi) / 2, (hi - lo) / 4
    edge = [
        params.w1, params.kw1, params.w0, realsets.complement(params.w1),
        realsets.difference(params.w1, point(mid)), point(mid),
        interval(lo, hi, density="rationals"), interval(lo - 1, mid),
        union(interval(lo, lo + quarter), point(hi - quarter)), realsets.EMPTY,
    ]
    bases = edge + [random_tame(seed, 3)]
    bases += [union(random_tame(seed + j, 2), interval(lo + quarter * (j + 1), hi))
              for j in range(2)]
    # Collapsed plusV/minusV sets repeat tame ones; keep each set once.
    return list(dict.fromkeys(
        s for b in bases for s in (tame(b), plus_v(b, params), minus_v(b, params))))


@pytest.mark.parametrize("params", [
    vitali.DEFAULT_PARAMS, VitaliParams.make(interval(-2, -1), interval(-3, 5))],
    ids=["default", "custom"])
def test_intersection_and_difference_match_the_case_analysis(params):
    pool = _de_morgan_pool(params, 9100)
    comp = {s: sym_apply("c", s) for s in pool}
    for s in pool:
        assert sym_apply("c", comp[s]) == s
    outcomes = set()
    for a in pool:
        for b in pool:
            got = _outcome(sym_intersect, a, b)
            assert got == _outcome(_intersect_by_cases, a, b), (a, b)
            # The difference as it was defined: A minus B = A & cB.
            assert _outcome(sym_difference, a, b) == _outcome(
                _intersect_by_cases, a, comp[b]), (a, b)
            outcomes.add(Undecidable if got is Undecidable else got.mode)
    assert outcomes == {"tame", "plusV", "minusV", Undecidable}


@pytest.mark.parametrize("params", [
    vitali.DEFAULT_PARAMS, VitaliParams.make(interval(-2, -1), interval(-3, 5))],
    ids=["default", "custom"])
def test_complement_of_a_plus_or_minus_v_set_never_collapses(params):
    # The oracle is c as it was defined, through the collapsing constructors.
    modes = set()
    for s in _de_morgan_pool(params, 9200):
        if s.is_tame():
            continue
        flip = minus_v if s.mode == "plusV" else plus_v
        assert sym_apply("c", s) == flip(realsets.complement(s.base), params), s
        modes.add(s.mode)
    assert modes == {"plusV", "minusV"}


# -- apply_word against the letter-by-letter case analysis ------------------------


def _isolated_points(base):
    """The breakpoints of a tame set that lie in it with no trace on either side."""
    gaps, pts = realsets._decode(base.code)
    return tuple(b for j, b in enumerate(base.breaks)
                 if pts[j] and gaps[j] == realsets.NONE and gaps[j + 1] == realsets.NONE)


def _sym_apply_by_cases(letter, s):
    """sym_apply as the plusV/minusV case analysis the shape walk replaced."""
    if s.is_tame() or letter in ("0", "1"):
        return tame(realsets.apply_word(letter, s.base))
    params = s.params
    if letter == "c":
        return vitali.SymbolicSet(realsets.complement(s.base),
                                  "minusV" if s.mode == "plusV" else "plusV", params)
    if letter == "k":
        if s.mode == "plusV":
            return tame(union(realsets.closure(s.base), params.kw1))
        for p in _isolated_points(s.base):
            if params.w1.contains(p):
                raise Undecidable(
                    f"isolated point {p} lies inside W1: membership in V is not "
                    f"determined by the atom's axioms")
        return tame(realsets.closure(s.base))
    if letter == "d":
        if s.mode == "plusV":
            return tame(union(realsets.second_category(s.base), params.kw0))
        return tame(realsets.second_category(s.base))
    if letter == "i":
        return _sym_apply_by_cases("c", _sym_apply_by_cases("k", _sym_apply_by_cases("c", s)))
    assert letter == "f"
    k_img = _sym_apply_by_cases("k", s)
    kc_img = _sym_apply_by_cases("k", _sym_apply_by_cases("c", s))
    return tame(realsets.intersect(k_img.base, kc_img.base))


def _fold(word, s):
    """apply_word as a plain fold of the case analysis, letter by letter, no walk."""
    cur = s
    for pos in range(len(word) - 1, -1, -1):
        ch = word[pos]
        try:
            cur = _sym_apply_by_cases(ch, cur)
        except Undecidable as exc:
            raise Undecidable(
                f"{exc} [letter {ch!r} at position {pos + 1} of "
                f"{render_word(word)!r}]") from None
    return cur


def _image_or_text(fn, word, s):
    try:
        return fn(word, s)
    except Undecidable as exc:
        return str(exc)


def _every_adjacent_pair(lo, step):
    """A tame set whose profile has every ordered pair of adjacent traces (a de
    Bruijn walk over the four traces), with breakpoints alternately in and out."""
    traces = [0, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1, 3, 2, 2, 3, 3, 0]
    breaks = [lo + step * j for j in range(16)]
    return _from_profile(breaks, traces, [j % 2 == 0 for j in range(16)])


@pytest.mark.parametrize("params", [
    vitali.DEFAULT_PARAMS, VitaliParams.make(interval(-2, -1), interval(-3, 5)),
    VitaliParams.make(interval(8, 9), union(interval(8, 9), interval(9, 10))),
    VitaliParams.make(interval(8, 10), interval(8, 10)),
    VitaliParams.make(realsets.REALS, realsets.REALS)],
    ids=["default", "custom", "two-component-w1", "w0-equals-w1", "whole-line"])
def test_apply_word_matches_the_uncached_fold(params):
    pool = _de_morgan_pool(params, 9300)
    pool += [tame(random_tame(9400 + j, 5)) for j in range(10)]
    lo, hi = _w1_span(params)
    bases = [_every_adjacent_pair(lo - 1, (hi - lo + 2) / 16),
             _every_adjacent_pair(hi + 1, Fraction(1, 2))]
    # Points at 8, 9 and 10, on the frame of three of the configurations,
    # isolated points at 19/2 and at 9 (in W1, or only in kW1), and two
    # isolated points inside W1, where an Undecidable k names the leftmost.
    bases += [union(union(point(8), point(9)), point(10)),
              union(point(Fraction(17, 2)), point(Fraction(19, 2))),
              union(interval(8, 9, True, True), point(Fraction(19, 2))),
              union(interval(8, Fraction(17, 2)), point(9)),
              union(union(interval(8, 9), point(9)), interval(9, 10, density="irrationals")),
              union(interval(Fraction(17, 2), 10, True, density="rationals"), point(9))]
    for base in bases:
        pool += [tame(base), plus_v(base, params), minus_v(base, params)]
    rng = random.Random(11)
    # Constants are drawn rarely: one resets the walk, so most words keep none.
    words = ["".join(rng.choice("kicdf" * 8 + "01") for _ in range(n))
             for n in range(11) for _ in range(15)]
    modes, undecidable = set(), 0
    for s in pool:
        for ch in "kicdf01":
            got = _image_or_text(lambda w, t: sym_apply(w, t), ch, s)
            assert got == _image_or_text(_sym_apply_by_cases, ch, s), (ch, s)
        for w in words:
            got = _image_or_text(apply_word, w, s)
            assert got == _image_or_text(_fold, w, s), (w, s)
            undecidable += isinstance(got, str)
        modes.add(s.mode)
    assert modes == {"tame", "plusV", "minusV"}
    assert undecidable > 0


@pytest.mark.parametrize("params", [
    vitali.DEFAULT_PARAMS, VitaliParams.make(interval(8, 9), union(interval(8, 9), interval(9, 10))),
    VitaliParams.make(realsets.REALS, realsets.REALS)], ids=["default", "two-component-w1", "whole-line"])
def test_the_i_move_picks_what_its_ckc_walk_picks(params):
    picked = 0
    for s in _de_morgan_pool(params, 9600):
        if s.is_tame():
            continue
        breaks, start = vitali._refinement(s)
        try:
            kept, node = realsets._walk("ckc", start, breaks)
        except vitali._Stuck:
            continue
        pick, i_node = start.moves.get("i") or start.move("i")
        assert i_node is node
        assert (breaks if pick is None else pick(breaks)) == kept
        picked += pick is not None
    assert picked > 0


def test_walks_and_inclusions_convert_no_shape(monkeypatch):
    # A set and its images hold their shapes as codes only: walking words
    # from built sets, and comparing the images, neither encodes nor
    # decodes a shape.  The letter tables are made first.
    for ch in "kicdf01":
        realsets.apply_word(ch, realsets.UNIVERSAL)
    bases = [random_tame(9500 + j, 5) for j in range(40)]
    sets = [make(base) for base in bases for make in (tame, plus_v, minus_v)]
    words = ["c", "k", "ck", "fkic", "dcdf", "i1c", "cfcdkicdfc"]

    def forbidden(*args):
        raise AssertionError("a shape was converted")

    monkeypatch.setattr(realsets, "_decode", forbidden)
    monkeypatch.setattr(realsets, "_code", forbidden)
    images = []
    for s in sets:
        for w in words:
            try:
                images.append(apply_word(w, s))
            except Undecidable:
                pass
    # sym_subset's answers; an Undecidable one would render its message.
    answers = {vitali._subset3(a, b) for a, b in zip(images, images[1:])}
    assert {True, False} <= answers
    assert {s.mode for s in images} == {"tame", "plusV", "minusV"}


def test_apply_word_returns_an_unchanged_tame_input_itself():
    s = tame(interval(0, 1, True, True))
    assert apply_word("", s) is s
    assert apply_word("kcc", s) is s
    assert apply_word("i", s) == tame(interval(0, 1))
    assert apply_word("k0", s) == tame(realsets.EMPTY)


def test_a_reset_forgets_the_moves_of_plus_v_sets(monkeypatch):
    base = union(interval(0, 1), interval(Fraction(17, 2), 9, density="rationals"))
    s = plus_v(base)
    original = apply_word("k", s)
    assert render_symbolic(original) == "[0,1] u [8,10]"

    def k_that_keeps_only_full_gaps(gs, ps):
        return ([realsets.FULL if g == realsets.FULL else realsets.NONE for g in gs],
                [p and gs[j] == gs[j + 1] == realsets.FULL for j, p in enumerate(ps)])

    monkeypatch.setitem(realsets._SHAPE_OPS, "k", k_that_keeps_only_full_gaps)
    realsets._reset_shapes()
    try:
        patched = [apply_word("k", s), apply_word("k", plus_v(base))]
    finally:
        monkeypatch.undo()
        realsets._reset_shapes()
    expected = union(_from_profile(base.breaks, *k_that_keeps_only_full_gaps(
        *realsets._decode(base.code))), vitali.DEFAULT_PARAMS.kw1)
    assert patched == [tame(expected)] * 2
    assert render_symbolic(patched[0]) == "(0,1) u [8,10]"
    assert apply_word("k", s) == original


class _FullTable(dict):
    """A shape table that reports itself full, so _intern empties it before
    every insert, in the middle of a walk too; it counts the emptyings."""

    emptied = 0

    def __len__(self):
        return 262144

    def clear(self):
        self.emptied += 1
        super().clear()


def _walked_picks(word, s):
    """The indices of the (refined) breakpoints of s that the walk of word
    keeps, or the index of the isolated point it is stuck at."""
    if s.is_tame():
        breaks, start = s.base.breaks, realsets._intern(s.base.code)
    else:
        breaks, start = vitali._refinement(s)
    try:
        return realsets._walk(word, start, tuple(range(len(breaks))))[0]
    except vitali._Stuck as stuck:
        return "stuck", stuck.index


def test_a_full_table_emptied_mid_walk_walks_as_before(monkeypatch):
    # Moves are pure functions of codes, so emptying the table before every
    # insert changes no image, no pick and no Undecidable point.
    pool = _de_morgan_pool(vitali.DEFAULT_PARAMS, 9700)
    pool += [tame(random_tame(9800 + j, 5)) for j in range(10)]
    rng = random.Random(13)
    words = ["".join(rng.choice("kicdf" * 8 + "01") for _ in range(n))
             for n in range(1, 9) for _ in range(6)]
    expected = {(w, s): (_image_or_text(_fold, w, s), _walked_picks(w, s))
                for s in pool for w in words}
    table = _FullTable()
    monkeypatch.setattr(realsets, "_SHAPES", table)
    try:
        for (w, s), (image, picks) in expected.items():
            fresh = vitali.SymbolicSet(s.base, s.mode, s.params)
            assert _image_or_text(apply_word, w, fresh) == image, (w, s)
            assert _walked_picks(w, fresh) == picks, (w, s)
            if s.is_tame():  # and they are the independent letter fold's
                keep, folded = _letter_fold(w, s.base)
                assert (image, picks) == (tame(folded), keep), (w, s)
    finally:
        monkeypatch.undo()
        realsets._reset_shapes()
    assert {s.mode for s in pool} == {"tame", "plusV", "minusV"}
    assert any(isinstance(image, str) for image, _ in expected.values())
    # More emptyings than walks: the table was emptied inside walks.
    assert table.emptied > 2 * len(expected)


# -- distinguish groups its comparisons by the part outside kW1 -------------------


def _counting_sym_equal(monkeypatch):
    calls = []
    real = vitali.sym_equal

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(vitali, "sym_equal", counting)
    return calls


def _raise(exc):
    def raising(a, b):
        raise exc
    return raising


def test_distinguish_compares_images_that_differ_only_inside_kw1(monkeypatch):
    # V, dV = [8,9] and kV = [8,10] all lie inside kW1 = [8,10]: one key.
    calls = _counting_sym_equal(monkeypatch)
    n, images = distinguish(V, ("", "d", "k"))
    assert n == 3
    assert images == (V, apply_word("d", V), apply_word("k", V))
    assert len(calls) == 3


def test_distinguish_separates_images_that_differ_only_outside_kw1(monkeypatch):
    # (0,1) and [0,1] differ at 0 and 1, outside kW1: decided by the key.
    monkeypatch.setattr(vitali, "sym_equal", _raise(AssertionError("compared")))
    n, _ = distinguish(tame(interval(0, 1)), ("", "k"))
    assert n == 2


def test_distinguish_raises_when_images_sharing_a_key_are_undecidable(monkeypatch):
    monkeypatch.setattr(vitali, "sym_equal", _raise(Undecidable("patched")))
    with pytest.raises(Undecidable, match="patched"):
        distinguish(V, ("", "k"))


def test_distinguish_decides_criterion_3_in_at_most_10_comparisons(monkeypatch):
    calls = _counting_sym_equal(monkeypatch)
    a18, a22 = witness("A18"), witness("A22")
    counts = [distinguish(s, enumerate_monoid(gens, ax).elements)[0]
              for s, gens, ax in ((a18, "kcd", PB), (a22, "kcd", BASE), (a22, "kcfd", BASE))]
    assert counts == [18, 22, 46]
    assert len(calls) <= 10

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topomonoid.corpus import WITNESS_NAMES, build_corpus, parse_set_dsl, random_tame, witness
from topomonoid.realsets import Cell, TameSet, interval, render
from topomonoid.vitali import SymbolicSet, render_symbolic
from topomonoid.words import ParseError


def test_witnesses_exist_and_render():
    assert render_symbolic(witness("A18")) == "(1,2) u (2,3) u {4} u Q(5,6) u I(6,7)"
    assert render_symbolic(witness("A22")) == "(1,2) u (2,3) u {4} u Q(5,6) u I(6,7) u V"
    assert render_symbolic(witness("V")) == "V"
    assert render_symbolic(witness("cV")) == "(-inf,inf) ∖ V"
    assert render_symbolic(witness("empty")) == "{}"
    assert render_symbolic(witness("full")) == "(-inf,inf)"
    with pytest.raises(ValueError):
        witness("A19")


def test_witnesses_round_trip_through_dsl():
    for name in WITNESS_NAMES:
        s = witness(name)
        assert parse_set_dsl(render_symbolic(s)) == s


def test_dsl_examples():
    a18 = parse_set_dsl("(1,2) u (2,3) u {4} u Q(5,6) u I(6,7)")
    assert a18 == witness("A18")
    assert parse_set_dsl("V") == witness("V")
    assert parse_set_dsl("[1,2]").base == interval(1, 2, True, True)
    assert parse_set_dsl("(-inf, 0)").base == interval("-inf", 0)
    assert parse_set_dsl("(8,9) \\ V").mode == "minusV"
    assert parse_set_dsl("(0,1) \\ V").mode == "tame"  # V lives inside (8,10)
    assert parse_set_dsl("{1/2}").base.contains("1/2")
    assert parse_set_dsl("{}").base.is_empty()


def test_dsl_closed_trace_spans():
    # A closed span intersected with the rationals keeps its (rational)
    # endpoints; intersected with the irrationals it loses them.
    assert render_symbolic(parse_set_dsl("Q[5,6]")) == "{5} u Q(5,6) u {6}"
    assert render_symbolic(parse_set_dsl("I[5,6]")) == "I(5,6)"
    assert render_symbolic(parse_set_dsl("Q[5,6)")) == "{5} u Q(5,6)"


def test_dsl_rejections():
    # Cell validates every cell; the parser reports its error at the
    # position of the cell's first number.
    for text, position in [
        ("[2,1]", 2),
        ("(2,2)", 2),
        ("Q[2,2]", 3),
        ("[-inf,0]", 2),
        ("{inf}", 2),
        ("{-inf}", 2),
        ("(0,1) u [3,2]", 10),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_set_dsl(text)
        assert exc.value.position == position, text
    for text, why in [
        ("V u V", "two atoms"),
        ("(1,2) (2,3)", "missing u"),
        ("(1,2", "unterminated"),
        ("", "empty"),
        ("Q{4}", "trace of a point"),
        ("V \\ V", "atom on both sides"),
        ("hello", "garbage"),
        ("(0,1) u", "trailing u"),
        ("V u", "trailing u after the atom"),
    ]:
        with pytest.raises(ParseError):
            parse_set_dsl(text)


def test_dsl_error_position():
    with pytest.raises(ParseError) as exc:
        parse_set_dsl("(1,2) u (3,x)")
    assert exc.value.position == 12


def test_dsl_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError, match="zero denominator") as exc:
        parse_set_dsl("(0,1) u (2,7/0)")
    assert exc.value.position == 12


# Numbers include those the grammar cannot use everywhere: a zero
# denominator, and infinities inside braces or at a closed end.
_NUMBERS = ("0", "3", "-7/2", "0.5", "17/2", "1/0", "inf", "-inf")
_DSL_TOKENS = ("(", "[", ")", "]", "{", "}", ",", "u", "Q", "I", "V", "∖ V", "\\ V", "∖",
               *_NUMBERS)


@st.composite
def _dsl_term(draw):
    kind = draw(st.sampled_from(("interval", "point", "{}", "Q", "I", "V")))
    if kind in ("{}", "V"):
        return kind
    num = st.sampled_from(_NUMBERS)
    if kind == "point":
        return "{%s}" % draw(num)
    body = "%s%s,%s%s" % (draw(st.sampled_from("([")), draw(num), draw(num),
                          draw(st.sampled_from(")]")))
    return body if kind == "interval" else kind + body


# Token soup, and terms joined by "u" with a well-formed or truncated tail.
_DSL_TEXTS = st.one_of(
    st.builds(str.join, st.sampled_from(("", " ")),
              st.lists(st.sampled_from(_DSL_TOKENS), max_size=10)),
    st.builds(lambda terms, tail: " u ".join(terms) + tail,
              st.lists(_dsl_term(), max_size=4),
              st.sampled_from(("", " u", " ∖ V", " \\ V", " ∖", " u u", " V"))),
)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_DSL_TEXTS)
@example("V u")
def test_dsl_returns_a_set_or_raises_parse_error(text):
    try:
        s = parse_set_dsl(text)
    except ParseError:
        return
    assert isinstance(s, SymbolicSet)


def test_random_tame_deterministic():
    assert random_tame(7, 4) == random_tame(7, 4)
    distinct = {random_tame(seed, 4) for seed in range(100)}
    assert len(distinct) > 90


def _set_based_random_tame(seed, n):
    """random_tame with its grid values drawn as Fractions, de-duplicated
    through a set and laid out as Cells: it shares no drawing code with
    random_tame."""
    rng = random.Random(f"tame:{seed}:{n}")

    def grid_value():
        den = rng.randint(1, 8)
        return Fraction(rng.randint(-10 * den, 10 * den), den)

    k = rng.randint(1, n)
    points = sorted({grid_value() for _ in range(2 * k)})
    cells = []
    for j in range(0, len(points) - 1, 2 if rng.random() < 0.5 else 1):
        if len(cells) >= k:
            break
        lo, hi = points[j], points[j + 1]
        roll = rng.random()
        if roll < 0.12:
            cells.append(Cell(lo, lo, True, True, "full"))
        elif roll < 0.55:
            cells.append(Cell(lo, hi, rng.random() < 0.5, rng.random() < 0.5, "full"))
        elif roll < 0.8:
            cells.append(Cell(lo, hi, False, False, "rationals"))
        else:
            cells.append(Cell(lo, hi, False, False, "irrationals"))
    if not cells:
        cells.append(Cell(points[0], points[0], True, True, "full"))
    return TameSet.from_cells(cells)


# The last case is the start of the benchmark's eval-cold pool, whose set
# j is random_tame(5_000_000 + j, 8).
@pytest.mark.parametrize("seeds,n", [(range(1500), 1), (range(1500), 4), (range(1500), 8),
                                     (range(5_000_000, 5_000_400), 8)],
                         ids=["1", "4", "8", "eval-cold"])
def test_random_tame_matches_the_set_based_draw(seeds, n):
    for seed in seeds:
        assert random_tame(seed, n) == _set_based_random_tame(seed, n), seed


def test_random_tame_builds_no_cell(monkeypatch):
    calls = []
    post_init, from_cells = Cell.__post_init__, TameSet.from_cells

    def counting_post_init(cell):
        calls.append("Cell")
        post_init(cell)

    def counting_from_cells(cells):
        calls.append("from_cells")
        return from_cells(cells)

    monkeypatch.setattr(Cell, "__post_init__", counting_post_init)
    monkeypatch.setattr(TameSet, "from_cells", staticmethod(counting_from_cells))
    for seed in range(200):
        random_tame(seed, 8)
    assert calls == []
    parse_set_dsl("[0,1]")  # the counters see the Cell path
    assert calls == ["Cell", "from_cells"]


def test_random_tame_cell_bound():
    for seed in range(200):
        assert len(random_tame(seed, 4).cells) <= 4
        assert len(random_tame(seed, 1).cells) <= 1


def test_random_tame_round_trips():
    for seed in range(100):
        s = random_tame(seed, 4)
        assert parse_set_dsl(render(s)).base == s


def test_build_corpus_contents():
    corpus = build_corpus(size=12, seed=0)
    assert set(corpus.named) == set(WITNESS_NAMES)
    assert (corpus.size, corpus.seed) == (12, 0)


def test_random_sets_match_random_tame_by_index():
    n, seed = 30, 2
    corpus = build_corpus(n, seed)
    assert [corpus.random(j) for j in range(n)] == [random_tame(seed + j, 4) for j in range(n)]


def test_corpus_json_is_unchanged():
    assert [render(random_tame(11 + j, 4)) for j in range(4)] == [
        "(-51/7,-4/3) u I(-4/3,23/4)",
        "I(-19/2,-14/3) u [-4,-1/2]",
        "[-7,16/7)",
        "Q(-19/2,-8) u I(-8,-22/3) u Q(-22/3,-13/2) u Q(-13/2,-5)",
    ]

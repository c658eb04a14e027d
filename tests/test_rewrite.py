import random

import pytest

from topomonoid.monoid import enumerate_monoid, parity
from topomonoid.rewrite import (ReductionBudgetError, _redex_finder, completion_check,
                                normalize)
from topomonoid.rules import BASE, PB, AxiomSystem, RewriteRule, get_axioms
from topomonoid.verify import EXPECTED_COUNTS


@pytest.mark.parametrize("word,ax,expected", [
    ("kid", BASE, "d"),
    ("ckc", BASE, "i"),
    ("dc", PB, "cid"),
    ("kcd", BASE, "cid"),
    ("fkik", BASE, "fik"),
    ("fiki", BASE, "fki"),
    ("idcd", BASE, "cd"),
    ("dk", BASE, "kik"),
    ("kikc", BASE, "ciki"),
    ("ikic", BASE, "ckik"),
    ("ifk", BASE, "0"),
    ("c0", BASE, "1"),
    ("dcdc", BASE, "cidc"),
    ("dcdc", PB, "d"),
    ("idc", PB, "cd"),
    ("cdc", PB, "id"),
    ("cidc", PB, "d"),
    ("dc", BASE, "dc"),
    ("00", BASE, "0"),
    ("ifk0", BASE, "0"),
    ("01", PB, "0"),
    ("10", BASE, "1"),
])
def test_normalize_examples(word, ax, expected):
    assert normalize(word, ax) == expected


def test_normalize_idempotent_on_random_words():
    rng = random.Random(11)
    for _ in range(400):
        w = "".join(rng.choice("kicdf") for _ in range(rng.randint(0, 9)))
        for ax in (BASE, PB):
            n = normalize(w, ax)
            assert normalize(n, ax) == n


def test_pb_refines_base():
    rng = random.Random(12)
    for _ in range(400):
        w = "".join(rng.choice("kicdf") for _ in range(rng.randint(0, 9)))
        assert normalize(w, PB) == normalize(normalize(w, BASE), PB)


def test_normalize_preserves_parity_on_kicd_fragment():
    rng = random.Random(13)
    for _ in range(400):
        w = "".join(rng.choice("kicd") for _ in range(rng.randint(0, 9)))
        for ax in (BASE, PB):
            assert parity(normalize(w, ax)) == parity(w)


def test_canonical_words_are_irreducible():
    for gens, ax in (("kcd", BASE), ("kcd", PB), ("kcfd", BASE), ("kcfd", PB)):
        for w in enumerate_monoid(gens, ax).elements:
            assert normalize(w, ax) == w


def _pairs(ax):
    return [(r.lhs, r.rhs) for r in ax.rules]


def _critical_pairs(rules):
    """Every overlap and inclusion of two left-hand sides, with both one-step
    reducts, for rules given as (lhs, rhs) pairs.

    An overlap is a word l1 + l2[k:] where the last k letters of l1 are the
    first k of l2; an inclusion is l1 itself where l2 occurs inside it.
    """
    for l1, r1 in rules:
        for l2, r2 in rules:
            for k in range(1, min(len(l1), len(l2))):
                if l1.endswith(l2[:k]):
                    yield (l1 + l2[k:], r1 + l2[k:], l1[:-k] + r2)
            if (l1, r1) != (l2, r2):
                start = l1.find(l2)
                while start != -1:
                    yield (l1, r1, l1[:start] + r2 + l1[start + len(l2):])
                    start = l1.find(l2, start + 1)


@pytest.mark.parametrize("ax,count", [(BASE, 505), (PB, 445)], ids=["BASE", "PB"])
def test_critical_pairs_join(ax, count):
    """Local confluence (Knuth-Bendix): both reducts of every critical pair
    normalize to the same word.  With termination this makes normal forms
    independent of the order in which rules fire (Newman's lemma)."""
    pairs = list(_critical_pairs(_pairs(ax)))
    assert len(pairs) == count
    unjoined = [(w, a, b) for w, a, b in pairs if normalize(a, ax) != normalize(b, ax)]
    assert not unjoined, unjoined[:5]


def _weighted_shortlex(word):
    """Sort key of weighted shortlex: d weighs 3, every other letter 1; ties
    go lexicographically under the precedence c < k < i < d < f < 0 < 1."""
    return sum(3 if ch == "d" else 1 for ch in word), ["ckidf01".index(ch) for ch in word]


def _dc_pairs(word):
    """M: the number of (d, c) letter pairs with the d to the left of the c."""
    pairs = ds = 0
    for ch in word:
        if ch == "d":
            ds += 1
        elif ch == "c":
            pairs += ds
    return pairs


def _pb_order(word):
    """PB's reduction order: the lexicographic pair (M, weighted shortlex)."""
    return _dc_pairs(word), _weighted_shortlex(word)


def test_rules_decrease_under_a_reduction_order():
    """Termination.  Weighted shortlex is a reduction order (positive weights:
    finitely many words of each weight, and it is kept by any surrounding
    word), and every BASE rule decreases it.  Under PB, dc -> cid adds a
    letter, so PB uses the lexicographic pair (M, weighted shortlex): no PB
    rule raises the number of c's or of d's, so M cannot rise through the
    pairs a rule's letters form with the surrounding word, and every rule
    lowers M or keeps it and lowers weighted shortlex."""
    assert len(BASE.rules) == 56 and len(PB.rules) == 53
    for r in BASE.rules:
        assert _weighted_shortlex(r.rhs) < _weighted_shortlex(r.lhs), r
    for r in PB.rules:
        assert r.rhs.count("c") <= r.lhs.count("c"), r
        assert r.rhs.count("d") <= r.lhs.count("d"), r
        assert _dc_pairs(r.rhs) <= _dc_pairs(r.lhs), r
        assert _pb_order(r.rhs) < _pb_order(r.lhs), r
    assert [r.lhs for r in PB.rules
            if not _weighted_shortlex(r.rhs) < _weighted_shortlex(r.lhs)] == ["dc"]


def _reduce(word, rules):
    """A normal form of `word` under (lhs, rhs) rules, rewriting with any rule
    that fits; unique once the rules are confluent."""
    while True:
        for lhs, rhs in rules:
            start = word.find(lhs)
            if start != -1:
                word = word[:start] + rhs + word[start + len(lhs):]
                break
        else:
            return word


def _complete(equations, order):
    """Knuth-Bendix completion with interreduction.

    Each equation is reduced by the rules so far and, unless both sides meet,
    oriented from its larger side under `order` into a new rule.  A rule
    whose left side the new one reduces goes back to the equations, and
    every right side is reduced again.  Once no equation is left, the
    critical pairs that do not join become the next round's equations.
    The result is the reduced complete system of (lhs, rhs) rules for the
    congruence the equations generate.  Both tables complete in 3 rounds;
    the bound turns a completion that never ends into a failure.
    """
    rules = set()
    for _ in range(20):
        while equations:
            a, b = (_reduce(w, rules) for w in equations.pop())
            if a == b:
                continue
            lhs, rhs = (a, b) if order(b) < order(a) else (b, a)
            reducible = {rule for rule in rules if lhs in rule[0]}
            rules -= reducible
            equations += reducible
            rules.add((lhs, rhs))
            rules = {(l, _reduce(r, rules)) for l, r in rules}
        equations = [(a, b) for _, a, b in _critical_pairs(rules)
                     if _reduce(a, rules) != _reduce(b, rules)]
        if not equations:
            return rules
    raise AssertionError("completion did not finish in 20 rounds")


@pytest.mark.parametrize("ax,order,sizes", [
    (BASE, _weighted_shortlex, (43, 56)),
    (PB, _pb_order, (44, 53)),
], ids=["BASE", "PB"])
def test_table_is_the_reduced_completion_of_its_classical_rules(ax, order, sizes):
    """Completing the classical rules under the termination test's order
    gives exactly the shipped table.  So every derived rule is a theorem of
    the classical ones, and the table is the one reduced complete system of
    their congruence for that order (Knuth & Bendix 1970; Book & Otto,
    String-Rewriting Systems, 1993)."""
    classical = [(r.lhs, r.rhs) for r in ax.rules if r.status == "classical"]
    completed = _complete(list(classical), order)
    assert (len(classical), len(completed)) == sizes
    assert completed == set(_pairs(ax))


@pytest.mark.parametrize("ax", [BASE, PB], ids=["BASE", "PB"])
def test_table_is_reduced(ax):
    """No left side contains another rule's left side, and every right side
    is irreducible."""
    lhss = [r.lhs for r in ax.rules]
    assert len(set(lhss)) == len(lhss)
    assert not [(a, b) for a in lhss for b in lhss if a != b and b in a]
    assert not [r for r in ax.rules if normalize(r.rhs, ax) != r.rhs]


def test_step_budget_figure():
    """The figure in the rewrite docstring: the longest reduction of a word
    over kicdf of length <= 7 takes 18 steps under either system.  A step
    rewrites the leftmost redex, and a redex search from the start finds
    the one normalize finds from its look-back position, so steps are
    counted word by word with a memo."""
    from itertools import product

    for ax in (BASE, PB):
        search, rhs_of, _ = _redex_finder(ax)
        steps = {}

        def count(w):
            if w not in steps:
                m = search(w)
                steps[w] = 0 if m is None else 1 + count(
                    w[:m.start()] + rhs_of[m.group()] + w[m.end():])
            return steps[w]

        longest = max(count("".join(t)) for n in range(8) for t in product("kicdf", repeat=n))
        assert (longest, count("dkccccc")) == (18, 18), ax.name


def test_completion_check_success():
    assert completion_check(BASE, "kcd").ok
    assert completion_check(PB, "kcd").size == 18
    assert completion_check(BASE, "kcfd").size == 46


def test_completion_check_reports_missing_rule():
    crippled = AxiomSystem(
        "BASE-no-dck",
        tuple(r for r in BASE.rules if r.lhs != "dck"))
    good = enumerate_monoid("kcd", BASE).elements
    report = completion_check(crippled, "kcd", candidate=good)
    assert not report.ok
    assert any("dck" in f for f in report.failures)
    # Without the candidate the weakened system closes on a larger set.
    assert completion_check(crippled, "kcd").size > 22


def test_completion_check_reports_an_unclosed_search():
    # Without ic -> ck the k,c search closes on 14 words on the left, but
    # the right product i*c stays irreducible.
    no_ic = AxiomSystem("BASE-no-ic", tuple(r for r in BASE.rules if r.lhs != "ic"))
    report = completion_check(no_ic, "kc")
    assert not report.ok
    assert report.size == 14
    assert report.failures[0] == "ic reduces to ic, outside the canonical set"
    with pytest.raises(ValueError, match="^monoid not closed: ic reduces to ic"):
        enumerate_monoid("kc", no_ic)


def test_completion_check_searches_the_enumerated_monoid():
    for gens, ax_name, _ in EXPECTED_COUNTS:
        ax = get_axioms(ax_name)
        assert completion_check(ax, gens).elements == enumerate_monoid(gens, ax).elements


def test_all_short_words_reach_the_canonical_sets():
    """Exhaustive: every word of length <= 5 lands in the 46/40-element sets."""
    from itertools import product

    c46 = set(enumerate_monoid("kcfd", BASE).elements)
    c40 = set(enumerate_monoid("kcfd", PB).elements)
    for length in range(6):
        for tup in product("kicdf", repeat=length):
            w = "".join(tup)
            assert normalize(w, BASE) in c46, w
            assert normalize(w, PB) in c40, w


def test_budget_exhaustion_raises():
    looping = AxiomSystem("LOOP", (RewriteRule("kc", "ck", "BASE", "bad", "derived"),
                                   RewriteRule("ck", "kc", "BASE", "bad", "derived")))
    with pytest.raises(ReductionBudgetError):
        normalize("kc", looping)


def test_a_stuck_product_is_a_short_failure_on_both_paths():
    loop = AxiomSystem("loop", (RewriteRule("ck", "ckcc", "BASE", "bad", "derived"),))
    for candidate in (None, ("", "k", "c")):
        report = completion_check(loop, "kc", candidate)
        assert not report.ok
        assert "ck stuck at ckcc" in report.failures[0]
        assert all(len(f) < 200 for f in report.failures), report.failures
        # Each product once: g*e = e*g = g, and kc is both k*c (g*w) and k*c (w*g).
        assert len(set(report.failures)) == len(report.failures), report.failures
    assert len(report.failures) == 4  # with the candidate: ck, kc, cc, kk
    with pytest.raises(ValueError, match="^monoid not closed: ck stuck at ") as info:
        enumerate_monoid("kc", loop)
    assert len(str(info.value)) < 200
    with pytest.raises(ReductionBudgetError) as info:
        normalize("ck", loop)
    assert len(str(info.value)) < 200 and "(20002 letters)" in str(info.value)
    assert info.value.word == "ck" + "c" * 20000


# -- the compiled redex search is exactly the leftmost, table-order strategy ----


def _oracle_normalize(word, ax):
    """The position x rule scan: leftmost position first, rules in table order."""
    def reduce_once(w):
        for pos in range(len(w)):
            for rule in ax.rules:
                if w.startswith(rule.lhs, pos):
                    return w[:pos] + rule.rhs + w[pos + len(rule.lhs):]
        return None

    while (nxt := reduce_once(word)) is not None:
        word = nxt
    return word


_NO_DCK = AxiomSystem("BASE-no-dck", tuple(r for r in BASE.rules if r.lhs != "dck"))


def _strategy_words():
    from itertools import product

    for length in range(5):
        for tup in product("kicdf01", repeat=length):
            yield "".join(tup)
    rng = random.Random(17)
    for _ in range(2000):
        yield "".join(rng.choice("kicdf01") for _ in range(rng.randint(5, 12)))


@pytest.mark.parametrize("ax", [BASE, PB, _NO_DCK], ids=["BASE", "PB", "BASE-no-dck"])
def test_compiled_search_matches_the_scan_oracle(ax):
    # BASE-no-dck leaves critical pairs unjoined, so its normal forms depend
    # on the strategy, not only on confluence.
    diffs = [w for w in _strategy_words() if normalize(w, ax) != _oracle_normalize(w, ax)]
    assert not diffs, diffs[:5]


@pytest.mark.parametrize("rules,expected", [
    ((("kc", "0"), ("k", "i")), "0"),
    ((("k", "i"), ("kc", "0")), "ic"),
], ids=["longer-first", "shorter-first"])
def test_table_order_decides_between_rules_at_one_position(rules, expected):
    ax = AxiomSystem("ORDER", tuple(RewriteRule(l, r, "BASE", "test", "derived")
                                    for l, r in rules))
    assert normalize("kc", ax) == expected == _oracle_normalize("kc", ax)


def test_empty_rule_table_leaves_words_unchanged():
    empty = AxiomSystem("EMPTY", ())
    assert normalize("kc", empty) == "kc"
    assert normalize("", empty) == ""

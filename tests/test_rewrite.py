import random

import pytest

from topomonoid.corpus import build_corpus, parse_set_dsl
from topomonoid.monoid import enumerate_monoid, parity
from topomonoid.rewrite import ReductionBudgetError, completion_check, normalize, validate_rules
from topomonoid.rules import BASE, PB, AxiomSystem, RewriteRule


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


def test_validate_rules_passes_on_corpus():
    corpus = build_corpus(size=80, seed=3).all_sets()
    report = validate_rules(PB, corpus)
    assert report.ok, [r.label for r in report.failures()]
    assert all(r.checked > 0 for r in report.results)


def test_validate_rules_refutes_printed_transposed_forms():
    doc = parse_set_dsl("(0,1) u Q(1,2)")
    corpus = [doc] + build_corpus(size=10, seed=4).all_sets()
    bad = [RewriteRule("fkik", "fki", "BASE", "printed form", "refuted"),
           RewriteRule("fiki", "fik", "BASE", "printed form", "refuted")]
    report = validate_rules(bad, corpus)
    assert not report.ok
    for res in report.results:
        assert not res.ok
        witness, lhs_img, rhs_img = res.counterexample
        assert witness == "(0,1) u Q(1,2)"
        assert {lhs_img, rhs_img} == {"{0} u {2}", "{0} u {1}"}


def test_validate_trivial_involution():
    corpus = build_corpus(size=15, seed=6).all_sets()
    report = validate_rules([RewriteRule("cc", "", "BASE", "involution", "classical")],
                            corpus)
    assert report.ok


def test_rules_export_json():
    from topomonoid.rules import export_rules_json

    rows = export_rules_json(PB)
    assert {"lhs", "rhs", "tier", "provenance", "status"} <= set(rows[0])
    assert {"lhs": "dc", "rhs": "cid", "tier": "PB",
            "provenance": "with every set Baire-measurable, dc = cid",
            "status": "classical"} in rows
    tiers = {r["tier"] for r in rows}
    assert tiers == {"BASE", "PB", "CONST"}


def _critical_pairs(rules):
    """Every overlap and inclusion of two left-hand sides, with both one-step reducts.

    An overlap is a word l1 + l2[k:] where the last k letters of l1 are the
    first k of l2; an inclusion is l1 itself where l2 occurs inside it.
    """
    for r1 in rules:
        for r2 in rules:
            l1, l2 = r1.lhs, r2.lhs
            for k in range(1, min(len(l1), len(l2))):
                if l1.endswith(l2[:k]):
                    yield (l1 + l2[k:], r1.rhs + l2[k:], l1[:-k] + r2.rhs)
            if r1 is not r2:
                start = l1.find(l2)
                while start != -1:
                    yield (l1, r1.rhs, l1[:start] + r2.rhs + l1[start + len(l2):])
                    start = l1.find(l2, start + 1)


@pytest.mark.parametrize("ax,count", [(BASE, 525), (PB, 541)], ids=["BASE", "PB"])
def test_critical_pairs_join(ax, count):
    """Local confluence (Knuth-Bendix): both reducts of every critical pair
    normalize to the same word.  With termination this makes normal forms
    independent of the order in which rules fire (Newman's lemma)."""
    pairs = list(_critical_pairs(ax.rules))
    assert len(pairs) == count
    unjoined = [(w, a, b) for w, a, b in pairs if normalize(a, ax) != normalize(b, ax)]
    assert not unjoined, unjoined[:5]


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

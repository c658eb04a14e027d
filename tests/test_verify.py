"""Verify criteria fail, and name the offending set, when a false fact is injected."""

from fractions import Fraction

import pytest

from topomonoid import realsets, verify, vitali
from topomonoid.corpus import build_corpus, parse_set_dsl, witness
from topomonoid.realsets import UNIVERSAL, interval, point, render, union
from topomonoid.rules import BASE, PB, AxiomSystem, RewriteRule
from topomonoid.vitali import (DEFAULT_PARAMS, Undecidable, apply_word,
                               has_baire_property, is_meager, minus_v, render_symbolic,
                               sym_difference, sym_equal, sym_intersect, sym_subset,
                               sym_union, tame)

CORPUS = build_corpus(size=17, seed=1729)
V = witness("V")
CV = witness("cV")


def _checks(run, *args):
    checks = []
    run(checks, *args)
    return {c.id: c for c in checks}


def _property_suites():
    return _checks(verify.check_property_suites, CORPUS)


def _first_set_where_words_differ(lhs, rhs, sets):
    return next(render_symbolic(s) for s in sets
                if not sym_equal(apply_word(lhs, s), apply_word(rhs, s)))


def test_criteria_pass_on_the_small_corpus():
    checks = {**_property_suites(),
              **_checks(verify.check_rule_validation, CORPUS, DEFAULT_PARAMS),
              **_checks(verify.check_rewrite_semantics, CORPUS, 1729)}
    assert {c.status for c in checks.values()} == {"pass"}, checks


def _identity_violations(lhs, rhs, sets):
    """law_violations of the one word identity lhs = rhs on each set."""
    law = verify.identity_law(lhs, rhs, f"{lhs} = {rhs} fails")
    return verify.law_violations((law,), [(s,) for s in sets], verify.ON_U)


@pytest.mark.parametrize("size", [0, -1])
def test_run_verify_rejects_a_corpus_size_below_one(size):
    with pytest.raises(ValueError, match="corpus_size must be at least 1"):
        verify.run_verify(corpus_size=size)


def test_d_law_identities_are_base_rules():
    base = {(r.lhs, r.rhs) for r in BASE.rules}
    identities = {law.words for law in verify.D_SET_LAWS if law.words is not None}
    assert len(identities) == 5 and identities <= base


def test_5a_fails_on_a_false_d_law(monkeypatch):
    monkeypatch.setattr(verify, "D_SET_LAWS",
                        verify.D_SET_LAWS + (verify.identity_law("d", "k", "(x) d = k fails"),))
    check = _property_suites()["5a-d-operator-laws"]
    sets = [tame(s) for s in CORPUS.random]
    assert check.status == "fail"
    assert f"(x) d = k fails on {_first_set_where_words_differ('d', 'k', sets)}" in check.details


def _d_that_also_fills_rationals_gaps(gs, ps):
    filled = [g != realsets.NONE for g in gs]
    return ([realsets.FULL if f else realsets.NONE for f in filled],
            [filled[j] or filled[j + 1] for j in range(len(ps))])


def _clear_image_caches():
    realsets._step.cache_clear()
    vitali._cached_apply.cache_clear()


def test_5a_fails_on_a_d_that_also_fills_rationals_gaps(monkeypatch):
    # dS of such a d is not empty on a meager S = Q(a,b): (f) must catch it.
    monkeypatch.setitem(realsets._SHAPE_OPS, "d", _d_that_also_fills_rationals_gaps)
    _clear_image_caches()
    try:
        check = _property_suites()["5a-d-operator-laws"]
    finally:
        _clear_image_caches()
    assert check.status == "fail"
    assert "(f) meagerness mismatch on " in check.details


def test_5b_fails_on_a_false_baire_equality(monkeypatch):
    monkeypatch.setattr(verify, "BAIRE_SET_LAWS",
                        verify.BAIRE_SET_LAWS + (verify.identity_law("k", "i", "k != i"),))
    checks = _property_suites()
    check = checks["5b-baire-equalities"]
    assert check.status == "fail"
    first = _first_set_where_words_differ("k", "i", CORPUS.all_sets())
    assert f"k != i on {first}" in check.details
    assert checks["5c-baire-failures-on-vitali"].status == "pass"


def test_5c_fails_on_an_equality_that_holds_on_v(monkeypatch):
    monkeypatch.setattr(verify, "BAIRE_SET_LAWS",
                        verify.BAIRE_SET_LAWS + (verify.identity_law("kk", "k", "kk != k"),))
    checks = _property_suites()
    assert checks["5b-baire-equalities"].status == "pass"
    check = checks["5c-baire-failures-on-vitali"]
    assert check.status == "fail"
    assert check.details == "kkV unexpectedly equals kV"


def test_6_fails_on_a_false_rule(monkeypatch):
    bad = RewriteRule("k", "i", "BASE", "false rule under test", "derived")
    monkeypatch.setattr(verify, "PB", AxiomSystem("PB+bad", PB.rules + (bad,)))
    check = _checks(verify.check_rule_validation, CORPUS, DEFAULT_PARAMS)["6-rule-validation"]
    assert check.status == "fail"
    first = _first_set_where_words_differ("k", "i", CORPUS.all_sets())
    assert check.details == f"rule k -> i refuted on {first}"


def test_6_fails_on_a_false_rule_only_in_base(monkeypatch):
    # dcd = d fails on R: dR = R, but dcdR = cidR is empty.
    bad = RewriteRule("dcd", "d", "BASE", "false rule under test", "derived")
    monkeypatch.setattr(verify, "BASE", AxiomSystem("BASE+bad", BASE.rules + (bad,)))
    check = _checks(verify.check_rule_validation, CORPUS, DEFAULT_PARAMS)["6-rule-validation"]
    assert check.status == "fail"
    first = _first_set_where_words_differ("dcd", "d", CORPUS.all_sets())
    assert check.details == f"rule dcd -> d refuted on {first}"


def test_6_fails_when_a_printed_form_is_not_refuted(monkeypatch):
    monkeypatch.setattr(verify, "PRINTED_REFUTATIONS", (("fkik", "fik", "{0} u {2}", "{}"),))
    check = _checks(verify.check_rule_validation, CORPUS, DEFAULT_PARAMS)["6-rule-validation"]
    assert check.status == "fail"
    assert check.details == "printed fkik->fik was not refuted"


def test_6_fails_when_a_printed_form_has_other_images(monkeypatch):
    monkeypatch.setattr(verify, "PRINTED_REFUTATIONS", (("fkik", "fki", "{0} u {1}", "{}"),))
    check = _checks(verify.check_rule_validation, CORPUS, DEFAULT_PARAMS)["6-rule-validation"]
    assert check.status == "fail"
    assert check.details == ("printed fkik->fki refuted by {0} u {2} / {0} u {1}, "
                             "not {0} u {1} / {}")


def test_6_every_rule_holds_on_a_corpus_with_instances_checked():
    corpus = build_corpus(size=80, seed=3)
    check = _checks(verify.check_rule_validation, corpus, DEFAULT_PARAMS)["6-rule-validation"]
    assert check.status == "pass", check.details
    sets = corpus.all_sets()
    bp_sets = [s for s in sets if has_baire_property(s) is True]
    for rule in dict.fromkeys(BASE.rules + PB.rules):
        on = bp_sets if rule.tier == "PB" else sets
        assert on and _identity_violations(rule.lhs, rule.rhs, on) == ([], 0), rule


def test_6_printed_transposed_forms_are_refuted_on_the_documented_witness():
    doc = parse_set_dsl(verify.DOCUMENTED_REFUTATION)
    sets = [doc] + build_corpus(size=10, seed=4).all_sets()
    for lhs, rhs in (("fkik", "fki"), ("fiki", "fik")):
        assert _identity_violations(lhs, rhs, sets) == (
            [f"{lhs} = {rhs} fails on (0,1) u Q(1,2)"], 0)
        images = {render_symbolic(apply_word(w, doc)) for w in (lhs, rhs)}
        assert images == {"{0} u {2}", "{0} u {1}"}


def test_6_trivial_involution_holds():
    sets = build_corpus(size=15, seed=6).all_sets()
    assert _identity_violations("cc", "", sets) == ([], 0)


def test_6_checks_pb_rules_only_on_baire_property_sets():
    # dc = cid needs the Baire property: V refutes it, yet 6 passes on a
    # corpus that holds V.
    v = CORPUS.named["V"]
    assert v in CORPUS.all_sets() and has_baire_property(v) is not True
    assert _identity_violations("dc", "cid", [v])[0]
    check = _checks(verify.check_rule_validation, CORPUS, DEFAULT_PARAMS)["6-rule-validation"]
    assert check.status == "pass", check.details


def test_10_fails_on_a_wrong_normal_form(monkeypatch):
    # A set never equals its complement, so the first pair already fails.
    monkeypatch.setattr(verify, "normalize", lambda word, ax: "c" + word)
    check = _checks(verify.check_rewrite_semantics, CORPUS, 1729)["10-rewrite-semantics"]
    assert check.status == "fail"
    assert check.details.startswith("BASE: ")
    assert f" on {render(CORPUS.random[0])}; " in check.details


def _undecidable(*args):
    raise Undecidable("injected")


@pytest.mark.parametrize("run,args,cid", [
    (verify.check_property_suites, (CORPUS,), "5b-baire-equalities"),
    (verify.check_property_suites, (CORPUS,), "5c-baire-failures-on-vitali"),
    (verify.check_rule_validation, (CORPUS, DEFAULT_PARAMS), "6-rule-validation"),
    (verify.check_rewrite_semantics, (CORPUS, 1729), "10-rewrite-semantics"),
], ids=["5b", "5c", "6", "10"])
def test_an_undecidable_instance_is_never_a_pass(monkeypatch, run, args, cid):
    monkeypatch.setattr(verify, "apply_word", _undecidable)
    check = _checks(run, *args)[cid]
    assert check.status == "fail"
    assert "undecidable" in check.details


def test_5a_counts_undecidable_laws_as_skips(monkeypatch):
    sets = [tame(s) for s in CORPUS.random] + [
        CORPUS.named["V"], CORPUS.named["cV"], CORPUS.named["A22"]]
    problems, skipped = verify.d_law_violations(sets)
    assert not problems and skipped == 2
    # Undecidable on the witness too, so every set is evaluated and skipped.
    monkeypatch.setattr(verify, "D_SET_LAWS",
                        verify.D_SET_LAWS + (verify.Law("(x) fails", _undecidable),))
    assert verify.d_law_violations(sets) == ([], skipped + len(sets))


# -- criterion 5 on witnesses agrees with the set-by-set check -----------------


def _check_identity_set_by_set(lhs, rhs, sets):
    """(checked, skipped, counterexample) of lhs = rhs with nothing decided
    on U: both words on every set, up to the first rendered (set, lhs image,
    rhs image) that differs."""
    checked = skipped = 0
    for s in sets:
        try:
            left, right = apply_word(lhs, s), apply_word(rhs, s)
            same = sym_equal(left, right)
        except Undecidable:
            skipped += 1
            continue
        checked += 1
        if not same:
            return checked, skipped, (
                render_symbolic(s), render_symbolic(left), render_symbolic(right))
    return checked, skipped, None


def _oracle_d_law_violations(sets):
    """The set-by-set check of the d-operator laws that 5a made before its
    laws were decided on witnesses."""
    problems = []
    skipped = 0
    for law in verify.D_SET_LAWS:
        if law.words is not None:
            _, law_skipped, cex = _check_identity_set_by_set(*law.words, sets)
            skipped += law_skipped
            if cex is not None:
                problems.append(f"{law.text} on {cex[0]}")
    for s in sets:
        ds = apply_word("d", s)
        if not sym_subset(ds, apply_word("k", s)):
            problems.append(f"(b) dS not in kS on {render_symbolic(s)}")
        if s.is_tame() and s.base.is_meager() != ds.base.is_empty():
            problems.append(f"(f) meagerness mismatch on {render_symbolic(s)}")
        try:
            rest = sym_difference(s, ds)
            if not is_meager(rest):
                problems.append(f"(e) S-dS not meager on {render_symbolic(s)}")
        except Undecidable:
            skipped += 1
    for s, t in zip(sets, sets[1:] + sets[:1]):
        try:
            u = sym_union(s, t)
        except Undecidable:
            skipped += 1
            continue
        du = apply_word("d", u)
        if not sym_subset(apply_word("d", s), du):
            problems.append(f"(a) monotonicity fails on {render_symbolic(s)}")
        try:
            both = sym_union(apply_word("d", s), apply_word("d", t))
            if not sym_equal(du, both):
                problems.append(f"(d) additivity fails on {render_symbolic(s)}")
        except Undecidable:
            skipped += 1
    return problems, skipped


def _oracle_baire_law_violations(bp_sets):
    """5b's set-by-set loop over the property-true sets."""
    problems = []
    skipped = 0
    for s in bp_sets:
        rest = sym_difference(apply_word("d", s), s)
        if not is_meager(rest):
            problems.append(f"(b) dS-S not meager on {render_symbolic(s)}")
    for law in verify.BAIRE_SET_LAWS:
        if law.words is not None:
            _, law_skipped, cex = _check_identity_set_by_set(*law.words, bp_sets)
            skipped += law_skipped
            if cex is not None:
                problems.append(f"{law.text} on {cex[0]}")
    return problems, skipped


def _5a_sets(corpus):
    return [tame(s) for s in corpus.random] + [
        corpus.named["V"], corpus.named["cV"], corpus.named["A22"]]


@pytest.mark.parametrize("seed", [1729, 2729, 7])
def test_laws_on_witnesses_match_the_set_by_set_oracle(seed):
    corpus = build_corpus(verify.DEFAULT_CORPUS_SIZE, seed)
    sets = _5a_sets(corpus)
    expected = _oracle_d_law_violations(sets)
    assert verify.d_law_violations(sets) == expected
    if seed == 1729:
        assert expected == ([], 2)
    bp_sets = [s for s in corpus.all_sets() if has_baire_property(s) is True]
    assert (verify.law_violations(verify.BAIRE_SET_LAWS, [(s,) for s in bp_sets], verify.ON_U)
            == _oracle_baire_law_violations(bp_sets))


def _first_failure(law, inputs):
    """The first input a law fails on, evaluated one by one."""
    for args in inputs:
        try:
            if not law(*args):
                return render_symbolic(args[0])
        except Undecidable:
            pass
    return None


def test_5a_names_the_first_set_a_false_set_law_fails_on(monkeypatch):
    def law(s):
        return sym_subset(apply_word("d", s), apply_word("i", s))

    monkeypatch.setattr(verify, "D_SET_LAWS",
                        verify.D_SET_LAWS + (verify.Law("(x) dS not in iS", law),))
    check = _property_suites()["5a-d-operator-laws"]
    first = _first_failure(law, [(s,) for s in _5a_sets(CORPUS)])
    assert check.status == "fail" and first is not None
    assert check.details == f"(x) dS not in iS on {first}"


def test_5a_names_the_first_pair_a_false_pair_law_fails_on(monkeypatch):
    def law(s, t, u):
        return sym_equal(apply_word("d", sym_intersect(s, t)),
                         sym_intersect(apply_word("d", s), apply_word("d", t)))

    monkeypatch.setattr(verify, "D_PAIR_LAWS",
                        verify.D_PAIR_LAWS + (verify.Law("(x) meet fails", law),))
    check = _property_suites()["5a-d-operator-laws"]
    sets = _5a_sets(CORPUS)
    first = _first_failure(law, [(s, t, None) for s, t in zip(sets, sets[1:] + sets[:1])])
    assert check.status == "fail" and first is not None
    assert check.details == f"(x) meet fails on {first}"


def test_a_law_that_holds_on_the_witness_is_evaluated_only_on_v_mode_inputs():
    calls = []

    def law(s):
        calls.append(s)
        return True

    sets = [tame(s) for s in CORPUS.random] + [CORPUS.named["V"]]
    laws = (verify.Law("(x) fails", law),)
    assert verify.law_violations(laws, [(s,) for s in sets], verify.ON_U) == ([], 0)
    assert calls == [tame(UNIVERSAL), CORPUS.named["V"]]


# -- word identities through law_violations ------------------------------------


def test_an_identity_stops_at_its_first_counterexample():
    doc = parse_set_dsl("(0,1) u Q(1,2)")
    empty = tame(realsets.EMPTY)
    undecidable = minus_v(union(interval(8, 9), point(Fraction(19, 2))))
    # The law stops at doc, so the undecidable set after it is no skip.
    assert _identity_violations("fkik", "fki", [empty, doc, V, undecidable]) == (
        ["fkik = fki fails on (0,1) u Q(1,2)"], 0)
    assert _identity_violations("fkik", "fik", [empty, doc, V, CV]) == ([], 0)


def test_an_identity_skips_undecidable_sets():
    s = minus_v(union(interval(8, 9), point(Fraction(19, 2))))
    assert render_symbolic(s) == "(8,9) u {19/2} ∖ V"
    with pytest.raises(Undecidable):
        apply_word("k", s)
    assert _identity_violations("k", "kk", [V, s, CV]) == ([], 1)
    assert _identity_violations("k", "i", [s, V]) == (["k = i fails on V"], 1)


def _shape(s):
    return s.base.gaps, s.base.pts


def test_an_identity_does_not_remember_disagreements():
    # One shape, two outcomes: k and i differ by the point 17/2 inside W1
    # (undecidable) and by the point 3 outside it (decidably different).
    sets = [tame(point(Fraction(17, 2))), tame(point(3))]
    assert _shape(sets[0]) == _shape(sets[1])
    assert _identity_violations("k", "i", sets) == (["k = i fails on {3}"], 1)


def test_an_identity_does_not_remember_plus_or_minus_v_inputs():
    arc = interval(Fraction(33, 4), Fraction(67, 8))
    outside = minus_v(union(arc, point(11)))
    inside = minus_v(union(arc, point(Fraction(17, 2))))
    assert render_symbolic(inside) == "(33/4,67/8) u {17/2} ∖ V"
    assert _shape(outside) == _shape(inside)
    assert _identity_violations("k", "kk", [outside, inside]) == ([], 1)
    assert _identity_violations("k", "kk", [inside, outside]) == ([], 1)


def test_an_identity_decides_tame_inputs_on_the_universal_witness(monkeypatch):
    sets = build_corpus(300, seed=4100).all_sets()
    v_mode = [s for s in sets if not s.is_tame()]
    assert v_mode and len(v_mode) < len(sets)
    evaluated = []

    def recording_apply_word(word, s):
        evaluated.append(s)
        return apply_word(word, s)

    monkeypatch.setattr(verify, "apply_word", recording_apply_word)
    u = verify.ON_U[0]
    # The words agree on U: no tame input is evaluated, every V-mode input is.
    assert _identity_violations("kikik", "kik", sets) == ([], 0)
    assert evaluated == [u, u] + [s for s in v_mode for _ in ("lhs", "rhs")]
    # They differ on U: tame inputs are evaluated one by one.
    evaluated.clear()
    tame_point = tame(point(3))
    assert _identity_violations("k", "i", [tame_point]) == (["k = i fails on {3}"], 0)
    assert evaluated == [u, u, tame_point, tame_point]


def test_an_identity_matches_the_set_by_set_check():
    sets = build_corpus(200, seed=4200).all_sets()
    sets += [tame(point(Fraction(17, 2))), tame(point(3)),
             minus_v(union(interval(8, 9), point(Fraction(19, 2))))]
    pairs = [("kikik", "kik"), ("fkik", "fik"), ("fkik", "fki"), ("k", "i"),
             ("k", "kk"), ("dk", "kd"), ("cdc", "i"), ("dd", "d"), ("f", "ff")]
    outcomes = set()
    for lhs, rhs in pairs:
        for order in (sets, sets[::-1]):
            _, skipped, cex = _check_identity_set_by_set(lhs, rhs, order)
            expected = [f"{lhs} = {rhs} fails on {cex[0]}"] if cex else []
            assert _identity_violations(lhs, rhs, order) == (expected, skipped), (lhs, rhs)
            outcomes.add((skipped > 0, cex is None))
    assert outcomes == {(False, True), (False, False), (True, True), (True, False)}

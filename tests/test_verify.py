"""Verify criteria fail, and name the offending set, when a false fact is injected."""

import pytest

from topomonoid import verify
from topomonoid.corpus import build_corpus
from topomonoid.realsets import render
from topomonoid.rules import BASE, PB, AxiomSystem, RewriteRule
from topomonoid.vitali import DEFAULT_PARAMS, apply_word, render_symbolic, sym_equal, tame

CORPUS = build_corpus(size=17, seed=1729)


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


def test_d_law_identities_are_base_rules():
    base = {(r.lhs, r.rhs) for r in BASE.rules}
    assert {(lhs, rhs) for _, lhs, rhs in verify.D_LAW_IDENTITIES} <= base


def test_5a_fails_on_a_false_d_law(monkeypatch):
    monkeypatch.setattr(verify, "D_LAW_IDENTITIES",
                        verify.D_LAW_IDENTITIES + (("x", "d", "k"),))
    check = _property_suites()["5a-d-operator-laws"]
    sets = [tame(s) for s in CORPUS.random]
    assert check.status == "fail"
    assert f"(x) d = k fails on {_first_set_where_words_differ('d', 'k', sets)}" in check.details


def test_5b_fails_on_a_false_baire_equality(monkeypatch):
    monkeypatch.setattr(verify, "BAIRE_EQUALITIES", verify.BAIRE_EQUALITIES + (("k", "i"),))
    checks = _property_suites()
    check = checks["5b-baire-equalities"]
    assert check.status == "fail"
    first = _first_set_where_words_differ("k", "i", CORPUS.all_sets())
    assert f"k != i on {first}" in check.details
    assert checks["5c-baire-failures-on-vitali"].status == "pass"


def test_5c_fails_on_an_equality_that_holds_on_v(monkeypatch):
    monkeypatch.setattr(verify, "BAIRE_EQUALITIES", verify.BAIRE_EQUALITIES + (("kk", "k"),))
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


def test_10_fails_on_a_wrong_normal_form(monkeypatch):
    # A set never equals its complement, so the first pair already fails.
    monkeypatch.setattr(verify, "normalize", lambda word, ax: "c" + word)
    check = _checks(verify.check_rewrite_semantics, CORPUS, 1729)["10-rewrite-semantics"]
    assert check.status == "fail"
    assert check.details.startswith("BASE: ")
    assert f" on {render(CORPUS.random[0])}; " in check.details


@pytest.mark.parametrize("run,args,cid", [
    (verify.check_property_suites, (CORPUS,), "5b-baire-equalities"),
    (verify.check_property_suites, (CORPUS,), "5c-baire-failures-on-vitali"),
    (verify.check_rule_validation, (CORPUS, DEFAULT_PARAMS), "6-rule-validation"),
    (verify.check_rewrite_semantics, (CORPUS, 1729), "10-rewrite-semantics"),
], ids=["5b", "5c", "6", "10"])
def test_an_undecidable_instance_is_never_a_pass(monkeypatch, run, args, cid):
    monkeypatch.setattr(verify, "check_identity", lambda lhs, rhs, sets: (0, len(sets), None))
    check = _checks(run, *args)[cid]
    assert check.status == "fail"
    assert "undecidable" in check.details


def test_5a_counts_undecidable_laws_as_skips(monkeypatch):
    sets = [tame(s) for s in CORPUS.random] + [
        CORPUS.named["V"], CORPUS.named["cV"], CORPUS.named["A22"]]
    problems, skipped = verify.d_law_violations(sets)
    assert not problems and skipped == 2
    monkeypatch.setattr(verify, "check_identity", lambda lhs, rhs, sets: (0, len(sets), None))
    assert verify.d_law_violations(sets) == ([], skipped + 5 * len(sets))

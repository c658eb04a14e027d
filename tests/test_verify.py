"""Verify criteria fail, and name the offending set, when a false fact is injected."""

import dataclasses
from fractions import Fraction

import pytest

from topomonoid import corpus as corpus_mod
from topomonoid import monoid, realsets, rewrite, verify
from topomonoid.corpus import build_corpus, parse_set_dsl, random_tame, witness
from topomonoid.realsets import UNIVERSAL, interval, point, union
from topomonoid.rules import BASE, PB, AxiomSystem, RewriteRule
from topomonoid.vitali import (DEFAULT_PARAMS, Undecidable, apply_word,
                               has_baire_property, is_meager, minus_v, plus_v,
                               render_symbolic, sym_difference, sym_equal, sym_intersect,
                               sym_subset, sym_union, tame)

CORPUS = build_corpus(size=17, seed=1729)
V = witness("V")
CV = witness("cV")
ON_U_TEXT = render_symbolic(tame(UNIVERSAL))


def _full(base=BASE):
    """The kicdf tables run_verify hands criteria 3 and 10, with BASE's
    built under `base`."""
    return {"BASE": monoid.enumerate_monoid(verify.LETTERS, base),
            "PB": monoid.enumerate_monoid(verify.LETTERS, PB)}


FULL = _full()


def _checks(run, *args):
    checks = []
    run(checks, *args)
    return {c.id: c for c in checks}


def _all_sets(corpus):
    """The named corpus sets, then the random ones, as SymbolicSets."""
    return list(corpus.named.values()) + [tame(s) for s in corpus.random]


def _property_suites():
    return _checks(verify.check_property_suites, CORPUS)


def _first_set_where_words_differ(lhs, rhs, sets):
    return next(render_symbolic(s) for s in sets
                if not sym_equal(apply_word(lhs, s), apply_word(rhs, s)))


def test_criteria_pass_on_the_small_corpus():
    checks = {**_property_suites(),
              **_checks(verify.check_rule_validation, CORPUS, DEFAULT_PARAMS),
              **_checks(verify.check_rewrite_semantics, DEFAULT_PARAMS, FULL)}
    assert {c.status for c in checks.values()} == {"pass"}, checks


def _identity_violations(lhs, rhs, sets):
    """law_violations of the one word identity lhs = rhs on each set."""
    law = verify.identity_law(lhs, rhs, f"{lhs} = {rhs} fails")
    return verify.law_violations((law,), [(s,) for s in sets], verify.ON_U)


@pytest.mark.parametrize("size", [0, -1])
def test_run_verify_rejects_a_corpus_size_below_one(size):
    with pytest.raises(ValueError, match="corpus_size must be at least 1"):
        verify.run_verify(corpus_size=size)


def test_a_passing_run_builds_only_the_random_sets_it_evaluates(monkeypatch):
    # 5a's cyclic pairs evaluate the neighbours of the V-mode sets: random
    # sets 999 and 0.  Every other random input is decided on a witness.
    seeds = []

    def counting(seed, n=4):
        seeds.append(seed)
        return random_tame(seed, n)

    monkeypatch.setattr(corpus_mod, "random_tame", counting)
    report = verify.run_verify(1000, 1729)
    assert report.ok
    assert seeds == [1729 + 999, 1729]


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
    realsets._reset_shapes()


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
    first = _first_set_where_words_differ("k", "i", _all_sets(CORPUS))
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


def test_5c_is_not_passed_by_a_refutation_on_u(monkeypatch):
    # The law is false on U but true on V: only V may refute it in 5c.
    law = verify.Law("x != y", lambda s: not s.is_tame(), ("x", "y"))
    monkeypatch.setattr(verify, "BAIRE_SET_LAWS", (law,))
    check = _property_suites()["5c-baire-failures-on-vitali"]
    assert check.status == "fail"
    assert check.details == "xV unexpectedly equals yV"


def test_6_fails_on_a_false_rule(monkeypatch):
    bad = RewriteRule("k", "i", "BASE", "false rule under test", "derived")
    monkeypatch.setattr(verify, "PB", AxiomSystem("PB+bad", PB.rules + (bad,)))
    check = _checks(verify.check_rule_validation, CORPUS, DEFAULT_PARAMS)["6-rule-validation"]
    assert check.status == "fail"
    first = _first_set_where_words_differ("k", "i", _all_sets(CORPUS))
    assert check.details == f"rule k -> i refuted on {first}"


def test_6_fails_on_a_false_rule_only_in_base(monkeypatch):
    # dcd = d fails on R: dR = R, but dcdR = cidR is empty.
    bad = RewriteRule("dcd", "d", "BASE", "false rule under test", "derived")
    monkeypatch.setattr(verify, "BASE", AxiomSystem("BASE+bad", BASE.rules + (bad,)))
    check = _checks(verify.check_rule_validation, CORPUS, DEFAULT_PARAMS)["6-rule-validation"]
    assert check.status == "fail"
    first = _first_set_where_words_differ("dcd", "d", _all_sets(CORPUS))
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
    sets = _all_sets(corpus)
    bp_sets = [s for s in sets if has_baire_property(s) is True]
    for rule in dict.fromkeys(BASE.rules + PB.rules):
        on = bp_sets if rule.tier == "PB" else sets
        assert on and _identity_violations(rule.lhs, rule.rhs, on) == ([], 0), rule


def test_6_printed_transposed_forms_are_refuted_on_the_documented_witness():
    doc = parse_set_dsl(verify.DOCUMENTED_REFUTATION)
    sets = [doc] + _all_sets(build_corpus(size=10, seed=4))
    for lhs, rhs in (("fkik", "fki"), ("fiki", "fik")):
        assert _identity_violations(lhs, rhs, sets) == (
            [f"{lhs} = {rhs} fails on (0,1) u Q(1,2)"], 0)
        images = {render_symbolic(apply_word(w, doc)) for w in (lhs, rhs)}
        assert images == {"{0} u {2}", "{0} u {1}"}


def test_6_trivial_involution_holds():
    sets = _all_sets(build_corpus(size=15, seed=6))
    assert _identity_violations("cc", "", sets) == ([], 0)


def test_6_checks_pb_rules_only_on_baire_property_sets():
    # dc = cid needs the Baire property: V refutes it, yet 6 passes on a
    # corpus that holds V.
    v = CORPUS.named["V"]
    assert v in _all_sets(CORPUS) and has_baire_property(v) is not True
    assert _identity_violations("dc", "cid", [v])[0]
    check = _checks(verify.check_rule_validation, CORPUS, DEFAULT_PARAMS)["6-rule-validation"]
    assert check.status == "pass", check.details


def _criterion_10(full=FULL):
    return _checks(verify.check_rewrite_semantics, DEFAULT_PARAMS, full)["10-rewrite-semantics"]


def test_10_fails_on_a_wrong_normal_form(monkeypatch):
    # The Cayley rows are read off normalize: one that sends d to k gives
    # the edge c*cd -> k, and dU != kU.
    real = monoid.normalize
    monkeypatch.setattr(monoid, "normalize",
                        lambda word, ax: "k" if real(word, ax) == "d" else real(word, ax))
    check = _criterion_10(_full())
    assert check.status == "fail"
    assert check.details.startswith(f"BASE: ccd = k fails on {ON_U_TEXT}; ")


def test_10_fails_on_a_wrong_cayley_entry():
    def moved(table):
        row = list(table.left_cayley["d"])
        row[1] = (row[1] + 1) % len(table.elements)
        return dataclasses.replace(table, left_cayley={**table.left_cayley, "d": tuple(row)})

    table = FULL["BASE"]
    u = table.elements[1]
    wrong = table.elements[(table.left_cayley["d"][1] + 1) % len(table.elements)]
    check = _criterion_10({ax_name: moved(t) for ax_name, t in FULL.items()})
    assert check.status == "fail"
    assert check.details.startswith(f"BASE: d{u} = {wrong} fails on {ON_U_TEXT}; ")


def test_10_fails_on_a_false_rule():
    # dcd = d fails on R: dR = R, but dcdR = cidR is empty.
    bad = RewriteRule("dcd", "d", "BASE", "false rule under test", "derived")
    check = _criterion_10(_full(AxiomSystem("BASE+bad", (bad,) + BASE.rules)))
    assert check.status == "fail"
    assert check.details.startswith(f"BASE+bad: dcd = d fails on {ON_U_TEXT}")


def test_10_fails_on_a_pb_rule_in_base_on_a_v_mode_set():
    # dc = cid holds on every tame set, so only a V-mode witness refutes it.
    pb_rule = next(r for r in PB.rules if (r.lhs, r.rhs) == ("dc", "cid"))
    check = _criterion_10(_full(AxiomSystem("BASE+dc", (pb_rule,) + BASE.rules)))
    assert check.status == "fail"
    assert check.details == f"BASE+dc: dc = cid fails on {render_symbolic(plus_v(UNIVERSAL))}"


def test_a_passing_criterion_10_calls_neither_normalize_nor_random_tame(monkeypatch):
    def forbidden(*args):
        raise AssertionError("called")

    for module, name in ((rewrite, "normalize"), (rewrite, "_normalize_cached"),
                         (monoid, "normalize"), (corpus_mod, "random_tame")):
        monkeypatch.setattr(module, name, forbidden)
    check = _criterion_10()
    assert check.status == "pass", check.details
    assert check.description.startswith(
        "apply(g*u) = apply(v) on each of the 430 Cayley edges g*u -> v of the kicdf "
        "monoids (230 BASE, 200 PB) on U, and on each BASE edge on 5 V-mode sets")


def test_3_fails_when_the_40_pb_operators_are_under_counted(monkeypatch):
    real = verify.distinguish

    def under_counting(s, words):
        count, images = real(s, words)
        return (count - 1 if len(words) == 40 else count), images

    monkeypatch.setattr(verify, "distinguish", under_counting)
    check = _checks(verify.check_distinctness, DEFAULT_PARAMS, FULL)["3-distinctness"]
    assert check.status == "fail"
    assert check.details.startswith("40 ops on ") and check.details.endswith(": 39 != 40")


def test_7_fails_when_a_walked_table_misses_an_element():
    tables = {(gens, ax_name): monoid.submonoid(FULL[ax_name], gens)
              for gens, ax_name, _ in verify.EXPECTED_COUNTS}
    table = tables["kcd", "BASE"]
    assert table.elements[-1] == "ckik"
    tables["kcd", "BASE"] = dataclasses.replace(table, elements=table.elements[:-1])
    check = _checks(verify.check_completion, tables)["7-completion"]
    assert check.status == "fail"
    assert check.details == "<kcd> BASE: ikic reduces to ckik, outside the canonical set"


def test_a_passing_run_makes_one_closure_search_per_axiom_system(monkeypatch):
    searches = []
    real = rewrite.completion_check

    def counting(ax, gens, candidate=None):
        if candidate is None:
            searches.append((ax.name, "".join(sorted(gens))))
        return real(ax, gens, candidate)

    for module in (rewrite, monoid, verify):
        monkeypatch.setattr(module, "completion_check", counting)
    assert verify.run_verify(corpus_size=17).ok
    assert searches == [("BASE", "cdfik"), ("PB", "cdfik")]


def _undecidable(*args):
    raise Undecidable("injected")


@pytest.mark.parametrize("run,args,cid", [
    (verify.check_property_suites, (CORPUS,), "5b-baire-equalities"),
    (verify.check_property_suites, (CORPUS,), "5c-baire-failures-on-vitali"),
    (verify.check_rule_validation, (CORPUS, DEFAULT_PARAMS), "6-rule-validation"),
    (verify.check_rewrite_semantics, (DEFAULT_PARAMS, FULL), "10-rewrite-semantics"),
], ids=["5b", "5c", "6", "10"])
def test_an_undecidable_instance_is_never_a_pass(monkeypatch, run, args, cid):
    monkeypatch.setattr(verify, "apply_word", _undecidable)
    check = _checks(run, *args)[cid]
    assert check.status == "fail"
    assert "undecidable" in check.details


def _d_law_violations(sets):
    """verify._d_law_violations on each set, and on each set with the next
    one, cyclically."""
    return verify._d_law_violations([(s,) for s in sets],
                                    list(zip(sets, sets[1:] + sets[:1])))


def test_5a_counts_undecidable_laws_as_skips(monkeypatch):
    sets = [tame(s) for s in CORPUS.random] + [
        CORPUS.named["V"], CORPUS.named["cV"], CORPUS.named["A22"]]
    problems, skipped = _d_law_violations(sets)
    assert not problems and skipped == 2
    # Undecidable on the witness too, so every set is evaluated and skipped,
    # and the witness, which no set failed in its place, is one more skip.
    monkeypatch.setattr(verify, "D_SET_LAWS",
                        verify.D_SET_LAWS + (verify.Law("(x) fails", _undecidable),))
    assert _d_law_violations(sets) == ([], skipped + len(sets) + 1)


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
    assert _d_law_violations(sets) == expected
    if seed == 1729:
        assert expected == ([], 2)
    bp_sets = [s for s in _all_sets(corpus) if has_baire_property(s) is True]
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


def test_an_empty_witness_leaves_every_input_to_be_evaluated():
    calls = []

    def law(s):
        calls.append(s)
        return True

    inputs = [((tame(s),) for s in CORPUS.random), (CORPUS.named["V"],)]
    laws = (verify.Law("(x) fails", law),)
    assert verify.first_failures(laws, inputs, ()) == ([None], 0)
    assert calls == [tame(s) for s in CORPUS.random] + [CORPUS.named["V"]]


def _logging_law(name, calls, holds):
    def law(s):
        calls.append((name, render_symbolic(s)))
        return holds(s)
    return verify.Law(f"({name}) fails", law)


def _undecidable_on_u(s):
    if s == verify.ON_U[0]:
        raise Undecidable("injected")
    return True


@pytest.mark.parametrize("witness,holds", [
    (verify.ON_U, lambda s: True),
    (verify.ON_U, lambda s: sym_equal(apply_word("k", s), apply_word("i", s))),
    (verify.ON_U, _undecidable_on_u),
    ((), lambda s: True),
], ids=["clean", "false-on-witness", "undecidable-on-witness", "empty-witness"])
def test_a_block_decides_as_its_inputs_do_one_by_one(witness, holds):
    # The random sets come once as one iterator and once as explicit
    # tuples.  Beside the law of each case, one law that holds everywhere
    # and one that fails on U and on a random set late in the corpus, where
    # the iterator is no longer pulled unless the law of the case is open.
    late = tame(CORPUS.random[12])
    named = [(CORPUS.named["A18"],), (V,), (CV,)]
    outcomes, pulled = [], []

    def pull():
        for s in CORPUS.random:
            pulled.append((tame(s),))
            yield pulled[-1]

    for random in ([pull()], [(tame(s),) for s in CORPUS.random]):
        calls, prepared = [], []
        laws = (_logging_law("x", calls, holds),
                _logging_law("true", calls, lambda s: True),
                _logging_law("late", calls, lambda s: s not in (verify.ON_U[0], late)))
        inputs = named[:2] + random + named[2:]
        first = verify.first_failures(laws, inputs, witness,
                                      lambda *sets: prepared.append(sets) or sets)
        outcomes.append((first, calls, prepared))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][0][2] == late
    # Each input pulled from the iterator was evaluated, in order.
    assert pulled and pulled == [s for s in prepared if s not in (witness, *named)]


def test_a_law_false_on_its_witness_fails_there_when_no_input_fails_it():
    law = verify.identity_law("k", "i", "k = i fails")
    empty = tame(realsets.EMPTY)
    assert verify.law_violations((law,), [(empty,)], verify.ON_U) == (
        [f"k = i fails on {ON_U_TEXT}"], 0)
    # An input that fails it is named first.
    assert verify.law_violations((law,), [(empty,), (tame(point(3)),)], verify.ON_U) == (
        ["k = i fails on {3}"], 0)


def test_a_law_undecidable_on_its_witness_is_a_skip_when_no_input_fails_it():
    law = verify.Law("(x) fails", _undecidable_on_u)
    empty = tame(realsets.EMPTY)
    assert verify.law_violations((law,), [(empty,), (V,)], verify.ON_U) == ([], 1)
    failing = verify.Law("(x) fails", lambda s: _undecidable_on_u(s) and s != V)
    assert verify.law_violations((failing,), [(empty,), (V,)], verify.ON_U) == (
        ["(x) fails on V"], 0)
    # Undecidable from prepare on the witness: one skip, as on any input.
    laws = (verify.Law("(x) fails", lambda s: True), verify.Law("(y) fails", lambda s: True))
    assert verify.law_violations(laws, [(empty,)], verify.ON_U,
                                 lambda s: (_undecidable_on_u(s) and s,)) == ([], 1)


@pytest.mark.parametrize("size", [20_000])
def test_a_passing_run_makes_at_most_two_random_inputs(monkeypatch, size):
    made = []

    def counting(seed, n=4):
        made.append(seed)
        return random_tame(seed, n)

    monkeypatch.setattr(corpus_mod, "random_tame", counting)
    assert verify.run_verify(size, 1729).ok
    assert len(made) <= 2


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
    sets = _all_sets(build_corpus(300, seed=4100))
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
    sets = _all_sets(build_corpus(200, seed=4200))
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

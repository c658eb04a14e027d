"""The self-contained verification suite behind `topomonoid verify`.

Every check rebuilds what it needs from seeds and fixed witnesses; no
prior state is read.  Expected values are frozen here: monoid counts and
element lists, the nine even-operator images of the A witness, the eight
Vitali rows, the Hasse edge sets, and the parity splits.  The typo
ledger is reported even when a run fails, to keep the oracle-over-print
policy visible.

Each count's upper bound is closure (completion_check's search closes the
canonical set under left multiplication and checks the right products;
criterion 7 re-runs it) plus soundness (criterion 6 decides each rule on
every tame set through the witness U and evaluates the three V-mode
witnesses); its lower bound is criterion 3.
Confluence is not needed for the counts.

Every claim decided on a witness goes through law_violations: 5a's
d-laws (its word identities among them), 5b's laws and equalities, 5c,
6's rule table, 8's corpus order and 10.  Every law is location-wise, so
it is decided on a witness that shows every location, U for a law in one
set and realsets.universal_pair() for a law in two; each law is then
exact over every tame set or tame pair, and only the plusV/minusV inputs
are evaluated one by one.  An undecidable instance is a skip in 5a, in
6's rule table and in 8's corpus order, and a failure everywhere else.
Like 5b's equalities, 6's PB-tier rules are checked on Baire-property
sets.

Criterion 8 compares two orders on the even operators: the proved one
(poset.proved_relation, on the rewrite side) and corpus_relation, the
inclusions that no named witness refutes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import corpus as corpus_mod
from .monoid import enumerate_monoid, parity
from .poset import OrderRelation, hasse, proved_relation
from .realsets import UNIVERSAL, universal_pair
from .rewrite import completion_check, normalize
from .rules import BASE, PB, TYPO_LEDGER, get_axioms
from .tables import even_figure, vitali_figure
from .vitali import (DEFAULT_PARAMS, Undecidable, apply_word, distinguish,
                     has_baire_property, is_meager, render_symbolic, sym_difference,
                     sym_equal, sym_subset, sym_union, tame)
from .words import render_word

DEFAULT_SEED = 1729
DEFAULT_CORPUS_SIZE = 1000

EXPECTED_COUNTS = (
    ("kc", "BASE", 14),
    ("kcd", "BASE", 22),
    ("kcd", "PB", 18),
    ("ki", "BASE", 7),
    ("kid", "BASE", 9),
    ("kcf", "BASE", 34),
    ("kifd", "BASE", 20),
    ("kcfd", "PB", 40),
    ("kcfd", "BASE", 46),
)

KCD_22 = frozenset((
    "", "i", "k", "ki", "ik", "iki", "kik", "d", "id",
    "c", "ci", "ck", "cki", "cik", "ciki", "ckik", "cd", "cid",
    "dc", "idc", "cdc", "cidc",
))

KCFD_BASE_MINUS_PB = frozenset(("dc", "idc", "cdc", "cidc", "fdc", "cfdc"))

EXPECTED_EVEN_FIGURE = (
    ("e", "(1,2) u (2,3) u {4} u Q(5,6) u I(6,7)"),
    ("i", "(1,2) u (2,3)"),
    ("k", "[1,3] u {4} u [5,7]"),
    ("ki", "[1,3]"),
    ("ik", "(1,3) u (5,7)"),
    ("iki", "(1,3)"),
    ("kik", "[1,3] u [5,7]"),
    ("d", "[1,3] u [6,7]"),
    ("id", "(1,3) u (6,7)"),
)

EXPECTED_VITALI_TABLE = (
    ("idcV", "(-inf,inf)"),
    ("idV", "(8,9)"),
    ("dV", "[8,9]"),
    ("dcV", "(-inf,inf)"),
    ("cdV", "(-inf,8) u (9,inf)"),
    ("cdcV", "{}"),
    ("cidcV", "{}"),
    ("kcdV", "(-inf,8] u [9,inf)"),
)

ZFC_EVENS = ("", "d", "i", "k", "id", "ik", "ki", "cdc", "iki", "kik", "cidc")
PB_EVENS = ("", "d", "i", "k", "id", "ik", "ki", "iki", "kik")

ZFC_HASSE = frozenset((
    ("i", "iki"), ("iki", "cdc"), ("i", ""), ("cdc", "id"), ("cdc", "cidc"),
    ("iki", "ki"), ("", "k"), ("ki", "cidc"), ("ik", "kik"), ("id", "ik"),
    ("id", "d"), ("d", "kik"), ("cidc", "d"), ("kik", "k"),
))

# The printed right-hand diagram is doubly mangled: one edge points at a
# node label (cdc) that no longer exists there, and one edge is printed
# twice in place of d -> kik.  With cdc = id under PB, the dangling edge
# is iki -> id, which the proved and corpus relations both force (it is
# even choice-free: i(dA) contains ik(iA) pointwise).
PB_HASSE_PRINTED = frozenset((
    ("i", "iki"), ("i", ""), ("iki", "ki"), ("", "k"), ("ik", "kik"),
    ("id", "ik"), ("id", "d"), ("d", "kik"), ("ki", "d"), ("kik", "k"),
))
PB_HASSE_REPAIRED_EDGE = ("iki", "id")
PB_HASSE = PB_HASSE_PRINTED | {PB_HASSE_REPAIRED_EDGE}

DOCUMENTED_REFUTATION = "(0,1) u Q(1,2)"


@dataclass
class Check:
    id: str
    description: str
    status: str  # pass | fail
    details: str = ""


@dataclass
class VerifyReport:
    checks: list[Check] = field(default_factory=list)
    typo_ledger: tuple = TYPO_LEDGER

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "checks": [vars(c) for c in self.checks],
            "typo_ledger": [dict(t) for t in self.typo_ledger],
        }

    def format_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[{c.status.upper():4}] {c.id}: {c.description}")
            if c.details:
                lines.append(f"       {c.details}")
        lines.append("")
        lines.append("typo ledger (printed identities refuted by the exact evaluator):")
        for t in self.typo_ledger:
            lines.append(f"  printed {t['printed']!r} -> shipped {t['corrected']!r} "
                         f"[{t['counterexample']}]")
        lines.append("")
        lines.append("RESULT: " + ("all checks passed" if self.ok else "FAILURES PRESENT"))
        return "\n".join(lines)


def _check(checks, cid, description, problems, details=""):
    status = "pass" if not problems else "fail"
    if problems:
        details = "; ".join(problems[:4]) + (f" (+{len(problems)-4} more)" if len(problems) > 4 else "")
    checks.append(Check(cid, description, status, details))


# -- criterion 1 and 7 --------------------------------------------------------


def check_cardinalities(checks):
    problems = []
    for gens, ax_name, expected in EXPECTED_COUNTS:
        table = enumerate_monoid(gens, get_axioms(ax_name))
        if len(table.elements) != expected:
            problems.append(f"<{gens}> {ax_name}: {len(table.elements)} != {expected}")
    base22 = set(enumerate_monoid("kcd", BASE).elements)
    if base22 != set(KCD_22):
        problems.append(f"k,c,d BASE element set differs: {sorted(base22 ^ set(KCD_22))}")
    diff = set(enumerate_monoid("kcfd", BASE).elements) - set(enumerate_monoid("kcfd", PB).elements)
    if diff != set(KCFD_BASE_MINUS_PB):
        problems.append(f"BASE-PB difference is {sorted(diff)}")
    _check(checks, "1-monoid-cardinalities",
           "monoid sizes 14/22/18/7/9/34/20/40/46, the 22-word list, and the "
           "BASE-PB difference {dc, idc, cdc, cidc, fdc, cfdc}", problems)


def check_completion(checks):
    problems = []
    for gens, ax_name, expected in EXPECTED_COUNTS:
        report = completion_check(get_axioms(ax_name), gens)
        if not report.ok:
            problems.append(f"<{gens}> {ax_name}: {report.failures[0]}")
        elif report.size != expected:
            problems.append(f"<{gens}> {ax_name}: closed at {report.size} != {expected}")
    _check(checks, "7-completion",
           "canonical sets closed under left and right multiplication for all "
           "nine generator/axiom pairs", problems)


# -- criteria 2, 3, 4 ---------------------------------------------------------


def check_even_figure(checks, params):
    got = even_figure(params)
    problems = [f"{w}A = {img} (expected {exp})"
                for (w, img), (we, exp) in zip(got, EXPECTED_EVEN_FIGURE) if img != exp]
    _check(checks, "2-even-figure",
           "the nine even-operator images of the A witness match the reference rows",
           problems)


def check_distinctness(checks, params):
    problems = []
    a18 = corpus_mod.witness("A18", params)
    a22 = corpus_mod.witness("A22", params)
    for s, gens, ax, expected in (
            (a18, "kcd", PB, 18), (a22, "kcd", BASE, 22), (a22, "kcfd", BASE, 46)):
        words_list = enumerate_monoid(gens, ax).elements
        count, _ = distinguish(s, words_list)
        if count != expected:
            problems.append(f"{len(words_list)} ops on {render_symbolic(s)[:24]}...: "
                            f"{count} != {expected}")
    _check(checks, "3-distinctness",
           "distinguish(A, 18 PB ops) = 18, distinguish(A u V, 22) = 22, "
           "distinguish(A u V, 46) = 46", problems)


def check_vitali_table(checks, params):
    problems = []
    rows = vitali_figure(params)
    for (label, value, printed), (exp_label, exp_value) in zip(rows, EXPECTED_VITALI_TABLE):
        if label != exp_label or value != exp_value:
            problems.append(f"{label} = {value} (expected {exp_label} = {exp_value})")
    discrepant = {label for label, _, printed in rows if printed is not None}
    if discrepant != {"cdV", "kcdV"}:
        problems.append(f"discrepant rows {sorted(discrepant)} != ['cdV', 'kcdV']")
    ledger_printed = {t["printed"] for t in TYPO_LEDGER}
    expected_ledger = {"cdV = R - [8,10]", "kcdV = R - (8,10)",
                       "fkik = fki", "fiki = fik", "ckik = kikc"}
    if ledger_printed != expected_ledger:
        problems.append(f"typo ledger rows {sorted(ledger_printed)}")
    _check(checks, "4-vitali-table",
           "the eight V rows match the derived values; exactly cdV and kcdV "
           "disagree with print and the typo ledger holds those plus "
           "fkik/fiki/ckik", problems)


# -- criterion 5: property suites ---------------------------------------------

class Law(NamedTuple):
    """One row of a law table.

    holds(S), or holds(S, T, S u T) for a pair law, says whether the law
    holds, or raises Undecidable.  A failure reads "<text> on <set>".
    Every law is location-wise: on a tame input it holds exactly when, at
    every location, a predicate of the (joint) trace or triple there
    holds: an inclusion, an equality or a meagerness test between images
    of local expressions (see the realsets docstring).  words is the
    (lhs, rhs) of a word identity.
    """

    text: str
    holds: Callable
    words: tuple[str, str] | None = None


def identity_law(lhs: str, rhs: str, text: str) -> Law:
    """The word identity lhs = rhs as a law: equal images of each set."""
    return Law(text, lambda s: sym_equal(apply_word(lhs, s), apply_word(rhs, s)),
               (lhs, rhs))


# The witness of a law in one set.
ON_U = (tame(UNIVERSAL),)


def _differs_from_d_by_a_meager_set(s) -> bool:
    ds = apply_word("d", s)
    return not s.is_tame() or is_meager(sym_union(sym_difference(s, ds),
                                                  sym_difference(ds, s)))


# 5a's laws in one set.  Each identity is a BASE rule word for word.
D_SET_LAWS = (
    identity_law("kd", "d", "(b) kd = d fails"),
    identity_law("di", "ki", "(c) di = ki fails"),
    identity_law("dd", "d", "(g) dd = d fails"),
    identity_law("dk", "kik", "(h) dk = kik fails"),
    identity_law("kid", "d", "(i) kid = d fails"),
    Law("(b) dS not in kS",
        lambda s: sym_subset(apply_word("d", s), apply_word("k", s))),
    Law("(f) meagerness mismatch", _differs_from_d_by_a_meager_set),
    Law("(e) S-dS not meager",
        lambda s: is_meager(sym_difference(s, apply_word("d", s)))),
)
D_PAIR_LAWS = (
    Law("(a) monotonicity fails",
        lambda s, t, u: sym_subset(apply_word("d", s), apply_word("d", u))),
    Law("(d) additivity fails",
        lambda s, t, u: sym_equal(apply_word("d", u),
                                  sym_union(apply_word("d", s), apply_word("d", t)))),
)
# 5b's laws of the Baire-property sets; 5c refutes each equality on V.
BAIRE_SET_LAWS = (
    Law("(b) dS-S not meager",
        lambda s: is_meager(sym_difference(apply_word("d", s), s))),
) + tuple(identity_law(lhs, rhs, f"{lhs} != {rhs}") for lhs, rhs in (
    ("idc", "cd"), ("id", "cdc"), ("d", "cidc"), ("dc", "kcd")))


def _with_union(s, t):
    return s, t, sym_union(s, t)


def _holds_cleanly(law, args) -> bool:
    try:
        return law(*args)
    except Undecidable:
        return False


def law_violations(laws, inputs, witness, prepare=lambda *sets: sets):
    """(problems, skipped) of the laws over the inputs, each a tuple of sets.

    prepare(*sets) gives the laws their arguments.  Each Undecidable, from
    prepare (which then skips the input) or from a law, is one skip, never
    a pass.  A law stops at its first failing input, which its problem
    names by the input's first set; problems follow the order of the laws.

    Each law, being location-wise (see Law), runs first on the witness, a
    tuple of tame sets that shows every location: every gap trace and every
    (trace, membership, trace) triple of the locality lemma in realsets, or
    every joint one for a pair.  This is exact in both directions.  If the law
    holds there cleanly (True, no Undecidable), it holds at every location
    of every tame input, so on each such input it holds, which is the very
    answer evaluation would give: for tame sets is_meager is exact, and
    sym_subset and sym_equal answer True on every true inclusion or
    equality.  Such inputs count as checked without being evaluated.  If
    the law fails on the witness, or is undecidable there, the witness
    itself is a tame input on which it does not hold cleanly, so no tame
    input is passed unevaluated: each is evaluated, because whether an
    input fails the law or is undecidable (images that differ by one
    rational point inside W1) depends on the input.  Inputs with a
    plusV/minusV set are always evaluated: their images depend on where
    their breakpoints lie relative to W0 and W1, which no tame witness
    covers.
    """
    witness_args = prepare(*witness)
    on_witness = [_holds_cleanly(law.holds, witness_args) for law in laws]
    first = [None] * len(laws)  # per law, the first set of its first failing input
    skipped = 0
    for sets in inputs:
        tame_input = all(s.is_tame() for s in sets)
        pending = [j for j, known in enumerate(on_witness)
                   if first[j] is None and not (tame_input and known)]
        if not pending:
            continue
        try:
            args = prepare(*sets)
        except Undecidable:
            skipped += 1
            continue
        for j in pending:
            try:
                if not laws[j].holds(*args):
                    first[j] = sets[0]
            except Undecidable:
                skipped += 1
    problems = [f"{law.text} on {render_symbolic(s)}"
                for law, s in zip(laws, first) if s is not None]
    return problems, skipped


def d_law_violations(sets) -> tuple[list[str], int]:
    """Check of the d-operator laws, labelled:

    (a) S in T implies dS in dT        (b) dS closed and dS in kS
    (c) d = k on open sets             (d) d(S u T) = dS u dT
    (e) S - dS is meager               (f) dS empty iff S meager
    (g) ddS = dS                       (h) dkS = kikS
    (i) kidS = dS

    (a) is checked as dS in d(S u T), and (a) and (d) on each set with the
    next one, cyclically.  (f) is checked in the location-wise form "S and
    dS differ by a meager set M", which with (i) gives (f) on a tame S: if
    S is meager, so is dS, inside S u M; then idS is open and meager, so
    empty by the Baire category theorem, and dS = kidS = k0 = 0.  If dS
    is empty, S lies inside M.  All laws go through law_violations: those
    in one set on U, (a) and (d) on the universal pair.
    """
    problems, skipped = law_violations(D_SET_LAWS, [(s,) for s in sets], ON_U)
    pair_problems, pair_skipped = law_violations(
        D_PAIR_LAWS, list(zip(sets, sets[1:] + sets[:1])),
        tuple(map(tame, universal_pair())), _with_union)
    return problems + pair_problems, skipped + pair_skipped


def check_property_suites(checks, corpus):
    sets = [tame(s) for s in corpus.random] + [
        corpus.named["V"], corpus.named["cV"], corpus.named["A22"]]
    problems, skipped = d_law_violations(sets)
    _check(checks, "5a-d-operator-laws",
           f"d-operator laws (a)-(i) hold on {len(sets)} corpus sets "
           f"({skipped} undecidable instances skipped)", problems)

    bp_sets = [s for s in corpus.all_sets() if has_baire_property(s) is True]
    problems, skipped = law_violations(BAIRE_SET_LAWS, [(s,) for s in bp_sets], ON_U)
    if skipped:
        problems.append(f"{skipped} instances undecidable on property-true sets")
    _check(checks, "5b-baire-equalities",
           f"Baire-property equalities hold on all {len(bp_sets)} property-true corpus sets",
           problems)

    problems = []
    v = corpus.named["V"]
    for law in BAIRE_SET_LAWS:
        if law.words is None:
            continue
        lhs, rhs = law.words
        refuted, skipped = law_violations((law,), [(v,)], ON_U)
        if skipped:
            problems.append(f"{lhs}V = {rhs}V is undecidable")
        elif not refuted:
            problems.append(f"{lhs}V unexpectedly equals {rhs}V")
    _check(checks, "5c-baire-failures-on-vitali",
           "each of the four Baire-property equalities fails on the Vitali witness "
           "(e.g. idcV = R while cdV = R - [8,9])", problems)


# -- criterion 6 ---------------------------------------------------------------

# The printed transposed forms, with their images on the documented witness.
PRINTED_REFUTATIONS = (("fkik", "fki", "{0} u {2}", "{0} u {1}"),
                       ("fiki", "fik", "{0} u {1}", "{0} u {2}"))


def check_rule_validation(checks, corpus, params):
    corpus_sets = corpus.all_sets()
    bp_sets = [s for s in corpus_sets if has_baire_property(s) is True]
    rules = tuple(dict.fromkeys(BASE.rules + PB.rules))  # each rule of the two tables once
    problems = []
    for pb_tier, sets in ((False, corpus_sets), (True, bp_sets)):
        laws = [identity_law(r.lhs, r.rhs, f"rule {r.lhs} -> {r.rhs} refuted")
                for r in rules if (r.tier == "PB") == pb_tier]
        problems += law_violations(laws, [(s,) for s in sets], ON_U)[0]

    # The printed transposed forms must fail, with the documented images.
    doc = corpus_mod.parse_set_dsl(DOCUMENTED_REFUTATION, params)
    for lhs, rhs, lhs_img, rhs_img in PRINTED_REFUTATIONS:
        try:
            left, right = apply_word(lhs, doc), apply_word(rhs, doc)
            refuted = not sym_equal(left, right)
        except Undecidable:
            problems.append(f"printed {lhs}->{rhs} was not refuted (undecidable)")
            continue
        images = (render_symbolic(left), render_symbolic(right))
        if not refuted:
            problems.append(f"printed {lhs}->{rhs} was not refuted")
        elif images != (lhs_img, rhs_img):
            problems.append(f"printed {lhs}->{rhs} refuted by {images[0]} / {images[1]}, "
                            f"not {lhs_img} / {rhs_img}")
    _check(checks, "6-rule-validation",
           f"all {len(rules)} rules pass on the full corpus; the printed "
           f"fkik/fiki forms fail on {DOCUMENTED_REFUTATION}",
           problems)


# -- criterion 8 ---------------------------------------------------------------


def corpus_relation(elements, witness_sets) -> OrderRelation:
    """a <= b iff no witness S refutes aS inside bS.

    Each pair (a, b) is one inclusion law.  prepare evaluates a witness's
    images of all the elements once, so a witness with an undecidable
    image is skipped, like an undecidable inclusion.
    """
    elements = tuple(elements)
    texts = [[f"{render_word(a)} <= {render_word(b)}" for b in elements] for a in elements]
    laws = [Law(texts[i][j], lambda images, i=i, j=j: sym_subset(images[i], images[j]))
            for i in range(len(elements)) for j in range(len(elements))]
    problems, _ = law_violations(laws, [(s,) for s in witness_sets], ON_U,
                                 lambda s: (tuple(apply_word(w, s) for w in elements),))
    refuted = {p.split(" on ")[0] for p in problems}
    return OrderRelation(elements, tuple(tuple(t not in refuted for t in row) for row in texts))


def check_poset(checks, params):
    problems = []
    witness_sets = [corpus_mod.witness(n, params) for n in corpus_mod.WITNESS_NAMES]
    for name, ax, evens, expected_edges in (
            ("ZFC", BASE, ZFC_EVENS, ZFC_HASSE), ("PB", PB, PB_EVENS, PB_HASSE)):
        proved = proved_relation(evens, ax)
        empirical = corpus_relation(evens, witness_sets)
        if proved.leq != empirical.leq:
            diffs = [
                f"{render_word(a)}<={render_word(b)}"
                for i, a in enumerate(evens) for j, b in enumerate(evens)
                if proved.leq[i][j] != empirical.leq[i][j]]
            problems.append(f"{name}: proved != corpus at {diffs[:6]}")
            continue
        edges = frozenset(hasse(proved))
        if edges != expected_edges:
            problems.append(
                f"{name}: hasse edges differ: extra {sorted(edges - expected_edges)}, "
                f"missing {sorted(expected_edges - edges)}")
    _check(checks, "8-poset",
           "proved and corpus orders coincide on the 11 ZFC and 9 PB evens; "
           "Hasse edges match the reference diagrams (14 edges; 10 printed + the "
           "repaired dangling edge iki->id, forced because cdc = id under PB)",
           problems)


# -- criteria 9 and 10 -----------------------------------------------------------


def check_parity(checks):
    problems = []
    for ax, total, per_class in ((BASE, 22, 11), (PB, 18, 9)):
        elements = enumerate_monoid("kcd", ax).elements
        evens = sum(1 for w in elements if parity(w) == "even")
        odds = len(elements) - evens
        if (len(elements), evens, odds) != (total, per_class, per_class):
            problems.append(f"{ax.name}: {evens} even / {odds} odd of {len(elements)}")
    _check(checks, "9-parity",
           "the 22-element BASE monoid splits 11 even / 11 odd; the PB monoid 9 / 9",
           problems)


def check_rewrite_semantics(checks, corpus, seed):
    import random as _random

    problems = []
    for ax in (BASE, PB):
        rng = _random.Random(f"criterion-10:{seed}:{ax.name}")
        for t in range(500):
            word = "".join(rng.choice("kicdf") for _ in range(rng.randint(0, 8)))
            s = tame(corpus.random[t % len(corpus.random)])
            text = f"{ax.name}: {render_word(word)}"
            refuted, skipped = law_violations(
                (identity_law(word, normalize(word, ax), text),), [(s,)], ON_U)
            problems += refuted
            if skipped:
                problems.append(f"{text} undecidable on {render_symbolic(s)}")
    _check(checks, "10-rewrite-semantics",
           "apply(normalize(w)) = apply(w) for 500 random word/set pairs per "
           "axiom system (words up to length 8)", problems)


# -- driver ----------------------------------------------------------------------


def run_verify(corpus_size: int = DEFAULT_CORPUS_SIZE, seed: int = DEFAULT_SEED,
               params=DEFAULT_PARAMS) -> VerifyReport:
    if corpus_size < 1:
        raise ValueError(f"corpus_size must be at least 1, not {corpus_size}")
    report = VerifyReport()
    checks = report.checks
    corpus = corpus_mod.build_corpus(corpus_size, seed, params)
    check_cardinalities(checks)
    check_even_figure(checks, params)
    check_distinctness(checks, params)
    check_vitali_table(checks, params)
    check_property_suites(checks, corpus)
    check_rule_validation(checks, corpus, params)
    check_completion(checks)
    check_poset(checks, params)
    check_parity(checks)
    check_rewrite_semantics(checks, corpus, seed)
    return report


def write_json(report: VerifyReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=False)
        fh.write("\n")

"""The self-contained verification suite behind `topomonoid verify`.

Every check rebuilds what it needs from seeds and fixed witnesses; no
prior state is read.  Expected values are frozen here: monoid counts and
element lists, the nine even-operator images of the A witness, the eight
Vitali rows, the Hasse edge sets, and the parity splits.  The typo
ledger is reported even when a run fails, to keep the oracle-over-print
policy visible.

run_verify runs one closure search per axiom system: enumerate_monoid
builds the kicdf table under BASE and under PB, which criteria 3 and 10
read, and the nine EXPECTED_COUNTS monoids of criteria 1, 7, 8 and 9 are
walked on their rows (monoid.submonoid).

Each count's upper bound is closure (that search; criterion 7 checks each
walked set as completion_check's candidate) plus soundness (criterion 6
decides each rule on every tame set through the witness U and evaluates
the three V-mode witnesses).  Its lower bound is criterion 3: the tame
A18 separates the 40 PB operators (every set has the Baire property under
PB) and A22 the 46 BASE ones, and each of the nine monoids lies inside its
system's table, so its operators are pairwise distinct too.  Confluence
is not needed for the counts, only for criterion 10.  Criterion 3 reads
the count of vitali.distinguish's (count, images) and renders no image.
distinguish compares two images only when their parts outside kW1 agree,
which is exact both ways (its docstring has the argument).

Criterion 10 checks each edge g*u -> v of the Cayley graph of the kicdf
monoid under BASE and PB (enumerate_monoid's left_cayley) as the word
identity g*u = v, that is g(uS) = vS from the images of the canonical
words on S, each evaluated once.  It decides each edge on U, so on every
tame set, and the BASE edges also on five V-mode witnesses: plus_v(U),
minus_v(cU), V, cV and A22 (minus_v(U) collapses to tame(U), as U misses
W1); like 5b's equalities, the PB edges only on Baire-property sets.  By
induction on word length, apply(w) = apply(normalize(w)) for every word
on those sets.  The step needs normalize(g*normalize(w)) = normalize(g*w):
unique normal forms, that is the confluence tests/test_rewrite.py pins.

Every claim decided on a witness goes through law_violations: 5a's
d-laws (its word identities among them), 5b's laws and equalities, 5c,
6's rule table, 8's corpus order and 10.  Every law is location-wise, so
it is decided on a witness that shows every location, U for a law in one
set and realsets.universal_pair() for a law in two; each law is then
exact over every tame set or tame pair, and only the plusV/minusV inputs
are evaluated one by one.  5c and 8's corpus order are the exceptions:
they pass the empty witness, which shows no location, and evaluate every
input.  5c's one input is V, which must refute each equality itself.
8's inputs are the six named witnesses, three of them small tame sets
(corpus_relation has the argument that the order is unchanged).  An
undecidable instance is a skip in 5a, in 6's rule table and in 8's
corpus order, and a failure everywhere else.
Like 5b's equalities, 6's PB-tier rules are checked on Baire-property
sets.

The random corpus sets are built on first use (corpus.RandomSets).  The
random part of each law table's inputs is a plain iterator, made at its
call site: 5a's random sets and its 999 random-random cyclic pairs, and
5b's and 6's random sets after the named ones.  first_failures pulls an
iterator one input at a time, and only while some law is still open on
tame inputs, so an input is made only when it will be evaluated.  A
passing run pulls none, and builds only the two random sets that 5a
pairs with the V-mode sets, whatever the corpus size: the last one and
set 0 (999 and 0 at the default size).  The reports "hold on 1003 corpus
sets" and "all 57 rules pass on the full corpus" count len(corpus.random)
and the named inputs, and are true through the locality lemma: a law
that holds cleanly at every location of its witness holds on every tame
set, built or not.  A law that no input fails but its witness does fails
on the witness's first set (first_failures).

Criterion 8 compares two orders on the even operators: the proved one
(poset.proved_relation, on the rewrite side, closed over the Cayley rows
of the walked k,c,d monoid) and corpus_relation, the inclusions that no
named witness refutes, each witness's images evaluated once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Callable, NamedTuple

from . import corpus as corpus_mod
from .monoid import enumerate_monoid, parity, submonoid
from .poset import OrderRelation, hasse, proved_relation
from .realsets import UNIVERSAL, complement, universal_pair
from .rewrite import completion_check
from .rules import BASE, PB, TYPO_LEDGER, get_axioms
from .tables import even_figure, vitali_figure
from .vitali import (DEFAULT_PARAMS, Undecidable, apply_word, distinguish,
                     has_baire_property, is_meager, minus_v, plus_v, render_symbolic,
                     sym_difference, sym_equal, sym_subset, sym_union, tame)
from .words import LETTERS, render_word

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


def check_cardinalities(checks, tables):
    problems = []
    for gens, ax_name, expected in EXPECTED_COUNTS:
        count = len(tables[gens, ax_name].elements)
        if count != expected:
            problems.append(f"<{gens}> {ax_name}: {count} != {expected}")
    base22 = set(tables["kcd", "BASE"].elements)
    if base22 != set(KCD_22):
        problems.append(f"k,c,d BASE element set differs: {sorted(base22 ^ set(KCD_22))}")
    diff = set(tables["kcfd", "BASE"].elements) - set(tables["kcfd", "PB"].elements)
    if diff != set(KCFD_BASE_MINUS_PB):
        problems.append(f"BASE-PB difference is {sorted(diff)}")
    _check(checks, "1-monoid-cardinalities",
           "monoid sizes 14/22/18/7/9/34/20/40/46, the 22-word list, and the "
           "BASE-PB difference {dc, idc, cdc, cidc, fdc, cfdc}", problems)


def check_completion(checks, tables):
    problems = []
    for gens, ax_name, expected in EXPECTED_COUNTS:
        report = completion_check(get_axioms(ax_name), gens, tables[gens, ax_name].elements)
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


def check_distinctness(checks, params, full):
    problems = []
    for name, ax_name, expected in (("A18", "PB", 40), ("A22", "BASE", 46)):
        s = corpus_mod.witness(name, params)
        words_list = full[ax_name].elements
        count, _ = distinguish(s, words_list)
        if count != expected:
            problems.append(f"{len(words_list)} ops on {render_symbolic(s)[:24]}...: "
                            f"{count} != {expected}")
    _check(checks, "3-distinctness",
           "distinguish(A, 40 PB ops) = 40 and distinguish(A u V, 46 BASE ops) = 46; "
           "the nine monoids are walks inside these two tables", problems)


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


def _named_inputs(corpus):
    """(every named corpus set, the Baire-property ones) as one-set inputs.
    The random sets after them are tame, so each has the Baire property."""
    named = [(s,) for s in corpus.named.values()]
    return named, [(s,) for (s,) in named if has_baire_property(s) is True]


def _outcome(law, args) -> bool | None:
    """law(*args), or None if it is undecidable."""
    try:
        return bool(law(*args))
    except Undecidable:
        return None


def law_violations(laws, inputs, witness, prepare=lambda *sets: sets):
    """(problems, skipped) of the laws over the inputs, each a tuple of sets
    or an iterator of tame ones.

    A law stops at its first failing input, which its problem names by the
    input's first set; problems follow the order of the laws.  See
    first_failures for how the inputs are decided.
    """
    first, skipped = first_failures(laws, inputs, witness, prepare)
    problems = [f"{law.text} on {render_symbolic(s)}"
                for law, s in zip(laws, first) if s is not None]
    return problems, skipped


def first_failures(laws, inputs, witness, prepare=lambda *sets: sets):
    """(first, skipped): per law, the first set of its first failing input
    (None if it fails on none), and the number of skips.

    An input is a tuple of sets.  Any other item of inputs is an iterator
    of inputs whose sets are all tame, pulled one input at a time and only
    while some law is still open on tame inputs, so an input is made only
    when it will be evaluated.
    prepare(*sets) gives the laws their arguments.  Each Undecidable, from
    prepare (which then skips the input) or from a law, is one skip, never
    a pass; one from prepare on the witness leaves every law undecided
    there.  An empty witness shows no location: every law starts
    undecided, and every input is evaluated.

    Each law, being location-wise (see Law), runs first on the witness, a
    tuple of tame sets that shows every location: every gap trace and every
    (trace, membership, trace) triple of the locality lemma in realsets, or
    every joint one for a pair.  This is exact in both directions.  If the law
    holds there cleanly (True, no Undecidable), it holds at every location
    of every tame input, so on each such input it holds, which is the very
    answer evaluation would give: for tame sets is_meager is exact, and
    sym_subset and sym_equal answer True on every true inclusion or
    equality.  Such inputs count as checked without being evaluated.  So an
    iterator is left unpulled once every law holds cleanly on the witness
    or has failed; until then each input it gives is evaluated with only
    the laws still open on a tame input.  If the law fails on the
    witness, or is undecidable there, the witness itself is a tame input on
    which it does not hold cleanly, so no tame input is passed unevaluated:
    each is evaluated, because whether an input fails the law or is
    undecidable (images that differ by one rational point inside W1)
    depends on the input.  If no input fails it, the witness does, as a
    last input: a law false there fails on the witness's first set, and
    one undecidable there counts one skip (one in all when prepare is, as
    on any input).  So a law false on some tame set never passes,
    whichever inputs it is given, an iterator already used up included.
    Inputs with a plusV/minusV set are always evaluated: their images
    depend on where their breakpoints lie relative to W0 and W1, which no
    tame witness covers.
    """
    on_witness = []  # per law: True, False, or None if undecidable
    witness_args = None
    if witness:
        try:
            witness_args = prepare(*witness)
        except Undecidable:
            on_witness = [None] * len(laws)
        else:
            on_witness = [_outcome(law.holds, witness_args) for law in laws]
    clean = {j for j, held in enumerate(on_witness) if held is True}
    first = [None] * len(laws)  # per law, the first set of its first failing input
    skipped = 0

    def pending(tame_input):
        return [j for j in range(len(laws))
                if first[j] is None and not (tame_input and j in clean)]

    def evaluate(sets, js):
        nonlocal skipped
        try:
            args = prepare(*sets)
        except Undecidable:
            skipped += 1
            return
        for j in js:
            try:
                if not laws[j].holds(*args):
                    first[j] = sets[0]
            except Undecidable:
                skipped += 1

    for item in inputs:
        if isinstance(item, tuple):
            js = pending(all(s.is_tame() for s in item))
            if js:
                evaluate(item, js)
        else:
            while (js := pending(True)) and (sets := next(item, None)) is not None:
                evaluate(sets, js)
    # The witness, as a last input, for the laws that no input failed.
    unfailed = [j for j, held in enumerate(on_witness) if first[j] is None and held is not True]
    if witness_args is None:
        skipped += bool(unfailed)  # prepare's one skip, as on any input
    else:
        for j in unfailed:
            if on_witness[j] is None:
                skipped += 1
            else:
                first[j] = witness[0]
    return first, skipped


def _d_law_violations(singles, pairs) -> tuple[list[str], int]:
    """Check of the d-operator laws, labelled:

    (a) S in T implies dS in dT        (b) dS closed and dS in kS
    (c) d = k on open sets             (d) d(S u T) = dS u dT
    (e) S - dS is meager               (f) dS empty iff S meager
    (g) ddS = dS                       (h) dkS = kikS
    (i) kidS = dS

    (a) is checked as dS in d(S u T), and (a) and (d) on the pairs.  (f) is
    checked in the location-wise form "S and dS differ by a meager set M",
    which with (i) gives (f) on a tame S: if S is meager, so is dS, inside
    S u M; then idS is open and meager, so empty by the Baire category
    theorem, and dS = kidS = k0 = 0.  If dS is empty, S lies inside M.
    All laws go through law_violations: those in one set on U over the
    singles, (a) and (d) on the universal pair over the pairs.
    """
    problems, skipped = law_violations(D_SET_LAWS, singles, ON_U)
    pair_problems, pair_skipped = law_violations(
        D_PAIR_LAWS, pairs, tuple(map(tame, universal_pair())), _with_union)
    return problems + pair_problems, skipped + pair_skipped


def check_property_suites(checks, corpus):
    # The random sets, then V, cV and A22; the pairs are each set with the
    # next, cyclically: the random neighbours, then the pairs that hold a
    # V-mode set, which are always evaluated.
    random = corpus.random
    tail = [corpus.named["V"], corpus.named["cV"], corpus.named["A22"]]
    singles = [((tame(r),) for r in random)] + [(s,) for s in tail]
    ends = [tame(random[-1]), *tail, tame(random[0])]
    pairs = [((tame(r), tame(s)) for r, s in pairwise(random)), *zip(ends, ends[1:])]
    problems, skipped = _d_law_violations(singles, pairs)
    _check(checks, "5a-d-operator-laws",
           f"d-operator laws (a)-(i) hold on {len(random) + len(tail)} corpus sets "
           f"({skipped} undecidable instances skipped)", problems)

    _, bp_named = _named_inputs(corpus)
    problems, skipped = law_violations(
        BAIRE_SET_LAWS, bp_named + [((tame(r),) for r in random)], ON_U)
    if skipped:
        problems.append(f"{skipped} instances undecidable on property-true sets")
    _check(checks, "5b-baire-equalities",
           f"Baire-property equalities hold on all {len(bp_named) + len(random)} "
           f"property-true corpus sets", problems)

    # The empty witness: each equality is refuted by V itself, not by U.
    problems = []
    v = corpus.named["V"]
    for law in BAIRE_SET_LAWS:
        if law.words is None:
            continue
        lhs, rhs = law.words
        refuted, skipped = law_violations((law,), [(v,)], ())
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
    rules = tuple(dict.fromkeys(BASE.rules + PB.rules))  # each rule of the two tables once
    problems = []
    for pb_tier, named in zip((False, True), _named_inputs(corpus)):
        laws = [identity_law(r.lhs, r.rhs, f"rule {r.lhs} -> {r.rhs} refuted")
                for r in rules if (r.tier == "PB") == pb_tier]
        random = ((tame(s),) for s in corpus.random)
        problems += law_violations(laws, named + [random], ON_U)[0]

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

    The laws get the empty witness, not U, so every witness set is
    evaluated.  The relation is the one U would give.  A law that holds
    cleanly on U holds on every tame set, and on a tame witness sym_subset
    answers that true inclusion True (through realsets.is_subset), just as
    passing it unevaluated would.  A law that does not hold cleanly on U
    had every input evaluated anyway.  The plusV/minusV witnesses were
    always evaluated.  So each law's first failure, and each skip, is the
    same; only U's 33-gap images are no longer built.
    """
    elements = tuple(elements)
    n = len(elements)
    laws = [Law(f"{render_word(a)} <= {render_word(b)}",
                lambda images, i=i, j=j: sym_subset(images[i], images[j]))
            for i, a in enumerate(elements) for j, b in enumerate(elements)]
    first, _ = first_failures(laws, [(s,) for s in witness_sets], (),
                              lambda s: (tuple(apply_word(w, s) for w in elements),))
    holds = [s is None for s in first]
    return OrderRelation(elements, tuple(tuple(holds[i:i + n]) for i in range(0, n * n, n)))


def check_poset(checks, params, tables):
    problems = []
    witness_sets = [corpus_mod.witness(n, params) for n in corpus_mod.WITNESS_NAMES]
    for name, ax_name, evens, expected_edges in (
            ("ZFC", "BASE", ZFC_EVENS, ZFC_HASSE), ("PB", "PB", PB_EVENS, PB_HASSE)):
        proved = proved_relation(evens, tables["kcd", ax_name])
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


def check_parity(checks, tables):
    problems = []
    for ax_name, total, per_class in (("BASE", 22, 11), ("PB", 18, 9)):
        elements = tables["kcd", ax_name].elements
        evens = sum(1 for w in elements if parity(w) == "even")
        odds = len(elements) - evens
        if (len(elements), evens, odds) != (total, per_class, per_class):
            problems.append(f"{ax_name}: {evens} even / {odds} odd of {len(elements)}")
    _check(checks, "9-parity",
           "the 22-element BASE monoid splits 11 even / 11 odd; the PB monoid 9 / 9",
           problems)


def check_rewrite_semantics(checks, params, full):
    v_mode = [plus_v(UNIVERSAL, params), minus_v(complement(UNIVERSAL), params),
              *(corpus_mod.witness(name, params) for name in ("V", "cV", "A22"))]
    problems, edges = [], []
    for ax_name, inputs in (("BASE", [ON_U] + [(s,) for s in v_mode]), ("PB", [ON_U])):
        table = full[ax_name]
        els = table.elements
        laws = [Law(f"{table.axioms}: {render_word(g + u)} = {render_word(els[j])} fails",
                    lambda images, g=g, i=i, j=j: sym_equal(apply_word(g, images[i]), images[j]))
                for g, row in table.left_cayley.items() for i, (u, j) in enumerate(zip(els, row))]
        refuted, skipped = law_violations(laws, inputs, ON_U,
                                          lambda s: (tuple(apply_word(u, s) for u in els),))
        problems += refuted
        if skipped:
            problems.append(f"{table.axioms}: {skipped} instances undecidable")
        edges.append(len(laws))
    _check(checks, "10-rewrite-semantics",
           f"apply(g*u) = apply(v) on each of the {sum(edges)} Cayley edges g*u -> v of "
           f"the kicdf monoids ({edges[0]} BASE, {edges[1]} PB) on U, and on each BASE "
           f"edge on {len(v_mode)} V-mode sets", problems)


# -- driver ----------------------------------------------------------------------


def run_verify(corpus_size: int = DEFAULT_CORPUS_SIZE, seed: int = DEFAULT_SEED,
               params=DEFAULT_PARAMS) -> VerifyReport:
    if corpus_size < 1:
        raise ValueError(f"corpus_size must be at least 1, not {corpus_size}")
    report = VerifyReport()
    checks = report.checks
    corpus = corpus_mod.build_corpus(corpus_size, seed, params)
    # The one closure search per axiom system, and the nine monoids walked in it.
    full = {ax_name: enumerate_monoid(LETTERS, get_axioms(ax_name))
            for ax_name in ("BASE", "PB")}
    tables = {(gens, ax_name): submonoid(full[ax_name], gens)
              for gens, ax_name, _ in EXPECTED_COUNTS}
    check_cardinalities(checks, tables)
    check_even_figure(checks, params)
    check_distinctness(checks, params, full)
    check_vitali_table(checks, params)
    check_property_suites(checks, corpus)
    check_rule_validation(checks, corpus, params)
    check_completion(checks, tables)
    check_poset(checks, params, tables)
    check_parity(checks, tables)
    check_rewrite_semantics(checks, params, full)
    return report


def write_json(report: VerifyReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=False)
        fh.write("\n")

"""Normalization of operator words, rule validation, and closure checking.

An axiom system is a finite string-rewriting system: every rule rewrites
its left-hand side wherever it occurs (rules are two-sided operator
identities).  Reduction strategy: leftmost position first; at a
position, rules in table order.

Finding a redex is multi-pattern string matching.  Each system compiles
once to one regular expression, the alternation of its escaped left-hand
sides in table order.  `search` scans positions left to right and, at
each, tries the alternatives in order, so the first match is exactly the
redex the strategy picks: the leftmost position, and there the first
rule in table order that fits.  After a rewrite at `start`, the next
search begins at `start - (longest lhs - 1)`: the prefix before `start`
is unchanged and held no redex, so a new redex must overlap the
rewritten text.

The step budget is a hard tripwire, not a tuning knob: the longest
reduction of any word over kicdf of length <= 7 takes 19 steps under
either system, so exhausting the budget means a missing derived rule and
raises instead of silently accepting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .rules import BASE, AxiomSystem
from .vitali import Undecidable, apply_word, has_baire_property, render_symbolic, sym_equal
from .words import check_word, render_word

STEP_BUDGET = 10_000


class ReductionBudgetError(RuntimeError):
    def __init__(self, word: str, ax_name: str):
        super().__init__(
            f"step budget exhausted while reducing {render_word(word)!r} under "
            f"{ax_name}: a derived rule is missing (run completion_check)")
        self.word = word


# Keyed on the identity-hashed system; the bound only keeps systems built
# on the fly from piling up.
@lru_cache(maxsize=16)
def _redex_finder(ax: AxiomSystem):
    """(search, lhs -> rhs, look-back) for the system's rule table."""
    rhs_of: dict[str, str] = {}
    for rule in ax.rules:
        rhs_of.setdefault(rule.lhs, rule.rhs)  # a later duplicate lhs never fires
    # "(?!)" never matches: the empty alternation would match everywhere.
    pattern = "|".join(map(re.escape, rhs_of)) or "(?!)"
    look_back = max(map(len, rhs_of), default=1) - 1
    return re.compile(pattern).search, rhs_of, look_back


@lru_cache(maxsize=262144)
def _normalize_cached(word: str, ax: AxiomSystem) -> str:
    search, rhs_of, look_back = _redex_finder(ax)
    cur, pos = word, 0
    for _ in range(STEP_BUDGET):
        m = search(cur, pos)
        if m is None:
            return cur
        start, end = m.span()
        cur = cur[:start] + rhs_of[m.group()] + cur[end:]
        pos = max(0, start - look_back)
    raise ReductionBudgetError(cur, ax.name)


def normalize(word: str, ax: AxiomSystem = BASE) -> str:
    """Unique irreducible word equal to `word` under the axiom system.

    Unique because every critical pair of the rule table joins
    (tests/test_rewrite.py::test_critical_pairs_join), so the system is
    locally confluent, and by Newman's lemma confluent on every word whose
    reductions terminate.
    """
    check_word(word)
    return _normalize_cached(word, ax)


# -- semantic validation ----------------------------------------------------


@dataclass
class RuleResult:
    label: str
    tier: str
    ok: bool
    checked: int
    skipped: int
    counterexample: tuple[str, str, str] | None = None  # (set, lhs image, rhs image)


@dataclass
class ValidationReport:
    results: list[RuleResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[RuleResult]:
        return [r for r in self.results if not r.ok]


def _check_identity(lhs: str, rhs: str, corpus, bp_only: bool) -> tuple[bool, int, int, tuple | None]:
    checked = skipped = 0
    for s in corpus:
        if bp_only and has_baire_property(s) is not True:
            skipped += 1
            continue
        try:
            left = apply_word(lhs, s)
            right = apply_word(rhs, s)
            same = sym_equal(left, right)
        except Undecidable:
            skipped += 1
            continue
        checked += 1
        if not same:
            return False, checked, skipped, (
                render_symbolic(s), render_symbolic(left), render_symbolic(right))
    return True, checked, skipped, None


def validate_rules(rules, corpus) -> ValidationReport:
    """Evaluate both sides of every rule on every corpus set.

    PB-tier rules assert identities that only hold for sets with the
    Baire property, so they are checked on the Baire-property part of the
    corpus; BASE and CONST rules are checked everywhere.  A set on which
    evaluation is undecidable counts as skipped, never as failed.
    """
    if isinstance(rules, AxiomSystem):
        rules = rules.rules
    report = ValidationReport()
    for rule in rules:
        ok, checked, skipped, cex = _check_identity(
            rule.lhs, rule.rhs, corpus, bp_only=rule.tier == "PB")
        report.results.append(RuleResult(
            f"{rule.lhs} -> {rule.rhs}", rule.tier, ok, checked, skipped, cex))
    return report


# -- closure (completion) checking -------------------------------------------


@dataclass
class CompletionReport:
    ok: bool
    size: int
    elements: tuple[str, ...]
    failures: list[str] = field(default_factory=list)


def completion_check(ax: AxiomSystem, gens, candidate=None) -> CompletionReport:
    """Verify a canonical set is closed under left and right multiplication.

    With no explicit candidate the enumerated canonical set is checked
    (the acceptance path).  Passing a candidate detects a weakened rule
    table: products of a correct canonical set stop reducing into it.
    """
    from .monoid import enumerate_monoid  # local import to avoid a cycle

    if candidate is None:
        candidate = enumerate_monoid(gens, ax).elements
    candidate = tuple(candidate)
    elements = set(candidate)
    failures: list[str] = []
    for g in sorted(set(gens)):
        for w in candidate:
            for product in (g + w, w + g):
                try:
                    norm = normalize(product, ax)
                except ReductionBudgetError as exc:
                    failures.append(f"{render_word(product)} stuck at {render_word(exc.word)}")
                    continue
                if norm not in elements:
                    failures.append(
                        f"{render_word(product)} reduces to {render_word(norm)}, "
                        f"outside the canonical set")
    return CompletionReport(not failures, len(candidate), candidate, failures)

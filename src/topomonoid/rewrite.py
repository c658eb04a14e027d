"""Normalization of operator words and the closure search.

An axiom system is a finite string-rewriting system: every rule rewrites
its left-hand side wherever it occurs (rules are two-sided operator
identities, checked on sets by criterion 6 of verify, not here).
Reduction strategy: leftmost position first; at a position, rules in
table order.

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
from .words import check_word, render_word, word_sort_key

STEP_BUDGET = 10_000


_SHOWN_LETTERS = 40


def _shown_word(word: str) -> str:
    """render_word(word) for a message: a runaway word is cut to a prefix of
    _SHOWN_LETTERS letters and its length."""
    if len(word) <= _SHOWN_LETTERS:
        return render_word(word)
    return f"{word[:_SHOWN_LETTERS]}... ({len(word)} letters)"


class ReductionBudgetError(RuntimeError):
    """`word` is the whole word the reduction had reached."""

    def __init__(self, word: str, ax_name: str):
        super().__init__(
            f"step budget exhausted while reducing {_shown_word(word)} under "
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

    Unique because the system terminates (every rule decreases a reduction
    order: tests/test_rewrite.py::test_rules_decrease_under_a_reduction_order)
    and every critical pair of the rule table joins
    (tests/test_rewrite.py::test_critical_pairs_join), so it is locally
    confluent, and a terminating, locally confluent system is confluent by
    Newman's lemma.
    """
    check_word(word)
    return _normalize_cached(word, ax)


@dataclass
class CompletionReport:
    ok: bool
    size: int
    elements: tuple[str, ...]
    failures: list[str] = field(default_factory=list)


def completion_check(ax: AxiomSystem, gens, candidate=None) -> CompletionReport:
    """Verify a canonical set is closed under left and right multiplication.

    With no explicit candidate the set checked is the one the generators
    reach: a breadth-first closure of {e} under left multiplication.  Any
    product g1...gn is reached by left-multiplying in reverse order, so the
    closure is the whole generated monoid, returned in (length, lex) order;
    it is closed on the left by construction, and only the right products
    w*g remain to check.  Passing a candidate detects a weakened rule
    table: products of a correct canonical set stop reducing into it.
    A product that exhausts the step budget is a "stuck at" failure on
    either path, and on the search path it ends the search.  Each distinct
    product is normalized and reported once (g*e and e*g are one word).
    """
    gens = sorted(set(gens))
    failures: list[str] = []
    tried: set[str] = set()

    def reduced(product):
        if product in tried:
            return None
        tried.add(product)
        try:
            return normalize(product, ax)
        except ReductionBudgetError as exc:
            failures.append(f"{render_word(product)} stuck at {_shown_word(exc.word)}")
            return None

    searched = candidate is None
    if searched:
        elements = {""}
        frontier = [""]
        # A stuck product ends the search: a table that does not terminate
        # need not reach finitely many normal forms.
        while frontier and not failures:
            nxt = []
            for w in frontier:
                for g in gens:
                    u = reduced(g + w)
                    if u is not None and u not in elements:
                        elements.add(u)
                        nxt.append(u)
            frontier = nxt
        candidate = tuple(sorted(elements, key=word_sort_key))
    else:
        candidate = tuple(candidate)
        elements = set(candidate)
    for g in gens:
        for w in candidate:
            for product in (w + g,) if searched else (g + w, w + g):
                norm = reduced(product)
                if norm is not None and norm not in elements:
                    failures.append(
                        f"{render_word(product)} reduces to {render_word(norm)}, "
                        f"outside the canonical set")
    return CompletionReport(not failures, len(candidate), candidate, failures)

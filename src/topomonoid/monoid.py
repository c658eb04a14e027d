"""Finite monoids of operator words: Cayley tables over completion_check's
search, submonoids walked on a table's rows, and parity."""

from __future__ import annotations

from dataclasses import dataclass

from .rewrite import completion_check, normalize
from .rules import AxiomSystem
from .words import LETTERS, render_word


@dataclass(frozen=True)
class MonoidTable:
    generators: tuple[str, ...]
    axioms: str
    elements: tuple[str, ...]  # canonical words, (length, lex) order, e first
    left_cayley: dict[str, tuple[int, ...]]   # g -> index of g*w per element w
    right_cayley: dict[str, tuple[int, ...]]  # g -> index of w*g per element w

    @property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.elements)}

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "generators": list(self.generators),
            "axioms": self.axioms,
            "count": len(self.elements),
            "elements": [render_word(w) for w in self.elements],
            "left_cayley": {g: list(row) for g, row in self.left_cayley.items()},
            "right_cayley": {g: list(row) for g, row in self.right_cayley.items()},
        }


def enumerate_monoid(gens, ax: AxiomSystem) -> MonoidTable:
    """The monoid the generators generate under the axiom system.

    completion_check searches the canonical set and confirms it is closed
    under left and right multiplication; the Cayley rows are then read off
    by index.
    """
    gens = tuple(sorted(set(gens)))
    for g in gens:
        if g not in LETTERS:
            raise ValueError(f"unknown generator {g!r}")
    report = completion_check(ax, gens)
    if not report.ok:
        raise ValueError(f"monoid not closed: {report.failures[0]}")
    elements = report.elements
    index = {w: i for i, w in enumerate(elements)}
    left = {g: tuple(index[normalize(g + w, ax)] for w in elements) for g in gens}
    right = {g: tuple(index[normalize(w + g, ax)] for w in elements) for g in gens}
    return MonoidTable(gens, ax.name, elements, left, right)


def submonoid(table: MonoidTable, gens) -> MonoidTable:
    """enumerate_monoid(gens, ax), walked on the rows of a table under ax.

    A breadth-first walk from e along the left rows of gens reaches each
    product g1...gn = g1(...(gn e)) as its unique normal form.  Table
    indices are in (length, lex) order, so the sorted reached ones are too.
    """
    gens = tuple(sorted(set(gens)))
    for g in gens:
        if g not in table.left_cayley:
            raise ValueError(f"generator {g!r} has no row in the <{','.join(table.generators)}> table")
    reached, frontier = {0}, {0}
    while frontier:
        frontier = {table.left_cayley[g][i] for g in gens for i in frontier} - reached
        reached |= frontier
    old = sorted(reached)
    new = {i: j for j, i in enumerate(old)}
    left, right = ({g: tuple(new[cayley[g][i]] for i in old) for g in gens}
                   for cayley in (table.left_cayley, table.right_cayley))
    return MonoidTable(gens, table.axioms, tuple(table.elements[i] for i in old), left, right)


def parity(word: str) -> str:
    """"even" or "odd" by complement count, with i counting as ckc (two c's).

    Only defined on the {k, i, c, d} fragment: the frontier collapse
    fc -> f merges the parities, and the constants live outside the
    grading, so f, 0 and 1 are rejected.
    """
    if any(ch in "f01" for ch in word):
        raise ValueError(f"parity is defined on the k,i,c,d fragment only: "
                         f"{render_word(word)!r}")
    return "even" if word.count("c") % 2 == 0 else "odd"

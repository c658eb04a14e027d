"""Reference tables: the even-operator figure, the Vitali rows, the f-monoid counts."""

from __future__ import annotations

from .corpus import witness
from .monoid import enumerate_monoid
from .rules import get_axioms
from .vitali import DEFAULT_PARAMS, apply_word, render_symbolic
from .words import render_word

EVEN_NINE = ("", "i", "k", "ki", "ik", "iki", "kik", "d", "id")

# Rows of the Vitali-witness table, with the commonly printed value where
# it disagrees with the derived one (those rows feed the typo ledger).
VITALI_ROWS = (
    ("idc", None),
    ("id", None),
    ("d", None),
    ("dc", None),
    ("cd", "R - [8,10]"),
    ("cdc", None),
    ("cidc", None),
    ("kcd", "R - (8,10)"),
)

KFD_ROWS = (("BASE", "kifd"), ("PB", "kcfd"), ("BASE", "kcfd"))


def even_figure(params=DEFAULT_PARAMS) -> list[tuple[str, str]]:
    a = witness("A18", params)
    return [(render_word(w), render_symbolic(apply_word(w, a))) for w in EVEN_NINE]


def vitali_figure(params=DEFAULT_PARAMS) -> list[tuple[str, str, str | None]]:
    v = witness("V", params)
    return [(w + "V", render_symbolic(apply_word(w, v)), printed)
            for w, printed in VITALI_ROWS]


def kfd_counts() -> list[tuple[str, str, int, tuple[str, ...]]]:
    out = []
    for ax_name, gens in KFD_ROWS:
        table = enumerate_monoid(gens, get_axioms(ax_name))
        out.append((ax_name, gens, len(table.elements), table.elements))
    return out


def format_rows(rows, headers=None) -> str:
    rows = [[str(c) for c in row] for row in rows]
    if headers:
        rows.insert(0, list(headers))
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    if headers:
        lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)

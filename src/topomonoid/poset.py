"""The pointwise partial order o1 <= o2 (o1 A inside o2 A for every A).

proved_relation is the closure of a small set of proved generator
inequalities under transitivity, left composition by the monotone
operators k and d, order reversal under a left c, and right composition
by each generator, read off the Cayley rows of the k,c,d table the
caller passes, so poset runs no closure search of its own.  That is
closure under left i too, as i = ckc, and under right composition by any
word, by induction on its length.  It is derived on the rewrite side,
apart from the set algebra; the order that no witness refutes is
verify.corpus_relation, and criterion 8 asks the two to agree on the
even operators.  hasse and emit_dot draw either order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monoid import MonoidTable
from .rewrite import normalize
from .rules import get_axioms
from .words import render_word, word_sort_key

# Proved generator inequalities: extensivity/contraction of closure and
# interior, then d <= kik, iki <= cdc, cdc <= id, cdc <= cidc, ki <= cidc,
# cidc <= d.
PROVED_SEEDS = (
    ("i", ""),
    ("", "k"),
    ("d", "kik"),
    ("iki", "cdc"),
    ("cdc", "id"),
    ("cdc", "cidc"),
    ("ki", "cidc"),
    ("cidc", "d"),
)


@dataclass
class OrderRelation:
    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]

    def index(self, word: str) -> int:
        return self.elements.index(word)

    def holds(self, a: str, b: str) -> bool:
        return self.leq[self.index(a)][self.index(b)]


def proved_relation(elements, table: MonoidTable) -> OrderRelation:
    """Reflexive-transitive closure of the proved inequalities, restricted.

    table is the k,c,d monoid under BASE or PB.  The closure runs on its
    indices, one Cayley row per rule: a left k or d keeps a pair, a left
    c reverses it, and a right generator g maps (u, v) to (ug, vg).  A
    left i needs no rule, as i = ckc; closing under each right generator
    closes under right composition by every word, by induction on its
    length.  Only the seeds are normalized.
    """
    elements = tuple(elements)
    ax = get_axioms(table.axioms)
    index = table.index
    for w in elements:
        if w not in index:
            raise ValueError(f"{render_word(w)!r} is not a canonical element of the "
                             f"k,c,d monoid under {ax.name}")
    n = len(table.elements)
    leq = [[i == j for j in range(n)] for i in range(n)]
    stack = []

    def add(iu: int, iv: int) -> None:
        if not leq[iu][iv]:
            leq[iu][iv] = True
            stack.append((iu, iv))

    for lhs, rhs in PROVED_SEEDS:
        add(index[normalize(lhs, ax)], index[normalize(rhs, ax)])
    left = table.left_cayley
    keep = (left["k"], left["d"])  # monotone left compositions
    while stack:
        iu, iv = stack.pop()
        for row in keep:
            add(row[iu], row[iv])
        add(left["c"][iv], left["c"][iu])  # c reverses
        for row in table.right_cayley.values():  # right composition is pointwise
            add(row[iu], row[iv])
        for j in range(n):  # transitivity through the new pair
            if leq[iv][j]:
                add(iu, j)
            if leq[j][iu]:
                add(j, iv)
    rows = tuple(
        tuple(leq[index[a]][index[b]] for b in elements) for a in elements)
    return OrderRelation(elements, rows)


def hasse(rel: OrderRelation) -> list[tuple[str, str]]:
    """Transitive reduction: edge a -> b means a < b with nothing in between."""
    els = rel.elements
    n = len(els)
    leq = rel.leq
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise ValueError(
                    f"not antisymmetric: {render_word(els[i])} and {render_word(els[j])} "
                    f"compare both ways (canonicalization bug)")
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(k not in (i, j) and leq[i][k] and leq[k][j] for k in range(n)):
                continue
            edges.append((els[i], els[j]))
    edges.sort(key=lambda e: (word_sort_key(e[0]), word_sort_key(e[1])))
    return edges


def emit_dot(edges, nodes) -> str:
    """Deterministic DOT digraph; isolated nodes are kept."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for w in nodes:
        lines.append(f'  "{render_word(w)}";')
    for a, b in edges:
        lines.append(f'  "{render_word(a)}" -> "{render_word(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

#!/usr/bin/env python3
"""The pointwise partial order on even operators, two ways.

o1 <= o2 means o1(A) is a subset of o2(A) for every A.  The toolkit
derives the order twice: once by closing a handful of proved
inequalities under monotone composition, and once empirically by testing
subset-ness of images on the witness corpus.  The two must coincide, and
their transitive reduction is the Hasse diagram (DOT output included).
"""

from topomonoid import (BASE, PB, enumerate_monoid, parity, proved_relation,
                        corpus_relation, hasse, emit_dot, witness, render_word)
from topomonoid.corpus import WITNESS_NAMES

witness_sets = [witness(n) for n in WITNESS_NAMES]

tables = {ax: enumerate_monoid("kcd", ax) for ax in (BASE, PB)}
for ax, table in tables.items():
    evens = tuple(w for w in table.elements if parity(w) == "even")
    proved = proved_relation(evens, table)
    empirical = corpus_relation(evens, witness_sets)
    agree = proved.leq == empirical.leq
    edges = hasse(proved)
    print(f"{ax.name}: {len(evens)} even operators, proved == corpus: {agree}, "
          f"{len(edges)} Hasse edges")
    for a, b in edges:
        print(f"   {render_word(a)} -> {render_word(b)}")
    print()

evens_pb = tuple(w for w in tables[PB].elements if parity(w) == "even")
dot = emit_dot(hasse(proved_relation(evens_pb, tables[PB])), evens_pb)
print("DOT for the PB diagram:\n")
print(dot)

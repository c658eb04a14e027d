#!/usr/bin/env python3
"""The classical closure-complement theorem, computed.

Starting from any set of reals, closure (k) and complement (c) generate
at most 14 distinct sets.  Here we enumerate the operator monoid <k,c>
symbolically and then watch all 14 images appear on a concrete witness.
"""

from topomonoid import (BASE, enumerate_monoid, distinguish, parse_set_dsl, render_symbolic,
                        render_word)

table = enumerate_monoid("kc", BASE)
print(f"the monoid <k,c> has {len(table.elements)} elements:")
print("  " + " ".join(render_word(w) for w in table.elements))

# A witness that realizes all 14: a twice-punctured interval, an isolated
# point, and a rationals trace keep closures and interiors disagreeing.
witness = parse_set_dsl("(0,1) u (1,2) u {3} u Q(4,5)")
count, images = distinguish(witness, table.elements)
print(f"\non A = {witness.render()} the 14 operators give {count} distinct sets:")
for word, img in zip(table.elements, images):
    print(f"  {render_word(word):>5}A = {render_symbolic(img)}")

# The classical collapse identities that cap the count:
from topomonoid import normalize
assert normalize("kiki", BASE) == "ki"
assert normalize("ikik", BASE) == "ik"
print("\nkiki = ki and ikik = ik: the chains stop growing after seven even words.")

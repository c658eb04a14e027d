import pytest

from topomonoid.corpus import WITNESS_NAMES, witness
from topomonoid.monoid import enumerate_monoid, parity
from topomonoid.poset import OrderRelation, emit_dot, hasse, proved_relation
from topomonoid.rules import BASE, PB
from topomonoid.verify import (PB_HASSE, PB_HASSE_PRINTED, PB_HASSE_REPAIRED_EDGE, ZFC_HASSE,
                               corpus_relation)


def evens(ax):
    return tuple(w for w in enumerate_monoid("kcd", ax).elements if parity(w) == "even")


def witness_sets():
    return [witness(n) for n in WITNESS_NAMES]


def test_proved_examples():
    rel = proved_relation(evens(BASE), BASE)
    assert rel.holds("d", "kik")
    assert rel.holds("cdc", "id")
    assert not rel.holds("k", "i")
    assert rel.holds("i", "id")  # i(dA) contains i(iA) pointwise
    assert rel.holds("ki", "d")


def test_corpus_examples():
    rel = corpus_relation(evens(BASE), witness_sets())
    assert not rel.holds("", "i")  # refuted by the A witness
    assert rel.holds("id", "d")
    assert rel.holds("iki", "id")


def test_proved_is_sound_for_corpus():
    for ax in (BASE, PB):
        els = evens(ax)
        proved = proved_relation(els, ax)
        empirical = corpus_relation(els, witness_sets())
        for i in range(len(els)):
            for j in range(len(els)):
                assert not proved.leq[i][j] or empirical.leq[i][j]


def test_proved_equals_corpus_on_evens():
    for ax in (BASE, PB):
        els = evens(ax)
        assert proved_relation(els, ax).leq == corpus_relation(els, witness_sets()).leq


def test_hasse_zfc_fourteen_edges():
    edges = set(hasse(proved_relation(evens(BASE), BASE)))
    assert edges == set(ZFC_HASSE)
    assert len(edges) == 14


def test_hasse_pb_is_printed_plus_repaired_edge():
    edges = set(hasse(proved_relation(evens(PB), PB)))
    assert edges == set(PB_HASSE)
    assert edges - set(PB_HASSE_PRINTED) == {PB_HASSE_REPAIRED_EDGE}
    assert len(edges) == 11


def test_hasse_trivial_chain():
    rel = OrderRelation(("i", "", "k"),
                        ((True, True, True), (False, True, True), (False, False, True)))
    assert hasse(rel) == [("", "k"), ("i", "")]


def test_hasse_idempotent_under_transitive_closure():
    rel = proved_relation(evens(BASE), BASE)
    edges = hasse(rel)
    # Rebuild the relation from its own reduction: same reduction again.
    els = rel.elements
    idx = {w: i for i, w in enumerate(els)}
    leq = [[i == j for j in range(len(els))] for i in range(len(els))]
    for a, b in edges:
        leq[idx[a]][idx[b]] = True
    changed = True
    while changed:
        changed = False
        for i in range(len(els)):
            for j in range(len(els)):
                if not leq[i][j] and any(leq[i][z] and leq[z][j] for z in range(len(els))):
                    leq[i][j] = changed = True
    again = OrderRelation(els, tuple(tuple(r) for r in leq))
    assert hasse(again) == edges


def test_hasse_rejects_cycles():
    rel = OrderRelation(("i", "k"), ((True, True), (True, True)))
    with pytest.raises(ValueError):
        hasse(rel)


def test_proved_requires_canonical_elements():
    # "kid" is not canonical (it reduces to d); "f" is canonical but not k,c,d.
    for word in ("kid", "f"):
        with pytest.raises(ValueError) as exc:
            proved_relation((word,), BASE)
        assert str(exc.value) == (f"'{word}' is not a canonical element of the "
                                  f"k,c,d monoid under BASE")


def test_emit_dot():
    text = emit_dot([("i", ""), ("", "k")], ("i", "", "k"))
    assert text.startswith("digraph hasse {")
    assert '"i" -> "e";' in text
    assert '"e" -> "k";' in text
    assert text.count("->") == 2
    isolated = emit_dot([], ("d",))
    assert '"d";' in isolated and "->" not in isolated


def test_corpus_relation_skips_undecidable_witnesses():
    from fractions import Fraction

    from topomonoid.realsets import interval, union
    from topomonoid.vitali import plus_v

    # i of this punctured plusV base is undecidable; the pair must be
    # decided by the remaining witnesses.
    awkward = plus_v(union(interval(8, Fraction(17, 2)), interval(Fraction(17, 2), 9)))
    rel = corpus_relation(("", "i", "k"), [awkward] + witness_sets())
    assert rel.holds("i", "")
    assert not rel.holds("", "i")

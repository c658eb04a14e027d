import json
from fractions import Fraction
from pathlib import Path

import pytest

from topomonoid import poset, verify
from topomonoid.corpus import WITNESS_NAMES, parse_set_dsl, witness
from topomonoid.monoid import enumerate_monoid, parity
from topomonoid.poset import PROVED_SEEDS, OrderRelation, emit_dot, hasse, proved_relation
from topomonoid.realsets import UNIVERSAL, interval, render, union
from topomonoid.rewrite import normalize
from topomonoid.rules import BASE, PB
from topomonoid.verify import (PB_HASSE, PB_HASSE_PRINTED, PB_HASSE_REPAIRED_EDGE, ZFC_HASSE,
                               corpus_relation)
from topomonoid.vitali import (DEFAULT_PARAMS, Undecidable, VitaliParams, apply_word, plus_v,
                               sym_subset, tame)

POSET_CLI = json.loads(
    (Path(__file__).parent / "data" / "poset_cli.json").read_text(encoding="utf-8"))


def kcd(ax):
    return enumerate_monoid("kcd", ax)


def evens(ax):
    return tuple(w for w in kcd(ax).elements if parity(w) == "even")


def witness_sets(params=DEFAULT_PARAMS):
    return [witness(n, params) for n in WITNESS_NAMES]


def _awkward():
    # i of this punctured plusV base is undecidable.
    return plus_v(union(interval(8, Fraction(17, 2)), interval(Fraction(17, 2), 9)))


def _cli_params():
    """The Vitali parameters of the poset CLI cases, the default first."""
    choices = [DEFAULT_PARAMS]
    for case in POSET_CLI:
        argv = case["argv"]
        if argv[0] == "--w0":
            params = VitaliParams.make(parse_set_dsl(argv[1]).base, parse_set_dsl(argv[3]).base)
            if params not in choices:
                choices.append(params)
    return choices


def _normalize_closure(elements, ax):
    """The proved order closed word by word through normalize: a left k, i
    or d keeps a pair, a left c reverses it, and right composition by every
    element of the k,c,d monoid keeps it."""
    ambient = enumerate_monoid("kcd", ax).elements
    index = {w: j for j, w in enumerate(ambient)}
    n = len(ambient)
    leq = [[i == j for j in range(n)] for i in range(n)]
    stack = []

    def add(u, v):
        iu, iv = index[u], index[v]
        if not leq[iu][iv]:
            leq[iu][iv] = True
            stack.append((iu, iv))

    for lhs, rhs in PROVED_SEEDS:
        add(normalize(lhs, ax), normalize(rhs, ax))
    while stack:
        iu, iv = stack.pop()
        u, v = ambient[iu], ambient[iv]
        for g in "kid":
            add(normalize(g + u, ax), normalize(g + v, ax))
        add(normalize("c" + v, ax), normalize("c" + u, ax))
        for w in ambient:
            add(normalize(u + w, ax), normalize(v + w, ax))
        for j in range(n):
            if leq[iv][j]:
                add(u, ambient[j])
            if leq[j][iu]:
                add(ambient[j], v)
    return tuple(tuple(leq[index[a]][index[b]] for b in elements) for a in elements)


def _set_by_set_order(elements, sets):
    """a <= b unless some set refutes aS inside bS; a set with an
    undecidable image, and an undecidable inclusion, is a skip."""
    leq = [[True] * len(elements) for _ in elements]
    for s in sets:
        try:
            images = [apply_word(w, s) for w in elements]
        except Undecidable:
            continue
        for i, a in enumerate(images):
            for j, b in enumerate(images):
                try:
                    if not sym_subset(a, b):
                        leq[i][j] = False
                except Undecidable:
                    pass
    return tuple(tuple(row) for row in leq)


def test_proved_examples():
    rel = proved_relation(evens(BASE), kcd(BASE))
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
        proved = proved_relation(els, kcd(ax))
        empirical = corpus_relation(els, witness_sets())
        for i in range(len(els)):
            for j in range(len(els)):
                assert not proved.leq[i][j] or empirical.leq[i][j]


def test_proved_equals_corpus_on_evens():
    for ax in (BASE, PB):
        els = evens(ax)
        assert proved_relation(els, kcd(ax)).leq == corpus_relation(els, witness_sets()).leq


def test_the_tame_witnesses_alone_give_the_pb_order():
    # Under PB every set has the Baire property: the V-mode witnesses
    # refute no inclusion of PB evens that A18, empty and full leave.
    els = evens(PB)
    tame_sets = [witness(name) for name in ("A18", "empty", "full")]
    assert corpus_relation(els, tame_sets).leq == corpus_relation(els, witness_sets()).leq


def test_hasse_zfc_fourteen_edges():
    edges = set(hasse(proved_relation(evens(BASE), kcd(BASE))))
    assert edges == set(ZFC_HASSE)
    assert len(edges) == 14


def test_hasse_pb_is_printed_plus_repaired_edge():
    edges = set(hasse(proved_relation(evens(PB), kcd(PB))))
    assert edges == set(PB_HASSE)
    assert edges - set(PB_HASSE_PRINTED) == {PB_HASSE_REPAIRED_EDGE}
    assert len(edges) == 11


def test_hasse_trivial_chain():
    rel = OrderRelation(("i", "", "k"),
                        ((True, True, True), (False, True, True), (False, False, True)))
    assert hasse(rel) == [("", "k"), ("i", "")]


def test_hasse_idempotent_under_transitive_closure():
    rel = proved_relation(evens(BASE), kcd(BASE))
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
            proved_relation((word,), kcd(BASE))
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
    # The pair must be decided by the witnesses after the awkward one.
    rel = corpus_relation(("", "i", "k"), [_awkward()] + witness_sets())
    assert rel.holds("i", "")
    assert not rel.holds("", "i")


@pytest.mark.parametrize("params", _cli_params(),
                         ids=lambda p: f"w0={render(p.w0)},w1={render(p.w1)}")
@pytest.mark.parametrize("ax", [BASE, PB], ids=lambda ax: ax.name)
def test_corpus_relation_matches_the_set_by_set_order(ax, params):
    els = evens(ax)
    sets = witness_sets(params)
    assert corpus_relation(els, sets).leq == _set_by_set_order(els, sets)


def test_corpus_relation_matches_the_set_by_set_order_on_an_awkward_witness():
    sets = [_awkward()] + witness_sets()
    for els in (("", "i", "k"), evens(BASE)):
        assert corpus_relation(els, sets).leq == _set_by_set_order(els, sets)


def test_a_passing_corpus_relation_never_evaluates_the_universal_witness(monkeypatch):
    evaluated = []

    def recording_apply_word(word, s):
        evaluated.append(s)
        return apply_word(word, s)

    monkeypatch.setattr(verify, "apply_word", recording_apply_word)
    els = evens(BASE)
    assert corpus_relation(els, witness_sets()).leq == proved_relation(els, kcd(BASE)).leq
    assert evaluated and tame(UNIVERSAL) not in evaluated


@pytest.mark.parametrize("ax", [BASE, PB], ids=lambda ax: ax.name)
def test_proved_relation_matches_the_normalize_closure(ax):
    table = kcd(ax)
    els = table.elements
    assert len(els) == {"BASE": 22, "PB": 18}[ax.name]
    assert proved_relation(els, table).leq == _normalize_closure(els, ax)


def test_proved_relation_normalizes_only_the_seeds(monkeypatch):
    calls = []

    def counting_normalize(word, ax):
        calls.append(word)
        return normalize(word, ax)

    monkeypatch.setattr(poset, "normalize", counting_normalize)
    for ax in (BASE, PB):
        calls.clear()
        proved_relation(evens(ax), kcd(ax))
        assert len(calls) <= 2 * len(PROVED_SEEDS) == 16

import random
from itertools import combinations

import pytest

from topomonoid.monoid import enumerate_monoid, parity, submonoid
from topomonoid.rewrite import normalize
from topomonoid.rules import BASE, PB, AxiomSystem

REFERENCE_COUNTS = [
    ("kc", BASE, 14), ("kcd", BASE, 22), ("kcd", PB, 18), ("ki", BASE, 7),
    ("kid", BASE, 9), ("kcf", BASE, 34), ("kifd", BASE, 20),
    ("kcfd", PB, 40), ("kcfd", BASE, 46),
]


@pytest.mark.parametrize("gens,ax,expected", REFERENCE_COUNTS)
def test_cardinalities(gens, ax, expected):
    assert len(enumerate_monoid(gens, ax).elements) == expected


def test_22_element_list_verbatim():
    expected = {"", "i", "k", "ki", "ik", "iki", "kik", "d", "id",
                "c", "ci", "ck", "cki", "cik", "ciki", "ckik", "cd", "cid",
                "dc", "idc", "cdc", "cidc"}
    assert set(enumerate_monoid("kcd", BASE).elements) == expected


def test_kifd_20_element_list_verbatim():
    expected = {"", "k", "i", "d", "f", "ik", "fk", "ki", "fi", "fd", "id",
                "if", "ff", "kif", "kik", "fik", "0", "iki", "fki", "fif"}
    assert set(enumerate_monoid("kifd", BASE).elements) == expected


def test_kcfd_pb_is_kifd_plus_complements():
    kifd = set(enumerate_monoid("kifd", BASE).elements)
    pb = set(enumerate_monoid("kcfd", PB).elements)
    assert pb == kifd | {normalize("c" + w, PB) for w in kifd}


def test_identity_is_element_zero():
    table = enumerate_monoid("kcd", BASE)
    assert table.elements[0] == ""


def test_cayley_tables_encode_products():
    table = enumerate_monoid("kcd", BASE)
    idx = table.index
    for g in table.generators:
        for j, w in enumerate(table.elements):
            assert table.left_cayley[g][j] == idx[normalize(g + w, BASE)]
            assert table.right_cayley[g][j] == idx[normalize(w + g, BASE)]


def test_associativity_spot_check():
    table = enumerate_monoid("kcd", BASE)
    els = table.elements
    idx = table.index
    rng = random.Random(21)
    for _ in range(1000):
        a, b, w = (rng.choice(els) for _ in range(3))
        assert idx[normalize(a + normalize(b + w, BASE), BASE)] == \
            idx[normalize(a + b + w, BASE)]


def test_kid_monoid_does_not_feel_pb():
    assert enumerate_monoid("kid", BASE).elements == enumerate_monoid("kid", PB).elements


GENERATOR_SUBSETS = ["".join(c) for n in range(1, 6) for c in combinations("kicdf", n)]


@pytest.mark.parametrize("ax", [BASE, PB], ids=lambda ax: ax.name)
def test_submonoid_walks_every_enumerated_monoid(ax):
    full = enumerate_monoid("kicdf", ax)
    assert len(GENERATOR_SUBSETS) == 31
    for gens in GENERATOR_SUBSETS:
        assert submonoid(full, gens).to_json() == enumerate_monoid(gens, ax).to_json(), gens


def test_submonoid_rejects_a_generator_without_a_row():
    with pytest.raises(ValueError) as exc:
        submonoid(enumerate_monoid("kcd", BASE), "kf")
    assert str(exc.value) == "generator 'f' has no row in the <c,d,k> table"


def test_submonoid_embedding():
    chains = [("ki", "kid", "kifd"), ("kc", "kcd", "kcfd")]
    for chain in chains:
        for small, big in zip(chain, chain[1:]):
            s = set(enumerate_monoid(small, BASE).elements)
            b = set(enumerate_monoid(big, BASE).elements)
            assert s <= b


@pytest.mark.parametrize("word,expected", [
    ("cdc", "even"), ("c", "odd"), ("id", "even"), ("", "even"),
    ("dc", "odd"), ("cidc", "even"), ("ciki", "odd"),
])
def test_parity_examples(word, expected):
    assert parity(word) == expected


def test_parity_rejects_f_and_constants():
    for w in ("f", "kf", "0", "1"):
        with pytest.raises(ValueError):
            parity(w)


def test_parity_partitions():
    base = [parity(w) for w in enumerate_monoid("kcd", BASE).elements]
    assert base.count("even") == 11 and base.count("odd") == 11
    pb = [parity(w) for w in enumerate_monoid("kcd", PB).elements]
    assert pb.count("even") == 9 and pb.count("odd") == 9


def test_json_shape():
    data = enumerate_monoid("kc", BASE).to_json()
    assert data["count"] == 14
    assert data["elements"][0] == "e"
    assert set(data["left_cayley"]) == {"c", "k"}
    assert all(len(v) == 14 for v in data["left_cayley"].values())
    assert data["schema_version"] == 1


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        enumerate_monoid("kx", BASE)


def test_an_unclosed_set_is_reported_by_completion_check():
    # Without ic -> ck the k,c search closes on a set whose right product
    # i*c stays irreducible; the error is completion_check's own wording.
    no_ic = AxiomSystem("PB-no-ic", tuple(r for r in PB.rules if r.lhs != "ic"))
    with pytest.raises(ValueError) as exc:
        enumerate_monoid("kc", no_ic)
    assert str(exc.value) == "monoid not closed: ic reduces to ic, outside the canonical set"

"""Oriented rewrite rules for operator words.

Tiers:

  BASE  — identities valid for every subset of a Polish space assuming
          only dependent choice (Baire category theorem);
  PB    — one extra orientation, dc -> cid, valid when every set has the
          Baire property; it collapses the four dc-block words;
  CONST — absorption by the constant operators 0 and 1.

Orientation policy: c migrates leftward (DeMorgan rules kc -> ci and
ic -> ck), so canonical words carry at most one leading c plus, under
BASE only, irreducible trailing "dc" blocks.  Between equals the shorter
spelling wins, ties by the lexicographic order c < d < f < i < k.

An axiom system is a finite string-rewriting system: each rule rewrites
its left-hand side anywhere in a word.  Facts that hold only on images
of a certain shape ("on open images d is the closure") are carried by
the derived rules that spell that shape out, and their provenance says
which fact each one instantiates.

Every rule is semantically validated against the witness corpus by
criterion 6 of verify (check_rule_validation); the identities whose
commonly printed forms fail that validation are listed in TYPO_LEDGER
together with the corrected forms actually shipped.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RewriteRule:
    lhs: str
    rhs: str
    tier: str  # BASE | PB | CONST
    provenance: str
    status: str  # classical | derived


# Hashed by identity: normalize caches on (word, system), and hashing the
# whole rule tuple on every lookup would cost as much as the lookup itself.
@dataclass(frozen=True, eq=False)
class AxiomSystem:
    name: str
    rules: tuple[RewriteRule, ...]


def _r(lhs, rhs, tier, provenance, status="classical"):
    return RewriteRule(lhs, rhs, tier, provenance, status)


_BASE_CORE = (
    _r("cc", "", "BASE", "complement is an involution"),
    _r("kk", "k", "BASE", "closure is idempotent"),
    _r("ii", "i", "BASE", "interior is idempotent: it fixes open images"),
    _r("kc", "ci", "BASE", "DeMorgan: closure of a complement is the complement of the interior"),
    _r("ic", "ck", "BASE", "DeMorgan: interior of a complement is the complement of the closure"),
    _r("kiki", "ki", "BASE", "classical closure-interior collapse: kik is k on open images"),
    _r("ikik", "ik", "BASE", "classical interior-closure collapse: iki is i on closed images"),
    _r("kd", "d", "BASE", "d-images are closed, and closure fixes closed images"),
    _r("dd", "d", "BASE", "d is idempotent"),
    _r("di", "ki", "BASE", "on open sets d is the closure"),
    _r("dk", "kik", "BASE", "d of a closure: the nowhere-dense rim kA-ikA is d-null"),
    _r("kid", "d", "BASE", "d-images are regular closed"),
    # A dc-block followed by a letter reduces through the shape of the image
    # that letter starts: d is the closure on open images, ki on closed ones.
    _r("dcd", "kcd", "BASE", "cd-images are open, and on open images d is the closure", "derived"),
    _r("dck", "kck", "BASE", "ck-images are open, and on open images d is the closure", "derived"),
    _r("dcf", "kcf", "BASE", "cf-images are open, and on open images d is the closure", "derived"),
    _r("dci", "kikci", "BASE", "ci-images are closed, and on closed images d acts as ki", "derived"),
)

_BASE_FRONTIER = (
    _r("fff", "ff", "BASE", "double frontiers are nowhere dense, and f fixes them"),
    _r("fc", "f", "BASE", "a set and its complement share their frontier"),
    _r("kf", "f", "BASE", "frontier images are closed, and closure fixes closed images"),
    _r("ffk", "fk", "BASE", "frontier of a closed set is nowhere dense, and f fixes it"),
    _r("ifk", "0", "BASE", "frontier of a closed set has empty interior: its complement is dense"),
    _r("df", "kif", "BASE", "frontier images are closed, and on closed images d acts as ki"),
    _r("fid", "fd", "BASE", "d-images are regular closed; i preserves their frontier"),
    _r("dfk", "0", "BASE", "frontier of a closed set is nowhere dense, hence meager and d-null"),
    _r("ffd", "fd", "BASE", "frontier of the closed d-image is nowhere dense", "derived"),
    _r("ffi", "fi", "BASE", "frontier of an open set is nowhere dense", "derived"),
    _r("ifd", "0", "BASE", "frontier of the closed d-image has empty interior", "derived"),
    _r("ifi", "0", "BASE", "frontier of an open set has empty interior", "derived"),
    _r("iff", "0", "BASE", "frontier of the closed f-image has empty interior", "derived"),
    _r("ikif", "if", "BASE", "if-images are regular open (interior of a closed set)", "derived"),
    _r("fkif", "fif", "BASE", "if-images are regular open; fk collapses to f on them", "derived"),
    # The transposed spellings fkik->fki / fiki->fik circulate in print;
    # the exact evaluator refutes them (see TYPO_LEDGER) and validates these.
    _r("fkik", "fik", "BASE", "ik-images are regular open; fk collapses to f on them", "derived"),
    _r("fiki", "fki", "BASE", "ki-images are regular closed; fi collapses to f on them", "derived"),
)

_CONST = tuple(
    [_r("0" + x, "0", "CONST", "constant operators absorb on the right") for x in "kicdf01"]
    + [_r("1" + x, "1", "CONST", "constant operators absorb on the right") for x in "kicdf01"]
    + [
        _r("k0", "0", "CONST", "closure of the empty set"),
        _r("i0", "0", "CONST", "interior of the empty set"),
        _r("d0", "0", "CONST", "the empty set is meager"),
        _r("f0", "0", "CONST", "frontier of the empty set"),
        _r("c0", "1", "CONST", "complement of the empty set"),
        _r("k1", "1", "CONST", "closure of the full space"),
        _r("i1", "1", "CONST", "interior of the full space"),
        _r("d1", "1", "CONST", "the full space is everywhere nonmeager"),
        _r("f1", "0", "CONST", "frontier of the full space"),
        _r("c1", "0", "CONST", "complement of the full space"),
    ]
)

_PB_EXTRA = (
    _r("dc", "cid", "PB", "with every set Baire-measurable, dc = cid"),
)

BASE = AxiomSystem("BASE", _BASE_CORE + _BASE_FRONTIER + _CONST)
PB = AxiomSystem("PB", _BASE_CORE + _BASE_FRONTIER + _CONST + _PB_EXTRA)


def get_axioms(name: str) -> AxiomSystem:
    key = name.strip().upper()
    if key == "BASE":
        return BASE
    if key == "PB":
        return PB
    raise ValueError(f"unknown axiom system {name!r} (expected base or pb)")


# Identities whose printed forms the exact evaluator refutes, with the
# corrected forms shipped in the tables above.
TYPO_LEDGER = (
    {"printed": "fkik = fki", "corrected": "fkik = fik",
     "counterexample": "(0,1) u Q(1,2)"},
    {"printed": "fiki = fik", "corrected": "fiki = fki",
     "counterexample": "(0,1) u Q(1,2)"},
    {"printed": "ckik = kikc", "corrected": "ckik = ikic (and kikc = ciki)",
     "counterexample": "(1,2) u (2,3) u {4} u Q(5,6) u I(6,7)"},
    {"printed": "cdV = R - [8,10]", "corrected": "cdV = R - [8,9]",
     "counterexample": "complement of dV = [8,9]"},
    {"printed": "kcdV = R - (8,10)", "corrected": "kcdV = R - (8,9)",
     "counterexample": "closure of the complement of dV = [8,9]"},
)

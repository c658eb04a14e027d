"""topomonoid: monoids of topological set operators, evaluated exactly.

Operator words over k (closure), i (interior), c (complement), d (the
Baire second-category operator) and f (frontier) are normalized by an
oriented rewrite system under two axiom regimes, enumerated into finite
monoids, ordered pointwise, and checked against an exact algebra of
real-line sets extended by one axiomatized Vitali atom.
"""

from .corpus import Corpus, build_corpus, parse_set_dsl, random_tame, witness
from .monoid import MonoidTable, enumerate_monoid, parity, submonoid
from .poset import OrderRelation, emit_dot, hasse, proved_relation
from .realsets import Cell, TameSet, interval, point
from .rewrite import CompletionReport, ReductionBudgetError, completion_check, normalize
from .rules import BASE, PB, TYPO_LEDGER, AxiomSystem, RewriteRule, get_axioms
from .verify import VerifyReport, corpus_relation, run_verify
from .vitali import (DEFAULT_PARAMS, SymbolicSet, Undecidable, VitaliParams,
                     apply_word, distinguish, has_baire_property, is_meager,
                     minus_v, plus_v, render_symbolic, sym_apply, sym_difference,
                     sym_equal, sym_intersect, sym_subset, sym_union, tame)
from .words import ParseError, parse_word, render_word

__version__ = "0.1.0"

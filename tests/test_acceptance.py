"""Acceptance suite: every criterion at its stated (exact) tolerance.

Runs the same checks as `topomonoid verify` at the full corpus size and
prints one pass/fail line per criterion (visible with pytest -s).
"""

import json
from pathlib import Path

import pytest

from topomonoid.verify import DEFAULT_CORPUS_SIZE, DEFAULT_SEED, run_verify

CRITERIA = (
    "1-monoid-cardinalities",
    "2-even-figure",
    "3-distinctness",
    "4-vitali-table",
    "5a-d-operator-laws",
    "5b-baire-equalities",
    "5c-baire-failures-on-vitali",
    "6-rule-validation",
    "7-completion",
    "8-poset",
    "9-parity",
    "10-rewrite-semantics",
)


@pytest.fixture(scope="module")
def report():
    return run_verify(corpus_size=DEFAULT_CORPUS_SIZE, seed=DEFAULT_SEED)


@pytest.mark.parametrize("cid", CRITERIA)
def test_criterion(report, cid):
    check = next(c for c in report.checks if c.id == cid)
    print(f"{check.status.upper()}  {check.id}: {check.description}")
    assert check.status == "pass", check.details


def test_every_check_is_covered(report):
    assert {c.id for c in report.checks} == set(CRITERIA)


def test_exit_contract(report):
    assert report.ok
    data = report.to_json()
    assert len(data["typo_ledger"]) == 5


def test_json_report_matches_golden_file(report):
    # The file is `topomonoid verify --json` at the default corpus and seed.
    golden = Path(__file__).parent / "data" / "verify_default.json"
    text = json.dumps(report.to_json(), indent=2, sort_keys=False) + "\n"
    assert text == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 2729, 7])
def test_text_report_matches_golden_file(report, seed):
    # The file is `topomonoid verify --seed SEED` stdout at the default corpus.
    if seed == DEFAULT_SEED:
        name = "verify_default.txt"
    else:
        report = run_verify(corpus_size=DEFAULT_CORPUS_SIZE, seed=seed)
        name = f"verify_seed_{seed}.txt"
    golden = Path(__file__).parent / "data" / name
    assert report.format_text() + "\n" == golden.read_text(encoding="utf-8")

import json

import pytest

from topomonoid.cli import main
from topomonoid.tables import even_figure, kfd_counts, vitali_figure


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normalize_command(capsys):
    code, out, _ = run(capsys, "normalize", "kid", "--axioms", "base")
    assert code == 0 and out.strip() == "d"
    code, out, _ = run(capsys, "normalize", "dc", "--axioms", "pb")
    assert code == 0 and out.strip() == "cid"


def test_normalize_bad_word(capsys):
    code, _, err = run(capsys, "normalize", "kxd")
    assert code == 1 and "position 2" in err


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate", "--gens", "kcd", "--axioms", "pb")
    assert code == 0 and "18 elements" in out
    code, out, _ = run(capsys, "enumerate", "--gens", "kc", "--json")
    data = json.loads(out)
    assert code == 0 and data["count"] == 14 and data["schema_version"] == 1


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "d", "--witness", "A18")
    assert code == 0 and out.strip() == "[1,3] u [6,7]"
    code, out, _ = run(capsys, "eval", "kik", "--set", "{4} u (0,1)")
    assert code == 0 and out.strip() == "[0,1]"


def test_eval_undecidable_reports_position(capsys):
    code, _, err = run(capsys, "eval", "k", "--set", "(8,9) u {19/2} \\ V")
    assert code == 1 and "position" in err


def test_distinguish_command(capsys):
    code, out, _ = run(capsys, "distinguish", "--witness", "A22",
                       "--gens", "kcd", "--axioms", "base")
    assert code == 0 and out.startswith("22 distinct images")


def test_poset_command(capsys, tmp_path):
    dot = tmp_path / "h.dot"
    code, out, _ = run(capsys, "poset", "--axioms", "base", "--dot", str(dot))
    assert code == 0
    assert "11 even operators" in out and "==" in out
    text = dot.read_text()
    assert text.count("->") == 14
    code, out, _ = run(capsys, "poset", "--axioms", "pb", "--json")
    data = json.loads(out.split("wrote")[0])
    assert code == 0 and data["proved_equals_corpus"] is True
    assert len(data["hasse_edges"]) == 11


def test_table_commands(capsys):
    code, out, _ = run(capsys, "table", "figure-even")
    assert code == 0 and "dA" in out and "[1,3] u [6,7]" in out
    code, out, _ = run(capsys, "table", "vitali")
    assert code == 0 and "typo ledger" in out and "[8,9]" in out
    code, out, _ = run(capsys, "table", "kfd-counts")
    assert code == 0 and "46" in out and "40" in out and "20" in out


def test_verify_small(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--corpus-size", "60",
                       "--json", str(report))
    assert code == 0
    assert "RESULT: all checks passed" in out
    assert "typo ledger" in out
    data = json.loads(report.read_text())
    assert data["schema_version"] == 1
    assert len(data["typo_ledger"]) == 5
    assert all(c["status"] == "pass" for c in data["checks"])


def test_custom_vitali_params(capsys):
    code, out, _ = run(capsys, "--w0", "(0,1)", "--w1", "(0,2)",
                       "eval", "d", "--witness", "V")
    assert code == 0 and out.strip() == "[0,1]"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["table", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("size", ["0", "-3", "x"])
def test_verify_rejects_corpus_size_below_one(size):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--corpus-size", size])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("poset", "--dot"),
    ("verify", "--corpus-size", "5", "--json"),
], ids=["poset-dot", "verify-json"])
def test_unwritable_output_path_is_an_error_not_a_traceback(capsys, tmp_path, argv):
    target = tmp_path / "missing-dir" / "out"
    code, _, err = run(capsys, *argv, str(target))
    assert code == 1
    assert err.startswith("error: ") and "missing-dir" in err


def test_tables_are_deterministic():
    assert even_figure() == even_figure()
    assert vitali_figure() == vitali_figure()
    assert kfd_counts() == kfd_counts()

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_package_runs_as_a_module():
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "topomonoid", "normalize", "kid"],
                          cwd=root, env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "d", "")


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
    data = json.loads(out)
    assert code == 0 and data["proved_equals_corpus"] is True
    assert len(data["hasse_edges"]) == 11


def test_poset_matches_golden_file(capsys):
    # The file holds the exit code and stdout of `poset` and `poset --json`
    # under both axiom systems, at the default W0/W1 and three others.
    golden = json.loads((Path(__file__).parent / "data" / "poset_cli.json")
                        .read_text(encoding="utf-8"))
    assert len(golden) == 16
    for case in golden:
        code, out, _ = run(capsys, *case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_poset_json_with_dot_keeps_stdout_pure_json(capsys, tmp_path):
    dot = tmp_path / "h.dot"
    code, out, err = run(capsys, "poset", "--json", "--dot", str(dot))
    assert code == 0
    assert json.loads(out)["proved_equals_corpus"] is True
    assert err == f"wrote {dot}\n"
    assert dot.read_text().count("->") == 14


def test_table_commands(capsys):
    code, out, _ = run(capsys, "table", "figure-even")
    assert code == 0 and "dA" in out and "[1,3] u [6,7]" in out
    code, out, _ = run(capsys, "table", "vitali")
    assert code == 0 and "typo ledger" in out and "[8,9]" in out
    code, out, _ = run(capsys, "table", "kfd-counts")
    assert code == 0 and "46" in out and "40" in out and "20" in out


def test_vitali_table_prints_typo_notes_only_at_the_default_parameters(capsys):
    # The typo ledger is about the paper's W0 = (8,9), W1 = (8,10).
    code, out, _ = run(capsys, "table", "vitali")
    assert code == 0
    assert "printed as 'R - [8,10]'" in out and "printed as 'R - (8,10)'" in out
    code, out, _ = run(capsys, "--w0", "(0,1)", "--w1", "(-1,2)", "table", "vitali")
    assert code == 0 and "(-inf,0) u (1,inf)" in out
    assert "printed as" not in out and "typo ledger" not in out


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


@pytest.mark.parametrize("argv, expected", [
    (("eval", "i", "--set", "(-inf,inf) ∖ V"), "{}"),
    (("eval", "kc", "--set", "V"), "(-inf,inf)"),
], ids=["i-of-reals-minus-v", "kc-of-v"])
def test_eval_on_the_whole_line(capsys, argv, expected):
    # W0 = W1 = R: the frame has no breakpoint, so a refined set with no
    # breakpoint of its own is one gap, and that gap's label decides.
    code, out, _ = run(capsys, "--w0", "(-inf,inf)", "--w1", "(-inf,inf)", *argv)
    assert code == 0 and out.strip() == expected


@pytest.mark.parametrize("argv", [
    ("eval", "d", "--witness", "V"),
    ("verify", "--corpus-size", "20"),
], ids=["eval", "verify"])
def test_empty_w0_is_an_error(capsys, argv):
    code, out, err = run(capsys, "--w0", "{}", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: W0 must be nonempty") and err.count("\n") == 1


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


@pytest.mark.parametrize("target", ["missing-dir/v.json", ".", "file/v.json"],
                         ids=["missing-dir", "directory", "parent-is-a-file"])
def test_verify_rejects_an_unwritable_json_path_before_running(capsys, tmp_path, monkeypatch,
                                                                target):
    def must_not_run(*args):
        raise AssertionError("run_verify called for an unwritable --json path")

    monkeypatch.setattr("topomonoid.verify.run_verify", must_not_run)
    (tmp_path / "file").write_text("")
    code, out, err = run(capsys, "verify", "--json", str(tmp_path / target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("argv", [
    ("eval", "k", "--set", "{1/0}"),
    ("eval", "k", "--set", "(0,1/0)"),
    ("--w0", "(1/0,2)", "normalize", "k"),
], ids=["point", "interval-end", "w0"])
def test_zero_denominator_is_an_error_not_a_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "zero denominator" in err and "position" in err


@pytest.mark.parametrize("argv", [
    ("eval", "k", "--set", "(0,1) u"),
    ("eval", "k", "--set", "V u"),
    ("--w0", "(8,9) u", "normalize", "k"),
], ids=["tame", "atom", "w0"])
def test_trailing_union_is_an_error_not_a_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: unexpected end of set expression\n"


def test_poset_rejects_an_unwritable_dot_path_before_computing(capsys, tmp_path, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("poset computed for an unwritable --dot path")

    monkeypatch.setattr("topomonoid.cli.enumerate_monoid", must_not_run)
    code, out, err = run(capsys, "poset", "--dot", str(tmp_path / "missing-dir" / "h.dot"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("poset", "--dot", ""),
    ("verify", "--corpus-size", "5", "--json", ""),
], ids=["poset-dot", "verify-json"])
def test_empty_output_path_is_an_error_before_any_work(capsys, monkeypatch, argv):
    def must_not_run(*args):
        raise AssertionError("work done for an empty output path")

    monkeypatch.setattr("topomonoid.cli.enumerate_monoid", must_not_run)
    monkeypatch.setattr("topomonoid.verify.run_verify", must_not_run)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tables_are_deterministic():
    assert even_figure() == even_figure()
    assert vitali_figure() == vitali_figure()
    assert kfd_counts() == kfd_counts()

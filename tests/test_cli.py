import pytest

from arbora.cli import main
from arbora.family import build_table
from arbora.tree import format_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_identity_single_word(capsys):
    code, out, _ = run(capsys, "identity", "--d", "3", "a b a' b'")
    assert code == 0
    verdict, stats = out.splitlines()
    assert verdict == "nonidentity"
    assert stats == "nodes=1 depth=1"


def test_identity_of_a_reducible_word(capsys):
    code, out, _ = run(capsys, "identity", "--d", "3", "a a'")
    assert code == 0
    assert out.splitlines()[0] == "identity"


def test_identity_strategy_flag(capsys):
    # there is one decision procedure, so the flag is gone
    code, out, err = run(capsys, "identity", "--d", "3", "--strategy", "auto", "a a")
    assert code == 2 and out == "" and "--strategy" in err


def test_identity_words_file(capsys, tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("a b a' b'\n# a comment\n\ne\n")
    code, out, _ = run(capsys, "identity", "--d", "3", "--words-file", str(path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("nonidentity nodes=")
    assert lines[1].startswith("identity nodes=")


def test_identity_requires_a_word(capsys):
    code, _, err = run(capsys, "identity", "--d", "3")
    assert code == 2 and "word" in err


def test_eval_and_section(capsys):
    code, out, _ = run(capsys, "eval", "--d", "3", "a b", "11")
    assert (code, out.strip()) == (0, "33")
    code, out, _ = run(capsys, "eval", "--d", "3", "a", "")
    assert (code, out.strip()) == (0, "")
    code, out, _ = run(capsys, "section", "--d", "3", "a b c", "2")
    assert (code, out.strip()) == (0, "b a")
    code, out, _ = run(capsys, "section", "--d", "3", "a a'", "1")
    assert (code, out.strip()) == (0, "e")


def test_expsum(capsys):
    code, out, _ = run(capsys, "expsum", "--d", "3", "a b' a c^2")
    assert (code, out.strip()) == (0, "2 -1 2")


def test_expsum_batch(capsys, tmp_path):
    path = tmp_path / "batch.txt"
    path.write_text("a\nb' b'\n")
    code, out, _ = run(capsys, "expsum", "--d", "3", "--words-file", str(path))
    assert code == 0
    assert out.splitlines() == ["1 0 0", "0 -2 0"]


def test_order_probe(capsys):
    code, out, _ = run(
        capsys, "order-probe", "--d", "3", "b' b' c' b c a' b a", "--max-power", "10"
    )
    assert (code, out.strip()) == (0, "finite 3")
    code, out, _ = run(capsys, "order-probe", "--d", "3", "a b c", "--max-power", "8")
    assert (code, out.strip()) == (0, "unknown-beyond 8")


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "--d", "3", "3")
    assert (code, out.strip()) == (0, "27")
    code, out, _ = run(capsys, "orbit", "--d", "5", "2")
    assert (code, out.strip()) == (0, "25")


def test_portrait(capsys):
    code, out, _ = run(capsys, "portrait", "--d", "3", "a b", "1")
    assert code == 0
    assert out.splitlines() == [
        "(1 3 2)",
        "  1: (1 3 2) a b",
        "  2: (2 3) b",
        "  3: (1 3) c",
    ]


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog", "--d", "3", "--name", "h_3")
    assert (code, out.strip()) == (0, "a b c b")
    code, out, _ = run(capsys, "catalog", "--d", "4")
    lines = out.splitlines()
    assert "g = a1 a2 a3 a4" in lines
    assert any(line.startswith("w4 = ") for line in lines)
    code, _, err = run(capsys, "catalog", "--d", "4", "--name", "xi_1")
    assert code == 2 and "xi_1" in err


def test_free_semigroup_command(capsys):
    code, out, _ = run(capsys, "free-semigroup", "--d", "3", "--max-len", "3")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "words=39" in out


def test_verify_paper_tsv(capsys):
    code, out, _ = run(capsys, "verify-paper", "--d", "3", "--max-len", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    for line in lines:
        check_id, status, detail = line.split("\t")
        assert status == "PASS" and check_id and detail


def test_verify_paper_keeps_skip_lines(capsys):
    code, out, _ = run(capsys, "verify-paper", "--d", "4", "--max-len", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert sum(1 for line in lines if "\tSKIP\t" in line) == 5


def test_usage_errors(capsys):
    assert run(capsys, "identity", "x y z")[0] == 2  # no --d
    assert run(capsys, "identity", "--d", "12", "a")[0] == 2
    assert run(capsys, "identity", "--d", "3", "zz")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "identity", "--d", "3", "--max-nodes", "0", "a")[0] == 2


def test_env_budget_is_used_and_flag_wins(capsys, monkeypatch):
    # deciding a'^2 b' a^2 b descends into at least one section
    deep = "a'^2 b' a^2 b"
    monkeypatch.setenv("ARBORA_MAX_NODES", "1")
    code, _, err = run(capsys, "identity", "--d", "3", deep)
    assert code == 2 and "nodes" in err
    code, out, _ = run(
        capsys, "identity", "--d", "3", deep, "--max-nodes", "100000"
    )
    assert code == 0 and out.splitlines()[0] == "nonidentity"
    monkeypatch.setenv("ARBORA_MAX_NODES", "junk")
    assert run(capsys, "identity", "--d", "3", "a")[0] == 2


def test_custom_table_file(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(format_table(build_table(3)))
    code, out, err = run(capsys, "section", "--table", str(path), "a b c", "2")
    assert code == 0
    assert out.strip() == "b a"
    assert "warning" not in err  # one-letter sections: the search terminates
    code, _, err = run(capsys, "eval", "--d", "4", "--table", str(path), "a", "1")
    assert code == 2 and "conflicts" in err


def test_termination_warning_only_for_long_sections(capsys, tmp_path):
    readme = tmp_path / "readme.txt"
    readme.write_text("x = (e, e, x) (1 2 3)\ny = (y, e, e) ()\nz = (e, z, e) (1 3)\n")
    code, out, err = run(capsys, "identity", "--table", str(readme), "x")
    assert (code, out.splitlines()[0], err) == (0, "nonidentity", "")
    long = tmp_path / "long.txt"
    long.write_text("x = (e, e, x y) (1 2 3)\ny = (y, e, e) ()\nz = (e, z, e) (1 3)\n")
    code, _, err = run(capsys, "eval", "--table", str(long), "x", "1")
    assert code == 0 and "warning" in err and "longer than one letter" in err


def test_table_names_override_aliases(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("x = (e, e, x) (1 2 3)\ny = (y, e, e) ()\nz = (e, z, e) (1 3)\n")
    code, out, _ = run(capsys, "eval", "--table", str(path), "x x", "1")
    assert code == 0 and out.strip() == "3"
    code, _, _ = run(capsys, "identity", "--table", str(path), "a")
    assert code == 2  # canonical names are not valid for a custom table

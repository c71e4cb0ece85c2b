import doctest
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import arbora
from arbora.cli import _parser, build_parser, main
from arbora.errors import BadVertex
from arbora.family import build_table
from arbora.tree import format_table, level_permutation, portrait
from arbora.words import Word


README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser(capsys):
    # the parser is built once per process; repeated calls answer a usage
    # error and --help as a freshly built parser does
    fresh = build_parser()
    with pytest.raises(SystemExit) as info:
        fresh.parse_args(["identity", "--d"])
    assert info.value.code == 2
    usage = capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        fresh.parse_args(["--help"])
    assert info.value.code == 0
    help_text = capsys.readouterr().out
    for _ in range(2):
        assert run(capsys, "identity", "--d") == (2, "", usage)
        assert run(capsys, "--help") == (0, help_text, "")
        assert run(capsys, "identity", "--d", "3", "a a'")[0] == 0
    assert _parser() is _parser()


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


@pytest.mark.parametrize("command", ["identity", "expsum"])
def test_a_word_and_a_words_file_are_refused_together(capsys, tmp_path, command):
    # the file's words would be decided and the word silently dropped
    path = tmp_path / "words.txt"
    path.write_text("b\n")
    assert run(capsys, command, "--d", "3", "--words-file", str(path), "a") == (
        2, "", "error: give a word or --words-file, not both\n")


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


def test_a_negative_level_is_one_error_everywhere(capsys):
    table = build_table(3)
    a = Word(table.alphabet, (1,))
    for call in (level_permutation, portrait):
        with pytest.raises(BadVertex, match="^level must be nonnegative, got -1$"):
            call(table, a, -1)
    code, out, err = run(capsys, "orbit", "--d", "3", "-1")
    assert (code, out, err) == (2, "", "error: level must be nonnegative, got -1\n")


def test_orbit_refuses_a_huge_level_at_once(capsys):
    # the level is checked against the vertex cap before the vertex is
    # built: the level-10**7 vertex alone would take 80 MB
    start = time.monotonic()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "orbit", "--d", "3", "10000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 1.0
    assert peak < 10**7
    assert (code, out) == (2, "")
    assert err == "error: 3**10000000 vertices exceed the cap of 1000000\n"


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


def test_pair_budget_stops_the_sweep_early():
    # the candidate pairs pass the budget among the length-10 words, so
    # the length-11 words are never made; enumerating all 265,719 words up
    # to length 11 before counting held about 100 MB.  The child reads its
    # own peak from VmHWM: Linux carries ru_maxrss across execve, so that
    # would include the peak of the test process that starts the child
    script = (
        "import sys\n"
        "from arbora.cli import main\n"
        "code = main(['free-semigroup', '--d', '3', '--max-len', '11'])\n"
        "with open('/proc/self/status') as f:\n"
        "    print(next(l.split()[1] for l in f if l.startswith('VmHWM:')))\n"
        "sys.exit(code)\n"
    )
    src = str(Path(arbora.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: more than 1000000 equality checks needed\n"
    assert int(proc.stdout) < 60 * 1024  # VmHWM is in kB


def test_verify_paper_tsv(capsys):
    code, out, _ = run(capsys, "verify-paper", "--d", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    for line in lines:
        check_id, status, detail = line.split("\t")
        assert status == "PASS" and check_id and detail


def test_verify_paper_keeps_skip_lines(capsys):
    code, out, _ = run(capsys, "verify-paper", "--d", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert sum(1 for line in lines if "\tSKIP\t" in line) == 5
    # no check samples words, so there is no length to set
    assert run(capsys, "verify-paper", "--d", "4", "--max-len", "6")[0] == 2


def test_usage_errors(capsys):
    assert run(capsys, "identity", "x y z")[0] == 2  # no --d
    assert run(capsys, "identity", "--d", "12", "a")[0] == 2
    assert run(capsys, "identity", "--d", "3", "zz")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "identity", "--d", "3", "--max-nodes", "0", "a")[0] == 2


@pytest.mark.parametrize("command", ["catalog", "free-semigroup", "verify-paper"])
def test_family_commands_need_d(capsys, command):
    assert run(capsys, command) == (2, "", "error: --d is required\n")


@pytest.mark.parametrize(
    "option, make",
    [
        ("--words-file", lambda path: None),
        ("--table", lambda path: path.mkdir()),
        ("--words-file", lambda path: path.write_bytes(b"a \xff b\n")),
    ],
    ids=["missing", "directory", "not utf-8"],
)
def test_an_unreadable_input_file_is_an_error(capsys, tmp_path, option, make):
    # exit 1 means a verification failure, so a file that cannot be read
    # is malformed input (exit 2), with no traceback
    path = tmp_path / "input"
    make(path)
    word = ("a",) if option == "--table" else ()
    code, out, err = run(capsys, "identity", "--d", "3", option, str(path), *word)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {option}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("order-probe", "--d", "3", "a", "--max-power", "0"),
        ("order-probe", "--d", "3", "a", "--max-power", "-5"),
        ("free-semigroup", "--d", "3", "--max-len", "0"),
        ("free-semigroup", "--d", "3", "--max-len", "-2"),
    ],
)
def test_counts_below_one_are_usage_errors(capsys, argv):
    # exit 1 means a verification failure, so a bad count exits 2
    option, value = argv[-2:]
    assert run(capsys, *argv) == (2, "", f"error: {option} must be positive, got {value}\n")


def test_vertices_of_a_ten_generator_table(capsys, tmp_path):
    # at degree 10 a vertex's entries are dot-separated: 1010 could be
    # (10, 10) or (1, 0, 1, 0)
    path = tmp_path / "ten.txt"
    rows = ["g0 = (g0, e, e, e, e, e, e, e, e, g1) (1 10)"]
    rows += [f"g{i} = ({', '.join(['e'] * 10)}) ()" for i in range(1, 10)]
    path.write_text("\n".join(rows) + "\n")
    table = ("--table", str(path))
    assert run(capsys, "eval", *table, "g0", "1.1") == (0, "10.10\n", "")
    assert run(capsys, "eval", *table, "g0", "10.2") == (0, "1.2\n", "")
    assert run(capsys, "eval", *table, "g0", "") == (0, "\n", "")
    assert run(capsys, "section", *table, "g0", "10") == (0, "g1\n", "")
    assert run(capsys, "section", *table, "g0", "1.10") == (0, "g1\n", "")
    assert run(capsys, "eval", *table, "g0", "11") == (
        2, "", "error: vertex entry '11' outside 1..10\n"
    )


def test_max_nodes_flag_sets_the_budget(capsys):
    # a'^12 b'^12 a^12 b^12 fixes level 3, so deciding it descends into
    # at least one section
    deep = "a'^12 b'^12 a^12 b^12"
    code, _, err = run(capsys, "identity", "--d", "3", deep, "--max-nodes", "1")
    assert code == 2 and "nodes" in err
    code, out, _ = run(
        capsys, "identity", "--d", "3", deep, "--max-nodes", "100000"
    )
    assert code == 0 and out.splitlines()[0] == "nonidentity"
    code, out, _ = run(capsys, "identity", "--d", "3", deep)
    assert code == 0 and out.splitlines()[0] == "nonidentity"


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


def readme_examples():
    """The arguments of each ``$ arbora ...`` line of README.md and the
    output lines shown under it."""
    lines = README.read_text(encoding="utf-8").splitlines()
    examples = []
    for n, line in enumerate(lines):
        if line.startswith("$ arbora "):
            argv = shlex.split(line, comments=True)[2:]
            shown = itertools.takewhile(
                lambda out: not out.startswith(("$", "```")), lines[n + 1 :]
            )
            examples.append(pytest.param(argv, list(shown), id=" ".join(argv)))
    return examples


@pytest.mark.parametrize("argv, shown", readme_examples())
def test_readme_examples_match_the_program(capsys, argv, shown):
    head = None
    if "|" in argv:
        # the only pipe the README uses is ``| head -N``
        argv, (tool, count) = argv[: argv.index("|")], argv[argv.index("|") + 1 :]
        assert tool == "head"
        head = int(count.lstrip("-"))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[:head] == shown


def test_readme_library_tour_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.failed == 0 and result.attempted


GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.json"


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN.read_text()), ids=lambda case: " ".join(case["argv"])
)
def test_golden_output(capsys, case):
    # verify-paper at d = 3..9 and two free-semigroup sweeps: every status,
    # detail, count and exit code the verifier reports stays as recorded
    code, out, err = run(capsys, *case["argv"])
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])

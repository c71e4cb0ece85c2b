import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import arbora
from arbora import (
    Alphabet,
    Decision,
    Finite,
    Permutation,
    RecursionTable,
    UnknownBeyond,
    Word,
    build_table,
    catalog,
    is_identity,
    portrait,
    wreath,
)
from arbora import verifier
from arbora.verifier import Report

A3 = Alphabet(3)
T3 = build_table(3)
TABLE_TEXT = (
    f"RecursionTable(alphabet={A3!r}, names={T3.names!r}, "
    f"sections={T3.sections!r}, perms={T3.perms!r})"
)

# (build a value, its repr, one of its fields, a value of another type
# with the same fields, which must compare unequal)
VALUES = [
    (lambda: Alphabet(3), "Alphabet(d=3)", "d", (3,)),
    (
        lambda: Word(A3, (1, 2)),
        "Word(alphabet=Alphabet(d=3), letters=(1, 2))",
        "letters",
        (A3, (1, 2)),
    ),
    (
        lambda: Permutation((2, 1, 3)),
        "Permutation(images=(2, 1, 3))",
        "images",
        ((2, 1, 3),),
    ),
    (
        lambda: wreath(T3, Word(A3, (1, 2))),
        "WreathRecursion(sections=(Word(alphabet=Alphabet(d=3), letters=(1, 2)), "
        "Word(alphabet=Alphabet(d=3), letters=(2,)), "
        "Word(alphabet=Alphabet(d=3), letters=(3,))), "
        "perm=Permutation(images=(3, 1, 2)))",
        "perm",
        None,
    ),
    (
        lambda: portrait(T3, Word(A3, (1,)), 1),
        "Portrait(perm=Permutation(images=(2, 1, 3)), children=("
        "Portrait(perm=Permutation(images=(2, 1, 3)), children=(), "
        "residual=Word(alphabet=Alphabet(d=3), letters=(1,))), "
        "Portrait(perm=Permutation(images=(1, 3, 2)), children=(), "
        "residual=Word(alphabet=Alphabet(d=3), letters=(2,))), "
        "Portrait(perm=Permutation(images=(1, 2, 3)), children=(), "
        "residual=Word(alphabet=Alphabet(d=3), letters=()))), residual=None)",
        "children",
        None,
    ),
    (lambda: build_table(3), TABLE_TEXT, "perms", None),
    (
        lambda: Decision(True, 1, 1),
        "Decision(is_identity=True, nodes_explored=1, max_depth=1)",
        "nodes_explored",
        (True, 1, 1),
    ),
    (lambda: Finite(3), "Finite(order=3)", "order", UnknownBeyond(3)),
    (lambda: UnknownBeyond(3), "UnknownBeyond(bound=3)", "bound", Finite(3)),
]


@pytest.mark.parametrize(
    "make, text, field, stranger", VALUES, ids=[row[1].split("(")[0] for row in VALUES]
)
def test_value_types_are_immutable_values(make, text, field, stranger):
    value, twin = make(), make()
    assert value is not twin
    assert value == twin and hash(value) == hash(twin)
    assert value != stranger
    assert repr(value) == text
    # keyword construction from the repr gives the value back
    assert eval(text, dict(vars(arbora))) == value
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value


def test_copied_tables_rebuild_their_rows():
    xi = catalog(3)["xi_1"]
    # rows are made on first use, so compare every letter's row and the
    # pair rows of a fixed word, level by level
    letters = (1, -2, 3, 3, -1, 2)
    keys = (0, *range(1, 4), *range(-3, 0), *zip(letters, letters[1:]))
    for table in (copy.deepcopy(T3), pickle.loads(pickle.dumps(T3))):
        assert len(table._rows) == len(T3._rows) == 3
        for rows, twin in zip(table._rows, T3._rows):
            assert [rows[key] for key in keys] == [twin[key] for key in keys]
        assert is_identity(table, xi**3).is_identity
        assert not is_identity(table, xi).is_identity
    # the caches take no part in equality
    rebuilt = RecursionTable(A3, T3.names, T3.sections, T3.perms)
    assert rebuilt == T3 and hash(rebuilt) == hash(T3)


def test_reports_stay_mutable_records():
    report = Report("x", "pass", "fine")
    assert report.data == {} and report.data is not Report("x", "pass", "fine").data
    assert repr(report) == "Report(check_id='x', status='pass', detail='fine', data={})"
    report.status = "fail"
    assert report == Report("x", "fail", "fine", {})
    with pytest.raises(TypeError):
        hash(report)
    assert pickle.loads(pickle.dumps(report)) == report


def test_importing_arbora_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize: about a quarter
    # of what importing arbora cost with them.  The library's set-up (the
    # family tables with their catalogs, and a table file) leaves out the
    # verifier and the CLI too, and array, which only rows past 256
    # vertices need.
    script = (
        "import sys\n"
        "import arbora\n"
        "for d in range(3, 10):\n"
        "    arbora.build_table(d)\n"
        "    arbora.catalog(d)\n"
        "arbora.load_table('x = (e, e, x) (1 2 3)\\ny = (y, e, e) ()\\nz = (e, z, e) (1 3)')\n"
        "first = {'arbora.verifier', 'arbora.cli', 'array', 'dataclasses', 'inspect'}\n"
        "first &= set(sys.modules)\n"
        "import arbora.cli\n"
        "print(sorted(first), sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    src = str(Path(arbora.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n"


def test_sources_parse_at_the_declared_python_floor():
    # pyproject.toml's requires-python; only newer interpreters may run
    # the tests, so the grammar of the floor is checked by ast
    root = Path(arbora.__file__).resolve().parent
    pyproject = (root.parent.parent / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject
    sources = sorted(root.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_constant(text: str, name: str):
    """The literal that bench/run.py assigns to a module-level name."""
    return next(
        ast.literal_eval(node.value)
        for node in ast.parse(text).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name
    )


def test_the_benchmark_reads_its_names_from_the_package_root():
    # bench/run.py cuts verify-suite calls at the SPLIT_AT functions it
    # finds on ``arbora`` and silently skips a missing one, which would
    # change what verify_s measures
    text = (BENCH / "run.py").read_text(encoding="utf-8")
    split_at = _bench_constant(text, "SPLIT_AT")
    others = ("load_table", "parse_word", "Word", "cyclic_normalize")
    sources = text + (BENCH / "tables.py").read_text(encoding="utf-8")
    assert split_at and all(f".{name}" in sources for name in others)
    assert [name for name in (*split_at, *others) if not hasattr(arbora, name)] == []


def test_the_benchmark_times_every_check_by_its_id():
    # bench/run.py times each check through check_<id> for the ids of its
    # own CHECK_IDS and silently skips an id with no such function, so a
    # renamed check would lose its per-layer span
    text = (BENCH / "run.py").read_text(encoding="utf-8")
    check_ids = _bench_constant(text, "CHECK_IDS")
    assert check_ids == verifier.CHECK_IDS
    assert [c for c in check_ids if not hasattr(verifier, f"check_{c}")] == []

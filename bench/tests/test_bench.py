"""The benchmark's own tests, at toy sizes: python3 -m pytest bench/tests -q"""

import gc
import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import arbora  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from reference import Reference, reduce_letters  # noqa: E402
from tables import README_TABLE  # noqa: E402


def test_reference_readme_table():
    ref = Reference(arbora.load_table(README_TABLE))
    for word in [(2,), (3, 3)]:
        assert ref.moved_vertex([(word, 1)]) is None
        assert ref.closure_proves_identity(word)
    assert ref.moved_vertex([((1,), 1)]) == (1,)
    assert not ref.closure_proves_identity((1,))


def test_reference_family_relators():
    ref3 = Reference(arbora.build_table(3))
    xi_cubed = corpus.power(corpus.xi(3, 1), 3)
    assert ref3.moved_vertex([(xi_cubed, 1)]) is None
    assert ref3.closure_proves_identity(xi_cubed)
    assert ref3.moved_vertex([((1,), 1)]) == (1,)
    assert ref3.moved_vertex([((1,), 4), ((2,), -4)]) is not None
    w4 = (2, 1, -3, 2, -1, 4, -2, -1)
    assert Reference(arbora.build_table(4)).closure_proves_identity(w4)


def test_reference_matches_arbora_action():
    table = arbora.build_table(5)
    ref = Reference(table)
    word = reduce_letters((1, -3, 4, 4, -2, 5, 1, -1, 3))
    images = ref.word_perm(word, 2)
    for index, image in enumerate(images):
        v = ref.vertex(index, 2)
        assert arbora.act_vertex(table, arbora.Word(table.alphabet, word), v) == \
            ref.vertex(image, 2)


def test_benchmark_json_names_match():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_TABLES)


@pytest.fixture
def toy(monkeypatch):
    monkeypatch.setattr(corpus, "N_RANDOM", 30)
    monkeypatch.setattr(corpus, "N_STABILIZER", 5)
    monkeypatch.setattr(corpus, "N_COMMUTATOR", 5)
    monkeypatch.setattr(corpus, "N_IDENTITY", 6)
    monkeypatch.setattr(corpus, "N_README", 6)
    monkeypatch.setattr(corpus, "CONJUGATOR_LENGTHS", (40,))
    monkeypatch.setattr(corpus, "POWER_EXPONENTS", (12,))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    # a traced run wraps functions in arbora's namespaces and freezes the
    # collector for the rest of its process; undo both for later tests
    saved = {name: dict(vars(m)) for name, m in sys.modules.items()
             if name == "arbora" or name.startswith("arbora.")}
    yield
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)
    gc.unfreeze()


def result_of(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", ["decide-batch", "long-words", "verify-suite"])
@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema(toy, workload, trace):
    res = result_of(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == list(expected)
    for name, metric in res["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    elif workload == "decide-batch":
        # the README-table misverdicts show in fail_ratio, not in failed
        assert res["metrics"]["fail_ratio"]["value"] > 0


def test_decision_without_shortcut_hits(toy, monkeypatch):
    @dataclass(frozen=True)
    class Lean:
        is_identity: bool
        nodes_explored: int
        max_depth: int

    real = arbora.is_identity

    def lean(table, word, *args):
        d = real(table, word, *args)
        return Lean(d.is_identity, d.nodes_explored, d.max_depth)

    monkeypatch.setattr(arbora, "is_identity", lean)
    res = result_of(["--workload", "long-words", "--seed", "1", "--seconds", "0.01",
                     "--trace", "1"])
    assert res["metrics"]["wordproblem.shortcut_hits"]["value"] is None
    assert res["metrics"]["wordproblem.nodes"]["value"] > 0


def test_grading_classes(toy):
    tables = {"d3": arbora.build_table(3), "readme": arbora.load_table(README_TABLE)}
    items = [
        corpus.Item("y", "readme", (2,), True, "construction", "readme-identity"),
        corpus.Item("a", "d3", (1,), False, "certificate", "random"),
        corpus.Item("a b", "d3", (1, 2), None, "none", "random"),
    ]
    ops = run.WordOps(arbora, tables, items)
    assert ops.grade(0, False) == "known-defect"
    assert ops.grade(0, True) is None
    assert ops.grade(1, True) == "misverdict"
    assert ops.grade(2, True) is None and ops.grade(2, False) is None


def test_segments_keep_their_fastest():
    passes = run.Passes(2)
    passes.record(0, run.array("q", (5, 9, 4)))
    passes.record(1, run.array("q", (7,)))
    passes.count = 1
    passes.record(0, run.array("q", (6, 3, 4)))
    passes.record(1, run.array("q", (2, 2)))  # segments no longer line up
    assert list(passes.best[0]) == [5, 3, 4]
    assert list(passes.best[1]) == [4]
    assert passes.latencies_ns() == [12, 4]


def test_verify_calls_are_cut_at_arbora_calls(toy):
    tables = {"d4": arbora.build_table(4)}
    calls = corpus.verify_suite(1, Reference(tables["d4"]))
    ops = run.CliOps(arbora, calls)
    index = next(i for i, c in enumerate(calls) if c.argv[0] == "free-semigroup")
    start = time.perf_counter_ns()
    ops.run(index)
    end = time.perf_counter_ns()
    segments = ops.segments(start, end)
    assert len(segments) > 2 and sum(segments) == end - start
    assert min(segments) >= 0


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

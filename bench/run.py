"""arbora benchmark: one workload per fresh interpreter, closed loop.

    python3 bench/run.py --workload decide-batch --seed 1 --seconds 20 --trace 0

One client sends one operation at a time and waits for its answer: a
text word -> verdict (decide-batch, long-words) or one ``cli.main`` call
(verify-suite).  The run repeats passes over the seeded corpus until
``--seconds`` have elapsed.  Every labelled answer is graded.  Each
operation's latency is its fastest over the run's passes, and every time
and rate is taken from those latencies: on a shared host the quiet
stretches between slowdowns are short, and a short operation repeated
over the whole run meets one at least once.  A verify-suite call lasts
0.1-0.6 s, so it is cut into segments at its calls to ``SPLIT_AT``
functions, and each segment counts at its fastest (README.md has the
measurements).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (README.md in this directory defines each); with
``--trace 1`` they are the per-layer ones, taken from spans that this
benchmark records around calls into arbora's public functions, and the
spans of set-up and the first traced pass are written to
``bench/out/spans-<workload>-<seed>.csv``.
"""

from __future__ import annotations

import argparse
import gc
from array import array
import io
import json
import operator
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain

import corpus
from reference import Reference
from spans import Tracer, replace_everywhere, totals, write_csv
from tables import SRC, WORKLOAD_TABLES, name_map, setup_tables

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 11
KNOWN_DEFECT = "known-defect"
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("decide_per_s", "1/s"),
    ("decide_p50_us", "us"),
    ("decide_p99_us", "us"),
    ("letters_per_s", "1/s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
)

# The verifier's check ids, listed here rather than read from arbora so
# that the metric names stay fixed whatever a later version defines.
CHECK_IDS = (
    "exponent_laws", "section_tables", "lemma_chains", "noncontracting_witness",
    "transitivity", "fractal_witnesses", "branch_witnesses", "free_semigroup",
    "hk_and_branch", "parity_and_even_d",
)

SPAN_METRICS = (
    "words.parse_word", "words.word", "words.cyclic_normalize",
    "tree.wreath", "tree.word_permutation", "tree.level_permutation",
    "wordproblem.is_identity", "family.build_table", "family.catalog",
    *(f"verifier.{c}" for c in CHECK_IDS), "cli.main", "cli.self",
)
COUNT_METRICS = (
    "words.letters_in", "tree.letters_folded", "wordproblem.nodes",
    "wordproblem.max_depth", "wordproblem.shortcut_hits",
    "verifier.pairs_checked", "verifier.words_enumerated",
)
PER_LAYER = (
    *((f"{n}_s", "s") for n in SPAN_METRICS),
    *((n, "count") for n in COUNT_METRICS),
    ("trace.overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
)

# arbora's public functions at whose every entry and exit a verify-suite
# call is cut into segments: they are what the verifier calls in its loops,
# so no segment lasts more than a few milliseconds (README.md, "How it
# drives arbora").  A name a later version drops is skipped.
SPLIT_AT = (
    "build_table", "catalog", "is_identity", "are_equal", "order_probe",
    "word_permutation", "level_permutation", "wreath", "section", "act_vertex",
    "vertex_orbit", "exponent_vector",
)

# Decision attributes read leniently: a counter the program no longer
# returns is reported as absent (null), not as a crash.  max_depth is a
# maximum over the pass, the others are sums.
DECISION_COUNTERS = (
    ("nodes_explored", "wordproblem.nodes", operator.add),
    ("max_depth", "wordproblem.max_depth", max),
    ("shortcut_hits", "wordproblem.shortcut_hits", operator.add),
)


def import_arbora():
    if not os.path.isfile(os.path.join(SRC, "arbora", "__init__.py")):
        raise SystemExit(f"error: arbora sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import arbora
    import arbora.cli

    return arbora


def probe_setup(keys) -> float:
    """Median set-up seconds over fresh interpreters."""
    script = os.path.join(HERE, "tables.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, script, *keys], capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# operations


class WordOps:
    """decide-batch and long-words: text word -> verdict."""

    def __init__(self, arbora, tables, items) -> None:
        self.arbora = arbora
        self.tables = tables
        self.items = items
        self.names = {key: name_map(key) for key in tables}
        self.absent: set[str] = set()

    def letters(self, index: int) -> int:
        return len(self.items[index].raw)

    def segments(self, start: int, end: int) -> array:
        """A word's decision is short enough to be timed whole."""
        return array("q", (end - start,))

    def run(self, index: int) -> bool:
        item = self.items[index]
        table = self.tables[item.table]
        word = self.arbora.parse_word(item.text, table.alphabet, self.names[item.table])
        return self.arbora.is_identity(table, word).is_identity

    def run_traced(self, index: int, tracer) -> bool:
        a, item, call = self.arbora, self.items[index], tracer.call
        table = self.tables[item.table]
        d = table.alphabet.d
        word = call("words.parse_word", a.parse_word, item.text, table.alphabet,
                    self.names[item.table])
        call("words.word", a.Word, table.alphabet, item.raw)
        if word:
            call("words.cyclic_normalize", a.cyclic_normalize, word)
        rec = call("tree.wreath", a.wreath, table, word)
        call("tree.word_permutation", a.word_permutation, table, word)
        call("tree.level_permutation", a.level_permutation, table, word, 2)
        decision = call("wordproblem.is_identity", a.is_identity, table, word)
        counts = tracer.counts
        counts["words.letters_in"] += len(item.raw)
        # wreath and word_permutation fold the word once per slot; level 2
        # folds it once per slot and each first-level section once per slot
        counts["tree.letters_folded"] += 3 * d * len(word) + d * sum(
            len(s) for s in rec.sections)
        for attr, metric, combine in DECISION_COUNTERS:
            value = getattr(decision, attr, None)
            if value is None:
                self.absent.add(metric)
            else:
                counts[metric] = combine(counts[metric], value)
        return decision.is_identity

    def grade(self, index: int, verdict) -> str | None:
        """Failure class of one answer, or None when it is right or unlabelled."""
        item = self.items[index]
        if item.identity is None or verdict == item.identity:
            return None
        if item.table == "readme" and item.identity:
            # today's misverdicts on the README table, kept on purpose as
            # the baseline a sound decision core must bring to zero
            return KNOWN_DEFECT
        return "misverdict"


class CliOps:
    """verify-suite: one in-process ``cli.main`` call with output captured."""

    def __init__(self, arbora, calls) -> None:
        self.arbora = arbora
        self.items = calls
        self.absent: set[str] = set()
        # clock readings at every entry to and exit from a SPLIT_AT
        # function during the current call, kept compact so that they add
        # little to peak_rss_mb
        self.marks = array("q")
        for name in SPLIT_AT:
            fn = getattr(arbora, name, None)
            if fn is not None:
                replace_everywhere(fn, self._marked(fn))

    def _marked(self, fn):
        mark, clock = self.marks.append, time.perf_counter_ns

        def marked(*args, **kwargs):
            mark(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                mark(clock())

        return marked

    def letters(self, index: int) -> int:
        return self.items[index].letters

    def segments(self, start: int, end: int) -> array:
        """The call's time, cut at every mark."""
        marks = self.marks
        return array("q", map(operator.sub, chain(marks, (end,)), chain((start,), marks)))

    def run(self, index: int):
        del self.marks[:]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.arbora.cli.main(list(self.items[index].argv))
        return code, out.getvalue()

    def run_traced(self, index: int, tracer):
        return tracer.call("cli.main", self.run, index)

    def grade(self, index: int, answer) -> str | None:
        """Exit status and every line's status word must be the expected ones."""
        call = self.items[index]
        code, text = answer
        if code != call.exit_code:
            return "exit-status"
        lines = text.splitlines()
        for line in lines:
            fields = line.split("\t")
            status = fields[1] if len(fields) > 1 else (line.split() or [""])[-1]
            if status not in call.statuses:
                return "output"
        return None if lines else "output"


# ---------------------------------------------------------------------------
# the closed loop


class Passes:
    """One measurement phase: for each operation, each of its segments at
    its fastest over the phase's passes, and the grading tally of every
    answer."""

    def __init__(self, n: int) -> None:
        self.best: list[array] = [array("q")] * n
        self.count = 0
        self.rss_mb = 0.0
        self.attempted = 0
        self.failures: Counter = Counter()
        self.errors: Counter = Counter()

    def record(self, index: int, segments: array) -> None:
        best = self.best[index]
        if not self.count:
            self.best[index] = segments
        elif len(segments) == len(best):
            self.best[index] = array("q", map(min, best, segments))
        else:
            # the operation did not repeat its calls: keep its total only
            self.best[index] = array("q", (min(sum(best), sum(segments)),))

    def latencies_ns(self) -> list[int]:
        return [sum(b) for b in self.best]

    def pass_s(self) -> float:
        """One pass with every operation at its fastest."""
        return sum(self.latencies_ns()) / 1e9


def run_passes(ops, seconds: float, tracer=None, on_pass=None) -> Passes:
    """Repeat passes over every operation until seconds have elapsed."""
    n = len(ops.items)
    out = Passes(n)
    clock = time.perf_counter_ns
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.counts.clear()
        for i in range(n):
            t0 = clock()
            try:
                if tracer is None:
                    answer = ops.run(i)
                else:
                    tracer.request = i
                    answer = tracer.call("request", ops.run_traced, i, tracer)
                failure = None
            except Exception as exc:  # a raising operation is a failed one
                answer, failure = None, "raised"
                out.errors[type(exc).__name__] += 1
            out.record(i, ops.segments(t0, clock()))
            failure = failure or ops.grade(i, answer)
            if failure:
                out.failures[failure] += 1
        out.attempted += n
        out.count += 1
        if not out.rss_mb:
            # the high-water mark after one pass: later passes repeat the
            # same work, but the heap can keep growing in steps across
            # repeats, which would tie the figure to how many passes fit
            out.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if on_pass is not None:
            on_pass()
        if time.perf_counter() - start >= seconds:
            return out


def end_to_end(ops, passes: Passes, setup_s: float) -> dict:
    latencies = passes.latencies_ns()
    n = len(latencies)
    q = (statistics.quantiles(latencies, n=100, method="inclusive") if n > 1
         else latencies * 99)
    pass_s = passes.pass_s()
    return {
        "setup_s": setup_s,
        "decide_per_s": n / pass_s,
        "decide_p50_us": q[49] / 1e3,
        "decide_p99_us": q[98] / 1e3,
        "letters_per_s": sum(ops.letters(i) for i in range(n)) / pass_s,
        "verify_s": pass_s,
        "peak_rss_mb": passes.rss_mb,
    }


def traced_run(arbora, ops, tracer, setup_spans, seconds: float, span_path: str):
    """Half the time untraced, then half traced; per-layer figures."""
    plain = run_passes(ops, seconds / 2)
    for check_id in CHECK_IDS:
        fn = getattr(arbora.verifier, f"check_{check_id}", None)
        if fn is not None:
            tracer.patch(fn, f"verifier.{check_id}", lambda rep: count_report(tracer, rep))
    tracer.patch(arbora.family.build_table, "family.build_table")
    tracer.patch(arbora.family.catalog, "family.catalog")

    per_pass: list[Counter] = []
    first: list = []

    def on_pass():
        spans = tracer.take()
        if not first:
            first.extend(spans)
        figures = totals(spans)
        figures.update(tracer.counts)
        per_pass.append(figures)

    traced = run_passes(ops, seconds / 2, tracer, on_pass)
    setup_totals = totals(setup_spans)
    metrics = {}
    for name in SPAN_METRICS:
        metrics[f"{name}_s"] = setup_totals[name] + statistics.median(p[name] for p in per_pass)
    for name in COUNT_METRICS:
        absent = name in ops.absent
        metrics[name] = None if absent else statistics.median(p[name] for p in per_pass)
    metrics["trace.overhead_ratio"] = traced.pass_s() / plain.pass_s()
    offset = len(setup_spans)
    write_csv(span_path, setup_spans + [
        (name, s, e, parent + offset if parent >= 0 else -1, req)
        for name, s, e, parent, req in first])
    return plain, traced, metrics


def count_report(tracer, report) -> None:
    data = getattr(report, "data", None) or {}
    tracer.counts["verifier.words_enumerated"] += data.get("words", 0)
    tracer.counts["verifier.pairs_checked"] += data.get("pairs_checked", 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_TABLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    arbora = import_arbora()
    keys = WORKLOAD_TABLES[args.workload]
    setup_s = probe_setup(keys) if not args.trace else None
    tracer = Tracer()
    call = tracer.call if args.trace else None
    tables = setup_tables(arbora, keys, call)
    setup_spans = tracer.take()
    if args.workload == "verify-suite":
        ops = CliOps(arbora, corpus.verify_suite(args.seed, Reference(tables["d4"])))
    else:
        refs = {key: Reference(t) for key, t in tables.items()}
        items = (corpus.decide_batch(args.seed, refs) if args.workload == "decide-batch"
                 else corpus.long_words(args.seed, refs["d3"]))
        ops = WordOps(arbora, tables, items)
    # the corpus lives for the whole run: keep it out of the collector's scans
    gc.collect()
    gc.freeze()

    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        span_path = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.csv")
        plain, traced, values = traced_run(arbora, ops, tracer, setup_spans,
                                           args.seconds, span_path)
        phases = (plain, traced)
        units = PER_LAYER
    else:
        plain = run_passes(ops, args.seconds)
        values = end_to_end(ops, plain, setup_s)
        phases = (plain,)
        units = END_TO_END

    attempted = sum(p.attempted for p in phases)
    failures = sum((p.failures for p in phases), Counter())
    errors = sum((p.errors for p in phases), Counter())
    # the README-table misverdicts are a known defect of the program, not
    # a failure of the run: fail_ratio and the summary count them, failed
    # and correct count every other failure
    known = failures.pop(KNOWN_DEFECT, 0)
    failed = sum(failures.values())
    if args.trace:
        values["fail_ratio"] = (failed + known) / attempted
    report(args, values, units, attempted, failed, known, failures, errors)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


def report(args, values, units, attempted, failed, known, failures, errors) -> None:
    """Human-readable summary on stderr."""
    err = sys.stderr
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}", file=err)
    for name, unit in units:
        value = values[name]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit}", file=err)
    print(f"  attempted={attempted} failed={failed} {KNOWN_DEFECT}={known} "
          f"fail_ratio={(failed + known) / attempted:.6g}", file=err)
    for kind, count in sorted(failures.items()):
        print(f"  failures[{kind}]={count}", file=err)
    for kind, count in sorted(errors.items()):
        print(f"  raised[{kind}]={count}", file=err)


if __name__ == "__main__":
    sys.exit(main())

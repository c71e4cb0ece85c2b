"""The tables each workload decides over, and the set-up probe.

Run as ``python3 bench/tables.py KEY...`` it times one fresh
interpreter's set-up: ``import arbora`` plus building the named tables
(``d3`` ... ``d9`` also build the catalog, ``readme`` loads the README
example table), and prints the seconds.  This file imports only modules
the interpreter has loaded at start-up, so the probe charges every other
import to arbora.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

README_TABLE = """\
x = (e, e, x) (1 2 3)
y = (y, e, e) ()
z = (e, z, e) (1 3)
"""

WORKLOAD_TABLES = {
    "decide-batch": ("d3", "d4", "d5", "readme"),
    "long-words": ("d3",),
    "verify-suite": tuple(f"d{d}" for d in range(3, 10)),
}


def name_map(key):
    """The names argument parse_word needs for a table: None for the family."""
    return {"x": 1, "y": 2, "z": 3} if key == "readme" else None


def setup_tables(arbora, keys, call=None):
    """Build every named table; the family arities also build their catalog.

    ``call(span_name, fn, *args)``, when given, makes each call (the
    tracer uses it to time set-up)."""
    if call is None:
        call = lambda name, fn, *args: fn(*args)
    out = {}
    for key in keys:
        if key == "readme":
            out[key] = arbora.load_table(README_TABLE)
        else:
            d = int(key[1:])
            out[key] = call("family.build_table", arbora.build_table, d)
            call("family.catalog", arbora.catalog, d)
    return out


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import arbora

    setup_tables(arbora, sys.argv[1:])
    print(time.perf_counter() - start)

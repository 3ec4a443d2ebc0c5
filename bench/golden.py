"""Write tests/golden.json, a digest of every default scenario run.

Usage, from the root of a fibermem checkout:

    python3 bench/golden.py

Each catalog scenario runs once through its runner on the default
configuration at seed 0; no CSV is written.  For each output column the
digest keeps its length, its sum, its largest |value| and ROWS evenly
spaced rows.  It keeps every summary value except run_fingerprint,
which hashes the exact input bits (tests/test_eit.py checks that a
repeated run reproduces it).  Floats are written by repr, so they read
back bit for bit.

tests/test_golden.py recomputes the digest through digest() and
compares it with the file.  Regenerate the file only with a change that
is meant to move the default outputs, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden.json")
ROWS = 8


def _column(values) -> dict:
    a = np.asarray(values, dtype=float)
    rows = np.unique(np.linspace(0, a.size - 1, ROWS).round().astype(int))
    return {"n": a.size, "sum": float(a.sum()), "max_abs": float(np.abs(a).max()),
            "rows": [[i, a[i]] for i in rows.tolist()]}


def digest() -> dict:
    """{scenario id: {"columns": {name: digest}, "summary": {key: value}}},
    in catalog order, as JSON reads it back (tuples become lists)."""
    from fibermem.config import DEFAULTS
    from fibermem.scenarios import list_scenarios

    out = {}
    for entry in list_scenarios():
        columns, summary = entry.runner(dict(DEFAULTS), 0)
        out[entry.scenario_id] = {
            "columns": {name: _column(values) for name, values in columns},
            "summary": {key: value for key, value in summary.items()
                        if key != "run_fingerprint"},
        }
    return json.loads(json.dumps(out))


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(GOLDEN, "w") as fh:
        json.dump(digest(), fh, indent=1)
        fh.write("\n")
    print("wrote %s" % GOLDEN)

"""The default scenario runs reproduce tests/golden.json within 1e-12.

bench/golden.py writes the file and holds digest(), which this test
calls, so both sides digest the runs the same way.  Column values and
sums compare within REL of the column's largest |value|, summary floats
within REL relative, and bools, ints and strings exactly.
"""

import importlib.util
import json
import os

import pytest

from fibermem.scenarios import list_scenarios

REL = 1e-12
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "golden", os.path.join(ROOT, "bench", "golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
SCENARIOS = [e.scenario_id for e in list_scenarios()]


@pytest.fixture(scope="module")
def reference():
    with open(golden.GOLDEN) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def fresh():
    return golden.digest()


def assert_close(got, want, tol, where):
    """got equals want, a float within tol and of the same type."""
    assert type(got) is type(want), (where, got, want)
    assert got == want or isinstance(want, float) and abs(got - want) <= tol, (
        where, got, want)


def test_golden_covers_the_catalog(fresh, reference):
    assert list(fresh) == list(reference) == SCENARIOS


@pytest.mark.parametrize("sid", SCENARIOS)
def test_default_run_matches_golden(fresh, reference, sid):
    got, want = fresh[sid], reference[sid]
    assert list(got["columns"]) == list(want["columns"])
    for name, col in want["columns"].items():
        new = got["columns"][name]
        tol = REL * col["max_abs"]
        assert new["n"] == col["n"], name
        assert len(new["rows"]) == len(col["rows"]), name
        for (i, g), (j, w) in zip(new["rows"], col["rows"]):
            assert i == j, name
            assert_close(g, w, tol, (name, i))
        for key in ("sum", "max_abs"):
            assert_close(new[key], col[key], tol, (name, key))
    assert list(got["summary"]) == list(want["summary"])
    for key, value in want["summary"].items():
        new = got["summary"][key]
        if isinstance(value, list):  # revival times
            assert len(new) == len(value), key
        else:
            new, value = [new], [value]
        for g, w in zip(new, value):
            assert_close(g, w, REL * abs(w) if isinstance(w, float) else 0.0, key)

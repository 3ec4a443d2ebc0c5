"""Property tests of config coercion at the set_key boundary."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibermem import config
from fibermem.config import (
    DEFAULTS, FINITE, GE0, GT0, GT1, HALF_TURN, config_digest, render_config, set_key,
)

FLOAT_KEYS = sorted(k for k, v in DEFAULTS.items() if isinstance(v, float))
INT_KEYS = sorted(
    k for k, v in DEFAULTS.items() if isinstance(v, int) and not isinstance(v, bool)
)
KEY_ALPHABET = "abcdefghijklmnopqrstuvwxyzMHGWK._-=0123456789 "
DOMAINS = {key: domain for key, (_, domain, _) in config._KEYS.items()}
REAL = dict(allow_nan=False, allow_infinity=False)
POWERS = "spectroscopy.powers_mW"  # the one key with a list domain


def inside(key):
    """Values of key's type that lie in its domain."""
    domain = DOMAINS[key]
    if domain == GT0:
        return st.floats(min_value=0.0, exclude_min=True, **REAL)
    if domain == GE0:
        return st.floats(min_value=0.0, **REAL)
    if domain == FINITE:
        return st.floats(**REAL)
    if domain == GT1:
        return st.floats(min_value=1.0, exclude_min=True, **REAL)
    if domain == HALF_TURN:
        return st.floats(min_value=0.0, max_value=180.0, exclude_max=True)
    lo, hi = domain
    return st.integers(min_value=lo, max_value=hi)


def outside(key):
    """Text that set_key coerces to a value outside key's domain."""
    domain = DOMAINS[key]
    if domain == GT0:
        return st.floats(max_value=0.0, **REAL).map(repr)
    if domain == GE0:
        return st.floats(max_value=0.0, exclude_max=True, **REAL).map(repr)
    if domain == FINITE:
        return st.sampled_from(["nan", "inf", "-inf", "1e999"])
    if domain == GT1:
        return st.floats(max_value=1.0, **REAL).map(repr)
    if domain == HALF_TURN:
        return st.one_of(st.floats(max_value=0.0, exclude_max=True, **REAL),
                         st.floats(min_value=180.0, **REAL)).map(repr)
    if isinstance(domain, list):
        return refused_list()
    if isinstance(domain[0], str):
        return st.text(alphabet=KEY_ALPHABET).filter(lambda t: t not in domain)
    lo, hi = domain
    below = st.integers(max_value=lo - 1)
    ints = below if hi is None else st.one_of(below, st.integers(min_value=hi + 1))
    return ints.map(str)


def accepted_list():
    """Nonempty lists of finite nonnegative floats, distinct under %g."""
    return st.lists(st.floats(min_value=0.0, **REAL), min_size=1, max_size=6,
                    unique_by=lambda v: "%g" % v)


def list_text(values, gaps):
    """values as comma-list text, an empty entry after each index in gaps."""
    return ",".join(repr(v) + ("," if i in gaps else "") for i, v in enumerate(values))


def refused_list():
    """Comma-list text that parses to a list outside the [GE0] domain:
    a negative or non-finite entry, a %g repeat, or no entries."""
    bad_entry = st.one_of(st.floats(max_value=0.0, exclude_max=True, **REAL),
                          st.sampled_from([math.nan, math.inf, -math.inf]))
    with_bad = st.tuples(accepted_list(), bad_entry, st.integers(0, 6)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
    # an entry again as %g prints it: equal to 6 significant digits
    repeat = accepted_list().flatmap(
        lambda vs: st.sampled_from(vs).map(lambda v: vs + [float("%g" % v)]))
    return st.one_of(
        st.one_of(with_bad, repeat).map(lambda vs: ",".join(map(repr, vs))),
        st.sampled_from(["", ",", " , ,"]))


def key_and(strategy, keys):
    """(key, drawn) pairs: a key from keys and a draw from strategy(key)."""
    return st.sampled_from(keys).flatmap(lambda k: st.tuples(st.just(k), strategy(k)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(key_value=key_and(inside, FLOAT_KEYS))
def test_finite_float_survives_repr(key_value):
    # every float the key's domain holds, not every finite float
    key, value = key_value
    cfg = dict(DEFAULTS)
    set_key(cfg, key, repr(value))
    assert repr(cfg[key]) == repr(value)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    key=st.sampled_from(FLOAT_KEYS),
    text=st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999"]),
)
def test_non_finite_float_rejected(key, text):
    cfg = dict(DEFAULTS)
    with pytest.raises(ValueError, match="must be finite"):
        set_key(cfg, key, text)
    assert cfg == DEFAULTS


@settings(max_examples=100, deadline=None, derandomize=True)
@given(key_value=key_and(inside, INT_KEYS))
def test_int_key_round_trips_integer_text(key_value):
    # every integer the key's domain holds, not every integer
    key, value = key_value
    cfg = dict(DEFAULTS)
    set_key(cfg, key, str(value))
    assert cfg[key] == value and type(cfg[key]) is int


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    key=st.sampled_from(INT_KEYS),
    text=st.one_of(
        st.floats().filter(lambda x: not math.isfinite(x) or not x.is_integer()).map(repr),
        st.sampled_from(["3.0", "1e3", "", "ten", "0x10", "1/2"]),
    ),
)
def test_int_key_rejects_non_integral_text(key, text):
    cfg = dict(DEFAULTS)
    with pytest.raises(ValueError, match="expects int"):
        set_key(cfg, key, text)
    assert cfg == DEFAULTS


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    key=st.one_of(
        st.text(alphabet=KEY_ALPHABET),
        st.sampled_from(sorted(DEFAULTS)).map(str.upper),
        st.sampled_from(sorted(DEFAULTS)).map(lambda k: k + "_"),
    ).filter(lambda k: k not in DEFAULTS),
    value=st.text(alphabet=KEY_ALPHABET),
)
def test_unknown_key_rejected(key, value):
    cfg = dict(DEFAULTS)
    with pytest.raises(ValueError, match="unknown config key"):
        set_key(cfg, key, value)
    assert cfg == DEFAULTS


def test_every_default_lies_in_its_domain():
    cfg = dict(DEFAULTS)
    for key, value in DEFAULTS.items():
        text = ",".join(map(repr, value)) if isinstance(value, tuple) else value
        set_key(cfg, key, repr(value) if isinstance(value, float) else text)
    assert cfg == DEFAULTS


@settings(max_examples=300, deadline=None, derandomize=True)
@given(key_text=key_and(outside, sorted(k for k, d in DOMAINS.items() if d)))
def test_out_of_domain_value_rejected_naming_key(key_text):
    key, text = key_text
    cfg = dict(DEFAULTS)
    with pytest.raises(ValueError, match=re.escape("config key %r " % key)) as err:
        set_key(cfg, key, text)
    assert str(err.value).endswith("got %s" % text)
    assert cfg == DEFAULTS


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=accepted_list(), gaps=st.sets(st.integers(0, 6)))
def test_accepted_power_list_round_trips_render(values, gaps):
    cfg = dict(DEFAULTS)
    set_key(cfg, POWERS, list_text(values, gaps))
    assert cfg[POWERS] == tuple(values)
    rendered = render_config(cfg)
    line = next(ln for ln in rendered.splitlines() if ln.startswith(POWERS + " = "))
    again = dict(DEFAULTS)
    set_key(again, POWERS, line.partition(" = ")[2])
    assert again[POWERS] == cfg[POWERS]
    assert config_digest(render_config(again)) == config_digest(rendered)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=st.one_of(
    refused_list(),
    st.tuples(accepted_list(), st.sampled_from(["abc", "0x10", "1/2", "one"])).map(
        lambda t: ",".join(list(map(repr, t[0])) + [t[1]])),
))
def test_refused_power_list_names_key_and_keeps_cfg(text):
    cfg = dict(DEFAULTS)
    with pytest.raises(ValueError, match=re.escape("config key %r " % POWERS)):
        set_key(cfg, POWERS, text)
    assert cfg == DEFAULTS

"""Property tests of config coercion at the set_key boundary."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibermem.config import DEFAULTS, set_key

FLOAT_KEYS = sorted(k for k, v in DEFAULTS.items() if isinstance(v, float))
INT_KEYS = sorted(
    k for k, v in DEFAULTS.items() if isinstance(v, int) and not isinstance(v, bool)
)
KEY_ALPHABET = "abcdefghijklmnopqrstuvwxyzMHGWK._-=0123456789 "


@settings(max_examples=200, deadline=None, derandomize=True)
@given(key=st.sampled_from(FLOAT_KEYS), value=st.floats(allow_nan=False, allow_infinity=False))
def test_finite_float_survives_repr(key, value):
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
@given(key=st.sampled_from(INT_KEYS), value=st.integers())
def test_int_key_round_trips_integer_text(key, value):
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

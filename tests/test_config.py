"""Property tests of config coercion at the set_key boundary, and the
INI overlay reader."""

import configparser
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibermem import config
from fibermem.cli import entry
from fibermem.config import DEFAULTS, config_digest, load_config, render_config, set_key

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
    lo, hi = DOMAINS[key]
    if isinstance(lo, float):
        return st.floats(min_value=lo, max_value=hi)
    return st.integers(min_value=lo, max_value=hi)


def beyond(lo, hi):
    """Finite floats outside the inclusive range lo..hi."""
    return st.one_of(st.floats(max_value=math.nextafter(lo, -math.inf), **REAL),
                     st.floats(min_value=math.nextafter(hi, math.inf), **REAL))


def outside(key):
    """Text that set_key coerces to a value outside key's domain."""
    domain = DOMAINS[key]
    if isinstance(domain, list):
        return refused_list()
    if isinstance(domain[0], str):
        return st.text(alphabet=KEY_ALPHABET).filter(lambda t: t not in domain)
    lo, hi = domain
    if isinstance(lo, float):
        return beyond(lo, hi).map(repr)
    return st.one_of(st.integers(max_value=lo - 1),
                     st.integers(min_value=hi + 1)).map(str)


def accepted_list():
    """Nonempty lists of floats in the list key's range, distinct under %g."""
    lo, hi = DOMAINS[POWERS][0]
    return st.lists(st.floats(min_value=lo, max_value=hi), min_size=1, max_size=6,
                    unique_by=lambda v: "%g" % v)


def list_text(values, gaps):
    """values as comma-list text, an empty entry after each index in gaps."""
    return ",".join(repr(v) + ("," if i in gaps else "") for i, v in enumerate(values))


def refused_list():
    """Comma-list text that parses to a list outside the list key's domain:
    an entry out of range or non-finite, a %g repeat, or no entries."""
    bad_entry = st.one_of(beyond(*DOMAINS[POWERS][0]),
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


def reference_render(cfg):
    """render_config's text, each line built from its value."""
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, float):
            text = "%.17g" % value
        elif isinstance(value, tuple):
            text = ",".join(repr(v) for v in value)
        else:
            text = str(value)
        lines.append(key + " = " + text)
    return "".join(line + "\n" for line in lines)


def test_render_of_default_lines_matches_a_fresh_render():
    # render_config takes a default value's line from a table built at
    # import; a value counts as the default only when it is that object
    assert render_config(dict(DEFAULTS)) == reference_render(DEFAULTS)
    assert config_digest(render_config(dict(DEFAULTS))) == "a45ad5fe93ae7b24"
    cfg = dict(DEFAULTS)
    for item in ("storage.od=12", "probe.shape=gaussian", "storage.n_z=120",
                 POWERS + "=0.25,3", "probe.peak_ns=-1e-300"):
        key, _, text = item.partition("=")
        set_key(cfg, key, text)
    assert render_config(cfg) == reference_render(cfg)
    # -0.0 == 0.0, yet it renders as -0
    negative_zero = dict(DEFAULTS)
    set_key(negative_zero, "probe.detuning_MHz", "-0.0")
    assert negative_zero["probe.detuning_MHz"] == DEFAULTS["probe.detuning_MHz"] == 0.0
    rendered = render_config(negative_zero)
    assert "probe.detuning_MHz = -0\n" in rendered
    assert rendered == reference_render(negative_zero)
    assert config_digest(rendered) != "a45ad5fe93ae7b24"
    # a value equal to its default, but not the same object, renders alike
    equal = dict(DEFAULTS)
    for key, text in (("storage.od", "10"), ("probe.detuning_MHz", "0"),
                      (POWERS, "0.5,1,1.6,2.4"), ("storage.n_z", "80")):
        set_key(equal, key, text)
    assert equal["storage.od"] is not DEFAULTS["storage.od"]
    assert equal[POWERS] is not DEFAULTS[POWERS]
    assert equal == DEFAULTS
    assert render_config(equal) == reference_render(equal) == render_config(DEFAULTS)


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


def configparser_overlay(path):
    """The overlay as configparser read it, the reference for load_config."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    with open(path) as fh:
        parser.read_file(fh)
    cfg = dict(DEFAULTS)
    for section in parser.sections():
        for key, raw in parser.items(section):
            set_key(cfg, "%s.%s" % (section, key), raw)
    return cfg


EVERY_SECTION = """\
[scheme]
gamma_MHz = 6.0
[calibration]
anchor_delay_power_mW = 0.6
[medium]
length_mm = 4
[fiber]
core_index = 1.45
[scan]
diameter_step_nm = 10
[absorption]
points = 51
[spectroscopy]
powers_mW = 0.5, 1.0,
[slowlight]
od = 4
[probe]
shape = gaussian
[control]
angle_deg = 20
[storage]
n_z = 100
[decoherence]
zeeman_kHz = 50
[magnetic]
b_field_G = 0.5
[counting]
shots = 500
"""
OVERLAYS = {
    "every section": EVERY_SECTION,
    "comments and blank lines": (
        "# a run\n\n; of the storage\n[storage]\n\n# od\nod = 12\n"
        "   ; indented comment\n\ndark_ns = 60\n\n"),
    "crlf endings": "[storage]\r\nod = 12\r\n\r\n[probe]\r\nfwhm_ns = 80\r\n",
    "spaces around =": "[storage]\nod=12\ndark_ns   =   60  \nramp_ns =5\n",
    "mixed-case keys": (
        "[scheme]\ngamma_MHz = 6.0\ngamma_gs_rad_per_s = 3e6\n"
        "[calibration]\nanchor_delay_power_mW = 0.7\n"),
    "no final newline": "[spectroscopy]\nod = 4",
    "empty file": "",
}


def test_every_section_in_the_table():
    sections = {key.partition(".")[0] for key in DEFAULTS}
    assert set(re.findall(r"^\[(\w+)\]$", EVERY_SECTION, flags=re.M)) == sections


@pytest.mark.parametrize("name", sorted(OVERLAYS))
def test_overlay_reads_as_configparser_did(name, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_bytes(OVERLAYS[name].encode())
    cfg = load_config(str(ini))
    assert cfg == configparser_overlay(str(ini))
    assert (cfg == DEFAULTS) == (name == "empty file")


def test_overlay_section_may_repeat(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[storage]\nod = 12\n[probe]\nfwhm_ns = 80\n[storage]\ndark_ns = 60\n")
    cfg = load_config(str(ini))
    assert (cfg["storage.od"], cfg["probe.fwhm_ns"], cfg["storage.dark_ns"]) == (12, 80, 60)


MALFORMED = {  # overlay text, the line refused
    "key before any section": ("od = 3\n[spectroscopy]\n", 1),
    "key set twice": ("[spectroscopy]\nod = 3\n\n[spectroscopy]\nod = 4\n", 5),
    "percent sign": ("[spectroscopy]\nod = 3%\n", 2),
    "no equals sign": ("[spectroscopy]\nod: 3\n", 2),
    "continuation line": ("[spectroscopy]\npoints = 101\n  201\n", 3),
    "DEFAULT section": ("[DEFAULT]\nod = 3\n", 2),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_overlay_exits_2_naming_the_line(name, tmp_path, capsys):
    text, line = MALFORMED[name]
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    out = tmp_path / "line.csv"
    assert entry(["sim", "fig1c", "--out", str(out), "--config", str(ini)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s, line %d: " % (ini, line))
    assert captured.err.count("\n") == 1  # one message, no traceback
    assert not out.exists()

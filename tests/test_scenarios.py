import dataclasses
import hashlib
import importlib.util
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fibermem
from fibermem import config, fitkit, scenarios, waveguide
from fibermem.cli import _read_xy, entry
from fibermem.config import (
    DEFAULTS,
    KEY_DOCS,
    apply_overrides,
    config_digest,
    load_config,
    render_config,
    set_key,
)
from fibermem.eit import PropagationGrid, propagate_pulse
from fibermem.scenarios import list_scenarios, run_scenario

MHZ = 2.0 * math.pi * 1e6


class ReadRecorder(dict):
    """A configuration that records every key read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


def just_outside_domains():
    """Params (scenario, key, text): text lies just outside one bound of
    key's domain, and scenario is the first catalog entry that reads key."""
    # a float range refuses a round value past a bound, as typed by hand
    # (GT1 refuses 1 and also 0, the bound of a positive key), and each
    # bound stepped out by one ulp
    typed = {config.FINITE: ["nan"], config.GT1: ["0", "1"],
             config.HALF_TURN: ["-1e-9", "180"]}
    cases = []
    for key, (_, domain, _) in config._KEYS.items():
        if isinstance(domain, list):  # an entry beyond its range, a repeat, none
            texts = ["-1e-9", repr(math.nextafter(domain[0][1], math.inf)), "1,1", ""]
        elif isinstance(domain[0], str):
            texts = ["Gaussian"]
        elif isinstance(domain[0], float):
            lo, hi = domain
            texts = typed.get(domain, ["0" if lo > 0.0 else "-1e-9"])
            ulps = (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))
            texts = texts + [repr(v) for v in ulps if v not in map(float, texts)]
        else:
            lo, hi = domain
            texts = [str(lo - 1), str(hi + 1)]
        sim = next(e.scenario_id for e in list_scenarios() if key in e.keys)
        cases += [pytest.param(sim, key, text, id="%s=%s" % (key, text))
                  for text in texts]
    return cases


def run(tmp_path, scenario_id, seed=0, out=None, **overrides):
    path = str(tmp_path / (out or (scenario_id + ".csv")))
    cfg = dict(DEFAULTS)
    for key, value in overrides.items():
        set_key(cfg, key.replace("__", "."), value)
    return run_scenario(scenario_id, cfg, seed, path)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = load_config(None)
        assert cfg == DEFAULTS
        assert cfg is not DEFAULTS

    def test_unknown_key_rejected(self):
        cfg = dict(DEFAULTS)
        with pytest.raises(ValueError, match="unknown config key"):
            set_key(cfg, "nope.key", "1")

    def test_type_coercion(self):
        cfg = dict(DEFAULTS)
        set_key(cfg, "spectroscopy.points", "51")
        assert cfg["spectroscopy.points"] == 51
        set_key(cfg, "storage.od", "12")
        assert cfg["storage.od"] == 12.0
        set_key(cfg, "probe.shape", "gaussian")
        assert cfg["probe.shape"] == "gaussian"
        with pytest.raises(ValueError, match="expects int"):
            set_key(cfg, "storage.n_z", "many")

    def test_apply_overrides_parses_assignments(self):
        cfg = dict(DEFAULTS)
        apply_overrides(cfg, ["storage.od = 7", "probe.fwhm_ns=80"])
        assert cfg["storage.od"] == 7.0
        assert cfg["probe.fwhm_ns"] == 80.0
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides(cfg, ["storage.od"])

    def test_ini_overlay(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[storage]\nod = 12\ndark_ns = 60\n[scheme]\ngamma_MHz = 6.0\n")
        cfg = load_config(str(ini))
        assert cfg["storage.od"] == 12.0
        assert cfg["storage.dark_ns"] == 60.0
        assert cfg["scheme.gamma_MHz"] == 6.0
        assert cfg["probe.photons"] == DEFAULTS["probe.photons"]

    def test_digest_tracks_content(self):
        a = dict(DEFAULTS)
        b = dict(DEFAULTS)
        assert config_digest(render_config(a)) == config_digest(render_config(b))
        b["storage.od"] = 11.0
        assert config_digest(render_config(a)) != config_digest(render_config(b))

    def test_render_is_sorted_and_complete(self):
        text = render_config(dict(DEFAULTS))
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert keys == sorted(DEFAULTS)


class TestCatalog:
    def test_all_ids_present_in_stable_order(self):
        ids = [e.scenario_id for e in list_scenarios()]
        assert ids == [
            "fig1b", "fig1c", "fig2", "fig3a", "fig3b", "fig3c",
            "fig4a", "fig4b", "fig4c", "mode_scan", "custom",
        ]
        assert ids == [e.scenario_id for e in list_scenarios()]

    def test_parameter_docs_name_real_keys_with_units(self):
        documented = set()
        for entry_ in list_scenarios():
            assert entry_.description
            for key, doc in entry_.parameter_docs:
                assert key in DEFAULTS
                assert doc.strip()
                documented.add(key)
        # every accepted key is documented, so an inert key cannot hide
        assert documented == set(DEFAULTS)
        assert KEY_DOCS.keys() == DEFAULTS.keys()

    @pytest.mark.parametrize("entry_", list_scenarios(), ids=lambda e: e.scenario_id)
    def test_listed_keys_are_the_keys_the_runner_reads(self, entry_):
        cfg = ReadRecorder(DEFAULTS)
        if entry_.scenario_id == "fig3c":
            # a short run: which keys are read does not depend on the grid
            cfg.update({"storage.t_stop_ns": 600.0, "storage.dt_ns": 1.0,
                        "storage.n_z": 50, "storage.dark_max_ns": 60.0})
        entry_.runner(cfg, 0)
        assert len(set(entry_.keys)) == len(entry_.keys)
        assert set(cfg.reads) == set(entry_.keys)

    def test_storage_headline_cites_target(self):
        entry_ = {e.scenario_id: e for e in list_scenarios()}["fig3b"]
        assert "0.10" in entry_.headline

    def test_unknown_scenario_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenario 'fig9z'"):
            run_scenario("fig9z", dict(DEFAULTS))


def read_csv(path):
    comments = []
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(c) for c in line.split(",")])
    return comments, header, np.array(rows)


class TestCsvOutput:
    def test_structure_and_precision(self, tmp_path):
        rep = run(tmp_path, "fig1c")
        comments, header, rows = read_csv(rep["output_path"])
        assert comments[0] == "# scenario: fig1c"
        assert comments[1] == "# seed: 0"
        assert comments[2] == "# config sha256: %s" % rep["config_digest"]
        assert header == ["detuning_MHz", "transmission"]
        assert rows.shape == (rep["n_rows"], 2)
        # %.12g reparses to the computed transmission
        span = DEFAULTS["spectroscopy.span_MHz"]
        assert rows[0, 0] == -span and rows[-1, 0] == span
        assert np.all((rows[:, 1] > 0.0) & (rows[:, 1] <= 1.0))

    def test_full_config_echoed(self, tmp_path):
        rep = run(tmp_path, "fig1b")
        comments, _, _ = read_csv(rep["output_path"])
        body = "\n".join(comments)
        for key in DEFAULTS:
            assert key in body

    def test_byte_identical_repeat(self, tmp_path):
        a = run(tmp_path, "fig2", out="a.csv")
        b = run(tmp_path, "fig2", out="b.csv")
        with open(a["output_path"], "rb") as fa, open(b["output_path"], "rb") as fb:
            assert fa.read() == fb.read()

    def test_byte_identical_with_seeded_counting(self, tmp_path):
        a = run(tmp_path, "fig3b", seed=7, out="a.csv")
        b = run(tmp_path, "fig3b", seed=7, out="b.csv")
        with open(a["output_path"], "rb") as fa, open(b["output_path"], "rb") as fb:
            assert fa.read() == fb.read()
        assert a["summary"]["snr_simulated"] == b["summary"]["snr_simulated"]

    def test_rows_print_each_cell_as_12_significant_digits(self, tmp_path):
        # signed zero, a subnormal, an inexact decimal, values past 12 digits
        values = [-0.0, 5e-324, 0.1, 1e15 + 0.5, 123456789012.5, -2.75e-7]
        columns = [("a", np.array(values)), ("b", values[::-1]), ("c", np.arange(6))]
        path = tmp_path / "w.csv"
        assert scenarios._write_csv(str(path), ["scenario: fig1b"], columns) == 6
        text = path.read_text()
        lines = text.splitlines()
        assert text.endswith("\n") and lines[-7] == "a,b,c"
        assert lines[-6:] == [",".join("%.12g" % float(v) for v in row)
                              for row in zip(values, values[::-1], range(6))]
        assert lines[-6:-4] == ["-0,-2.75e-07,0", "4.94065645841e-324,123456789012,1"]
        # a storage-size table mixing magnitudes 1e-320..1e300, signs, zeros, integers
        rng = np.random.default_rng(26)
        table = rng.choice([-1.0, 1.0], (2000, 4)) * 10.0 ** rng.uniform(-320, 300, (2000, 4))
        table[rng.random((2000, 4)) < 0.05] = 0.0
        table[:, 3] = rng.integers(-10**6, 10**6, 2000)
        columns = [(name, table[:, j]) for j, name in enumerate("abcd")]
        assert scenarios._write_csv(str(path), ["scenario: fig1b"], columns) == 2000
        lines = path.read_text().splitlines()
        assert lines[-2001] == "a,b,c,d"
        assert lines[-2000:] == [",".join("%.12g" % float(v) for v in row) for row in table]

    def test_refuses_non_finite_and_ragged_columns_leaving_no_file(self, tmp_path):
        path = tmp_path / "w.csv"
        columns = [("a", np.arange(3.0)), ("b", [0.0, np.nan, 1.0]), ("c", [np.inf, 0.0, 1.0])]
        with pytest.raises(FloatingPointError, match="column 'b' holds a non-finite value"):
            scenarios._write_csv(str(path), ["scenario: fig1b"], columns)
        assert os.listdir(tmp_path) == []
        with pytest.raises(ValueError, match="column length mismatch"):
            scenarios._write_csv(str(path), ["scenario: fig1b"],
                                 [("a", np.arange(3.0)), ("b", np.arange(4.0))])
        assert os.listdir(tmp_path) == []

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path):
        # os.replace will not put a file over a directory
        taken = tmp_path / "taken"
        taken.mkdir()
        with pytest.raises(IsADirectoryError):
            scenarios._write_csv(str(taken), ["scenario: fig1b"], [("a", np.arange(3.0))])
        assert os.listdir(tmp_path) == ["taken"] and os.listdir(taken) == []

    def test_override_lands_in_comments_and_digest(self, tmp_path):
        base = run(tmp_path, "fig1c", out="base.csv")
        mod = run(tmp_path, "fig1c", out="mod.csv", spectroscopy__od="5")
        assert mod["config_digest"] != base["config_digest"]
        comments, _, _ = read_csv(mod["output_path"])
        assert "# spectroscopy.od = 5" in comments


    def test_digest_is_of_the_echoed_config(self, tmp_path, monkeypatch, capsys):
        renders = []

        def counted(cfg):
            renders.append(1)
            return render_config(cfg)

        # config_digest used to render the configuration again
        monkeypatch.setattr(scenarios, "render_config", counted)
        monkeypatch.setattr(config, "render_config", counted)
        path = tmp_path / "line.csv"
        assert entry(["sim", "fig1c", "--out", str(path)]) == 0
        assert len(renders) == 1
        comments, _, _ = read_csv(str(path))
        # the digest can be checked from the file alone
        echoed = "".join(line[2:] + "\n" for line in comments[3:])
        digest = hashlib.sha256(echoed.encode()).hexdigest()[:16]
        assert comments[2] == "# config sha256: %s" % digest
        assert "config %s," % digest in capsys.readouterr().out


class TestScenarioPhysics:
    def test_fig1c_self_fit_recovers_od(self, tmp_path):
        rep = run(tmp_path, "fig1c")
        s = rep["summary"]
        assert s["fit_converged"]
        assert s["od_fit"] == pytest.approx(3.00, abs=0.01)
        assert s["od_err"] < 0.01
        assert s["gamma_fit_MHz"] == pytest.approx(6.8, rel=1e-6)

    def test_fig1c_override_moves_fit(self, tmp_path):
        rep = run(tmp_path, "fig1c", spectroscopy__od="5")
        assert rep["summary"]["od_fit"] == pytest.approx(5.0, rel=1e-6)

    def test_fig1b_self_fit_recovers_saturation(self, tmp_path):
        s = run(tmp_path, "fig1b")["summary"]
        assert s["fit_converged"]
        assert s["alpha0_L_fit"] == pytest.approx(8.0 / 1.3, rel=1e-6)
        assert s["p_sat_fit_nW"] == pytest.approx(1.3, rel=1e-6)

    def test_fig2_transparency_grows_with_power(self, tmp_path):
        s = run(tmp_path, "fig3a")["summary"]
        assert s["delay_at_anchor_ns"] == pytest.approx(60.0, rel=1e-9)
        s2 = run(tmp_path, "fig2")["summary"]
        t = [s2["transparency_0p5mW"], s2["transparency_1mW"],
             s2["transparency_1p6mW"], s2["transparency_2p4mW"]]
        assert t == sorted(t)
        assert t[2] == pytest.approx(0.75, rel=1e-9)

    def test_fig3a_slowdown_anchor(self, tmp_path):
        s = run(tmp_path, "fig3a")["summary"]
        assert 3000.0 <= s["slowdown_at_anchor"] <= 3750.0

    def test_fig3b_headline_efficiency_and_counting(self, tmp_path):
        s = run(tmp_path, "fig3b", seed=3)["summary"]
        assert 0.05 <= s["retrieval_efficiency"] <= 0.20
        assert s["target_efficiency"] == 0.10
        assert s["leak_fraction"] + s["retrieval_efficiency"] < 1.0
        # one seeded counting draw sits within a few standard errors
        assert abs(s["snr_simulated"] - s["snr_analytic"]) < 5.0 * s["snr_std_error"]

    def test_fig4a_lifetimes(self, tmp_path):
        s = run(tmp_path, "fig4a")["summary"]
        assert s["fitted_tau_D_us"] == pytest.approx(s["tau_dephasing_us"], rel=1e-6)
        assert s["fitted_tau_T_us"] == pytest.approx(s["tau_transit_us"], rel=1e-6)
        assert s["fit_converged"]

    def test_fig4a_self_fit_at_another_cloud(self, tmp_path):
        s = run(
            tmp_path, "fig4a", decoherence__temperature_uK=150.0,
            decoherence__zeeman_kHz=90.0, control__angle_deg=12.0,
        )["summary"]
        assert s["fitted_tau_D_us"] == pytest.approx(s["tau_dephasing_us"], rel=1e-6)
        assert s["fitted_tau_T_us"] == pytest.approx(s["tau_transit_us"], rel=1e-6)
        assert s["fit_converged"]

    def test_fig4b_revivals_at_half_larmor_multiples(self, tmp_path):
        s = run(tmp_path, "fig4b")["summary"]
        t_half = s["half_larmor_period_us"]
        assert s["first_revival_us"] == pytest.approx(3.57, rel=0.05)
        assert s["n_revivals"] >= 2
        for k, t_rev in enumerate(s["revival_times_us"], start=1):
            assert t_rev == pytest.approx(k * t_half, rel=1e-3)

    def test_fig4c_revivals_scale_with_field(self, tmp_path):
        s = run(tmp_path, "fig4c")["summary"]
        assert s["first_revival_us"] == pytest.approx(2.38, rel=0.05)
        assert s["n_revivals"] >= 4

    def test_mode_scan_argmax(self, tmp_path):
        s = run(tmp_path, "mode_scan")["summary"]
        assert abs(s["argmax_diameter_nm"] - 400.0) <= 30.0
        assert s["n_guided"] >= 100

    def test_fig3c_efficiency_decays_with_dark_time(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return propagate_pulse(*args)

        monkeypatch.setattr(scenarios, "propagate_pulse", counted)
        rep = run(tmp_path, "fig3c")
        # the whole dark-time sweep is one batched propagation
        assert len(calls) == 1 and len(calls[0][1]) == rep["n_rows"]
        _, header, rows = read_csv(rep["output_path"])
        assert header == ["storage_time_ns", "efficiency"]
        eff = rows[:, 1]
        assert np.all(np.diff(eff) < 0.0)
        s = rep["summary"]
        assert s["observed_decay_ratio"] == pytest.approx(
            s["expected_decay_ratio"], rel=0.05
        )


class TestCli:
    def test_list_mentions_catalog_and_target(self, capsys):
        assert entry(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3b" in out and "target 0.10" in out
        assert "mode_scan" in out

    def test_list_shows_each_domain(self, capsys):
        assert entry(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for key in DEFAULTS:
            domain = config.domain_text(key)
            shown = [line for line in lines if line.split()[:1] == [key]]
            assert shown
            assert all(line.endswith(" [%s]" % domain) == bool(domain)
                       for line in shown)

    def test_sim_writes_and_reports(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        rc = entry(["sim", "fig1c", "--out", str(path)])
        assert rc == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "od_fit" in out and "config" in out

    def test_sim_set_override(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        rc = entry(
            ["sim", "fig1c", "--out", str(path), "--set", "spectroscopy.od=5"]
        )
        assert rc == 0
        comments, _, _ = read_csv(str(path))
        assert "# spectroscopy.od = 5" in comments

    def test_sim_config_file(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[spectroscopy]\nod = 4\n")
        path = tmp_path / "line.csv"
        rc = entry(
            ["sim", "fig1c", "--out", str(path), "--config", str(ini)]
        )
        assert rc == 0
        assert "od_fit                       4" in capsys.readouterr().out

    def test_fit_round_trip_with_unit_header(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        assert entry(["sim", "fig1c", "--out", str(path)]) == 0
        capsys.readouterr()
        rc = entry(["fit", "lorentzian_od", "--data", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "od = 3" in out
        assert "converged: True" in out

    def test_read_xy_unit_conversion(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("# comment\ndetuning_MHz,transmission\n1,0.5\n-2,0.7\n3,0.9\n")
        rows = _read_xy(str(f))
        assert rows[0][0] == pytest.approx(1.0 * MHZ)
        assert rows[1][0] == pytest.approx(-2.0 * MHZ)
        assert rows[0][1] == 0.5

    def test_read_xy_headerless_and_sigma(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,0.5,0.01\n2.0,0.7,0.01\n3.0,0.9,0.01\n")
        rows = _read_xy(str(f))
        assert list(rows[0]) == [1.0, 0.5, 0.01]

    def test_fit_third_column_must_be_sigma(self, tmp_path, capsys):
        spectra = tmp_path / "fig2.csv"
        assert entry(["sim", "fig2", "--out", str(spectra)]) == 0
        capsys.readouterr()
        assert entry(["fit", "lorentzian_od", "--data", str(spectra)]) == 2
        assert "column 3 'transmission_1mW'" in capsys.readouterr().err
        data = tmp_path / "d.csv"
        data.write_text("x,y,sigma,w\n1,0.5,0.01,1\n2,0.6,0.01,1\n"
                        "3,0.7,0.01,1\n4,0.8,0.01,1\n")
        assert entry(["fit", "lorentzian_od", "--data", str(data)]) == 2
        assert "column 4" in capsys.readouterr().err

    @pytest.mark.parametrize("text, row", [
        ("x,y,sigma\n1,0.5,0.01\n2,0.6\n3,0.7,0.01\n", 2),
        ("x,y\n1,0.5\n2,0.6\n3,0.7,0.01\n", 3),
        ("1,0.5,0.01\n2,0.6,0.01\n3,0.7\n", 3),
        # every row wider than the header
        ("x,y\n1,0.5,0.01\n2,0.6,0.01\n3,0.7,0.01\n", 1),
    ])
    def test_fit_refuses_ragged_rows(self, tmp_path, capsys, text, row):
        data = tmp_path / "d.csv"
        data.write_text(text)
        assert entry(["fit", "lorentzian_od", "--data", str(data)]) == 2
        assert "data row %d of" % row in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("x,y\n1,0.5\n2,abc\n3,0.7\n4,0.8\n", "'abc' in data row 2, column 2 of"),
        # float() reads these two, loadtxt does not
        ("1_000,0.5\n2,0.6\n3,0.7\n4,0.8\n", "'1_000' in data row 1, column 1 of"),
        ("x,y\n1,0.5\n2,0.6\n3,0.٧\n4,0.8\n",
         "'0.٧' in data row 3, column 2 of"),
        ("detuning_MHz,transmission\n# no rows follow\n\n", "no data rows"),
        ("x\n1\n2\n3\n4\n", "need at least x and y"),
        ("1\n2\n3\n4\n", "need at least x and y"),
        # rows are counted past comment and blank lines
        ("1,0.5\n# note\n\n2,nan\n3,0.7\n4,0.8\n",
         "data row 2 holds a non-finite"),
    ], ids=["non-numeric", "underscore", "non-ascii-digit", "header-only", "one-column", "headerless-one-column",
            "nan-after-comment"])
    def test_fit_refuses_unreadable_data(self, tmp_path, capsys, text, message):
        data = tmp_path / "d.csv"
        data.write_text(text)
        assert entry(["fit", "lorentzian_od", "--data", str(data)]) == 2
        assert message in capsys.readouterr().err

    def test_fit_skips_comment_and_blank_lines_between_rows(self, tmp_path, capsys):
        x = np.linspace(-25.0, 25.0, 41)
        y = fitkit.evaluate_model("lorentzian_od", (3.0, 6.8 * MHZ), x * MHZ)
        rows = ["%.12g,%.12g" % xy for xy in zip(x, y)]
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text("detuning_MHz,transmission\n" + "\n".join(rows) + "\n")
        spaced.write_text("# run 1\n\ndetuning_MHz,transmission\n# first half\n"
                          + "\n".join(rows[:20]) + "\n\n# second half\n\n"
                          + "\n".join(rows[20:]) + "\n# end\n")
        outputs = []
        for path in (plain, spaced):
            assert entry(["fit", "lorentzian_od", "--data", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and "od = 3" in outputs[0]
        assert np.array_equal(_read_xy(str(plain)), _read_xy(str(spaced)))

    @pytest.mark.parametrize("header", ["detuning_MHz,transmission,sigma\n", ""])
    def test_fit_weights_sigma_column(self, tmp_path, capsys, header):
        x = np.linspace(-25.0, 25.0, 41)
        y = fitkit.evaluate_model("lorentzian_od", (3.0, 6.8 * MHZ), x * MHZ)
        data = tmp_path / "d.csv"
        data.write_text(header + "".join(
            "%.12g,%.12g,0.01\n" % (xi * (MHZ if not header else 1.0), yi)
            for xi, yi in zip(x, y)))
        assert entry(["fit", "lorentzian_od", "--data", str(data)]) == 0
        out = capsys.readouterr().out
        assert "converged: True" in out and "unit-less" not in out

    # fig1c is test_fit_round_trip_with_unit_header
    @pytest.mark.parametrize("sim, model", [("fig1b", "saturation"),
                                            ("fig4a", "decay_lifetime")])
    def test_fit_round_trips_two_column_scenarios(self, tmp_path, capsys, sim, model):
        path = tmp_path / (sim + ".csv")
        assert entry(["sim", sim, "--out", str(path)]) == 0
        assert entry(["fit", model, "--data", str(path)]) == 0
        assert "converged: True" in capsys.readouterr().out

    def test_fit_guess_names_flag_and_token(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        assert entry(["sim", "fig1c", "--out", str(path)]) == 0
        capsys.readouterr()
        assert entry(["fit", "lorentzian_od", "--data", str(path),
                      "--guess", "abc,3e7"]) == 2
        err = capsys.readouterr().err
        assert "--guess 'abc,3e7'" in err and "'abc'" in err

    @pytest.mark.parametrize("sim, key, text", just_outside_domains())
    def test_value_outside_domain_refused_naming_key(
            self, tmp_path, capsys, sim, key, text):
        out = tmp_path / "x.csv"
        assert entry(["sim", sim, "--out", str(out),
                      "--set", "%s=%s" % (key, text)]) == 2
        assert "config key %r" % key in capsys.readouterr().err
        assert not out.exists()

    # the closed-window and weak-contrast UserWarnings are the physics at
    # these edges; a RuntimeWarning stays an error
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_every_float_key_runs_clean_at_both_bounds(self, tmp_path, capsys):
        # each catalog scenario with each float key it reads at each bound of
        # the key's domain, a one-entry list for the list key.  Storage runs
        # take a short grid, 700 ns in 2 ns steps on 50 slices, and fig3c two
        # dark times.  196 runs in about 0.8 s.
        short = ["--set", "storage.t_stop_ns=700", "--set", "storage.dt_ns=2",
                 "--set", "storage.n_z=50", "--set", "storage.dark_max_ns=40"]
        out = tmp_path / "edge.csv"
        bad = []
        for entry_ in list_scenarios():
            sim = entry_.scenario_id
            for key in entry_.keys:
                domain = config._KEYS[key][1]
                bounds = domain[0] if isinstance(domain, list) else domain
                if not isinstance(bounds[0], float):
                    continue
                for value in bounds:
                    argv = ["sim", sim, "--out", str(out)]
                    argv += short if "storage.n_z" in entry_.keys else []
                    rc = entry(argv + ["--set", "%s=%r" % (key, value)])
                    err = capsys.readouterr().err
                    if rc == 0:
                        ok = np.isfinite(read_csv(out)[2]).all()
                        out.unlink()
                    elif rc == 2:
                        ok = "%r" % key in err
                    else:
                        ok = (rc == 3 and sim == "mode_scan"
                              and "no diameter in the scan guides a mode" in err)
                    if not ok:
                        bad.append((sim, key, value, rc, err))
        assert bad == []
        # the anchor power's delay stays finite at the domain's top
        assert entry(["sim", "fig3a", "--out", str(out),
                      "--set", "calibration.anchor_delay_power_mW=1e30"]) == 0
        delay = re.search(r"delay_at_anchor_ns +(\S+)\n", capsys.readouterr().out)
        assert math.isfinite(float(delay.group(1)))

    @pytest.mark.parametrize("sim, key", [("fig1b", "absorption.points"),
                                          ("fig2", "spectroscopy.points"),
                                          ("fig3a", "slowlight.points"),
                                          ("fig4b", "decoherence.points")])
    def test_sample_counts_bounded(self, tmp_path, capsys, sim, key):
        out = tmp_path / "n.csv"
        for value in ("0", "-5", "10001"):
            assert entry(["sim", sim, "--out", str(out),
                          "--set", "%s=%s" % (key, value)]) == 2
            err = capsys.readouterr().err
            assert "%r" % key in err and "numpy" not in err.lower()
        assert not out.exists()
        assert entry(["sim", sim, "--out", str(out), "--set", key + "=10000"]) == 0

    def test_exit_code_2_on_bad_input(self, tmp_path, capsys, monkeypatch):
        assert entry(["sim", "fig9z"]) == 2
        assert entry(["sim", "fig1c", "--set", "bogus=1"]) == 2
        capsys.readouterr()
        out = tmp_path / "nan.csv"
        for sim, bad in (("fig2", "spectroscopy.od=nan"), ("fig3b", "storage.od=inf")):
            assert entry(["sim", sim, "--out", str(out), "--set", bad]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("must be finite") == 2
        # each control power is a finite number with a column of its own
        bad_lists = ("inf", "nan", "1,1", "0.5,0.50", "1.0000001,1.0000002", "", "abc")
        for bad in bad_lists:
            assert entry(["sim", "fig2", "--out", str(out),
                          "--set", "spectroscopy.powers_mW=" + bad]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("config key 'spectroscopy.powers_mW'") == len(bad_lists)
        # counting shots are capped before any draw
        assert entry(["sim", "fig3b", "--out", str(out),
                      "--set", "counting.shots=1000000000"]) == 2
        assert not out.exists()
        assert "exceeds the limit of 1000000" in capsys.readouterr().err
        for sim, bad in (("fig3c", "storage.dark_step_ns=0"),
                         ("mode_scan", "scan.diameter_step_nm=0"),
                         ("mode_scan", "scan.diameter_step_nm=-5"),
                         ("fig3c", "storage.dark_step_ns=1e-9"),
                         ("mode_scan", "scan.diameter_step_nm=1e-12")):
            assert entry(["sim", sim, "--out", str(out), "--set", bad]) == 2
        assert entry(["sim", "mode_scan", "--out", str(out),
                      "--set", "scan.diameter_min_nm=500",
                      "--set", "scan.diameter_max_nm=400"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("must be at least 1e-30") == 3
        assert "'scan.diameter_min_nm' exceeds 'scan.diameter_max_nm'" in err
        # sweeps too long to run are refused before any allocation
        assert err.count("exceeds the limit of 10000") == 2
        assert "raise 'storage.dark_step_ns'" in err
        assert "raise 'scan.diameter_step_nm'" in err
        # a deleted key is unknown, not silently accepted
        assert entry(["sim", "fig3b", "--out", str(out),
                      "--set", "counting.window_ns=100"]) == 2
        assert not out.exists()
        assert "unknown config key 'counting.window_ns'" in capsys.readouterr().err
        # a bad control power or waist is named by its config key, with
        # the number as typed rather than in SI units
        for sim, key, value in (("fig2", "spectroscopy.powers_mW", "-1"),
                                ("fig3b", "control.power_mW", "-2"),
                                ("fig3b", "control.waist_um", "0"),
                                ("fig3a", "slowlight.power_max_mW", "-3"),
                                # a slow-light sweep needs a positive power
                                ("fig3a", "slowlight.power_min_mW", "0"),
                                ("fig3a", "calibration.anchor_delay_power_mW", "0")):
            assert entry(["sim", sim, "--out", str(out),
                          "--set", "%s=%s" % (key, value)]) == 2
            err = capsys.readouterr().err
            assert "config key %r" % key in err and err.endswith("got %s\n" % value)
            assert "power_W" not in err and "waist_m" not in err
        assert not out.exists()
        # non-finite fit data is refused, naming the row
        data = tmp_path / "bad.csv"
        for bad_row in ("inf,0.5,0.01", "3,nan,0.01", "3,0.5,inf"):
            data.write_text("detuning_MHz,transmission,sigma\n1,0.5,0.01\n"
                            "2,0.6,0.01\n%s\n4,0.7,0.01\n" % bad_row)
            assert entry(["fit", "lorentzian_od", "--data", str(data)]) == 2
        assert capsys.readouterr().err.count("data row 3 holds a non-finite") == 3
        # a negative power or time lies outside the model's data domain
        for model, header, name in (("saturation", "power_nW", "p_W"),
                                    ("decay_lifetime", "time_us", "t_s")):
            data.write_text("%s,y\n1,0.5\n2,0.6\n-3,0.7\n4,0.8\n5,0.9\n" % header)
            assert entry(["fit", model, "--data", str(data)]) == 2
            assert "%s must be nonnegative" % name in capsys.readouterr().err
        assert entry(["fit", "nomodel", "--data", "x.csv"]) == 2
        assert entry(["fit", "lorentzian_od", "--data", str(tmp_path / "no.csv")]) == 2
        assert entry(["frobnicate"]) == 2
        # a time step too coarse for the probe or for the fastest atomic
        # rate is refused before propagating, naming the keys it ties
        for sim, bad, key in (("fig3b", "storage.od=3000", "storage.od"),
                              ("fig3c", "probe.fwhm_ns=5", "probe.fwhm_ns")):
            assert entry(["sim", sim, "--out", str(out), "--set", bad]) == 2
            err = capsys.readouterr().err
            assert "'storage.dt_ns' must not exceed" in err and "%r" % key in err
        assert not out.exists()
        # a time below its domain, which underflowed to 0 s or left the
        # probe no energy on the grid, is refused by its key before any
        # propagation
        monkeypatch.setattr(scenarios, "propagate_pulse", None)
        for sim, bad in (("fig3b", "storage.t_stop_ns=1e-320"),
                         ("fig3b", "storage.dt_ns=1e-315"),
                         ("custom", "probe.fwhm_ns=1e-320"),
                         ("fig3c", "storage.ramp_ns=1e-320"),
                         ("fig3c", "storage.t_stop_ns=1e-300")):
            assert entry(["sim", sim, "--out", str(out), "--set", bad]) == 2
            key = bad.partition("=")[0]
            assert ("config key %r must be at least 1e-30" % key
                    in capsys.readouterr().err)
        assert not out.exists()

    @staticmethod
    def _digest_and_seed(stdout):
        match = re.search(r"config ([0-9a-f]{16}), seed (\d+)\)", stdout)
        return match.group(1), int(match.group(2))

    def test_parser_reuse_keeps_calls_apart(self, tmp_path, capsys):
        # the parser is built once per process: each call must see only
        # its own --set list, and defaults must come back when a flag is
        # left out
        out = str(tmp_path / "line.csv")
        ini = tmp_path / "run.ini"
        ini.write_text("[spectroscopy]\nod = 4\n")

        def expected(*assignments, path=None):
            cfg = load_config(path)
            apply_overrides(cfg, assignments)
            return config_digest(render_config(cfg))

        calls = [
            (["--set", "spectroscopy.od=5"], (expected("spectroscopy.od=5"), 0)),
            (["--set", "scheme.gamma_MHz=7"], (expected("scheme.gamma_MHz=7"), 0)),
            (["--config", str(ini), "--seed", "3", "--set", "spectroscopy.points=51"],
             (expected("spectroscopy.points=51", path=str(ini)), 3)),
            ([], (expected(), 0)),
        ]
        for flags, want in calls:
            assert entry(["sim", "fig1c", "--out", out] + flags) == 0
            assert self._digest_and_seed(capsys.readouterr().out) == want
        assert len({digest for _, (digest, _) in calls}) == len(calls)

    @pytest.mark.parametrize("sim, bad, lo_key, hi_key", [
        ("fig3a", "slowlight.power_min_mW=5",
         "slowlight.power_min_mW", "slowlight.power_max_mW"),
        ("fig1b", "absorption.power_min_nW=200",
         "absorption.power_min_nW", "absorption.power_max_nW"),
        ("fig3c", "storage.dark_min_ns=300", "storage.dark_min_ns", "storage.dark_max_ns"),
        ("mode_scan", "scan.diameter_min_nm=900",
         "scan.diameter_min_nm", "scan.diameter_max_nm"),
    ])
    def test_min_above_max_refused_naming_both_keys(
            self, tmp_path, capsys, sim, bad, lo_key, hi_key):
        out = tmp_path / "x.csv"
        assert entry(["sim", sim, "--out", str(out), "--set", bad]) == 2
        assert "%r exceeds %r" % (lo_key, hi_key) in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_stops_at_its_max(self, tmp_path, capsys):
        # a max between two grid points ends the sweep at the point below it
        for sim, item, last in (("mode_scan", "scan.diameter_max_nm=803", 800.0),
                                ("fig3c", "storage.dark_max_ns=55", 40.0)):
            out = tmp_path / (sim + ".csv")
            assert entry(["sim", sim, "--out", str(out), "--set", item]) == 0
            assert read_csv(out)[2][-1, 0] == last
        # a max less than one step below the min is still a descending axis
        out = tmp_path / "x.csv"
        assert entry(["sim", "fig3c", "--out", str(out),
                      "--set", "storage.dark_min_ns=100",
                      "--set", "storage.dark_max_ns=99"]) == 2
        assert ("'storage.dark_min_ns' exceeds 'storage.dark_max_ns'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_sweep_too_wide_to_count_refused(self, tmp_path, capsys):
        # 1e60 points at the ends of the domain: refused before counting
        out = tmp_path / "x.csv"
        assert entry(["sim", "mode_scan", "--out", str(out),
                      "--set", "scan.diameter_max_nm=1e30",
                      "--set", "scan.diameter_step_nm=1e-30"]) == 2
        err = capsys.readouterr().err
        assert "'scan.diameter_min_nm' to 'scan.diameter_max_nm'" in err
        assert "raise 'scan.diameter_step_nm'" in err
        assert not out.exists()

    def test_fig1b_at_one_power_refused(self, tmp_path, capsys):
        # 101 samples at one power cannot identify the three saturation parameters
        out = tmp_path / "x.csv"
        argv = ["sim", "fig1b", "--out", str(out), "--set", "absorption.power_min_nW=100"]
        assert entry(argv) == 2
        assert "1 distinct x values cannot identify 3 free" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sim, sets", [
        ("fig3b", ["probe.peak_ns=-5000"]),
        ("fig3b", ["probe.peak_ns=1e7"]),
        ("custom", ["probe.peak_ns=-500", "probe.shape=square"]),
        ("fig3c", ["probe.peak_ns=-5000"]),
        # support on the grid, but too little energy to normalize
        ("fig3b", ["probe.shape=gaussian", "probe.peak_ns=-950"]),
    ])
    def test_probe_without_support_refused_naming_keys(
            self, tmp_path, monkeypatch, capsys, sim, sets):
        calls = []
        monkeypatch.setattr(scenarios, "propagate_pulse",
                            lambda *args: calls.append(1))
        out = tmp_path / "probe.csv"
        argv = ["sim", sim, "--out", str(out)]
        for item in sets:
            argv += ["--set", item]
        assert entry(argv) == 2
        err = capsys.readouterr().err
        for key in ("probe.peak_ns", "probe.fwhm_ns", "storage.t_stop_ns",
                    "storage.dt_ns"):
            assert "%r" % key in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("sim", ["fig3b", "custom", "fig3c"])
    def test_probe_photons_underflow_refused(self, tmp_path, monkeypatch, capsys, sim):
        # 5e-324 photons underflowed to 0 on the grid, where every energy
        # fraction would be 0/0; the domain refuses them
        calls = []
        monkeypatch.setattr(scenarios, "propagate_pulse",
                            lambda *args: calls.append(1))
        out = tmp_path / "probe.csv"
        assert entry(["sim", sim, "--out", str(out),
                      "--set", "probe.photons=5e-324"]) == 2
        assert ("config key 'probe.photons' must be at least 1e-30"
                in capsys.readouterr().err)
        assert calls == [] and not out.exists()

    def test_counting_inputs_refused_before_propagation(
            self, tmp_path, monkeypatch, capsys):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return propagate_pulse(*args, **kwargs)

        monkeypatch.setattr(scenarios, "propagate_pulse", counted)
        out = tmp_path / "counts.csv"
        for bad in ("counting.shots=1000000000", "counting.background=-1"):
            assert entry(["sim", "fig3b", "--out", str(out), "--set", bad]) == 2
        assert not out.exists()
        assert calls == []

    def test_storage_grid_capped_before_allocation(self, tmp_path, monkeypatch, capsys):
        calls = []
        times = PropagationGrid.times

        def counted(grid):
            calls.append(1)
            return times(grid)

        monkeypatch.setattr(PropagationGrid, "times", counted)
        out = tmp_path / "grid.csv"
        for sim in ("fig3b", "custom", "fig3c"):
            # 1e-30 ns asks for 1.4e33 samples, 0.05 ns for 28,001
            for bad in ("storage.dt_ns=1e-30", "storage.t_stop_ns=1e30",
                        "storage.dt_ns=0.05"):
                assert entry(["sim", sim, "--out", str(out), "--set", bad]) == 2
                err = capsys.readouterr().err
                assert "'storage.t_stop_ns'" in err and "'storage.dt_ns'" in err
        assert calls == [] and not out.exists()
        # the largest grid allowed has the cap's count of samples
        cfg = dict(DEFAULTS)
        last = (scenarios.MAX_TIME_SAMPLES - 1) * cfg["storage.dt_ns"]
        cfg["storage.t_stop_ns"] = last
        assert scenarios._storage_inputs(cfg)[1].times().size == (
            scenarios.MAX_TIME_SAMPLES)
        cfg["storage.t_stop_ns"] = last + cfg["storage.dt_ns"]
        with pytest.raises(ValueError, match="limit of %d time samples"
                           % scenarios.MAX_TIME_SAMPLES):
            scenarios._storage_inputs(cfg)

    @pytest.mark.parametrize("sim", ["fig4a", "fig4b"])
    def test_dephasing_rate_underflow_runs(self, tmp_path, capsys, sim):
        # no motional dephasing and 1e-197 Hz of Zeeman spread: the squared
        # rate underflows to 0, an infinite tau_D
        out = tmp_path / "decay.csv"
        assert entry(["sim", sim, "--out", str(out), "--set", "control.angle_deg=0",
                      "--set", "decoherence.zeeman_kHz=1e-200"]) == 0
        assert np.isfinite(read_csv(out)[2]).all()
        if sim == "fig4a":
            assert re.search(r"tau_dephasing_us +inf\n", capsys.readouterr().out)

    @pytest.mark.parametrize("sim", ["fig3b", "custom"])
    def test_tiny_background_runs(self, tmp_path, capsys, sim):
        # mu_b**3 underflowed to 0 here and ended in a ZeroDivisionError
        out = tmp_path / "x.csv"
        assert entry(["sim", sim, "--out", str(out),
                      "--set", "counting.background=1e-110"]) == 0
        assert np.isfinite(read_csv(out)[2]).all()
        assert re.search(r"snr_std_error +5\.9\d*e\+161\n", capsys.readouterr().out)

    @pytest.mark.parametrize("sim, item", [
        *[(sim, item) for sim in ("fig4a", "fig4b", "fig4c")
          for item in ("decoherence.zeeman_kHz=1e197", "fiber.wavelength_nm=1e-300")],
        ("fig4b", "magnetic.b_field_G=1e-300"),
        ("fig4c", "magnetic.b_field_alt_G=1e-300"),
        ("fig2", "control.waist_um=1e300"),
        ("fig3a", "control.waist_um=1e300"),
        ("fig3a", "scheme.gamma_gs_rad_per_s=1e300"),
    ])
    def test_extreme_input_ends_without_traceback(self, tmp_path, sim, item):
        # each of these once ended in an OverflowError or ZeroDivisionError
        out = tmp_path / "x.csv"
        rc = entry(["sim", sim, "--out", str(out), "--set", item])
        assert rc in (0, 2, 3)
        if rc == 0:
            assert np.isfinite(read_csv(out)[2]).all()
        else:
            assert not out.exists()

    @pytest.mark.parametrize("sim, sets", [
        ("fig2", ["control.waist_um=1e30", "spectroscopy.powers_mW=1e-300"]),
        # no waist in the domain underflows Omega_c at fig3a's positive
        # powers, so there the domain refuses the waist
        ("fig3a", ["control.waist_um=1e300"]),
        ("fig3b", ["control.waist_um=1e30", "control.power_mW=1e-300"]),
    ], ids=["fig2", "fig3a", "fig3b"])
    def test_rabi_underflow_refused_naming_the_waist(self, tmp_path, capsys, sim, sets):
        # a positive power over the waist squared underflows, so Omega_c = 0
        out = tmp_path / "x.csv"
        argv = ["sim", sim, "--out", str(out)]
        for item in sets:
            argv += ["--set", item]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert entry(argv) == 2
        err = capsys.readouterr().err
        assert "config key 'control.waist_um'" in err and "omega_c" not in err
        assert ("underflows the control Rabi frequency" in err) == (sim != "fig3a")
        assert not out.exists()

    @pytest.mark.parametrize("sim, key", [
        ("fig2", "spectroscopy.powers_mW"),
        ("fig3a", "slowlight.power_min_mW"),
        ("fig3a", "calibration.anchor_delay_power_mW"),
        ("fig3b", "control.power_mW"),
    ])
    def test_power_underflow_refused_naming_the_power(self, tmp_path, capsys, sim, key):
        # 5e-324 mW is positive but 0 W, so Omega_c = 0 at a positive power
        out = tmp_path / "x.csv"
        assert entry(["sim", sim, "--out", str(out), "--set", "%s=5e-324" % key]) == 2
        err = capsys.readouterr().err
        assert "config key %r" % key in err and "control.waist_um" not in err
        assert not out.exists()

    def test_zero_control_power_runs(self, tmp_path):
        # Omega_c = 0 at 0 mW is the bare line, not an underflow
        out = tmp_path / "x.csv"
        assert entry(["sim", "fig2", "--out", str(out),
                      "--set", "spectroscopy.powers_mW=0,1"]) == 0
        assert np.isfinite(read_csv(out)[2]).all()

    def test_exit_code_3_on_solver_failure(self, tmp_path, capsys, monkeypatch):
        rc = entry([
            "sim", "mode_scan",
            "--out", str(tmp_path / "scan.csv"),
            "--set", "scan.diameter_min_nm=10",
            "--set", "scan.diameter_max_nm=20",
        ])
        assert rc == 3
        assert "solver failure" in capsys.readouterr().err
        # a kernel that returns NaN never reaches a CSV
        solve = waveguide.solve_he11
        monkeypatch.setattr(
            waveguide, "solve_he11",
            lambda specs: [mode and dataclasses.replace(mode, evanescent_fraction=math.nan)
                           for mode in solve(specs)],
        )
        out = tmp_path / "nan.csv"
        rc = entry(["sim", "mode_scan", "--out", str(out),
                    "--set", "scan.diameter_max_nm=300"])
        assert rc == 3
        assert list(tmp_path.iterdir()) == []
        assert "'evanescent_fraction'" in capsys.readouterr().err

    def test_exit_code_4_on_non_convergence(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "line.csv"
        assert entry(["sim", "fig1c", "--out", str(path)]) == 0
        monkeypatch.setattr(fitkit, "_MAX_ITER", 1)
        rc = entry(["fit", "lorentzian_od", "--data", str(path), "--guess", "1.5,3e7"])
        assert rc == 4
        assert "converged: False" in capsys.readouterr().out

    def test_benchmark_bindings_resolve(self):
        # perfbench wraps these module attributes by name; one that no
        # longer resolves silently drops its span from the benchmark
        path = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "tracer.py"
        )
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        unresolved = [
            (module, attr) for module, attr, _ in tracer.BINDINGS
            if not callable(getattr(importlib.import_module(module), attr, None))
        ]
        assert unresolved == []

    def test_ci_install_step_runs_the_readme_install_block(self):
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
        with open(os.path.join(root, "README.md")) as fh:
            readme = fh.read().split("## Install\n", 1)[1]
        block = readme.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
        with open(os.path.join(root, ".github", "workflows", "tests.yml")) as fh:
            workflow = fh.read().split("- name: Install\n", 1)[1]
        step = workflow.split("run: |\n", 1)[1].splitlines()
        indent = len(step[0]) - len(step[0].lstrip())
        commands = [line.strip() for line in
                    step[:next(i for i, line in enumerate(step)
                               if not line.startswith(" " * indent))]]
        assert commands == block

    @staticmethod
    def _python(code):
        """Standard output of code run in a fresh interpreter."""
        src = os.path.dirname(os.path.dirname(fibermem.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), check=True,
        )
        return done.stdout

    def _loaded_after(self, code, prefixes):
        """Modules starting with one of prefixes that a fresh interpreter
        holds after running code."""
        return self._python(
            "import sys; %s; print(sorted(m for m in sys.modules if m.startswith(%r)))"
            % (code, prefixes)).splitlines()[-1]

    def test_commands_load_no_scipy(self, tmp_path):
        # every command pays the import: scipy.special alone costs ~0.3 s,
        # so a mode solve and a fit run on NumPy alone
        scan, decay = str(tmp_path / "scan.csv"), str(tmp_path / "fig4a.csv")
        runs = [["sim", "mode_scan", "--out", scan], ["sim", "fig4a", "--out", decay],
                ["fit", "decay_lifetime", "--data", decay]]
        code = "from fibermem.cli import entry; assert [entry(a) for a in %r] == [0, 0, 0]" % (
            runs,)
        assert self._loaded_after(code, ("scipy",)) == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # with sys.modules["scipy"] = None every scipy import raises
        decay = str(tmp_path / "fig4a.csv")
        runs = [["sim", "mode_scan", "--out", str(tmp_path / "scan.csv")],
                ["sim", "fig3b", "--out", str(tmp_path / "fig3b.csv"),
                 "--set", "storage.t_stop_ns=700", "--set", "storage.n_z=50"],
                ["sim", "fig4a", "--out", decay], ["fit", "decay_lifetime", "--data", decay]]
        out = self._python("import sys; sys.modules['scipy'] = None; from fibermem.cli"
                           " import entry; print([entry(a) for a in %r])" % (runs,))
        assert out.splitlines()[-1] == "[0, 0, 0, 0]"

    def test_package_root_loads_no_submodule(self):
        # the root holds only __version__: names come from their modules
        assert self._loaded_after("import fibermem", ("fibermem.", "scipy")) == "[]"

    def test_help_exits_zero(self, capsys):
        assert entry(["--help"]) == 0

    def test_commands_load_no_argparse(self, tmp_path):
        # the flag table parses every command line: argparse's import and
        # its subparser scan cost more than the light commands themselves
        line, decay = str(tmp_path / "fig1c.csv"), str(tmp_path / "fig4a.csv")
        runs = [["sim", "fig1c", "--out", line, "--set", "spectroscopy.od=4"],
                ["fit", "lorentzian_od", "--data", line], ["sim", "fig4a", "--out", decay],
                ["fit", "decay_lifetime", "--data", decay, "--guess", "5e-6,3e-6"]]
        code = "from fibermem.cli import entry; assert [entry(a) for a in %r] == [0] * 4" % (
            runs,)
        assert self._loaded_after(code, ("argparse",)) == "[]"

    @pytest.mark.parametrize("argv", [
        ["-h"], ["sim", "fig1c", "-h"], ["fit", "--help"], ["list", "--bogus", "--help"]])
    def test_help_anywhere_prints_the_usage(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert entry(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: fibermem sim SCENARIO") and err == ""
        assert "fibermem fit MODEL --data FILE" in out and "fibermem list" in out
        assert all(model in out for model in fitkit.MODELS)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, word", [
        ([], "no command"),
        (["frobnicate"], "'frobnicate'"),
        (["--out", "x.csv", "sim", "fig1c"], "'--out'"),
        (["sim"], "SCENARIO"),
        (["fit", "--data", "x.csv"], "MODEL"),
        (["sim", "fig1c", "fig1b"], "'fig1b'"),
        (["list", "fig1c"], "'fig1c'"),
        (["sim", "fig1c", "--bogus", "1"], "'--bogus'"),
        (["sim", "fig1c", "-o", "x.csv"], "'-o'"),
        # argparse took any unique prefix of a flag; the flag table takes none
        (["sim", "fig1c", "--ou", "x.csv"], "'--ou'"),
        (["sim", "fig1c", "--conf", "x.ini"], "'--conf'"),
        (["sim", "fig1c", "--data", "x.csv"], "'--data'"),
        (["list", "--out", "x.csv"], "'--out'"),
        (["fit", "lorentzian_od", "--data", "x.csv", "--set", "a=1"], "'--set'"),
        (["sim", "fig1c", "--out"], "--out needs a value"),
        (["sim", "fig1c", "--out", "--seed", "1"], "--out needs a value"),
        (["fit", "lorentzian_od", "--data"], "--data needs a value"),
        (["fit", "lorentzian_od"], "--data"),
        (["fit", "lorentzian_od", "--guess", "1,2"], "--data"),
        (["sim", "fig1c", "--seed", "1.5"], "--seed '1.5'"),
        (["sim", "fig1c", "--seed=abc"], "--seed 'abc'"),
        (["sim", "fig1c", "--seed", "2", "--seed", "x"], "--seed 'x'"),
    ])
    def test_malformed_line_exits_2_with_usage(self, tmp_path, monkeypatch, capsys,
                                               argv, word):
        monkeypatch.chdir(tmp_path)
        assert entry(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: fibermem sim SCENARIO")
        last = err.splitlines()[-1]
        assert last.startswith("fibermem: error: ") and word in last
        assert list(tmp_path.iterdir()) == []

    def test_flag_forms_and_order_write_the_same_bytes(self, tmp_path, capsys):
        # --set collects, --seed keeps its last value, which may be negative
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert entry(["sim", "fig1c", "--out", str(first), "--seed", "-1",
                      "--set", "spectroscopy.od=4", "--set", "scheme.gamma_MHz=6"]) == 0
        assert entry(["sim", "--set=spectroscopy.od=4", "--seed=7", "--out=%s" % second,
                      "--seed=-1", "--set", "scheme.gamma_MHz=6", "fig1c"]) == 0
        assert first.read_bytes() == second.read_bytes()
        first_out, second_out = capsys.readouterr().out.split("wrote ")[1:]
        assert first_out.replace(str(first), str(second)) == second_out
        assert "seed -1)" in second_out and "spectroscopy.od = 4" in first.read_text()

    @pytest.mark.parametrize("sim, item", [
        ("fig1b", "absorption.k_exp=1e30"),
        ("fig1c", "scheme.gamma_MHz=5e-30"),
        ("fig1c", "spectroscopy.span_MHz=1e30"),
    ])
    def test_overflowing_curve_runs_without_warning(self, tmp_path, sim, item):
        # (1 + P/P_sat)^k past the float range is the T = 1 limit, which
        # the fig1b run reached with overflow warnings.  The domain keeps
        # (2 delta/Gamma)^2 finite; the fig1c runs take its widest wings,
        # which are T = 1 to the last digit, through the fit
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert entry(["sim", sim, "--out", str(out), "--set", item]) == 0
        assert np.isfinite(read_csv(out)[2]).all()

    def test_fit_of_overflowing_wings_runs_without_warning(self, tmp_path, capsys):
        # every LM step evaluates (2 delta/Gamma)^2 past the float range on
        # the rows at +-1e300 MHz; the fit reads them as T = 1.  Under 5 ms.
        out = tmp_path / "x.csv"
        assert entry(["sim", "fig1c", "--out", str(out)]) == 0
        with open(out, "a") as fh:
            fh.write("-1e300,1\n1e300,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert entry(["fit", "lorentzian_od", "--data", str(out)]) == 0
        assert "od = 3 +/-" in capsys.readouterr().out

    @pytest.mark.parametrize("wavelength_nm, core_index", [
        (852.0, 1.4525), (780.0, 1.44), (1064.0, 2.0), (852.0, 1.01)])
    def test_mode_scan_past_the_v_limit_refused_naming_the_keys(
            self, tmp_path, capsys, wavelength_nm, core_index):
        # the mode solver's (J1(u)/K1(w))^2 overflows from V = 344.7: a
        # one-diameter scan just under MAX_MODE_V runs clean, one just over
        # it is refused before solving.  Under 0.1 s
        out = tmp_path / "x.csv"
        d_nm = (scenarios.MAX_MODE_V * wavelength_nm
                / (math.pi * math.sqrt(core_index * core_index - 1.0)))
        for scale, rc in ((0.999, 0), (1.001, 2)):
            d = "%r" % (scale * d_nm)
            assert entry(["sim", "mode_scan", "--out", str(out),
                          "--set", "fiber.wavelength_nm=%r" % wavelength_nm,
                          "--set", "fiber.core_index=%r" % core_index,
                          "--set", "scan.diameter_min_nm=" + d,
                          "--set", "scan.diameter_max_nm=" + d]) == rc
        assert np.isfinite(read_csv(out)[2]).all()
        err = capsys.readouterr().err
        for key in ("scan.diameter_max_nm", "fiber.wavelength_nm", "fiber.core_index"):
            assert "%r" % key in err

    def test_thick_fiber_refused_and_single_key_extremes_run(self, tmp_path, capsys):
        # a 100 um fiber (V = 388) printed overflow warnings and exited 3
        # naming a CSV column; the default scan at the largest core index
        # (V = 295.0) and the shortest wavelength (V = 264.7) stays under
        # the limit
        out = tmp_path / "x.csv"
        assert entry(["sim", "mode_scan", "--out", str(out),
                      "--set", "scan.diameter_min_nm=1e5",
                      "--set", "scan.diameter_max_nm=1e5"]) == 2
        assert "past the mode solver's limit" in capsys.readouterr().err
        assert not out.exists()
        for item in ("fiber.core_index=100", "fiber.wavelength_nm=10"):
            assert entry(["sim", "mode_scan", "--out", str(out), "--set", item]) == 0
            assert np.isfinite(read_csv(out)[2]).all()

    @pytest.mark.parametrize("key", ["probe.photons", "counting.background"])
    def test_poisson_mean_past_the_limit_refused_naming_the_key(self, tmp_path, capsys,
                                                                key):
        # NumPy's Generator.poisson refused these with a bare "lam value too large"
        out = tmp_path / "x.csv"
        assert entry(["sim", "fig3b", "--out", str(out), "--set", key + "=1e300",
                      "--set", "storage.t_stop_ns=700", "--set", "storage.n_z=50"]) == 2
        err = capsys.readouterr().err
        assert "config key %r" % key in err and "lam" not in err
        assert not out.exists()

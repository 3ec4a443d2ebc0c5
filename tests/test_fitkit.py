import dataclasses
import math
import warnings

import numpy as np
import pytest

from fibermem import cli, decoherence, eit, fitkit
from fibermem.ensemble import lorentzian_transmission, saturation_transmission

TRUTH = {
    "saturation": (8.0 / 1.3, 1.3e-9, 1.0),
    "lorentzian_od": (3.0, 2 * math.pi * 6.8e6),
    "decay_lifetime": (4.72e-6, 3.58e-6),
    "eit_spectrum": (3.0, 2 * math.pi * 6.8e6, 4.4e6, 3.3e7),
}

GRIDS = {
    "saturation": np.logspace(-11, -7.3, 100),
    "lorentzian_od": np.linspace(-2 * math.pi * 25e6, 2 * math.pi * 25e6, 100),
    "decay_lifetime": np.linspace(0.05e-6, 12e-6, 100),
    "eit_spectrum": np.linspace(-2 * math.pi * 30e6, 2 * math.pi * 30e6, 100),
}


def clean_rows(model_id):
    x = GRIDS[model_id]
    y = fitkit.evaluate_model(model_id, TRUTH[model_id], x)
    return list(zip(x, y))


class TestEvaluateModel:
    def test_lorentzian_center_is_beer_lambert(self):
        y = fitkit.evaluate_model("lorentzian_od", (3.0, 2 * math.pi * 6.8e6),
                                  np.array([0.0]))
        assert y[0] == pytest.approx(math.exp(-3.0), rel=1e-12)

    def test_decay_starts_at_unity(self):
        y = fitkit.evaluate_model("decay_lifetime", (4.72e-6, 3.58e-6),
                                  np.array([0.0]))
        assert y[0] == 1.0

    def test_eit_without_control_matches_lorentzian(self):
        delta = GRIDS["lorentzian_od"]
        # omega_c at its lower bound is effectively off
        y_eit = fitkit.evaluate_model(
            "eit_spectrum", (3.0, 2 * math.pi * 6.8e6, 1e2, 1e4), delta)
        y_lor = lorentzian_transmission(delta, 3.0, 2 * math.pi * 6.8e6)
        assert np.max(np.abs(y_eit - y_lor)) < 1e-6

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            fitkit.evaluate_model("parabola", (1.0,), np.array([0.0]))

    def test_out_of_bounds_parameters_rejected(self):
        with pytest.raises(ValueError):
            fitkit.evaluate_model("lorentzian_od", (-1.0, 1e7), np.array([0.0]))
        with pytest.raises(ValueError):
            fitkit.evaluate_model("lorentzian_od", (1.0,), np.array([0.0]))

    @pytest.mark.parametrize("model_id", sorted(fitkit.MODELS))
    def test_bounds_positive_and_finite(self, model_id):
        # the fit runs in log space, so a zero or infinite bound breaks it
        for lo, hi in fitkit.MODELS[model_id].default_bounds:
            assert 0.0 < lo < hi < math.inf


class TestProblemValidation:
    def test_too_few_points(self):
        x = GRIDS["lorentzian_od"][:2]
        y = np.ones(2)
        with pytest.raises(ValueError):
            fitkit.fit("lorentzian_od", list(zip(x, y)))

    def test_guess_outside_bounds(self):
        with pytest.raises(ValueError):
            fitkit.fit("lorentzian_od", clean_rows("lorentzian_od"),
                       initial_guess=(2e3, 2 * math.pi * 6e6))

    def test_guess_length_mismatch(self):
        with pytest.raises(ValueError, match="initial_guess length mismatch"):
            fitkit.fit("lorentzian_od", clean_rows("lorentzian_od"), initial_guess=(3.0,))

    def test_unknown_frozen_name(self):
        with pytest.raises(ValueError):
            fitkit.fit("lorentzian_od", clean_rows("lorentzian_od"),
                       frozen=frozenset({"bogus"}))

    @pytest.mark.parametrize("shape", [(12, 4), (12,)])
    def test_data_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="array of x, y and an optional sigma_y"):
            fitkit.fit("lorentzian_od", np.ones(shape))

    def test_fewer_distinct_x_than_free_parameters_rejected(self):
        x = np.repeat(GRIDS["saturation"][[10, 60]], 50)
        data = np.column_stack((x, fitkit.evaluate_model("saturation", TRUTH["saturation"], x)))
        with pytest.raises(ValueError, match="2 distinct x values cannot identify 3 free"):
            fitkit.fit("saturation", data)
        # with k_exp frozen, two powers fix the two free parameters
        res = fitkit.fit("saturation", data, initial_guess=TRUTH["saturation"],
                         frozen=frozenset({"k_exp"}))
        assert res.parameter("alpha0_L") == pytest.approx(TRUTH["saturation"][0], rel=1e-6)

    def test_nonpositive_sigma_rejected(self):
        x = GRIDS["lorentzian_od"]
        y = np.ones_like(x)
        rows = [(xi, yi, 0.0) for xi, yi in zip(x, y)]
        with pytest.raises(ValueError):
            fitkit.fit("lorentzian_od", rows)

    # an inf x or sigma used to fit and report convergence, a nan y to
    # fail inside the SVD
    @pytest.mark.parametrize("column, value", [(0, math.inf), (1, math.nan),
                                               (2, math.inf)])
    def test_non_finite_data_rejected(self, column, value):
        rows = [[xi, yi, 0.01] for xi, yi in clean_rows("lorentzian_od")]
        rows[4][column] = value
        with pytest.raises(ValueError, match="data row 5 holds a non-finite"):
            fitkit.fit("lorentzian_od", rows)


class TestDataDomain:
    # the laws are bare formulas: fit and evaluate_model check x once per
    # call against the model's registered domain
    @pytest.mark.parametrize("model_id, name", [("saturation", "p_W"),
                                                ("decay_lifetime", "t_s")])
    def test_negative_x_refused(self, model_id, name):
        x = GRIDS[model_id].copy()
        y = fitkit.evaluate_model(model_id, TRUTH[model_id], x)
        x[5] = -x[5]
        with pytest.raises(ValueError, match="%s must be nonnegative" % name):
            fitkit.evaluate_model(model_id, TRUTH[model_id], x)
        with pytest.raises(ValueError, match="%s must be nonnegative" % name):
            fitkit.fit(model_id, np.column_stack((x, y)))
        # the law itself evaluates the negative x
        assert np.isfinite(fitkit.MODELS[model_id].fn(x, *TRUTH[model_id])).all()

    @pytest.mark.parametrize("model_id", ["lorentzian_od", "eit_spectrum"])
    def test_negative_detuning_accepted(self, model_id):
        x = GRIDS[model_id]
        assert x.min() < 0.0 and fitkit.MODELS[model_id].x_nonnegative is None
        res = fitkit.fit(model_id, clean_rows(model_id))
        assert res.converged


class TestZeroNoiseRecovery:
    @pytest.mark.parametrize("model_id", sorted(TRUTH))
    def test_exact_fixed_point(self, model_id):
        res = fitkit.fit(model_id, clean_rows(model_id))
        assert res.converged
        truth = np.array(TRUTH[model_id])
        assert np.max(np.abs(res.parameters - truth) / truth) < 1e-6
        assert res.reduced_chi2 < 1e-20


class TestNoisyRecovery:
    @pytest.mark.parametrize("model_id", sorted(TRUTH))
    def test_three_sigma_round_trip(self, model_id):
        x = GRIDS[model_id]
        truth = TRUTH[model_id]
        y0 = fitkit.evaluate_model(model_id, truth, x)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            sig = 0.01 * np.abs(y0)
            y = y0 + rng.normal(0.0, sig)
            res = fitkit.fit(model_id, list(zip(x, y, sig)))
            assert res.converged
            for i, tv in enumerate(truth):
                err = math.sqrt(res.covariance[i, i])
                assert abs(res.parameters[i] - tv) < 3.0 * err


class TestFitContract:
    def test_deterministic(self):
        r1 = fitkit.fit("lorentzian_od", clean_rows("lorentzian_od"))
        r2 = fitkit.fit("lorentzian_od", clean_rows("lorentzian_od"))
        assert np.array_equal(r1.parameters, r2.parameters)
        assert r1.n_iterations == r2.n_iterations

    def test_reorder_invariance(self):
        rows = clean_rows("lorentzian_od")
        shuffled = rows[::2] + rows[1::2][::-1]
        r1 = fitkit.fit("lorentzian_od", rows)
        r2 = fitkit.fit("lorentzian_od", shuffled)
        assert np.max(np.abs(r1.parameters - r2.parameters)
                      / r1.parameters) < 1e-9

    def test_sigma_scaling_leaves_parameters(self):
        x = GRIDS["lorentzian_od"]
        y0 = fitkit.evaluate_model("lorentzian_od", TRUTH["lorentzian_od"], x)
        rng = np.random.default_rng(3)
        y = y0 + rng.normal(0.0, 0.01 * np.abs(y0))
        rows1 = [(xi, yi, 0.01) for xi, yi in zip(x, y)]
        rows5 = [(xi, yi, 0.05) for xi, yi in zip(x, y)]
        r1 = fitkit.fit("lorentzian_od", rows1)
        r5 = fitkit.fit("lorentzian_od", rows5)
        assert np.max(np.abs(r1.parameters - r5.parameters)
                      / r1.parameters) < 1e-9

    def test_cost_history_nonincreasing(self):
        res = fitkit.fit("decay_lifetime", clean_rows("decay_lifetime"))
        hist = np.array(res.cost_history)
        assert np.all(np.diff(hist) <= 0.0)

    def test_covariance_symmetric_psd(self):
        x = GRIDS["lorentzian_od"]
        y0 = fitkit.evaluate_model("lorentzian_od", TRUTH["lorentzian_od"], x)
        rng = np.random.default_rng(11)
        sig = 0.01 * np.abs(y0)
        y = y0 + rng.normal(0.0, sig)
        res = fitkit.fit("lorentzian_od", list(zip(x, y, sig)))
        cov = res.covariance
        assert np.allclose(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-12

    def test_frozen_parameter_stays_put(self):
        x = GRIDS["lorentzian_od"]
        y = fitkit.evaluate_model("lorentzian_od", TRUTH["lorentzian_od"], x)
        guess = (1.5, 2 * math.pi * 6.8e6)
        res = fitkit.fit(
            "lorentzian_od", list(zip(x, y)), initial_guess=guess,
            frozen=frozenset({"gamma_rad_per_s"}))
        assert res.parameters[1] == guess[1]
        assert res.parameters[0] == pytest.approx(3.0, rel=1e-8)
        assert res.covariance[1, 1] == 0.0

    def test_every_parameter_frozen_returns_the_guess(self):
        guess = (1.5, 2 * math.pi * 6.8e6)
        res = fitkit.fit("lorentzian_od", clean_rows("lorentzian_od"), initial_guess=guess,
                         frozen=frozenset({"od", "gamma_rad_per_s"}))
        assert res.converged and tuple(res.parameters) == guess
        assert not res.covariance.any() and not res.unidentifiable

    def test_max_iteration_cap_returns_unconverged(self, monkeypatch):
        monkeypatch.setattr(fitkit, "_MAX_ITER", 1)
        x = GRIDS["eit_spectrum"]
        y0 = fitkit.evaluate_model("eit_spectrum", TRUTH["eit_spectrum"], x)
        res = fitkit.fit("eit_spectrum", list(zip(x, y0)))
        assert not res.converged
        assert res.n_iterations == 1

    def test_singular_jacobian_flags_unidentifiable(self):
        # sampled at +/- one detuning, whose Jacobian rows are identical:
        # only one combination of od and width is fixed
        x = np.repeat([-1.0, 1.0], 5) * 2 * math.pi * 3.4e6
        y = fitkit.evaluate_model(
            "lorentzian_od", TRUTH["lorentzian_od"], x)
        res = fitkit.fit(
            "lorentzian_od", list(zip(x, y)),
            initial_guess=(2.0, 2 * math.pi * 6.8e6))
        assert set(res.unidentifiable) == {"od", "gamma_rad_per_s"}

    def test_width_flagged_alone_when_it_drops_out(self):
        # line center fixes od; 1 THz off resonance the medium is transparent
        # in double precision, so the width drops out exactly
        x = np.repeat([0.0, 2 * math.pi * 1e12], 5)
        y = fitkit.evaluate_model(
            "lorentzian_od", TRUTH["lorentzian_od"], x)
        res = fitkit.fit(
            "lorentzian_od", list(zip(x, y)),
            initial_guess=(2.0, 2 * math.pi * 6.8e6))
        assert res.unidentifiable == ("gamma_rad_per_s",)
        assert res.parameter("od") == pytest.approx(TRUTH["lorentzian_od"][0])

    def test_all_zero_jacobian_reports_infinite_uncertainty(self):
        # line center only, od frozen: the one free parameter drops out
        x = np.zeros(10)
        y = fitkit.evaluate_model(
            "lorentzian_od", TRUTH["lorentzian_od"], x)
        res = fitkit.fit(
            "lorentzian_od", list(zip(x, y)),
            initial_guess=(2.0, 2 * math.pi * 6.8e6), frozen=frozenset({"od"}))
        assert res.unidentifiable == ("gamma_rad_per_s",)
        assert "+/- inf rad/s UNIDENTIFIABLE" in fitkit.format_result(res)

    @pytest.mark.filterwarnings("error")
    def test_flat_model_flags_every_parameter(self, tmp_path, capsys):
        # 1-4 THz off resonance the line is transparent in double
        # precision: the normal matrix is all zero, so nothing is fixed
        data = tmp_path / "flat.csv"
        data.write_text("detuning_MHz,transmission\n1e6,1\n2e6,1\n3e6,1\n4e6,1\n")
        assert cli.entry(["fit", "lorentzian_od", "--data", str(data)]) == 4
        out = capsys.readouterr().out
        assert "converged: False" in out
        assert "od = 2 +/- inf dimensionless UNIDENTIFIABLE" in out
        assert "+/- inf rad/s UNIDENTIFIABLE" in out
        res = fitkit.fit("lorentzian_od", [(2e12 * math.pi * k, 1.0) for k in (1, 2, 3, 4)])
        assert res.unidentifiable == res.param_names and not res.converged
        assert np.array_equal(np.diag(res.covariance), [np.inf, np.inf])
        assert not np.isnan(res.covariance).any()

    def test_unweighted_flagged_unitless(self):
        res = fitkit.fit("lorentzian_od", clean_rows("lorentzian_od"))
        assert res.chi2_unitless
        x = GRIDS["lorentzian_od"]
        y = fitkit.evaluate_model("lorentzian_od", TRUTH["lorentzian_od"], x)
        rows = [(xi, yi, 0.01) for xi, yi in zip(x, y)]
        res_w = fitkit.fit("lorentzian_od", rows)
        assert not res_w.chi2_unitless

    @pytest.mark.parametrize("model_id", sorted(fitkit.MODELS))
    def test_unweighted_equals_unit_sigma_exactly(self, model_id):
        # an unweighted fit skips the weight product, which at sigma 1 is
        # multiplication by 1.0 and so changes no bit
        rows = noisy_rows(model_id)
        ones = np.column_stack((rows[:, :2], np.ones(len(rows))))
        plain = fitkit.fit(model_id, rows[:, :2])
        unit = fitkit.fit(model_id, ones)
        assert plain.parameters.tobytes() == unit.parameters.tobytes()
        assert plain.covariance.tobytes() == unit.covariance.tobytes()
        assert plain.cost_history == unit.cost_history
        assert plain.reduced_chi2 == unit.reduced_chi2
        assert plain.n_iterations == unit.n_iterations
        assert plain.converged == unit.converged
        assert plain.unidentifiable == unit.unidentifiable

    def test_format_result_mentions_every_parameter(self):
        res = fitkit.fit("saturation", clean_rows("saturation"))
        text = fitkit.format_result(res)
        for name in res.param_names:
            assert name in text
        assert "reduced_chi2" in text


def public_curve(model_id, p, x):
    """The model's curve from its physics module, on validated inputs."""
    p = [float(v) for v in p]
    if model_id == "saturation":
        return saturation_transmission(x, *p)
    if model_id == "lorentzian_od":
        return lorentzian_transmission(x, *p)
    if model_id == "decay_lifetime":
        return decoherence.efficiency_decay(x, p[0], p[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gamma_gs may exceed gamma_ge / 5 here
        scheme = eit.LambdaScheme(gamma_ge_rad_per_s=p[1], gamma_gs_rad_per_s=p[2])
    return eit.eit_spectrum(p[0], scheme, p[3], x)


def noisy_rows(model_id, seed=2):
    x = GRIDS[model_id]
    y0 = fitkit.evaluate_model(model_id, TRUTH[model_id], x)
    sig = 0.01 * np.abs(y0)
    y = y0 + np.random.default_rng(seed).normal(0.0, sig)
    return np.column_stack((x, y, sig))


class TestBatchedModel:
    @pytest.mark.parametrize("model_id", sorted(fitkit.MODELS))
    def test_rows_equal_single_calls_and_public_curves(self, model_id):
        spec = fitkit.MODELS[model_id]
        lo, hi = np.log(np.array(spec.default_bounds)).T
        rows = np.exp(np.random.default_rng(7).uniform(lo, hi, (64, lo.size)))
        rows[0] = spec.default_guess  # the first Jacobian's unstepped values
        x = GRIDS[model_id]
        block = spec.fn(x, *fitkit._columns(rows))
        assert block.shape == (64, x.size)
        for curve, p in zip(block, rows):
            assert np.array_equal(curve, spec.fn(x, *fitkit._columns(p)))
            assert np.array_equal(curve, public_curve(model_id, p, x))

    @pytest.mark.parametrize("frozen_first", [False, True])
    @pytest.mark.parametrize("model_id", sorted(fitkit.MODELS))
    def test_one_model_call_per_jacobian(self, monkeypatch, model_id, frozen_first):
        spec = fitkit.MODELS[model_id]
        blocks = []

        def fn(x, *params):
            if np.ndim(params[0]) == 2:
                blocks.append((len(params[0]), len(params)))
            return spec.fn(x, *params)

        monkeypatch.setitem(fitkit.MODELS, model_id, dataclasses.replace(spec, fn=fn))
        names = spec.param_names
        frozen = frozenset(names[:1]) if frozen_first else frozenset()
        res = fitkit.fit(model_id, noisy_rows(model_id), initial_guess=TRUTH[model_id],
                         frozen=frozen)
        assert res.n_iterations >= 1
        # one block per iteration and one for the covariance, a row per
        # free parameter
        n_free = len(names) - len(frozen)
        assert blocks == [(n_free, len(names))] * (res.n_iterations + 1)

    def test_fit_builds_no_dataclass_and_no_warnings_context(self, monkeypatch):
        data = {m: noisy_rows(m) for m in fitkit.MODELS}
        built, contexts = [], []
        check = eit.LambdaScheme.__post_init__

        def counted(self):
            built.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(eit.LambdaScheme, "__post_init__", counted)
        catch = warnings.catch_warnings

        def counted_catch(*args, **kwargs):
            contexts.append(1)
            return catch(*args, **kwargs)

        monkeypatch.setattr(warnings, "catch_warnings", counted_catch)
        for model_id, rows in data.items():
            assert fitkit.fit(model_id, rows).converged
        assert built == [] and contexts == []
        # the counters do count
        with warnings.catch_warnings():
            eit.LambdaScheme()
        assert built == ["LambdaScheme"] and contexts == [1]

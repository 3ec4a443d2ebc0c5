import math

import numpy as np
import pytest

from fibermem import counting


class TestAnalyticSnr:
    def test_headline_operating_point(self):
        model = counting.CountingModel(mean_photons_in=0.6, efficiency=0.10,
                                       background_per_window=0.003)
        assert counting.analytic_snr(model) == pytest.approx(20.0, rel=1e-12)

    def test_zero_background_is_infinite(self):
        model = counting.CountingModel(background_per_window=0.0)
        assert counting.analytic_snr(model) == math.inf
        assert counting.snr_standard_error(model) == math.inf

    def test_zero_efficiency_is_zero(self):
        model = counting.CountingModel(efficiency=0.0,
                                       background_per_window=0.0)
        assert counting.analytic_snr(model) == 0.0


class TestStandardError:
    def test_storage_operating_point(self):
        # the default fig3b/custom point, as pinned in tests/golden.json
        model = counting.CountingModel(mean_photons_in=0.6,
                                       efficiency=0.09895564483912438,
                                       background_per_window=0.003)
        assert counting.snr_standard_error(model) == 3.703511463412805

    @pytest.mark.parametrize("background", [0.003, 1e-105, 1e-110, 1e-300, 5e-324])
    def test_matches_log_space_evaluation(self, background):
        model = counting.CountingModel(background_per_window=background)
        mu_s = model.mean_photons_in * model.efficiency
        # log of sqrt(mu_s (mu_s + mu_b) / (n mu_b^3))
        log_se = 0.5 * (math.log(mu_s) + math.log(mu_s + background)
                        - math.log(model.n_shots) - 3.0 * math.log(background))
        se = counting.snr_standard_error(model)
        if log_se < math.log(np.finfo(float).max):
            assert se == pytest.approx(math.exp(log_se), rel=1e-12)
        else:
            # past the float range it reads inf, like the zero-background sentinel
            assert se == math.inf

    def test_zero_signal_is_zero(self):
        model = counting.CountingModel(efficiency=0.0, background_per_window=5e-324)
        assert counting.snr_standard_error(model) == 0.0


class TestSimulation:
    def test_reproducible_per_seed(self):
        model = counting.CountingModel(n_shots=500)
        r1 = counting.simulate_counting(model, seed=42)
        r2 = counting.simulate_counting(model, seed=42)
        assert np.array_equal(r1.signal_counts, r2.signal_counts)
        assert np.array_equal(r1.background_counts, r2.background_counts)
        assert r1.snr == r2.snr

    def test_different_seed_differs(self):
        model = counting.CountingModel(n_shots=500)
        r1 = counting.simulate_counting(model, seed=1)
        r2 = counting.simulate_counting(model, seed=2)
        assert not np.array_equal(r1.signal_counts, r2.signal_counts)

    def test_converges_to_analytic(self):
        model = counting.CountingModel(n_shots=200000)
        res = counting.simulate_counting(model, seed=7)
        se = counting.snr_standard_error(model)
        assert abs(res.snr - 20.0) < 3.0 * se

    def test_zero_background_sentinel(self):
        model = counting.CountingModel(background_per_window=0.0, n_shots=100)
        res = counting.simulate_counting(model, seed=3)
        assert res.snr == math.inf

    def test_zero_efficiency_gives_zero(self):
        model = counting.CountingModel(efficiency=0.0, n_shots=100)
        res = counting.simulate_counting(model, seed=3)
        assert res.snr == 0.0

    def test_counts_shape_and_nonnegative(self):
        model = counting.CountingModel(n_shots=250)
        res = counting.simulate_counting(model, seed=9)
        assert res.signal_counts.shape == (250,)
        assert res.background_counts.shape == (250,)
        assert np.all(res.signal_counts >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            counting.CountingModel(mean_photons_in=-1.0)
        with pytest.raises(ValueError):
            counting.CountingModel(efficiency=1.5)
        with pytest.raises(ValueError):
            counting.CountingModel(n_shots=0)

    def test_mean_past_the_poisson_limit_refused_by_field(self):
        with pytest.raises(ValueError, match="mean_photons_in \\* efficiency"):
            counting.CountingModel(mean_photons_in=1e300, efficiency=0.5)
        with pytest.raises(ValueError, match="background_per_window"):
            counting.CountingModel(background_per_window=1e19)
        # the limit itself still draws
        model = counting.CountingModel(mean_photons_in=counting.MAX_MEAN, efficiency=1.0,
                                       background_per_window=counting.MAX_MEAN, n_shots=10)
        res = counting.simulate_counting(model, seed=0)
        assert res.snr == pytest.approx(1.0, rel=1e-6)

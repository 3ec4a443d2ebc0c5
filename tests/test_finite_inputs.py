"""Each physical input dataclass refuses a NaN or infinite number."""

import math

import pytest

from fibermem.counting import CountingModel
from fibermem.decoherence import DecoherenceParams, MagneticScenario
from fibermem.eit import LambdaScheme, ProbePulse, PropagationGrid
from fibermem.ensemble import AbsorptionModel, CloudSpec
from fibermem.waveguide import FiberSpec

NAN, INF = math.nan, math.inf


def case(cls, name, value, **required):
    """cls built with field `name` set to the non-finite `value`."""
    return pytest.param(cls, {name: value, **required},
                        id="%s-%s-%r" % (cls.__name__, name, value))


CASES = [
    case(FiberSpec, "radius_m", NAN, wavelength_m=852e-9),
    case(FiberSpec, "wavelength_m", INF, radius_m=200e-9),
    case(PropagationGrid, "dt_s", NAN),
    case(PropagationGrid, "t_stop_s", INF),
    case(ProbePulse, "fwhm_s", NAN),
    case(ProbePulse, "peak_time_s", INF),
    case(LambdaScheme, "gamma_ge_rad_per_s", NAN),
    case(LambdaScheme, "gamma_ge_rad_per_s", INF),
    case(DecoherenceParams, "temperature_K", NAN),
    case(DecoherenceParams, "zeeman_broadening_Hz", INF),
    case(MagneticScenario, "b_field_T", NAN),
    case(MagneticScenario, "b_field_T", INF),
    case(MagneticScenario, "m_populations", ((0, NAN),)),
    case(CountingModel, "mean_photons_in", NAN),
    case(CountingModel, "background_per_window", INF),
    case(AbsorptionModel, "od", NAN),
    case(AbsorptionModel, "gamma_rad_per_s", INF),
    case(CloudSpec, "peak_density_per_m3", NAN),
    case(CloudSpec, "temperature_K", INF),
]


@pytest.mark.parametrize("cls, kwargs", CASES)
def test_non_finite_input_rejected(cls, kwargs):
    with pytest.raises(ValueError, match="finite"):
        cls(**kwargs)

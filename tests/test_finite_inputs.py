"""Each physical input dataclass, and each parameter of the two
absorption laws, refuses a NaN or infinite number."""

import math

import pytest

from fibermem.counting import CountingModel
from fibermem.decoherence import DecoherenceParams, MagneticScenario
from fibermem.eit import ControlField, LambdaScheme, ProbePulse, PropagationGrid
from fibermem.ensemble import CloudSpec, lorentzian_transmission, saturation_transmission
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
    case(ControlField, "off_s", NAN, rabi_rad_per_s=1e7, on_s=345e-9, ramp_s=10e-9),
    case(ControlField, "off_s", INF, rabi_rad_per_s=1e7, on_s=345e-9, ramp_s=10e-9),
    case(ControlField, "ramp_s", NAN, rabi_rad_per_s=1e7, off_s=315e-9, on_s=345e-9),
    case(ControlField, "ramp_s", INF, rabi_rad_per_s=1e7, off_s=315e-9, on_s=345e-9),
    case(LambdaScheme, "gamma_ge_rad_per_s", NAN),
    case(LambdaScheme, "gamma_ge_rad_per_s", INF),
    case(DecoherenceParams, "temperature_K", NAN),
    case(DecoherenceParams, "zeeman_broadening_Hz", INF),
    case(MagneticScenario, "b_field_T", NAN),
    case(MagneticScenario, "b_field_T", INF),
    case(MagneticScenario, "m_populations", ((0, NAN),)),
    case(CountingModel, "mean_photons_in", NAN),
    case(CountingModel, "background_per_window", INF),
    case(CloudSpec, "peak_density_per_m3", NAN),
    case(CloudSpec, "temperature_K", INF),
]


@pytest.mark.parametrize("cls, kwargs", CASES)
def test_non_finite_input_rejected(cls, kwargs):
    with pytest.raises(ValueError, match="finite"):
        cls(**kwargs)


LAW_PARAMETERS = {
    saturation_transmission: {"alpha0_L": 8.0 / 1.3, "p_sat_W": 1.3e-9, "k_exp": 1.0},
    lorentzian_transmission: {"od": 3.0, "gamma_rad_per_s": 2 * math.pi * 6.8e6},
}


@pytest.mark.parametrize("curve, name, value", [
    pytest.param(curve, name, value, id="%s-%s-%r" % (curve.__name__, name, value))
    for curve, params in LAW_PARAMETERS.items() for name in params
    for value in (NAN, INF)
])
def test_non_finite_law_parameter_rejected(curve, name, value):
    with pytest.raises(ValueError, match="finite"):
        curve(0.0, **{**LAW_PARAMETERS[curve], name: value})

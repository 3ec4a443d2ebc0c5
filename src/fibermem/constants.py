"""Physical constants and cesium D2-line data, all in SI units, plus
the scalar-return and finite-input conventions shared by the physics
modules."""

import math
import numbers

import numpy as np

# Exact SI / CODATA 2018 values
C_LIGHT = 299_792_458.0              # m/s
H_PLANCK = 6.626_070_15e-34          # J s
HBAR = H_PLANCK / (2.0 * math.pi)    # J s
K_BOLTZMANN = 1.380_649e-23          # J/K
MU_BOHR = 9.274_010_0783e-24         # J/T
EPSILON_0 = 8.854_187_8128e-12       # F/m
MU_0 = 1.256_637_062_12e-6           # H/m

# Cesium-133
CS_MASS_KG = 2.206_946_50e-25        # kg
CS_GF_GROUND = 0.25                  # |g_F| of both ground hyperfine manifolds

# Cs D2 line
CS_D2_WAVELENGTH_M = 852.347e-9      # m, vacuum
CS_D2_GAMMA_FREE = 2.0 * math.pi * 5.2e6   # rad/s, free-space natural linewidth

# Saturation intensity of the cycling transition, pi*h*c*Gamma / (3 lambda^3)
CS_D2_ISAT_W_M2 = (
    math.pi * H_PLANCK * C_LIGHT * CS_D2_GAMMA_FREE / (3.0 * CS_D2_WAVELENGTH_M**3)
)

# Power scattered by one atom at full saturation, hbar*omega*Gamma/2
CS_D2_PSAT_ATOM_W = (
    HBAR * (2.0 * math.pi * C_LIGHT / CS_D2_WAVELENGTH_M) * CS_D2_GAMMA_FREE / 2.0
)

# Fused silica at 852 nm (Sellmeier)
SILICA_INDEX_852NM = 1.4525


def scalar_or_array(out):
    """A 0-d result (from a scalar input) as a Python number, else `out`."""
    return out.item() if np.ndim(out) == 0 else out


def check_fields(obj, positive=(), nonnegative=()) -> None:
    """Reject a NaN or infinite number in any field of dataclass `obj`
    (or value of dict `obj`), and a value <= 0 in the fields named in
    `positive`, < 0 in those named in `nonnegative`."""
    values = obj if isinstance(obj, dict) else vars(obj)
    for name, value in values.items():
        # float first: one C-level check for the common case, before the ABC
        if isinstance(value, (float, numbers.Real)) and not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    for name in positive:
        if values[name] <= 0:
            raise ValueError("%s must be positive" % name)
    for name in nonnegative:
        if values[name] < 0:
            raise ValueError("%s must be nonnegative" % name)

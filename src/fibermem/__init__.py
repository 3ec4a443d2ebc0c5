"""Nanofiber-coupled cold-atom light memory: mode solver, EIT dynamics,
decoherence models, fitting, and scenario runner."""

from .counting import CountingModel, analytic_snr, simulate_counting
from .decoherence import (
    DecoherenceParams,
    MagneticScenario,
    efficiency_decay,
    revival_envelope,
)
from .eit import (
    ControlField,
    LambdaScheme,
    ProbePulse,
    PropagationGrid,
    eit_spectrum,
    group_delay,
    propagate_pulse,
    rabi_from_power,
    storage_ramp_envelope,
    susceptibility,
)
from .ensemble import (
    AbsorptionModel,
    CloudSpec,
    atom_number_from_absorption,
    density_profile,
    effective_atom_number,
    lorentzian_transmission,
    saturation_transmission,
)
from .fitkit import FitProblem, FitResult, evaluate_model, fit, format_result
from .scenarios import Scenario, list_scenarios, run_scenario
from .waveguide import (
    FiberSpec,
    GuidedMode,
    solve_he11,
    surface_intensity_scan,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorptionModel",
    "CloudSpec",
    "ControlField",
    "CountingModel",
    "DecoherenceParams",
    "FiberSpec",
    "FitProblem",
    "FitResult",
    "GuidedMode",
    "LambdaScheme",
    "MagneticScenario",
    "ProbePulse",
    "PropagationGrid",
    "Scenario",
    "analytic_snr",
    "atom_number_from_absorption",
    "density_profile",
    "effective_atom_number",
    "efficiency_decay",
    "eit_spectrum",
    "evaluate_model",
    "fit",
    "format_result",
    "group_delay",
    "list_scenarios",
    "lorentzian_transmission",
    "propagate_pulse",
    "rabi_from_power",
    "revival_envelope",
    "run_scenario",
    "saturation_transmission",
    "simulate_counting",
    "solve_he11",
    "storage_ramp_envelope",
    "surface_intensity_scan",
    "susceptibility",
    "__version__",
]

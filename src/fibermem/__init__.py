"""Nanofiber-coupled cold-atom light memory: mode solver, EIT dynamics,
decoherence models, fitting, and scenario runner.

Import names from their modules, e.g. ``from fibermem.eit import
ControlField``; the package root loads none of them.
"""

__version__ = "0.1.0"

"""Deterministic WLAN coverage, interference and adaptive-beamforming simulator."""

import importlib

__version__ = "0.1.0"

__all__ = [
    "arrays",
    "channels",
    "nlms",
    "propagation",
    "spectrum",
    "survey",
    "throughput",
    "__version__",
]


def __getattr__(name: str):
    # Submodules load on first use (PEP 562), so a command that never
    # touches numpy, i.e. every command but beamform, does not import it.
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Deterministic WLAN coverage, interference and adaptive-beamforming simulator."""

__version__ = "0.1.0"

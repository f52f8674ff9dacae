"""Dual-polarization WDM fiber simulation and 4D modulation evaluation. The
modules are the API: import prs4d.harness, prs4d.cli and the rest by name."""

__version__ = "0.1.0"

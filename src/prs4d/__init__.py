"""Dual-polarization WDM fiber simulation and 4D modulation evaluation."""

from .constellation import (
    Constellation4D,
    PrsParams,
    build_4d64prs,
    build_6b4d_2a8psk,
    build_pm8qam,
    map_bits_to_symbols,
    optimize_prs_params,
)
from .channel import FiberParams, LinkConfig, propagate_link
from .demapper import (
    LlrBatch,
    NoiseModel,
    awgn_gmi_reference,
    compute_llrs,
    gmi_from_llrs,
)
from .harness import ExperimentConfig, ResultRecord, find_reach, run_point
from .rxdsp import SymbolBatch
from .txdsp import SampledSignal, generate_bits

__version__ = "0.1.0"

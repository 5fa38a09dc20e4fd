"""ionlink: simulator and analytic toolkit for heralded photon-mediated
entanglement of co-trapped ion qubits with sympathetic cooling."""

__version__ = "0.1.0"

from .config import (
    HardwareConfig,
    coolant_config,
    ideal_config,
    load_config,
    measured_swap_config,
)
from .quantum import DensityMatrix, KrausChannel, PureState
from .ion_photon import SourceParams
from .swap import SwapErrorParams
from .protocol import RateReport, simulate_campaign
from .rate_model import DecayParams, ScheduleParams
from .modes import ChainSpec, ModeTable
from .detection import ConfusionMatrix, ReadoutModel
from .analysis import BudgetLedger, FidelityBoundInputs

__all__ = [
    "HardwareConfig", "coolant_config", "ideal_config", "load_config",
    "measured_swap_config",
    "DensityMatrix", "KrausChannel", "PureState",
    "SourceParams",
    "SwapErrorParams",
    "RateReport", "simulate_campaign",
    "DecayParams", "ScheduleParams",
    "ChainSpec", "ModeTable",
    "ConfusionMatrix", "ReadoutModel",
    "BudgetLedger", "FidelityBoundInputs",
]

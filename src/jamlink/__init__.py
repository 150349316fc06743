"""jamlink: baseband link simulator and analysis toolkit for
jamming-modulation transmission with energy detection.

The transmitter conveys bits by switching the amplification applied to an
incident jamming waveform; the receiver decodes from per-symbol average
energy.  This package simulates that link over Rician block fading for
every jamming family of interest, and cross-validates the Monte Carlo
error rates against closed-form chi-square BER, optimal-threshold,
asymptotic and binary-input capacity expressions.

Modules
-------
signals
    Jamming waveform generators (Gaussian, tones, modulated).
channel
    Rician fading draws, SINR.
modem
    Received block energies, energy detector, threshold estimation.
theory
    Closed-form BER, thresholds, energy laws, asymptotics.
capacity
    Binary-input mutual information, capacity, DT baseline.
baselines
    DS-SS and FH Monte Carlo references under fullband jamming.
harness
    Config-driven sweep runner, presets fig2..fig8, CSV emission.
kernels
    Vectorized numpy hot loops (energy accumulation, tone synthesis).
"""

from . import baselines, capacity, channel, config, harness, kernels, modem, signals, theory
from .baselines import BaselineConfig, dsss_ber_mc, fh_ber_mc
from .capacity import CapacityResult, dt_capacity, mutual_information
from .capacity import capacity as channel_capacity
from .capacity import mi_derivative
from .channel import ChannelDraw, RicianParams, draw_channel, sinr
from .errors import (ConfigError, DegenerateChannelError,
                     DegenerateThresholdError, JamlinkError,
                     NumericalFailureError)
from .harness import (Curve, ExperimentConfig, SweepResult, config_from_file,
                      emit_csv, preset_config, run_ber_sweep,
                      run_capacity_sweep)
from .mc import BerEstimate, wilson_interval
from .modem import (FrameConfig, ThresholdEstimate, block_energies,
                    build_preamble, decode, estimate_threshold, run_link)
from .signals import (JammerKind, JammerSpec, ToneSet, gen_cscg,
                      gen_modulated, make_toneset, prepare_jammer)
from .theory import (ConditionalVariances, DeterministicEnergies,
                     ber_det, ber_det_noncentral, ber_gaussian_approx,
                     ber_random, delta2, jam_energy, optimal_threshold_det,
                     optimal_threshold_noncentral, optimal_threshold_random,
                     variances)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # modules
    "signals", "channel", "modem", "theory", "capacity", "baselines",
    "harness", "kernels", "config",
    # errors
    "JamlinkError", "DegenerateThresholdError", "DegenerateChannelError",
    "NumericalFailureError", "ConfigError",
    # signals
    "JammerKind", "JammerSpec", "ToneSet", "gen_cscg", "make_toneset",
    "gen_modulated", "prepare_jammer",
    # channel
    "RicianParams", "ChannelDraw", "draw_channel", "sinr",
    # modem
    "FrameConfig", "ThresholdEstimate", "build_preamble", "block_energies",
    "estimate_threshold", "decode", "run_link",
    # theory
    "ConditionalVariances", "DeterministicEnergies", "jam_energy", "delta2",
    "variances",
    "optimal_threshold_random", "ber_random", "ber_det",
    "ber_det_noncentral", "optimal_threshold_det",
    "optimal_threshold_noncentral", "ber_gaussian_approx",
    # capacity
    "CapacityResult", "mutual_information",
    "mi_derivative", "channel_capacity", "dt_capacity",
    # baselines
    "BaselineConfig", "dsss_ber_mc", "fh_ber_mc",
    # mc
    "BerEstimate", "wilson_interval",
    # harness
    "Curve", "ExperimentConfig", "SweepResult", "preset_config",
    "config_from_file", "run_ber_sweep", "run_capacity_sweep", "emit_csv",
]

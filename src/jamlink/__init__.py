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
config
    Flat key-value config-file reader.

The package binds only these modules and ``__version__``: every other name
lives in its module (``jamlink.theory.ber_random``).
"""

from . import baselines, capacity, channel, config, harness, kernels, modem, signals, theory

__version__ = "0.1.0"

__all__ = ["__version__", "signals", "channel", "modem", "theory", "capacity",
           "baselines", "harness", "kernels", "config"]

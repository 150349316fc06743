"""Experiment runner: presets, seeded parallel Monte Carlo sweeps, CSV.

Reproducibility contract: every random draw derives from
``SeedSequence(master_seed, spawn_key=(stream, ...indices))`` where stream 0
feeds per-curve jammer preparation (tone phases, drawn once per
experiment), stream 1 feeds per-block simulation keyed by (axis index,
curve index, block index) and stream 2 feeds the baselines keyed by (axis
index, scheme index).  Blocks run on a thread pool, queued one axis point
ahead: point i + 1's blocks are submitted before point i is reduced.  Each
point is reduced in block order, and its baselines' error counts are drawn
in that reduction, so results do not depend on the thread count.  A block
returns its errors, levels, exact threshold and SINR; the theory columns
are evaluated after the sweep's blocks, in one pass that solves every
estimated-mode noncentral threshold of the sweep in one lockstep batch.
"""

import csv
import math
import os
import secrets
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import (baselines, capacity as cap, channel, kernels, modem, signals,
               theory)
from .channel import ChannelDraw, RicianParams
from .config import coerce
from .errors import ConfigError, DegenerateChannelError, NumericalFailureError
from .mc import BerEstimate
from .modem import FrameConfig
from .signals import JammerKind, JammerSpec

__all__ = [
    "Curve",
    "ExperimentConfig",
    "SweepResult",
    "preset_config",
    "config_from_mapping",
    "run_ber_sweep",
    "run_capacity_sweep",
    "emit_csv",
    "read_csv",
    "PRESET_NAMES",
]

_STREAM_PHASES = 0
_STREAM_BLOCKS = 1
_STREAM_BASELINE = 2

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")

@dataclass(frozen=True)
class Curve:
    """One plotted curve: a jammer, a detector variant, a column label."""

    label: str
    jammer: JammerSpec
    threshold_mode: str = "estimated"

    def __post_init__(self):
        if self.threshold_mode not in ("estimated", "exact"):
            raise ConfigError(
                f"threshold mode must be 'estimated' or 'exact', "
                f"got {self.threshold_mode!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one sweep.

    ``axis_name`` is ``jnr_db`` or ``n`` for BER sweeps and ``jnr_db`` or
    ``p`` for capacity sweeps.  ``rician`` None means fixed unit gains.
    ``snr_curves_db`` only matters in capacity mode (one curve per value
    over ``p``, exactly one value over ``jnr_db``; the alphabet is a1 = 0,
    a2 = sqrt(2 P_A), the average-power mapping).
    """

    preset: str
    mode: str
    axis_name: str
    axis_values: tuple
    curves: tuple = ()
    frame: FrameConfig | None = None
    rician: RicianParams | None = None
    sigma2_R: float = 1.0
    n_tau: int = 0
    jnr_db_fixed: float | None = None
    blocks: int = 100
    payload_bits_per_block: int = 1000
    master_seed: int = 12345
    threads: int | None = None
    snr_curves_db: tuple = ()
    capacity_model: str = "real"
    include_baselines: bool = False
    baseline_eb_n0_db: float = 10.0

    def __post_init__(self):
        if self.mode not in ("ber", "capacity"):
            raise ConfigError(f"unknown experiment mode {self.mode!r}")
        vals = tuple(float(v) for v in self.axis_values)
        if not vals:
            raise ConfigError("axis values must be non-empty")
        _check_finite("axis values", vals)
        diffs = np.diff(vals)
        if len(vals) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("axis values must be strictly monotone")
        allowed = ("jnr_db", "n") if self.mode == "ber" else ("jnr_db", "p")
        if self.axis_name not in allowed:
            raise ConfigError(
                f"axis {self.axis_name!r} not valid for {self.mode} mode "
                f"(allowed: {allowed})")
        if self.mode == "ber":
            if not self.curves:
                raise ConfigError("BER sweep needs at least one curve")
            if self.frame is None:
                raise ConfigError("BER sweep needs a frame config")
            _check_unique("curve labels", [c.label for c in self.curves])
            if self.axis_name == "n":
                if self.jnr_db_fixed is None:
                    raise ConfigError("sweeping N requires a fixed jammer JNR")
                if any(not float(v).is_integer() or v < 1 for v in vals):
                    raise ConfigError(
                        "window-length axis values must be integers >= 1")
        else:
            if not self.snr_curves_db:
                raise ConfigError("capacity sweep needs at least one SNR value")
            if self.axis_name == "p" and self.jnr_db_fixed is None:
                raise ConfigError("sweeping p requires a fixed jammer JNR")
            if self.axis_name == "p" and not all(0 <= v <= 1 for v in vals):
                raise ConfigError("p axis values must lie in [0, 1]")
            if self.axis_name == "jnr_db" and len(self.snr_curves_db) > 1:
                raise ConfigError(
                    f"a capacity sweep over jnr_db takes one SNR value, got "
                    f"{len(self.snr_curves_db)}")
            if self.capacity_model not in ("real", "complex"):
                raise ConfigError("capacity model must be 'real' or 'complex'")
            _check_unique("capacity column labels",
                          [_snr_label(s) for s in self.snr_curves_db])
        if self.axis_name == "jnr_db" and self.jnr_db_fixed is not None:
            raise ConfigError("a fixed jammer JNR is not read on a jnr_db "
                              "axis, whose values set the JNR")
        if int(self.master_seed) < 0:
            raise ConfigError(
                f"master seed must be >= 0, got {self.master_seed}")
        _check_finite("fixed jammer JNR", (self.jnr_db_fixed,))
        _check_finite("capacity SNR values", self.snr_curves_db)
        _check_finite("baseline Eb/N0", (self.baseline_eb_n0_db,))
        if int(self.blocks) < 1 or int(self.payload_bits_per_block) < 1:
            raise ConfigError("blocks and payload_bits_per_block must be >= 1")
        _check_sigma2(self.sigma2_R)
        if self.axis_name == "jnr_db":
            for v in vals:
                _db_power("axis value", v, self.sigma2_R)
        if self.jnr_db_fixed is not None:
            _db_power("fixed jammer JNR", self.jnr_db_fixed, self.sigma2_R)
        for snr_db in self.snr_curves_db:
            _db_power("capacity SNR", snr_db, self.sigma2_R)
        _db_power("baseline Eb/N0", self.baseline_eb_n0_db)
        if self.n_tau < 0:
            raise ConfigError("n_tau must be >= 0")
        delayed = [c.label for c in self.curves if self.n_tau > 0
                   and c.threshold_mode == "exact"
                   and not c.jammer.kind.is_tonal]
        if delayed:
            raise ConfigError(
                f"exact threshold mode has no threshold at n_tau > 0 for "
                f"non-tonal jammers: {delayed}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        object.__setattr__(self, "axis_values", vals)
        object.__setattr__(self, "blocks", int(self.blocks))
        object.__setattr__(self, "payload_bits_per_block",
                           int(self.payload_bits_per_block))
        object.__setattr__(self, "master_seed", int(self.master_seed))


def _check_unique(what, labels, error=ConfigError):
    repeated = sorted({x for x in labels if labels.count(x) > 1})
    if repeated:
        raise error(f"repeated {what}: {repeated}")


def _snr_label(snr_db):
    return f"snr_{snr_db:g}db"  # %g keeps 6 digits: 5.000001 reads 5


def _check_finite(what, values):
    if not all(v is None or math.isfinite(v) for v in values):
        raise ConfigError(f"{what} must be finite, got {list(values)}")


def _check_sigma2(sigma2_R):
    if not (math.isfinite(sigma2_R) and sigma2_R > 0):
        raise ConfigError(
            f"noise variance must be finite and > 0, got {sigma2_R!r}")


def _db_power(what, db, scale=1.0):
    """``10^(db/10) * scale``; a ConfigError where it is 0 or overflows."""
    try:
        power = 10.0 ** (db / 10.0) * scale
    except OverflowError:
        power = math.inf
    if not 0 < power < math.inf:
        raise ConfigError(f"{what} {db!r} dB is out of range "
                          f"(power {power!r})")
    return power


@dataclass(frozen=True)
class SweepResult:
    """Column-named rows ready for CSV emission plus run metadata."""

    columns: tuple
    rows: tuple
    meta: dict = field(default_factory=dict)


def _resolve_threads(cfg):
    if cfg.threads is not None:
        return cfg.threads
    return min(os.cpu_count() or 1, 8)


def _a2_from_snr(snr_db, sigma2_R, mapping, p2=0.5):
    """Map a power knob in dB to the high amplification factor.

    'average': a2 carries the whole average power budget, p2 a2^2 = P_A.
    'on': the ON state itself carries it, a2^2 = P_A.
    """
    p_a = _db_power("SNR", snr_db, sigma2_R)
    if mapping == "average":
        return math.sqrt(p_a / p2)
    if mapping == "on":
        return math.sqrt(p_a)
    raise ConfigError(f"unknown snr map {mapping!r}")


# ---------------------------------------------------------------------------
# presets


# fig2, fig3, fig5 and fig6: OOK at 5 dB average SNR, N = M = 10
_FRAME_5DB = FrameConfig(N=10, M=10, a1=0.0,
                         a2=_a2_from_snr(5.0, 1.0, "average"))


def _ber_preset(preset, axis_name, axis_values, curves, frame, fading=True,
                **kw):
    rician = RicianParams(k_factor=10.0) if fading else None
    return ExperimentConfig(preset=preset, mode="ber", axis_name=axis_name,
                            axis_values=axis_values, curves=curves,
                            frame=frame, rician=rician, **kw)


def _preset_fig2(seed):
    kinds = (JammerKind.SINGLE_TONE, JammerKind.MULTI_TONE,
             JammerKind.NARROWBAND, JammerKind.DET_BROADBAND,
             JammerKind.RANDOM_BROADBAND)
    curves = tuple(Curve(k.value, JammerSpec(kind=k, power=1.0)) for k in kinds)
    return _ber_preset("fig2", "jnr_db", tuple(range(0, 31, 2)), curves,
                       _FRAME_5DB, master_seed=seed)


def _preset_fig3(seed):
    kinds = (JammerKind.MOD_BPSK, JammerKind.MOD_QPSK, JammerKind.MOD_16QAM)
    curves = tuple(Curve(k.value, JammerSpec(kind=k, power=1.0)) for k in kinds)
    return _ber_preset("fig3", "jnr_db", tuple(range(0, 31, 2)), curves,
                       _FRAME_5DB, master_seed=seed)


def _preset_fig4(seed):
    # Eb/N0 = 10 dB enters through the ON-state power: a2 = sqrt(10)
    frame = FrameConfig(N=8, M=10, a1=0.0, a2=_a2_from_snr(10.0, 1.0, "on"))
    curve = Curve("aaj", JammerSpec(kind=JammerKind.RANDOM_BROADBAND, power=1.0),
                  threshold_mode="exact")
    return _ber_preset("fig4", "jnr_db", tuple(range(0, 41, 5)), (curve,),
                       frame, fading=False, blocks=200,
                       payload_bits_per_block=50_000, include_baselines=True,
                       baseline_eb_n0_db=10.0, master_seed=seed)


def _preset_fig5(seed):
    curve = Curve("random_broadband",
                  JammerSpec(kind=JammerKind.RANDOM_BROADBAND, power=1.0))
    return _ber_preset("fig5", "n", (2, 4, 6, 8, 10, 14, 20, 30, 40, 50),
                       (curve,), _FRAME_5DB, jnr_db_fixed=10.0, master_seed=seed)


def _preset_fig6(seed):
    jam = JammerSpec(kind=JammerKind.RANDOM_BROADBAND, power=1.0)
    curves = (Curve("estimated", jam, "estimated"), Curve("exact", jam, "exact"))
    return _ber_preset("fig6", "jnr_db", tuple(range(0, 31, 2)), curves,
                       _FRAME_5DB, master_seed=seed)


def _preset_fig7(seed):
    return ExperimentConfig(preset="fig7", mode="capacity", axis_name="p",
                            axis_values=tuple(np.linspace(0.0, 1.0, 101)),
                            snr_curves_db=(0.0, 5.0, 10.0, 20.0),
                            jnr_db_fixed=10.0, capacity_model="real",
                            master_seed=seed)


def _preset_fig8(seed):
    return ExperimentConfig(preset="fig8", mode="capacity", axis_name="jnr_db",
                            axis_values=tuple(np.arange(0.0, 30.0 + 1e-9, 0.25)),
                            snr_curves_db=(10.0,), capacity_model="complex",
                            master_seed=seed)


_PRESETS = {"fig2": _preset_fig2, "fig3": _preset_fig3, "fig4": _preset_fig4,
            "fig5": _preset_fig5, "fig6": _preset_fig6, "fig7": _preset_fig7,
            "fig8": _preset_fig8}


def preset_config(name, seed=None):
    """Build a named preset, optionally overriding the master seed."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return _PRESETS[name](12345 if seed is None else int(seed))


# ---------------------------------------------------------------------------
# config files


# every config key and the type its value is read as
_KEYS = {
    "experiment.preset": "str", "experiment.mode": "str", "axis.name": "str",
    "axis.values": "list", "jammer.kind": "list", "jammer.jnr_db": "float",
    "frame.n": "int", "frame.m": "int", "frame.a1": "float",
    "frame.a2": "float", "frame.p1": "float", "snr.db": "float",
    "snr.map": "str", "channel.fading": "bool", "channel.k_factor": "float",
    "channel.n_tau": "int", "noise.sigma2": "float", "threshold.mode": "str",
    "run.blocks": "int", "run.payload_bits_per_block": "int",
    "run.threads": "int", "run.master_seed": "int", "capacity.model": "str",
    "capacity.snr_db": "list", "baselines.enabled": "bool",
    "baselines.eb_n0_db": "float",
}


def config_from_mapping(raw):
    """Build an ExperimentConfig from parsed config-file keys.

    The build reads a key only where its value reaches the run; a key it
    leaves unread raises ``ConfigError``, like a key not in ``_KEYS`` and
    a value that a config object rejects.
    """
    unknown = set(raw) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    read = set()

    def get(key, default=None):
        read.add(key)
        return coerce(raw[key], _KEYS[key], key) if key in raw else default

    try:
        cfg = (_preset_from if "experiment.preset" in raw else _custom_from)(get)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    unread = set(raw) - read
    if unread:
        raise ConfigError(f"keys not read in {cfg.mode} mode: {sorted(unread)}")
    return cfg


def _preset_from(get):
    """A preset with the keys that override its own values."""
    cfg = preset_config(get("experiment.preset"), seed=get("run.master_seed"))
    updates = dict(axis_values=get("axis.values", cfg.axis_values),
                   threads=get("run.threads"),
                   sigma2_R=get("noise.sigma2", cfg.sigma2_R))
    if cfg.mode == "ber":
        updates.update(blocks=get("run.blocks", cfg.blocks),
                       payload_bits_per_block=get("run.payload_bits_per_block",
                                                  cfg.payload_bits_per_block))
        # fig6's curves compare the two threshold modes
        if len({c.threshold_mode for c in cfg.curves}) == 1:
            tmode = get("threshold.mode", cfg.curves[0].threshold_mode)
            updates["curves"] = tuple(replace(c, threshold_mode=tmode)
                                      for c in cfg.curves)
        if cfg.axis_name != "n":  # an n axis sets N
            updates["frame"] = replace(cfg.frame, N=get("frame.n", cfg.frame.N))
    return replace(cfg, **updates)


def _custom_from(get):
    mode = get("experiment.mode", "ber")
    if mode not in ("ber", "capacity"):
        raise ConfigError(f"unknown experiment mode {mode!r}")
    axis_raw = get("axis.values")
    if not axis_raw:
        raise ConfigError("axis.values is required for custom experiments")
    sigma2 = get("noise.sigma2", 1.0)
    _check_sigma2(sigma2)  # before _a2_from_snr scales by it
    axis_name = get("axis.name", "jnr_db")
    common = dict(
        preset="custom", mode=mode, axis_name=axis_name,
        axis_values=axis_raw, sigma2_R=sigma2,
        jnr_db_fixed=get("jammer.jnr_db"),
        master_seed=get("run.master_seed", 12345),
        threads=get("run.threads"))

    if mode == "capacity":
        snrs = get("capacity.snr_db") or ["10"]
        return ExperimentConfig(snr_curves_db=tuple(float(s) for s in snrs),
                                capacity_model=get("capacity.model", "real"),
                                **common)

    p1 = get("frame.p1", 0.5)
    if not 0 < p1 < 1:
        raise ConfigError(f"frame.p1 must lie in (0, 1), got {p1!r}")
    a2 = get("frame.a2")
    if a2 is None:
        snr_db = get("snr.db")
        if snr_db is None:
            raise ConfigError("either frame.a2 or snr.db must be set")
        a2 = _a2_from_snr(snr_db, sigma2, get("snr.map", "average"),
                          p2=1.0 - p1)
    kinds = get("jammer.kind") or ["random_broadband"]
    tmode = get("threshold.mode", "estimated")
    curves = tuple(Curve(k, JammerSpec(kind=JammerKind.parse(k), power=1.0),
                         threshold_mode=tmode) for k in kinds)
    # an n axis sets N, and only estimated mode sends the M-symbol preamble
    frame = FrameConfig(N=10 if axis_name == "n" else get("frame.n", 10),
                        M=get("frame.m", 10) if tmode == "estimated" else 10,
                        a1=get("frame.a1", 0.0), a2=a2, p1=p1)
    baselines_on = get("baselines.enabled", False)
    return ExperimentConfig(
        curves=curves, frame=frame,
        rician=RicianParams(k_factor=get("channel.k_factor", 10.0))
        if get("channel.fading", True) else None,
        n_tau=get("channel.n_tau", 0), blocks=get("run.blocks", 100),
        payload_bits_per_block=get("run.payload_bits_per_block", 1000),
        include_baselines=baselines_on,
        baseline_eb_n0_db=get("baselines.eb_n0_db", 10.0)
        if baselines_on else 10.0,
        **common)


# ---------------------------------------------------------------------------
# BER sweep


def _axis_point(cfg, value):
    """Resolve (P_J, frame) for one axis value."""
    if cfg.axis_name == "jnr_db":
        return _db_power("JNR", value, cfg.sigma2_R), cfg.frame
    pj = _db_power("JNR", cfg.jnr_db_fixed, cfg.sigma2_R)
    return pj, replace(cfg.frame, N=int(round(value)))


def _spec_at_power(prepared, pj):
    """Rescale a prepared (phase-frozen) jammer spec to power pj."""
    if prepared.toneset is None:
        return replace(prepared, power=pj)
    ts = prepared.toneset
    scaled = signals.ToneSet(amps=ts.amps * math.sqrt(pj), freqs=ts.freqs,
                             phases=ts.phases)
    return replace(prepared, power=pj, toneset=scaled)


def _draw_block_channel(cfg, rng):
    if cfg.rician is None:
        return ChannelDraw(h1=1.0, h2=1.0, h3=1.0, sigma2_R=cfg.sigma2_R,
                           n_tau=cfg.n_tau)
    return channel.draw_channel(cfg.rician, cfg.sigma2_R, cfg.n_tau, rng)


def _exact_threshold(levels, frame):
    """The likelihood-ratio root of the levels' energy law.

    Raises NumericalFailureError where the root is NaN: the noncentral log
    ratio past the range of ``special.ive``, at high JNR.
    """
    law = theory.optimal_threshold_random \
        if isinstance(levels, theory.ConditionalVariances) \
        else theory.optimal_threshold_noncentral
    t = law(levels, frame.p1, frame.p2, frame.N)
    if math.isnan(t):
        raise NumericalFailureError(
            f"the exact threshold of {levels} is NaN at N = {frame.N}")
    return t


def _run_ber_block(cfg, spec, curve, frame, axis_i, curve_i, block_i,
                   bases):
    """Simulate one block; returns (errors, levels, exact threshold, sinr).

    The block's bits are the payload, after an M-symbol preamble in
    estimated mode; they start at sample ``block_i * len(bits) * N``.  One
    ``modem.block_energies`` call gives their energies and the payload's
    levels, with tonal samples from the phasors in the sweep's ``bases``
    store.  The payload is sliced at the exact threshold (None in
    estimated mode) or at the preamble's estimate.  ``levels`` is None
    when the block's levels coincide, which exact mode cannot slice at, or
    when the jammer has no levels (non-tonal at ``n_tau > 0``).  Draws:
    channel, payload, then the energies.
    """
    ss = np.random.SeedSequence(cfg.master_seed,
                                spawn_key=(_STREAM_BLOCKS, axis_i, curve_i,
                                           block_i))
    rng = np.random.default_rng(ss)
    ch = _draw_block_channel(cfg, rng)
    nbits = cfg.payload_bits_per_block
    payload = (rng.random(nbits) < frame.p2).astype(np.int64)

    exact = curve.threshold_mode == "exact"
    bits = payload if exact else np.concatenate(
        [modem.build_preamble(frame.M), payload])
    pre = bits.shape[0] - nbits  # preamble symbols: 0 or M
    q, levels = modem.block_energies(spec, ch, frame, bits, rng,
                                     block_i * bits.shape[0] * frame.N, pre,
                                     bases)
    if exact and levels is None:
        raise DegenerateChannelError(
            "the block's two energy levels coincide; exact mode has no "
            "threshold")
    t_exact = _exact_threshold(levels, frame) if exact else None
    t = t_exact if exact else modem.estimate_threshold(q[:pre], frame)
    decoded = modem.decode(q[pre:], t)
    errors = int(np.count_nonzero(decoded != payload))
    # a non-tonal jammer sends random samples: its direct path counts as
    # interference in the SINR
    sinr = channel.sinr(ch, frame.a2, spec.power, not spec.kind.is_tonal)
    return errors, levels, t_exact, sinr


def _block_theory(cfg, kind, frame, levels, t, sinr):
    """(ber_theory, ber_gauss, sinr) predictions for one block.

    ``t`` is the threshold the theory is evaluated at: the exact one the
    block decoded at, the sweep's noncentral root, or None, where the
    law's own closed-form optimum is taken.  ``levels`` is None when the
    block's levels coincide, which makes all three columns NaN.  A
    non-tonal jammer sends random samples: its levels add the relayed and
    direct paths coherently, which holds only at ``n_tau = 0``, so only the
    SINR is given beyond.  Two kinds are labelled exceptions: 16QAM has no
    closed form, and tonal kinds give the shifted-gamma ``ber_det`` at its
    own optimum, a comparison rather than the exact law.
    """
    if kind is JammerKind.MOD_16QAM or not kind.is_tonal and cfg.n_tau:
        return math.nan, math.nan, sinr
    if levels is None:
        return math.nan, math.nan, math.nan
    p1, p2, n = frame.p1, frame.p2, frame.N
    if kind.is_tonal:
        t = theory.optimal_threshold_det(levels, p1, p2, n)
        return theory.ber_det(levels, p1, p2, n, t), math.nan, sinr
    if isinstance(levels, theory.ConditionalVariances):
        if t is None:
            t = theory.optimal_threshold_random(levels, p1, p2, n)
        return (theory.ber_random(levels, p1, p2, n, t),
                theory.ber_gaussian_approx(levels, p1, p2, n, t), sinr)
    return theory.ber_det_noncentral(levels, p1, p2, n, t), math.nan, sinr


def _theory_columns(cfg, outcomes):
    """Each point's block means of (ber_theory, ber_gauss, sinr), by curve.

    Runs once, after the sweep's blocks.  ``outcomes[axis_i][curve_i]``
    lists a point's blocks as (levels, exact threshold, sinr).  Every
    estimated-mode noncentral root of the sweep is solved first, in one
    lockstep batch per frame (one per sweep on a JNR axis, one per point
    on an N axis); an entry of a batch equals the block's own root bit for
    bit.  Each mean is taken over a point's blocks in block order.
    """
    frames = [_axis_point(cfg, v)[1] for v in cfg.axis_values]
    blocks = [(frames[axis_i], cfg.curves[curve_i].jammer.kind) + block
              for axis_i, point in enumerate(outcomes)
              for curve_i, curve in enumerate(point) for block in curve]
    batches = {}
    for i, (frame, kind, levels, t, _) in enumerate(blocks):
        # estimated-mode BPSK/QPSK (no levels at n_tau > 0): tonal levels
        # take the shifted-gamma optimum
        if (t is None and not kind.is_tonal
                and isinstance(levels, theory.DeterministicEnergies)):
            batches.setdefault(frame, []).append(i)
    roots = {}
    for frame, batch in batches.items():
        roots.update(zip(batch, theory.optimal_threshold_noncentral(
            [blocks[i][2] for i in batch], frame.p1, frame.p2, frame.N)))
    cols = np.array([_block_theory(cfg, kind, frame, levels, roots.get(i, t),
                                   sinr)
                     for i, (frame, kind, levels, t, sinr)
                     in enumerate(blocks)], dtype=np.float64)
    # one column at a time: a 1-D mean sums pairwise, a 2-D axis-0 mean
    # row by row, and the two round differently
    means = iter([float(col.mean()) for col in cols[lo:lo + cfg.blocks].T]
                 for lo in range(0, len(blocks), cfg.blocks))
    return [[next(means) for _ in cfg.curves] for _ in cfg.axis_values]


# the baselines' column prefixes; the index is the scheme's seed key
_BASELINES = ("dsss", "fh")

_CURVE_FIELDS = ("errors", "bits", "ber_sim", "ci_low", "ci_high",
                 "ber_theory", "ber_gauss", "sinr")
_BASELINE_FIELDS = ("ber_sim", "ci_low", "ci_high")


def _submit_point(pool, cfg, prepared, bases, axis_i):
    """Submit one axis point's blocks, curve by curve."""
    pj, frame = _axis_point(cfg, cfg.axis_values[axis_i])
    futures = []
    for curve_i, curve in enumerate(cfg.curves):
        spec = _spec_at_power(prepared[curve_i], pj)
        futures += [pool.submit(_run_ber_block, cfg, spec, curve, frame,
                                axis_i, curve_i, block_i, bases)
                    for block_i in range(cfg.blocks)]
    return futures


def _reduce_point(cfg, axis_i, futures, progress):
    """A point's simulated cells and its blocks' theory inputs.

    Reads the futures in block order, then draws each baseline's error
    count from stream 2 at the point's JNR.  Returns each curve's five
    simulated cells, the baselines' cells, and per curve the blocks'
    (levels, exact threshold, sinr).
    """
    value = cfg.axis_values[axis_i]
    bits_per_point = cfg.blocks * cfg.payload_bits_per_block
    sims, base, outcomes = [], [], []
    for curve_i, curve in enumerate(cfg.curves):
        blocks = [f.result() for f in
                  futures[curve_i * cfg.blocks:(curve_i + 1) * cfg.blocks]]
        est = BerEstimate.from_counts(sum(b[0] for b in blocks),
                                      bits_per_point)
        sims.append([est.errors, est.bits, est.ber, est.ci_low, est.ci_high])
        outcomes.append([b[1:] for b in blocks])
        if progress:
            progress(f"{cfg.axis_name}={value:g} {curve.label}: "
                     f"ber={est.ber:.3e} ({est.bits} bits)")
    jnr_db = value if cfg.axis_name == "jnr_db" else cfg.jnr_db_fixed
    trials = max(bits_per_point, 1000)
    for scheme_i, name in enumerate(_BASELINES if cfg.include_baselines
                                    else ()):
        ss = np.random.SeedSequence(
            cfg.master_seed, spawn_key=(_STREAM_BASELINE, axis_i, scheme_i))
        est = BerEstimate.from_counts(
            baselines.bpsk_errors(cfg.baseline_eb_n0_db, jnr_db, trials, ss),
            trials)
        base += [est.ber, est.ci_low, est.ci_high]
        if progress:
            progress(f"{cfg.axis_name}={value:g} {name}: ber={est.ber:.3e}")
    return sims, base, outcomes


def run_ber_sweep(cfg, progress=None):
    """Run a BER sweep; returns one row per axis value, wide columns.

    Per curve the columns are ``<label>.errors/bits/ber_sim/ci_low/ci_high/
    ber_theory/ber_gauss/sinr``; theory columns are block-averaged closed
    forms evaluated at per-block optimal thresholds and are NaN where no
    closed form applies.  They are evaluated after the sweep's blocks, in
    one pass over every point and curve that solves all the sweep's
    noncentral roots (BPSK/QPSK in estimated mode) in one lockstep batch.
    With baselines enabled, ``dsss.*``/``fh.*`` column groups are appended.
    """
    if cfg.mode != "ber":
        raise ConfigError("run_ber_sweep needs a BER-mode config")
    threads = _resolve_threads(cfg)
    prepared = []
    for curve_i, curve in enumerate(cfg.curves):
        ss = np.random.SeedSequence(cfg.master_seed,
                                    spawn_key=(_STREAM_PHASES, curve_i))
        base = replace(curve.jammer, power=1.0)
        prepared.append(signals.prepare_jammer(base, np.random.default_rng(ss)))

    columns = [cfg.axis_name]
    for curve in cfg.curves:
        columns += [f"{curve.label}.{f}" for f in _CURVE_FIELDS]
    if cfg.include_baselines:
        for name in _BASELINES:
            columns += [f"{name}.{f}" for f in _BASELINE_FIELDS]

    # a tonal block's phasors do not depend on the jamming power: each is
    # built at the first point that needs it and reused at every later
    # one.  The store goes with the sweep, so the next sweep starts cold.
    # On an N axis every point has other block lengths and starts, so a
    # store would only fill its budget with phasors no point reuses.
    bases = kernels.ToneBases() if cfg.axis_name == "jnr_db" else None

    # blocks are queued one point ahead: point i + 1 is submitted before
    # point i is reduced, so the pool does not drain between points and at
    # most two points' futures are held.  On an error the queued ones are
    # cancelled, so the sweep stops once the running blocks finish.
    reduced = []
    queue = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            queue.append(_submit_point(pool, cfg, prepared, bases, 0))
            for axis_i in range(len(cfg.axis_values)):
                if axis_i + 1 < len(cfg.axis_values):
                    queue.append(_submit_point(pool, cfg, prepared, bases,
                                               axis_i + 1))
                reduced.append(_reduce_point(cfg, axis_i, queue[0], progress))
                queue.pop(0)
        finally:
            for fut in (f for futures in queue for f in futures):
                fut.cancel()
    predicted = _theory_columns(cfg, [point[2] for point in reduced])
    rows = []
    for value, (sims, base, _), theory_cells in zip(cfg.axis_values, reduced,
                                                    predicted):
        row = [value if cfg.axis_name != "n" else int(round(value))]
        for sim, cells in zip(sims, theory_cells):
            row += sim + cells
        rows.append(tuple(row + base))
    return SweepResult(columns=tuple(columns), rows=tuple(rows),
                       meta={"preset": cfg.preset, "mode": "ber"})


# ---------------------------------------------------------------------------
# capacity sweep


def _capacity_variances(cfg, snr_db, pj):
    p_a = _db_power("SNR", snr_db, cfg.sigma2_R)
    a2 = _a2_from_snr(snr_db, cfg.sigma2_R, "average")
    ch = ChannelDraw(h1=1.0, h2=1.0, h3=1.0, sigma2_R=cfg.sigma2_R)
    return theory.variances(ch, 0.0, a2, pj), p_a


def run_capacity_sweep(cfg, progress=None):
    """Capacity vs JNR (with the DT baseline) or mutual information vs p.

    Unit channel gains and the average-power alphabet mapping throughout;
    ``capacity_model`` picks the real or complex output model.  All the
    channels of a sweep are solved in one batched :func:`capacity.capacity`
    call, and each MI column is one array call.
    """
    if cfg.mode != "capacity":
        raise ConfigError("run_capacity_sweep needs a capacity-mode config")
    meta = {"preset": cfg.preset, "mode": "capacity",
            "model": cfg.capacity_model}

    if cfg.axis_name == "p":
        pj = _db_power("JNR", cfg.jnr_db_fixed, cfg.sigma2_R)
        labels = [_snr_label(s) for s in cfg.snr_curves_db]
        columns = ["p"] + [f"mi.{lab}" for lab in labels]
        vs = [_capacity_variances(cfg, s, pj)[0] for s in cfg.snr_curves_db]
        ps = np.asarray(cfg.axis_values, dtype=np.float64)
        mi_columns = [cap.mutual_information(ps, v, cfg.capacity_model)
                      .tolist() for v in vs]
        peaks = {}
        for lab, res in zip(labels, cap.capacity(vs, cfg.capacity_model)):
            peaks[lab] = {"p_star": res.p_star,
                          "capacity_bits": res.capacity_bits}
            if progress:
                progress(f"{lab}: p*={res.p_star:.4f} "
                         f"C={res.capacity_bits:.4f} bits")
        meta["peaks"] = peaks
        rows = tuple(zip(cfg.axis_values, *mi_columns))
        return SweepResult(columns=tuple(columns), rows=rows, meta=meta)

    snr_db = cfg.snr_curves_db[0]
    columns = ("jnr_db", "aaj_capacity_bits", "aaj_p_star", "dt_capacity_bits")
    pjs = [_db_power("JNR", value, cfg.sigma2_R) for value in cfg.axis_values]
    vs, p_as = zip(*[_capacity_variances(cfg, snr_db, pj) for pj in pjs])
    solved = cap.capacity(vs, cfg.capacity_model)
    rows = []
    for value, pj, p_a, res in zip(cfg.axis_values, pjs, p_as, solved):
        dt = cap.dt_capacity(p_a, pj, cfg.sigma2_R)
        rows.append((value, res.capacity_bits, res.p_star, dt))
        if progress:
            progress(f"jnr_db={value:g}: aaj={res.capacity_bits:.4f} "
                     f"dt={dt:.4f}")
    meta["crossover_jnr_db"] = _find_crossover(rows)
    return SweepResult(columns=columns, rows=tuple(rows), meta=meta)


def _find_crossover(rows):
    """Lowest JNR where the AAJ capacity meets the DT curve, interpolated."""
    rows = sorted(rows)  # a descending axis has the same crossover
    gap = [r[1] - r[3] for r in rows]
    for i in range(1, len(gap)):
        if gap[i - 1] < 0 <= gap[i]:
            x0, x1 = rows[i - 1][0], rows[i][0]
            g0, g1 = gap[i - 1], gap[i]
            return x0 + (x1 - x0) * (-g0) / (g1 - g0)
    return math.nan


# ---------------------------------------------------------------------------
# CSV


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(result, path):
    """Write a sweep as ``# schema=1`` plus an RFC-4180 body, LF endings.

    The rows go to a temporary file in the same directory, which then
    replaces ``path``, so an interrupted or failed write never leaves a
    partial CSV there; on an error the temporary file is removed and any
    earlier file at ``path`` is left as it was.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with fh:
                fh.write("# schema=1\n")
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(result.columns)
                for row in result.rows:
                    writer.writerow([_fmt(v) for v in row])
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path):
    """Read an emitted CSV back into {column: list of floats (or strings)}."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.startswith("# schema="):
            raise ValueError(f"{path}: missing schema line")
        reader = csv.reader(fh)
        columns = next(reader)
        _check_unique(f"columns in {path}", columns, ValueError)
        data = {c: [] for c in columns}
        for row in reader:
            for c, v in zip(columns, row):
                try:
                    data[c].append(float(v))
                except ValueError:
                    data[c].append(v)
    return data

"""Experiment presets, sweep execution, and CSV emission."""

import time

import numpy as np
import pytest
from dataclasses import replace
from scipy import stats

from jamlink import baselines, harness, kernels, modem, signals, theory
from jamlink.channel import ChannelDraw
from jamlink.errors import ConfigError, DegenerateChannelError
from jamlink.config import load_config
from jamlink.harness import (PRESET_NAMES, SweepResult, config_from_mapping,
                             emit_csv, preset_config, read_csv, run_ber_sweep,
                             run_capacity_sweep)
from jamlink.signals import JammerKind


def _tiny_ber_cfg(**kw):
    cfg = preset_config("fig4", seed=777)
    small = dict(blocks=4, payload_bits_per_block=500, threads=1)
    small.update(kw)
    return replace(cfg, **small)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_constructs(self, name):
        cfg = preset_config(name)
        assert cfg.preset == name
        assert len(cfg.axis_values) >= 2

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("fig99")

    def test_seed_override(self):
        assert preset_config("fig2", seed=42).master_seed == 42

    def test_fig2_has_five_jammer_kinds(self):
        kinds = {c.jammer.kind for c in preset_config("fig2").curves}
        assert kinds == {JammerKind.SINGLE_TONE, JammerKind.MULTI_TONE,
                         JammerKind.NARROWBAND, JammerKind.DET_BROADBAND,
                         JammerKind.RANDOM_BROADBAND}

    def test_fig3_is_modulated(self):
        kinds = {c.jammer.kind for c in preset_config("fig3").curves}
        assert kinds == {JammerKind.MOD_BPSK, JammerKind.MOD_QPSK,
                         JammerKind.MOD_16QAM}

    def test_fig4_uses_exact_threshold_and_baselines(self):
        cfg = preset_config("fig4")
        assert cfg.curves[0].threshold_mode == "exact"
        assert cfg.include_baselines
        assert cfg.rician is None  # fixed unit gains
        assert np.isclose(cfg.frame.a2, np.sqrt(10.0))

    def test_fig5_sweeps_window_length(self):
        cfg = preset_config("fig5")
        assert cfg.axis_name == "n"
        assert cfg.jnr_db_fixed == 10.0

    def test_fig7_and_fig8_are_capacity_mode(self):
        assert preset_config("fig7").mode == "capacity"
        c8 = preset_config("fig8")
        assert c8.mode == "capacity" and c8.capacity_model == "complex"


class TestValidation:
    def test_axis_must_be_monotone(self):
        with pytest.raises(ConfigError):
            replace(preset_config("fig4"), axis_values=(0.0, 10.0, 5.0))

    def test_ber_mode_needs_curves(self):
        with pytest.raises(ConfigError):
            replace(preset_config("fig4"), curves=())

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            replace(preset_config("fig4"), mode="magic")

    def test_n_axis_values_must_be_integral(self):
        with pytest.raises(ConfigError):
            replace(preset_config("fig5"), axis_values=(2.0, 4.5))


class TestConfigFromMapping:
    def test_preset_with_overrides(self):
        cfg = config_from_mapping({"experiment.preset": "fig4",
                                   "run.blocks": "7",
                                   "threshold.mode": "estimated"})
        assert cfg.blocks == 7
        assert all(c.threshold_mode == "estimated" for c in cfg.curves)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus.key"):
            config_from_mapping({"bogus.key": "1"})

    @pytest.mark.parametrize("raw", [
        {"axis.values": "nan", "snr.db": "5"},
        {"axis.values": "inf", "snr.db": "5"},
        {"axis.name": "n", "axis.values": "2, 4", "jammer.jnr_db": "nan",
         "snr.db": "5"},
        {"axis.values": "0, 10", "snr.db": "5", "baselines.enabled": "true",
         "baselines.eb_n0_db": "nan"},
        {"experiment.mode": "capacity", "axis.name": "p",
         "jammer.jnr_db": "10", "axis.values": "0.5, 1.5"},
        {"experiment.mode": "capacity", "axis.name": "p",
         "jammer.jnr_db": "10", "axis.values": "-0.5, 0.5"},
        {"experiment.mode": "capacity", "axis.name": "p",
         "jammer.jnr_db": "inf", "axis.values": "0, 1"},
        {"experiment.mode": "capacity", "axis.values": "0, 10",
         "capacity.snr_db": "nan"},
        {"experiment.preset": "fig7", "axis.values": "0.5, 1.5"},
    ])
    def test_bad_sweep_value_rejected(self, raw):
        # rejected before any sweep runs, not midway through one
        with pytest.raises(ConfigError, match="finite|lie in"):
            config_from_mapping(raw)

    def test_custom_requires_axis(self):
        with pytest.raises(ConfigError, match="axis.values"):
            config_from_mapping({"frame.a2": "2.0"})

    def test_custom_ber_experiment(self):
        cfg = config_from_mapping({
            "axis.values": "0, 10, 20",
            "jammer.kind": "single_tone, random_broadband",
            "frame.a2": "2.0",
            "channel.fading": "false",
        })
        assert cfg.axis_values == (0.0, 10.0, 20.0)
        assert [c.label for c in cfg.curves] == ["single_tone",
                                                 "random_broadband"]
        assert cfg.rician is None

    def test_a2_from_snr_mapping(self):
        cfg = config_from_mapping({
            "axis.values": "0, 10",
            "snr.db": "5",
            "snr.map": "average",
            "channel.fading": "false",
        })
        # sqrt(P_A / p2) with P_A = 10^0.5, p2 = 0.5
        assert np.isclose(cfg.frame.a2, np.sqrt(2.0 * 10.0 ** 0.5))

    def test_a2_snr_on_mapping(self):
        cfg = config_from_mapping({
            "axis.values": "0, 10",
            "snr.db": "10",
            "snr.map": "on",
            "channel.fading": "false",
        })
        assert np.isclose(cfg.frame.a2, np.sqrt(10.0))

    def test_missing_amplitude_spec(self):
        with pytest.raises(ConfigError, match="frame.a2 or snr.db"):
            config_from_mapping({"axis.values": "0, 10"})

    def test_capacity_quadrature_keys(self):
        # the quadrature rule is a constant of the capacity module
        for key in ("capacity.points", "capacity.half_width_sigmas"):
            with pytest.raises(ConfigError,
                               match=f"unknown config keys.*{key}"):
                config_from_mapping({"experiment.mode": "capacity",
                                     "axis.values": "0, 10", key: "12"})

    def test_capacity_over_jnr_takes_one_snr(self):
        # the JNR axis draws one capacity curve; a second SNR would be dropped
        base = {"experiment.mode": "capacity", "axis.values": "0, 10"}
        cfg = config_from_mapping({**base, "capacity.snr_db": "3"})
        assert cfg.snr_curves_db == (3.0,)
        with pytest.raises(ConfigError, match="one SNR"):
            config_from_mapping({**base, "capacity.snr_db": "3, 4"})

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("experiment.preset = fig6\nrun.blocks = 3\n")
        cfg = config_from_mapping(load_config(p))
        assert cfg.preset == "fig6" and cfg.blocks == 3


class TestCsv:
    def _result(self):
        return SweepResult(columns=("a", "b.c"),
                           rows=((1.0, 2.5), (3.0, float("nan"))))

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "out.csv"
        emit_csv(self._result(), p)
        cols = read_csv(p)
        assert cols["a"] == [1.0, 3.0]
        assert cols["b.c"][0] == 2.5 and np.isnan(cols["b.c"][1])

    def test_schema_line_first(self, tmp_path):
        p = tmp_path / "out.csv"
        emit_csv(self._result(), p)
        text = p.read_bytes()
        assert text.startswith(b"# schema=1\n")
        assert b"\r" not in text

    def test_full_precision(self, tmp_path):
        val = 0.123456789012345678
        p = tmp_path / "out.csv"
        emit_csv(SweepResult(columns=("x",), rows=((val,),)), p)
        assert read_csv(p)["x"][0] == val

    def test_repeated_column_is_an_error(self, tmp_path):
        # one dict key per column would merge the two columns' cells
        p = tmp_path / "out.csv"
        emit_csv(SweepResult(columns=("p", "mi.snr_5db", "mi.snr_5db"),
                             rows=((0.0, 0.1, 0.2), (1.0, 0.3, 0.4))), p)
        with pytest.raises(ValueError, match=r"repeated .*\['mi.snr_5db'\]"):
            read_csv(p)

    def test_unwritable_path_reports_target(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_csv(self._result(), tmp_path / "no" / "such" / "f.csv")

    def test_failed_write_leaves_no_partial_or_temporary_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cell cannot be formatted")

        bad = SweepResult(columns=("a", "b.c"),
                          rows=((1.0, 2.5), (Unprintable(), 3.0)))
        kept = tmp_path / "kept.csv"
        emit_csv(self._result(), kept)
        before = kept.read_bytes()
        with pytest.raises(RuntimeError):
            emit_csv(bad, kept)
        with pytest.raises(RuntimeError):
            emit_csv(bad, tmp_path / "new.csv")
        assert kept.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["kept.csv"]


class TestBerSweep:
    def test_small_sweep_shape_and_theory(self):
        cfg = _tiny_ber_cfg(axis_values=(10.0, 40.0))
        res = run_ber_sweep(cfg)
        assert len(res.rows) == 2
        cols = dict(zip(res.columns, res.rows[1]))
        assert cols["jnr_db"] == 40.0
        # 2000 bits at BER ~7e-5 expect 0.146 errors, so one error already
        # lifts the Wilson lower bound above theory.  Instead the observed
        # count must not sit in the Poisson upper tail below 1e-3 at mean
        # bits * ber_theory: a correct simulator fails this at most 0.1% of
        # the time.
        assert cols["aaj.ber_theory"] == pytest.approx(7.3e-5, rel=0.05)
        mean = cols["aaj.bits"] * cols["aaj.ber_theory"]
        assert stats.poisson.sf(cols["aaj.errors"] - 1, mean) >= 1e-3
        assert cols["aaj.bits"] == 2000.0
        assert 0.4 <= cols["dsss.ber_sim"] <= 0.5
        assert 0.4 <= cols["fh.ber_sim"] <= 0.5

    def test_estimated_threshold_tracks_theory_at_moderate_jnr(self):
        cfg = preset_config("fig6", seed=3)
        cfg = replace(cfg, axis_values=(15.0,), blocks=20,
                      payload_bits_per_block=2000, threads=1)
        res = run_ber_sweep(cfg)
        row = dict(zip(res.columns, res.rows[0]))
        th = row["exact.ber_theory"]
        assert row["exact.ci_low"] <= th <= row["exact.ci_high"]
        # estimated threshold does no better than the exact optimum
        assert row["estimated.ber_sim"] >= row["exact.ber_sim"] * 0.8

    def test_baseline_schemes_draw_their_own_streams(self):
        # DS-SS and FH follow one law, so at BER ~0.3 only their separate
        # seed keys keep the two columns apart
        cfg = _tiny_ber_cfg(axis_values=(20.0,), blocks=1,
                            payload_bits_per_block=100_000)
        res = run_ber_sweep(cfg)
        cols = dict(zip(res.columns, res.rows[0]))
        assert 0.25 <= cols["dsss.ber_sim"] <= 0.4
        assert 0.25 <= cols["fh.ber_sim"] <= 0.4
        assert cols["dsss.ber_sim"] != cols["fh.ber_sim"]

    def test_baseline_count_is_looked_up_at_call_time(self, monkeypatch):
        # profilers and tracers wrap the module attributes after import
        calls = []
        real = baselines.bpsk_errors

        def spy(eb_n0_db, jnr_db, trials, rng):
            calls.append(jnr_db)
            return real(eb_n0_db, jnr_db, trials, rng)

        monkeypatch.setattr(baselines, "bpsk_errors", spy)
        run_ber_sweep(_tiny_ber_cfg(axis_values=(10.0, 20.0), blocks=1))
        # DS-SS then FH at each point's JNR
        assert calls == [10.0, 10.0, 20.0, 20.0]

    def test_n_axis_baselines_run_at_the_fixed_jnr(self):
        # on an n axis the JNR is jammer.jnr_db, not the window length
        cfg = config_from_mapping({
            "axis.name": "n", "axis.values": "2, 10, 40",
            "jammer.jnr_db": "30", "jammer.kind": "random_broadband",
            "snr.db": "5", "baselines.enabled": "true", "run.blocks": "2",
            "run.payload_bits_per_block": "1000", "run.threads": "1"})
        res = run_ber_sweep(cfg)
        trials = 2000
        for axis_i, row in enumerate(res.rows):
            cols = dict(zip(res.columns, row))
            for scheme_i, name in enumerate(("dsss", "fh")):
                ss = np.random.SeedSequence(
                    cfg.master_seed, spawn_key=(2, axis_i, scheme_i))
                want = baselines.bpsk_errors(10.0, 30.0, trials, ss) / trials
                assert cols[f"{name}.ber_sim"] == want, (axis_i, name)

    def test_thread_count_invariance(self):
        cfg = _tiny_ber_cfg(axis_values=(20.0, 30.0))
        r1 = run_ber_sweep(replace(cfg, threads=1))
        r2 = run_ber_sweep(replace(cfg, threads=3))
        assert r1.rows == r2.rows

    @pytest.mark.parametrize("name", ["fig4_baselines", "tonal_n_tau"])
    def test_queued_blocks_keep_rows_and_progress_order(self, name):
        # blocks are queued one point ahead and finish in any order; rows
        # and progress lines must not depend on the thread count
        if name == "fig4_baselines":
            cfg = _tiny_ber_cfg(axis_values=(0.0, 20.0, 40.0), blocks=3)
        else:
            cfg = config_from_mapping({
                "axis.values": "0, 10, 20",
                "jammer.kind": "single_tone, det_broadband",
                "channel.n_tau": "2",
                "snr.db": "5",
                "run.blocks": "3",
                "run.payload_bits_per_block": "300",
            })
        runs = []
        for threads in (1, 2, 4):
            lines = []
            res = run_ber_sweep(replace(cfg, threads=threads),
                                progress=lines.append)
            # repr: NaN cells compare equal and every bit is compared
            runs.append(([list(map(repr, r)) for r in res.rows], lines))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        labels = [c.label for c in cfg.curves]
        if cfg.include_baselines:
            labels += ["dsss", "fh"]
        want = [f"jnr_db={v:g} {lab}:" for v in cfg.axis_values
                for lab in labels]
        assert [line.split(" ber=")[0] for line in runs[0][1]] == want

    def test_at_most_one_point_is_queued_ahead(self, monkeypatch):
        # the pool is built through the module attribute, which tracers
        # replace; when point i is reported, nothing past i + 1 is queued
        submitted = []

        class Recording(harness.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                assert fn is harness._run_ber_block  # blocks only
                submitted.append(args[4])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
        cfg = _tiny_ber_cfg(axis_values=(0.0, 10.0, 20.0, 30.0), blocks=2,
                            threads=2)
        ahead = []
        run_ber_sweep(cfg, progress=lambda _: ahead.append(max(submitted)))
        # one curve and two baselines reported per point, two blocks queued
        assert ahead == [1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3]
        assert sorted(submitted) == [i for i in range(4) for _ in range(2)]

    def test_failing_block_cancels_the_queued_ones(self, monkeypatch):
        run = harness._run_ber_block
        calls = []

        def failing(cfg, spec, curve, frame, axis_i, curve_i, block_i, bases):
            calls.append((axis_i, block_i))
            if (axis_i, block_i) == (0, 0):
                raise RuntimeError("block failed")
            time.sleep(0.2)
            return run(cfg, spec, curve, frame, axis_i, curve_i, block_i,
                       bases)

        monkeypatch.setattr(harness, "_run_ber_block", failing)
        cfg = _tiny_ber_cfg(axis_values=(0.0, 10.0, 20.0, 30.0), blocks=4,
                            include_baselines=False)
        with pytest.raises(RuntimeError, match="block failed"):
            run_ber_sweep(cfg)
        # the one worker had at most started the next block
        assert len(calls) <= 2, calls

    def test_tonal_curve_gets_nan_gaussian_column(self):
        cfg = preset_config("fig2", seed=5)
        cfg = replace(cfg, axis_values=(10.0,), blocks=2,
                      payload_bits_per_block=200, threads=1,
                      curves=tuple(c for c in cfg.curves
                                   if c.label == "single_tone"))
        res = run_ber_sweep(cfg)
        row = dict(zip(res.columns, res.rows[0]))
        assert np.isnan(row["single_tone.ber_gauss"])
        assert np.isfinite(row["single_tone.ber_theory"])

    def test_exact_tonal_threshold_does_not_degrade_with_jnr(self):
        # a stronger tone only separates the two energy levels further, so
        # the exact-law threshold must not lose ground as JNR rises
        cfg = config_from_mapping({
            "axis.values": "10, 20, 30",
            "jammer.kind": "single_tone",
            "threshold.mode": "exact",
            "channel.fading": "false",
            "snr.db": "5",
            "run.blocks": "4",
            "run.payload_bits_per_block": "2500",
            "run.threads": "1",
        })
        res = run_ber_sweep(cfg)
        errors = [dict(zip(res.columns, r))["single_tone.errors"]
                  for r in res.rows]
        assert errors[1] <= errors[0] and errors[2] <= errors[0], errors

    @pytest.mark.parametrize("mode", ["estimated", "exact"])
    def test_tonal_levels_cover_the_payload(self, monkeypatch, mode):
        # a block's payload follows every earlier block and, in estimated
        # mode, its own M-symbol preamble; the theory levels must be the
        # tone energies of exactly that window
        # only estimated mode sends the preamble, so only it reads frame.m
        preamble = {"frame.m": "4"} if mode == "estimated" else {}
        cfg = config_from_mapping({
            "threshold.mode": mode,
            "axis.values": "10",
            "jammer.kind": "multi_tone",
            "channel.n_tau": "2",
            "snr.db": "5",
            "frame.n": "3",
            **preamble,
            "run.blocks": "3",
            "run.payload_bits_per_block": "5",
            "run.threads": "1",
        })
        # modem synthesizes each block's tones once, then takes the levels
        gen, tone_levels = signals.gen_jammer_block, modem._tone_levels
        specs, seen = [], []

        def gen_spy(spec, *args):
            specs.append(spec)
            return gen(spec, *args)

        def spy(jam, ch, frame):
            levels = tone_levels(jam, ch, frame)
            seen.append((specs[-1], ch, frame, levels))
            return levels

        monkeypatch.setattr(signals, "gen_jammer_block", gen_spy)
        monkeypatch.setattr(modem, "_tone_levels", spy)
        run_ber_sweep(cfg)
        assert len(seen) == cfg.blocks
        nbits = cfg.payload_bits_per_block
        for block_i, (spec, ch, frame, levels) in enumerate(seen):
            pre = frame.M if mode == "estimated" else 0
            start = (block_i * (pre + nbits) + pre) * frame.N
            s = gen(spec, nbits * frame.N, start, None)
            s_del = gen(spec, nbits * frame.N, start - ch.n_tau, None)
            want = sorted(
                np.mean(np.abs(ch.h1 * ch.h2 * a * s + ch.h3 * s_del) ** 2)
                for a in (frame.a1, frame.a2))
            np.testing.assert_allclose([levels.qd_1, levels.qd_2], want,
                                       rtol=1e-12)

    @staticmethod
    def _degenerate_cfg(monkeypatch, kind, mode):
        # h1 h2 a_k + h3 is -1 for a1 = 0 and +1 for a2 = 2, so both symbols
        # reach the receiver at one level
        def draw(cfg, rng):
            return ChannelDraw(h1=1.0, h2=1.0, h3=-1.0, sigma2_R=cfg.sigma2_R,
                               n_tau=cfg.n_tau)

        monkeypatch.setattr(harness, "_draw_block_channel", draw)
        return config_from_mapping({
            "axis.values": "10",
            "jammer.kind": kind,
            "threshold.mode": mode,
            "frame.a1": "0",
            "frame.a2": "2",
            "run.blocks": "2",
            "run.payload_bits_per_block": "200",
            "run.threads": "1",
        })

    @pytest.mark.parametrize("kind", ["random_broadband", "mod_bpsk"])
    def test_degenerate_levels_give_nan_theory(self, monkeypatch, kind):
        res = run_ber_sweep(self._degenerate_cfg(monkeypatch, kind,
                                                 "estimated"))
        row = dict(zip(res.columns, res.rows[0]))
        assert row[f"{kind}.bits"] == 400
        for col in ("ber_theory", "ber_gauss", "sinr"):
            assert np.isnan(row[f"{kind}.{col}"])

    @pytest.mark.parametrize("kind", ["random_broadband", "mod_bpsk"])
    def test_degenerate_levels_abort_exact_mode(self, monkeypatch, kind):
        cfg = self._degenerate_cfg(monkeypatch, kind, "exact")
        with pytest.raises(DegenerateChannelError):
            run_ber_sweep(cfg)

    def test_closed_form_value_error_propagates(self, monkeypatch):
        # only degenerate levels turn into NaN; any other error is a bug
        def broken(*args):
            raise ValueError("closed form failed")

        monkeypatch.setattr(theory, "ber_random", broken)
        with pytest.raises(ValueError, match="closed form failed"):
            run_ber_sweep(_tiny_ber_cfg(axis_values=(10.0,), blocks=1))

    @staticmethod
    def _kind_cfg(kind, mode, n_tau):
        return config_from_mapping({
            "axis.values": "10, 20",
            "jammer.kind": kind,
            "threshold.mode": mode,
            "channel.n_tau": str(n_tau),
            "snr.db": "5",
            "run.blocks": "2",
            "run.payload_bits_per_block": "200",
            "run.threads": "1",
        })

    @pytest.mark.parametrize("mode", ["estimated", "exact"])
    @pytest.mark.parametrize("kind", [k.value for k in JammerKind])
    def test_every_kind_maps_to_a_model(self, kind, mode):
        # each jammer kind runs in both threshold modes and fills the theory
        # columns its model defines
        res = run_ber_sweep(self._kind_cfg(kind, mode, 0))
        for r in res.rows:
            row = dict(zip(res.columns, r))
            assert 0 <= row[f"{kind}.errors"] <= row[f"{kind}.bits"] == 400
            assert np.isnan(row[f"{kind}.ber_theory"]) == (kind == "mod_16qam")
            assert np.isfinite(row[f"{kind}.ber_gauss"]) == \
                (kind == "random_broadband")
            assert np.isfinite(row[f"{kind}.sinr"])

    @staticmethod
    def _count_noncentral_roots(monkeypatch):
        root = theory.optimal_threshold_noncentral
        calls = []

        def counted(d, *args):
            calls.append(d)
            return root(d, *args)

        monkeypatch.setattr(theory, "optimal_threshold_noncentral", counted)
        return calls

    @pytest.mark.parametrize("kind", ["mod_bpsk", "mod_qpsk"])
    def test_exact_envelope_threshold_is_solved_once_per_block(
            self, monkeypatch, kind):
        # an exact-mode block decodes at the noncentral law's root, a batch
        # of one, and its theory columns are evaluated at that same
        # threshold: the post-block pass solves no root of its own
        calls = self._count_noncentral_roots(monkeypatch)
        cfg = self._kind_cfg(kind, "exact", 0)
        run_ber_sweep(cfg)
        assert len(calls) == cfg.blocks * len(cfg.axis_values)
        assert all(isinstance(d, theory.DeterministicEnergies) for d in calls)

    @pytest.mark.parametrize("axis", ["jnr_db", "n"])
    def test_estimated_envelope_roots_are_one_batch_per_frame(
            self, monkeypatch, axis):
        # after the blocks, every estimated-mode BPSK/QPSK root of the
        # sweep is solved in one batch per frame: one for a JNR axis, one
        # per point on an N axis, whose points differ in N
        calls = self._count_noncentral_roots(monkeypatch)
        cfg = self._envelope_cfg(axis)
        run_ber_sweep(cfg)
        points = len(cfg.axis_values)
        assert len(calls) == (1 if axis == "jnr_db" else points)
        assert sum(len(d) for d in calls) == 2 * cfg.blocks * points

    @pytest.mark.parametrize("axis", ["jnr_db", "n"])
    def test_estimated_envelope_csv_is_thread_independent(self, tmp_path,
                                                          axis):
        cfg = self._envelope_cfg(axis)
        out = []
        for threads in (1, 2):
            path = tmp_path / f"{threads}.csv"
            emit_csv(run_ber_sweep(replace(cfg, threads=threads)), path)
            out.append(path.read_bytes())
        assert out[0] == out[1]
        header, *rows = out[0].decode().splitlines()[1:]
        theory_col = header.split(",").index("mod_qpsk.ber_theory")
        assert all(0 <= float(r.split(",")[theory_col]) < 1 for r in rows)

    @staticmethod
    def _envelope_cfg(axis):
        keys = {"axis.name": axis, "jammer.kind": "mod_bpsk, mod_qpsk",
                "snr.db": "5", "run.blocks": "3",
                "run.payload_bits_per_block": "200", "run.threads": "2"}
        if axis == "n":
            keys.update({"axis.values": "2, 6, 10", "jammer.jnr_db": "10"})
        else:
            keys["axis.values"] = "0, 10, 20"
        return config_from_mapping(keys)

    @pytest.mark.parametrize("mode", ["estimated", "exact"])
    @pytest.mark.parametrize("kind", [k.value for k in JammerKind])
    def test_delayed_path_theory_only_for_tones(self, kind, mode):
        # with a delayed direct path the two paths of a random jammer carry
        # different samples, so its coherent levels do not hold: its theory
        # reads NaN and exact mode, which needs them, is refused.  Tonal
        # levels are computed from the samples of both paths.
        tonal = JammerKind.parse(kind).is_tonal
        if mode == "exact" and not tonal:
            with pytest.raises(ConfigError, match="n_tau > 0"):
                self._kind_cfg(kind, mode, 3)
            return
        res = run_ber_sweep(self._kind_cfg(kind, mode, 3))
        for r in res.rows:
            row = dict(zip(res.columns, r))
            assert 0 <= row[f"{kind}.errors"] <= row[f"{kind}.bits"] == 400
            assert np.isfinite(row[f"{kind}.ber_theory"]) == tonal
            assert np.isnan(row[f"{kind}.ber_gauss"])
            assert np.isfinite(row[f"{kind}.sinr"])

    def test_tone_phasors_are_built_once_per_sweep(self, monkeypatch):
        # fig2's four tonal curves build each block's row phasors at the
        # first point only; the store goes with the sweep, so a second
        # sweep builds them again
        built = []
        build = kernels._row_phasors

        def counting(*args):
            built.append(args[2])
            return build(*args)

        monkeypatch.setattr(kernels, "_row_phasors", counting)
        points, blocks = 3, 2
        cfg = replace(preset_config("fig2", seed=5),
                      axis_values=(0.0, 10.0, 20.0)[:points], blocks=blocks,
                      payload_bits_per_block=60, threads=1)
        for sweep in (1, 2):
            run_ber_sweep(cfg)
            assert len(built) == sweep * 4 * blocks
        assert len(set(built)) == blocks  # one start per block

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tone_phasor_budget_does_not_change_bytes(self, monkeypatch,
                                                      tmp_path, threads):
        cfg = replace(preset_config("fig2", seed=5), axis_values=(0.0, 20.0),
                      blocks=3, payload_bits_per_block=60, threads=threads,
                      n_tau=2)
        emit_csv(run_ber_sweep(cfg), tmp_path / "stored.csv")
        monkeypatch.setattr(kernels, "_BASIS_BUDGET", 0)
        emit_csv(run_ber_sweep(cfg), tmp_path / "unstored.csv")
        assert (tmp_path / "stored.csv").read_bytes() \
            == (tmp_path / "unstored.csv").read_bytes()

    def test_window_axis_sweep_keeps_no_tone_phasors(self, monkeypatch):
        # every point of an N axis has other blocks, so no store outlives
        # one synthesis: each holds one column and one row entry
        stores = []

        class Recording(kernels.ToneBases):
            def __init__(self):
                super().__init__()
                stores.append(self)

        monkeypatch.setattr(kernels, "ToneBases", Recording)
        jam = signals.JammerSpec(kind=JammerKind.NARROWBAND, power=1.0)
        cfg = replace(preset_config("fig5", seed=11),
                      curves=(harness.Curve("narrowband", jam),),
                      axis_values=(4.0, 6.0), blocks=2,
                      payload_bits_per_block=40, threads=1)
        run_ber_sweep(cfg)
        assert len(stores) == 2 * 2
        assert all(len(store._store) == 2 for store in stores)

    def test_window_axis_sweep(self):
        cfg = preset_config("fig5", seed=11)
        cfg = replace(cfg, axis_values=(2.0, 10.0), blocks=4,
                      payload_bits_per_block=500, threads=1)
        res = run_ber_sweep(cfg)
        assert res.columns[0] == "n"
        key = "random_broadband.ber_theory"
        b2 = dict(zip(res.columns, res.rows[0]))[key]
        b10 = dict(zip(res.columns, res.rows[1]))[key]
        assert b10 < b2  # longer window integrates more energy


class TestCapacitySweep:
    def test_prior_axis_with_peaks(self):
        cfg = preset_config("fig7", seed=1)
        cfg = replace(cfg, axis_values=tuple(np.linspace(0.0, 1.0, 21)),
                      snr_curves_db=(10.0,), threads=1)
        res = run_capacity_sweep(cfg)
        assert res.columns == ("p", "mi.snr_10db")
        mis = np.array([r[1] for r in res.rows])
        assert abs(mis[0]) < 1e-8 and abs(mis[-1]) < 1e-8
        peak = res.meta["peaks"]["snr_10db"]
        assert 0.0 < peak["p_star"] < 1.0
        assert peak["capacity_bits"] >= mis.max() - 1e-9

    def test_jnr_axis_with_crossover(self):
        cfg = preset_config("fig8", seed=1)
        cfg = replace(cfg, axis_values=tuple(np.arange(8.0, 16.0, 0.5)),
                      threads=1)
        res = run_capacity_sweep(cfg)
        assert res.columns == ("jnr_db", "aaj_capacity_bits", "aaj_p_star",
                               "dt_capacity_bits")
        assert np.isclose(res.meta["crossover_jnr_db"], 11.62, atol=0.05)

    def test_descending_jnr_axis_keeps_the_crossover(self):
        cfg = preset_config("fig8", seed=1)
        up = tuple(np.arange(0.0, 30.0 + 1e-9, 5.0))
        found = [run_capacity_sweep(replace(cfg, axis_values=values))
                 .meta["crossover_jnr_db"] for values in (up, up[::-1])]
        assert np.isclose(found[0], 11.98, atol=0.01)
        assert found[1] == found[0]

    def test_mode_mismatch_rejected(self):
        cfg = preset_config("fig4")
        with pytest.raises(ConfigError):
            run_capacity_sweep(cfg)
        with pytest.raises(ConfigError):
            run_ber_sweep(preset_config("fig7"))

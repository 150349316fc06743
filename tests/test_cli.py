"""Command-line entry points and exit-code contract."""

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from jamlink import cli, harness, modem, theory
from jamlink.cli import cli_main
from jamlink.harness import read_csv
from jamlink.signals import JammerKind


def run(args, capsys):
    code = cli_main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_no_args_is_usage_error(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run(["bogus"], capsys)
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = run(["sweep", "--nope"], capsys)
        assert code == 1

    def test_sweep_requires_out(self, capsys):
        code, _, _ = run(["sweep", "--preset", "fig4"], capsys)
        assert code == 1

    def test_preset_and_config_exclusive(self, capsys, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("experiment.preset = fig4\n")
        code, _, _ = run(["sweep", "--preset", "fig4", "--config", str(cfg),
                          "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 1

    @pytest.mark.parametrize("command, preset, message", [
        ("sweep", "fig7", "preset 'fig7' is a capacity experiment; "
                          "use the 'capacity' subcommand"),
        ("capacity", "fig2", "preset 'fig2' is a BER experiment; "
                             "use the 'sweep' subcommand"),
    ], ids=["sweep-fig7", "capacity-fig2"])
    def test_preset_under_the_other_subcommand_rejected(self, capsys,
                                                        tmp_path, command,
                                                        preset, message):
        out = tmp_path / "o.csv"
        code, _, err = run([command, "--preset", preset, "--out", str(out)],
                           capsys)
        assert code == 1
        assert err == f"config error: {message}\n"
        assert not out.exists()

    def test_unwritable_out_is_runtime_error(self, capsys, tmp_path):
        code, _, _ = run(["capacity", "--preset", "fig8",
                          "--out", str(tmp_path / "no" / "dir" / "o.csv")],
                         capsys)
        assert code == 2

    @pytest.mark.parametrize("bad_line, flags", [
        ("frame.p1 = 1.5", []),
        ("jammer.kind = bogus", []),
        ("frame.m = 3", []),
        # an unknown key: the quadrature rule is a constant
        ("capacity.points = 4", []),
        ("channel.n_tau = -1", []),
        ("run.threads = -2", []),
        ("", ["--trials", "nan"]),
        ("", ["--trials", "-5", "--threads", "-2"]),
        ("", ["--threads", "0"]),
        ("noise.sigma2 = 0\nframe.a2 = 2", []),
        ("noise.sigma2 = -1", []),
        # an unknown key: the spreading factor cancels from the BER
        ("baselines.spread_factor = 8", []),
        # no closed-form threshold for a delayed random jammer
        ("channel.n_tau = 3\nthreshold.mode = exact", []),
        # capacity keys, which a BER sweep would ignore
        ("capacity.model = complex", []),
        ("capacity.snr_db = 3", []),
        # an infinite amplitude or K factor, rejected before the sweep
        ("frame.a2 = inf", []),
        ("snr.db = inf", []),
        ("channel.k_factor = inf", []),
        # a dB value whose power overflows a float, or underflows to 0
        ("snr.db = 4000", []),
        ("axis.values = 0, 4000", []),
        ("axis.values = -4000, 0", []),
        ("baselines.enabled = true\nbaselines.eb_n0_db = 4000", []),
        ("experiment.mode = capacity\naxis.name = p\naxis.values = 0, 1\n"
         "jammer.jnr_db = 4000", []),
        ("experiment.mode = capacity\ncapacity.snr_db = 4000", []),
        # a negative seed, which the random streams would reject mid-sweep
        ("", ["--seed", "-1"]),
        ("run.master_seed = -1", []),
        # keys that the sweep axis replaces, which the sweep would ignore
        ("jammer.jnr_db = 10", []),
        ("experiment.mode = capacity\njammer.jnr_db = 10", []),
        ("axis.name = n\naxis.values = 2, 4\njammer.jnr_db = 10\n"
         "frame.n = 3", []),
        ("experiment.preset = fig5\nrun.blocks = 2\nframe.n = 3", []),
        # fig6 compares the two threshold modes; one mode for both curves
        # would mislabel one of them
        ("experiment.preset = fig6\nrun.blocks = 2\nthreshold.mode = exact",
         []),
        # keys whose value would not reach the run: frame.a2 replaces the
        # default snr.db = 5 and snr.map, no fading has no K factor, exact
        # mode sends no preamble, and disabled baselines have no Eb/N0
        ("frame.a2 = 2", []),
        ("frame.a2 = 2\nsnr.map = on", []),
        ("channel.fading = false\nchannel.k_factor = 3", []),
        ("threshold.mode = exact\nframe.m = 4", []),
        ("baselines.eb_n0_db = 3", []),
        # two curves, or two capacity columns, with one label
        ("jammer.kind = single_tone, single_tone", []),
        ("experiment.mode = capacity\naxis.name = p\naxis.values = 0, 1\n"
         "jammer.jnr_db = 10\ncapacity.snr_db = 5, 5.0", []),
        ("experiment.mode = capacity\naxis.name = p\naxis.values = 0, 1\n"
         "jammer.jnr_db = 10\ncapacity.snr_db = 5, 5.000001", []),
    ])
    def test_bad_config_value_is_config_error(self, capsys, tmp_path,
                                              bad_line, flags):
        # the default lines a case does not set itself; a repeated key, a
        # BER key in a capacity config, or a key the build leaves unread,
        # is a config error of its own
        capacity = "experiment.mode = capacity" in bad_line
        defaults = [] if "experiment.preset" in bad_line else \
            ["axis.values = 0, 10"] + ([] if capacity else ["snr.db = 5"])
        lines = [d for d in defaults if d.split(" = ")[0] + " = "
                 not in bad_line]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(lines + [bad_line]) + "\n")
        out = tmp_path / "o.csv"
        code, _, err = run(["capacity" if capacity else "sweep", "--config",
                            str(cfg), "--out", str(out), "--quiet", *flags],
                           capsys)
        assert code == 1
        assert err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("sweep", "axis.values = nan\nsnr.db = 5"),
        ("sweep", "axis.values = inf\nsnr.db = 5"),
        ("sweep", "axis.name = n\naxis.values = 2, 4\njammer.jnr_db = nan\n"
                  "snr.db = 5"),
        ("sweep", "axis.values = 0, 10\nsnr.db = 5\nbaselines.enabled = true\n"
                  "baselines.eb_n0_db = nan"),
        ("capacity", "experiment.mode = capacity\naxis.name = p\n"
                     "jammer.jnr_db = 10\naxis.values = 0.5, 1.5"),
        ("capacity", "experiment.mode = capacity\naxis.name = p\n"
                     "jammer.jnr_db = nan\naxis.values = 0, 1"),
        ("capacity", "experiment.mode = capacity\naxis.values = 0, 10\n"
                     "capacity.snr_db = nan"),
    ])
    def test_bad_sweep_value_is_config_error(self, capsys, tmp_path, command,
                                             text):
        # values that would fail only once the sweep reached them
        cfg = tmp_path / "bad.cfg"
        blocks = "run.blocks = 2\n" if command == "sweep" else ""
        cfg.write_text(f"{blocks}{text}\n")
        out = tmp_path / "o.csv"
        code, _, err = run([command, "--config", str(cfg), "--out", str(out),
                            "--quiet"], capsys)
        assert code == 1
        assert err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("text, keys", [
        ("experiment.mode = capacity\naxis.values = 0, 10\n"
         "jammer.kind = single_tone", ["jammer.kind"]),
        ("experiment.mode = capacity\naxis.values = 0, 10\n"
         "threshold.mode = exact\nchannel.fading = false\nframe.n = 4\n"
         "run.blocks = 2\nbaselines.enabled = true",
         ["baselines.enabled", "channel.fading", "frame.n", "run.blocks",
          "threshold.mode"]),
        ("experiment.preset = fig7\nrun.blocks = 2\n"
         "run.payload_bits_per_block = 100",
         ["run.blocks", "run.payload_bits_per_block"]),
        ("experiment.preset = fig8\nrun.blocks = 2", ["run.blocks"]),
    ], ids=["custom-jammer", "custom-ber-run", "fig7", "fig8"])
    def test_ber_keys_in_a_capacity_config_are_config_errors(
            self, capsys, tmp_path, text, keys):
        # a capacity sweep reads no BER key; each one is named, not ignored
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "o.csv"
        code, _, err = run(["capacity", "--config", str(cfg), "--out",
                            str(out), "--quiet"], capsys)
        assert code == 1
        assert err == f"config error: keys not read in capacity mode: {keys}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", [["--preset", "fig8"],
                                        ["--preset", "fig7"], "custom"])
    def test_trials_on_a_capacity_experiment_is_config_error(
            self, capsys, tmp_path, source):
        # --trials sets the BER block count, which a capacity sweep never
        # reads
        if source == "custom":
            cfg = tmp_path / "cap.cfg"
            cfg.write_text("experiment.mode = capacity\naxis.values = 0, 10\n")
            source = ["--config", str(cfg)]
        out = tmp_path / "o.csv"
        code, _, err = run(["capacity", *source, "--trials", "7", "--out",
                            str(out), "--quiet"], capsys)
        assert code == 1
        assert err == "config error: --trials is not read in capacity mode\n"
        assert not out.exists()

    def test_capacity_over_jnr_with_two_snrs_is_config_error(self, capsys,
                                                             tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment.mode = capacity\naxis.values = 0, 10\n"
                       "capacity.snr_db = 3, 4\n")
        out = tmp_path / "o.csv"
        code, _, err = run(["capacity", "--config", str(cfg), "--out",
                            str(out), "--quiet"], capsys)
        assert code == 1
        assert err.startswith("config error:")
        assert not out.exists()


class TestTheoryOps:
    def test_optimal_threshold(self, capsys):
        code, out, _ = run(["theory", "--op", "optimal-threshold",
                            "--d1", "1", "--d2", "2", "--n", "1"], capsys)
        assert code == 0
        assert np.isclose(float(out.strip()), 2.0 * np.log(2.0), rtol=1e-15)

    def test_ber_random(self, capsys):
        t = str(2.0 * np.log(2.0))
        code, out, _ = run(["theory", "--op", "ber-random", "--d1", "1",
                            "--d2", "2", "--n", "1", "--t", t], capsys)
        assert code == 0
        assert np.isclose(float(out.strip()), 0.375, rtol=1e-12)

    def test_ber_det_requires_qd(self, capsys):
        code, _, _ = run(["theory", "--op", "ber-det", "--d1", "1",
                          "--d2", "2", "--n", "4", "--t", "1"], capsys)
        assert code == 1

    def test_optimal_threshold_det(self, capsys):
        # the noncentral law's optimum, the default of ber-det-noncentral
        d = theory.DeterministicEnergies(qd_1=0.0, qd_2=4.0, sigma2_R=1.0)
        code, out, _ = run(["theory", "--op", "optimal-threshold-det",
                            "--qd1", "0", "--qd2", "4", "--sigma2", "1",
                            "--n", "8"], capsys)
        assert code == 0
        t = float(out.strip())
        assert t == theory.optimal_threshold_noncentral(d, 0.5, 0.5, 8)
        assert t != theory.optimal_threshold_det(d, 0.5, 0.5, 8)
        # between the two mean energies qd_k + sigma2
        assert 1.0 < t < 5.0

    def test_overflow_is_runtime_error(self, capsys):
        # Boost's tgamma overflows at a tiny threshold and a large
        # noncentrality
        code, out, err = run(["theory", "--op", "ber-det-noncentral",
                              "--qd1", "4", "--qd2", "9", "--n", "64",
                              "--t", "1e-300"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ber_det_noncentral(self, capsys):
        # default threshold: the noncentral law's own optimum
        d = theory.DeterministicEnergies(qd_1=0.5, qd_2=3.0, sigma2_R=1.0)
        t = theory.optimal_threshold_noncentral(d, 0.5, 0.5, 4)
        args = ["theory", "--op", "ber-det-noncentral", "--qd1", "0.5",
                "--qd2", "3", "--sigma2", "1", "--n", "4"]
        code, out, _ = run(args, capsys)
        assert code == 0
        assert np.isclose(float(out.strip()),
                          theory.ber_det_noncentral(d, 0.5, 0.5, 4, t),
                          rtol=1e-15)
        code, out, _ = run(args + ["--t", "1.2"], capsys)
        assert code == 0
        assert np.isclose(float(out.strip()),
                          theory.ber_det_noncentral(d, 0.5, 0.5, 4, 1.2),
                          rtol=1e-15)

    def test_mi_value(self, capsys):
        code, out, _ = run(["theory", "--op", "mi", "--d1", "1", "--d2", "1e6",
                            "--p", "0.5"], capsys)
        assert code == 0
        assert np.isclose(float(out.strip()), 0.9876199, atol=1e-4)

    def test_capacity_prints_pair(self, capsys):
        code, out, _ = run(["theory", "--op", "capacity",
                            "--d1", "1", "--d2", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        p_star = float(lines[0].split("=")[1])
        cap_bits = float(lines[1])
        assert np.isclose(p_star, 0.54573, atol=2e-4)
        assert np.isclose(cap_bits, 0.0400, atol=2e-4)

    @pytest.mark.parametrize("args", [
        ["--op", "optimal-threshold", "--d1", "1", "--d2", "2", "--n", "0"],
        ["--op", "ber-random", "--d1", "1", "--d2", "2", "--p", "1.5",
         "--t", "1"],
        ["--op", "ber-det", "--qd1", "0", "--qd2", "1", "--n", "0"],
        ["--op", "optimal-threshold-det", "--qd1", "0", "--qd2", "1",
         "--n", "-3"],
        ["--op", "optimal-threshold", "--d1", "1", "--d2", "2", "--p", "0"],
        ["--op", "mi", "--d1", "1", "--d2", "2", "--p", "1.01"],
        ["--op", "mi", "--d1", "1", "--d2", "2", "--p", "nan"],
        ["--op", "ber-random", "--d1", "1", "--d2", "2", "--t", "nan"],
        ["--op", "optimal-threshold", "--d1", "1", "--d2", "inf"],
        ["--op", "ber-det", "--qd1=-inf", "--qd2", "1"],
        ["--op", "ber-det-noncentral", "--qd1", "0", "--qd2", "1",
         "--sigma2", "inf"],
    ], ids=["n-0", "p-1.5", "det-n-0", "det-n-neg", "p-0", "mi-p-1.01",
            "mi-p-nan", "t-nan", "d2-inf", "qd1-inf", "sigma2-inf"])
    def test_out_of_range_n_or_p_is_config_error(self, capsys, monkeypatch,
                                                 args):
        # rejected before any level is built or closed form evaluated
        def unreachable(*a, **kw):
            raise AssertionError("evaluated")

        for name in ("ConditionalVariances", "DeterministicEnergies"):
            monkeypatch.setattr(theory, name, unreachable)
        code, out, err = run(["theory"] + args, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["--op", "ber-det", "--qd1", "0", "--qd2", "1", "--sigma2", "0"],
        ["--op", "optimal-threshold", "--d1", "0", "--d2", "1"],
        ["--op", "optimal-threshold", "--d1", "1", "--d2", "1"],
        ["--op", "ber-det-noncentral", "--qd1", "2", "--qd2", "1"],
    ], ids=["sigma2-0", "d1-0", "d1-eq-d2", "qd1-gt-qd2"])
    def test_levels_the_constructors_reject_are_config_error(
            self, capsys, monkeypatch, args):
        # no closed form is evaluated
        for name in ("ber_det", "ber_det_noncentral", "optimal_threshold_det",
                     "optimal_threshold_noncentral",
                     "optimal_threshold_random"):
            monkeypatch.setattr(theory, name, None)
        code, out, err = run(["theory"] + args, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("op", ["optimal-threshold-det",
                                    "ber-det-noncentral"])
    def test_nan_from_finite_operands_is_runtime_error(self, capsys, op):
        # about 70 dB JNR at N = 10: the noncentral log ratio is NaN at the
        # upper bracket end, past the range of special.ive
        code, out, err = run(["theory", "--op", op, "--qd1", "1e7",
                              "--qd2", "1.2355e8", "--n", "10"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("p", ["0", "1"])
    def test_mi_takes_the_end_points_of_p(self, capsys, p):
        code, out, _ = run(["theory", "--op", "mi", "--d1", "1", "--d2", "2",
                            "--p", p], capsys)
        assert code == 0
        assert abs(float(out.strip())) < 1e-12

    def test_full_precision_output(self, capsys):
        _, out, _ = run(["theory", "--op", "optimal-threshold",
                         "--d1", "1", "--d2", "2", "--n", "1"], capsys)
        assert len(out.strip().split(".")[-1]) >= 15


class TestSweepCommand:
    def test_tiny_sweep_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment.preset = fig4\n"
            "run.blocks = 2\n"
            "run.payload_bits_per_block = 200\n")
        code, _, _ = run(["sweep", "--config", str(cfg), "--seed", "9",
                          "--out", str(out_path), "--quiet"], capsys)
        assert code == 0
        cols = read_csv(out_path)
        assert cols["jnr_db"][0] == 0.0
        assert len(cols["jnr_db"]) == 9

    def test_flags_win_over_the_config_file(self, capsys, tmp_path,
                                            monkeypatch):
        # --seed and --threads replace the file's run.master_seed and
        # run.threads
        seen = []
        sweep = harness.run_ber_sweep

        def spy(cfg, progress=None):
            seen.append(cfg)
            return sweep(cfg, progress)

        monkeypatch.setattr(harness, "run_ber_sweep", spy)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment.preset = fig4\n"
            "axis.values = 10\n"
            "run.blocks = 1\n"
            "run.payload_bits_per_block = 100\n"
            "run.master_seed = 3\n"
            "run.threads = 1\n")
        code, _, _ = run(["sweep", "--config", str(cfg), "--seed", "9",
                          "--threads", "2", "--out",
                          str(tmp_path / "s.csv"), "--quiet"], capsys)
        assert code == 0
        assert [(c.master_seed, c.threads) for c in seen] == [(9, 2)]

    def test_trials_overrides_blocks(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment.preset = fig4\n"
            "run.payload_bits_per_block = 100\n")
        code, _, _ = run(["sweep", "--config", str(cfg), "--trials", "300",
                          "--out", str(out_path), "--quiet"], capsys)
        assert code == 0
        cols = read_csv(out_path)
        assert cols["aaj.bits"][0] == 300.0

    @pytest.mark.parametrize("mode", ["exact", "estimated"])
    def test_past_the_range_of_ive_no_bracket_end_is_taken(
            self, capsys, tmp_path, mode):
        # unit gains, fig3's alphabet, N = 10: from 68 dB the noncentral
        # threshold is NaN.  Exact mode cannot decode at it and fails;
        # estimated mode keeps its simulated cells and reads NaN in theory
        cfg = tmp_path / "hi.cfg"
        cfg.write_text(
            "axis.name = jnr_db\n"
            f"axis.values = 66, 68, {70 if mode == 'exact' else '70, 80'}\n"
            "jammer.kind = mod_bpsk\n"
            f"threshold.mode = {mode}\n"
            "channel.fading = false\n"
            "snr.db = 5\n"
            "run.blocks = 2\n"
            "run.payload_bits_per_block = 200\n")
        out_path = tmp_path / "s.csv"
        code, _, err = run(["sweep", "--config", str(cfg), "--out",
                            str(out_path), "--quiet"], capsys)
        if mode == "exact":
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out_path.exists()
            return
        assert code == 0
        cols = read_csv(out_path)
        theory_col = cols["mod_bpsk.ber_theory"]
        assert np.isfinite(theory_col[0])
        assert np.isnan(theory_col[1:]).all()
        assert cols["mod_bpsk.ber_sim"] == [0.0] * 4

    def test_capacity_command(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment.preset = fig8\n"
            "axis.values = 10, 12, 14\n")
        code, _, _ = run(["capacity", "--config", str(cfg),
                          "--out", str(out_path), "--quiet"], capsys)
        assert code == 0
        cols = read_csv(out_path)
        assert cols["jnr_db"] == [10.0, 12.0, 14.0]
        assert all(c >= 0.0 for c in cols["aaj_capacity_bits"])


def _loaded_by_a_fresh_import(module):
    code = ("import sys, jamlink, jamlink.harness, jamlink.cli; "
            f"print({module!r} in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ,
                                   PYTHONPATH=os.pathsep.join(sys.path)))
    return proc.stdout.strip()


def test_import_leaves_scipy_stats_unloaded():
    # every density and tail in the package is a scipy.special ufunc;
    # scipy.stats is imported only inside the selftest checks
    assert _loaded_by_a_fresh_import("scipy.stats") == "False"


def test_import_leaves_scipy_optimize_unloaded():
    # the root finds run on theory's Brent port; scipy.optimize (which loads
    # linalg, sparse, spatial and fft) comes in only with the scipy.stats
    # that the selftest checks import, and in the tests
    assert _loaded_by_a_fresh_import("scipy.optimize") == "False"


def test_script_target_is_a_cli_callable():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"][
        "jamlink"]
    module, _, name = target.partition(":")
    assert module == "jamlink.cli"
    assert callable(getattr(cli, name))


def test_package_binds_only_its_modules():
    # every function, class and error is reached through its module
    import jamlink

    modules = ["signals", "channel", "modem", "theory", "capacity",
               "baselines", "harness", "kernels", "config"]
    assert sorted(jamlink.__all__) == sorted(modules + ["__version__"])
    for name in modules:
        assert isinstance(getattr(jamlink, name), types.ModuleType)
    public = {k: v for k, v in vars(jamlink).items() if not k.startswith("_")}
    assert all(isinstance(v, types.ModuleType) for v in public.values()), \
        sorted(k for k, v in public.items()
               if not isinstance(v, types.ModuleType))


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run(["selftest", "--quiet"], capsys)
        assert code == 0, out
        assert "FAIL" not in out

    def test_selftest_guards_the_private_ncx2_ufunc(self, capsys):
        code, out, _ = run(["selftest"], capsys)
        assert code == 0, out
        assert "ok noncentral-law-matches-stats" in out

    def test_selftest_checks_the_noncentral_threshold_root(self, capsys,
                                                          monkeypatch):
        code, out, _ = run(["selftest"], capsys)
        assert code == 0, out
        assert "ok noncentral-threshold-root" in out
        # a root moved off the exact law's optimum is caught
        root = theory.optimal_threshold_noncentral
        monkeypatch.setattr(theory, "optimal_threshold_noncentral",
                            lambda d, p1, p2, n: 1.05 * root(d, p1, p2, n))
        code, out, _ = run(["selftest"], capsys)
        assert code == 2
        assert "FAIL noncentral-threshold-root" in out

    def test_selftest_checks_the_random_energy_law(self, capsys, monkeypatch):
        code, out, _ = run(["selftest"], capsys)
        assert code == 0, out
        assert "ok random-energy-law" in out
        # gamma-path energies that drop the receiver noise are caught
        monkeypatch.setattr(
            theory, "delta2",
            lambda ch, a_k, pj: abs(ch.h1 * ch.h2 * a_k + ch.h3) ** 2 * pj)
        code, out, _ = run(["selftest"], capsys)
        assert code == 2
        assert "FAIL random-energy-law" in out

    def test_selftest_checks_the_modulated_energy_law(self, capsys,
                                                      monkeypatch):
        code, out, _ = run(["selftest"], capsys)
        assert code == 0, out
        assert "ok modulated-energy-law" in out
        assert out.rstrip().endswith("all 10 checks passed")
        # a 16QAM window power of (2N + 4m)/10 in place of (2N + 8m)/10
        window_power = modem._window_power

        def patched(kind, N, n, rng):
            if kind is JammerKind.MOD_16QAM:
                return (2 * N + 4 * rng.binomial(2 * N, 0.5, size=n)) / 10
            return window_power(kind, N, n, rng)

        monkeypatch.setattr(modem, "_window_power", patched)
        code, out, _ = run(["selftest"], capsys)
        assert code == 2
        assert "FAIL modulated-energy-law" in out

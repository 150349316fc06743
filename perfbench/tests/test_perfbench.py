"""Tests of the benchmark itself: output checks, tracer, busy-time accounting.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

jamlink = run.import_jamlink()
from jamlink import harness  # noqa: E402


def _small_fig4():
    cfg = run.build_configs(harness, "fig4_exact", 12345)[0]
    return replace(cfg, blocks=1, axis_values=(0.0, 20.0, 40.0))


def _small_fig3():
    cfg = run.build_configs(harness, "fig3_capacity", 12345)[0]
    return replace(cfg, blocks=1, axis_values=(0.0, 10.0, 30.0))


def _small_fig2():
    cfg = run.build_configs(harness, "fig2_tonal", 12345)[0]
    return replace(cfg, blocks=1, axis_values=(0.0, 30.0))


@pytest.fixture(scope="module")
def fig4():
    cfg = _small_fig4()
    return cfg, harness.run_ber_sweep(cfg)


@pytest.fixture(scope="module")
def fig8():
    cfg = harness.preset_config("fig8")
    return cfg, harness.run_capacity_sweep(cfg)


def _doctor(result, column, row_i, value, **more):
    rows = [list(r) for r in result.rows]
    for col, val in dict(more, **{column: value}).items():
        rows[row_i][result.columns.index(col.replace("__", "."))] = val
    return harness.SweepResult(columns=result.columns,
                               rows=tuple(tuple(r) for r in rows),
                               meta=dict(result.meta))


class TestSeedOutputPasses:
    def test_fig4(self, fig4):
        cfg, result = fig4
        assert checks.check_ber(cfg, result) == []
        assert checks.ber_points(cfg) == 9

    @pytest.mark.parametrize("make", [_small_fig2, _small_fig3])
    def test_estimated_threshold_presets(self, make):
        cfg = make()
        assert checks.check_ber(cfg, harness.run_ber_sweep(cfg)) == []

    def test_capacity(self, fig8):
        cfg, result = fig8
        ref = checks.load_reference()
        assert checks.check_capacity(cfg, result, ref) == []
        fig7 = harness.preset_config("fig7")
        res7 = harness.run_capacity_sweep(fig7)
        assert checks.check_capacity(fig7, res7, ref) == []

    def test_csv_round_trip(self, fig4, tmp_path):
        _cfg, result = fig4
        path = tmp_path / "fig4.csv"
        harness.emit_csv(result, path)
        text = path.read_text(encoding="utf-8")
        assert checks.csv_matches(result, text)
        lines = text.split("\n")
        lines[-2] = "41" + lines[-2][2:]
        assert lines[-2].startswith("41,")
        assert not checks.csv_matches(result, "\n".join(lines))


class TestDoctoredResultFails:
    @pytest.mark.parametrize("column,value,more,reason", [
        ("aaj.bits", 49_999, {}, "bits"),
        ("aaj.ber_sim", 0.4, {}, "errors / bits"),
        ("aaj.ci_high", 0.0, {}, "Wilson"),
        ("aaj.ber_theory", 0.3, {}, "exact theory"),
        ("aaj.ber_gauss", 1.5, {}, "ber_gauss"),
        ("dsss.ber_sim", 0.3, {"dsss__ci_low": 0.29, "dsss__ci_high": 0.31},
         "Q(sqrt"),
        ("fh.ci_high", 0.0, {}, "Wilson"),
    ])
    def test_one_bad_cell_fails_one_point(self, fig4, column, value, more,
                                          reason):
        cfg, result = fig4
        bad = checks.check_ber(cfg, _doctor(result, column, 0, value, **more))
        assert len(bad) == 1
        assert bad[0][:2] == (0.0, column.split(".")[0])
        assert reason in bad[0][2]

    def test_missing_row_fails_every_point(self, fig4):
        cfg, result = fig4
        short = harness.SweepResult(columns=result.columns,
                                    rows=result.rows[:-1], meta=result.meta)
        assert len(checks.check_ber(cfg, short)) == checks.ber_points(cfg)

    def test_estimated_threshold_beating_theory_fails(self):
        cfg = _small_fig3()
        result = harness.run_ber_sweep(cfg)
        bad = checks.check_ber(cfg, _doctor(result, "mod_bpsk.ber_theory", 2,
                                            0.49))
        assert [(v, label) for v, label, _ in bad] == [(30.0, "mod_bpsk")]

    def test_capacity_p_star_off(self, fig8):
        cfg, result = fig8
        ref = checks.load_reference()
        moved = result.rows[5][2] + 1e-3
        bad = checks.check_capacity(cfg, _doctor(result, "aaj_p_star", 5, moved),
                                    ref)
        assert [(v, label) for v, label, _ in bad] == [(result.rows[5][0], "aaj")]

    def test_capacity_crossover_off(self, fig8):
        cfg, result = fig8
        meta = dict(result.meta, crossover_jnr_db=result.meta["crossover_jnr_db"] + 0.1)
        moved = harness.SweepResult(columns=result.columns, rows=result.rows,
                                    meta=meta)
        bad = checks.check_capacity(cfg, moved, checks.load_reference())
        assert len(bad) == len(result.rows)

    def test_raising_sweep_fails_unproduced_points(self, fig4):
        cfg, _result = fig4
        outcome = (cfg, None, None, (4, "RuntimeError('boom')"))
        attempted, failed, msgs = run.check_unit({}, [outcome], {})
        assert (attempted, failed) == (9, 5)
        assert "boom" in msgs[0]

    def test_csv_differing_from_first_unit_fails(self, fig4, tmp_path):
        cfg, result = fig4
        path = tmp_path / "a.csv"
        harness.emit_csv(result, path)
        text = path.read_text(encoding="utf-8")
        first = {cfg.preset: text.replace("0", "1", 1)}
        _a, failed, _m = run.check_unit({}, [(cfg, result, text, None)],
                                        first)
        assert failed == 9


def _layer_modules():
    return [sys.modules[f"jamlink.{name}"] for name in run.LAYERS]


class TestTracer:
    def test_restores_every_module_attribute(self, tmp_path):
        modules = _layer_modules()
        before = [dict(vars(m)) for m in modules]
        t = tracer.Tracer(modules, executor_module=harness)
        with t:
            assert harness.run_ber_sweep is not before[-1]["run_ber_sweep"]
            assert harness.ThreadPoolExecutor is not before[-1]["ThreadPoolExecutor"]
            run.run_unit(harness, [_small_fig4()], tmp_path, t)
        for m, snapshot in zip(modules, before):
            after = vars(m)
            assert set(after) == set(snapshot), m.__name__
            for key, value in snapshot.items():
                assert after[key] is value, f"{m.__name__}.{key}"
        assert t.spans

    def test_restores_after_an_error(self):
        modules = _layer_modules()
        before = [dict(vars(m)) for m in modules]
        with pytest.raises(ValueError):
            with tracer.Tracer(modules, executor_module=harness):
                jamlink.signals.gen_cscg(-1.0, 10, 0)
        for m, snapshot in zip(modules, before):
            assert all(vars(m)[k] is v for k, v in snapshot.items())

    def test_spans_nest_and_carry_points(self, tmp_path):
        t = tracer.Tracer(_layer_modules(), executor_module=harness)
        cfg = _small_fig4()
        with t:
            run.run_unit(harness, [cfg], tmp_path, t)
        by_id = {s[0]: s for s in t.spans}
        for span in t.spans:
            parent = span[4]
            if parent is not None:
                p = by_id[parent]
                assert p[5] == span[5]  # same thread
                assert p[2] <= span[2] <= span[3] <= p[3]
        assert t.point == checks.ber_points(cfg)
        tasks = [s for s in t.spans if s[1] == tracer.TASK_SPAN]
        # block tasks start at point 3a, the baseline pair at 3a + 1
        assert {0, 3, 6} <= {s[6] for s in tasks} <= {0, 1, 3, 4, 6, 7}
        assert all(s[4] is None for s in tasks)

    def test_computed_counts(self, tmp_path):
        t = tracer.Tracer(_layer_modules(), executor_module=harness)
        cfg = _small_fig4()
        with t:
            run.run_unit(harness, [cfg], tmp_path, t)
        n = cfg.payload_bits_per_block * cfg.frame.N * len(cfg.axis_values)
        assert t.counts["kernels.compose_energies.samples"] == n
        trials = cfg.payload_bits_per_block * len(cfg.axis_values)
        assert t.counts["baselines.trials"] == 2 * trials
        assert t.counts["baselines.chips"] == trials * cfg.baseline_spread


class TestBusyTime:
    @pytest.mark.parametrize("make", [_small_fig4, _small_fig2])
    def test_busy_within_threads_times_wall(self, make, tmp_path):
        t = tracer.Tracer(_layer_modules(), executor_module=harness)
        with t:
            wall, outcomes = run.run_unit(harness, [make()], tmp_path, t)
        m = run.layer_metrics(t, wall, outcomes)
        assert 0 < m["harness.busy_s"] <= run.THREADS * wall
        assert m["harness.idle_s"] >= 0
        layer_total = sum(m[f"{name}.self_s"] for name in run.LAYERS)
        assert layer_total == pytest.approx(m["harness.busy_s"])

    def test_self_time_subtracts_children(self):
        spans = [(0, "a.x", 0.0, 10.0, None, 1, 0),
                 (1, "b.y", 1.0, 4.0, 0, 1, 0),
                 (2, "b.y", 5.0, 6.0, 0, 1, 0),
                 (3, "c.z", 2.0, 3.0, 1, 1, 0)]
        selfs = tracer.self_times(spans)
        assert selfs == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
        total, calls, own, layer = tracer.summarize(spans)
        assert total["b.y"] == 4.0 and calls["b.y"] == 2 and own["b.y"] == 3.0
        assert layer == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_fails_without_package_sources(tmp_path):
    """A checkout holding only the benchmark exits non-zero, no result."""
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "capacity",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_matches_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS

import concurrent.futures
import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fracspde import dynamics as dyn
from fracspde import experiments as xp
from fracspde.errors import InvalidInputError, InvalidParameterError

from _reference import decay_rate_fit, detect_blowup


def blowup_cfg(**over):
    # constant supercritical field: deterministic blow-up of the mean ODE
    base = dict(
        d=2, M=2, s=1.0, beta=1.0, b=0.0, S=1e7, dt=1e-3, t_end=5.0,
        zeta="fisher", init={"coeffs": [{"k": [0, 0], "re": 1.5}]},
        seed=3, blowup_threshold=1e3,
    )
    base.update(over)
    return dyn.SimConfig(**base)


class TestDetectBlowup:
    def test_bounded_run_gives_none(self):
        cfg = blowup_cfg(init={"coeffs": [{"k": [1, 0], "re": 0.5}]}, zeta="none", t_end=0.05)
        rec = dyn.integrate(cfg)
        assert detect_blowup(rec, 1e3) is None

    def test_crossing_time_reported(self):
        rec = dyn.integrate(blowup_cfg())
        t = detect_blowup(rec, 1e2)
        assert t is not None
        assert t <= rec.blowup_time
        assert detect_blowup(rec, 1e3) == rec.blowup_time

    def test_threshold_above_everything_gives_none(self):
        cfg = blowup_cfg(init={"coeffs": [{"k": [1, 0], "re": 0.5}]}, zeta="none", t_end=0.05)
        rec = dyn.integrate(cfg)
        assert detect_blowup(rec, 1e12) is None


class TestEnsembleSurvival:
    def test_deterministic_blowup_is_step_function(self):
        curve = xp.ensemble_survival(blowup_cfg(), n_runs=4, workers=1)
        assert curve.fraction[0] == 1.0
        assert curve.fraction[-1] == 0.0
        assert set(np.unique(curve.fraction)) == {0.0, 1.0}
        assert len(set(curve.blowup_times)) == 1

    def test_single_run_curve_is_binary(self):
        curve = xp.ensemble_survival(blowup_cfg(), n_runs=1, workers=1)
        assert set(np.unique(curve.fraction)) <= {0.0, 1.0}

    def test_determinism_across_calls(self):
        cfg = blowup_cfg(init={"mean": 1.3, "delta0": 0.5}, b=1.0, noise_N=1, t_end=3.0)
        a = xp.ensemble_survival(cfg, n_runs=3, workers=1)
        b = xp.ensemble_survival(cfg, n_runs=3, workers=2)
        assert a.blowup_times == b.blowup_times
        assert np.array_equal(a.fraction, b.fraction)

    def test_monotone_non_increasing(self):
        cfg = blowup_cfg(init={"mean": 1.3, "delta0": 0.5}, b=1.0, noise_N=1, t_end=3.0)
        curve = xp.ensemble_survival(cfg, n_runs=5, workers=2)
        assert np.all(np.diff(curve.fraction) <= 0.0)

    def test_base_seed_override(self):
        a = xp.ensemble_survival(blowup_cfg(), 2, base_seed=11, workers=1)
        assert a.base_seed == 11


class TestSurvivalFromTimes:
    GRID = np.arange(2001) * 1e-3

    @pytest.mark.parametrize("case", ["mixed", "ties", "all_none", "all_blown_up"])
    def test_matches_loop(self, case):
        from _reference import survival_from_times

        rng = np.random.default_rng(4)
        if case == "all_none":
            times = [None] * 7
        else:
            # blow-up times are step times, so many sit exactly on grid points
            times = [float(t) for t in self.GRID[rng.integers(0, 2001, size=25)]]
            if case == "ties":
                times = times[:5] * 3 + [float(self.GRID[-1]), float(self.GRID[0])]
            if case == "mixed":
                times += [None] * 6 + [float(rng.uniform(0.0, 2.0)) for _ in range(9)]
            rng.shuffle(times)
        got = xp.survival_from_times(self.GRID, times)
        assert np.array_equal(got, survival_from_times(self.GRID, times))
        assert got[-1] == pytest.approx(sum(t is None for t in times) / len(times))


NOISY = dict(init={"mean": 1.3, "delta0": 0.5}, b=1.0, t_end=3.0)


def curve_fields(c):
    return (c.noise_N, c.b, c.A, c.n_runs, c.base_seed, c.blowup_times,
            c.times.tolist(), c.fraction.tolist())


class CountingPool(ProcessPoolExecutor):
    started = 0
    sizes = []  # the max_workers of each pool started

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        type(self).sizes.append(kwargs["max_workers"])
        super().__init__(*args, **kwargs)


# the delay_ensemble benchmark's study: levels 0, 2, 4 and two runs are 4 jobs, the
# N = 2, 4 batch of run 0 and of run 1, then level 0's run 0 and run 1
DELAY_ENSEMBLE = dyn.SimConfig(d=2, M=4, s=1.0, beta=1.0, b=2.0, S=1e7, dt=1e-4, t_end=2.0,
                               zeta="fisher", init={"mean": 2.0, "delta0": 2.0}, seed=4)


def record_caller_jobs(monkeypatch, fail=False):
    """Patch integrate_batch (integrate is its batch of one) to record, or to raise
    on, the jobs this process steps; forked pool workers step theirs unrecorded."""
    caller, batch, calls = os.getpid(), xp.dyn.integrate_batch, []

    def in_caller(cfgs, k):
        if os.getpid() == caller:
            if fail:
                raise RuntimeError("a job of the caller's share")
            calls.append(([c.noise_N for c in cfgs], k))
        return batch(cfgs, k)

    monkeypatch.setattr(xp.dyn, "integrate_batch", in_caller)
    return calls


@pytest.fixture(scope="module")
def study_012():
    return xp.delay_study(blowup_cfg(**NOISY), [0, 1, 2], n_runs=2, workers=1)


class TestDelayStudy:
    def test_reference_without_level_zero(self, study_012):
        res = xp.delay_study(blowup_cfg(**NOISY), [1, 2], n_runs=2, workers=1)
        assert res.reference_time == study_012.reference_time
        assert res.levels == study_012.levels[1:]
        assert [c.noise_N for c in res.curves] == [1, 2]

    def test_workers_do_not_change_result(self, study_012, monkeypatch):
        monkeypatch.setattr(xp, "resolve_workers", lambda workers: workers)
        for workers in (2, 3):  # the caller and a pool of 1, then of 2
            res = xp.delay_study(blowup_cfg(**NOISY), [0, 1, 2], n_runs=2, workers=workers)
            assert res.reference_time == study_012.reference_time
            assert res.levels == study_012.levels
            assert [curve_fields(c) for c in res.curves] == [
                curve_fields(c) for c in study_012.curves]

    def test_curves_match_ensemble_survival(self, study_012):
        for N, curve in zip([0, 1, 2], study_012.curves):
            want = xp.ensemble_survival(dyn.with_noise_level(blowup_cfg(**NOISY), N), 2,
                                        workers=1)
            assert curve_fields(curve) == curve_fields(want)
            assert curve.blowup_times == study_012.levels[N].blowup_times

    def test_one_pool_per_study(self, monkeypatch):
        # level 0 is not requested, so its reference runs join the same job list
        # experiments imports the pool class where it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(xp, "resolve_workers", lambda workers: 2)
        CountingPool.started = 0
        res = xp.delay_study(blowup_cfg(**NOISY), [1, 2], n_runs=2, workers=2)
        assert CountingPool.started == 1
        assert [lv.noise_N for lv in res.levels] == [1, 2]

    def test_caller_steps_every_wth_job(self, monkeypatch):
        # 2 workers are the caller and one forked process: the caller steps jobs
        # 0 and 2 of the largest-first list, the pool jobs 1 and 3
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(xp, "resolve_workers", lambda workers: workers)
        CountingPool.started, CountingPool.sizes = 0, []
        calls = record_caller_jobs(monkeypatch)
        res = xp.delay_study(replace(DELAY_ENSEMBLE, dt=1e-3), [0, 2, 4], n_runs=2, workers=2)
        assert CountingPool.sizes == [1]
        assert calls == [([2, 4], 0), ([0], 0)]
        assert all(t is not None for lv in res.levels for t in lv.blowup_times)

    def test_raise_in_callers_share_leaves_no_child(self, monkeypatch):
        # the pool's 5 jobs take longer than the caller's raise: it propagates, the
        # jobs not yet started are dropped, and the one worker is joined
        monkeypatch.setattr(xp, "resolve_workers", lambda workers: workers)
        assert multiprocessing.active_children() == []
        ran = multiprocessing.Value("i", 0)  # shared with the forked worker
        one = xp.dyn.integrate

        def counted(cfg, run_index):
            with ran.get_lock():
                ran.value += 1
            return one(cfg, run_index=run_index)

        monkeypatch.setattr(xp.dyn, "integrate", counted)
        record_caller_jobs(monkeypatch, fail=True)
        cfg = dyn.with_noise_level(blowup_cfg(**NOISY), 2)
        with pytest.raises(RuntimeError, match="caller's share"):
            xp.ensemble_survival(cfg, n_runs=10, workers=2)
        assert multiprocessing.active_children() == []
        assert ran.value < 1 + 5  # the caller's first job and fewer than the pool's 5

    def test_noise_levels_of_a_run_are_one_batch(self, monkeypatch):
        # levels 1 and 2 share the grid (R = 7): run k of both is one job; the
        # reference (noise off) and a single-config ensemble run alone
        batches, alone = [], []  # integrate is integrate_batch of one config
        batch, one = xp.dyn.integrate_batch, xp.dyn.integrate
        monkeypatch.setattr(xp.dyn, "integrate_batch", lambda cfgs, k: batches.append(
            ([c.noise_N for c in cfgs], k)) or batch(cfgs, k))
        monkeypatch.setattr(xp.dyn, "integrate", lambda cfg, run_index: alone.append(
            (cfg.noise_N, run_index)) or one(cfg, run_index=run_index))
        xp.delay_study(blowup_cfg(**NOISY), [1, 0, 2], n_runs=2, workers=1)
        assert batches == [([1, 2], 0), ([1, 2], 1), ([0], 0), ([0], 1)]
        assert alone == [(0, 0), (0, 1)]
        batches.clear()
        alone.clear()
        xp.ensemble_survival(dyn.with_noise_level(blowup_cfg(**NOISY), 2), 2, workers=1)
        assert alone == [(2, 0), (2, 1)]

    def test_io_import_leaves_the_process_pool_unloaded(self):
        # every `fracspde simulate` imports io, which imports experiments; only a
        # pool of two or more workers needs concurrent.futures.process
        src = str(Path(xp.__file__).resolve().parents[1])
        code = "import sys, fracspde.io; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                 [src, os.environ.get("PYTHONPATH", "")])})
        assert out.stdout.strip() == "False"

    def test_delay_ensemble_study_independent_of_workers(self, monkeypatch):
        # the benchmark's study: 2 or 3 workers and no pool give the same blow-up
        # times, so the batches do not depend on scheduling
        cfg = DELAY_ENSEMBLE
        serial = xp.delay_study(cfg, [0, 2, 4], n_runs=2, workers=1)
        monkeypatch.setattr(xp, "resolve_workers", lambda workers: workers)
        for workers in (2, 3):  # the caller and a pool of 1, then of 2
            pooled = xp.delay_study(cfg, [0, 2, 4], n_runs=2, workers=workers)
            assert pooled.levels == serial.levels
            assert [curve_fields(c) for c in pooled.curves] == [
                curve_fields(c) for c in serial.curves]
        alone = [dyn.integrate(dyn.with_noise_level(cfg, N), k).blowup_time
                 for N in (0, 2, 4) for k in range(2)]
        assert [t for lv in serial.levels for t in lv.blowup_times] == alone

    def test_duplicate_levels_rejected_before_any_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a trajectory ran")

        monkeypatch.setattr(xp.dyn, "integrate", no_run)
        with pytest.raises(InvalidParameterError, match="distinct"):
            xp.delay_study(blowup_cfg(**NOISY), [2, 2], n_runs=2, workers=1)

    def test_cli_survival_matches_rebuild_from_levels(self, tmp_path, capsys):
        # the table `fracspde delay-study` wrote when it rebuilt each curve from
        # the level's blow-up times
        from fracspde import cli
        from fracspde import io as io_mod

        cfg = blowup_cfg(**NOISY)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.canonical_dict()))
        assert cli.main(["--out", str(tmp_path / "cli"), "--threads", "2", "delay-study",
                         "--config", str(cfg_path), "--levels", "0,1,2", "--runs", "2"]) == 0
        capsys.readouterr()
        res = xp.delay_study(cfg, [0, 1, 2], n_runs=2, workers=1)
        grid = np.arange(cfg.n_steps + 1) * cfg.dt
        rebuilt = [
            xp.SurvivalCurve(
                noise_N=lv.noise_N, b=lv.b, A=lv.A, times=grid,
                fraction=xp.survival_from_times(grid, lv.blowup_times),
                n_runs=res.n_runs, blowup_times=lv.blowup_times, base_seed=cfg.seed,
            )
            for lv in res.levels
        ]
        want = io_mod.write_survival(rebuilt, tmp_path / "rebuilt", cfg.config_hash(), cfg.seed)
        got = next((tmp_path / "cli").rglob("survival.csv"))
        assert got.read_bytes() == want["survival"].read_bytes()

    def test_level_zero_reproduces_deterministic_time(self):
        cfg = blowup_cfg()
        det = dyn.integrate(dyn.with_noise_level(cfg, 0))
        res = xp.delay_study(cfg, [0], n_runs=3, workers=1)
        assert res.levels[0].median_blowup == det.blowup_time
        assert res.reference_time == det.blowup_time
        assert res.levels[0].b == 0.0

    def test_ratio_column_decreasing(self):
        cfg = blowup_cfg(init={"mean": 1.3, "delta0": 0.5}, b=1.0, t_end=3.0)
        res = xp.delay_study(cfg, [0, 1, 2], n_runs=2, workers=2)
        ratios = [lv.linf_l2_ratio for lv in res.levels]
        assert ratios[0] is None
        assert ratios[1] > ratios[2]

    def test_empty_levels_rejected(self):
        with pytest.raises(InvalidParameterError):
            xp.delay_study(blowup_cfg(), [], 2)

    def test_subcritical_mean_rejected(self):
        cfg = blowup_cfg(init={"mean": 0.5, "delta0": 0.1})
        with pytest.raises(InvalidParameterError):
            xp.delay_study(cfg, [0, 1], 2)


class TestDecayRateFit:
    def test_heat_mode_rate(self):
        cfg = dyn.SimConfig(
            d=2, M=1, s=1.0, beta=1.0, b=0.0, S=100.0, dt=1e-5, t_end=0.05,
            zeta="none", init={"coeffs": [{"k": [1, 0], "re": 1.0}]}, seed=1,
        )
        K, lam, res = decay_rate_fit(dyn.integrate(cfg))
        assert lam == pytest.approx(4 * math.pi**2, rel=1e-3)
        assert K == pytest.approx(1.0, rel=1e-3)
        assert res < 1e-6

    def test_constant_trajectory(self):
        cfg = dyn.SimConfig(
            d=2, M=1, s=1.0, beta=1.0, b=0.0, S=100.0, dt=1e-3, t_end=0.1,
            zeta="none", init={"coeffs": [{"k": [0, 0], "re": 2.0}]}, seed=1,
        )
        K, lam, res = decay_rate_fit(dyn.integrate(cfg))
        assert abs(lam) < 1e-10
        assert K == pytest.approx(1.0)

    def test_fractional_mode_fit_is_an_envelope(self):
        cfg = dyn.SimConfig(
            d=2, M=1, s=1.0, beta=0.8, b=0.0, S=100.0, dt=1e-4, t_end=0.3,
            zeta="none", init={"coeffs": [{"k": [1, 0], "re": 1.0}]}, seed=1,
        )
        K, lam, res = decay_rate_fit(dyn.integrate(cfg))
        # Mittag-Leffler decay is not exponential: residual must be visible
        assert lam > 0
        assert res > 1e-3

    def test_blowup_rejected(self):
        with pytest.raises(InvalidInputError):
            decay_rate_fit(dyn.integrate(blowup_cfg()))


class TestProbeHypothesis:
    def test_fisher_proved_exponents_bounded(self):
        rng = np.random.default_rng(21)
        rep = xp.probe_hypothesis("fisher", xp.GROWTH_EXPONENTS["fisher"], 120, rng)
        assert rep.violations == 0
        assert rep.skipped_pairs == 0
        for st in rep.conditions.values():
            assert math.isfinite(st.max_ratio)
            # bounded across the amplitude decade: no 10x growth
            assert st.growth_factor <= 10.0

    def test_keller_segel_proved_exponents_bounded(self):
        rng = np.random.default_rng(22)
        rep = xp.probe_hypothesis("keller_segel", xp.GROWTH_EXPONENTS["keller_segel"], 120, rng)
        assert rep.violations == 0
        for st in rep.conditions.values():
            assert math.isfinite(st.max_ratio)
            assert st.growth_factor <= 10.0

    def test_negative_control_grows(self):
        rng = np.random.default_rng(23)
        wrong = dict(xp.GROWTH_EXPONENTS["fisher"], a1=0.0)
        rep = xp.probe_hypothesis("fisher", wrong, 120, rng)
        assert rep.conditions["i"].growth_factor > 10.0

    def test_coincident_pairs_skipped_not_divided(self, monkeypatch):
        # force u == v: condition (iii) pairs must be skipped and counted
        from fracspde import spectral as sp

        frozen = sp.constant(3, 4, 0.5)
        monkeypatch.setattr(
            xp.sp, "random_field", lambda rng, d, M, decay, amp, mean=0.0: frozen
        )
        rep = xp.probe_hypothesis(
            "fisher", xp.GROWTH_EXPONENTS["fisher"], 5, np.random.default_rng(0)
        )
        assert rep.skipped_pairs == 5
        assert math.isnan(rep.conditions["iii"].max_ratio)

    def test_rejects_none_zeta(self):
        with pytest.raises(InvalidParameterError):
            xp.probe_hypothesis("none", xp.GROWTH_EXPONENTS["fisher"], 10, np.random.default_rng(0))

    def test_missing_exponent_rejected(self):
        with pytest.raises(InvalidParameterError):
            xp.probe_hypothesis("fisher", {"a1": 1.0}, 10, np.random.default_rng(0))


class TestFisherMeanDichotomy:
    def test_classical_logistic_blowup(self):
        table = xp.fisher_mean_dichotomy(1.0, [2.0], 1e-5, 2.0)
        row = table[2.0]
        assert row["blew_up"]
        assert row["blowup_time"] == pytest.approx(math.log(2.0), rel=0.02)

    def test_fixed_point_at_one(self):
        table = xp.fisher_mean_dichotomy(0.7, [1.0], 1e-3, 5.0)
        row = table[1.0]
        assert not row["blew_up"]
        assert row["min_value"] == 1.0 and row["max_value"] == 1.0

    def test_subcritical_bounded_decreasing(self):
        table = xp.fisher_mean_dichotomy(0.7, [0.5], 1e-3, 5.0)
        row = table[0.5]
        assert not row["blew_up"]
        assert 0.0 < row["min_value"] and row["max_value"] < 1.0
        assert row["final_value"] < 0.5

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidParameterError):
            xp.fisher_mean_dichotomy(0.8, [], 1e-3, 1.0)


class TestWorkers:
    """resolve_workers is checked directly; no test here starts a pool."""

    @pytest.fixture
    def cores(self, monkeypatch):
        def set_cores(n):
            monkeypatch.setattr(xp.os, "sched_getaffinity", lambda pid: set(range(n)))
        return set_cores

    def test_env_honored(self, monkeypatch, cores):
        cores(8)
        monkeypatch.setenv("FRACSPDE_THREADS", "3")
        assert xp.resolve_workers(None) == 3
        assert xp.resolve_workers(2) == 2

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("FRACSPDE_THREADS", raising=False)
        assert xp.resolve_workers(None) >= 1

    def test_capped_at_usable_cores(self, monkeypatch, cores):
        cores(2)
        monkeypatch.setenv("FRACSPDE_THREADS", "5000")
        assert xp.resolve_workers(None) == 2
        assert xp.resolve_workers(5000) == 2
        monkeypatch.delenv("FRACSPDE_THREADS")
        assert xp.resolve_workers(None) == 2

    @pytest.mark.parametrize("value", ["two", "1.5", "4x"])
    def test_non_integer_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("FRACSPDE_THREADS", value)
        with pytest.raises(InvalidParameterError, match="FRACSPDE_THREADS"):
            xp.resolve_workers(None)

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("FRACSPDE_THREADS", value)
        with pytest.raises(InvalidParameterError, match="FRACSPDE_THREADS"):
            xp.resolve_workers(None)

import json
import math

import numpy as np
import pytest

from fracspde import cli
from fracspde import dynamics as dyn
from fracspde import io as io_mod
from fracspde.errors import InvalidParameterError

MINIMAL = {
    "d": 2, "M": 8, "s": 1, "beta": 0.8, "b": 1, "S": 10,
    "dt": 1e-3, "t_end": 1, "zeta": "fisher", "noise_N": 2, "seed": 7,
    "init": {"mean": 1.2, "delta0": 0.01},
}


def write_config(tmp_path, overrides=None, drop=None):
    raw = dict(MINIMAL)
    if overrides:
        raw.update(overrides)
    for key in drop or []:
        raw.pop(key)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestParseConfig:
    def test_minimal_config_valid(self, tmp_path):
        cfg = io_mod.parse_config(write_config(tmp_path))
        assert cfg.d == 2 and cfg.M == 8 and cfg.beta == 0.8
        assert cfg.gamma == 0.1  # default
        assert cfg.blowup_threshold == 1e6
        assert cfg.snapshot_stride == 0

    def test_beta_noise_constraint_surfaced(self, tmp_path):
        path = write_config(tmp_path, {"beta": 0.4})
        with pytest.raises(InvalidParameterError, match="1/2"):
            io_mod.parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, {"foo": 1})
        with pytest.raises(InvalidParameterError, match="foo"):
            io_mod.parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        body = json.dumps(MINIMAL)[:-1] + ', "d": 3}'
        path.write_text(body)
        with pytest.raises(InvalidParameterError, match="duplicate"):
            io_mod.parse_config(path)

    def test_missing_key_named(self, tmp_path):
        path = write_config(tmp_path, drop=["zeta"])
        with pytest.raises(InvalidParameterError, match="zeta"):
            io_mod.parse_config(path)

    def test_hash_insensitive_to_order_and_whitespace(self, tmp_path):
        a = io_mod.parse_config(write_config(tmp_path))
        shuffled = {k: MINIMAL[k] for k in reversed(list(MINIMAL))}
        p2 = tmp_path / "c2.json"
        p2.write_text(json.dumps(shuffled, indent=4))
        b = io_mod.parse_config(p2)
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize("key, value, named", [
        ("b", math.nan, "b must be finite"),
        ("S", math.nan, "S must be finite"),
        ("gamma", math.nan, "gamma must be finite"),
        ("s", math.inf, "s must be finite"),
        ("blowup_threshold", math.nan, "blowup_threshold must be finite"),
        ("init", {"mean": 1.2, "delta0": math.nan}, "init must hold finite numbers"),
        ("dt", math.nan, "dt must be finite"),
        ("t_end", math.inf, "t_end must be finite"),
        ("M", 4.7, "'M' must be an integer"),
        ("snapshot_stride", 0.5, "'snapshot_stride' must be an integer"),
        ("s", 10**400, "'s': int too large"),
        ("init", {"mean": 10**400, "delta0": 0.1}, "init must hold numbers that fit a float"),
        ("init", {"coeffs": [{"k": [1, 0], "re": 10**400}]},
         "init must hold numbers that fit a float"),
        ("init", {"amplitude": 0.5, "decay": 10**400}, "init must hold numbers that fit a float"),
    ], ids=["b", "S", "gamma", "s", "blowup_threshold", "init-delta0", "dt", "t_end", "M",
            "snapshot_stride", "s-beyond-float", "init-mean-beyond-float",
            "init-coeff-beyond-float", "init-decay-beyond-float"])
    def test_unrunnable_value_refused(self, tmp_path, key, value, named):
        # the file holds NaN or Infinity, which json reads; neither can run, nor
        # can a fraction for an int key or an integer beyond the float range
        path = write_config(tmp_path, {key: value})
        with pytest.raises(InvalidParameterError, match=named):
            io_mod.parse_config(path)

    def test_hash_pinned(self):
        # run directories are keyed by this hash, so it must not drift
        raw = {
            "d": 2, "M": 8, "s": 1.0, "beta": 0.9, "b": 0.5, "S": 10.0,
            "dt": 2.5e-5, "t_end": 0.05, "zeta": "fisher", "noise_N": 2,
            "init": {"mean": 0.5, "delta0": 0.01}, "seed": 1,
        }
        assert io_mod.parse_config_dict(raw).config_hash() == "21db0b978f866c3e"


def small_record(seed=1, stride=0):
    cfg = dyn.SimConfig(
        d=2, M=2, s=1.0, beta=1.0, b=0.5, S=100.0, dt=1e-3, t_end=0.01,
        zeta="fisher", init={"mean": 0.4, "delta0": 0.01}, seed=seed,
        noise_N=1, snapshot_stride=stride,
    )
    return cfg, dyn.integrate(cfg)


class TestWriteOutputs:
    def test_trajectory_files(self, tmp_path):
        cfg, rec = small_record(stride=5)
        paths = io_mod.write_trajectory(rec, cfg, tmp_path)
        assert paths["trajectory"].name == "trajectory.csv"
        header = paths["trajectory"].read_text().splitlines()[0]
        assert header == "step,time,l2,hs,hneg_gamma,mean,cutoff"
        summary = json.loads(paths["summary"].read_text())
        assert summary["blew_up"] is False
        assert summary["config_hash"] == rec.config_hash
        assert set(summary["final_norms"]) == {"l2", "hs", "hneg_gamma", "mean"}
        assert (paths["trajectory"].parent / "manifest.json").exists()
        assert any(k.startswith("snapshot_") for k in paths)

    def test_rerun_byte_identical(self, tmp_path):
        cfg, rec = small_record()
        p1 = io_mod.write_trajectory(rec, cfg, tmp_path)
        blob1 = p1["trajectory"].read_bytes(), p1["summary"].read_bytes()
        cfg2, rec2 = small_record()
        p2 = io_mod.write_trajectory(rec2, cfg2, tmp_path)
        blob2 = p2["trajectory"].read_bytes(), p2["summary"].read_bytes()
        assert blob1 == blob2
        assert p1["trajectory"] == p2["trajectory"]  # same hash directory

    def test_hash_prefix_in_path(self, tmp_path):
        cfg, rec = small_record()
        paths = io_mod.write_trajectory(rec, cfg, tmp_path)
        assert rec.config_hash[:12] in str(paths["trajectory"])

    def test_survival_header(self, tmp_path):
        from fracspde import experiments as xp

        cfg, _ = small_record()
        curves = [xp.ensemble_survival(cfg, 2, workers=1)]
        paths = io_mod.write_survival(curves, tmp_path, cfg.config_hash(), cfg.seed)
        header = paths["survival"].read_text().splitlines()[0]
        assert header == "time,level_1"

    def test_survival_columns_match_row_writer(self, tmp_path):
        from _reference import survival_csv

        from fracspde import experiments as xp

        grid = np.arange(2001) * 1e-3
        curves = [
            xp.SurvivalCurve(noise_N=n, b=1.0, A=0.5, times=grid[: len(grid) - cut],
                             fraction=xp.survival_from_times(grid[: len(grid) - cut], bts),
                             n_runs=len(bts), blowup_times=bts, base_seed=3)
            for n, cut, bts in [(0, 0, [0.25, 1.0 / 3.0, None]),
                                (2, 0, [0.7, None, 1.2]),
                                (4, 900, [0.5, 0.5, 0.123456789])]
        ]
        paths = io_mod.write_survival(curves, tmp_path, "c" * 16, 3)
        got, want = paths["survival"].read_text(), survival_csv(curves)
        # compare as a bool: pytest's diff of two 2000-line texts takes minutes
        same = got == want
        assert same, next(((g, w) for g, w in zip(got.splitlines(), want.splitlines())
                           if g != w), "line count or final newline differs")

    @pytest.mark.parametrize("mean,threshold", [(0.4, 1e6), (1.5, 3.0)])
    def test_trajectory_rows_match_cell_writer(self, tmp_path, mean, threshold):
        from _reference import trajectory_csv

        cfg = dyn.SimConfig(
            d=2, M=2, s=1.0, beta=0.9, b=0.5, S=100.0, dt=1e-3, t_end=2.0,
            zeta="fisher", init={"mean": mean, "delta0": 0.01}, seed=4, noise_N=1,
            blowup_threshold=threshold,
        )
        rec = dyn.integrate(cfg)
        # full length, or cut short by blow-up
        assert rec.blew_up == (threshold < 1e6)
        assert (len(rec.times) < cfg.n_steps + 1) == rec.blew_up
        got = io_mod.write_trajectory(rec, cfg, tmp_path)["trajectory"].read_bytes()
        same = got == trajectory_csv(rec).encode()
        assert same

    def test_probe_json_echoes_exponents(self, tmp_path):
        from fracspde import experiments as xp

        rep = xp.probe_hypothesis(
            "fisher", xp.GROWTH_EXPONENTS["fisher"], 10, np.random.default_rng(0)
        )
        paths = io_mod.write_probe(rep, tmp_path, "probe_fisher", 0)
        payload = json.loads(paths["probe"].read_text())
        assert payload["exponents"] == xp.GROWTH_EXPONENTS["fisher"]
        assert payload["violations"] == 0

    def test_scalar_trajectory_files(self, tmp_path):
        from fracspde.fractional import solve_caputo_scalar_ode

        traj = solve_caputo_scalar_ode(lambda x: -x, 1.0, 1.0, 0.1, 1.0)
        paths = io_mod.write_scalar_trajectory(traj, tmp_path, "odetest")
        lines = paths["csv"].read_text().splitlines()
        assert lines[0] == "time,value"
        assert len(lines) == len(traj.times) + 1
        summary = json.loads(paths["summary"].read_text())
        assert summary == {"blew_up": False, "blowup_time": None}


class TestCli:
    def test_ml_subcommand(self, capsys):
        assert cli.main(["ml", "1", "1", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(math.e, abs=1e-12)

    def test_ode_subcommand(self, tmp_path, capsys):
        rc = cli.main([
            "--out", str(tmp_path), "ode", "--beta", "1.0", "--x0", "2.0",
            "--dt", "1e-4", "--t-end", "2.0", "--rhs", "fisher",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert payload["blew_up"] is True
        assert payload["blowup_time"] == pytest.approx(math.log(2.0), rel=0.05)

    def test_ode_linear_rhs(self, tmp_path, capsys):
        rc = cli.main([
            "--out", str(tmp_path), "ode", "--beta", "0.8", "--x0", "1.0",
            "--dt", "1e-3", "--t-end", "0.5", "--rhs", "linear:-2.0",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert payload["blew_up"] is False

    def test_noise_audit(self, capsys):
        assert cli.main(["noise-audit", "--N", "2", "--d", "3", "--b", "4.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_modes"] == 124
        mat = np.array(payload["isotropy_matrix"])
        assert np.allclose(mat, payload["isotropy_target"] * np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("d", [1, 4])
    def test_noise_audit_dimension_exit_code(self, d, capsys):
        assert cli.main(["noise-audit", "--N", "1", "--d", str(d)]) == 2
        assert f"dimension d must be 2 or 3, got {d}" in capsys.readouterr().err

    def test_dichotomy(self, capsys):
        rc = cli.main(["dichotomy", "--beta", "1.0", "--x0", "0.5,2.0",
                       "--dt", "1e-3", "--t-end", "3.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["0.5"]["blew_up"] is False
        assert payload["2.0"]["blew_up"] is True

    def test_simulate_roundtrip(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            {"M": 2, "beta": 1.0, "dt": 1e-3, "t_end": 0.01, "noise_N": 1,
             "init": {"mean": 0.4, "delta0": 0.01}},
        )
        rc = cli.main(["--out", str(tmp_path / "out"), "simulate", "--config", str(cfg_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blew_up"] is False
        assert (tmp_path / "out").exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"beta": 0.3})
        rc = cli.main(["simulate", "--config", str(cfg_path)])
        assert rc == 2
        assert "1/2" in capsys.readouterr().err

    def test_non_finite_config_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"t_end": math.inf})
        rc = cli.main(["--out", str(tmp_path / "o"), "simulate", "--config", str(cfg_path)])
        assert rc == 2
        assert "t_end must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_init_beyond_float_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"init": {"mean": 10**400, "delta0": 0.1}})
        rc = cli.main(["--out", str(tmp_path / "o"), "simulate", "--config", str(cfg_path)])
        assert rc == 2
        assert "fit a float" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_snapshot_footprint_exit_code(self, tmp_path, capsys, monkeypatch):
        # 11 snapshots of 5^2 x 16 B = 4400 B against one 4096 B page of memory
        sysconf = dyn.os.sysconf
        monkeypatch.setattr(dyn.os, "sysconf",
                            lambda name: 1 if name == "SC_PHYS_PAGES" else sysconf(name))
        cfg_path = write_config(tmp_path, {"M": 2, "beta": 1.0, "t_end": 0.01,
                                           "snapshot_stride": 1})
        rc = cli.main(["--out", str(tmp_path / "out"), "simulate", "--config", str(cfg_path)])
        assert rc == 2
        assert "snapshot_stride = 1" in capsys.readouterr().err

    def test_non_integer_threads_env_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FRACSPDE_THREADS", "two")
        cfg_path = write_config(tmp_path, {"beta": 1.0})
        rc = cli.main(["--out", str(tmp_path / "o"), "ensemble", "--config", str(cfg_path),
                       "--runs", "2"])
        assert rc == 2
        assert "FRACSPDE_THREADS" in capsys.readouterr().err

    def test_ensemble_subcommand(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            {"M": 2, "beta": 1.0, "dt": 1e-3, "t_end": 1.0, "noise_N": 1,
             "S": 1e7, "blowup_threshold": 1e3,
             "init": {"mean": 1.4, "delta0": 0.2}},
        )
        rc = cli.main(["--out", str(tmp_path / "o"), "--threads", "2",
                       "ensemble", "--config", str(cfg_path), "--runs", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == 4
        surv = next((tmp_path / "o").rglob("survival.csv"))
        assert surv.read_text().splitlines()[0] == "time,level_1"

    def test_delay_study_subcommand(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            {"M": 2, "beta": 1.0, "dt": 1e-3, "t_end": 2.0, "noise_N": 0,
             "S": 1e7, "blowup_threshold": 1e3,
             "init": {"mean": 1.4, "delta0": 0.2}},
        )
        rc = cli.main(["--out", str(tmp_path / "o"), "--threads", "2",
                       "delay-study", "--config", str(cfg_path),
                       "--levels", "0,1", "--runs", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["medians"]) == {"0", "1"}
        delay = json.loads(next((tmp_path / "o").rglob("delay.json")).read_text())
        assert [lv["noise_N"] for lv in delay["levels"]] == [0, 1]
        assert delay["levels"][0]["b"] == 0.0
        assert next((tmp_path / "o").rglob("plot_results.py")).exists()
        surv = next((tmp_path / "o").rglob("survival.csv"))
        assert surv.read_text().splitlines()[0] == "time,level_0,level_1"
        manifest = json.loads((surv.parent / "manifest.json").read_text())
        assert manifest["outputs"] == ["delay.json", "plot_results.py", "survival.csv"]

    @pytest.mark.parametrize("argv, named", [
        (["delay-study", "--config", "CFG", "--levels", "0,a", "--runs", "2"], "--levels"),
        (["delay-study", "--config", "CFG", "--levels", "0,2,2", "--runs", "2"], "distinct"),
        (["dichotomy", "--beta", "1.0", "--x0", "0.5,two"], "--x0"),
        (["probe", "--zeta", "fisher", "--exponents", "1,0.5,1.5,1.5,1,1,e"], "--exponents"),
        (["probe", "--zeta", "fisher", "--exponents", "1,0.5,1.5,1.5,1,1,1,1"], "7 values"),
        (["ode", "--beta", "1.0", "--x0", "1.0", "--dt", "1e-3", "--t-end", "0.1",
          "--rhs", "linear:fast"], "--rhs"),
    ], ids=["levels", "duplicate-levels", "x0", "exponents", "exponent-count", "rhs"])
    def test_bad_list_input_exit_code(self, tmp_path, capsys, argv, named):
        cfg_path = str(write_config(tmp_path, {"beta": 1.0, "noise_N": 0}))
        argv = [cfg_path if a == "CFG" else a for a in argv]
        try:
            rc = cli.main(["--out", str(tmp_path / "o"), *argv])
        except SystemExit as exc:  # refused by the argument parser
            rc = exc.code
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_probe_subcommand(self, tmp_path, capsys):
        rc = cli.main(["--out", str(tmp_path / "o"), "--seed", "4",
                       "probe", "--zeta", "ks", "--samples", "10"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["zeta"] == "keller_segel"
        assert payload["violations"] == 0
        probe = json.loads(next((tmp_path / "o").rglob("probe.json")).read_text())
        assert probe["exponents"]["g1"] == 0.25

    def test_seed_override(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            {"M": 2, "beta": 1.0, "dt": 1e-3, "t_end": 0.01, "noise_N": 1,
             "init": {"mean": 0.4, "delta0": 0.01}},
        )
        out = tmp_path / "out"
        cli.main(["--out", str(out), "--seed", "99", "simulate", "--config", str(cfg_path)])
        h1 = json.loads(capsys.readouterr().out)["config_hash"]
        cli.main(["--out", str(out), "simulate", "--config", str(cfg_path)])
        h2 = json.loads(capsys.readouterr().out)["config_hash"]
        assert h1 != h2

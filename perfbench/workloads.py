"""The three benchmark workloads: their configs, how they run and how they are checked.

Each workload is built from the seed given on the command line; the package
only ever sees the resulting config dicts, exactly as `fracspde` would read
them from a JSON file.

- delay_ensemble: a cut-down criterion-7 delay study (the paper's headline
  experiment), 2 runs per level; paired seeds keep the level ordering at
  that size (checked on 20 seeds, N2 to N4 never closer than 5 steps).
  9x9 blocks, so numpy call overhead, the grid pass, the
  gather-table transport, the keyed Philox draw and the per-level process
  pools dominate; beta = 1, so the Volterra history is never used.
- fractional_simulate: `fracspde simulate` on the noisy fractional regime
  (beta = 0.9, N = 2, 2000 steps) at settings that stay bounded.  The O(n^2)
  history convolution takes about half of the time and its 9 MB array sets
  the memory peak; a longer run would grow both, but its reads of the whole
  history every step make it sensitive to other tenants' cache and memory
  traffic.  b = 0.5, not 1: at b = 1, N = 2 this path blows up spuriously.
- transport_3d: one 3-D Keller-Segel trajectory at N = 4, 40 steps.  TransportPlan.apply
  dominates the steps and its tables dominate set-up and memory; it is the
  only workload on the Keller-Segel branch of the grid pass and on 3-D FFTs.

Each repetition takes seconds, not tens of seconds, so that a run of
--seconds holds several and reports their median.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from fracspde import dynamics, experiments, io

DELAY_LEVELS = (0, 2, 4)
DELAY_RUNS = 2

# Fixed seed of the reference probe whose fingerprint is recorded in
# reference.json; any seed works as long as the recording used the same one.
PROBE_SEED = 2026
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def config(name: str, seed: int) -> dict:
    """Raw config dict of one workload, as `fracspde` reads it from JSON."""
    if name == "delay_ensemble":
        return {
            "d": 2, "M": 4, "s": 1.0, "beta": 1.0, "b": 2.0, "S": 1.0e7,
            "dt": 1.0e-4, "t_end": 2.0, "zeta": "fisher",
            "init": {"mean": 2.0, "delta0": 2.0}, "seed": seed,
            "blowup_threshold": 1.0e6,
        }
    if name == "fractional_simulate":
        return {
            "d": 2, "M": 8, "s": 1.0, "beta": 0.9, "b": 0.5, "S": 10.0,
            "dt": 2.5e-5, "t_end": 0.05, "zeta": "fisher", "noise_N": 2,
            "init": {"mean": 0.5, "delta0": 0.01}, "seed": seed,
        }
    if name == "transport_3d":
        return {
            "d": 3, "M": 8, "s": 1.0, "beta": 1.0, "b": 1.0, "S": 10.0,
            "dt": 5.0e-5, "t_end": 2.0e-3, "zeta": "keller_segel", "noise_N": 4,
            "init": {"mean": 1.0, "delta0": 0.05}, "seed": seed,
        }
    raise ValueError(f"unknown workload {name!r}")


def probe_config(name: str) -> dict:
    """Shortened fixed-seed variant whose result is compared with reference.json."""
    raw = config(name, PROBE_SEED)
    if name == "fractional_simulate":
        raw["t_end"] = 500 * raw["dt"]
    elif name == "transport_3d":
        raw["t_end"] = 10 * raw["dt"]
    return raw


def one_step_configs(name: str, seed: int) -> list:
    """The configs a set-up probe integrates for one step each."""
    raw = dict(config(name, seed), t_end=config(name, seed)["dt"])
    if name != "delay_ensemble":
        return [raw]
    return [dict(raw, noise_N=n, b=0.0 if n == 0 else raw["b"]) for n in DELAY_LEVELS]


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _steps(blowup_time, dt: float, n_steps: int) -> int:
    return n_steps if blowup_time is None else int(round(blowup_time / dt))


def run(name: str, raw: dict, out_dir: Path, workers: int) -> dict:
    """Run one workload once; return its counts, fingerprint and output digest.

    Every call into the package goes through a module attribute, so the
    traced pass can wrap it.
    """
    if name == "delay_ensemble":
        return _run_delay(raw, out_dir, workers, DELAY_RUNS)
    cfg = io.parse_config_dict(raw)
    rec = dynamics.integrate(cfg)
    paths = io.write_trajectory(rec, cfg, out_dir)
    digest = _digest([paths["trajectory"], paths["summary"]])
    return {
        "steps": len(rec.times) - 1,
        "trajectories": 1,
        "fingerprint": rec.final_norms(),
        "digest": digest,
        "checks": _trajectory_checks(name, rec),
    }


def _run_delay(raw: dict, out_dir: Path, workers: int, n_runs: int) -> dict:
    cfg = io.parse_config_dict(raw)
    result = experiments.delay_study(cfg, DELAY_LEVELS, n_runs, workers=workers)
    # the survival table `fracspde delay-study` writes next to delay.json
    grid = np.arange(cfg.n_steps + 1) * cfg.dt
    curves = [
        experiments.SurvivalCurve(
            noise_N=lv.noise_N, b=lv.b, A=lv.A, times=grid,
            fraction=experiments.survival_from_times(grid, lv.blowup_times),
            n_runs=result.n_runs, blowup_times=lv.blowup_times, base_seed=cfg.seed,
        )
        for lv in result.levels
    ]
    surv = io.write_survival(curves, out_dir, cfg.config_hash(), cfg.seed)
    paths = io.write_delay_study(result, out_dir, cfg.config_hash())
    meds = [lv.median_blowup for lv in result.levels]
    level0 = result.levels[DELAY_LEVELS.index(0)]
    return {
        "steps": sum(
            _steps(t, cfg.dt, cfg.n_steps) for lv in result.levels for t in lv.blowup_times
        ),
        "trajectories": n_runs * len(result.levels),
        "fingerprint": {f"median_N{lv.noise_N}": lv.median_blowup for lv in result.levels},
        "blown_up": {
            f"N{lv.noise_N}": sum(t is not None for t in lv.blowup_times)
            for lv in result.levels
        },
        "digest": _digest([surv["survival"], paths["delay"]]),
        "checks": {
            "level0_all_blow_up": all(t is not None for t in level0.blowup_times),
            "medians_strictly_increase": all(math.isfinite(m) for m in meds)
            and all(a < b for a, b in zip(meds, meds[1:])),
        },
    }


def _trajectory_checks(name: str, rec) -> dict:
    if name == "fractional_simulate":
        return {
            "no_blow_up": not rec.blew_up,
            "mean_in_0_1": bool(np.all((rec.mean > 0.0) & (rec.mean < 1.0))),
        }
    return {
        "no_blow_up": not rec.blew_up,
        "mean_drift_exactly_0": float(np.max(np.abs(rec.mean - rec.mean[0]))) == 0.0,
    }


def run_probe(name: str, out_dir: Path) -> dict:
    """Fingerprint of the fixed-seed probe (serial, shortened, not timed)."""
    raw = probe_config(name)
    if name == "delay_ensemble":
        return _run_delay(raw, out_dir, 1, 1)["fingerprint"]
    return run(name, raw, out_dir, 1)["fingerprint"]


def result_dev(name: str, fingerprint: dict) -> float:
    """Largest relative deviation of a probe fingerprint from reference.json."""
    ref = json.loads(REFERENCE_FILE.read_text())[name]
    devs = []
    for key, want in ref.items():
        got = fingerprint[key]
        if want == got:
            devs.append(0.0)
        elif not (math.isfinite(want) and math.isfinite(got)):
            devs.append(math.inf)
        else:
            devs.append(abs(got - want) / max(abs(want), 1e-300))
    return max(devs)


def alloc_probe_config(name: str, seed: int):
    """Config of the single integrate whose allocations are traced (run 0)."""
    raw = config(name, seed)
    if name == "delay_ensemble":
        raw["noise_N"] = max(DELAY_LEVELS)
    return io.parse_config_dict(raw)


if __name__ == "__main__":
    # Re-record reference.json from the current sources:
    #   OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/workloads.py
    import tempfile

    from run import WORKLOADS

    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        ref = {name: run_probe(name, Path(tmp) / name) for name in WORKLOADS}
    REFERENCE_FILE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(json.dumps(ref, indent=2, sort_keys=True))

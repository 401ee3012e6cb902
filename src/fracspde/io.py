"""Config ingestion and result persistence.

JSON for configs and summaries, CSV for time series, the flat little-endian
binary layout for field snapshots.  Every run directory is keyed by the
canonical config hash, so reruns with identical inputs land on (and
byte-identically overwrite) the same files; wall-clock timestamps live only
in the manifest.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List

import numpy as np

from . import __version__
from .dynamics import CONFIG_CASTS, SimConfig, TrajectoryRecord
from .errors import InvalidParameterError
from .experiments import DelayStudyResult, HypothesisReport, SurvivalCurve
from .fractional import ScalarTrajectory
from .spectral import field_to_bytes

_CONFIG_KEYS = {f.name: CONFIG_CASTS[f.type] for f in fields(SimConfig)}
_REQUIRED_KEYS = {f.name for f in fields(SimConfig) if f.default is MISSING}


def _reject_duplicates(pairs):
    seen = {}
    for k, v in pairs:
        if k in seen:
            raise InvalidParameterError(f"duplicate key {k!r} in config")
        seen[k] = v
    return seen


def parse_config_dict(raw: dict) -> SimConfig:
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise InvalidParameterError(f"unknown config key(s): {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise InvalidParameterError(f"missing config key(s): {sorted(missing)}")
    kwargs = {}
    for key, value in raw.items():
        caster = _CONFIG_KEYS[key]
        if caster is int and isinstance(value, float) and not value.is_integer():
            raise InvalidParameterError(f"config key {key!r} must be an integer, got {value}")
        try:
            kwargs[key] = caster(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameterError(f"config key {key!r}: {exc}") from exc
    return SimConfig(**kwargs)


def parse_config(path) -> SimConfig:
    """Load and fully validate a simulation config from a JSON file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise InvalidParameterError(f"{path}: config must be a JSON object")
    return parse_config_dict(raw)


def _dump_json(obj, path: Path):
    def clean(v):
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        if isinstance(v, (np.floating, np.integer)):
            v = v.item()
        if isinstance(v, float) and math.isinf(v):
            return None
        return v

    path.write_text(json.dumps(clean(obj), indent=2, sort_keys=True) + "\n")


def run_directory(out_dir, config_hash: str) -> Path:
    """Per-run directory; the hash prefix keys every output file path."""
    p = Path(out_dir) / config_hash[:12]
    p.mkdir(parents=True, exist_ok=True)
    return p


def write_manifest(
    dest: Path, config_hash: str, base_seed: int, outputs: List[str]
) -> Path:
    """manifest.json listing `outputs` and the files it already lists that still exist:
    writers share a run directory (a delay study writes survival.csv, then delay.json)."""
    path = dest / "manifest.json"
    try:
        old = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):  # none yet, or a truncated one
        old = {}
    if old.get("config_hash") == config_hash:
        outputs = {*outputs, *(n for n in old["outputs"] if (dest / n).exists())}
    manifest = {
        "config_hash": config_hash,
        "tool_version": __version__,
        "base_seed": int(base_seed),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(outputs),
    }
    _dump_json(manifest, path)
    return path


def write_trajectory(record: TrajectoryRecord, cfg: SimConfig, out_dir) -> Dict[str, Path]:
    """trajectory.csv + summary.json + snapshots + manifest under the hash dir."""
    dest = run_directory(out_dir, record.config_hash)
    cols = [record.times, record.l2, record.hs, record.hneg_gamma, record.mean, record.cutoff]
    # one %-format per row, as in write_survival
    row = "%d" + ",%.17g" * len(cols)
    rows = [row % r for r in zip(range(len(record.times)), *map(memoryview, cols))]
    traj_path = dest / "trajectory.csv"
    traj_path.write_text("\n".join(["step,time,l2,hs,hneg_gamma,mean,cutoff", *rows]) + "\n")

    summary = {
        "blew_up": record.blew_up,
        "blowup_time": record.blowup_time,
        "final_norms": record.final_norms(),
        "seed": record.seed,
        "run_index": record.run_index,
        "config_hash": record.config_hash,
        "dt": record.dt,
        "config": cfg.canonical_dict(),
    }
    summary_path = dest / "summary.json"
    _dump_json(summary, summary_path)

    paths = {"trajectory": traj_path, "summary": summary_path}
    for step, field in record.snapshots:
        p = dest / f"snapshot_{step:08d}.bin"
        p.write_bytes(field_to_bytes(field))
        paths[f"snapshot_{step}"] = p
    write_manifest(dest, record.config_hash, record.seed, [p.name for p in paths.values()])
    return paths


def write_survival(
    curves: List[SurvivalCurve], out_dir, config_hash: str, base_seed: int
) -> Dict[str, Path]:
    """survival.csv with one fraction column per noise level."""
    dest = run_directory(out_dir, config_hash)
    grid = curves[0].times
    header = "time," + ",".join(f"level_{c.noise_N}" for c in curves)
    cols = [grid]
    for c in curves:
        col = c.fraction[: len(grid)]
        if len(col) < len(grid):  # a curve shorter than the grid holds its last value
            col = np.append(col, np.full(len(grid) - len(col), col[-1]))
        cols.append(col)
    # one %-format per row keeps no per-cell strings alive; a memoryview yields
    # each cell as a Python float, made as it is read
    row = ",".join(["%.17g"] * len(cols))
    path = dest / "survival.csv"
    path.write_text("\n".join([header, *[row % r for r in zip(*map(memoryview, cols))]]) + "\n")
    write_manifest(dest, config_hash, base_seed, [path.name])
    return {"survival": path}


def write_delay_study(
    result: DelayStudyResult, out_dir, config_hash: str
) -> Dict[str, Path]:
    dest = run_directory(out_dir, config_hash)
    payload = {
        "reference_time": result.reference_time,
        "n_runs": result.n_runs,
        "base_seed": result.base_seed,
        "t_end": result.t_end,
        "levels": [
            {
                "noise_N": lv.noise_N,
                "b": lv.b,
                "A": lv.A,
                "linf_l2_ratio": lv.linf_l2_ratio,
                "median_blowup": lv.median_blowup,
                "median_censored": math.isinf(lv.median_blowup),
                "survival_at_reference": lv.survival_at_reference,
                "blowup_times": lv.blowup_times,
            }
            for lv in result.levels
        ],
    }
    path = dest / "delay.json"
    _dump_json(payload, path)
    plot = _write_plot_script(dest)
    write_manifest(dest, config_hash, result.base_seed, [path.name, plot.name])
    return {"delay": path, "plot": plot}


def write_probe(report: HypothesisReport, out_dir, tag: str, base_seed: int) -> Dict[str, Path]:
    dest = run_directory(out_dir, tag)
    payload = {
        "zeta": report.zeta,
        "exponents": report.exponents,
        "n_samples": report.n_samples,
        "s": report.s,
        "violations": report.violations,
        "skipped_pairs": report.skipped_pairs,
        "conditions": {
            name: {
                "max_ratio": st.max_ratio,
                "median_ratio": st.median_ratio,
                "growth_factor": st.growth_factor,
            }
            for name, st in report.conditions.items()
        },
    }
    path = dest / "probe.json"
    _dump_json(payload, path)
    write_manifest(dest, tag, base_seed, [path.name])
    return {"probe": path}


def write_scalar_trajectory(traj: ScalarTrajectory, out_dir, tag: str) -> Dict[str, Path]:
    """Two-column CSV plus a one-line JSON blow-up summary."""
    dest = run_directory(out_dir, tag)
    rows = ["%.17g,%.17g" % r for r in zip(*map(memoryview, (traj.times, traj.values)))]
    csv_path = dest / "ode.csv"
    csv_path.write_text("\n".join(["time,value", *rows]) + "\n")
    summary_path = dest / "ode_summary.json"
    summary_path.write_text(
        json.dumps({"blew_up": traj.blew_up, "blowup_time": traj.blowup_time}) + "\n"
    )
    return {"csv": csv_path, "summary": summary_path}


_PLOT_SCRIPT = """\
#!/usr/bin/env python
\"\"\"Plot survival curves and delay statistics produced alongside this script.\"\"\"
import json
import sys
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).parent
fig, axes = plt.subplots(1, 2, figsize=(11, 4))

surv = here / "survival.csv"
if surv.exists():
    rows = [line.split(",") for line in surv.read_text().splitlines()]
    header, data = rows[0], rows[1:]
    t = [float(r[0]) for r in data]
    for j, name in enumerate(header[1:], start=1):
        axes[0].plot(t, [float(r[j]) for r in data], label=name)
    axes[0].set(xlabel="time", ylabel="survival fraction", title="ensemble survival")
    axes[0].legend()

delay = here / "delay.json"
if delay.exists():
    payload = json.loads(delay.read_text())
    levels = payload["levels"]
    ns = [lv["noise_N"] for lv in levels]
    meds = [lv["median_blowup"] for lv in levels]
    axes[1].plot(ns, meds, "o-")
    axes[1].axhline(payload["reference_time"], ls="--", c="gray", label="deterministic")
    axes[1].set(xlabel="theta cutoff N", ylabel="median blow-up time", title="delay study")
    axes[1].legend()

out = here / "plots.png"
fig.tight_layout()
fig.savefig(out, dpi=150)
print(f"wrote {out}")
"""


def _write_plot_script(dest: Path) -> Path:
    path = dest / "plot_results.py"
    path.write_text(_PLOT_SCRIPT)
    return path

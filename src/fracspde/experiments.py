"""Desk-scale statistical experiments on top of the simulator.

Monte-Carlo survival curves against noise strength, the delay study, the
scalar mean-field dichotomy, and the empirical boundedness probes for the
nonlinearity growth conditions.  (The blow-up detection and decay-rate fit
that only tests use live in tests/_reference.py.)
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import dynamics as dyn
from . import noise as noise_mod
from . import spectral as sp
from .errors import InvalidInputError, InvalidParameterError
from .fractional import solve_caputo_scalar_ode


def resolve_workers(explicit: Optional[int] = None) -> int:
    """Worker count: explicit flag, else FRACSPDE_THREADS, else all cores.

    Capped at the cores this process may run on, so a large request does not
    start that many processes.  A count below 1, from either source, is refused.
    """
    env = os.environ.get("FRACSPDE_THREADS")
    if explicit is None and env:
        try:
            explicit = int(env)
        except ValueError:
            raise InvalidParameterError(
                f"FRACSPDE_THREADS must be an integer, got {env!r}") from None
        if explicit < 1:
            raise InvalidParameterError(f"FRACSPDE_THREADS must be >= 1, got {env!r}")
    if explicit is not None and explicit < 1:
        raise InvalidParameterError(f"worker count must be >= 1, got {explicit}")
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # no affinity mask outside Linux
        cores = os.cpu_count() or 1
    return cores if explicit is None else min(explicit, cores)


@dataclass
class RunSummary:
    run_index: int
    blew_up: bool
    blowup_time: Optional[float]
    final_norms: dict
    n_recorded: int


@dataclass
class SurvivalCurve:
    """Empirical survival of an ensemble: share of runs alive at each time."""

    noise_N: int
    b: float
    A: float
    times: np.ndarray
    fraction: np.ndarray
    n_runs: int
    blowup_times: List[Optional[float]]
    base_seed: int

    def __post_init__(self):
        if self.fraction.size and not (
            self.fraction[0] == 1.0
            and np.all(np.diff(self.fraction) <= 0.0)
            and np.all((self.fraction >= 0.0) & (self.fraction <= 1.0))
        ):
            raise InvalidInputError("survival fractions must start at 1 and be non-increasing")


def _run_batch(job) -> List[RunSummary]:
    """Run run_index of each config of a batch: integrate for one config, else
    integrate_batch."""
    cfgs, run_index = job
    recs = ([dyn.integrate(cfgs[0], run_index=run_index)] if len(cfgs) == 1
            else dyn.integrate_batch(cfgs, run_index))
    return [
        RunSummary(
            run_index=run_index,
            blew_up=rec.blew_up,
            blowup_time=rec.blowup_time,
            final_norms=rec.final_norms(),
            n_recorded=len(rec.times),
        )
        for rec in recs
    ]


def _run_ensembles(cfgs: List[dyn.SimConfig], n_runs: int,
                   workers: Optional[int]) -> List[List[RunSummary]]:
    """Runs 0..n_runs-1 of each config from one job list on one pool, grouped per config.

    Run k of the configs that share a dynamics.batch_key is one job, a batch;
    a config without a key (the noise off) runs alone.  The largest batches
    come first on the job list.  Of w workers, the caller is one: it steps
    every w-th job itself while a pool of w - 1 forked processes steps the
    rest.
    """
    if n_runs < 1:
        raise InvalidParameterError(f"n_runs must be >= 1, got {n_runs}")
    batches = {}
    for i, cfg in enumerate(cfgs):
        key = dyn.batch_key(cfg)
        batches.setdefault(i if key is None else key, []).append(i)
    order = [(batch, k) for batch in sorted(batches.values(), key=len, reverse=True)
             for k in range(n_runs)]
    jobs = [([cfgs[i] for i in batch], k) for batch, k in order]
    w = min(resolve_workers(workers), len(jobs))
    if w <= 1:
        results = [_run_batch(j) for j in jobs]
    else:
        # imported here: it costs every process that imports this module
        # (io does) 10-15 ms, and a serial run never needs it
        from concurrent.futures import ProcessPoolExecutor

        results = [None] * len(jobs)
        pooled = [i for i in range(len(jobs)) if i % w]
        pool = ProcessPoolExecutor(max_workers=w - 1)
        try:
            out = pool.map(_run_batch, [jobs[i] for i in pooled],
                           chunksize=max(1, len(pooled) // (4 * (w - 1))))
            results[::w] = [_run_batch(j) for j in jobs[::w]]
            for i, summaries in zip(pooled, out):
                results[i] = summaries
        finally:  # after a raise, the jobs not yet started are dropped
            pool.shutdown(cancel_futures=True)
    runs = [[None] * n_runs for _ in cfgs]
    for (batch, k), summaries in zip(order, results):
        for i, summary in zip(batch, summaries):
            runs[i][k] = summary
    return runs


def survival_from_times(
    grid: np.ndarray, blowup_times: List[Optional[float]]
) -> np.ndarray:
    """Share of the runs still alive at each grid time (a run blows up at t <= time)."""
    finite = np.sort([t for t in blowup_times if t is not None])
    return 1.0 - np.searchsorted(finite, grid, side="right") / max(len(blowup_times), 1)


def _curve(cfg: dyn.SimConfig, summaries: List[RunSummary]) -> SurvivalCurve:
    grid = np.arange(cfg.n_steps + 1) * cfg.dt
    bts = [s.blowup_time for s in summaries]
    A = (noise_mod.amplitude_A(cfg.b, noise_mod.make_theta_cutoff(cfg.noise_N, cfg.d))
         if cfg.noise_N else 0.0)
    return SurvivalCurve(
        noise_N=cfg.noise_N,
        b=cfg.b,
        A=A,
        times=grid,
        fraction=survival_from_times(grid, bts),
        n_runs=len(summaries),
        blowup_times=bts,
        base_seed=cfg.seed,
    )


def ensemble_survival(
    cfg: dyn.SimConfig,
    n_runs: int,
    base_seed: Optional[int] = None,
    workers: Optional[int] = None,
) -> SurvivalCurve:
    """Run n_runs independent trajectories and aggregate their survival.

    Run k draws its initial fluctuation and Brownian path from streams mixed
    out of (base_seed, k), so the curve is reproducible and independent of
    worker scheduling.
    """
    if base_seed is not None:
        cfg = replace(cfg, seed=int(base_seed))
    return _curve(cfg, *_run_ensembles([cfg], n_runs, workers))


def _median_with_censoring(blowup_times: List[Optional[float]]) -> float:
    vals = sorted(math.inf if t is None else t for t in blowup_times)
    n = len(vals)
    if n % 2:
        return vals[n // 2]
    a, b = vals[n // 2 - 1], vals[n // 2]
    return a if math.isinf(a) or math.isinf(b) else 0.5 * (a + b)


@dataclass
class DelayLevel:
    noise_N: int
    b: float
    A: float
    linf_l2_ratio: Optional[float]
    median_blowup: float  # +inf when censored past t_end
    survival_at_reference: float
    blowup_times: List[Optional[float]] = field(repr=False, default_factory=list)


@dataclass
class DelayStudyResult:
    levels: List[DelayLevel]
    reference_time: float  # deterministic blow-up time (level-0 median)
    n_runs: int
    base_seed: int
    t_end: float
    curves: List[SurvivalCurve] = field(repr=False)  # the levels' curves, in level order


def delay_study(
    base_cfg: dyn.SimConfig,
    noise_levels: Sequence[int],
    n_runs: int,
    workers: Optional[int] = None,
) -> DelayStudyResult:
    """Blow-up delay versus noise spreading, with paired seeds across levels.

    Each level N runs an ensemble with theta = make_theta_cutoff(N) and the
    matched amplitude keeping the Ito corrector at b*Laplace; level 0 is the
    deterministic reference equation (no noise, no corrector).  Run k of
    every level shares its initial field and its Brownian draws on common
    modes, which is what makes the ordering statistics comparable at desk
    scale.  Every (level, run) trajectory, the level-0 reference included
    when level 0 is not requested, comes from one job list and one pool.
    """
    ns = [int(N) for N in noise_levels]
    if not ns or len(set(ns)) != len(ns):
        raise InvalidParameterError(f"noise_levels must be nonempty and distinct, got {ns}")
    if base_cfg.init.get("mean", 0.0) <= 1.0 and "delta0" in base_cfg.init:
        raise InvalidParameterError(
            "delay_study needs initial data that blows up deterministically (mean > 1)"
        )
    cfgs = [dyn.with_noise_level(base_cfg, N) for N in ns]
    if 0 not in ns:  # the deterministic reference, not reported as a level
        cfgs.append(dyn.with_noise_level(base_cfg, 0))
    curves = [_curve(c, s) for c, s in zip(cfgs, _run_ensembles(cfgs, n_runs, workers))]
    ref = _median_with_censoring(next(c for c in curves if c.noise_N == 0).blowup_times)
    del curves[len(ns):]
    levels = []
    for c in curves:
        theta = noise_mod.make_theta_cutoff(c.noise_N, base_cfg.d) if c.noise_N else None
        levels.append(DelayLevel(
            noise_N=c.noise_N,
            b=c.b,
            A=c.A,
            linf_l2_ratio=theta.linf_norm / theta.l2_norm if theta else None,
            median_blowup=_median_with_censoring(c.blowup_times),
            survival_at_reference=sum(t is None or t > ref for t in c.blowup_times) / n_runs,
            blowup_times=c.blowup_times,
        ))
    return DelayStudyResult(
        levels=levels,
        reference_time=ref,
        n_runs=n_runs,
        base_seed=base_cfg.seed,
        t_end=base_cfg.t_end,
        curves=curves,
    )


#: growth-condition exponents proved for the two example nonlinearities
GROWTH_EXPONENTS = {
    "fisher": {"a1": 1.0, "g1": 0.5, "a2": 1.5, "g2": 1.5, "a3": 1.0, "g3": 1.0, "eta": 1.0},
    "keller_segel": {"a1": 1.0, "g1": 0.25, "a2": 1.5, "g2": 1.5, "a3": 1.0, "g3": 1.0, "eta": 1.0},
}

DEFAULT_FIELD_SPEC = {
    "d": 3,
    "M": 4,
    "decay": 2.0,
    "mean_range": (-1.0, 1.0),
    "amplitude_range": (0.1, 10.0),
}

_RUNAWAY_RATIO = 1.0e8


@dataclass
class ConditionStats:
    max_ratio: float
    median_ratio: float
    growth_factor: float  # median ratio at top vs bottom amplitude quintile


@dataclass
class HypothesisReport:
    """Empirical boundedness probe of the three growth conditions."""

    zeta: str
    exponents: Dict[str, float]
    n_samples: int
    conditions: Dict[str, ConditionStats]
    violations: int
    skipped_pairs: int
    s: float = 1.0


def _growth_factor(amps: np.ndarray, ratios: np.ndarray) -> float:
    order = np.argsort(amps)
    q = max(1, len(order) // 5)
    lo = np.median(ratios[order[:q]])
    hi = np.median(ratios[order[-q:]])
    return float(hi / lo) if lo > 0 else math.inf


def probe_hypothesis(
    zeta_kind: str,
    exponents: Dict[str, float],
    n_samples: int,
    rng: np.random.Generator,
) -> HypothesisReport:
    """Sample random fields and measure the three growth-condition ratios.

    Condition ratios (s = 1, the setting of both example models):
      (i)   ||zeta(u)||_{H^-1} / ((1+||u||_{L2}^a1)(1+||u||_{H^1}))
      (ii)  |<zeta(u), u>| / ((1+||u||_{L2}^a2)(1+||u||_{H^1}^g2))
      (iii) |<u-v, zeta(u)-zeta(v)>| /
            (||u-v||_{L2}^a3 ||u-v||_{H^1}^g3 (1+||u||_{H^1}^eta+||v||_{H^1}^eta))
    Amplitudes sweep a log-uniform range so unbounded growth under wrong
    exponents is visible in the reported growth factor.  Coincident pairs in
    (iii) are skipped and counted, never divided through.
    """
    if zeta_kind not in ("fisher", "keller_segel"):
        raise InvalidParameterError(
            f"probe needs a concrete nonlinearity, got {zeta_kind!r}"
        )
    if n_samples < 1:
        raise InvalidParameterError("n_samples must be >= 1")
    need = {"a1", "a2", "g2", "a3", "g3", "eta"}
    missing = need - set(exponents)
    if missing:
        raise InvalidParameterError(f"missing exponent(s): {sorted(missing)}")
    for name, value in exponents.items():  # a NaN ratio would be written as invalid JSON
        if not math.isfinite(value):
            raise InvalidParameterError(f"exponent {name} must be finite, got {value}")
    zeta = dyn._ZETA_FUNCS[zeta_kind]
    spec = DEFAULT_FIELD_SPEC
    d, M, decay = spec["d"], spec["M"], spec["decay"]
    m_lo, m_hi = spec["mean_range"]
    a_lo, a_hi = spec["amplitude_range"]

    amps = np.empty(n_samples)
    r1 = np.empty(n_samples)
    r2 = np.empty(n_samples)
    r3 = []
    amps3 = []
    violations = 0
    skipped = 0

    for i in range(n_samples):
        amp = math.exp(rng.uniform(math.log(a_lo), math.log(a_hi)))
        amps[i] = amp
        u = sp.random_field(rng, d, M, decay, amp, mean=rng.uniform(m_lo, m_hi))
        v = sp.random_field(rng, d, M, decay, amp, mean=rng.uniform(m_lo, m_hi))
        zu, zv = zeta(u), zeta(v)

        l2_u = sp.sobolev_norm(u, 0.0)
        hs_u = sp.sobolev_norm(u, 1.0)
        hs_v = sp.sobolev_norm(v, 1.0)

        r1[i] = sp.sobolev_norm(zu, -1.0) / (
            (1.0 + l2_u ** exponents["a1"]) * (1.0 + hs_u)
        )
        r2[i] = abs(sp.l2_inner(zu, u)) / (
            (1.0 + l2_u ** exponents["a2"]) * (1.0 + hs_u ** exponents["g2"])
        )
        diff = sp.SpectralField(d, M, u.coeffs - v.coeffs)
        zdiff = sp.SpectralField(d, M, zu.coeffs - zv.coeffs)
        l2_diff = sp.sobolev_norm(diff, 0.0)
        hs_diff = sp.sobolev_norm(diff, 1.0)
        if l2_diff == 0.0 or hs_diff == 0.0:
            skipped += 1
        else:
            denom = (
                l2_diff ** exponents["a3"]
                * hs_diff ** exponents["g3"]
                * (1.0 + hs_u ** exponents["eta"] + hs_v ** exponents["eta"])
            )
            r3.append(abs(sp.l2_inner(diff, zdiff)) / denom)
            amps3.append(amp)

    r3 = np.asarray(r3)
    amps3 = np.asarray(amps3)
    conditions = {}
    for name, a, r in (("i", amps, r1), ("ii", amps, r2), ("iii", amps3, r3)):
        bad = ~np.isfinite(r) | (r > _RUNAWAY_RATIO) | (r < 0)
        violations += int(np.count_nonzero(bad))
        conditions[name] = ConditionStats(
            max_ratio=float(np.max(r)) if r.size else math.nan,
            median_ratio=float(np.median(r)) if r.size else math.nan,
            growth_factor=_growth_factor(a, r) if r.size else math.nan,
        )
    return HypothesisReport(
        zeta=zeta_kind,
        exponents=dict(exponents),
        n_samples=n_samples,
        conditions=conditions,
        violations=violations,
        skipped_pairs=skipped,
    )


def fisher_mean_dichotomy(
    beta: float,
    x0_list: Sequence[float],
    dt: float,
    t_end: float,
    blowup_threshold: float = 1.0e6,
) -> Dict[float, dict]:
    """Scalar mean-field dichotomy for D^beta x = x^2 - x.

    Means above 1 must explode in finite time; means in (0, 1) stay trapped
    and decay.  Returns, per initial value, the blow-up flag/time and the
    range the trajectory visited (blow-up times inherit the dt caveat).
    """
    if not x0_list:
        raise InvalidParameterError("x0_list must be nonempty")
    table = {}
    for x0 in x0_list:
        traj = solve_caputo_scalar_ode(
            lambda x: x * x - x, beta, float(x0), dt, t_end, blowup_threshold
        )
        table[float(x0)] = {
            "blew_up": traj.blew_up,
            "blowup_time": traj.blowup_time,
            "dt": dt,
            "final_value": float(traj.values[-1]),
            "min_value": float(np.min(traj.values)),
            "max_value": float(np.max(traj.values)),
        }
    return table

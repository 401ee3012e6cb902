"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
pass lines with timings.  The delayed-blow-up study (criterion 7) is the
long pole; it parallelizes over FRACSPDE_THREADS workers.
"""

import math
import time

import numpy as np

from fracspde import dynamics as dyn
from fracspde import experiments as xp
from fracspde import io as io_mod
from fracspde import noise as nm
from fracspde import spectral as sp
from fracspde.fractional import mittag_leffler


def _report(num, name, t0, detail=""):
    print(f"\n[PASS] criterion {num}: {name} ({time.time() - t0:.2f}s) {detail}")


def test_criterion_1_mittag_leffler_oracle():
    t0 = time.time()
    for z in np.linspace(-5.0, 5.0, 100):
        assert abs(mittag_leffler(1.0, 1.0, z) - math.exp(z)) <= 1e-10
    for z in np.linspace(0.0, 10.0, 60):
        assert abs(mittag_leffler(2.0, 1.0, z) - math.cosh(math.sqrt(z))) <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, "Mittag-Leffler oracle", t0)


def test_criterion_2_fractional_linear_convergence():
    t0 = time.time()
    lam = 4.0 * math.pi**2
    max_err = {}
    for dt in (1e-4, 5e-5):
        cfg = dyn.SimConfig(
            d=2, M=1, s=1.0, beta=0.8, b=0.0, S=100.0, dt=dt, t_end=0.4,
            zeta="none", init={"coeffs": [{"k": [1, 0], "re": 1.0}]}, seed=1,
        )
        rec = dyn.integrate(cfg)
        stride = max(1, len(rec.times) // 100)
        errs = [
            abs(rec.l2[i] - math.sqrt(2.0) * mittag_leffler(0.8, 1.0, -lam * rec.times[i] ** 0.8))
            for i in range(0, len(rec.times), stride)
        ]
        max_err[dt] = max(errs)
    assert max_err[1e-4] <= 1e-2
    assert max_err[1e-4] / max_err[5e-5] >= 1.5
    assert time.time() - t0 < 30.0
    _report(2, "fractional linear convergence", t0,
            f"err(1e-4)={max_err[1e-4]:.2e}, shrink x{max_err[1e-4]/max_err[5e-5]:.2f}")


def test_criterion_3_beta_one_regression():
    from _reference import independent_euler_maruyama

    t0 = time.time()
    cfg = dyn.SimConfig(
        d=2, M=8, s=1.0, beta=1.0, b=1.0, S=0.45, dt=1e-5, t_end=0.02,
        zeta="fisher", init={"mean": 0.5, "delta0": 0.01}, seed=42,
        noise_N=1, snapshot_stride=1,
    )
    rec = dyn.integrate(cfg)
    ref = independent_euler_maruyama(cfg)
    assert len(rec.snapshots) == cfg.n_steps + 1
    worst = 0.0
    for (_, field), ref_block in zip(rec.snapshots, ref):
        worst = max(worst, float(np.max(np.abs(field.coeffs - ref_block))))
    assert worst <= 1e-10
    assert time.time() - t0 < 60.0
    _report(3, "beta=1 Euler-Maruyama regression", t0, f"max step diff {worst:.2e}")


def test_criterion_4_isotropy_and_corrector():
    from _reference import frac_laplacian_apply, ito_corrector_apply

    t0 = time.time()
    for d in (2, 3):
        for N in (1, 2, 3):
            th = nm.make_theta_cutoff(N, d)
            mat = nm.isotropy_matrix(th)
            target = (d - 1) / d * th.l2_norm**2 * np.eye(d)
            assert np.max(np.abs(mat - target)) <= 1e-12
    worst = 0.0
    rng = np.random.default_rng(7)
    cases = [(2, 2, 6)] * 10 + [(3, 1, 3)] * 10
    for d, N, M in cases:
        th = nm.make_theta_cutoff(N, d)
        b = 2.3
        A = nm.amplitude_A(b, th)
        u = sp.random_field(rng, d, M, 1.0, 1.0, mean=0.2)
        corr = ito_corrector_apply(u, th, A)
        target = b * frac_laplacian_apply(u, 1.0).coeffs
        worst = max(worst, float(np.max(np.abs(corr.coeffs - target))))
    assert worst <= 1e-10
    assert time.time() - t0 < 5.0
    _report(4, "isotropy identity and Ito corrector", t0, f"corrector diff {worst:.2e}")


def test_criterion_5_mean_field_dichotomy():
    t0 = time.time()
    for beta in (0.6, 0.8, 1.0):
        dt = 1e-4 if beta == 1.0 else 1e-3
        sup = xp.fisher_mean_dichotomy(beta, [1.2, 1.5, 2.0], dt, 20.0, 1e6)
        for x0, row in sup.items():
            assert row["blew_up"], f"beta={beta}, x0={x0} failed to blow up"
            assert row["blowup_time"] < 20.0
        sub = xp.fisher_mean_dichotomy(beta, [0.25, 0.5, 0.75], 1e-3, 20.0, 1e6)
        for x0, row in sub.items():
            assert not row["blew_up"]
            assert 0.0 < row["min_value"] and row["max_value"] < 1.0
    t_star = xp.fisher_mean_dichotomy(1.0, [2.0], 1e-4, 20.0, 1e6)[2.0]["blowup_time"]
    assert abs(t_star - math.log(2.0)) <= 0.02 * math.log(2.0)
    assert time.time() - t0 < 30.0
    _report(5, "mean-field blow-up dichotomy", t0,
            f"t*(beta=1,x0=2)={t_star:.4f} vs ln2={math.log(2):.4f}")


def test_criterion_6_boundedness_below_unit_mean():
    t0 = time.time()
    common = dict(
        d=2, M=8, s=1.0, beta=1.0, b=5.0, S=1e7, dt=5e-5, t_end=5.0,
        zeta="fisher", seed=20,
    )
    bounded = dyn.integrate(dyn.SimConfig(init={"mean": 0.5, "delta0": 0.01}, **common))
    assert not bounded.blew_up
    delta0 = 0.01
    assert np.max(bounded.fluct_l2sq) <= delta0 * (1.0 + 1e-9)
    assert np.max(bounded.mean) <= 1.0
    exploding = dyn.integrate(dyn.SimConfig(init={"mean": 1.2, "delta0": 0.01}, **common))
    assert exploding.blew_up
    assert exploding.blowup_time < 5.0
    assert time.time() - t0 < 120.0
    _report(6, "fluctuation boundedness and supercritical blow-up", t0,
            f"max fluct^2 {np.max(bounded.fluct_l2sq):.4f} <= {delta0}; "
            f"mean-1.2 explodes at {exploding.blowup_time:.3f}")


def test_criterion_7_delayed_blowup():
    t0 = time.time()
    base = dyn.SimConfig(
        d=2, M=4, s=1.0, beta=1.0, b=2.0, S=1e7, dt=1e-4, t_end=3.0,
        zeta="fisher", init={"mean": 1.2, "delta0": 2.0}, seed=2026,
        blowup_threshold=1e6,
    )
    result = xp.delay_study(base, [0, 2, 4], n_runs=50)
    meds = [lv.median_blowup for lv in result.levels]
    survs = [lv.survival_at_reference for lv in result.levels]
    ratios = [lv.linf_l2_ratio for lv in result.levels]
    assert all(math.isfinite(m) for m in meds), "censored medians: raise t_end"
    assert meds[0] < meds[1] < meds[2], f"medians not strictly increasing: {meds}"
    assert survs[0] <= survs[1] <= survs[2]
    assert survs[2] > survs[0], "no strict survival increase"
    assert ratios[1] > ratios[2]
    assert time.time() - t0 < 1200.0
    _report(7, "delayed blow-up across noise levels", t0,
            f"medians {[round(m, 4) for m in meds]}, survival@ref {survs}")


def test_criterion_8_hypothesis_probes():
    t0 = time.time()
    for kind in ("fisher", "keller_segel"):
        rng = np.random.default_rng(100)
        rep = xp.probe_hypothesis(kind, xp.GROWTH_EXPONENTS[kind], 200, rng)
        assert rep.violations == 0
        for name, st in rep.conditions.items():
            assert math.isfinite(st.max_ratio), f"{kind} ({name})"
            assert st.growth_factor <= 10.0, f"{kind} ({name}): {st.growth_factor}"
    rng = np.random.default_rng(100)
    wrong = dict(xp.GROWTH_EXPONENTS["fisher"], a1=0.0)
    control = xp.probe_hypothesis("fisher", wrong, 200, rng)
    assert control.conditions["i"].growth_factor > 10.0
    assert time.time() - t0 < 120.0
    _report(8, "nonlinearity growth-condition probes", t0,
            f"negative-control growth x{control.conditions['i'].growth_factor:.0f}")


def test_criterion_9_determinism_and_invariants(tmp_path):
    t0 = time.time()
    # Hermitian symmetry and exact mean conservation of the transport term
    rng = np.random.default_rng(5)
    th = nm.make_theta_cutoff(2, 2)
    for _ in range(10):
        u = sp.random_field(rng, 2, 6, 1.0, 1.0, mean=0.4)
        inc = nm.sample_increments(th, 1e-3, rng)
        t_f = nm.transport_term(u, th, inc, 1.2)
        assert t_f.is_hermitian(1e-14)
        assert t_f.coeff((0, 0)) == 0.0

    # cut-off step-equivalence: inactive cut-off levels are bit-identical
    kw = dict(
        d=2, M=4, s=1.0, beta=1.0, b=1.0, dt=1e-4, t_end=0.02, zeta="fisher",
        init={"mean": 0.4, "delta0": 0.01}, seed=8, noise_N=1,
    )
    a = dyn.integrate(dyn.SimConfig(S=50.0, **kw))
    b = dyn.integrate(dyn.SimConfig(S=5000.0, **kw))
    assert np.array_equal(a.l2, b.l2) and np.all(a.cutoff == 1.0)

    # noisy run: the mean mode is conserved exactly, pathwise
    cfg_m = dyn.SimConfig(S=50.0, **{**kw, "zeta": "none", "init": {"amplitude": 0.3, "decay": 2.0, "mean": 0.9}})
    rec_m = dyn.integrate(cfg_m)
    assert np.max(np.abs(rec_m.mean - 0.9)) == 0.0

    # survival curves monotone and deterministic
    cfg_s = dyn.SimConfig(
        d=2, M=2, s=1.0, beta=1.0, b=1.0, S=1e7, dt=1e-3, t_end=3.0,
        zeta="fisher", init={"mean": 1.3, "delta0": 0.5}, seed=3,
        blowup_threshold=1e3, noise_N=1,
    )
    c1 = xp.ensemble_survival(cfg_s, 6, workers=2)
    c2 = xp.ensemble_survival(cfg_s, 6, workers=3)
    assert np.all(np.diff(c1.fraction) <= 0.0)
    assert np.array_equal(c1.fraction, c2.fraction)

    # byte-identical reruns of the persisted outputs
    cfg_w = dyn.SimConfig(S=50.0, **kw)
    p1 = io_mod.write_trajectory(dyn.integrate(cfg_w), cfg_w, tmp_path)
    blob1 = (p1["trajectory"].read_bytes(), p1["summary"].read_bytes())
    p2 = io_mod.write_trajectory(dyn.integrate(cfg_w), cfg_w, tmp_path)
    blob2 = (p2["trajectory"].read_bytes(), p2["summary"].read_bytes())
    assert blob1 == blob2
    assert time.time() - t0 < 300.0
    _report(9, "determinism and invariant suite", t0)

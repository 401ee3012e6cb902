import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from fracspde import dynamics as dyn
from fracspde import noise as nm
from fracspde import spectral as sp
from fracspde.errors import InvalidParameterError, ShapeError
from fracspde.fractional import (
    _EXACT_LAGS, _FOLD_BLOCK, _TAIL_TOL, kernel_increments, mittag_leffler,
)


def make_cfg(**over):
    base = dict(
        d=2, M=4, s=1.0, beta=1.0, b=0.0, S=100.0, dt=1e-3, t_end=0.05,
        zeta="none", init={"coeffs": [{"k": [1, 0], "re": 1.0}]}, seed=1,
    )
    base.update(over)
    return dyn.SimConfig(**base)


class TestCutoff:
    def test_plateau(self):
        assert dyn.cutoff_value(0.0, 10.0) == 1.0
        assert dyn.cutoff_value(10.0, 10.0) == 1.0

    def test_zero_tail(self):
        assert dyn.cutoff_value(11.0, 10.0) == 0.0
        assert dyn.cutoff_value(11.5, 10.0) == 0.0

    def test_symmetric_midpoint(self):
        assert dyn.cutoff_value(10.5, 10.0) == pytest.approx(0.5)

    def test_monotone_and_c1(self):
        rs = np.linspace(9.5, 12.0, 400)
        vals = np.array([dyn.cutoff_value(r, 10.0) for r in rs])
        assert np.all(np.diff(vals) <= 1e-15)
        # max slope of the quintic join is 15/8
        slopes = np.abs(np.diff(vals) / np.diff(rs))
        assert slopes.max() <= 15.0 / 8.0 + 1e-6
        assert slopes.max() >= 15.0 / 8.0 - 1e-2


class TestZeta:
    def test_fisher_on_constant(self):
        u = sp.constant(2, 4, 3.0)
        z = dyn.zeta_fisher(u)
        assert z.mean == pytest.approx(9.0 - 3.0, abs=1e-12)
        off = z.coeffs.copy()
        off[(4, 4)] = 0.0
        assert np.max(np.abs(off)) <= 1e-13

    def test_fisher_on_zero(self):
        z = dyn.zeta_fisher(sp.zeros(2, 4))
        assert np.all(z.coeffs == 0.0)

    def test_fisher_trig_identity(self):
        # (2cos)^2 - 2cos = 2 + 2cos(4 pi x) - 2cos(2 pi x)
        u = sp.mode_pair(2, 4, (1, 0))
        z = dyn.zeta_fisher(u)
        assert z.mean == pytest.approx(2.0, abs=1e-13)
        assert z.coeff((2, 0)) == pytest.approx(1.0, abs=1e-13)
        assert z.coeff((1, 0)) == pytest.approx(-1.0, abs=1e-13)

    def test_keller_segel_on_constant(self):
        z = dyn.zeta_keller_segel(sp.constant(2, 4, 2.0))
        assert np.max(np.abs(z.coeffs)) <= 1e-14

    def test_keller_segel_mean_free(self):
        rng = np.random.default_rng(3)
        rho = sp.random_field(rng, 2, 5, 1.0, 1.0, mean=0.8)
        z = dyn.zeta_keller_segel(rho)
        assert abs(z.mean) <= 1e-12

    def test_keller_segel_single_mode_closed_form(self):
        # rho = 2cos(2 pi x1): c = rho/(4 pi^2), grad c = -(1/pi) sin e1,
        # zeta = -d/dx1(rho dc/dx1) = -(2/pi) d/dx1 (cos sin) = -(2/pi) 2pi cos(4 pi x1)
        rho = sp.mode_pair(2, 4, (1, 0))
        z = dyn.zeta_keller_segel(rho)
        # -(2/pi)*2pi*cos(4 pi x1) = -4cos(4 pi x1) -> coeff at (2,0) = -2... wait:
        # rho*dc/dx1 = 2cos * (-(1/pi) sin) = -(1/pi) sin(4 pi x1);
        # -d/dx1 of that = (1/pi) * 4pi cos(4 pi x1) = 4 cos(4 pi x1)?? sign check
        # below against brute force instead of by hand:
        conv = _brute_force_keller_segel(rho)
        assert np.max(np.abs(z.coeffs - conv)) <= 1e-10
        # closed form: zeta = 4 cos(4 pi x1) has +-(2,0) coefficients = 2
        assert z.coeff((2, 0)) == pytest.approx(conv[(4 + 2, 4)], abs=1e-12)

    def test_keller_segel_matches_bruteforce_random(self):
        rng = np.random.default_rng(4)
        rho = sp.random_field(rng, 2, 3, 1.0, 0.7, mean=0.2)
        z = dyn.zeta_keller_segel(rho)
        conv = _brute_force_keller_segel(rho)
        assert np.max(np.abs(z.coeffs - conv)) <= 1e-12


def _dense_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution of two coefficient blocks, truncated to the block."""
    d, M = a.ndim, a.shape[0] // 2
    out = np.zeros_like(a)
    for k1 in np.ndindex(a.shape):
        ka = np.array(k1) - M
        for k2 in np.ndindex(b.shape):
            ks = ka + np.array(k2) - M
            if np.max(np.abs(ks)) <= M:
                out[tuple(ks + M)] += a[k1] * b[k2]
    return out


def _brute_force_keller_segel(rho: sp.SpectralField) -> np.ndarray:
    """Dense convolution reference for -div(rho grad((-Lap)^-1(rho - mean)))."""
    pot = sp.laplacian_inverse(rho)
    out = np.zeros_like(rho.coeffs)
    for ax, gpot in enumerate(sp.gradient(pot)):
        flux = _dense_product(rho.coeffs, gpot.coeffs)
        out -= sp.TWO_PI * 1j * sp._mode_grids(rho.d, rho.M)[ax] * flux
    return out


def _half(f: sp.SpectralField) -> np.ndarray:
    """The half block k_0 = 0..M of a field, the layout of the integrator's state."""
    return np.ascontiguousarray(f.coeffs[f.M:])


def _steady_allocations(steady) -> tuple:
    """(largest, kept): the most memory one bytecode instruction of fracspde
    allocated during steady(), beyond what was live when it began, and the
    memory steady() left allocated.

    An instruction that makes an array of n bytes counts at least n, whatever
    numpy's fixed cost of one call (about 0.5 kB) and however many calls come
    before or after it.  steady() runs twice under the trace and only the
    second run counts: the first traced call of a function allocates its
    tracing tables.  The frame of each call is held until a later trace
    event, so that its release does not offset an allocation.
    """
    src, held, n = os.path.dirname(dyn.__file__), [None] * 64, 0
    worst = live = 0

    def trace(frame, event, arg):
        nonlocal worst, live, n
        worst = max(worst, tracemalloc.get_traced_memory()[1] - live)
        if event == "call":
            held[n % len(held)], n = frame, n + 1
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        if not frame.f_code.co_filename.startswith(src):
            return None
        frame.f_trace_opcodes = True
        return trace

    def run():
        steady()
        held[:] = [None] * len(held)
        return tracemalloc.get_traced_memory()[0]

    outer = sys.gettrace()
    tracemalloc.start()
    sys.settrace(trace)
    try:
        before = run()
        tracemalloc.reset_peak()
        worst, live = 0, tracemalloc.get_traced_memory()[0]
        kept = run() - before
        return worst, kept
    finally:
        sys.settrace(outer)
        tracemalloc.stop()


class TestGridPass:
    # N > M at d = 3: 2M+N+1 = 8 > 3M+1 = 7 sets the grid
    @pytest.mark.parametrize("d,M,N,zeta", [(3, 2, 3, "keller_segel"), (2, 4, 3, "fisher")])
    def test_fused_pass_matches_field_path(self, d, M, N, zeta):
        cfg = make_cfg(d=d, M=M, b=1.0, noise_N=N, zeta=zeta)
        eng = dyn._Engine(cfg)
        rng = np.random.default_rng(11)
        u = sp.random_field(rng, d, M, 1.0, 1.0, mean=0.6)
        inc = nm.sample_increments(eng.theta, 0.01, rng)
        z, t = (sp.hermitian_block(a) for a in eng.zeta_block(_half(u), True, inc.values))
        if zeta == "keller_segel":
            ref = _brute_force_keller_segel(u)
        else:
            ref = _dense_product(u.coeffs, u.coeffs) - u.coeffs
        assert np.max(np.abs(z - ref)) <= 1e-12
        ref = nm.transport_term(u, eng.theta, nm.build_noise_basis(eng.theta), inc,
                                nm.amplitude_A(cfg.b, eng.theta))
        assert np.max(np.abs(t - ref.coeffs)) <= 1e-12

    @pytest.mark.parametrize("d,zeta", [(2, "fisher"), (3, "keller_segel")])
    def test_constant_field_gives_exact_zeros(self, d, zeta):
        # the differentiated DFT matrices vanish on the k = 0 column exactly
        cfg = make_cfg(d=d, M=3, b=1.0, noise_N=2, zeta=zeta)
        eng = dyn._Engine(cfg)
        f = sp.constant(d, 3, 0.8)
        dw = nm.sample_increments(eng.theta, 0.01, np.random.default_rng(17)).values
        transport = eng.zeta_block(_half(f), True, dw)[1]
        lay = eng._layouts[3]
        assert all(np.all(g == 0.0) for g in lay.grad_u + lay.grad_c)
        assert np.all(transport == 0.0)
        A = nm.amplitude_A(cfg.b, eng.theta)
        inc = nm.NoiseIncrements(0.01, eng.theta.half_modes, dw)
        out = nm.transport_term(f, eng.theta, nm.build_noise_basis(eng.theta), inc, A)
        assert np.all(out.coeffs == 0.0)

    @pytest.mark.parametrize("d,zeta", [(2, "fisher"), (3, "keller_segel")])
    def test_reused_engine_matches_fresh_engine(self, d, zeta):
        # the work arrays carry nothing from one call to the next, also when
        # the channel stack changes shape: zeta on, zeta cut off, noise off
        cfg = make_cfg(d=d, M=3, b=1.0, noise_N=2, zeta=zeta)
        eng = dyn._Engine(cfg)
        rng = np.random.default_rng(12)
        u, v = (_half(sp.random_field(rng, d, 3, 1.0, 1.0, mean=0.6)) for _ in range(2))
        dw_u, dw_v = (nm.sample_increments(eng.theta, 0.01, rng).values for _ in range(2))
        # layouts A = (zeta, noise), B = (cut off, noise), C = (zeta, no noise),
        # D = (cut off, no noise) in the order A B A C A D B C B D C D A, which
        # switches between every two of them in both directions
        layouts = {"A": (0.7, True), "B": (0.0, True), "C": (0.7, False), "D": (0.0, False)}
        calls = [((u, v)[i % 2], lval, (dw_u, dw_v)[i % 3 % 2] if noisy else None)
                 for i, (lval, noisy) in enumerate(layouts[c] for c in "ABACADBCBDCDA")]
        for block, lval, dw in calls:
            got = [None if a is None else a.copy() for a in eng.drift_block(block, lval, dw)]
            want = dyn._Engine(cfg).drift_block(block, lval, dw)
            for a, b in zip(got, want):
                assert (a is None and b is None) or np.array_equal(a, b)

    @pytest.mark.parametrize("d,M,zeta,lval", [(2, 4, "fisher", 0.7), (3, 3, "keller_segel", 0.7),
                                               (2, 4, "fisher", 0.0)])
    def test_steady_calls_allocate_no_block(self, d, M, zeta, lval):
        # after one warm-up call per layout, no single allocation of the calls
        # reaches a half block, and they keep nothing
        cfg = make_cfg(d=d, M=M, b=1.0, noise_N=2, zeta=zeta)
        eng = dyn._Engine(cfg)
        rng = np.random.default_rng(14)
        u = _half(sp.random_field(rng, d, M, 1.0, 1.0, mean=0.6))
        dws = [nm.sample_increments(eng.theta, 0.01, rng).values for _ in range(50)]
        eng.drift_block(u, lval, dws[0])

        def steady():
            for dw in dws:
                eng.drift_block(u, lval, dw)

        largest, kept = _steady_allocations(steady)
        assert largest < u.nbytes
        assert kept < u.nbytes

    def test_public_results_are_not_work_arrays(self):
        cfg = make_cfg(b=1.0, zeta="fisher")
        rng = np.random.default_rng(13)
        u, v = (sp.random_field(rng, 2, 4, 1.0, 1.0, mean=0.6) for _ in range(2))
        theta = nm.make_theta_cutoff(2, 2)
        basis = nm.build_noise_basis(theta)
        inc = nm.sample_increments(theta, 0.01, rng)
        A = nm.amplitude_A(1.0, theta)
        funcs = [lambda f: dyn.drift(f, cfg), dyn.zeta_fisher, dyn.zeta_keller_segel,
                 lambda f: nm.transport_term(f, theta, basis, inc, A)]
        first = [fn(u) for fn in funcs]
        kept = [f.coeffs.copy() for f in first]
        for fn in funcs:
            fn(v)
        for f, c in zip(first, kept):
            assert np.array_equal(f.coeffs, c)


class TestVelocityBlock:
    """V of K steps from one velocity pass, as integrate builds it."""

    @pytest.mark.parametrize("d,M,N,K", [(2, 4, 4, 24), (3, 3, 2, 5)])
    def test_block_matches_one_step_calls(self, d, M, N, K):
        eng = dyn._Engine(make_cfg(d=d, M=M, b=1.0, noise_N=N))
        rng = np.random.default_rng(15)
        dw = np.array([nm.sample_increments(eng.theta, 0.01, rng).values for _ in range(K)])
        block = [np.array(v) for v in eng.velocity(dw)]
        assert len(block) == K
        for k in range(K):
            assert np.array_equal(np.array(eng.velocity(dw[k])[0]), block[k]), f"step {k}"

    @pytest.mark.parametrize("d,M,N,K", [(2, 4, 4, 24), (2, 8, 2, 6), (3, 8, 4, 1)])
    def test_block_length_and_cut_last_block(self, d, M, N, K, monkeypatch):
        cfg = make_cfg(d=d, M=M, b=1.0, noise_N=N, dt=1e-4, t_end=(30 if d == 2 else 3) * 1e-4)
        lengths = []
        velocity = dyn._Engine.velocity
        monkeypatch.setattr(dyn._Engine, "velocity",
                            lambda eng, dw: lengths.append(len(dw)) or velocity(eng, dw))
        dyn.integrate(cfg)
        steps = cfg.n_steps
        assert lengths == [K] * (steps // K) + ([steps % K] if steps % K else [])

    @pytest.mark.parametrize("kw", [
        # beta = 1, blows up in the middle of a block
        dict(beta=1.0, b=2.0, noise_N=2, S=1e7, dt=1e-4, t_end=0.5,
             init={"mean": 4.0, "delta0": 2.0}),
        # beta = 0.9, the Volterra sum, snapshots
        dict(beta=0.9, b=0.5, noise_N=2, S=10.0, dt=2.5e-5, t_end=110 * 2.5e-5,
             init={"mean": 0.5, "delta0": 0.01}, snapshot_stride=13),
    ], ids=["beta1-blowup", "beta0.9"])
    def test_records_independent_of_block_length(self, kw, monkeypatch):
        cfg = make_cfg(zeta="fisher", seed=4, **kw)
        rec = dyn.integrate(cfg, run_index=2)
        monkeypatch.setattr(dyn, "VELOCITY_BLOCK_BYTES", 1)  # K = 1
        one = dyn.integrate(cfg, run_index=2)
        if cfg.beta == 1.0:
            assert rec.blew_up and (len(rec.times) - 1) % 24 != 0
        for name in ("times", "l2", "hs", "hneg_gamma", "mean", "cutoff"):
            assert np.array_equal(getattr(rec, name), getattr(one, name)), name
        assert (rec.blew_up, rec.blowup_time) == (one.blew_up, one.blowup_time)
        assert [n for n, _ in rec.snapshots] == [n for n, _ in one.snapshots]
        for (_, f), (_, g) in zip(rec.snapshots, one.snapshots):
            assert np.array_equal(f.coeffs, g.coeffs)

    @pytest.mark.parametrize("d,M,zeta", [(2, 4, "fisher"), (3, 3, "keller_segel")])
    def test_steady_block_calls_allocate_no_block(self, d, M, zeta):
        # integrate's pattern after a warm-up at its K: one velocity pass, then
        # K grid passes that read their V from it
        cfg = make_cfg(d=d, M=M, b=1.0, noise_N=2, zeta=zeta)
        eng = dyn._Engine(cfg)
        K = max(1, dyn.VELOCITY_BLOCK_BYTES // (8 * d * eng.R**d))
        rng = np.random.default_rng(16)
        u = _half(sp.random_field(rng, d, M, 1.0, 1.0, mean=0.6))
        dws = [np.array([nm.sample_increments(eng.theta, 0.01, rng).values for _ in range(K)])
               for _ in range(4)]
        for vel in eng.velocity(dws[0]):
            eng.drift_block(u, 0.7, vel=vel)

        def steady():
            for dw in dws:
                for vel in eng.velocity(dw):
                    eng.drift_block(u, 0.7, vel=vel)

        largest, kept = _steady_allocations(steady)
        assert largest < u.nbytes
        assert kept < u.nbytes


class TestDrift:
    def test_pure_multiplier_mode(self):
        cfg = make_cfg(b=2.0, s=1.5)
        u = sp.mode_pair(2, 4, (1, 2))
        g = dyn.drift(u, cfg)
        ksq = 5.0
        expect = -((4 * math.pi**2 * ksq) ** 1.5) - 2.0 * 4 * math.pi**2 * ksq
        assert g.coeff((1, 2)) == pytest.approx(expect * u.coeff((1, 2)), rel=1e-12)

    def test_cutoff_kills_nonlinearity(self):
        cfg = make_cfg(zeta="fisher", S=0.01)
        u = sp.constant(2, 4, 5.0)  # H^-gamma norm 5 >> S+1
        g = dyn.drift(u, cfg)
        assert np.max(np.abs(g.coeffs)) == 0.0  # linear part kills constants too

    def test_heat_reduction(self):
        cfg = make_cfg(b=0.0, s=1.0)
        u = sp.mode_pair(2, 4, (1, 0))
        g = dyn.drift(u, cfg)
        assert g.coeff((1, 0)) == pytest.approx(-4 * math.pi**2, rel=1e-13)

    def test_field_off_the_config_modes_refused(self):
        cfg = make_cfg(zeta="fisher")
        with pytest.raises(ShapeError, match=r"\(2, 6\).*\(2, 4\)"):
            dyn.drift(sp.zeros(2, 6), cfg)


class TestConfigValidation:
    def test_beta_constraint_with_noise(self):
        with pytest.raises(InvalidParameterError, match="1/2"):
            make_cfg(beta=0.4, noise_N=2)

    def test_beta_free_without_noise(self):
        cfg = make_cfg(beta=0.4)
        assert cfg.beta == 0.4

    def test_step_cap(self):
        with pytest.raises(InvalidParameterError, match="cap"):
            make_cfg(dt=1e-7, t_end=1.0)

    def test_history_footprint_at_step_cap(self):
        # d=3, M=8 at the step cap: a dense history would take 1e5 x 17^3 x 16 B = 7.9 GB
        c = kernel_increments(0.9, 1e-5, dyn.MAX_STEPS)
        tracemalloc.start()
        try:
            hist = dyn.VolterraHistory(c, 17**3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.n_modes < 100
        assert peak < 32 * 2**20

    def test_snapshot_footprint_refused_up_front(self, monkeypatch):
        # d=3, M=8, stride 1 at the step cap: 100001 snapshots x 17^3 x 16 B = 7.9 GB
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**20}  # 4 GiB
        monkeypatch.setattr(dyn.os, "sysconf", pages.__getitem__)
        cfg = make_cfg(d=3, M=8, dt=1e-5, t_end=1.0, snapshot_stride=1)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError) as err:
                dyn.integrate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        need = (dyn.MAX_STEPS + 1) * 17**3 * 16
        assert f"{need} bytes" in str(err.value) and "snapshot_stride = 1" in str(err.value)
        # 3 snapshots of 9^2 x 16 B run in exactly that much memory, not in one byte less
        small = make_cfg(t_end=0.01, snapshot_stride=5)
        pages.update(SC_PAGE_SIZE=1, SC_PHYS_PAGES=3 * 81 * 16)
        assert len(dyn.integrate(small).snapshots) == 3
        pages["SC_PHYS_PAGES"] -= 1
        with pytest.raises(InvalidParameterError, match="5 over 10 steps keeps 3888 bytes"):
            dyn.integrate(small)

    def test_init_schema(self):
        with pytest.raises(InvalidParameterError):
            make_cfg(init={"mean": 0.5})
        with pytest.raises(InvalidParameterError):
            make_cfg(init={"delta0": 0.1, "mean": 0.5, "bogus": 1})

    def test_hash_stable_and_sensitive(self):
        a, b = make_cfg(), make_cfg()
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != make_cfg(seed=2).config_hash()
        assert len(a.config_hash()) == 16


class TestIntegrateLinear:
    def test_heat_mode_decay(self):
        cfg = make_cfg(M=1, dt=1e-4, t_end=0.2)
        rec = dyn.integrate(cfg)
        lam = 4 * math.pi**2
        for t_probe in (0.1, 0.2):
            i = int(round(t_probe / cfg.dt))
            exact = math.sqrt(2.0) * math.exp(-lam * rec.times[i])
            assert abs(rec.l2[i] - exact) <= 1e-3

    def test_fractional_mode_mittag_leffler(self):
        cfg = make_cfg(M=1, beta=0.8, dt=1e-4, t_end=0.4)
        rec = dyn.integrate(cfg)
        lam = 4 * math.pi**2
        for i in range(0, len(rec.times), 400):
            oracle = math.sqrt(2.0) * mittag_leffler(0.8, 1.0, -lam * rec.times[i] ** 0.8)
            assert abs(rec.l2[i] - oracle) <= 1e-2

    def test_noise_off_l2_non_increasing(self):
        rng_cfg = make_cfg(
            M=4, b=1.5, s=1.0, dt=1e-4, t_end=0.05,
            init={"amplitude": 0.5, "decay": 1.0},
        )
        rec = dyn.integrate(rng_cfg)
        assert np.all(np.diff(rec.l2) <= 1e-14)

    def test_trajectory_grid(self):
        cfg = make_cfg(dt=1e-3, t_end=0.01)
        rec = dyn.integrate(cfg)
        assert len(rec.times) == 11
        assert rec.times[-1] == pytest.approx(0.01)


class TestIntegrateStochastic:
    def test_determinism(self):
        cfg = make_cfg(
            M=4, beta=1.0, b=1.0, noise_N=1, zeta="fisher", dt=1e-4, t_end=0.01,
            init={"mean": 0.4, "delta0": 0.01}, seed=5,
        )
        a, b = dyn.integrate(cfg), dyn.integrate(cfg)
        assert np.array_equal(a.l2, b.l2)
        assert np.array_equal(a.mean, b.mean)

    def test_distinct_runs_differ(self):
        cfg = make_cfg(
            M=4, b=1.0, noise_N=1, dt=1e-4, t_end=0.01,
            init={"amplitude": 0.3, "decay": 2.0}, seed=5,
        )
        a = dyn.integrate(cfg, run_index=0)
        b = dyn.integrate(cfg, run_index=1)
        assert not np.array_equal(a.l2, b.l2)

    def test_mean_conserved_exactly_by_transport(self):
        cfg = make_cfg(
            M=4, b=2.0, noise_N=2, zeta="none", dt=1e-4, t_end=0.02,
            init={"amplitude": 0.3, "decay": 2.0, "mean": 0.9}, seed=6,
        )
        rec = dyn.integrate(cfg)
        assert np.max(np.abs(rec.mean - 0.9)) == 0.0

    def test_fractional_noisy_path_runs(self):
        # fresh noise enters the Volterra sum with weight dt^(beta-1), so the
        # noisy fractional path is exercised in its stable regime (beta near 1)
        cfg = make_cfg(
            M=2, beta=0.9, b=0.5, noise_N=1, zeta="fisher", dt=5e-4, t_end=0.05,
            init={"mean": 0.4, "delta0": 0.01}, seed=7,
        )
        rec = dyn.integrate(cfg)
        assert not rec.blew_up
        assert np.all(np.isfinite(rec.l2))
        assert rec.l2.max() <= 1.0

    def test_blowup_recorded_not_raised(self):
        cfg = make_cfg(
            M=2, zeta="fisher", dt=1e-3, t_end=5.0, S=1e7,
            init={"mean": 1.5, "delta0": 0.0}, blowup_threshold=1e3,
        )
        rec = dyn.integrate(cfg)
        assert rec.blew_up
        assert rec.blowup_time is not None
        assert np.all(np.isfinite(rec.l2))
        assert rec.times[-1] <= rec.blowup_time

    @pytest.mark.parametrize("d,beta,zeta", [(2, 1.0, "fisher"), (3, 0.9, "keller_segel")])
    def test_recorded_norms_match_snapshots(self, d, beta, zeta):
        cfg = make_cfg(
            d=d, M=3, beta=beta, b=0.5, noise_N=2, zeta=zeta, dt=1e-4, t_end=0.005,
            s=1.5, gamma=0.3, init={"mean": 0.4, "delta0": 0.05}, seed=8, snapshot_stride=1,
        )
        rec = dyn.integrate(cfg)
        assert [n for n, _ in rec.snapshots] == list(range(len(rec.times)))
        for rec_norms, s in [(rec.l2, 0.0), (rec.hs, cfg.s), (rec.hneg_gamma, -cfg.gamma)]:
            want = [sp.sobolev_norm(f, s) for _, f in rec.snapshots]
            np.testing.assert_allclose(rec_norms, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("d,beta,zeta", [(3, 1.0, "keller_segel"), (2, 0.9, "fisher")])
    def test_snapshots_exactly_hermitian(self, d, beta, zeta):
        # the state is a half block whose k_0 = 0 plane carries rounding;
        # the snapshots are full blocks, exactly Hermitian with a real mean
        cfg = make_cfg(
            d=d, M=3, beta=beta, b=0.5, noise_N=2, zeta=zeta, dt=1e-4, t_end=0.01,
            init={"mean": 0.4, "delta0": 0.05}, seed=15, snapshot_stride=1,
        )
        rec = dyn.integrate(cfg)
        assert len(rec.snapshots) == cfg.n_steps + 1
        for _, f in rec.snapshots:
            assert f.is_hermitian(tol=0.0)

    def test_snapshots(self):
        cfg = make_cfg(dt=1e-3, t_end=0.01, snapshot_stride=5)
        rec = dyn.integrate(cfg)
        assert [s for s, _ in rec.snapshots] == [0, 5, 10]
        assert rec.snapshots[0][1].coeff((1, 0)) == pytest.approx(1.0)


class TestNoiseSetup:
    def test_second_engine_reuses_noise_basis(self, monkeypatch):
        cfg = make_cfg(d=3, M=2, b=1.0, noise_N=2, zeta="keller_segel")
        dyn._Engine(cfg)
        calls = []
        build = nm.build_orthonormal_complement
        monkeypatch.setattr(nm, "build_orthonormal_complement",
                            lambda *a: calls.append(a) or build(*a))
        dyn._Engine(cfg)
        assert calls == []

    def test_cached_noise_setup_bit_identical(self):
        cfg = make_cfg(M=3, b=1.0, noise_N=2, zeta="fisher", t_end=0.02,
                       init={"mean": 0.4, "delta0": 0.01}, snapshot_stride=20)
        dyn._noise_support.cache_clear()
        fresh = dyn.integrate(cfg)
        cached = dyn.integrate(cfg)
        assert np.array_equal(fresh.l2, cached.l2)
        assert np.array_equal(fresh.snapshots[-1][1].coeffs, cached.snapshots[-1][1].coeffs)

    def test_noise_basis_read_only(self):
        # the cached basis is shared by every engine at its (N, d)
        basis = nm.build_noise_basis(nm.make_theta_cutoff(2, 3))
        with pytest.raises(ValueError):
            basis.q[0, 0, 0] = 1.0

    def test_rekeyed_draws_match_step_rng(self, monkeypatch):
        cfg = make_cfg(M=2, b=1.0, noise_N=2, dt=1e-4, t_end=0.02, seed=13)
        drawn = []
        sample = nm.sample_increments
        monkeypatch.setattr(nm, "sample_increments",
                            lambda th, dt, gen: drawn.append(sample(th, dt, gen)) or drawn[-1])
        dyn.integrate(cfg, run_index=4)
        theta = nm.make_theta_cutoff(2, 2)
        assert len(drawn) == cfg.n_steps == 200
        for n, inc in enumerate(drawn):
            ref = sample(theta, cfg.dt, dyn.step_rng(13, 4, n)).values
            assert np.array_equal(inc.values, ref), f"step {n}"


class TestFractionalHistory:
    """integrate with the compressed history against the exact O(n^2) one."""

    @pytest.mark.parametrize("kw", [
        # the noisy fractional regime: beta = 0.9, N = 2, 2000 steps
        dict(M=8, beta=0.9, b=0.5, noise_N=2, S=10.0, dt=2.5e-5, t_end=0.05, seed=3),
        # 16k steps, deterministic
        dict(M=2, beta=0.9, dt=2.5e-5, t_end=0.4, seed=9),
    ], ids=["noisy-2000", "det-16000"])
    def test_matches_dense_history(self, kw, monkeypatch):
        from _reference import DenseHistory

        cfg = make_cfg(zeta="fisher", init={"mean": 0.5, "delta0": 0.01},
                       snapshot_stride=500, **kw)
        rec = dyn.integrate(cfg)
        monkeypatch.setattr(dyn, "VolterraHistory", DenseHistory)
        ref = dyn.integrate(cfg)
        assert not ref.blew_up and len(rec.times) == cfg.n_steps + 1
        for name in ("l2", "hs", "hneg_gamma", "mean"):
            a, b = getattr(rec, name), getattr(ref, name)
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b)), name
        for (_, got), (_, want) in zip(rec.snapshots, ref.snapshots):
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-9 * np.max(np.abs(want.coeffs))


class TestCutoffEquivalence:
    def test_inactive_cutoff_levels_are_bitwise_equivalent(self):
        # any two S levels above the running H^-gamma norm give the exact
        # same trajectory: the plateau value is exactly 1.0
        kw = dict(
            M=4, b=1.0, noise_N=1, zeta="fisher", dt=1e-4, t_end=0.02,
            init={"mean": 0.4, "delta0": 0.01}, seed=8,
        )
        a = dyn.integrate(make_cfg(S=50.0, **kw))
        b = dyn.integrate(make_cfg(S=5000.0, **kw))
        assert np.array_equal(a.l2, b.l2)
        assert np.all(a.cutoff == 1.0)


class TestMeanModeIdentity:
    def test_fisher_mean_obeys_scalar_recursion(self):
        # recorded mean must satisfy the discrete Volterra recursion driven by
        # ||u - mean||^2 + mean^2 - mean (exact while the cut-off is inactive)
        cfg = make_cfg(
            M=2, beta=0.8, b=1.0, zeta="fisher", dt=1e-4, t_end=0.2,
            init={"mean": 0.6, "delta0": 0.04}, seed=9, S=100.0,
        )
        rec = dyn.integrate(cfg)
        assert np.all(rec.cutoff == 1.0)
        feed = rec.fluct_l2sq + rec.mean**2 - rec.mean
        c = kernel_increments(cfg.beta, cfg.dt, cfg.n_steps)
        for n in range(1, len(rec.times)):
            pred = rec.mean[0] + float(np.dot(c[1 : n + 1], feed[n - 1 :: -1]))
            assert abs(pred - rec.mean[n]) <= 1e-6


class TestClassicalRegression:
    def test_beta_one_matches_independent_euler_maruyama(self):
        """Volterra stepper at beta = 1 == plain Euler-Maruyama, same path."""
        from _reference import independent_euler_maruyama

        cfg = make_cfg(
            M=5, beta=1.0, b=1.0, noise_N=1, zeta="fisher", dt=2e-5, t_end=0.01,
            init={"mean": 0.5, "delta0": 0.01}, seed=10, S=0.45, snapshot_stride=1,
        )
        rec = dyn.integrate(cfg)
        ref = independent_euler_maruyama(cfg)
        assert len(rec.snapshots) == cfg.n_steps + 1
        for (step, field), ref_block in zip(rec.snapshots, ref):
            assert np.max(np.abs(field.coeffs - ref_block)) <= 1e-12, f"step {step}"


class TestFractionalRegression:
    def test_noisy_fractional_matches_dense_reference(self):
        """The noisy fractional path (beta = 0.9, N = 1) against the dense Volterra-Euler
        reference, 200 steps, so the folded tail of the history is in use."""
        from _reference import independent_euler_maruyama

        cfg = make_cfg(
            M=4, beta=0.9, b=0.5, noise_N=1, zeta="fisher", dt=2e-5, t_end=4e-3,
            init={"mean": 0.5, "delta0": 0.01}, seed=10, S=10.0, snapshot_stride=1,
        )
        assert cfg.n_steps > _EXACT_LAGS + _FOLD_BLOCK
        rec = dyn.integrate(cfg)
        drive = []
        ref = independent_euler_maruyama(cfg, drive=drive)
        assert not rec.blew_up and len(rec.snapshots) == cfg.n_steps + 1
        # The one approximation is the folded tail: each of its weights is within
        # _TAIL_TOL of c_j relative, so u_n is off by at most
        # _TAIL_TOL * sum_{j<=n} c_j * max |G_k|, and sum_{j<=n} c_j = t_n^beta / Gamma(beta+1).
        bound = _TAIL_TOL * cfg.t_end**cfg.beta / math.gamma(cfg.beta + 1.0) * max(
            float(np.max(np.abs(g))) for g in drive)
        worst = max(float(np.max(np.abs(f.coeffs - r))) for (_, f), r in zip(rec.snapshots, ref))
        assert worst <= bound

import math
import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fracspde import dynamics as dyn
from fracspde import noise as nm
from fracspde import spectral as sp
from fracspde.errors import InvalidParameterError, ShapeError
from fracspde.fractional import (
    _EXACT_LAGS, _FOLD_BLOCK, _TAIL_TOL, kernel_increments, mittag_leffler,
)

from _reference import laplacian_inverse, mode_pair


def make_cfg(**over):
    k = [1] + [0] * (over.get("d", 2) - 1)  # the mode (1, 0[, 0])
    base = dict(
        d=2, M=4, s=1.0, beta=1.0, b=0.0, S=100.0, dt=1e-3, t_end=0.05,
        zeta="none", init={"coeffs": [{"k": k, "re": 1.0}]}, seed=1,
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
        z = dyn.zeta_fisher(sp.constant(2, 4, 0.0))
        assert np.all(z.coeffs == 0.0)

    def test_fisher_trig_identity(self):
        # (2cos)^2 - 2cos = 2 + 2cos(4 pi x) - 2cos(2 pi x)
        u = mode_pair(2, 4, (1, 0))
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
        rho = mode_pair(2, 4, (1, 0))
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
    pot = laplacian_inverse(rho)
    out = np.zeros_like(rho.coeffs)
    for ax, gpot in enumerate(sp.gradient(pot)):
        flux = _dense_product(rho.coeffs, gpot.coeffs)
        out -= sp.TWO_PI * 1j * sp._mode_grids(rho.d, rho.M)[ax] * flux
    return out


def _half(f: sp.SpectralField) -> np.ndarray:
    """The half block k_0 = 0..M of a field, the layout of the integrator's state."""
    return np.ascontiguousarray(f.coeffs[f.M:])


def _l2sq(blocks) -> list:
    """Each half block's sum |u_k|^2 over its full block: the squared L2 norm
    integrate hands the grid pass for Fisher's mean."""
    return [float(np.sum(np.abs(sp.hermitian_block(b)) ** 2)) for b in blocks]


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
    # N > M at d = 3: 2M+N+1 = 8 > 3M+1 = 7 sets the grid, and Keller-Segel's W
    # lives on the larger block of N; N <= M puts V in the middle of M's
    @pytest.mark.parametrize("d,M,N,zeta", [
        (3, 2, 3, "keller_segel"), (2, 4, 3, "keller_segel"), (3, 2, 1, "keller_segel"),
        (2, 4, 3, "fisher")])
    def test_fused_pass_matches_field_path(self, d, M, N, zeta):
        # the one forcing back, zeta(u) + T/dt, against the brute-force zeta and
        # the transport term over dt
        cfg = make_cfg(d=d, M=M, b=1.0, noise_N=N, zeta=zeta, dt=0.01)
        eng = dyn._Engine(cfg)
        rng = np.random.default_rng(11)
        u = sp.random_field(rng, d, M, 1.0, 1.0, mean=0.6)
        inc = nm.sample_increments(eng.theta, cfg.dt, rng)
        h = eng.zeta_block(_half(u)[None], eng.velocity(inc.values[None])[0],
                           l2sq=_l2sq([_half(u)]))[0]
        if zeta == "keller_segel":
            ref = _brute_force_keller_segel(u)
        else:  # the pass gives u^2: Fisher's -u is in the linear multiplier
            ref = _dense_product(u.coeffs, u.coeffs) - u.coeffs
            h = h - _half(u)
        ref = ref + nm.transport_term(u, eng.theta, inc,
                                      nm.amplitude_A(cfg.b, eng.theta)).coeffs / cfg.dt
        assert np.max(np.abs(sp.hermitian_block(h) - ref)) <= 1e-12

    @pytest.mark.parametrize("d,zeta", [(2, "fisher"), (3, "keller_segel")])
    def test_constant_field_gives_exact_zeros(self, d, zeta):
        # the differentiated DFT matrices vanish on the k = 0 column exactly, and
        # Keller-Segel's rho - mean(rho) is exactly 0
        cfg = make_cfg(d=d, M=3, b=1.0, noise_N=2, zeta=zeta)
        eng = dyn._Engine(cfg)
        f = sp.constant(d, 3, 0.8)
        dw = nm.sample_increments(eng.theta, 0.01, np.random.default_rng(17)).values
        # the transport alone: the pass at the cut-off's zero
        transport = eng.zeta_block(_half(f)[None], eng.velocity(dw[None])[0], [0.0],
                                   _l2sq([_half(f)]))
        lay = eng._lay
        if zeta == "keller_segel":  # every flux rho' W_a on the grid
            assert np.all(lay.rho_grid == 0.0) and np.all(lay.back.input == 0.0)
        else:
            assert all(np.all(g == 0.0) for g in lay.grad_u)
        assert np.all(transport == 0.0)
        A = nm.amplitude_A(cfg.b, eng.theta)
        inc = nm.NoiseIncrements(0.01, eng.theta.half_modes, dw)
        out = nm.transport_term(f, eng.theta, inc, A)
        assert np.all(out.coeffs == 0.0)

    @pytest.mark.parametrize("d,zeta", [(2, "fisher"), (3, "keller_segel")])
    def test_reused_engine_matches_fresh_engine(self, d, zeta):
        # the work arrays carry nothing from one call to the next, also across
        # the cut-off's zero, where the pass runs and its zeta is left out
        cfg = make_cfg(d=d, M=3, b=1.0, noise_N=2, zeta=zeta)
        eng = dyn._Engine(cfg)
        rng = np.random.default_rng(12)
        u, v = (_half(sp.random_field(rng, d, 3, 1.0, 1.0, mean=0.6)) for _ in range(2))
        dw_u, dw_v = (nm.sample_increments(eng.theta, 0.01, rng).values[None] for _ in range(2))
        # the transport over dt: the pass of the noise alone at the amplitude A/dt
        theta = eng.theta
        alone = dyn.GridPass(d, 3, noise=[(theta, nm.amplitude_A(cfg.b, theta) / cfg.dt)])
        # all 8 combinations of block, cut-off (on, at zero) and increments,
        # forward and back, so each input switches in both directions
        calls = [(blk, lval, dw) for blk in (u, v) for lval in (0.7, 0.0) for dw in (dw_u, dw_v)]
        calls += calls[::-1]
        for block, lval, dw in calls:
            sq = _l2sq([block])
            got = eng.drift_block(block[None], [lval], eng.velocity(dw)[0], sq).copy()
            fresh = dyn._Engine(cfg)
            assert np.array_equal(got, fresh.drift_block(block[None], [lval], fresh.velocity(dw)[0],
                                                         sq))
            if lval == 0.0:  # lin u + T/dt
                want = eng.lin_mult * block + alone.zeta_block(block[None], alone.velocity(dw)[0])
                if zeta == "keller_segel":  # T as div(u V), to rounding
                    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
                else:
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("d,zeta", [(2, "fisher"), (3, "keller_segel"), (2, "none")])
    @pytest.mark.parametrize("lval", [1.0, 0.7, 0.0])
    def test_forcing_is_lin_plus_cut_zeta_plus_transport_over_dt(self, d, zeta, lval):
        # G = lin u + lval zeta(u) + T/dt, and the transport never enters G's mean:
        # it is (lin_0 - lval) u_0 + lval sum |u_k|^2 for Fisher, lin_0 u_0 otherwise
        cfg = make_cfg(d=d, M=3, b=1.0, noise_N=2, zeta=zeta, dt=0.01)
        eng = dyn._Engine(cfg)
        rng = np.random.default_rng(19)
        u = sp.random_field(rng, d, 3, 1.0, 1.0, mean=0.6)
        incs = [nm.sample_increments(eng.theta, cfg.dt, rng) for _ in range(2)]
        g = [eng.drift_block(_half(u)[None], [lval], eng.velocity(inc.values[None])[0],
                             [np.sum(np.abs(u.coeffs) ** 2)])[0].copy() for inc in incs]
        mean = (0,) + (3,) * (d - 1)
        assert g[0][mean] == g[1][mean]
        u0 = u.coeffs[(3,) * d]
        if zeta == "fisher":
            want = (eng.lin_mult[0][mean] - lval) * u0 + lval * np.sum(np.abs(u.coeffs) ** 2)
            assert abs(g[0][mean] - want) <= 1e-15 * abs(want)
        else:
            assert g[0][mean] == eng.lin_mult[0][mean] * u0
        zeta_f = {"fisher": dyn.zeta_fisher, "keller_segel": dyn.zeta_keller_segel}.get(zeta)
        z = zeta_f(u).coeffs if zeta_f else 0.0
        t = nm.transport_term(u, eng.theta, incs[0], nm.amplitude_A(cfg.b, eng.theta)).coeffs
        lin = sp.hermitian_block(eng.lin_mult[0] * _half(u))
        assert np.max(np.abs(sp.hermitian_block(g[0]) - (lin + lval * z + t / cfg.dt))) <= 1e-12

    @pytest.mark.parametrize("d,M,zeta,lvals,Ns", [
        (2, 4, "fisher", [0.7], [2]), (3, 3, "keller_segel", [0.7], [2]), (2, 4, "fisher", [0.0], [2]),
        # a batch step: two members, their own cut-off values, one grid pass
        (2, 4, "fisher", [1.0, 0.7], [2, 4]), (3, 3, "keller_segel", [0.0, 1.0], [2, 3]),
        # N > M: Keller-Segel's W on the larger block of N
        (3, 2, "keller_segel", [0.7], [3])],
        ids=["2-4-fisher-0.7", "3-3-keller_segel-0.7", "2-4-fisher-0.0", "2-4-fisher-batch",
             "3-3-keller_segel-batch", "3-2-keller_segel-N3"])
    def test_steady_calls_allocate_no_block(self, d, M, zeta, lvals, Ns):
        # after one warm-up call per layout, no single allocation of the calls
        # reaches one member's half block, and they keep nothing
        eng = dyn._Engine(*(make_cfg(d=d, M=M, b=1.0, noise_N=N, zeta=zeta) for N in Ns))
        rng = np.random.default_rng(14)
        one = _half(sp.random_field(rng, d, M, 1.0, 1.0, mean=0.6))
        u = np.array([one * (1.0 + b) for b in range(len(Ns))])
        dws = [nm.sample_increments(eng.theta, 0.01, rng).values[None] for _ in range(50)]
        sqs = _l2sq(u)
        eng.drift_block(u, lvals, eng.velocity(dws[0])[0], sqs)

        def steady():
            for dw in dws:
                eng.drift_block(u, lvals, eng.velocity(dw)[0], sqs)

        largest, kept = _steady_allocations(steady)
        assert largest < one.nbytes
        assert kept < one.nbytes

    def test_public_results_are_not_work_arrays(self):
        cfg = make_cfg(b=1.0, zeta="fisher")
        rng = np.random.default_rng(13)
        u, v = (sp.random_field(rng, 2, 4, 1.0, 1.0, mean=0.6) for _ in range(2))
        theta = nm.make_theta_cutoff(2, 2)
        inc = nm.sample_increments(theta, 0.01, rng)
        A = nm.amplitude_A(1.0, theta)
        funcs = [lambda f: dyn.drift(f, cfg), dyn.zeta_fisher, dyn.zeta_keller_segel,
                 lambda f: nm.transport_term(f, theta, inc, A)]
        first = [fn(u) for fn in funcs]
        kept = [f.coeffs.copy() for f in first]
        for fn in funcs:
            fn(v)
        for f, c in zip(first, kept):
            assert np.array_equal(f.coeffs, c)


class TestVelocityBlock:
    """V of K steps from one velocity pass, as integrate builds it."""

    @pytest.mark.parametrize("d,M,N,K", [(2, 4, 4, 24), (3, 3, 2, 5)])
    def test_block_matches_one_step_calls(self, d, M, N, K, monkeypatch):
        # the engine's own block holds K steps of point values
        R = dyn._grid_size(M, N)
        monkeypatch.setattr(dyn, "VELOCITY_BLOCK_BYTES", K * 8 * d * R**d)
        eng = dyn._Engine(make_cfg(d=d, M=M, b=1.0, noise_N=N))
        assert eng.K == K
        rng = np.random.default_rng(15)
        dw = np.array([nm.sample_increments(eng.theta, 0.01, rng).values for _ in range(K)])
        block = [np.array(v) for v in eng.velocity(dw)]
        assert len(block) == K
        for k in range(K):
            assert np.array_equal(np.array(eng.velocity(dw[k:k + 1])[0]), block[k]), f"step {k}"

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

    @pytest.mark.parametrize("d,M,zeta,Ns", [
        (2, 4, "fisher", [2]), (3, 3, "keller_segel", [2]),
        # the N = 2 member reads a prefix of each step's draw at N = 4
        (2, 4, "fisher", [2, 4])], ids=["2-4-fisher", "3-3-keller_segel", "2-4-fisher-batch"])
    def test_steady_block_calls_allocate_no_block(self, d, M, zeta, Ns):
        # integrate's pattern after a warm-up at its K: one velocity pass over
        # keyed draws into one buffer, then K grid passes that read their V from it
        eng = dyn._Engine(*(make_cfg(d=d, M=M, b=1.0, noise_N=N, zeta=zeta) for N in Ns))
        K = eng.K
        rng = np.random.default_rng(16)
        one = _half(sp.random_field(rng, d, M, 1.0, 1.0, mean=0.6))
        u = np.array([one * (1.0 + b) for b in range(len(Ns))])
        # blocks of increments in the layout of integrate's draw buffer
        draws = nm.increment_buffer(eng.theta, K)
        blocks = []
        for i in range(4):
            nm.draw_increments(eng.theta, 0.01, [np.random.default_rng([i, k]) for k in range(K)], draws)
            blocks.append(draws.copy())
        dw, lvals, sqs = draws.view(np.complex128)[..., 0], [0.7] * len(Ns), _l2sq(u)
        for vel in eng.velocity(dw):
            eng.drift_block(u, lvals, vel, sqs)

        def steady():
            for block in blocks:
                np.copyto(draws, block)
                for vel in eng.velocity(dw):
                    eng.drift_block(u, lvals, vel, sqs)

        largest, kept = _steady_allocations(steady)
        assert largest < one.nbytes
        assert kept < one.nbytes

    @pytest.mark.parametrize("d,M,zeta,Ns", [
        (2, 4, "fisher", [2]), (3, 3, "keller_segel", [2]), (2, 4, "fisher", [2, 4])],
        ids=["2-4-fisher", "3-3-keller_segel", "2-4-fisher-batch"])
    def test_first_call_allocates_no_block(self, d, M, zeta, Ns):
        # the velocity block is bound when the engine is built: the first call
        # of a fresh engine, on a full block of increments as integrate draws
        # it, allocates nothing as large as one member's block of V
        engines = [dyn._Engine(*(make_cfg(d=d, M=M, b=1.0, noise_N=N, zeta=zeta) for N in Ns))
                   for _ in range(2)]
        K, R = engines[0].K, engines[0].R
        rng = np.random.default_rng(18)
        dw = np.array([nm.sample_increments(engines[0].theta, 0.01, rng).values for _ in range(K)])
        fresh = iter(engines)  # steady() runs twice, each time on an engine not called yet

        def steady():
            next(fresh).velocity(dw)

        largest, _ = _steady_allocations(steady)
        assert largest < K * d * R**d * 8


def _same_record(got, want):
    for name in ("times", "l2", "hs", "hneg_gamma", "mean", "cutoff"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.blew_up, got.blowup_time, got.config_hash, got.run_index) == (
        want.blew_up, want.blowup_time, want.config_hash, want.run_index)
    assert [n for n, _ in got.snapshots] == [n for n, _ in want.snapshots]
    for (_, f), (_, g) in zip(got.snapshots, want.snapshots):
        assert np.array_equal(f.coeffs, g.coeffs)


# the delay_ensemble benchmark's study: d=2, M=4, levels N = 2, 4 on R = 13
DELAY = dict(b=2.0, S=1e7, dt=1e-4, t_end=2.0, zeta="fisher", blowup_threshold=1e6,
             init={"mean": 2.0, "delta0": 2.0})
# fluctuation-led blow-up: the members blow up far apart, or not at all
STAGGERED = dict(b=2.0, S=1e7, dt=1e-4, t_end=0.6, zeta="fisher", seed=2026,
                 init={"mean": 0.9, "delta0": 400.0})
# the largest noise blows up first, in the middle of a velocity block (K = 6 at
# M = 8): the member left goes on reading its prefix of the largest noise's draws
LARGEST_FIRST = dict(M=8, beta=0.9, b=2.0, S=10.0, dt=1e-5, t_end=0.002, zeta="fisher", seed=3,
                     init={"mean": 0.5, "delta0": 0.01})
# Keller-Segel above the aggregation threshold of its lowest modes: N = 1 blows up
# at step 318, the largest noise N = 3 at 341, N = 2 at 345, each in the middle
# of a velocity block (K = 24)
KS_STAGGERED = dict(b=1.0, S=1e7, dt=1e-4, t_end=0.04, zeta="keller_segel", seed=1,
                    blowup_threshold=1e4, init={"mean": 250.0, "delta0": 1.0})
# the runs start in the cut-off's zero and leave it at different steps
CUTOFF = dict(b=1.0, S=0.55, dt=1e-4, t_end=0.03, zeta="fisher", seed=3,
              init={"mean": 1.5, "delta0": 0.5})


class TestBatch:
    """integrate_batch: the noise levels of one run as one stack."""

    @pytest.mark.parametrize("kw,Ns,run", [
        (dict(DELAY, seed=1), (2, 4), 0), (dict(DELAY, seed=1), (2, 4), 1),
        (dict(DELAY, seed=2), (2, 4), 0), (dict(DELAY, seed=2), (2, 4), 1),
        # beta = 0.9: a Volterra history per member, snapshots
        (dict(beta=0.9, b=0.5, S=10.0, dt=2.5e-5, t_end=110 * 2.5e-5, zeta="fisher", seed=4,
              init={"mean": 0.5, "delta0": 0.01}, snapshot_stride=13), (2, 4), 2),
        # N = 1 blows up at 0.43, N = 2 at 0.44, N = 3 at 0.54; the largest noise is first
        (STAGGERED, (3, 1, 2), 0),
        # N = 1 blows up at 0.52, N = 2 at 0.57, N = 3 runs to the end
        (STAGGERED, (3, 1, 2), 2),
        # the same, with the cut-off and threshold off: they blow up on a non-finite norm
        (dict(STAGGERED, S=1e300, blowup_threshold=1e300), (3, 1, 2), 0),
        # d=3, M=8 Keller-Segel: the from-grid GEMM of one member over its rows
        (dict(d=3, M=8, b=1.0, S=10.0, dt=5e-5, t_end=6e-4, zeta="keller_segel", seed=5,
              init={"mean": 1.0, "delta0": 0.05}, snapshot_stride=4), (2, 4), 1),
        # N = 2 blows up at step 164, N = 1 at step 170
        (LARGEST_FIRST, (2, 1), 3),
        # the divergence form: each member that blew up a zero block, its forcing 0
        (KS_STAGGERED, (3, 1, 2), 0),
        # the cut-off acts: the members step at their own values in (0, 1), or one
        # of them at 0 while the other is not
        (CUTOFF, (2, 1), 0), (dict(CUTOFF, beta=0.95), (2, 1), 0),
        (dict(CUTOFF, d=3, M=3, t_end=0.01, zeta="keller_segel"), (2, 1), 0),
    ], ids=["delay-s1-r0", "delay-s1-r1", "delay-s2-r0", "delay-s2-r1", "beta0.9",
            "staggered", "one-survives", "non-finite", "d3-keller-segel", "largest-first",
            "d2-keller-segel-staggered",
            "cutoff-fisher", "cutoff-beta0.95", "cutoff-d3-keller-segel"])
    def test_members_equal_their_own_runs(self, kw, Ns, run):
        cfgs = [make_cfg(noise_N=N, **kw) for N in Ns]
        with np.errstate(over="ignore", invalid="ignore"):
            batch = dyn.integrate_batch(cfgs, run)
            for cfg, rec in zip(cfgs, batch):
                _same_record(rec, dyn.integrate(cfg, run))
                # columns of one step table, also for a member that blew up early
                for name in ("times", "l2", "hs", "hneg_gamma", "mean", "cutoff"):
                    a = getattr(rec, name)
                    assert a.dtype == np.float64 and a.base is rec.times.base, name
                    assert a.shape == rec.times.shape, name
                # integrate is the same stepper: a record also ends at its own blow-up
                assert np.all(rec.l2[:-1] <= cfg.blowup_threshold)
                assert rec.blew_up or len(rec.times) == cfg.n_steps + 1
        if kw is STAGGERED:
            times = [rec.blowup_time for rec in batch]
            assert times[1] < times[2] and (times[0] is None or times[2] < times[0])
        if kw is LARGEST_FIRST:
            assert [len(rec.times) - 1 for rec in batch] == [164, 170]
        if kw is KS_STAGGERED:
            assert [len(rec.times) - 1 for rec in batch] == [341, 318, 345]
        if kw.get("S") == CUTOFF["S"]:
            pairs = list(zip(batch[0].cutoff, batch[1].cutoff))
            assert any(0.0 < a != b > 0.0 for a, b in pairs)
            assert any((a == 0.0) != (b == 0.0) for a, b in pairs)

    @pytest.mark.parametrize("d,Ns", [(2, (1, 2, 4)), (3, (1, 2, 3))])
    def test_prefix_draws_equal_own_draws(self, d, Ns):
        # one draw at the largest N holds each smaller level's own draw as a prefix
        big = nm.make_theta_cutoff(max(Ns), d)
        for step in (0, 1, 57):
            drawn = nm.sample_increments(big, 1e-3, dyn.step_rng(9, 3, step)).values
            for N in Ns:
                theta = nm.make_theta_cutoff(N, d)
                own = nm.sample_increments(theta, 1e-3, dyn.step_rng(9, 3, step)).values
                assert np.array_equal(drawn[:theta.n_half], own), (N, step)

    def test_draws_once_per_step_at_the_largest_level(self, monkeypatch):
        cfgs = [make_cfg(M=4, b=1.0, noise_N=N, dt=1e-4, t_end=3e-3) for N in (4, 2)]
        drawn = []  # the modes drawn at each step, from the blocks of keyed draws
        draw = nm.draw_increments
        monkeypatch.setattr(nm, "draw_increments", lambda *args: (
            lambda dw: drawn.extend([dw.shape[1]] * len(dw)) or dw)(draw(*args)))
        dyn.integrate_batch(cfgs)
        assert drawn == [nm.make_theta_cutoff(4, 2).n_half] * cfgs[0].n_steps

    @pytest.mark.parametrize("zeta", dyn.ZETA_KINDS)
    def test_one_transform_back_per_step(self, zeta, monkeypatch):
        # the nonlinearity and the transport come back summed, in one channel, or
        # for Keller-Segel as the d fluxes of one divergence
        cfg = make_cfg(b=1.0, noise_N=2, zeta=zeta, dt=1e-4, t_end=3e-3,
                       init={"mean": 0.5, "delta0": 0.01})
        channels = []
        from_grid = dyn._Engine._from_grid
        monkeypatch.setattr(dyn._Engine, "_from_grid", lambda eng, plan: channels.append(
            len(plan.input)) or from_grid(eng, plan))
        dyn.integrate(cfg)
        assert channels == [cfg.d if zeta == "keller_segel" else 1] * cfg.n_steps

    def test_one_engine_and_one_draw_buffer_per_call(self, monkeypatch):
        # the members blow up at three different steps, and each stays in the
        # stack as a zero block whose forcing is exactly 0: nothing is rebuilt,
        # and the run ends when the last member blows up
        cfgs = [make_cfg(noise_N=N, **STAGGERED) for N in (3, 1, 2)]
        built, buffers, zeros = [], [], []
        engine, buffer, drift = dyn._Engine.__init__, nm.increment_buffer, dyn._Engine.drift_block

        def drift_block(eng, blocks, *args):
            g = drift(eng, blocks, *args)
            zeros.append([(not u.any(), not g_b.any()) for u, g_b in zip(blocks, g)])
            return g

        monkeypatch.setattr(dyn._Engine, "__init__",
                            lambda eng, *c: built.append(c) or engine(eng, *c))
        monkeypatch.setattr(dyn._Engine, "drift_block", drift_block)
        monkeypatch.setattr(nm, "increment_buffer", lambda *a: buffers.append(a) or buffer(*a))
        batch = dyn.integrate_batch(cfgs)
        assert built == [tuple(cfgs)] and len(buffers) == 1
        left = [round(rec.blowup_time / rec.dt) for rec in batch]
        assert len(set(left)) == 3 and len(zeros) == max(left)
        for n, row in enumerate(zeros):
            assert row == [(n >= m, n >= m) for m in left], n

    def test_records_do_not_copy_the_step_table(self):
        # 20 001 steps: the table of the six recorded columns is 0.96 MB, and the
        # record's arrays are its columns, not a copy
        cfg = make_cfg(M=1, dt=1e-4, t_end=2.0)
        table = (cfg.n_steps + 1) * 6 * 8
        dyn.integrate(replace(cfg, t_end=1e-3))  # the caches of the first run
        tracemalloc.start()
        try:
            rec = dyn.integrate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rec.times) == cfg.n_steps + 1 == 20_001
        assert peak - table < table
        assert rec.l2.strides == (48,) and rec.times.base.nbytes == table

    def test_early_blow_up_copies_its_rows(self):
        # Fisher at mean 30 blows up at step 333: of 20 001 rows its record holds
        # a copy of 334, while at 401 rows (more than a quarter) it keeps the views
        cfg = make_cfg(M=2, S=1e7, dt=1e-4, t_end=2.0, zeta="fisher",
                       init={"mean": 30.0, "delta0": 6.5})
        rec, short = dyn.integrate(cfg), dyn.integrate(replace(cfg, t_end=0.04))
        assert rec.blew_up and len(rec.times) == len(short.times) == 334
        assert rec.times.base.nbytes == 334 * 48 and short.times.base.nbytes == 401 * 48
        for name in ("times", "l2", "hs", "hneg_gamma", "mean", "cutoff"):
            a, b = getattr(rec, name), getattr(short, name)
            assert a.base is rec.times.base and a.tobytes() == b.tobytes(), name
        assert rec.blowup_time == short.blowup_time

    def test_refuses_configs_that_differ_in_more_than_the_noise(self):
        cfg = make_cfg(M=4, b=1.0, noise_N=2)
        for other in (replace(cfg, b=2.0), replace(cfg, noise_N=6), replace(cfg, noise_N=0, b=0.0)):
            with pytest.raises(InvalidParameterError, match="batch"):
                dyn.integrate_batch([cfg, other])


class TestDrift:
    def test_pure_multiplier_mode(self):
        cfg = make_cfg(b=2.0, s=1.5)
        u = mode_pair(2, 4, (1, 2))
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
        u = mode_pair(2, 4, (1, 0))
        g = dyn.drift(u, cfg)
        assert g.coeff((1, 0)) == pytest.approx(-4 * math.pi**2, rel=1e-13)

    def test_field_off_the_config_modes_refused(self):
        cfg = make_cfg(zeta="fisher")
        with pytest.raises(ShapeError, match=r"\(2, 6\).*\(2, 4\)"):
            dyn.drift(sp.constant(2, 6, 0.0), cfg)


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

    @pytest.mark.parametrize("dt", [5e-324, 1e-310])
    def test_subnormal_dt_refused_by_the_step_cap(self, dt):
        # t_end/dt is inf or beyond any int a float rounds to without overflow
        with pytest.raises(InvalidParameterError, match="cap"):
            make_cfg(dt=dt, t_end=1.0)

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
        nm.make_theta_cutoff.cache_clear()
        fresh = dyn.integrate(cfg)
        cached = dyn.integrate(cfg)
        assert np.array_equal(fresh.l2, cached.l2)
        assert np.array_equal(fresh.snapshots[-1][1].coeffs, cached.snapshots[-1][1].coeffs)

    def test_noise_basis_read_only(self):
        # the cached theta and its q are shared by every engine at their (N, d)
        theta = nm.make_theta_cutoff(2, 3)
        with pytest.raises(ValueError):
            theta.q[0, 0, 0] = 1.0

    def test_cutoff_shares_one_theta_per_support(self):
        assert nm.make_theta_cutoff(3, 2) is nm.make_theta_cutoff(3, 2)

    def test_rekeyed_draws_match_step_rng(self, monkeypatch):
        # K = 83 at M = 2: the 200 steps cross two block boundaries and end on a short block
        cfg = make_cfg(M=2, b=1.0, noise_N=2, dt=1e-4, t_end=0.02, seed=13)
        drawn = []  # each step's increments, copied out of the block buffer
        draw = nm.draw_increments
        monkeypatch.setattr(nm, "draw_increments", lambda *args: (
            lambda dw: drawn.extend(dw.copy()) or dw)(draw(*args)))
        dyn.integrate(cfg, run_index=4)
        monkeypatch.undo()  # sample_increments below draws through it too
        theta = nm.make_theta_cutoff(2, 2)
        assert len(drawn) == cfg.n_steps == 200
        for n, inc in enumerate(drawn):
            ref = nm.sample_increments(theta, cfg.dt, dyn.step_rng(13, 4, n)).values
            assert np.array_equal(inc, ref), f"step {n}"


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
    @pytest.mark.parametrize("kw", [
        dict(M=4, beta=0.9, b=0.5, noise_N=1, dt=2e-5, t_end=4e-3,
             init={"mean": 0.5, "delta0": 0.01}, seed=10, S=10.0),
        # the first 35 (beta = 1) and 31 (beta = 0.95) steps sit at the cut-off's zero
        dict(M=4, beta=1.0, b=1.0, noise_N=2, dt=1e-4, t_end=0.03,
             init={"mean": 1.5, "delta0": 0.5}, seed=3, S=0.55),
        dict(M=4, beta=0.95, b=1.0, noise_N=2, dt=1e-4, t_end=0.03,
             init={"mean": 1.5, "delta0": 0.5}, seed=3, S=0.55),
    ], ids=["beta0.9-N1", "cutoff-zero-beta1", "cutoff-zero-beta0.95"])
    def test_noisy_fractional_matches_dense_reference(self, kw):
        """The noisy path against the dense Volterra-Euler reference (plain
        Euler-Maruyama at beta = 1), over more steps than the exact lags, so
        the folded tail of the history is in use at beta < 1."""
        from _reference import independent_euler_maruyama

        cfg = make_cfg(zeta="fisher", snapshot_stride=1, **kw)
        assert cfg.n_steps > _EXACT_LAGS + _FOLD_BLOCK
        rec = dyn.integrate(cfg)
        drive = []
        ref = independent_euler_maruyama(cfg, drive=drive)
        assert not rec.blew_up and len(rec.snapshots) == cfg.n_steps + 1
        if cfg.S < 1.0:  # the run starts in the cut-off's zero and leaves it
            assert rec.cutoff[0] == 0.0 and rec.cutoff[-1] > 0.0
        # The one approximation is the folded tail: each of its weights is within
        # _TAIL_TOL of c_j relative, so u_n is off by at most
        # _TAIL_TOL * sum_{j<=n} c_j * max |G_k|, and sum_{j<=n} c_j = t_n^beta / Gamma(beta+1).
        bound = _TAIL_TOL * cfg.t_end**cfg.beta / math.gamma(cfg.beta + 1.0) * max(
            float(np.max(np.abs(g))) for g in drive)
        worst = max(float(np.max(np.abs(f.coeffs - r))) for (_, f), r in zip(rec.snapshots, ref))
        assert worst <= bound

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspde import fractional
from fracspde.errors import InvalidParameterError, OutOfRangeError, ShapeError
from fracspde.fractional import (
    VolterraHistory,
    kernel_increments,
    mittag_leffler,
    solve_caputo_scalar_ode,
)

from _reference import comparison_oracle


class TestKernelWeights:
    """The weights c_1..c_n of kernel_increments (lag 0 never contributes)."""

    def test_classical_limit_is_dt(self):
        w = kernel_increments(1.0, 0.1, 3)[1:]
        assert np.array_equal(w, [0.1, 0.1, 0.1])

    def test_half_order_first_weight(self):
        # (1^0.5 - 0) / Gamma(1.5) = 2/sqrt(pi)
        w = kernel_increments(0.5, 1.0, 1)[1:]
        assert w.shape == (1,)
        assert w[0] == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-12)

    def test_telescoping_sum(self):
        beta, dt, n = 0.75, 0.01, 2
        w = kernel_increments(beta, dt, n)[1:]
        total = (n * dt) ** beta / math.gamma(beta + 1.0)
        assert w.sum() == pytest.approx(total, rel=1e-12)

    @given(
        beta=st.floats(0.05, 1.0),
        dt=st.floats(1e-6, 10.0),
        n=st.integers(1, 200),
    )
    @settings(max_examples=80, deadline=None)
    def test_positivity_and_telescoping(self, beta, dt, n):
        w = kernel_increments(beta, dt, n)[1:]
        assert np.all(w > 0.0)
        total = (n * dt) ** beta / math.gamma(beta + 1.0)
        assert w.sum() == pytest.approx(total, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            kernel_increments(0.0, 0.1, 1)
        with pytest.raises(InvalidParameterError):
            kernel_increments(1.2, 0.1, 1)
        with pytest.raises(InvalidParameterError):
            kernel_increments(0.5, -0.1, 1)
        with pytest.raises(InvalidParameterError):
            kernel_increments(0.5, 0.1, -1)

    def test_increments_lag_zero_unused(self):
        c = kernel_increments(0.7, 0.1, 4)
        assert c[0] == 0.0


class TestVolterraHistory:
    # below the window, on the fold boundary (n0 + B = 80), one past it, at the
    # buffer's first shift (n0 + 2B + 1 = 145) and well past it
    STEPS = (50, 80, 81, 145, 1000)

    @pytest.mark.parametrize("P", [1, 7])
    @pytest.mark.parametrize("beta", [0.3, 0.51, 0.75, 0.9, 0.99])
    def test_matches_dense_history(self, beta, P):
        from _reference import DenseHistory

        rng = np.random.default_rng(int(beta * 100) + P)
        for steps in self.STEPS:
            c = kernel_increments(beta, 1e-3, steps)
            hist, dense = VolterraHistory(c, P), DenseHistory(c, P)
            for n in range(steps):
                # positive rows: no cancellation, so the error is the weight error
                g = rng.random(P) + 1j * rng.random(P)
                got, want = hist.push(g), dense.push(g)
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), (steps, n)

    def test_tail_folded_into_few_modes(self):
        hist = VolterraHistory(kernel_increments(0.9, 2.5e-5, 2000), 1)
        assert hist.n_modes <= 80

    def test_fold_allocates_nothing_of_the_modes_size(self):
        # every _FOLD_BLOCK pushes the oldest rows are folded into the modes in
        # place; a broadcast decay and a fresh product took 147 kB per fold at
        # this size (d=2, M=8, beta = 0.9: 60 modes of 306 floats)
        P = 153
        hist = VolterraHistory(kernel_increments(0.9, 2.5e-5, 2000), P)
        g = np.full(P, 0.5 + 0.25j)
        peaks = []
        for _ in range(200):  # folds at pushes 81 and 145
            tracemalloc.start()
            try:
                hist.push(g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert hist._folded
        assert max(peaks) < hist._modes.nbytes // 8

    def test_uncompressible_kernel_refused(self):
        # beta = 1 has no sum-of-exponentials tail (sin(pi beta) = 0)
        with pytest.raises(InvalidParameterError, match=r"beta = 1 and 500 steps"):
            VolterraHistory(kernel_increments(1.0, 1e-3, 500), 1)

    def test_scalar_solver_matches_dense_history(self, monkeypatch):
        from _reference import DenseHistory

        rhs = lambda x: x * x - x
        traj = solve_caputo_scalar_ode(rhs, 0.8, 0.9, 1e-3, 5.0)
        monkeypatch.setattr(fractional, "VolterraHistory", DenseHistory)
        ref = solve_caputo_scalar_ode(rhs, 0.8, 0.9, 1e-3, 5.0)
        assert len(traj.values) == len(ref.values) == 5001
        assert np.max(np.abs(traj.values - ref.values)) <= 1e-9 * np.max(np.abs(ref.values))


class TestMittagLeffler:
    def test_package_import_leaves_mpmath_unloaded(self):
        # only the series imports mpmath, so the CLI and the simulator do not pay for it
        src = str(Path(fractional.__file__).resolve().parents[1])
        code = "import sys, fracspde; print('mpmath' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                 [src, os.environ.get("PYTHONPATH", "")])})
        assert out.stdout.strip() == "False"

    def test_exponential_case(self):
        assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, abs=1e-12)

    def test_at_zero_is_one(self):
        assert mittag_leffler(1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_cosh_case(self):
        assert mittag_leffler(2.0, 1.0, 1.0) == pytest.approx(math.cosh(1.0), abs=1e-12)

    def test_negative_argument_alternating_series(self):
        # heavy cancellation regime; reference from the completely monotone
        # representation via high-precision summation (frozen value)
        val = mittag_leffler(0.8, 1.0, -18.0)
        assert 0.0 < val < 0.05
        assert mittag_leffler(1.0, 1.0, -18.0) == pytest.approx(math.exp(-18.0), abs=1e-10)

    def test_two_parameter_identity(self):
        # E_{1,2}(z) = (e^z - 1)/z
        z = 2.5
        assert mittag_leffler(1.0, 2.0, z) == pytest.approx((math.exp(z) - 1.0) / z, rel=1e-12)

    def test_truncation_is_converged(self):
        # appending further terms must not move the value beyond tolerance
        import mpmath

        z, alpha = -12.0, 0.6
        base = mittag_leffler(alpha, 1.0, z)
        with mpmath.workdps(80):
            a = mpmath.mpf(alpha)
            total = mpmath.mpf(0)
            for k in range(3000):
                term = mpmath.mpf(z) ** k * mpmath.rgamma(a * k + 1)
                total += term
                if k > 50 and abs(term) < mpmath.mpf(10) ** -70:
                    break
            ref = float(total)
        assert base == pytest.approx(ref, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            mittag_leffler(0.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            mittag_leffler(1.0, -1.0, 1.0)
        # past 1e10 the doubles that size the series lose whole units of L(k):
        # at gamma = 1.63e85 the peak read 1.9e71 digits above E, and mpmath overflowed
        for alpha, gamma_par in ((1e11, 1.0), (1.0, 1.6e85), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(InvalidParameterError):
                mittag_leffler(alpha, gamma_par, 12.0)

    def test_out_of_range_refuses(self):
        with pytest.raises(OutOfRangeError):
            mittag_leffler(0.8, 1.0, 25.0)
        with pytest.raises(OutOfRangeError):
            mittag_leffler(0.8, 1.0, -25.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0, 1.5, 2.0])
    def test_grid_matches_twice_the_precision_and_length(self, monkeypatch, alpha):
        # every value equals the series summed again at twice the digits and the
        # terms mittag_leffler used, or is refused by name; at alpha <= 0.5 only
        # gamma = 1 is run, as each of those references takes up to 2 s
        import mpmath

        from _reference import mittag_leffler_series

        workdps, rgamma, used, cases = mpmath.workdps, mpmath.rgamma, {}, []
        monkeypatch.setattr(mpmath, "workdps",
                            lambda n: used.update(dps=max(n, used["dps"])) or workdps(n))
        monkeypatch.setattr(mpmath, "rgamma",
                            lambda x: used.update(n=used["n"] + 1) or rgamma(x))
        for g in (1.0,) if alpha <= 0.5 else (0.5, 1.0, 2.0):
            for z in (20.0, -20.0, -15.0, -10.0, -5.0, -1.0, 0.5, 5.0, 0.0):
                used.update(dps=mpmath.mp.dps, n=0)
                try:
                    cases.append((g, z, mittag_leffler(alpha, g, z), used["dps"], used["n"]))
                except OutOfRangeError as exc:
                    assert f"{fractional.ML_MAX_TERMS} series terms" in str(exc)
        monkeypatch.undo()
        assert cases
        for g, z, value, dps, n in cases:
            ref = mittag_leffler_series(alpha, g, z, 2 * dps, 2 * n)
            assert value == pytest.approx(ref, rel=1e-12, abs=0.0), (g, z)

    @pytest.mark.parametrize("z,value", [(-15.0, 0.037529606388505766),
                                         (-20.0, 0.028174348741051319)])
    def test_half_order_closed_form(self, z, value):
        # E_{1/2}(z) = e^{z^2} erfc(-z), which the series cancels down to from 1e96 and 1e172
        import mpmath

        with mpmath.workdps(50):
            exact = float(mpmath.exp(z * z) * mpmath.erfc(-z))
        assert exact == pytest.approx(value, rel=1e-15)
        assert mittag_leffler(0.5, 1.0, z) == exact

    @pytest.mark.parametrize("gamma_par,x", [(1.0, (math.pi / 2) ** 2), (2.0, math.pi**2)])
    def test_next_to_a_zero_summed_again(self, gamma_par, x):
        # E_{2,1}(-x) = cos(sqrt x) and E_{2,2}(-x) = sin(sqrt x)/sqrt x read 5e-17 and
        # 3e-17 next to their zeros: the first pass keeps too few of their digits
        import mpmath

        with mpmath.workdps(60):
            s = mpmath.sqrt(x)
            exact = float(mpmath.cos(s) if gamma_par == 1.0 else mpmath.sin(s) / s)
        assert 0.0 < abs(exact) < 1e-16
        assert mittag_leffler(2.0, gamma_par, -x) == exact

    def test_small_order_near_the_origin(self):
        # 95 terms: more than the 90 that a budget of 64 + 8|z|^(1/alpha)/alpha allows
        assert mittag_leffler(0.3, 1.0, -1.0) == pytest.approx(0.45659440832969067, rel=1e-15)

    @pytest.mark.parametrize("alpha", ["0.2", "1e-300"])
    def test_long_series_refused_at_once(self, capsys, alpha):
        from fracspde import cli

        start = time.perf_counter()
        assert cli.main(["ml", alpha, "1", "20"]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"more than ML_MAX_TERMS = {fractional.ML_MAX_TERMS} series terms" in (
            capsys.readouterr().err)


class TestScalarSolver:
    def test_classical_linear_decay(self):
        traj = solve_caputo_scalar_ode(lambda x: -x, 1.0, 1.0, 1e-4, 1.0)
        assert not traj.blew_up
        assert traj.values[-1] == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_classical_matches_forward_euler_bitwise(self):
        rhs = lambda x: math.sin(x) - 0.3 * x
        dt, n = 1e-3, 500
        traj = solve_caputo_scalar_ode(rhs, 1.0, 0.7, dt, n * dt)
        x = 0.7
        ref = [x]
        for _ in range(n):
            x = x + dt * rhs(x)
            ref.append(x)
        assert np.max(np.abs(traj.values - np.array(ref))) <= 1e-12

    def test_logistic_blowup_time(self):
        traj = solve_caputo_scalar_ode(lambda x: x * x - x, 1.0, 2.0, 1e-5, 2.0, 1e6)
        assert traj.blew_up
        assert traj.blowup_time == pytest.approx(math.log(2.0), rel=0.02)

    def test_fractional_linear_matches_mittag_leffler(self):
        beta = 0.75
        traj = solve_caputo_scalar_ode(lambda x: -x, beta, 1.0, 1e-4, 1.0)
        stride = 250
        for i in range(0, len(traj.times), stride):
            t = traj.times[i]
            oracle = mittag_leffler(beta, 1.0, -(t**beta))
            assert traj.values[i] == pytest.approx(oracle, abs=1e-3)

    def test_nonfinite_rhs_recorded_as_blowup(self):
        traj = solve_caputo_scalar_ode(lambda x: float("nan"), 1.0, 0.0, 0.1, 1.0, 10.0)
        assert traj.blew_up
        assert traj.blowup_time == pytest.approx(0.1)
        assert np.all(np.isfinite(traj.values))

    @pytest.mark.parametrize("beta", [1.0, 0.9])
    def test_non_finite_rhs_ends_the_solve_before_the_history(self, monkeypatch, beta):
        # x_1 < 1.15 < x_2 at both orders: rhs(x_2) is inf, and the solve ends at t_3
        pushed, args = [], []
        push = fractional.VolterraHistory.push
        monkeypatch.setattr(fractional.VolterraHistory, "push",
                            lambda hist, g: pushed.append(g) or push(hist, g))

        def rhs(x):
            args.append(type(x))
            return math.inf if x > 1.15 else 1.0

        traj = solve_caputo_scalar_ode(rhs, beta, 1.0, 0.1, 1.0, 1e6)
        assert traj.blew_up and traj.blowup_time == pytest.approx(0.3)
        assert len(traj.values) == 3 and np.all(np.isfinite(traj.values))
        assert args == [float] * 3
        assert pushed == ([] if beta == 1.0 else [1.0, 1.0])

    def test_threshold_must_exceed_initial(self):
        with pytest.raises(InvalidParameterError):
            solve_caputo_scalar_ode(lambda x: -x, 1.0, 2.0, 0.1, 1.0, blowup_threshold=1.0)

    @pytest.mark.parametrize("dt,t_end", [(math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan),
                                          (0.1, math.inf), (1e-300, 1e300)])
    def test_non_finite_steps_refused(self, dt, t_end):
        with pytest.raises(InvalidParameterError):
            solve_caputo_scalar_ode(lambda x: -x, 1.0, 0.5, dt, t_end)

    def test_step_cap_refused(self, monkeypatch):
        # the cap admits the 200 000 steps of the dichotomy runs; a small cap
        # shows the refusal without a solve that would allocate beyond it
        assert fractional.MAX_SCALAR_STEPS >= 200_000
        monkeypatch.setattr(fractional, "MAX_SCALAR_STEPS", 100)
        with pytest.raises(InvalidParameterError, match="cap of 100"):
            solve_caputo_scalar_ode(lambda x: -x, 0.9, 0.5, 0.01, 2.0)
        assert len(solve_caputo_scalar_ode(lambda x: -x, 0.9, 0.5, 0.01, 1.0).times) == 101

    def test_blowup_monotone_in_initial_value(self):
        times = []
        for x0 in (1.2, 1.5, 2.0):
            traj = solve_caputo_scalar_ode(lambda x: x * x - x, 0.8, x0, 1e-3, 30.0, 1e6)
            assert traj.blew_up
            times.append(traj.blowup_time)
        assert times[0] >= times[1] >= times[2]

    def test_subcritical_initial_value_stays_trapped(self):
        traj = solve_caputo_scalar_ode(lambda x: x * x - x, 0.8, 0.5, 1e-3, 30.0, 1e6)
        assert not traj.blew_up
        assert np.all((traj.values > 0.0) & (traj.values < 1.0))
        assert np.all(np.diff(traj.values) <= 1e-15)


class TestComparisonOracle:
    def _pair(self):
        a = solve_caputo_scalar_ode(lambda x: -x, 0.8, 1.0, 1e-3, 1.0)
        b = solve_caputo_scalar_ode(lambda x: -2.0 * x, 0.8, 1.0, 1e-3, 1.0)
        return a, b

    def test_slower_decay_dominates(self):
        a, b = self._pair()
        assert comparison_oracle(a, b)
        assert not comparison_oracle(b, a)

    def test_reflexive(self):
        a, _ = self._pair()
        assert comparison_oracle(a, a)

    def test_grid_mismatch_raises(self):
        a, _ = self._pair()
        c = solve_caputo_scalar_ode(lambda x: -x, 0.8, 1.0, 2e-3, 1.0)
        with pytest.raises(ShapeError):
            comparison_oracle(a, c)


class TestGammaBackend:
    def test_reference_values(self):
        # the kernel weights inherit the gamma accuracy; pin the backend
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert math.gamma(1.0) == 1.0
        assert math.gamma(1.75) == pytest.approx(0.9190625268488832, rel=1e-12)

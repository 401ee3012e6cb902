import math
import os
import subprocess
import sys
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
    rl_kernel_weights,
    solve_caputo_scalar_ode,
)

from _reference import comparison_oracle


class TestKernelWeights:
    def test_classical_limit_is_dt(self):
        w = rl_kernel_weights(1.0, 0.1, 3)
        assert np.array_equal(w, [0.1, 0.1, 0.1])

    def test_half_order_first_weight(self):
        # (1^0.5 - 0) / Gamma(1.5) = 2/sqrt(pi)
        w = rl_kernel_weights(0.5, 1.0, 1)
        assert w.shape == (1,)
        assert w[0] == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-12)

    def test_telescoping_sum(self):
        beta, dt, n = 0.75, 0.01, 2
        w = rl_kernel_weights(beta, dt, n)
        total = (n * dt) ** beta / math.gamma(beta + 1.0)
        assert w.sum() == pytest.approx(total, rel=1e-12)

    @given(
        beta=st.floats(0.05, 1.0),
        dt=st.floats(1e-6, 10.0),
        n=st.integers(1, 200),
    )
    @settings(max_examples=80, deadline=None)
    def test_positivity_and_telescoping(self, beta, dt, n):
        w = rl_kernel_weights(beta, dt, n)
        assert np.all(w > 0.0)
        total = (n * dt) ** beta / math.gamma(beta + 1.0)
        assert w.sum() == pytest.approx(total, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            rl_kernel_weights(0.0, 0.1, 1)
        with pytest.raises(InvalidParameterError):
            rl_kernel_weights(1.2, 0.1, 1)
        with pytest.raises(InvalidParameterError):
            rl_kernel_weights(0.5, -0.1, 1)
        with pytest.raises(InvalidParameterError):
            rl_kernel_weights(0.5, 0.1, 0)

    def test_increments_lag_zero_unused(self):
        c = kernel_increments(0.7, 0.1, 4)
        assert c[0] == 0.0
        assert np.array_equal(rl_kernel_weights(0.7, 0.1, 4), c[1:][::-1])


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

    def test_out_of_range_refuses(self):
        with pytest.raises(OutOfRangeError):
            mittag_leffler(0.8, 1.0, 25.0)
        with pytest.raises(OutOfRangeError):
            mittag_leffler(0.8, 1.0, -25.0)


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

    def test_threshold_must_exceed_initial(self):
        with pytest.raises(InvalidParameterError):
            solve_caputo_scalar_ode(lambda x: -x, 1.0, 2.0, 0.1, 1.0, blowup_threshold=1.0)

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

"""Fractional-calculus primitives.

Memory-kernel quadrature weights for the Volterra form of the Caputo
problem, the sum-of-exponentials history that applies them, Mittag-Leffler
evaluation, and an explicit scalar solver for D_t^beta x = f(x).  The same
convolution weights and history drive the PDE stepper in
:mod:`fracspde.dynamics`, so the scalar solver doubles as its cheapest
regression oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError, OutOfRangeError, ShapeError

#: largest |z| for which mittag_leffler() is validated; beyond it we refuse.
ML_VALIDATED_RANGE = 20.0

#: default blow-up threshold for scalar solves.
DEFAULT_BLOWUP_THRESHOLD = 1.0e6


def validate_order(beta: float, *, strict_upper: bool = False) -> float:
    """Check a Caputo order beta against (0, 1] and return it as float."""
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0 or beta > 1.0:
        raise InvalidParameterError(f"Caputo order beta must lie in (0, 1], got {beta}")
    if strict_upper and beta >= 1.0:
        raise InvalidParameterError(f"Caputo order beta must lie in (0, 1), got {beta}")
    return beta


def kernel_increments(beta: float, dt: float, n: int) -> np.ndarray:
    """Convolution-quadrature increments c_j, j = 0..n.

    c_j = (j^beta - (j-1)^beta) * dt^beta / Gamma(beta+1) is the integral of
    the memory kernel (t - tau)^(beta-1) / Gamma(beta) over one step at lag j.
    c_0 is set to 0 (lag zero never contributes in the explicit scheme).
    The weight row for step n is c reversed: w[n][k] = c_{n-k}.

    At beta = 1 every increment equals dt exactly.
    """
    beta = validate_order(beta)
    if dt <= 0.0 or not math.isfinite(dt):
        raise InvalidParameterError(f"step size dt must be positive, got {dt}")
    if n < 0:
        raise InvalidParameterError(f"lag count n must be >= 0, got {n}")
    j = np.arange(n + 1, dtype=np.float64)
    if beta == 1.0:
        c = np.full(n + 1, dt)
    else:
        scale = dt**beta / math.gamma(beta + 1.0)
        c = np.empty(n + 1)
        c[1:] = (j[1:] ** beta - j[:-1] ** beta) * scale
    c[0] = 0.0
    return c


#: lags 1.._EXACT_LAGS always use the exact c_j.
_EXACT_LAGS = 16

#: older lags are folded into the exponential modes _FOLD_BLOCK at a time.
_FOLD_BLOCK = 64

#: largest relative error of a compressed tail weight against the exact c_j.
_TAIL_TOL = 1.0e-10

#: lags per chunk of the tail check (keeps its temporaries under 1 MB).
_CHECK_LAGS = 512

#: Gauss points per quadrature panel, tried in turn until the tail check passes.
_NODE_COUNTS = range(6, 17)


def _gauss01(q: int, a: float):
    """q-point Gauss rule (nodes, weights) for the weight u^a on [0, 1], a > -1.

    Golub-Welsch on the Jacobi recurrence of (1+x)^a on [-1, 1], mapped to
    u = (1+x)/2; a = 0 is Gauss-Legendre.
    """
    s = 2.0 * np.arange(q) + a
    diag = np.full(q, a / (a + 2.0))
    diag[1:] = a * a / (s[1:] * (s[1:] + 2.0))
    n = np.arange(1.0, q)
    off = 2.0 * n * (n + a) / (s[1:] * np.sqrt(s[1:] ** 2 - 1.0))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return (1.0 + x) / 2.0, vec[0] ** 2 / (a + 1.0)


def _tail_modes(beta: float, c1: float, steps: int, q: int):
    """Nodes sigma_l and amplitudes a_l with c_j ~ sum_l a_l exp(-sigma_l (j-1)).

    Quadrature of c_j = (sin(pi beta)/pi) dt^beta int_0^inf
    sigma^(-beta-1) (1 - e^-sigma) e^(-sigma (j-1)) dsigma: a Gauss-Jacobi
    rule for the sigma^-beta singularity on [0, 1/steps], then Gauss-Legendre
    panels of unit width in ln(sigma) up to about 40/_EXACT_LAGS, past which
    every lag beyond the exact window is below e^-40.
    """
    s0 = 1.0 / steps
    u, w = _gauss01(q, -beta)
    lo = s0 * u
    w_lo = s0 ** (1.0 - beta) * w * -np.expm1(-lo) / lo
    t, w = _gauss01(q, 0.0)
    panels = math.ceil(math.log(40.0 / _EXACT_LAGS / s0))
    hi = np.exp(math.log(s0) + np.arange(panels)[:, None] + t).ravel()
    w_hi = np.tile(w, panels) * hi**-beta * -np.expm1(-hi)
    # dt^beta = c_1 Gamma(beta+1)
    scale = math.sin(math.pi * beta) / math.pi * c1 * math.gamma(beta + 1.0)
    return np.concatenate([lo, hi]), scale * np.concatenate([w_lo, w_hi])


def _tail_error(beta: float, c1: float, steps: int, sigma, amp) -> float:
    """Largest relative error of the compressed weights over lags _EXACT_LAGS < j <= steps.

    Measured against c_1 (j-1)^beta expm1(beta log1p(1/(j-1))), which is c_j
    without the eps*j cancellation of j^beta - (j-1)^beta.
    """
    worst = 0.0
    for j0 in range(_EXACT_LAGS + 1, steps + 1, _CHECK_LAGS):
        lag = np.arange(j0 - 1, min(j0 + _CHECK_LAGS, steps + 1) - 1, dtype=np.float64)
        exact = c1 * lag**beta * np.expm1(beta * np.log1p(1.0 / lag))
        expo = np.multiply.outer(lag, -sigma)
        approx = np.exp(expo, out=expo) @ amp
        worst = max(worst, float(np.max(np.abs(approx - exact) / exact)))
    return worst


class VolterraHistory:
    """Running Volterra sums conv_n = sum_{k<=n} c_{n+1-k} G_k of pushed rows G_k.

    c holds the increments of kernel_increments(beta, dt, steps), beta < 1
    (beta and dt^beta are read back from c_1 and c_2), and at most steps rows
    are pushed.  The newest rows, G_F..G_n, stay in a window of at most
    _EXACT_LAGS + _FOLD_BLOCK rows with the exact c_j.  Older rows are
    folded, _FOLD_BLOCK at a time, into K exponential modes
    S_l = sum_{k<F} exp(-sigma_l (F - k)) G_k, whose weights reproduce every
    tail c_j to _TAIL_TOL relative (checked at construction).  A push costs
    O((_EXACT_LAGS + _FOLD_BLOCK + K) P); the window's buffer of
    _EXACT_LAGS + 2 _FOLD_BLOCK rows and the modes are all the memory,
    whatever the step count.
    """

    def __init__(self, c: np.ndarray, P: int):
        c = np.asarray(c, dtype=np.float64)
        steps, n0, B = len(c) - 1, _EXACT_LAGS, _FOLD_BLOCK
        self._rev = c[1 : n0 + B + 1][::-1].copy()  # c_{n0+B} .. c_1
        self._buf = np.empty((n0 + 2 * B, P), dtype=np.complex128)
        self._fbuf = self._buf.view(np.float64)
        self._start = self._len = self.n_modes = 0
        self._folded = False
        if steps <= n0 + B:  # nothing ever leaves the exact window
            return
        beta = math.log2(1.0 + c[2] / c[1])
        if not 0.0 < beta < 1.0:
            raise InvalidParameterError(
                f"a sum-of-exponentials memory needs 0 < beta < 1, got beta = {beta:.6g} "
                f"and {steps} steps"
            )
        for q in _NODE_COUNTS:
            sigma, amp = _tail_modes(beta, c[1], steps, q)
            err = _tail_error(beta, c[1], steps, sigma, amp)
            if err <= _TAIL_TOL:
                break
        else:
            raise InvalidParameterError(
                f"no sum-of-exponentials memory reaches {_TAIL_TOL:g} at beta = {beta:.6g} "
                f"and {steps} steps (relative error {err:.2e} at {len(sigma)} modes)"
            )
        self.n_modes = len(sigma)
        self._decay = np.exp(-B * sigma)[:, None]
        self._fold = np.exp(-np.multiply.outer(sigma, np.arange(B, 0, -1.0)))
        self._read = amp * np.exp(-np.multiply.outer(np.arange(n0, n0 + B), sigma))
        self._modes = np.zeros((self.n_modes, 2 * P))

    def push(self, g) -> np.ndarray:
        """Store G_n (P values) and return conv_n as a (P,) complex array."""
        n0, B = _EXACT_LAGS, _FOLD_BLOCK
        if self._len == n0 + B:
            # rows F..F+B-1 sit at lags > n0 from the next step on
            old = self._fbuf[self._start : self._start + B]
            self._modes *= self._decay
            self._modes += self._fold @ old
            self._start += B
            self._len -= B
            self._folded = True
        if self._start + self._len == len(self._buf):
            self._buf[: self._len] = self._buf[self._start :]
            self._start = 0
        self._buf[self._start + self._len] = np.ravel(g)
        self._len += 1
        W = self._len
        out = self._rev[len(self._rev) - W :] @ self._fbuf[self._start : self._start + W]
        if self._folded:
            out += self._read[W - n0 - 1] @ self._modes
        return out.view(np.complex128)


def rl_kernel_weights(beta: float, dt: float, n: int) -> np.ndarray:
    """Weight row w[n][k], k = 0..n-1, of the fractional-integral quadrature.

    Discretizes x(t_n) = x_0 + (1/Gamma(beta)) * int_0^{t_n} (t_n-tau)^(beta-1)
    F(tau) dtau with F piecewise constant on the step intervals.  The weights
    are positive, telescope to t_n^beta / Gamma(beta+1), and all equal dt at
    beta = 1.
    """
    if n < 1:
        raise InvalidParameterError(f"step index n must be >= 1, got {n}")
    c = kernel_increments(beta, dt, n)
    return c[1:][::-1].copy()


@lru_cache(maxsize=64)
def _ml_recip_gammas(alpha: float, gamma_par: float, n_terms: int, dps: int):
    """Cached 1/Gamma(alpha*k + gamma) table used by the series evaluator.

    The argument alpha*k + gamma is formed in extended precision: forming it
    in doubles perturbs Gamma by ~1e-14 relative, which the alternating
    series amplifies by the largest term magnitude.
    """
    import mpmath  # only the series needs it: importing it costs ~20 ms

    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        g = mpmath.mpf(gamma_par)
        return tuple(mpmath.rgamma(a * k + g) for k in range(n_terms))


def mittag_leffler(alpha: float, gamma_par: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,gamma}(z).

    Sums the defining series sum_k z^k / Gamma(alpha*k + gamma) in adaptive
    extended precision, so alternating cancellation for z < 0 cannot poison
    the double-precision result.  Validated for |z| <= ML_VALIDATED_RANGE;
    larger arguments raise OutOfRangeError instead of returning a silently
    inaccurate value.
    """
    alpha = float(alpha)
    gamma_par = float(gamma_par)
    z = float(z)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    if not (math.isfinite(gamma_par) and gamma_par > 0.0):
        raise InvalidParameterError(f"gamma must be positive, got {gamma_par}")
    if not math.isfinite(z) or abs(z) > ML_VALIDATED_RANGE:
        raise OutOfRangeError(
            f"|z| = {abs(z)} outside the validated range [0, {ML_VALIDATED_RANGE}]"
        )

    # Worst-case intermediate term magnitude grows roughly like exp(c*|z|);
    # 2.5 digits per unit of |z| on top of a 30-digit base is comfortably
    # beyond the loss observed at the range boundary.
    dps = 30 + int(2.5 * abs(z))
    # Terms decay once alpha*k outruns |z|^(1/alpha); the bound below is
    # generous for the validated range.
    n_terms = 64 + int(8.0 * (abs(z) ** (1.0 / alpha)) / max(alpha, 0.25))
    rg = _ml_recip_gammas(alpha, gamma_par, n_terms, dps)
    import mpmath

    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        total = mpmath.mpf(0)
        power = mpmath.mpf(1)
        tail_tol = mpmath.mpf(10) ** (-(dps - 5))
        small_run = 0
        for k in range(n_terms):
            term = power * rg[k]
            total += term
            power *= zz
            if abs(term) < tail_tol * (1 + abs(total)):
                small_run += 1
                if small_run >= 3:
                    break
            else:
                small_run = 0
        else:
            raise OutOfRangeError(
                f"Mittag-Leffler series did not converge within {n_terms} terms"
            )
        return float(total)


@dataclass(frozen=True)
class ScalarTrajectory:
    """Recorded solution of a scalar Caputo ODE.

    times and values cover the computed grid; every recorded value is finite.
    blew_up is set when the solve stopped early because the magnitude crossed
    the threshold or turned non-finite, and blowup_time then holds the first
    such grid time.
    """

    times: np.ndarray
    values: np.ndarray
    blew_up: bool
    blowup_time: Optional[float]

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.times.shape != self.values.shape:
            raise ShapeError("times and values must have equal length")


def solve_caputo_scalar_ode(
    rhs: Callable[[float], float],
    beta: float,
    x0: float,
    dt: float,
    t_end: float,
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> ScalarTrajectory:
    """Explicit Volterra-Euler solve of D_t^beta x = rhs(x), x(0) = x0.

    The iterate is x_n = x_0 + sum_{k<n} w[n][k] * rhs(x_k) with the
    rl_kernel_weights row, summed by a VolterraHistory; at beta = 1 this is
    exactly forward Euler.

    Blow-up (threshold crossing or a non-finite iterate) ends the solve and
    is reported on the trajectory, not raised.
    """
    beta = validate_order(beta)
    if dt <= 0.0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    if t_end <= 0.0:
        raise InvalidParameterError(f"t_end must be positive, got {t_end}")
    x0 = float(x0)
    if not blowup_threshold > abs(x0):
        raise InvalidParameterError(
            f"blowup_threshold {blowup_threshold} must exceed |x0| = {abs(x0)}"
        )

    n_steps = max(1, int(round(t_end / dt)))
    values = np.empty(n_steps + 1)
    values[0] = x0
    blew_up = False
    blowup_time = None
    n_recorded = 1

    classical = beta == 1.0
    if not classical:
        hist = VolterraHistory(kernel_increments(beta, dt, n_steps), 1)
    running = 0.0

    for n in range(n_steps):
        f = rhs(values[n])
        if classical:
            running += f
            x_next = x0 + dt * running
        else:
            x_next = x0 + float(hist.push(f)[0].real)
        t_next = (n + 1) * dt
        if not math.isfinite(x_next):
            blew_up = True
            blowup_time = t_next
            break
        values[n_recorded] = x_next
        n_recorded += 1
        if abs(x_next) > blowup_threshold:
            blew_up = True
            blowup_time = t_next
            break

    times = np.arange(n_recorded) * dt
    return ScalarTrajectory(
        times=times,
        values=values[:n_recorded],
        blew_up=blew_up,
        blowup_time=blowup_time,
    )

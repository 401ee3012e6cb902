"""Independent references for the integrator.

independent_euler_maruyama is a classical Euler-Maruyama reference (d = 2,
beta = 1).  It shares only the initial field and the per-step Brownian draws
with the production integrator; drift, nonlinearity (direct convolution, no
FFT), cut-off, perpendicular vectors, amplitude, and the transport sum are
all recoded from scratch with a different organization (per-mode shifted
slices).  Used to pin the beta = 1 regression of the Volterra stepper.

DenseHistory is the exact O(n^2) Volterra history with the interface of
fractional.VolterraHistory; tests substitute it to get the exact path.

survival_from_times and survival_csv are the per-time-point loop and the
row-by-row writer that experiments.survival_from_times and io.write_survival
must reproduce exactly.
"""

import math

import numpy as np
from scipy.signal import convolve2d

from fracspde import dynamics as dyn
from fracspde import noise as nm


def _perp_2d(m):
    c = tuple(m)
    first = next(x for x in c if x != 0)
    if first < 0:
        c = (-c[0], -c[1])
    norm = math.hypot(*c)
    return np.array([-c[1] / norm, c[0] / norm])


def independent_euler_maruyama(cfg, run_index=0):
    """March cfg.n_steps plain Euler-Maruyama steps; returns all field blocks."""
    assert cfg.beta == 1.0 and cfg.d == 2
    M = cfg.M
    side = 2 * M + 1
    u = dyn.build_initial_field(cfg, dyn.initial_rng(cfg.seed, run_index)).coeffs.copy()

    l1, l2 = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1), indexing="ij")
    ksq = (l1**2 + l2**2).astype(float)
    lin = -((4 * math.pi**2 * ksq) ** cfg.s) - cfg.b * 4 * math.pi**2 * ksq
    w_hneg = (1 + ksq) ** (-cfg.gamma)

    noise_on = cfg.noise_N > 0
    if noise_on:
        theta = nm.make_theta_cutoff(cfg.noise_N, 2)
        l2sq_theta = 2.0 * float(np.sum(theta.half_values**2))
        A = math.sqrt(2.0 * cfg.b / (1.0 * l2sq_theta))
        qs = [_perp_2d(m) for m in theta.half_modes]

    out = [u.copy()]
    for n in range(cfg.n_steps):
        hneg = math.sqrt(float(np.sum(w_hneg * np.abs(u) ** 2)))
        if hneg <= cfg.S:
            lval = 1.0
        elif hneg >= cfg.S + 1.0:
            lval = 0.0
        else:
            x = hneg - cfg.S
            lval = 1.0 - (6 * x**5 - 15 * x**4 + 10 * x**3)

        if cfg.zeta == "fisher":
            sq = convolve2d(u, u, mode="full")[M : M + side, M : M + side]
            g = lin * u + lval * (sq - u)
        else:
            g = lin * u

        t_blk = np.zeros_like(u)
        if noise_on:
            inc = nm.sample_increments(theta, cfg.dt, dyn.step_rng(cfg.seed, run_index, n))
            for i, m in enumerate(theta.half_modes):
                q = qs[i]
                for sign in (1, -1):
                    mm = sign * np.asarray(m)
                    dw = inc.values[i, 0] if sign > 0 else np.conj(inc.values[i, 0])
                    lo = np.maximum(-M, mm - M)
                    hi = np.minimum(M, mm + M)
                    dst = (slice(lo[0] + M, hi[0] + M + 1), slice(lo[1] + M, hi[1] + M + 1))
                    src = (
                        slice(lo[0] - mm[0] + M, hi[0] - mm[0] + M + 1),
                        slice(lo[1] - mm[1] + M, hi[1] - mm[1] + M + 1),
                    )
                    # q.(l - m) in its literal form on the source wavevectors
                    qlm = q[0] * (l1[dst] - mm[0]) + q[1] * (l2[dst] - mm[1])
                    t_blk[dst] += (
                        A * theta.half_values[i] * dw * 2j * math.pi * qlm * u[src]
                    )
        u = u + cfg.dt * g + t_blk
        out.append(u.copy())
    return out


class DenseHistory:
    """conv_n = sum_{k<=n} c_{n+1-k} G_k over the full stored history, exact weights."""

    def __init__(self, c, P):
        self.c = np.asarray(c, dtype=np.float64)
        self.hist = np.empty((len(self.c) - 1, P), dtype=np.complex128)
        self.n = 0

    def push(self, g):
        self.hist[self.n] = np.ravel(g)
        self.n += 1
        return self.hist[: self.n].T @ self.c[1 : self.n + 1][::-1]


def survival_from_times(grid, blowup_times):
    """Share of runs alive at each grid time, one time point at a time."""
    n = len(blowup_times)
    finite = np.array([t for t in blowup_times if t is not None])
    frac = np.empty(grid.size)
    for i, t in enumerate(grid):
        frac[i] = 1.0 - (np.count_nonzero(finite <= t) / n if finite.size else 0.0)
    return frac


def survival_csv(curves):
    """Text of survival.csv built row by row; short curves hold their last value."""
    rows = ["time," + ",".join(f"level_{c.noise_N}" for c in curves)]
    for i, t in enumerate(curves[0].times):
        cells = [t] + [c.fraction[min(i, len(c.fraction) - 1)] for c in curves]
        rows.append(",".join(format(float(x), ".17g") for x in cells))
    return "\n".join(rows) + "\n"

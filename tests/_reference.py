"""Independent references for the integrator.

independent_euler_maruyama is a classical Euler-Maruyama reference (d = 2,
beta = 1) and, for 1/2 < beta < 1, a dense Volterra-Euler one.  It shares
only the initial field and the per-step Brownian draws with the production
integrator; drift, nonlinearity (direct convolution, no FFT), cut-off,
perpendicular vectors, amplitude, the transport sum and the memory weights
are all recoded from scratch with a different organization (per-mode
shifted slices, the full history summed every step).  Used to pin the
beta = 1 regression of the Volterra stepper and its noisy fractional path.

DenseHistory is the exact O(n^2) Volterra history with the interface of
fractional.VolterraHistory; tests substitute it to get the exact path.

dense_to_grid and dense_from_grid are the grid transforms as direct sums
over every mode and every grid point, with no factorization by axis and no
use of the Hermitian symmetry; spectral.GridTransform must reproduce them.

survival_from_times and survival_csv are the per-time-point loop and the
row-by-row writer that experiments.survival_from_times and io.write_survival
must reproduce exactly; trajectory_csv is the cell-by-cell writer that
io.write_trajectory must reproduce byte for byte.

shift_gradient_apply is the single-vector-field shift rule, the brute-force
oracle of noise.transport_term; ito_corrector_apply contracts it twice into
the Stratonovich-to-Ito corrector, which must equal b*Laplace.
comparison_oracle orders two scalar solves pointwise (the fractional
comparison principle), and field_to_csv is a one-row-per-mode dump of a
field.

detect_blowup reads the first threshold crossing off a record, and
decay_rate_fit fits an exponential envelope to its L2 norm (the premise of
the delayed blow-up).

canonical_half_modes_loop builds the canonical half modes one wavevector
at a time; spectral.canonical_half_modes must reproduce it bitwise.

mode_pair, homogeneous_seminorm and theta_from_support build the test
fields, the homogeneous seminorm the tests measure them by, and a theta
sequence from its full two-sided support.

frac_laplacian_apply, laplacian_inverse and project_modes are the Fourier
multipliers -(-Laplace)^s and (-Laplace)^-1 and the Galerkin projection on
whole coefficient blocks: the oracles of the Ito corrector and of the
Keller-Segel drift.

mittag_leffler_series sums the Mittag-Leffler series at a given precision
and length, the oracle of fractional.mittag_leffler.
"""

import math

import numpy as np
from scipy.signal import convolve2d

from fracspde import dynamics as dyn
from fracspde import noise as nm
from fracspde import spectral as sp
from fracspde.errors import InvalidInputError, InvalidParameterError, ShapeError
from fracspde.spectral import TWO_PI, SpectralField


def _perp_2d(m):
    c = tuple(m)
    first = next(x for x in c if x != 0)
    if first < 0:
        c = (-c[0], -c[1])
    norm = math.hypot(*c)
    return np.array([-c[1] / norm, c[0] / norm])


def independent_euler_maruyama(cfg, run_index=0, drive=None):
    """March cfg.n_steps steps; returns all field blocks.

    At beta = 1 these are plain Euler-Maruyama steps.  For 1/2 < beta < 1
    each step is the dense sum u_{n+1} = u_0 + sum_{k<=n} c_{n+1-k} G_k over
    G_k = g_k + t_k/dt (drift plus transport over dt), with its own weights
    c_j = (j^beta - (j-1)^beta) dt^beta / Gamma(beta+1).  A list passed as
    drive receives every G_k.
    """
    assert 0.5 < cfg.beta <= 1.0 and cfg.d == 2
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

    if cfg.beta < 1.0:
        j = np.arange(cfg.n_steps + 1, dtype=np.float64)
        c = np.zeros(cfg.n_steps + 1)
        scale = cfg.dt**cfg.beta / math.gamma(cfg.beta + 1)
        c[1:] = (j[1:] ** cfg.beta - j[:-1] ** cfg.beta) * scale
        G = np.empty((cfg.n_steps, side, side), dtype=np.complex128)

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
        if drive is not None:
            drive.append(g + t_blk / cfg.dt)
        if cfg.beta == 1.0:
            u = u + cfg.dt * g + t_blk
        else:
            G[n] = g + t_blk / cfg.dt
            u = out[0] + np.tensordot(c[n + 1 : 0 : -1], G[: n + 1], axes=1)
        out.append(u.copy())
    return out


def _phases(d, M, R):
    """exp(2 pi i x.k / R) for every grid point x (rows) and mode k (columns)."""
    x = np.indices((R,) * d).reshape(d, -1).T
    k = np.indices((2 * M + 1,) * d).reshape(d, -1).T - M
    return np.exp(2j * math.pi * ((x @ k.T) % R) / R)


def dense_to_grid(coeffs, R):
    """Point values sum_k c_k exp(2 pi i k.x) on the R^d grid (complex)."""
    d, M = coeffs.ndim, coeffs.shape[0] // 2
    return (_phases(d, M, R) @ coeffs.ravel()).reshape((R,) * d)


def dense_from_grid(values, M):
    """Coefficients R^-d sum_x v_x exp(-2 pi i k.x) on ||k||_inf <= M."""
    d, R = values.ndim, values.shape[0]
    return (values.ravel() @ _phases(d, M, R).conj() / R**d).reshape((2 * M + 1,) * d)


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


def trajectory_csv(record):
    """Text of trajectory.csv built row by row, one format call per cell."""
    rows = ["step,time,l2,hs,hneg_gamma,mean,cutoff"]
    for i in range(len(record.times)):
        cells = [record.times[i], record.l2[i], record.hs[i], record.hneg_gamma[i],
                 record.mean[i], record.cutoff[i]]
        rows.append(f"{i}," + ",".join(format(float(x), ".17g") for x in cells))
    return "\n".join(rows) + "\n"


def hermitianize(coeffs):
    """Project a coefficient block onto exact Hermitian symmetry."""
    rev = tuple(slice(None, None, -1) for _ in range(coeffs.ndim))
    out = 0.5 * (coeffs + np.conj(coeffs[rev]))
    center = tuple(s // 2 for s in coeffs.shape)
    out[center] = out[center].real
    return out


def shift_gradient_apply(u, m, q, M_out):
    """Single vector-field action sigma_{m,q} . grad u at output cutoff M_out.

    Output coefficient at l is 2 pi i (q . (l - m)) u_{l-m}.
    """
    d, M_in = u.d, u.M
    m = np.asarray(m, dtype=np.int64)
    q = np.asarray(q, dtype=np.float64)
    out = np.zeros((2 * M_out + 1,) * d, dtype=np.complex128)
    lo = np.maximum(-M_out, m - M_in)
    hi = np.minimum(M_out, m + M_in)
    if np.any(lo > hi):
        return SpectralField(d, M_out, out)
    out_sl = tuple(slice(lo[ax] + M_out, hi[ax] + M_out + 1) for ax in range(d))
    in_sl = tuple(slice(lo[ax] - m[ax] + M_in, hi[ax] - m[ax] + M_in + 1) for ax in range(d))
    kgrids = np.meshgrid(
        *[np.arange(lo[ax] - m[ax], hi[ax] - m[ax] + 1) for ax in range(d)],
        indexing="ij",
    )
    qdotk = sum(q[ax] * kgrids[ax] for ax in range(d))
    out[out_sl] = TWO_PI * 1j * qdotk * u.coeffs[in_sl]
    return SpectralField(d, M_out, out)


def ito_corrector_apply(u, theta, A):
    """Double-shift contraction A^2 sum theta_m^2 sigma_{m,j}.grad(sigma_{-m,j}.grad u).

    The intermediate field keeps the enlarged cutoff M + pad so no energy is
    lost before the final truncation.
    """
    pad = int(np.max(np.abs(theta.half_modes)))
    out = np.zeros_like(u.coeffs)
    for i in range(theta.n_half):
        th2 = theta.half_values[i] ** 2
        for sign in (1, -1):
            m = sign * theta.half_modes[i]
            for j in range(theta.d - 1):
                q = theta.q[i, j]
                inner = shift_gradient_apply(u, -m, q, u.M + pad)
                outer = shift_gradient_apply(inner, m, q, u.M)
                out += th2 * outer.coeffs
    return SpectralField(u.d, u.M, A**2 * hermitianize(out))


def comparison_oracle(traj_a, traj_b, tol=1.0e-9):
    """True iff traj_a dominates traj_b pointwise on their shared time grid."""
    if traj_a.times.shape != traj_b.times.shape or not np.array_equal(
        traj_a.times, traj_b.times
    ):
        raise ShapeError("trajectories were not recorded on the same time grid")
    return bool(np.all(traj_a.values >= traj_b.values - tol))


def field_to_csv(f):
    """Inspection CSV: one row per wavevector, k components then re and im."""
    cols = [f"k{i + 1}" for i in range(f.d)]
    lines = [",".join(cols) + ",re,im"]
    for idx in np.ndindex(*f.coeffs.shape):
        k = tuple(i - f.M for i in idx)
        c = f.coeffs[idx]
        lines.append(
            ",".join(str(x) for x in k)
            + f",{format(c.real, '.17g')},{format(c.imag, '.17g')}"
        )
    return "\n".join(lines) + "\n"


def detect_blowup(traj, threshold):
    """Earliest recorded time with L2 norm above threshold (or non-finite).

    A run whose field turned non-finite has no recorded row at the event;
    its stored blow-up time counts against any threshold.
    """
    bad = ~np.isfinite(traj.l2) | (traj.l2 > threshold)
    idx = np.nonzero(bad)[0]
    if idx.size:
        return float(traj.times[idx[0]])
    if traj.blew_up and traj.blowup_time is not None and traj.blowup_time > traj.times[-1]:
        return traj.blowup_time
    return None


def decay_rate_fit(traj):
    """Least-squares envelope fit ||u_t|| ~ K ||u_0|| exp(-lambda t).

    Returns (K, lambda, residual) where residual is the RMS misfit of
    log ||u_t||.  The fit is an envelope check for the delayed-blow-up
    premise; it is exact only for genuinely exponential decay.
    """
    if traj.blew_up:
        raise InvalidInputError("cannot fit a decay rate to a blown-up trajectory")
    if np.any(traj.l2 <= 0.0):
        raise InvalidInputError("decay fit needs strictly positive norms")
    logs = np.log(traj.l2)
    slope, intercept = np.polyfit(traj.times, logs, 1)
    fit = intercept + slope * traj.times
    residual = float(np.sqrt(np.mean((logs - fit) ** 2)))
    K = float(np.exp(intercept) / traj.l2[0])
    return K, float(-slope), residual


def canonical_half_modes_loop(d, M):
    """The canonical member (first nonzero component positive) of each pair
    {k, -k} on ||k||_inf <= M, sorted by (max-norm radius, lexicographic)."""
    modes = []
    for k in np.ndindex(*(2 * M + 1,) * d):
        vec = tuple(int(c) - M for c in k)
        if all(c == 0 for c in vec):
            continue
        first = next(c for c in vec if c != 0)
        if first > 0:
            modes.append(vec)
    modes.sort(key=lambda v: (max(abs(c) for c in v), v))
    return np.array(modes, dtype=np.int64).reshape(len(modes), d)


def mode_pair(d, M, k, amplitude=1.0):
    """Field with coefficients `amplitude` at k and conj(amplitude) at -k."""
    k = tuple(int(c) for c in k)
    return sp.from_modes(d, M, {k: amplitude, tuple(-c for c in k): np.conj(amplitude)})


def homogeneous_seminorm(f, s):
    """The seminorm ||(-Laplace)^(s/2) f||_{L^2} (mean mode dropped)."""
    ksq = sp._ksq_grid(f.d, f.M)
    w = np.where(ksq > 0.0, (4.0 * np.pi**2 * ksq) ** s, 0.0)
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def theta_from_support(d, modes, values):
    """ThetaSequence from the full two-sided support, validating the symmetry."""
    table = {}
    for m, v in zip(modes, values):
        key = tuple(int(c) for c in m)
        if all(c == 0 for c in key):
            raise InvalidParameterError("theta support must exclude m = 0")
        table[key] = float(v)
    half = {}
    for key, v in table.items():
        neg = tuple(-c for c in key)
        if neg not in table or table[neg] != v:
            raise InvalidParameterError(
                f"theta is not symmetric at m = {key}: need theta_m = theta_-m"
            )
        half[nm.canonical_pair_rep(key)] = v
    reps = sorted(half, key=lambda v: (max(abs(c) for c in v), v))
    return nm.ThetaSequence(
        d=d,
        half_modes=np.array(reps, dtype=np.int64),
        half_values=np.array([half[r] for r in reps]),
    )


def frac_laplacian_apply(f, s):
    """Apply -(-Laplace)^s, the Fourier multiplier -(4 pi^2 |k|^2)^s."""
    if s < 1.0:
        raise InvalidParameterError(f"fractional Laplacian order s must be >= 1, got {s}")
    ksq = sp._ksq_grid(f.d, f.M)
    mult = np.where(ksq > 0.0, -((4.0 * np.pi**2 * ksq) ** s), 0.0)
    return SpectralField(f.d, f.M, f.coeffs * mult)


def laplacian_inverse(f):
    """Solve -Laplace c = f - mean(f); the k = 0 mode of the input is ignored."""
    ksq = sp._ksq_grid(f.d, f.M)
    denom = np.where(ksq > 0.0, 4.0 * np.pi**2 * ksq, 1.0)
    out = f.coeffs / denom
    out[(f.M,) * f.d] = 0.0
    return SpectralField(f.d, f.M, out)


def project_modes(f, M_new):
    """Zero every coefficient with ||k||_inf > M_new (Galerkin projection)."""
    if M_new < 0:
        raise InvalidParameterError(f"projection cutoff must be >= 0, got {M_new}")
    if M_new >= f.M:
        return f
    out = np.zeros_like(f.coeffs)
    sl = tuple(slice(f.M - M_new, f.M + M_new + 1) for _ in range(f.d))
    out[sl] = f.coeffs[sl]
    return SpectralField(f.d, f.M, out)


def mittag_leffler_series(alpha, gamma_par, z, dps, n_terms):
    """sum_{k < n_terms} z^k / Gamma(alpha*k + gamma), summed at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        a, g, zz = mpmath.mpf(alpha), mpmath.mpf(gamma_par), mpmath.mpf(z)
        return float(mpmath.fsum(zz**k * mpmath.rgamma(a * k + g) for k in range(n_terms)))

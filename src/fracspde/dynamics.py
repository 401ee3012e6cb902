"""The regularized Galerkin system and its fractional time stepper.

State is the coefficient block of u_M on ||k||_inf <= M.  The drift is
-(-Laplace)^s u + b*Laplace u + L_S(||u||_{H^-gamma}) Pi_M zeta(u); the noise
is the spectral transport term with matched amplitude A.  Time stepping is
the explicit Volterra-Euler recursion

    u_n = u_0 + sum_{k<n} w[n][k] * (drift(u_k) + transport(u_k, dW_k) / dt)

with the rl_kernel_weights rows, one Brownian path per trajectory (the
increments of step k are reused by every later n).  The history sum is kept
by fractional.VolterraHistory: exact weights for the newest lags, a
sum-of-exponentials fold of the tail, so a step costs O((window + K) P) and
the memory does not grow with the step count.  At beta = 1 the weights are
exactly dt and the recursion collapses to classical Euler-Maruyama, which is
also how it is computed (incrementally, same partial sums).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from . import noise as noise_mod
from . import spectral as sp
from .errors import InvalidParameterError, ShapeError
from .fractional import VolterraHistory, kernel_increments, validate_order

ZETA_KINDS = ("fisher", "keller_segel", "none")

#: hard cap on t_end/dt; the per-step records and the fractional memory's
#: tail check grow with it.
MAX_STEPS = 100_000

DEFAULT_GAMMA = 0.1
DEFAULT_BLOWUP_THRESHOLD = 1.0e6

#: the cast of each SimConfig field, by its (string) annotation; the config
#: schema of io and the hashed canonical dict both follow the field list
CONFIG_CASTS = {"int": int, "float": float, "str": str, "dict": dict}

_MASK64 = (1 << 64) - 1

# stream tags for the seed-mixing chain (arbitrary fixed constants)
_TAG_INITIAL = 0x49C3A5E1D2B70F11
_TAG_NOISE = 0x5A11B6C40E9D3377


def splitmix64(x: int) -> int:
    """One round of the splitmix64 avalanche; the documented mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(*words: int) -> int:
    """Fold integer words into one 64-bit key by chained splitmix64 rounds."""
    acc = 0
    for w in words:
        acc = splitmix64((acc ^ (int(w) & _MASK64)) & _MASK64)
    return acc


def _philox_state(key_lo: int, key_hi: int) -> dict:
    """Fresh Philox bit-generator state for a 128-bit (key_lo, key_hi) key."""
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([key_lo, key_hi], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _keyed_generator(key_lo: int, key_hi: int) -> np.random.Generator:
    bg = np.random.Philox(key=0)
    bg.state = _philox_state(key_lo, key_hi)
    return np.random.Generator(bg)


def initial_rng(base_seed: int, run_index: int) -> np.random.Generator:
    """Generator for the initial field of one run; independent of the noise."""
    return _keyed_generator(mix_seed(base_seed, run_index, _TAG_INITIAL), 0)


def step_rng(base_seed: int, run_index: int, step: int) -> np.random.Generator:
    """Generator for the Brownian increments of one step of one run.

    Keyed by (seed, run, step) only, so runs that differ in the noise support
    share increments on common modes (common-random-number pairing across
    noise levels).
    """
    return _keyed_generator(mix_seed(base_seed, run_index, _TAG_NOISE), step)


@dataclass(frozen=True)
class SimConfig:
    """All scalars of the regularized system plus the initial-data spec.

    init is a plain dict in one of three shapes:
      {"mean": m, "delta0": d0[, "decay": g]}   mean plus a random fluctuation
                                                of exact L2 size sqrt(delta0)
      {"amplitude": a, "decay": g[, "mean": m]} random field, coefficient
                                                std amplitude*(1+|k|^2)^(-g/2)
      {"coeffs": [{"k": [...], "re": r, "im": i}, ...]}  explicit modes
    """

    d: int
    M: int
    s: float
    beta: float
    b: float
    S: float
    dt: float
    t_end: float
    zeta: str
    init: dict
    noise_N: int = 0
    gamma: float = DEFAULT_GAMMA
    seed: int = 0
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD
    snapshot_stride: int = 0

    def __post_init__(self):
        if self.d not in (2, 3):
            raise InvalidParameterError(f"d must be 2 or 3, got {self.d}")
        if self.M < 1:
            raise InvalidParameterError(f"M must be >= 1, got {self.M}")
        if self.s < 1.0:
            raise InvalidParameterError(f"s must be >= 1, got {self.s}")
        if self.noise_N > 0:
            if not 0.5 < self.beta <= 1.0:
                raise InvalidParameterError(
                    f"beta = {self.beta}: with transport noise on (noise_N > 0) the "
                    "stochastic memory kernel (t-tau)^(beta-1) is square-integrable "
                    "only for beta > 1/2; need 1/2 < beta <= 1"
                )
        else:
            validate_order(self.beta)
        if self.b < 0.0:
            raise InvalidParameterError(f"b must be >= 0, got {self.b}")
        if self.S <= 0.0:
            raise InvalidParameterError(f"cut-off level S must be > 0, got {self.S}")
        if self.gamma <= 0.0:
            raise InvalidParameterError(f"gamma must be > 0, got {self.gamma}")
        if self.dt <= 0.0:
            raise InvalidParameterError(f"dt must be > 0, got {self.dt}")
        if self.t_end < self.dt:
            raise InvalidParameterError(f"t_end must be >= dt, got {self.t_end}")
        if self.zeta not in ZETA_KINDS:
            raise InvalidParameterError(
                f"zeta must be one of {ZETA_KINDS}, got {self.zeta!r}"
            )
        if self.noise_N < 0:
            raise InvalidParameterError(f"noise_N must be >= 0, got {self.noise_N}")
        if self.blowup_threshold <= 0.0:
            raise InvalidParameterError("blowup_threshold must be positive")
        if self.snapshot_stride < 0:
            raise InvalidParameterError("snapshot_stride must be >= 0")
        if self.n_steps > MAX_STEPS:
            raise InvalidParameterError(
                f"t_end/dt = {self.n_steps} steps exceeds the cap of {MAX_STEPS}"
            )
        _validate_init_spec(self.init)

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))

    def canonical_dict(self) -> dict:
        return {f.name: CONFIG_CASTS[f.type](getattr(self, f.name)) for f in fields(self)}

    def config_hash(self) -> str:
        """64-bit content hash of the canonicalized config (16 hex digits)."""
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _validate_init_spec(init: dict):
    if not isinstance(init, dict):
        raise InvalidParameterError("init must be a mapping")
    keys = set(init)
    if "coeffs" in keys:
        allowed = {"coeffs"}
    elif "delta0" in keys:
        allowed = {"mean", "delta0", "decay"}
        if "mean" not in keys:
            raise InvalidParameterError("init with delta0 needs a mean value")
        if init["delta0"] < 0.0:
            raise InvalidParameterError("delta0 must be >= 0")
    elif "amplitude" in keys:
        allowed = {"amplitude", "decay", "mean"}
        if "decay" not in keys:
            raise InvalidParameterError("random init needs a decay exponent")
    else:
        raise InvalidParameterError(
            "init must contain 'coeffs', 'delta0' (mean+fluctuation), or 'amplitude'"
        )
    unknown = keys - allowed
    if unknown:
        raise InvalidParameterError(f"unknown init key(s): {sorted(unknown)}")


def build_initial_field(cfg: SimConfig, rng: np.random.Generator) -> sp.SpectralField:
    """Realize the configured initial data (random parts drawn from rng)."""
    init = cfg.init
    if "coeffs" in init:
        entries = {
            tuple(int(c) for c in e["k"]): complex(e.get("re", 0.0), e.get("im", 0.0))
            for e in init["coeffs"]
        }
        return sp.from_modes(cfg.d, cfg.M, entries)
    if "delta0" in init:
        mean = float(init["mean"])
        delta0 = float(init["delta0"])
        decay = float(init.get("decay", 2.0))
        fluct = sp.random_field(rng, cfg.d, cfg.M, decay=decay, amplitude=1.0, mean=0.0)
        norm = sp.sobolev_norm(fluct, 0.0)
        arr = np.array(fluct.coeffs)
        if delta0 > 0.0 and norm > 0.0:
            arr *= math.sqrt(delta0) / norm
        else:
            arr[:] = 0.0
        arr[(cfg.M,) * cfg.d] = mean
        return sp.SpectralField(cfg.d, cfg.M, arr)
    return sp.random_field(
        rng,
        cfg.d,
        cfg.M,
        decay=float(init["decay"]),
        amplitude=float(init["amplitude"]),
        mean=float(init.get("mean", 0.0)),
    )


def cutoff_value(r: float, S: float) -> float:
    """Smooth non-increasing cut-off: 1 on [0, S], 0 on [S+1, inf).

    The joining arc on (S, S+1) is the quintic smoothstep
    1 - (6x^5 - 15x^4 + 10x^3), so the function is C^1 with derivative
    bounded by 15/8 (the Lipschitz constant the uniqueness argument needs).
    """
    if S <= 0.0:
        raise InvalidParameterError(f"cut-off level S must be > 0, got {S}")
    if r <= S:
        return 1.0
    if r >= S + 1.0:
        return 0.0
    x = r - S
    return 1.0 - (6.0 * x**5 - 15.0 * x**4 + 10.0 * x**3)


def zeta_fisher(u: sp.SpectralField) -> sp.SpectralField:
    """Fisher-KPP nonlinearity u^2 - u, dealiased and truncated to M (the grid pass)."""
    block = GridPass(u.d, u.M, "fisher").zeta_block(u.coeffs, True)[0]
    return sp.SpectralField(u.d, u.M, block)


def zeta_keller_segel(rho: sp.SpectralField) -> sp.SpectralField:
    """Chemotaxis coupling -div(rho * grad c) with -Laplace c = rho - mean(rho).

    Computed by the grid pass, whose output mean mode is exactly zero.
    """
    block = GridPass(rho.d, rho.M, "keller_segel").zeta_block(rho.coeffs, True)[0]
    return sp.SpectralField(rho.d, rho.M, block)


_ZETA_FUNCS = {"fisher": zeta_fisher, "keller_segel": zeta_keller_segel}


def drift(u: sp.SpectralField, cfg: SimConfig) -> sp.SpectralField:
    """Full drift: -(-Laplace)^s u + b Laplace u + L_S(||u||_{H^-gamma}) Pi_M zeta(u)."""
    if (u.d, u.M) != (cfg.d, cfg.M):
        raise ShapeError(f"field has (d, M) = {(u.d, u.M)} but the config has {(cfg.d, cfg.M)}")
    lval = cutoff_value(sp.sobolev_norm(u, -cfg.gamma), cfg.S)
    return sp.SpectralField(u.d, u.M, _Engine(cfg).drift_block(u.coeffs, lval)[0])


@dataclass
class TrajectoryRecord:
    """Per-step norms and diagnostics of one simulated trajectory."""

    times: np.ndarray
    l2: np.ndarray
    hs: np.ndarray
    hneg_gamma: np.ndarray
    mean: np.ndarray
    cutoff: np.ndarray
    blew_up: bool
    blowup_time: Optional[float]
    config_hash: str
    seed: int
    run_index: int
    dt: float
    snapshots: List[Tuple[int, sp.SpectralField]] = field(default_factory=list)

    @property
    def fluct_l2sq(self) -> np.ndarray:
        """||u - mean(u)||_{L2}^2 per recorded step (Parseval on the block)."""
        return self.l2**2 - self.mean**2

    def final_norms(self) -> dict:
        return {
            "l2": float(self.l2[-1]),
            "hs": float(self.hs[-1]),
            "hneg_gamma": float(self.hneg_gamma[-1]),
            "mean": float(self.mean[-1]),
        }


class GridPass(sp.GridTransform):
    """Pi_M zeta(u) and the transport term V.grad u from one grid pass.

    The stacked channels (u and, as needed, grad u and grad c) and the noise
    velocity V = A sum theta_m dW^{m,j} q_{m,j} e^{2 pi i m.x}, which lives on
    ||m||_inf <= N, go to point values on R = max(3M+1, 2M+N+1) points per
    axis, where neither product aliases onto ||k||_inf <= M (the 2/3 rule).
    The products come back in one forward transform.  V has its own
    GridTransform, so its work arrays never alias those of the channels.
    """

    def __init__(self, d: int, M: int, zeta: str = "none", noise=None):
        """noise is None or the (theta, basis, A) of the transport term."""
        N = 0 if noise is None else int(np.max(np.abs(noise[0].half_modes)))
        super().__init__(d, M, max(3 * M + 1, 2 * M + N + 1))
        self.zeta, self.center = zeta, (M,) * d
        self.ksq = np.asarray(sp._ksq_grid(d, M))
        self.grad = np.stack([sp.TWO_PI * 1j * g for g in sp._mode_grids(d, M)])
        self.lap = 4.0 * np.pi**2 * self.ksq
        if zeta == "keller_segel":
            self.inv_lap = np.divide(1.0, self.lap, out=np.zeros_like(self.lap),
                                     where=self.ksq > 0.0)
        self.theta = None
        if noise is not None:
            self.theta, basis, A = noise
            half = self.theta.half_modes
            # V_m = sum_j _vel_q[j, :, m] dW^{m,j} and V_{-m} = conj(V_m)
            self._vel_q = (A * self.theta.half_values) * basis.q.transpose(1, 2, 0)
            self._vel_pm = np.empty((2,) + self._vel_q.shape[1:], dtype=np.complex128)
            # zero off the support +-half, which every call rewrites in full
            self._vel_block = np.zeros((d,) + (2 * N + 1,) * d, dtype=np.complex128)
            # flat positions in _vel_block of _vel_pm = (V_m, V_{-m}), component-major
            idx = np.stack([half, -half]) + N  # block indices of (m, -m), (2, n_half, d)
            at = (np.arange(d)[:, None],) + tuple(idx[:, None, :, a] for a in range(d))
            self._vel_at = np.ravel_multi_index(np.broadcast_arrays(*at),
                                                self._vel_block.shape).ravel()
            self._vel = sp.GridTransform(d, N, self.R)

    def _velocity(self, dw: np.ndarray) -> np.ndarray:
        """Coefficients (d, 2N+1, ..., 2N+1) of V for the increments dw (n_half, d-1).

        The result is a work array that the next call overwrites.
        """
        pm = self._vel_pm
        np.multiply(self._vel_q[0], dw[:, 0], out=pm[0])
        for j in range(1, self.d - 1):
            pm[0] += np.multiply(self._vel_q[j], dw[:, j], out=pm[1])
        np.conjugate(pm[0], out=pm[1])
        self._vel_block.reshape(-1)[self._vel_at] = pm.reshape(-1)
        return self._vel_block

    def zeta_block(self, block: np.ndarray, with_zeta: bool, dw=None):
        """The grid pass: (Pi_M zeta(u) if with_zeta, transport block if dw is given).

        The transport is taken in gradient form V.grad u, so a constant u
        gives exactly 0; its mean mode, zero analytically (q.m = 0), is set
        to exactly 0.  Outputs are views of work arrays that the next call
        overwrites.
        """
        d = self.d
        ks = with_zeta and self.zeta == "keller_segel"
        # channels: [u if with_zeta] [grad u from lo] [grad c from hi, Keller-Segel]
        lo = int(with_zeta)
        hi = lo + d * (ks or dw is not None)
        chans = self._out("chans", (hi + d * ks,) + block.shape)
        if with_zeta:
            chans[0] = block
        if hi > lo:
            np.multiply(self.grad, block, out=chans[lo:hi])
        if ks:
            c = np.multiply(block, self.inv_lap, out=self._out("c", block.shape))
            np.multiply(self.grad, c, out=chans[hi:])
        g = self._to_grid(chans)
        prods = self._out("prods", (lo + (dw is not None),) + g.shape[1:], np.float64)
        tmp = self._out("prod_tmp", g.shape[1:], np.float64)
        if ks:
            # -div(rho grad c) = rho (rho - mean rho) - grad rho . grad c
            np.subtract(g[0], block[self.center].real, out=tmp)
            np.multiply(g[0], tmp, out=prods[0])
            for a in range(1, d + 1):
                prods[0] -= np.multiply(g[a], g[a + d], out=tmp)
        elif with_zeta:
            np.multiply(g[0], g[0], out=prods[0])
        if dw is not None:
            vel = self._vel._to_grid(self._velocity(dw))
            np.multiply(vel[0], g[lo], out=prods[-1])
            for a in range(1, d):
                prods[-1] += np.multiply(vel[a], g[lo + a], out=tmp)
        out = self._from_grid(prods)
        if ks:  # a divergence: zero mean analytically
            out[(0,) + self.center] = 0.0
        if dw is not None:
            out[(-1,) + self.center] = 0.0
        zeta = None
        if with_zeta:
            zeta = out[0] if ks else np.subtract(out[0], block, out=self._out("zeta", block.shape))
        return zeta, (out[-1] if dw is not None else None)


@lru_cache(maxsize=16)
def _noise_support(N: int, d: int):
    """(theta, basis) of the cut-off noise at radius N, shared by every run at that level."""
    theta = noise_mod.make_theta_cutoff(N, d)
    return theta, noise_mod.build_noise_basis(theta)


class _Engine(GridPass):
    """Linear multipliers, norm weights and the grid pass of one config."""

    def __init__(self, cfg: SimConfig):
        noise = None
        if cfg.noise_N > 0:
            theta, basis = _noise_support(cfg.noise_N, cfg.d)
            noise = (theta, basis, noise_mod.amplitude_A(cfg.b, theta))
        super().__init__(cfg.d, cfg.M, cfg.zeta, noise)
        self.lin_mult = -(self.lap**cfg.s) - cfg.b * self.lap
        # (x*x) @ norm_w on the interleaved float view x of a block gives its
        # squared L2, H^s and H^-gamma norms
        w = np.stack([np.ones_like(self.ksq), (1.0 + self.ksq) ** cfg.s,
                      (1.0 + self.ksq) ** (-cfg.gamma)], axis=-1)
        self.norm_w = np.repeat(w.reshape(-1, 3), 2, axis=0)

    def drift_block(self, block: np.ndarray, lval: float, dw=None):
        """(drift block, transport block or None) for this step's increments dw.

        Both are views of work arrays that the next call overwrites.
        """
        out = np.multiply(self.lin_mult, block, out=self._out("drift", block.shape))
        with_zeta = self.zeta != "none" and lval != 0.0
        if not with_zeta and dw is None:
            return out, None
        zeta, transport = self.zeta_block(block, with_zeta, dw)
        if with_zeta:
            zeta *= lval
            out += zeta
        return out, transport


def integrate(cfg: SimConfig, run_index: int = 0) -> TrajectoryRecord:
    """Run one trajectory of the regularized Galerkin system.

    All randomness (initial fluctuation, Brownian increments) derives from
    (cfg.seed, run_index) through the documented splitmix64 mixing, so a
    rerun is bit-identical and ensemble results are independent of
    scheduling order.  Blow-up (L2 norm beyond cfg.blowup_threshold, or a
    non-finite field) ends the run and is recorded, not raised.
    """
    steps = cfg.n_steps
    classical = cfg.beta == 1.0
    eng = _Engine(cfg)
    u0_field = build_initial_field(cfg, initial_rng(cfg.seed, run_index))
    u0 = np.array(u0_field.coeffs)
    if math.sqrt(float(np.sum(np.abs(u0) ** 2))) >= cfg.blowup_threshold:
        raise InvalidParameterError("initial field norm must lie below blowup_threshold")

    dt = cfg.dt
    if not classical:
        hist = VolterraHistory(kernel_increments(cfg.beta, dt, steps), u0.size)
    u = u0.copy()  # updated in place, so its float view x stays valid
    x = u.reshape(-1).view(np.float64)
    xsq = np.empty_like(x)
    norm_w = eng.norm_w
    at_mean = 2 * int(np.ravel_multi_index(eng.center, u.shape))

    # per recorded step: time, l2, hs, hneg_gamma, mean, cutoff
    table = np.empty((steps + 1, 6))
    snapshots: List[Tuple[int, sp.SpectralField]] = []
    stride = cfg.snapshot_stride

    noise_on = eng.theta is not None
    if noise_on:
        # one Philox per run, rekeyed per step: same streams as step_rng()
        philox = _philox_state(mix_seed(cfg.seed, run_index, _TAG_NOISE), 0)
        step_key = philox["state"]["key"]
        bg = np.random.Philox(key=0)
        gen = np.random.Generator(bg)
    blew_up = False
    blowup_time = None
    n_rec = 0

    for n in range(steps + 1):
        t_n = n * dt
        l2sq, hs_sq, hneg_sq = (np.multiply(x, x, out=xsq) @ norm_w).tolist()
        l2_n = math.sqrt(l2sq)
        if not math.isfinite(l2_n):
            blew_up = True
            blowup_time = t_n
            break
        hneg_n = math.sqrt(hneg_sq)
        lval = cutoff_value(hneg_n, cfg.S)
        table[n_rec] = (t_n, l2_n, math.sqrt(hs_sq), hneg_n, x[at_mean], lval)
        n_rec += 1
        if stride > 0 and n % stride == 0:
            snapshots.append((n, sp.SpectralField(cfg.d, cfg.M, u.copy())))
        if l2_n > cfg.blowup_threshold:
            blew_up = True
            blowup_time = t_n
            break
        if n == steps:
            break

        dw = None
        if noise_on:
            step_key[1] = n
            bg.state = philox
            dw = noise_mod.sample_increments(eng.theta, dt, gen).values
        g, t_blk = eng.drift_block(u, lval, dw)
        if classical:
            u += np.multiply(dt, g, out=g)
            if noise_on:
                u += t_blk
        else:
            if noise_on:
                g += np.divide(t_blk, dt, out=t_blk)
            # u_{n+1} = u_0 + sum_{k<=n} c_{n+1-k} G_k
            np.add(u0, hist.push(g).reshape(u0.shape), out=u)

    times, l2, hs, hneg, mean, cut = table[:n_rec].T.copy()
    return TrajectoryRecord(
        times=times,
        l2=l2,
        hs=hs,
        hneg_gamma=hneg,
        mean=mean,
        cutoff=cut,
        blew_up=blew_up,
        blowup_time=blowup_time,
        config_hash=cfg.config_hash(),
        seed=cfg.seed,
        run_index=run_index,
        dt=dt,
        snapshots=snapshots,
    )


def with_noise_level(cfg: SimConfig, N: int) -> SimConfig:
    """Config variant at theta cutoff radius N.

    N = 0 is the deterministic reference: noise off and the corrector b
    dropped (the b*Laplace term exists only as the Ito corrector of the
    transport noise, so the unperturbed equation has no b).
    """
    if N == 0:
        return replace(cfg, noise_N=0, b=0.0)
    return replace(cfg, noise_N=N)

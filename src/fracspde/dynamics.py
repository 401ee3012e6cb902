"""The regularized Galerkin system and its fractional time stepper.

State is the half block k_0 = 0..M, the half axis first, of the Hermitian
coefficient block of u_M on ||k||_inf <= M (see spectral.GridTransform).
The drift is -(-Laplace)^s u + b*Laplace u + L_S(||u||_{H^-gamma}) Pi_M
zeta(u); the noise is the spectral transport term with matched amplitude A.
Time stepping is the explicit Volterra-Euler recursion

    u_n = u_0 + sum_{k<n} w[n][k] * (drift(u_k) + transport(u_k, dW_k) / dt)

with the rl_kernel_weights rows, one Brownian path per trajectory (the
increments of step k are reused by every later n).  The transport velocity
V_k depends on the increments of step k alone, not on u, so integrate draws
the increments of the next K steps (each step from its own keyed stream)
and turns them into point values of V in one pass; each step's grid pass
then reads its own V from that block.  The history sum is kept
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
import os
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from types import SimpleNamespace
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

#: bytes of V's point values that one velocity pass of integrate fills: a block
#: of K = B // (8 d R^d) steps (24 at d=2, M=4; 6 at d=2, M=8; 1 at d=3, M=8)
VELOCITY_BLOCK_BYTES = 1 << 16

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
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise InvalidParameterError(f"{f.name} must be finite, got {getattr(self, f.name)}")
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


def _numbers(spec) -> list:
    """Every number in a nest of dicts and lists."""
    if isinstance(spec, dict):
        spec = list(spec.values())
    if isinstance(spec, (list, tuple)):
        return [x for item in spec for x in _numbers(item)]
    return [spec] if isinstance(spec, (int, float)) else []


def _validate_init_spec(init: dict):
    if not isinstance(init, dict):
        raise InvalidParameterError("init must be a mapping")
    for x in _numbers(init):
        try:
            finite = math.isfinite(float(x))
        except OverflowError as exc:  # an integer beyond the float range
            raise InvalidParameterError(f"init must hold numbers that fit a float: {exc}") from exc
        if not finite:
            raise InvalidParameterError(f"init must hold finite numbers only, got {init}")
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
    half = GridPass(u.d, u.M, "fisher").zeta_block(u.coeffs[u.M:], True)[0]
    return sp.SpectralField(u.d, u.M, sp.hermitian_block(half))


def zeta_keller_segel(rho: sp.SpectralField) -> sp.SpectralField:
    """Chemotaxis coupling -div(rho * grad c) with -Laplace c = rho - mean(rho).

    Computed by the grid pass, whose output mean mode is exactly zero.
    """
    half = GridPass(rho.d, rho.M, "keller_segel").zeta_block(rho.coeffs[rho.M:], True)[0]
    return sp.SpectralField(rho.d, rho.M, sp.hermitian_block(half))


_ZETA_FUNCS = {"fisher": zeta_fisher, "keller_segel": zeta_keller_segel}


def drift(u: sp.SpectralField, cfg: SimConfig) -> sp.SpectralField:
    """Full drift: -(-Laplace)^s u + b Laplace u + L_S(||u||_{H^-gamma}) Pi_M zeta(u)."""
    if (u.d, u.M) != (cfg.d, cfg.M):
        raise ShapeError(f"field has (d, M) = {(u.d, u.M)} but the config has {(cfg.d, cfg.M)}")
    lval = cutoff_value(sp.sobolev_norm(u, -cfg.gamma), cfg.S)
    half = _Engine(cfg).drift_block(u.coeffs[u.M:], lval)[0]
    return sp.SpectralField(u.d, u.M, sp.hermitian_block(half))


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

    One inverse transform takes u (and c of Keller-Segel) to the point values
    of u, grad u (and grad c) on R = max(3M+1, 2M+N+1) points per axis,
    where neither product aliases onto ||k||_inf <= M (the 2/3 rule): the
    gradients come from the differentiated DFT matrices of a grad plan (see
    GridTransform), so the value and the gradient share one transform.  The
    noise velocity V = A sum theta_m dW^{m,j} q_{m,j} e^{2 pi i m.x}, which
    lives on ||m||_inf <= N, has its own GridTransform, so its work arrays
    never alias those of the channels.  The products come back in one
    forward transform.  Every block is a half block (k_0 = 0..M first, see
    GridTransform): the input u, the multipliers, the channels and the
    outputs, whose k_0 = 0 plane is not symmetrized (the inverse transform
    reads only its Hermitian part).  Every grid, V's included, is in the
    rotated axis order (x_1, ..., x_{d-1}, x_0) of the plans.  V's half is
    written from the modes with m_0 >= 0.  V does not depend on u, so
    velocity() builds it for a block of K steps in one pass, on K*d
    channels, and a grid pass takes one step's V from it (vel=); the
    increments of one step (dw=) are the block of K = 1, with the same
    arrays.  Multipliers of a block are stored complex: numpy takes buffers
    for a cast.
    """

    def __init__(self, d: int, M: int, zeta: str = "none", noise=None):
        """noise is None or the (theta, basis, A) of the transport term."""
        N = 0 if noise is None else int(np.max(np.abs(noise[0].half_modes)))
        super().__init__(d, M, max(3 * M + 1, 2 * M + N + 1))
        # the mean mode and the multipliers on the half block
        self.zeta, self.center = zeta, (0,) + (M,) * (d - 1)
        self.ksq = sp._ksq_grid(d, M)[M:]
        self.lap = 4.0 * np.pi**2 * self.ksq
        if zeta == "keller_segel":
            self.inv_lap = np.divide(1.0, self.lap, out=np.zeros_like(self.lap),
                                     where=self.ksq > 0.0).astype(np.complex128)
        # zeta - u of Fisher, the drift sum, the grid product temporary
        self._blk, self._drift = np.empty((2,) + self.ksq.shape, np.complex128)
        self._tmp = np.empty((self.R,) * d)
        self._layouts = [None] * 4  # by 2 * with_zeta + noise_on, built on first use
        self.theta = None
        if noise is not None:
            self.theta, basis, A = noise
            half, nh = self.theta.half_modes, self.theta.n_half
            # V_m[a] = sum_j q[j, a, m] dW^{m,j}
            self._vel_q = np.ascontiguousarray((A * self.theta.half_values)
                                               * basis.q.transpose(1, 2, 0))
            self._vel = sp.GridTransform(d, N, self.R)
            self._vel_blocks = {}  # by the number of steps K, built on first use
            # the modes m of V_m and -m of V_{-m} = conj(V_m) with a first component >= 0
            # (both of a pair with m_0 = 0): flat positions in one step's (V_m, V_{-m})
            # rows (2, d, n_half) and in its d channels of V's half input, which is zero
            # off the support.  Selected in Python: np.nonzero would fault in 64 kB more
            # of numpy's code, in every process, for a few hundred modes
            pos, neg = (np.array([i for i, m in enumerate(half.tolist()) if sign * m[0] >= 0],
                                 np.int64) for sign in (1, -1))
            comp = np.arange(d)[:, None]
            self._vel_src = np.concatenate([comp * nh + pos, (d + comp) * nh + neg],
                                           axis=1).ravel()
            at = np.concatenate([half[pos], -half[neg]]) + N
            at[:, 0] -= N
            shape = (d, N + 1) + (2 * N + 1,) * (d - 1)
            self._vel_at = np.ravel_multi_index(np.broadcast_arrays(comp, *at.T), shape).ravel()

    def _vel_block(self, K: int) -> SimpleNamespace:
        """Work arrays, index tables and the K*d-channel plan of velocity() for K steps.

        (V_m, V_{-m}) of step k sit at k*n_half in the rows of pm
        (2, d, K*n_half), and q is tiled K times and stored complex, so that
        each product is one call on contiguous rows of one dtype: numpy takes
        buffers for a broadcast, a strided block or a cast.  The one-step
        tables are moved to each step's rows and channels.
        """
        d, nh, plan = self.d, self.theta.n_half, self._vel.plan(K * self.d)
        k = np.arange(K)[:, None]
        q = np.tile(self._vel_q, K).astype(np.complex128)
        src = ((self._vel_src // nh * K + k) * nh + self._vel_src % nh).ravel()
        at = (k * plan.input[:d].size + self._vel_at).ravel()
        pm = np.empty((2, d, K * nh), np.complex128)
        blk = self._vel_blocks[K] = SimpleNamespace(
            rows=[list(zip(qj, *pm)) for qj in q], pm=tuple(pm), pm_flat=pm.reshape(-1),
            src=src, at=at, kept=np.empty(len(src), np.complex128), flat=plan.input.reshape(-1),
            plan=plan, vel=[tuple(plan.output[k * d:(k + 1) * d]) for k in range(K)])
        return blk

    def velocity(self, dw: np.ndarray) -> list:
        """Point values of V for the increments dw (K, n_half, d-1) of K steps,
        or (n_half, d-1) of one.

        One pass for the block: entry k of the returned list is step k's
        (V_1, ..., V_d), views of work arrays that the next call with K steps
        overwrites.
        """
        K = len(dw) if dw.ndim == 3 else 1
        blk = self._vel_blocks.get(K) or self._vel_block(K)
        for j, rows in enumerate(blk.rows):
            for q, v, tmp in rows:  # no view of dw outlives this: it would add to every peak
                np.multiply(q, dw.reshape(-1, self.d - 1)[:, j], out=tmp if j else v)
                if j:
                    v += tmp
        np.conjugate(*blk.pm)
        blk.pm_flat.take(blk.src, 0, blk.kept, "clip")
        blk.flat[blk.at] = blk.kept
        self._vel._to_grid(blk.plan)
        return blk.vel

    def _layout(self, with_zeta: bool, noise_on: bool) -> SimpleNamespace:
        """Plans and grid views of the pass: u [grad u] [c, grad c] on the grid."""
        ks = with_zeta and self.zeta == "keller_segel"
        grad = ks or noise_on
        to, back = self.plan(1 + ks, grad=grad), self.plan(with_zeta + noise_on, from_grid=True)
        g = tuple(to.output)
        lay = self._layouts[2 * with_zeta + noise_on] = SimpleNamespace(
            to=to, back=back, ks=ks, chan=tuple(to.input), u=g[0], grad_u=g[1:self.d + 1],
            grad_c=g[self.d + 2:], p=tuple(back.input), h=tuple(back.output))
        return lay

    def zeta_block(self, block: np.ndarray, with_zeta: bool, dw=None, vel=None):
        """The grid pass on half blocks: (Pi_M zeta(u) if with_zeta, transport if noisy).

        The transport needs this step's V: its point values vel, an entry of
        velocity(), or its increments dw (n_half, d-1), the one-step block.
        It is taken in gradient form V.grad u, so a constant u gives exactly
        0; its mean mode, zero analytically (q.m = 0), is set to exactly 0.
        Outputs are views of work arrays that the next call overwrites.
        """
        if dw is not None:
            vel = self.velocity(dw)[0]
        noise_on = vel is not None
        lay = self._layouts[2 * with_zeta + noise_on] or self._layout(with_zeta, noise_on)
        u, grad_u, p, h, tmp = lay.u, lay.grad_u, lay.p, lay.h, self._tmp
        np.copyto(lay.chan[0], block)
        if lay.ks:
            np.multiply(block, self.inv_lap, out=lay.chan[1])
        self._to_grid(lay.to)
        if lay.ks:
            # -div(rho grad c) = rho (rho - mean rho) - grad rho . grad c
            np.subtract(u, block[self.center].real, out=tmp)
            np.multiply(u, tmp, out=p[0])
            for gr, gc in zip(grad_u, lay.grad_c):
                np.subtract(p[0], np.multiply(gr, gc, out=tmp), out=p[0])
        elif with_zeta:
            np.multiply(u, u, out=p[0])
        if noise_on:
            np.multiply(vel[0], grad_u[0], out=p[-1])
            for v, gr in zip(vel[1:], grad_u[1:]):
                np.add(p[-1], np.multiply(v, gr, out=tmp), out=p[-1])
        self._from_grid(lay.back)
        if lay.ks:  # a divergence: zero mean analytically
            h[0][self.center] = 0.0
        if noise_on:
            h[-1][self.center] = 0.0
        zeta = None
        if with_zeta:
            zeta = h[0] if lay.ks else np.subtract(h[0], block, out=self._blk)
        return zeta, (h[-1] if noise_on else None)


@lru_cache(maxsize=16)
def _noise_support(N: int, d: int):
    """(theta, basis) of the cut-off noise at radius N, shared by every run at that level."""
    theta = noise_mod.make_theta_cutoff(N, d)
    return theta, noise_mod.build_noise_basis(theta)


class _Engine(GridPass):
    """Linear multipliers, norm weights and the grid pass of one config, on the half block."""

    def __init__(self, cfg: SimConfig):
        noise = None
        if cfg.noise_N > 0:
            theta, basis = _noise_support(cfg.noise_N, cfg.d)
            noise = (theta, basis, noise_mod.amplitude_A(cfg.b, theta))
        super().__init__(cfg.d, cfg.M, cfg.zeta, noise)
        self.lin_mult = (-(self.lap**cfg.s) - cfg.b * self.lap).astype(np.complex128)
        # (x*x) @ norm_w on the interleaved float view x of a half block gives the
        # squared L2, H^s and H^-gamma norms; a row with k_0 > 0 counts its mirror too
        w = np.stack([np.ones_like(self.ksq), (1.0 + self.ksq) ** cfg.s,
                      (1.0 + self.ksq) ** (-cfg.gamma)], axis=-1)
        w[1:] *= 2.0
        self.norm_w = np.repeat(w.reshape(-1, 3), 2, axis=0)

    def drift_block(self, block: np.ndarray, lval: float, dw=None, vel=None):
        """(drift block, transport block or None) for this step's increments dw
        or velocity vel (see zeta_block).

        Both are views of work arrays that the next call overwrites.
        """
        out = np.multiply(self.lin_mult, block, out=self._drift)
        with_zeta = self.zeta != "none" and lval != 0.0
        if not with_zeta and dw is None and vel is None:
            return out, None
        zeta, transport = self.zeta_block(block, with_zeta, dw, vel)
        if with_zeta:
            if lval != 1.0:  # the cut-off is inactive on most steps
                zeta *= lval
            out += zeta
        return out, transport


def integrate(cfg: SimConfig, run_index: int = 0) -> TrajectoryRecord:
    """Run one trajectory of the regularized Galerkin system.

    All randomness (initial fluctuation, Brownian increments) derives from
    (cfg.seed, run_index) through the documented splitmix64 mixing, so a
    rerun is bit-identical and ensemble results are independent of
    scheduling order.  Blow-up (L2 norm beyond cfg.blowup_threshold, or a
    non-finite field) ends the run and is recorded, not raised.  A
    snapshot_stride whose snapshots would not fit in physical memory is
    refused before the run starts.
    """
    steps = cfg.n_steps
    stride = cfg.snapshot_stride
    if stride > 0:
        need = (steps // stride + 1) * (2 * cfg.M + 1) ** cfg.d * 16
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise InvalidParameterError(
                f"snapshot_stride = {stride} over {steps} steps keeps {need} bytes of "
                f"snapshots, more than the {have} bytes of physical memory"
            )
    classical = cfg.beta == 1.0
    eng = _Engine(cfg)
    u0_field = build_initial_field(cfg, initial_rng(cfg.seed, run_index))
    if math.sqrt(float(np.sum(np.abs(u0_field.coeffs) ** 2))) >= cfg.blowup_threshold:
        raise InvalidParameterError("initial field norm must lie below blowup_threshold")
    u0 = u0_field.coeffs[cfg.M:].copy()  # the half block k_0 = 0..M

    dt = cfg.dt
    if not classical:
        hist = VolterraHistory(kernel_increments(cfg.beta, dt, steps), u0.size)
    u = u0.copy()  # updated in place, so its flat views u_flat and x stay valid
    u0_flat, u_flat = u0.reshape(-1), u.reshape(-1)
    x = u_flat.view(np.float64)
    xsq = np.empty_like(x)
    norm_w = eng.norm_w
    at_mean = 2 * int(np.ravel_multi_index(eng.center, u.shape))

    # per recorded step: time, l2, hs, hneg_gamma, mean, cutoff
    table = np.empty((steps + 1, 6))
    snapshots: List[Tuple[int, sp.SpectralField]] = []

    noise_on = eng.theta is not None
    if noise_on:
        # one Philox per run, rekeyed per step: same streams as step_rng()
        philox = _philox_state(mix_seed(cfg.seed, run_index, _TAG_NOISE), 0)
        step_key = philox["state"]["key"]
        bg = np.random.Philox(key=0)
        gen = np.random.Generator(bg)
        # V of the next K steps at once: K rows of point values fit VELOCITY_BLOCK_BYTES
        k_max = max(1, VELOCITY_BLOCK_BYTES // (8 * cfg.d * eng.R**cfg.d))
        vels, i = [], 0
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
            snapshots.append((n, sp.SpectralField(cfg.d, cfg.M, sp.hermitian_block(u))))
        if l2_n > cfg.blowup_threshold:
            blew_up = True
            blowup_time = t_n
            break
        if n == steps:
            break

        vel = None
        if noise_on:
            if i == len(vels):
                dw = np.empty((min(k_max, steps - n), eng.theta.n_half, cfg.d - 1), np.complex128)
                for k in range(len(dw)):
                    step_key[1] = n + k
                    bg.state = philox
                    dw[k] = noise_mod.sample_increments(eng.theta, dt, gen).values
                vels, i = eng.velocity(dw), 0
            vel = vels[i]
            i += 1
        g, t_blk = eng.drift_block(u, lval, vel=vel)
        if classical:
            u += np.multiply(dt, g, out=g)
            if noise_on:
                u += t_blk
        else:
            if noise_on:
                g += np.divide(t_blk, dt, out=t_blk)
            # u_{n+1} = u_0 + sum_{k<=n} c_{n+1-k} G_k
            np.add(u0_flat, hist.push(g), out=u_flat)

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

"""The regularized Galerkin system and its fractional time stepper.

State is the half block k_0 = 0..M, the half axis first, of the Hermitian
coefficient block of u_M on ||k||_inf <= M (see spectral.GridTransform).
The drift is -(-Laplace)^s u + b*Laplace u + L_S(||u||_{H^-gamma}) Pi_M
zeta(u); the noise is the spectral transport term with matched amplitude A.
Time stepping is the explicit Volterra-Euler recursion

    u_n = u_0 + sum_{k<n} w[n][k] * (drift(u_k) + transport(u_k, dW_k) / dt)

with w[n][k] = c_{n-k} of fractional.kernel_increments, one Brownian path
per trajectory (the increments of step k are reused by every later n).  The
two terms share their weight, so a step forms their sum G_k once: the linear
part in coefficient space, and zeta plus the transport over dt in one grid
pass (see GridPass), brought back by one transform: for Fisher and "none" the
grid sum lval f(u) + (V/dt).grad u, for Keller-Segel the d fluxes rho' W of
the divergence form, W = V/dt - lval grad c; at beta = 1 the update is
u += dt G_k.  The transport velocity V_k depends on the increments of step k
alone, not on u, so integrate draws the increments of the next K steps (each
step from its own keyed stream) and turns them into V in one pass, point
values or, for Keller-Segel, coefficients; each step's grid pass then reads
its own V from that block.  The history sum is kept by
fractional.VolterraHistory: exact weights for the newest lags, a
sum-of-exponentials fold of the tail, so a step costs O((window + K) P) and the
memory does not grow with the step count.  At beta = 1 the weights are
exactly dt and the recursion collapses to classical Euler-Maruyama, which is
also how it is computed (incrementally).  Configs that differ in noise_N
only, on one grid, step as one stack (integrate_batch): one keyed draw and
one grid pass per step for all of them, each member's record bitwise the one
it gets alone; integrate is the stack of one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field, fields, replace
from functools import partial
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

#: bytes of a member's V in an engine's block of K = max(1, B // (8 d R^d)) steps
#: of point values (24 at d=2, M=4; 6 at d=2, M=8; 1 at d=3, M=8); Keller-Segel's
#: block of the same K holds V's coefficients, fewer bytes
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


def _keyed_rngs(philox: dict, gen: np.random.Generator, n: int):
    """gen keyed in turn as step_rng(seed, run, n), n + 1, ...: philox is the
    run's step_rng state, its step word set before each."""
    key, bg = philox["state"]["key"], gen.bit_generator
    while True:
        key[1] = n
        bg.state = philox
        yield gen
        n += 1


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
        if self.noise_N > 0:
            noise_mod.validate_radius(self.noise_N, self.d)
        if self.blowup_threshold <= 0.0:
            raise InvalidParameterError("blowup_threshold must be positive")
        if self.snapshot_stride < 0:
            raise InvalidParameterError("snapshot_stride must be >= 0")
        # before n_steps rounds it to an int: t_end/dt is inf for a subnormal dt
        if self.t_end / self.dt > MAX_STEPS + 0.5:
            raise InvalidParameterError(
                f"t_end/dt = {self.t_end / self.dt:.6g} steps exceeds the cap of {MAX_STEPS}"
            )
        _validate_init_spec(self.init, self.d)

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


def _validate_init_spec(init: dict, d: int):
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
        if not isinstance(init["coeffs"], (list, tuple)):
            raise InvalidParameterError(f"init coeffs must be a list of modes, got {init}")
        for e in init["coeffs"]:
            if not (isinstance(e, dict) and "k" in e and set(e) <= {"k", "re", "im"}
                    and all(isinstance(e[p], (int, float)) for p in ("re", "im") if p in e)):
                raise InvalidParameterError(
                    f"an init coeffs entry is {{'k': [...], 're': r, 'im': i}}, got {e!r}")
            k = e["k"]
            if not (isinstance(k, (list, tuple)) and len(k) == d
                    and all(isinstance(c, (int, float)) and float(c).is_integer() for c in k)):
                raise InvalidParameterError(f"init coeffs k must hold {d} integers, got {k!r}")
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
    half = u.coeffs[u.M:]
    return sp.SpectralField(u.d, u.M, sp.hermitian_block(
        GridPass(u.d, u.M, "fisher").zeta_block(half[None])[0] - half))


def zeta_keller_segel(rho: sp.SpectralField) -> sp.SpectralField:
    """Chemotaxis coupling -div(rho * grad c) with -Laplace c = rho - mean(rho).

    Computed by the grid pass, whose output mean mode is exactly zero.
    """
    half = GridPass(rho.d, rho.M, "keller_segel").zeta_block(rho.coeffs[None, rho.M:])[0]
    return sp.SpectralField(rho.d, rho.M, sp.hermitian_block(half))


_ZETA_FUNCS = {"fisher": zeta_fisher, "keller_segel": zeta_keller_segel}


def drift(u: sp.SpectralField, cfg: SimConfig) -> sp.SpectralField:
    """Full drift: -(-Laplace)^s u + b Laplace u + L_S(||u||_{H^-gamma}) Pi_M zeta(u).

    The transport noise is not part of it, so its engine is built without.
    """
    if (u.d, u.M) != (cfg.d, cfg.M):
        raise ShapeError(f"field has (d, M) = {(u.d, u.M)} but the config has {(cfg.d, cfg.M)}")
    lval = cutoff_value(sp.sobolev_norm(u, -cfg.gamma), cfg.S)
    half = _Engine(replace(cfg, noise_N=0)).drift_block(u.coeffs[None, u.M:], [lval])[0]
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


class _Velocity:
    """The coefficients of one noise's velocity V = A sum theta_m dW^{m,j}
    q_{m,j} e^{2 pi i m.x} for up to K steps in one pass, written from the
    modes with m_0 >= 0 into a half block on ||m||_inf <= L (L >= N, the
    noise's radius): the input of a transform of its own for the advective
    pass, which it runs after each scatter, or Keller-Segel's block of W.
    """

    def __init__(self, d: int, noise, K: int, n: int, block: np.ndarray, transform=None):
        """noise is the (theta, A) of the transport term, n >= its n_half
        the modes of each step of the draw (the batch's largest noise); the
        coefficients of K steps go to block (K d, L+1, 2L+1, ..., 2L+1), whose
        entries off the support stay zero.

        (V_m, V_{-m}) of step k sit in row k of pm (2, d, K, n), and q is tiled
        K times, zero beyond n_half and stored complex, so that each product is
        one call on whole rows of one dtype: numpy takes buffers for a
        broadcast, a cast, or rows it cannot run as one strided line.  The
        one-step index tables are moved to each step's rows and channels.
        """
        theta, A = noise
        half, nh, L = theta.half_modes, theta.n_half, block.shape[1] - 1
        self._n, self._transform = n, transform
        # V_m[a] = sum_j q[j, a, m] dW^{m,j}
        q = np.zeros((d - 1, d, K, n), np.complex128)
        q[..., :nh] = ((A * theta.half_values) * theta.q.transpose(1, 2, 0))[:, :, None]
        # the modes m of V_m and -m of V_{-m} = conj(V_m) with a first component >= 0
        # (both of a pair with m_0 = 0): flat positions in one step's (V_m, V_{-m})
        # rows (2, d, n_half) and in its d channels of the block.  Selected in
        # Python: np.nonzero would fault in 64 kB more of numpy's code, in every
        # process, for a few hundred modes
        pos, neg = (np.array([i for i, m in enumerate(half.tolist()) if sign * m[0] >= 0],
                             np.int64) for sign in (1, -1))
        comp, k = np.arange(d)[:, None], np.arange(K)[:, None]
        src = np.concatenate([comp * nh + pos, (d + comp) * nh + neg], axis=1).ravel()
        at = np.concatenate([half[pos], -half[neg]]) + L
        at[:, 0] -= L
        shape = (d, L + 1) + (2 * L + 1,) * (d - 1)
        at = np.ravel_multi_index(np.broadcast_arrays(comp, *at.T), shape).ravel()
        self._src = ((src // nh * K + k) * n + src % nh).ravel()
        self._at = (k * block[:d].size + at).ravel()
        pm = np.zeros((2, d, K, n), np.complex128)
        self._rows = [list(zip(qj, *pm)) for qj in q]
        self._pm, self._pm_flat = tuple(pm), pm.reshape(-1)
        self._kept = np.empty(len(self._src), np.complex128)
        self._flat = block.reshape(-1)

    def velocity(self, dw: np.ndarray):
        """V of the first len(dw) <= K steps of the block, from the first n
        rows of each step of dw (len(dw), >= n, d-1).  The row products cover
        those steps; the scatter and the transform run over the block."""
        k, n = len(dw), self._n
        for j, rows in enumerate(self._rows):
            for q, v, tmp in rows:  # no view of dw outlives this: it would add to every peak
                v, tmp = v[:k], tmp[:k]
                np.multiply(q[:k], dw[:, :n, j], out=tmp if j else v)
                if j:
                    v += tmp
        np.conjugate(*self._pm)
        self._pm_flat.take(self._src, 0, self._kept, "clip")
        self._flat[self._at] = self._kept
        if self._transform is not None:
            self._transform()


def _grid_size(M: int, N: int) -> int:
    """R, the points per axis of the grid pass at M with noise radius N (see
    GridPass)."""
    return max(3 * M + 1, 2 * M + N + 1)


class GridPass(sp.GridTransform):
    """Pi_M w, w = lval f(u) + V.grad u, from one grid pass for a stack of
    members: V is the noise's velocity at the amplitude given, lval each
    member's cut-off value.  The grids have R = max(3M+1, 2M+N+1) points per
    axis, where no product aliases onto ||k||_inf <= M (the 2/3 rule), in the
    rotated axis order (x_1, ..., x_{d-1}, x_0) of the plans.  Every block is
    a half block (k_0 = 0..M first, see GridTransform), and the k_0 = 0 plane
    of an output is not symmetrized (the inverse transform reads only its
    Hermitian part).

    Fisher (f = u^2, its -u linear and left to the caller) and "none" (f = 0)
    take the advective form: a grad plan (see GridTransform) gives u and
    grad u, w is summed on the grid and comes back in one channel.  A
    member's lval scales its grid columns through a grid of weights.
    Keller-Segel, f = -div(rho grad c) with -Laplace c = rho' = rho - mean
    rho, takes the divergence form, as V.grad rho = div(rho V) (q.m = 0) and
    div(mean(rho) grad c) = -mean(rho) rho':

        w = lval mean(rho) rho' + div(rho' W),   W = V - lval grad c.

    W is put together in coefficient space on the block of L = max(M, N),
    one plain transform takes rho' and W to the grid, the d fluxes rho' W_a
    come back in one transform, and the divergence is a multiplier.  A
    constant rho gives exactly 0 (rho' = 0), and the mean mode of w is
    exactly 0 (k = 0 and rho'_0 = 0); lval acts in coefficient space only.

    The members of a pass differ in their noise only (a batch, see
    integrate_batch); each has its own _Velocity, and the pass runs over
    their stacked blocks (B, M+1, n, ...) with B times the channels of one
    member, in plans whose GEMMs have the one-member shapes (the members of
    one grid share L: their N are all at most M, or all equal).  V does not
    depend on u, so velocity() builds it for a block of up to K steps, and a
    grid pass takes one step's V of every member from it (vel).  Each pass
    has one layout, K included, fixed at construction by the zeta kind and
    its members, for the whole run (see integrate_batch).  numpy
    takes buffers for a broadcast, a cast or an operation on one member's
    columns, not for a fill, so member-wise steps are fills or calls on
    whole rows.
    """

    def __init__(self, d: int, M: int, zeta: str = "none", noise=None):
        """noise is None (the noise off, one member) or a list with the
        (theta, A) of each member's transport term."""
        radii = [int(np.max(np.abs(n[0].half_modes))) for n in noise or ()]
        N = max(radii, default=0)
        super().__init__(d, M, _grid_size(M, N))
        # the mean mode and the multipliers on the half block
        self.zeta, self.center = zeta, (0,) + (M,) * (d - 1)
        self._mean = (slice(None),) + self.center  # the mean mode of each member
        self.ksq = sp._ksq_grid(d, M)[M:]
        self.lap = 4.0 * np.pi**2 * self.ksq
        ks, noise_on = zeta == "keller_segel", noise is not None
        B, R, L, self.theta = 1, self.R, max(M, N), None
        if noise_on:
            # the members' V of K steps (a member's grids fit VELOCITY_BLOCK_BYTES)
            B, self.K = len(noise), max(1, VELOCITY_BLOCK_BYTES // (8 * d * R**d))
            # the largest noise: the support of the batch's draw
            self.theta = max((n[0] for n in noise), key=lambda t: t.n_half)
            nh = self.theta.n_half
            if ks:  # coefficients on the block of L, member b's K steps in row b
                V = np.zeros((B, self.K * d, L + 1) + (2 * L + 1,) * (d - 1), np.complex128)
                self._vels = [_Velocity(d, n, self.K, nh, V[b]) for b, n in enumerate(noise)]
                V = V.reshape((B, self.K, d) + V.shape[2:])
                self._steps = [V[:, k] for k in range(self.K)]
            else:  # point values (K, d, R, ..., R, B R), member b's in its columns
                V = np.empty((self.K, d) + (R,) * (d - 1) + (B * R,))
                self._vels = []
                for b, (n, Nb) in enumerate(zip(noise, radii)):
                    t = sp.GridTransform(d, Nb, R)
                    plan = t.plan(self.K * d, out=V[..., b * R:(b + 1) * R].reshape(
                        (self.K * d,) + (R,) * d))
                    self._vels.append(_Velocity(d, n, self.K, nh, plan.input,
                                                partial(t._to_grid, plan)))
                self._steps = [tuple(V[k]) for k in range(self.K)]  # step k's (V_1, ..., V_d)
        self._drift = np.empty((B,) + self.ksq.shape, np.complex128)
        self._lay = None  # nothing to compute on the grid
        if ks:
            self._lay = self._flux_layout(B, L)
        elif zeta != "none" or noise_on:
            to = self.plan(1, grad=noise_on, B=B)
            back = self.plan(1, from_grid=True, B=B)
            tmp = np.empty((R,) * (d - 1) + (B * R,))  # the grid product temporary
            cols, p = [(..., slice(b * R, (b + 1) * R)) for b in range(B)], back.input[0]
            self._lay = SimpleNamespace(
                to=to, back=back, u=to.output[0], grad_u=to.output[1:], p=p, tmp=tmp,
                h=back.output, mean=back.output[self._mean],
                mean_re=back.output[self._mean].real,
                # each member's columns of the temporary and of w: filled one by one
                tmp_m=[tmp[c] for c in cols], p_m=[p[c] for c in cols])

    def _flux_layout(self, B: int, L: int) -> SimpleNamespace:
        """Keller-Segel's plans and work arrays: rho' and W of each member on
        the block of L, to the grid in one plan; the d fluxes back in one."""
        d, M, R, half = self.d, self.M, self.R, self.ksq.shape
        to = (self if L == M else sp.GridTransform(d, L, R)).plan(1 + d, B=B)
        back = self.plan(d, from_grid=True, B=B)
        x = to.input.reshape((B, 1 + d) + to.input.shape[1:])  # member-major channels
        mid = (slice(None), slice(0, M + 1)) + (slice(L - M, L + M + 1),) * (d - 1)
        # on the block of L, where rho' is zero beyond M's block
        ik = np.stack([sp.TWO_PI * 1j * g[L:] for g in sp._mode_grids(d, L)])
        lap = 4.0 * np.pi**2 * sp._ksq_grid(d, L)[L:]
        grad_c = -ik * np.divide(1.0, lap, out=np.zeros_like(lap), where=lap > 0.0)
        ik = ik[mid]  # the divergence, on M's block
        return SimpleNamespace(
            to=to, back=back, rho=x[:, 0][mid], rho_mean=x[(slice(None), 0, 0) + (L,) * (d - 1)],
            # each member's rho', W and the products rho' (-ik_a / |2 pi k|^2) into W_a
            W=x[:, 1:], gc=[(r, w, list(zip(grad_c, w))) for r, w in zip(x[:, 0], x[:, 1:])],
            prods=list(zip(to.output[1:], back.input)), rho_grid=to.output[0],
            div=list(zip(back.output.reshape((d, B) + half), np.repeat(ik[:, None], B, axis=1))),
            h=np.empty((B,) + half, np.complex128), tmp=np.empty((B,) + half, np.complex128))

    def velocity(self, dw: np.ndarray) -> list:
        """V for the increments dw (k <= K, n_half, d-1) of k steps.

        dw is drawn on theta, the largest member noise, and each member reads
        its own increments as the first rows of each step (see
        noise.sample_increments).  One pass per member over the block: entry
        i of the returned list is step i's V, the members' stacked (see
        GridPass), views of work arrays that the next call overwrites.  One
        step's increments inc are the block inc[None].
        """
        for v in self._vels:
            v.velocity(dw)
        return self._steps[:len(dw)]

    def zeta_block(self, blocks: np.ndarray, vel=None, lvals=None, l2sq=None) -> np.ndarray:
        """Pi_M w of the members' half blocks (B, M+1, n, ...), stacked likewise
        (see GridTransform.plan for the members' grids).

        vel is this step's V of each member, an entry of velocity(), which a
        pass with the noise on requires; lvals lists the members' cut-off
        values, None if each is 1.  A member at lval == 0 has its lval terms
        left out, never scaled by 0: its w is 0 + V.grad u, summed as alone.
        V.grad u is exactly 0 for a constant u, and its mean, zero
        analytically (q.m = 0), never enters the output's: that is exactly 0
        for Keller-Segel and "none" (a divergence), and for Fisher with the
        noise on lval l2sq, where l2sq lists the members' sum |u_k|^2 over the
        full block (the grid mean of u^2, by Parseval; integrate has it from
        the step's norms).  The output is a view of a work array that the
        next call overwrites.
        """
        if self.zeta == "keller_segel":
            return self._divergence(blocks, vel, lvals)
        lay = self._lay
        u, p, tmp = lay.u, lay.p, lay.tmp
        np.copyto(lay.to.input, blocks)
        self._to_grid(lay.to)
        if self.zeta == "fisher":
            np.multiply(u, u, out=p)
            if lvals is not None and lvals.count(1.0) + lvals.count(0.0) < len(lvals):
                # the weights in tmp, 1 at lval 0 (its f is left out below)
                for t, lval in zip(lay.tmp_m, lvals):
                    t.fill(lval or 1.0)
                p *= tmp
        else:
            p.fill(0.0)
        for pm, lval in zip(lay.p_m, lvals or ()):
            if lval == 0.0:
                pm.fill(0.0)
        for v, gr in zip(vel or (), lay.grad_u):
            p += np.multiply(v, gr, out=tmp)
        self._from_grid(lay.back)
        if self.zeta != "fisher":
            lay.mean.fill(0.0)
        elif vel is not None:
            for b, (lval, sq) in enumerate(zip(lvals or [1.0] * len(l2sq), l2sq)):
                lay.mean_re[b] = lval * sq
        return lay.h

    def _divergence(self, blocks: np.ndarray, vel, lvals) -> np.ndarray:
        """Keller-Segel's Pi_M w in the divergence form (see GridPass)."""
        lay = self._lay
        np.copyto(lay.rho, blocks)
        lay.rho_mean.fill(0.0)
        # W = V - lval grad c, and the scale lval mean(rho) of each member's rho'
        scale = []
        for (rho, W, rows), lval, mean in zip(lay.gc, lvals or [1.0] * len(blocks),
                                              blocks[self._mean].real.tolist()):
            scale.append(lval * mean)
            if lval == 0.0:
                W.fill(0.0)
                continue
            for mult, wa in rows:
                np.multiply(rho, mult, out=wa)
            if lval != 1.0:
                W *= lval
        if vel is not None:
            lay.W += vel
        self._to_grid(lay.to)
        for w, f in lay.prods:
            np.multiply(lay.rho_grid, w, out=f)
        self._from_grid(lay.back)
        h, tmp = lay.h, lay.tmp
        for a, (flux, ik) in enumerate(lay.div):
            np.multiply(flux, ik, out=tmp if a else h)
            if a:
                h += tmp
        for hb, blk, t, s in zip(h, blocks, tmp, scale):
            if s:  # left out at lval == 0; rho' from the block, whole rows
                np.multiply(blk, s, out=t)
                t[self.center] = 0.0
                hb += t
        return h


class _Engine(GridPass):
    """Linear multipliers, norm weights and the grid pass of the configs of a
    batch, on the half block: cfg, and others that differ from it in noise_N
    only (see batch_key).  Each member's velocity has the amplitude A/dt, so
    that the pass returns the transport over dt."""

    def __init__(self, cfg: SimConfig, *others: SimConfig):
        noise = None
        if cfg.noise_N > 0:
            noise = []
            for c in (cfg,) + others:
                theta = noise_mod.make_theta_cutoff(c.noise_N, c.d)
                noise.append((theta, noise_mod.amplitude_A(c.b, theta) / c.dt))
        super().__init__(cfg.d, cfg.M, cfg.zeta, noise)
        # one row per member: a product of operands of one shape is numpy's fast path
        lin = (-(self.lap**cfg.s) - cfg.b * self.lap).astype(np.complex128)
        self.lin_mult = np.repeat(lin[None], len(self._drift), axis=0)
        # Fisher's u^2 - u: the -u joins the linear multiplier
        self._lin = self.lin_mult - 1.0 if cfg.zeta == "fisher" else self.lin_mult
        self._mult = np.empty_like(self.lin_mult)
        # (x*x) @ norm_w on the interleaved float view x of a half block gives the
        # squared L2, H^s and H^-gamma norms; a row with k_0 > 0 counts its mirror too
        w = np.stack([np.ones_like(self.ksq), (1.0 + self.ksq) ** cfg.s,
                      (1.0 + self.ksq) ** (-cfg.gamma)], axis=-1)
        w[1:] *= 2.0
        self.norm_w = np.repeat(w.reshape(-1, 3), 2, axis=0)

    def drift_block(self, blocks: np.ndarray, lvals: list, vel=None, l2sq=None) -> np.ndarray:
        """The forcing G = lin u + lval zeta(u) + transport/dt of the members'
        half blocks (B, M+1, n, ...) at their cut-off values lvals (a list),
        for this step's vel and, for Fisher with the noise on, the members'
        l2sq (see zeta_block).

        Fisher's -lval u is part of the multiplier: lin - 1 where every lval
        is 1, else lin - lval on each member's row.  A member at lval == 0
        has its zeta left out, never scaled by 0; the pass still runs if the
        noise is on.  The output is a view of a work array that the next
        call overwrites.
        """
        full = lvals.count(1.0) == len(lvals)  # the cut-off is inactive on most steps
        mult = self._lin
        if self.zeta == "fisher" and not full:
            mult = self._mult
            for row, lin, lval in zip(mult, self.lin_mult, lvals):
                np.subtract(lin, lval, out=row)
        out = np.multiply(mult, blocks, out=self._drift)
        if vel is not None or (self.zeta != "none" and lvals.count(0.0) < len(lvals)):
            out += self.zeta_block(blocks, vel, None if full else lvals, l2sq)
        return out


def batch_key(cfg: SimConfig):
    """The configs that share a key run as one batch (integrate_batch): the
    noise on, equal but for noise_N, and on one grid.  None for a config that
    runs alone: the noise off."""
    if cfg.noise_N == 0:
        return None
    return replace(cfg, noise_N=0).config_hash(), _grid_size(cfg.M, cfg.noise_N)


def integrate(cfg: SimConfig, run_index: int = 0) -> TrajectoryRecord:
    """Run one trajectory of the regularized Galerkin system.

    All randomness (initial fluctuation, Brownian increments) derives from
    (cfg.seed, run_index) through the documented splitmix64 mixing, so a
    rerun is bit-identical and ensemble results are independent of
    scheduling order.  Blow-up (L2 norm beyond cfg.blowup_threshold, or a
    non-finite field) ends the run and is recorded, not raised.  A
    snapshot_stride whose snapshots would not fit in physical memory is
    refused before the run starts.  This is integrate_batch of one config.
    """
    return integrate_batch([cfg], run_index)[0]


def integrate_batch(cfgs: List[SimConfig], run_index: int = 0) -> List[TrajectoryRecord]:
    """Run trajectory run_index of each config of a batch, stepped as one stack.

    The configs share a batch_key: they differ in noise_N only, so they share
    the initial field, the linear multipliers, the norm weights and the keyed
    Philox stream of each step.  One draw per step at the largest N gives
    each member its own increments as a prefix (noise.draw_increments),
    each member turns them into V through its own velocity pass, and one
    grid pass runs over the stacked members.  A member that blows up ends
    its record and stays in the stack as a zero block at lval 1, out of the
    history: its forcing is exactly 0.  Every GEMM of a member has its
    one-member shape, so each record is the one integrate gives.
    """
    cfg, B = cfgs[0], len(cfgs)
    if B > 1 and (batch_key(cfg) is None or len({batch_key(c) for c in cfgs}) > 1):
        raise InvalidParameterError(
            "a batch needs configs with the noise on that differ in noise_N only, on one grid")
    steps = cfg.n_steps
    stride = cfg.snapshot_stride
    if stride > 0:
        need = B * (steps // stride + 1) * (2 * cfg.M + 1) ** cfg.d * 16
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise InvalidParameterError(
                f"snapshot_stride = {stride} over {steps} steps keeps {need} bytes of "
                f"snapshots, more than the {have} bytes of physical memory"
            )
    classical = cfg.beta == 1.0
    u0_field = build_initial_field(cfg, initial_rng(cfg.seed, run_index))
    if math.sqrt(float(np.sum(np.abs(u0_field.coeffs) ** 2))) >= cfg.blowup_threshold:
        raise InvalidParameterError("initial field norm must lie below blowup_threshold")
    u0 = u0_field.coeffs[cfg.M:].copy()  # the half block k_0 = 0..M
    u0_flat = u0.reshape(-1)

    dt, S, threshold = cfg.dt, cfg.S, cfg.blowup_threshold
    if not classical:
        c_hist = kernel_increments(cfg.beta, dt, steps)
    eng = _Engine(*cfgs)
    u = np.repeat(u0[None], B, axis=0)  # the members' blocks, updated in place
    # per member: the time, l2, hs, hneg_gamma, mean and cutoff of each recorded step,
    # a row of floats packed into a flat buffer (no numpy call per step); the
    # record's arrays are views of the columns of its first n_rec rows, or of a
    # copy of them when they are at most a quarter of the table
    runs = [SimpleNamespace(cfg=c, rows=memoryview(np.empty((steps + 1, 6))), snapshots=[],
                            n_rec=steps + 1, blowup_time=None, u=blk, flat=blk.reshape(-1),
                            hist=None if classical else VolterraHistory(c_hist, u0.size))
            for c, blk in zip(cfgs, u)]
    put_row = struct.Struct("6d").pack_into
    # views of u: the interleaved floats x, x*x, the call that puts the norms in
    # nrm (each member's a gemv, as for one member), x at the mean
    x = u.reshape(B, -1).view(np.float64)
    xsq, nrm = np.empty_like(x), np.empty((B, 3))
    norms, norm_args = sp._gemm(xsq[:, None], eng.norm_w, nrm[:, None])
    means = x[:, 2 * int(np.ravel_multi_index(eng.center, u0.shape))]

    noise_on, live = eng.theta is not None, B
    if noise_on:
        # one Philox per batch, rekeyed per step: same streams as step_rng()
        philox = _philox_state(mix_seed(cfg.seed, run_index, _TAG_NOISE), 0)
        gen = np.random.Generator(np.random.Philox(key=0))
        # V of the next eng.K steps at once; their increments are drawn into one
        # buffer, at the batch's largest noise
        draws = noise_mod.increment_buffer(eng.theta, eng.K)
        vels, k_next = [], 0

    for n in range(steps + 1):
        t_n = n * dt
        np.multiply(x, x, out=xsq)
        norms(*norm_args)
        lvals, sqs = [], []
        for run, (l2sq, hs_sq, hneg_sq), mean in zip(runs, nrm.tolist(), means):
            l2_n, hneg_n = math.sqrt(l2sq), math.sqrt(hneg_sq)
            lval = 1.0 if hneg_n <= S else cutoff_value(hneg_n, S)
            if run.blowup_time is None:  # else a zero block: l2sq 0, lval 1
                finite = math.isfinite(l2_n)
                if finite:
                    put_row(run.rows, 48 * n, t_n, l2_n, math.sqrt(hs_sq), hneg_n, mean, lval)
                    if stride > 0 and n % stride == 0:
                        full = sp.hermitian_block(run.u)
                        run.snapshots.append((n, sp.SpectralField(cfg.d, cfg.M, full)))
                if not finite or l2_n > threshold:  # the record ends with the rows put
                    run.n_rec, run.blowup_time = n + finite, t_n
                    run.u.fill(0.0)
                    run.hist, live, lval, l2sq = None, live - 1, 1.0, 0.0
            lvals.append(lval)
            sqs.append(l2sq)
        if n == steps or not live:
            break

        vel = None
        if noise_on:
            if k_next == len(vels):
                dw = noise_mod.draw_increments(eng.theta, dt, _keyed_rngs(philox, gen, n),
                                               draws[:min(eng.K, steps - n)])
                vels, k_next = eng.velocity(dw), 0
            vel = vels[k_next]
            k_next += 1
        g = eng.drift_block(u, lvals, vel, sqs)
        if classical:
            u += np.multiply(dt, g, out=g)
        else:  # u_{n+1} = u_0 + sum_{k<=n} c_{n+1-k} G_k
            for run, g_b in zip(runs, g):
                if run.hist is not None:
                    np.add(u0_flat, run.hist.push(g_b), out=run.flat)

    records = []
    for run in runs:
        table = np.asarray(run.rows)[:run.n_rec]
        if 4 * run.n_rec <= steps + 1:  # an early blow-up does not keep the whole table alive
            table = table.copy()
        times, l2, hs, hneg, mean, cut = table.T
        records.append(TrajectoryRecord(
            times=times,
            l2=l2,
            hs=hs,
            hneg_gamma=hneg,
            mean=mean,
            cutoff=cut,
            blew_up=run.blowup_time is not None,
            blowup_time=run.blowup_time,
            config_hash=run.cfg.config_hash(),
            seed=run.cfg.seed,
            run_index=run_index,
            dt=dt,
            snapshots=run.snapshots,
        ))
    return records


def with_noise_level(cfg: SimConfig, N: int) -> SimConfig:
    """Config variant at theta cutoff radius N.

    N = 0 is the deterministic reference: noise off and the corrector b
    dropped (the b*Laplace term exists only as the Ito corrector of the
    transport noise, so the unperturbed equation has no b).
    """
    if N == 0:
        return replace(cfg, noise_N=0, b=0.0)
    return replace(cfg, noise_N=N)

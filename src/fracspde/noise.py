"""Transport-noise structure on the torus.

Divergence-free Fourier vector fields q_{m,j} e^{2 pi i m.x} with q.m = 0,
symmetric theta amplitude sequences, complex Brownian increments with
conjugate pairing, the isotropy identity that turns the Ito corrector into
b*Laplace, and the transport term A * sum theta_m (sigma_{m,j} . grad u) dW^{m,j}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .errors import InvalidParameterError, ShapeError
from .spectral import SpectralField, _validate_dim, canonical_half_modes, hermitian_block

#: hard cap on the (2N+1)^d lattice points of a noise radius N, which the
#: support is enumerated over in Python (d=2: N <= 70; d=3: N <= 13)
MAX_NOISE_MODES = 20_000


def canonical_pair_rep(m: Iterable[int]) -> tuple:
    """Lexicographically larger member of {m, -m} (first nonzero positive)."""
    vec = tuple(int(c) for c in m)
    if all(c == 0 for c in vec):
        raise InvalidParameterError("the zero wavevector has no conjugate pair")
    first = next(c for c in vec if c != 0)
    return vec if first > 0 else tuple(-c for c in vec)


def _pair_row(half_modes: np.ndarray, m: Iterable[int]):
    """(row of m's pair representative in half_modes or None, whether m is mirrored)."""
    vec = tuple(int(c) for c in m)
    rep = canonical_pair_rep(vec)
    idx = np.nonzero(np.all(half_modes == np.asarray(rep), axis=1))[0]
    return (int(idx[0]) if idx.size else None), vec != rep


@dataclass(frozen=True)
class ThetaSequence:
    """Symmetric square-summable amplitude sequence theta_m = theta_{-m}.

    Stored on canonical pair representatives, sorted by (max-norm radius,
    lexicographic order) so a larger cutoff only appends rows; the full
    support (both signs) is what counts toward the l2 norm.  q holds the
    directions of sigma_{m,j} = q_{m,j} e^{2 pi i m.x}.
    """

    d: int
    half_modes: np.ndarray
    half_values: np.ndarray

    def __post_init__(self):
        _validate_dim(self.d)
        hm = np.ascontiguousarray(self.half_modes, dtype=np.int64)
        hv = np.ascontiguousarray(self.half_values, dtype=np.float64)
        if hm.ndim != 2 or hm.shape[1] != self.d or hv.shape != (hm.shape[0],):
            raise ShapeError("inconsistent theta support arrays")
        if hm.shape[0] == 0:
            raise InvalidParameterError("theta support must be nonempty")
        hm.flags.writeable = False
        hv.flags.writeable = False
        object.__setattr__(self, "half_modes", hm)
        object.__setattr__(self, "half_values", hv)

    @property
    def n_half(self) -> int:
        return self.half_modes.shape[0]

    @property
    def l2_norm(self) -> float:
        return float(np.sqrt(2.0 * np.sum(self.half_values**2)))

    @property
    def linf_norm(self) -> float:
        return float(np.max(np.abs(self.half_values)))

    def value(self, m: Iterable[int]) -> float:
        row, _ = _pair_row(self.half_modes, m)
        return 0.0 if row is None else float(self.half_values[row])

    @cached_property
    def q(self) -> np.ndarray:
        """The directions q_{m,j} of each half mode, read-only, (n_half, d-1, d)."""
        q = np.stack([build_orthonormal_complement(m, self.d) for m in self.half_modes])
        q.flags.writeable = False
        return q

    def vectors(self, m: Iterable[int]) -> np.ndarray:
        """The d-1 orthonormal vectors for m (identical for m and -m)."""
        row, _ = _pair_row(self.half_modes, m)
        if row is None:
            raise ShapeError(f"wavevector {tuple(m)} is not in the theta support")
        return self.q[row]


def validate_radius(N: int, d: int):
    """Refuse a cutoff radius N below 1, or one whose (2N+1)^d lattice points
    exceed MAX_NOISE_MODES, before any of them is enumerated."""
    _validate_dim(d)
    if N < 1:
        raise InvalidParameterError(f"cutoff radius N must be >= 1, got {N}")
    if (2 * N + 1) ** d > MAX_NOISE_MODES:
        raise InvalidParameterError(
            f"cutoff radius N = {N} at d = {d} spans (2N+1)^d = {(2 * N + 1) ** d} lattice "
            f"modes, more than the cap of {MAX_NOISE_MODES}"
        )


@lru_cache(maxsize=16)
def make_theta_cutoff(N: int, d: int) -> ThetaSequence:
    """theta_m = 1 on 0 < ||m||_inf <= N, one per (N, d); l_inf/l2 decays as N grows."""
    validate_radius(N, d)
    half = canonical_half_modes(d, N)
    return ThetaSequence(d, half, np.ones(len(half)))


def build_orthonormal_complement(m: Iterable[int], d: int) -> np.ndarray:
    """Orthonormal basis {q_{m,j}} of m-perp, deterministic with q_{-m} = q_m.

    The basis is computed on the canonical representative of {m, -m} and
    shared by both signs.  In 2D it is the normalized perpendicular
    (-c2, c1); in 3D, Gram-Schmidt of the two coordinate axes least aligned
    with m, lower axis index first on ties.
    """
    c = np.asarray(canonical_pair_rep(m), dtype=np.float64)
    if c.shape != (d,):
        raise ShapeError(f"wavevector has dimension {c.shape[0]}, expected {d}")
    chat = c / np.linalg.norm(c)
    if d == 2:
        return np.array([[-chat[1], chat[0]]])
    axes = sorted(range(3), key=lambda i: (abs(c[i]), i))[:2]
    q = np.empty((2, 3))
    v = np.eye(3)[axes[0]] - np.dot(np.eye(3)[axes[0]], chat) * chat
    q[0] = v / np.linalg.norm(v)
    v = np.eye(3)[axes[1]] - np.dot(np.eye(3)[axes[1]], chat) * chat
    v -= np.dot(v, q[0]) * q[0]
    q[1] = v / np.linalg.norm(v)
    return q


def isotropy_matrix(theta: ThetaSequence) -> np.ndarray:
    """sum_m theta_m^2 sum_j q_{m,j} (x) q_{m,j} over the full support.

    For supports closed under m -> -m and under the coordinate symmetries,
    with theta constant on orbits, this equals ((d-1)/d) ||theta||_{l2}^2 I.
    """
    half = np.einsum("m,mja,mjb->ab", theta.half_values**2, theta.q, theta.q)
    return 2.0 * half


def amplitude_A(b: float, theta: ThetaSequence) -> float:
    """Noise amplitude A = sqrt(d*b / ((d-1) ||theta||^2)).

    With this scaling the Stratonovich-to-Ito corrector of the transport
    noise is exactly b*Laplace.
    """
    d = theta.d
    if not (math.isfinite(b) and b >= 0.0):
        raise InvalidParameterError(f"corrector strength b must be finite and >= 0, got {b}")
    l2sq = theta.l2_norm**2
    if l2sq <= 0.0:
        raise InvalidParameterError("theta must have positive l2 norm")
    return float(np.sqrt(d * b / ((d - 1) * l2sq)))


@dataclass(frozen=True)
class NoiseIncrements:
    """One step of complex Brownian increments, conjugate-mirrored.

    values[i, j] is Delta W^{m,j} for the i-th canonical half mode; the
    increment at -m is its conjugate.  Real and imaginary parts are
    independent N(0, dt), so E|Delta W|^2 = 2 dt.
    """

    dt: float
    half_modes: np.ndarray
    values: np.ndarray  # complex, shape (n_half, d-1)

    def value(self, m: Iterable[int], j: int) -> complex:
        row, mirrored = _pair_row(self.half_modes, m)
        if row is None:
            raise ShapeError(f"wavevector {tuple(m)} is not in the increment support")
        v = complex(self.values[row, j])
        return v.conjugate() if mirrored else v


def sample_increments(
    theta: ThetaSequence, dt: float, rng: np.random.Generator
) -> NoiseIncrements:
    """Draw increments for the canonical half modes in their stored order.

    The draw order (mode-major, then j, then re/im) is a stability contract:
    two theta cutoffs sharing a prefix of half modes consume identical
    normals for the shared modes from an identically seeded generator.
    """
    if dt <= 0.0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    values = draw_increments(theta, dt, [rng], increment_buffer(theta, 1))[0]
    return NoiseIncrements(dt=float(dt), half_modes=theta.half_modes, values=values)


def increment_buffer(theta: ThetaSequence, K: int) -> np.ndarray:
    """A float buffer for draw_increments of K steps at theta or a smaller cutoff."""
    return np.empty((K, theta.n_half, theta.d - 1, 2))


def draw_increments(theta: ThetaSequence, dt: float, rngs: Iterable[np.random.Generator],
                    out: np.ndarray) -> np.ndarray:
    """The increment values (K, n_half, d-1) of K = len(out) steps at theta,
    drawn into the buffer out (see increment_buffer): step k's from the k-th
    generator of rngs, in the order of sample_increments, so that a step's
    values are sample_increments(theta, dt, rng).values for its generator."""
    rows = out[:, :theta.n_half]
    for row, rng in zip(rows, rngs):
        rng.standard_normal(out=row)
    rows *= np.sqrt(dt)
    return rows.view(np.complex128)[..., 0]


def transport_term(u: SpectralField, theta: ThetaSequence, inc: NoiseIncrements,
                   A: float) -> SpectralField:
    """A sum_{m,j} theta_m (sigma_{m,j} . grad u) Delta W^{m,j}, truncated to M.

    Computed by the integrator's grid pass (dynamics.GridPass).  The result
    is exactly Hermitian-symmetric and has exactly zero mean mode (q.m = 0
    kills the l = 0 contribution).
    """
    from .dynamics import GridPass  # dynamics imports this module

    if not np.array_equal(inc.half_modes, theta.half_modes):
        raise ShapeError("increments were not sampled on this theta support")
    if theta.d != u.d:
        raise ShapeError(f"theta dimension {theta.d} does not match d = {u.d}")
    kernel = GridPass(u.d, u.M, noise=[(theta, A)])
    half = kernel.zeta_block(u.coeffs[None, u.M:], kernel.velocity(inc.values[None])[0])[0]
    return SpectralField(u.d, u.M, hermitian_block(half))

"""Transport-noise structure on the torus.

Divergence-free Fourier vector fields q_{m,j} e^{2 pi i m.x} with q.m = 0,
symmetric theta amplitude sequences, complex Brownian increments with
conjugate pairing, the isotropy identity that turns the Ito corrector into
b*Laplace, and the transport term A * sum theta_m (sigma_{m,j} . grad u) dW^{m,j}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidParameterError, ShapeError
from .spectral import SpectralField, _validate_dim, hermitian_block


def canonical_pair_rep(m: Iterable[int]) -> tuple:
    """Lexicographically larger member of {m, -m} (first nonzero positive)."""
    vec = tuple(int(c) for c in m)
    if all(c == 0 for c in vec):
        raise InvalidParameterError("the zero wavevector has no conjugate pair")
    first = next(c for c in vec if c != 0)
    return vec if first > 0 else tuple(-c for c in vec)


@dataclass(frozen=True)
class ThetaSequence:
    """Symmetric square-summable amplitude sequence theta_m = theta_{-m}.

    Stored on canonical pair representatives, sorted by (max-norm radius,
    lexicographic order) so a larger cutoff only appends rows; the full
    support (both signs) is what counts toward the l2 norm.
    """

    d: int
    half_modes: np.ndarray
    half_values: np.ndarray

    def __post_init__(self):
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

    @classmethod
    def from_support(cls, d: int, modes, values) -> "ThetaSequence":
        """Build from the full two-sided support, validating the symmetry."""
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
            half[canonical_pair_rep(key)] = v
        reps = sorted(half, key=lambda v: (max(abs(c) for c in v), v))
        return cls(
            d=d,
            half_modes=np.array(reps, dtype=np.int64),
            half_values=np.array([half[r] for r in reps]),
        )

    @property
    def n_half(self) -> int:
        return self.half_modes.shape[0]

    @property
    def support(self) -> np.ndarray:
        """Full two-sided support, canonical and mirrored rows interleaved."""
        out = np.empty((2 * self.n_half, self.d), dtype=np.int64)
        out[0::2] = self.half_modes
        out[1::2] = -self.half_modes
        return out

    @property
    def l2_norm(self) -> float:
        return float(np.sqrt(2.0 * np.sum(self.half_values**2)))

    @property
    def linf_norm(self) -> float:
        return float(np.max(np.abs(self.half_values)))

    def value(self, m: Iterable[int]) -> float:
        rep = canonical_pair_rep(m)
        hit = np.all(self.half_modes == np.asarray(rep), axis=1)
        idx = np.nonzero(hit)[0]
        return float(self.half_values[idx[0]]) if idx.size else 0.0


def make_theta_cutoff(N: int, d: int) -> ThetaSequence:
    """theta_m = 1 on 0 < ||m||_inf <= N; the l_inf/l2 ratio decays as N grows."""
    _validate_dim(d)
    if N < 1:
        raise InvalidParameterError(f"cutoff radius N must be >= 1, got {N}")
    modes = [
        tuple(c - N for c in idx)
        for idx in np.ndindex(*(2 * N + 1,) * d)
        if any(c != N for c in idx)
    ]
    return ThetaSequence.from_support(d, modes, np.ones(len(modes)))


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


@dataclass(frozen=True)
class NoiseBasis:
    """q_{m,j} direction vectors aligned with a theta sequence's half modes."""

    d: int
    half_modes: np.ndarray
    q: np.ndarray  # shape (n_half, d-1, d)

    def __post_init__(self):
        q = np.array(self.q, dtype=np.float64)
        if q.shape != (self.half_modes.shape[0], self.d - 1, self.d):
            raise ShapeError("basis array shape does not match its support")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    def vectors(self, m: Iterable[int]) -> np.ndarray:
        """The d-1 orthonormal vectors for m (identical for m and -m)."""
        rep = canonical_pair_rep(m)
        hit = np.all(self.half_modes == np.asarray(rep), axis=1)
        idx = np.nonzero(hit)[0]
        if not idx.size:
            raise ShapeError(f"wavevector {tuple(m)} is not in the basis support")
        return self.q[idx[0]]


def build_noise_basis(theta: ThetaSequence) -> NoiseBasis:
    q = np.stack(
        [build_orthonormal_complement(m, theta.d) for m in theta.half_modes]
    )
    return NoiseBasis(d=theta.d, half_modes=theta.half_modes, q=q)


def _check_aligned(theta: ThetaSequence, basis: NoiseBasis):
    if basis.d != theta.d or not np.array_equal(basis.half_modes, theta.half_modes):
        raise ShapeError("noise basis was not built on this theta support")


def isotropy_matrix(theta: ThetaSequence, basis: NoiseBasis) -> np.ndarray:
    """sum_m theta_m^2 sum_j q_{m,j} (x) q_{m,j} over the full support.

    For supports closed under m -> -m and under the coordinate symmetries,
    with theta constant on orbits, this equals ((d-1)/d) ||theta||_{l2}^2 I.
    """
    _check_aligned(theta, basis)
    half = np.einsum("m,mja,mjb->ab", theta.half_values**2, basis.q, basis.q)
    return 2.0 * half


def amplitude_A(b: float, theta: ThetaSequence, d: int | None = None) -> float:
    """Noise amplitude A = sqrt(d*b / ((d-1) ||theta||^2)).

    With this scaling the Stratonovich-to-Ito corrector of the transport
    noise is exactly b*Laplace.
    """
    if d is None:
        d = theta.d
    if d != theta.d:
        raise InvalidParameterError(f"dimension {d} does not match theta (d={theta.d})")
    if b < 0.0:
        raise InvalidParameterError(f"corrector strength b must be >= 0, got {b}")
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
        vec = tuple(int(c) for c in m)
        rep = canonical_pair_rep(vec)
        hit = np.all(self.half_modes == np.asarray(rep), axis=1)
        idx = np.nonzero(hit)[0]
        if not idx.size:
            raise ShapeError(f"wavevector {vec} is not in the increment support")
        v = complex(self.values[idx[0], j])
        return v if vec == rep else v.conjugate()


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
    draws = rng.standard_normal((theta.n_half, theta.d - 1, 2))
    draws *= np.sqrt(dt)
    return NoiseIncrements(dt=float(dt), half_modes=theta.half_modes,
                           values=draws.view(np.complex128)[..., 0])


def transport_term(
    u: SpectralField,
    theta: ThetaSequence,
    basis: NoiseBasis,
    inc: NoiseIncrements,
    A: float,
) -> SpectralField:
    """A sum_{m,j} theta_m (sigma_{m,j} . grad u) Delta W^{m,j}, truncated to M.

    Computed by the integrator's grid pass (dynamics.GridPass).  The result
    is exactly Hermitian-symmetric and has exactly zero mean mode (q.m = 0
    kills the l = 0 contribution).
    """
    from .dynamics import GridPass  # dynamics imports this module

    if not np.array_equal(inc.half_modes, theta.half_modes):
        raise ShapeError("increments were not sampled on this theta support")
    _check_aligned(theta, basis)
    if theta.d != u.d:
        raise ShapeError(f"theta dimension {theta.d} does not match d = {u.d}")
    kernel = GridPass(u.d, u.M, noise=(theta, basis, A))
    half = kernel.zeta_block(u.coeffs[u.M:], False, inc.values)[1]
    return SpectralField(u.d, u.M, hermitian_block(half))

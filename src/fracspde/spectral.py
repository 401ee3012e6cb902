"""Real scalar fields on the d-torus as truncated Fourier series.

A field u(x) = sum_k c_k exp(2*pi*i k.x) is stored through its coefficient
block on the max-norm ball ||k||_inf <= M, with Hermitian symmetry
c_{-k} = conj(c_k) keeping u real-valued.  Fourier-multiplier operators,
Sobolev norms, and the pruned-DFT grid transforms (GridTransform, shared with
the integrator) for dealiased pseudospectral products live here.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Tuple

import numpy as np

from .errors import InvalidParameterError, ShapeError

TWO_PI = 2.0 * np.pi

_HERMITIAN_TOL = 1.0e-12


def _validate_dim(d: int) -> int:
    if d not in (2, 3):
        raise InvalidParameterError(f"dimension d must be 2 or 3, got {d}")
    return int(d)


@lru_cache(maxsize=32)
def _mode_grids(d: int, M: int) -> Tuple[np.ndarray, ...]:
    """Integer wavevector component arrays, each shaped (2M+1,)*d."""
    axes = [np.arange(-M, M + 1)] * d
    return tuple(np.meshgrid(*axes, indexing="ij"))


@lru_cache(maxsize=32)
def _ksq_grid(d: int, M: int) -> np.ndarray:
    grids = _mode_grids(d, M)
    out = np.zeros((2 * M + 1,) * d)
    for g in grids:
        out += g.astype(np.float64) ** 2
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def canonical_half_modes(d: int, M: int) -> np.ndarray:
    """Canonical representatives of the conjugate pairs {k, -k}, 0 excluded.

    The canonical member is the lexicographically larger of the pair, i.e.
    the one whose first nonzero component is positive.  Rows are sorted by
    (max-norm radius, lexicographic order) so that enlarging M only appends.
    """
    modes = []
    for k in np.ndindex(*(2 * M + 1,) * d):
        vec = tuple(int(c) - M for c in k)
        if all(c == 0 for c in vec):
            continue
        first = next(c for c in vec if c != 0)
        if first > 0:
            modes.append(vec)
    modes.sort(key=lambda v: (max(abs(c) for c in v), v))
    arr = np.array(modes, dtype=np.int64).reshape(len(modes), d)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpectralField:
    """Hermitian-symmetric coefficient block of a real field on T^d."""

    d: int
    M: int
    coeffs: np.ndarray

    def __post_init__(self):
        _validate_dim(self.d)
        if self.M < 0:
            raise InvalidParameterError(f"mode cutoff M must be >= 0, got {self.M}")
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (2 * self.M + 1,) * self.d:
            raise ShapeError(
                f"coefficient block must have shape {(2 * self.M + 1,) * self.d}, "
                f"got {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def mean(self) -> float:
        """Mean of the field, i.e. the k = 0 coefficient."""
        return float(self.coeffs[(self.M,) * self.d].real)

    def coeff(self, k: Iterable[int]) -> complex:
        """Coefficient at wavevector k (implicitly zero outside the block)."""
        idx = tuple(int(c) + self.M for c in k)
        if any(i < 0 or i > 2 * self.M for i in idx):
            return 0.0 + 0.0j
        return complex(self.coeffs[idx])

    def is_hermitian(self, tol: float = _HERMITIAN_TOL) -> bool:
        rev = tuple(slice(None, None, -1) for _ in range(self.d))
        return bool(
            np.max(np.abs(self.coeffs - np.conj(self.coeffs[rev]))) <= tol
        ) and abs(self.coeffs[(self.M,) * self.d].imag) <= tol


@dataclass(frozen=True)
class GridField:
    """Real point values on the equispaced tensor grid of [0, 1)^d."""

    d: int
    resolution: int
    values: np.ndarray

    def __post_init__(self):
        _validate_dim(self.d)
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.shape != (self.resolution,) * self.d:
            raise ShapeError(
                f"grid values must have shape {(self.resolution,) * self.d}, "
                f"got {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


def hermitian_block(half: np.ndarray) -> np.ndarray:
    """The full block (n, ..., n) of a half block (M+1, n, ..., n) of k_0 = 0..M.

    Mirrors the k_0 > 0 planes and averages the k_0 = 0 plane as
    (x_k + conj(x_{-k})) / 2: exactly Hermitian, with an exactly real mean.
    """
    M, rev = len(half) - 1, (slice(None, None, -1),) * (half.ndim - 1)
    out = np.concatenate([np.conj(half[(slice(M, 0, -1),) + rev]), half])
    out[M] = (half[0] + np.conj(half[0][rev])) / 2
    return out


def zeros(d: int, M: int) -> SpectralField:
    return SpectralField(d, M, np.zeros((2 * M + 1,) * d, dtype=np.complex128))


def constant(d: int, M: int, value: float) -> SpectralField:
    arr = np.zeros((2 * M + 1,) * d, dtype=np.complex128)
    arr[(M,) * d] = value
    return SpectralField(d, M, arr)


def from_modes(d: int, M: int, entries: dict) -> SpectralField:
    """Field from a {wavevector: coefficient} mapping.

    Missing conjugate partners are filled with the mirrored conjugate; an
    explicitly supplied pair must already satisfy c_{-k} = conj(c_k).
    """
    arr = np.zeros((2 * M + 1,) * d, dtype=np.complex128)
    given = {}
    for k, v in entries.items():
        key = tuple(int(c) for c in k)
        if any(abs(c) > M for c in key):
            raise InvalidParameterError(f"wavevector {key} outside ||k||_inf <= {M}")
        given[key] = complex(v)
    for key, v in given.items():
        neg = tuple(-c for c in key)
        if neg in given and given[neg] != v.conjugate():
            raise InvalidParameterError(
                f"entries at {key} and {neg} are not conjugate partners"
            )
        arr[tuple(c + M for c in key)] = v
        if neg not in given:
            arr[tuple(c + M for c in neg)] = v.conjugate()
    center = (M,) * d
    if abs(arr[center].imag) != 0.0:
        raise InvalidParameterError("the k = 0 coefficient must be real")
    return SpectralField(d, M, arr)


def mode_pair(d: int, M: int, k: Iterable[int], amplitude: complex = 1.0) -> SpectralField:
    """Field with coefficients `amplitude` at k and conj(amplitude) at -k."""
    k = tuple(int(c) for c in k)
    return from_modes(d, M, {k: amplitude, tuple(-c for c in k): np.conj(amplitude)})


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Inhomogeneous Sobolev norm (sum_k (1+|k|^2)^s |c_k|^2)^(1/2).

    Negative s gives the H^{-gamma} norms consumed by the cut-off.
    """
    w = (1.0 + _ksq_grid(f.d, f.M)) ** s
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def homogeneous_seminorm(f: SpectralField, s: float) -> float:
    """Diagnostic seminorm ||(-Laplace)^(s/2) f||_{L^2} (mean mode dropped)."""
    ksq = _ksq_grid(f.d, f.M)
    w = np.where(ksq > 0.0, (4.0 * np.pi**2 * ksq) ** s, 0.0)
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def l2_inner(f: SpectralField, g: SpectralField) -> float:
    """L^2 pairing <f, g> = sum_k f_k conj(g_k) of two real fields."""
    if (f.d, f.M) != (g.d, g.M):
        raise ShapeError("fields live on different mode sets")
    return float(np.sum(f.coeffs * np.conj(g.coeffs)).real)


def frac_laplacian_apply(f: SpectralField, s: float) -> SpectralField:
    """Apply -(-Laplace)^s, the Fourier multiplier -(4 pi^2 |k|^2)^s."""
    if s < 1.0:
        raise InvalidParameterError(f"fractional Laplacian order s must be >= 1, got {s}")
    ksq = _ksq_grid(f.d, f.M)
    mult = np.where(ksq > 0.0, -((4.0 * np.pi**2 * ksq) ** s), 0.0)
    return SpectralField(f.d, f.M, f.coeffs * mult)


def laplacian_inverse(f: SpectralField) -> SpectralField:
    """Solve -Laplace c = f - mean(f); the k = 0 mode of the input is ignored."""
    ksq = _ksq_grid(f.d, f.M)
    denom = np.where(ksq > 0.0, 4.0 * np.pi**2 * ksq, 1.0)
    out = f.coeffs / denom
    out[(f.M,) * f.d] = 0.0
    return SpectralField(f.d, f.M, out)


def gradient(f: SpectralField) -> Tuple[SpectralField, ...]:
    """Spectral gradient; component j carries the multiplier 2 pi i k_j."""
    grids = _mode_grids(f.d, f.M)
    return tuple(
        SpectralField(f.d, f.M, TWO_PI * 1j * g * f.coeffs) for g in grids
    )


def project_modes(f: SpectralField, M_new: int) -> SpectralField:
    """Zero every coefficient with ||k||_inf > M_new (Galerkin projection)."""
    if M_new < 0:
        raise InvalidParameterError(f"projection cutoff must be >= 0, got {M_new}")
    if M_new >= f.M:
        return f
    out = np.zeros_like(f.coeffs)
    sl = tuple(slice(f.M - M_new, f.M + M_new + 1) for _ in range(f.d))
    out[sl] = f.coeffs[sl]
    return SpectralField(f.d, f.M, out)


def grid_resolution(M: int, dealias: bool = True) -> int:
    """Smallest power of two meeting the 2/3-rule bound 3M+1 (or 2M+1 raw)."""
    need = 3 * M + 1 if dealias else 2 * M + 1
    r = 1
    while r < need:
        r *= 2
    return r


def _dft(K: int, R: int) -> np.ndarray:
    """E[x, k] = exp(2 pi i x k / R) for x < R, |k| <= K."""
    return np.exp((TWO_PI * 1j / R) * (np.outer(np.arange(R), np.arange(-K, K + 1)) % R))


def _real_rows(A: np.ndarray) -> np.ndarray:
    """Rows Re A[:, k], -Im A[:, k]: a complex block viewed as interleaved
    (re, im) floats times them is Re(block @ A.T)."""
    return np.stack([A.real.T, -A.imag.T], axis=1).reshape(-1, len(A))


#: one transform direction for C stacked channels with its arrays bound: a run
#: writes `input`, makes the calls op(*args) of `ops` in order, reads `output`
TransformPlan = namedtuple("TransformPlan", "input ops output")


class GridTransform:
    """Pruned matrix DFTs between half blocks on ||k||_inf <= M and R^d point values.

    Only the 2M+1 retained frequencies go in and come out, and on blocks this
    small a matmul beats an FFT call.  Any R >= 2M+1 works; it is not rounded
    to a power of two.  The grid values are real, so the coefficient block is
    Hermitian and its k_0 < 0 half is the conjugate mirror of the rest: both
    directions carry only the half block (M+1, n, ..., n) of k_0 = 0..M, the
    half axis first, as the r2c/c2r transforms of FFTW do on their last axis.

    Every pass is one GEMM per channel, by sum factorization with axis
    rotation (Orszag 1980): the inverse contracts the last axis of each
    channel through a transposed operand, E @ X.T, and writes the new grid
    axis first; after the d-1 complex axes the half axis k_0 is last, and a
    real matmul on the interleaved float view, its rows of k_0 > 0 counted
    twice, gives Re sum (the grid sees only the Hermitian part of the
    k_0 = 0 plane).  The grid comes out in the rotated axis order
    (x_1, ..., x_{d-1}, x_0); only the public to_grid and from_grid
    transpose it.  The forward mirrors this: the real pass over x_0 first,
    keeping the k_0 >= 0 columns, then each pass contracts the first axis
    and writes the new one last, which returns the half block in its own
    order.  A plan with grad also gives each channel's gradient: the pass
    over axis a stacks E diag(2 pi i k) under E, and the blocks already
    differentiated along a later axis take E alone, so the value and the d
    derivatives share their intermediates.  Each direction, channel count
    and grad has one plan, built on first use and shared by every caller
    with that key, so a returned array is valid only until the next run of
    the same plan.
    """

    def __init__(self, d: int, M: int, R: int):
        self.d, self.M, self.R = d, M, R
        E, ik = _dft(M, R), TWO_PI * 1j * np.arange(-M, M + 1)
        self._E, self._E_dE = E, np.concatenate([E, E * ik])
        # the k_0 < 0 half adds the conjugate of the k_0 > 0 rows: their Re twice
        half = E[:, M:] * np.array([1.0] + [2.0] * M)
        self._E_half = np.stack([_real_rows(half), _real_rows(half * ik[M:])])
        # forward: F = conj(E).T / R; grids @ F_half viewed as complex is grids @ F.T
        self._FT = E.conj() / R
        self._F_half = np.ascontiguousarray(_real_rows(E[:, M:]).T / R)
        self._plans = {}

    def plan(self, C: int, from_grid: bool = False, grad: bool = False) -> TransformPlan:
        """The plan of C channels for _to_grid (with each channel's gradient
        if grad), or for _from_grid if from_grid."""
        key = (C, from_grid, grad)
        if key not in self._plans:
            self._plans[key] = self._from_plan(C) if from_grid else self._to_plan(C, grad)
        return self._plans[key]

    def _to_plan(self, C: int, grad: bool) -> TransformPlan:
        M, n, R, d, ops = self.M, 2 * self.M + 1, self.R, self.d, []
        shape = (M + 1,) + (n,) * (d - 1)
        stack = np.zeros((C,) + shape, np.complex128)
        # x[c, 0] is channel c's value so far, x[c, 1:] its blocks differentiated already
        x = stack[:, None]
        for _ in range(d - 1):  # contract the last axis, write the new one first
            g, shape = x.shape[1], (R,) + shape[:-1]
            a, y = x.reshape(C, g, -1, n), np.empty((C, g + grad) + shape, np.complex128)
            rows = a.shape[2]
            ops.append((np.matmul, (self._E_dE if grad else self._E, a[:, 0].mT,
                                    y[:, :1 + grad].reshape(C, -1, rows))))
            if g > 1:
                ops.append((np.matmul, (self._E, a[:, 1:].mT,
                                        y[:, 2:].reshape(C, g - 1, R, rows))))
            x = y
        # the half axis, now last: a real matmul on the interleaved float view
        g = x.shape[1]
        a = x.reshape(C, g, -1, M + 1).view(np.float64)
        out = np.empty((C, g + grad, R ** (d - 1), R))
        if grad:
            ops.append((np.matmul, (a[:, :1], self._E_half, out[:, :2])))
            if g > 1:
                ops.append((np.matmul, (a[:, 1:].reshape(C, -1, 2 * M + 2), self._E_half[0],
                                        out[:, 2:].reshape(C, -1, R))))
        else:  # one GEMM over the rows of every channel
            ops.append((np.matmul, (a.reshape(-1, 2 * M + 2), self._E_half[0],
                                    out.reshape(-1, R))))
        return TransformPlan(stack, tuple(ops), out.reshape((-1,) + (R,) * d))

    def _from_plan(self, C: int) -> TransformPlan:
        M, n, R, d = self.M, 2 * self.M + 1, self.R, self.d
        grids = np.zeros((C,) + (R,) * d)
        x = np.empty((C,) + (R,) * (d - 1) + (M + 1,), np.complex128)
        ops = [(np.matmul, (grids.reshape(-1, R), self._F_half,
                            x.reshape(-1, M + 1).view(np.float64)))]
        for _ in range(d - 1):  # contract the first axis, write it last
            y = np.empty((C,) + x.shape[2:] + (n,), np.complex128)
            ops.append((np.matmul, (x.reshape(C, R, -1).mT, self._FT, y.reshape(C, -1, n))))
            x = y
        return TransformPlan(grids, tuple(ops), x)

    def _to_grid(self, plan: TransformPlan) -> np.ndarray:
        """Run a plan: the real point values (C', R, ..., R) in rotated axis
        order of the half blocks (C, M+1, n, ..., n) in plan.input (C' = C,
        or C (1 + d) for a grad plan: each channel's value, then its d
        derivatives), or for a from-grid plan (_from_grid) the half blocks
        of the real grids in plan.input."""
        for op, args in plan.ops:
            op(*args)
        return plan.output

    _from_grid = _to_grid


def to_grid(f: SpectralField, dealias: bool = True, resolution: int | None = None) -> GridField:
    """Evaluate the field on the equispaced grid (a GridTransform at that resolution).

    The block is taken to be Hermitian, as a SpectralField's is: its half with
    k_0 < 0 is not read.
    """
    R = resolution if resolution is not None else grid_resolution(f.M, dealias)
    if R < (3 * f.M + 1 if dealias else 2 * f.M + 1):
        raise InvalidParameterError(
            f"resolution {R} too small for M = {f.M} (dealias={dealias})"
        )
    transform = GridTransform(f.d, f.M, R)
    transform.plan(1).input[0] = f.coeffs[f.M:]
    return GridField(f.d, R, np.moveaxis(transform._to_grid(transform.plan(1))[0], -1, 0))


def from_grid(g: GridField, M: int) -> SpectralField:
    """Truncated forward transform; the block is exactly Hermitian (hermitian_block)."""
    if g.resolution < 2 * M + 1:
        raise InvalidParameterError(
            f"grid resolution {g.resolution} cannot represent modes up to M = {M}"
        )
    transform = GridTransform(g.d, M, g.resolution)
    transform.plan(1, from_grid=True).input[0] = np.moveaxis(g.values, 0, -1)
    half = transform._from_grid(transform.plan(1, from_grid=True))[0]
    return SpectralField(g.d, M, hermitian_block(half))


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased pseudospectral product truncated back to ||k||_inf <= M."""
    if (f.d, f.M) != (g.d, g.M):
        raise ShapeError("fields live on different mode sets")
    R = grid_resolution(f.M, dealias=True)
    fg = to_grid(f, resolution=R).values * to_grid(g, resolution=R).values
    return from_grid(GridField(f.d, R, fg), f.M)


def random_field(
    rng: np.random.Generator,
    d: int,
    M: int,
    decay: float,
    amplitude: float,
    mean: float = 0.0,
) -> SpectralField:
    """Random real field with E|c_k|^2 = (amplitude * (1+|k|^2)^(-decay/2))^2.

    Coefficients on the canonical half lattice are independent complex
    Gaussians, mirrored to their conjugates; the k = 0 mode is the prescribed
    mean.  Deterministic for a given generator state.
    """
    if decay < 0.0:
        raise InvalidParameterError(f"decay must be >= 0, got {decay}")
    half = canonical_half_modes(d, M)
    n = len(half)
    draws = rng.standard_normal((n, 2))
    arr = np.zeros((2 * M + 1,) * d, dtype=np.complex128)
    if n:
        ksq = np.sum(half.astype(np.float64) ** 2, axis=1)
        sigma = amplitude * (1.0 + ksq) ** (-decay / 2.0)
        c = sigma * (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)
        pos = tuple(half[:, ax] + M for ax in range(d))
        neg = tuple(M - half[:, ax] for ax in range(d))
        arr[pos] = c
        arr[neg] = np.conj(c)
    arr[(M,) * d] = mean
    return SpectralField(d, M, arr)


def field_to_bytes(f: SpectralField) -> bytes:
    """Flat little-endian layout: header (d, M), then re/im 64-bit float pairs
    in lexicographic wavevector order."""
    header = struct.pack("<qq", f.d, f.M)
    flat = np.ascontiguousarray(f.coeffs).ravel()
    body = np.empty(2 * flat.size, dtype="<f8")
    body[0::2] = flat.real
    body[1::2] = flat.imag
    return header + body.tobytes()


def field_from_bytes(data: bytes) -> SpectralField:
    if len(data) < 16:
        raise InvalidParameterError("not a serialized spectral field")
    d, M = struct.unpack("<qq", data[:16])
    if d not in (2, 3) or M < 0:
        raise InvalidParameterError(f"implausible field header d={d}, M={M}")
    n = (2 * M + 1) ** d
    body = np.frombuffer(data[16:], dtype="<f8")
    if body.size != 2 * n:
        raise ShapeError(f"expected {2 * n} floats for d={d}, M={M}, got {body.size}")
    coeffs = (body[0::2] + 1j * body[1::2]).reshape((2 * M + 1,) * d)
    return SpectralField(int(d), int(M), coeffs)

"""Real scalar fields on the d-torus as truncated Fourier series.

A field u(x) = sum_k c_k exp(2*pi*i k.x) is stored through its coefficient
block on the max-norm ball ||k||_inf <= M, with Hermitian symmetry
c_{-k} = conj(c_k) keeping u real-valued.  Fourier-multiplier operators,
Sobolev norms, and the pruned-DFT grid transforms (GridTransform, shared with
the integrator) for dealiased pseudospectral products live here.
"""

from __future__ import annotations

import struct
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


def hermitianize(coeffs: np.ndarray) -> np.ndarray:
    """Project a coefficient block onto exact Hermitian symmetry."""
    rev = tuple(slice(None, None, -1) for _ in range(coeffs.ndim))
    out = 0.5 * (coeffs + np.conj(coeffs[rev]))
    center = tuple(s // 2 for s in coeffs.shape)
    out[center] = out[center].real
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


@lru_cache(maxsize=32)
def _embed_index(M: int, resolution: int) -> np.ndarray:
    return np.arange(-M, M + 1) % resolution


def _dft_pair(K: int, R: int):
    """E[x, k] = exp(2 pi i x k / R) for x < R, |k| <= K, and its real form E_re.

    E_re has rows Re E[:, k], -Im E[:, k], so a complex block viewed as
    interleaved (re, im) floats times E_re is Re(block @ E.T).
    """
    E = np.exp((TWO_PI * 1j / R) * (np.outer(np.arange(R), np.arange(-K, K + 1)) % R))
    return E, np.stack([E.real.T, -E.imag.T], axis=1).reshape(-1, R)


class GridTransform:
    """Pruned matrix DFTs between blocks on ||k||_inf <= M and R^d point values.

    One matmul per axis: only the 2M+1 retained frequencies go in and come
    out, and on blocks this small that beats an FFT call.  The last inverse
    axis and the first forward axis run in real arithmetic on the interleaved
    float view of the complex data.  Any R >= 2M+1 works; it is not rounded to
    a power of two.  Each step writes into a work array of its own, allocated
    on first use for its shape, so a returned array is valid only until the
    next call on the same instance.
    """

    def __init__(self, d: int, M: int, R: int):
        self.d, self.M, self.R = d, M, R
        self._E, self._E_re = _dft_pair(M, R)
        # forward: F = conj(E).T / R, and grids @ F_re viewed as complex is grids @ F.T
        self._F, self._F_re = self._E.conj().T / R, self._E_re.T / R
        self._work = {}

    def _out(self, step, shape: tuple, dtype=np.complex128) -> np.ndarray:
        """The work array of one transform step for this output shape."""
        buf = self._work.get((step, shape))
        if buf is None:
            buf = self._work[step, shape] = np.empty(shape, dtype)
        return buf

    def _to_grid(self, stack: np.ndarray) -> np.ndarray:
        """Real point values (C, R, ..., R) of stacked coefficient blocks (C, n, ..., n)."""
        C, n, R = stack.shape[0], stack.shape[1], self.R
        for ax in range(self.d - 1):
            x = stack.reshape(C * R**ax, n, -1)
            stack = np.matmul(self._E, x, out=self._out(ax, (len(x), R, x.shape[2])))
        x = stack.reshape(-1, n).view(np.float64)
        grid = np.matmul(x, self._E_re, out=self._out("grid", (len(x), R), np.float64))
        return grid.reshape((C,) + (R,) * self.d)

    def _from_grid(self, grids: np.ndarray) -> np.ndarray:
        """Hermitian-exact coefficients on ||k||_inf <= M of stacked real grids."""
        C, R, d, n = grids.shape[0], self.R, self.d, 2 * self.M + 1
        g = grids.reshape(-1, R)
        x = np.matmul(g, self._F_re, out=self._out("re", (len(g), 2 * n), np.float64))
        x = x.view(np.complex128)
        for ax in reversed(range(d - 1)):
            x = x.reshape(C * R**ax, R, -1)
            x = np.matmul(self._F, x, out=self._out(-1 - ax, (len(x), n, x.shape[2])))
        x = x.reshape((C,) + (n,) * d)
        out = self._out("herm", x.shape)
        # (conj(x_{-k}) + x_k) / 2; at k = 0 the imaginary part is -a + a,
        # exactly +0.0 for every finite a
        np.conjugate(x[(slice(None),) + (slice(None, None, -1),) * d], out=out)
        out += x
        out *= 0.5
        return out


def to_grid(f: SpectralField, dealias: bool = True, resolution: int | None = None) -> GridField:
    """Evaluate the field on the equispaced grid (a GridTransform at that resolution)."""
    R = resolution if resolution is not None else grid_resolution(f.M, dealias)
    if R < (3 * f.M + 1 if dealias else 2 * f.M + 1):
        raise InvalidParameterError(
            f"resolution {R} too small for M = {f.M} (dealias={dealias})"
        )
    return GridField(f.d, R, GridTransform(f.d, f.M, R)._to_grid(f.coeffs[None])[0])


def from_grid(g: GridField, M: int) -> SpectralField:
    """Truncated forward transform; exact Hermitian symmetry is enforced."""
    if g.resolution < 2 * M + 1:
        raise InvalidParameterError(
            f"grid resolution {g.resolution} cannot represent modes up to M = {M}"
        )
    block = GridTransform(g.d, M, g.resolution)._from_grid(g.values[None])[0]
    return SpectralField(g.d, M, block)


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


def field_to_csv(f: SpectralField) -> str:
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

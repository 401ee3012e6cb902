import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspde import spectral as sp
from fracspde.errors import InvalidParameterError, ShapeError


def random_field(seed, d=2, M=6, decay=2.0, amplitude=1.0, mean=0.0):
    rng = np.random.default_rng(seed)
    return sp.random_field(rng, d, M, decay, amplitude, mean)


class TestFieldBasics:
    def test_constant_field_mean_and_norm(self):
        f = sp.constant(2, 4, 3.5)
        assert f.mean == 3.5
        assert sp.sobolev_norm(f, 0.0) == pytest.approx(3.5)
        assert sp.sobolev_norm(f, -1.3) == pytest.approx(3.5)

    def test_cosine_l2_norm(self):
        f = sp.mode_pair(2, 4, (1, 0))
        assert sp.sobolev_norm(f, 0.0) == pytest.approx(math.sqrt(2.0))

    def test_cosine_h1_norm(self):
        f = sp.mode_pair(2, 4, (1, 0))
        assert sp.sobolev_norm(f, 1.0) == pytest.approx(2.0)

    def test_from_modes_fills_conjugate(self):
        f = sp.from_modes(2, 3, {(2, 1): 1 + 2j})
        assert f.coeff((-2, -1)) == (1 - 2j)
        assert f.is_hermitian(1e-15)

    def test_from_modes_rejects_inconsistent_pair(self):
        with pytest.raises(InvalidParameterError):
            sp.from_modes(2, 3, {(1, 0): 1j, (-1, 0): 1j})

    def test_coeff_outside_block_is_zero(self):
        f = sp.mode_pair(2, 3, (1, 0))
        assert f.coeff((5, 5)) == 0.0

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            sp.SpectralField(2, 3, np.zeros((5, 5), dtype=complex))


class TestMultipliers:
    def test_laplacian_eigenfunction(self):
        f = sp.mode_pair(2, 4, (1, 0))
        g = sp.frac_laplacian_apply(f, 1.0)
        assert g.coeff((1, 0)) == pytest.approx(-4.0 * math.pi**2)

    def test_frac_laplacian_kills_constants(self):
        f = sp.constant(2, 4, 2.0)
        g = sp.frac_laplacian_apply(f, 1.5)
        assert np.all(g.coeffs == 0.0)

    def test_frac_laplacian_against_second_differences(self):
        # smooth (M = 1) field so the O(h^2 k^4) stencil error sits below tol
        f = random_field(1, d=2, M=1)
        lap = sp.frac_laplacian_apply(f, 1.0)
        n = 256
        gv = sp.to_grid(f, resolution=n).values
        lv = sp.to_grid(lap, resolution=n).values
        h = 1.0 / n
        fd = (
            np.roll(gv, 1, 0) + np.roll(gv, -1, 0)
            + np.roll(gv, 1, 1) + np.roll(gv, -1, 1) - 4 * gv
        ) / h**2
        assert np.max(np.abs(fd - lv)) <= 1e-4 * np.max(np.abs(lv))

    def test_laplacian_inverse_composition(self):
        f = random_field(2, d=2, M=5)
        c = sp.laplacian_inverse(f)
        lap_c = sp.frac_laplacian_apply(c, 1.0)
        mean_free = f.coeffs.copy()
        mean_free[(f.M,) * f.d] = 0.0
        assert np.max(np.abs(lap_c.coeffs + mean_free)) <= 1e-12

    def test_laplacian_inverse_eigenfunction(self):
        f = sp.mode_pair(2, 4, (0, 1))
        c = sp.laplacian_inverse(f)
        assert c.coeff((0, 1)) == pytest.approx(1.0 / (4.0 * math.pi**2))

    def test_laplacian_inverse_of_constant_is_zero(self):
        assert np.all(sp.laplacian_inverse(sp.constant(2, 3, 7.0)).coeffs == 0.0)

    def test_gradient_of_cosine(self):
        # d/dx1 of 2cos(2 pi x1) = -4 pi sin(2 pi x1)
        f = sp.mode_pair(2, 4, (1, 0))
        gx, gy = sp.gradient(f)
        assert np.all(gy.coeffs == 0.0)
        n = 64
        vals = sp.to_grid(gx, resolution=n).values
        x = np.arange(n) / n
        expect = -4.0 * math.pi * np.sin(2.0 * math.pi * x)[:, None] * np.ones(n)[None, :]
        assert np.max(np.abs(vals - expect)) <= 1e-10

    def test_gradient_parseval(self):
        f = random_field(3, d=3, M=3)
        total = sum(sp.sobolev_norm(g, 0.0) ** 2 for g in sp.gradient(f))
        expect = sp.homogeneous_seminorm(f, 1.0) ** 2
        assert total == pytest.approx(expect, rel=1e-12)

    def test_gradient_of_constant_is_zero(self):
        for g in sp.gradient(sp.constant(2, 3, 1.0)):
            assert np.all(g.coeffs == 0.0)


class TestProjection:
    def test_identity_at_full_cutoff(self):
        f = random_field(4)
        assert np.array_equal(sp.project_modes(f, f.M).coeffs, f.coeffs)

    def test_projection_to_mean(self):
        f = random_field(5, mean=1.25)
        p = sp.project_modes(f, 0)
        assert p.mean == pytest.approx(1.25)
        assert sp.sobolev_norm(p, 0.0) == pytest.approx(abs(p.mean))

    def test_idempotent(self):
        f = random_field(6)
        p1 = sp.project_modes(f, 3)
        p2 = sp.project_modes(p1, 3)
        assert np.array_equal(p1.coeffs, p2.coeffs)

    def test_self_adjoint(self):
        f, g = random_field(7), random_field(8)
        lhs = sp.l2_inner(sp.project_modes(f, 2), g)
        rhs = sp.l2_inner(f, sp.project_modes(g, 2))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_never_increases_sobolev_norms(self):
        f = random_field(9)
        for s in (-0.5, 0.0, 1.0, 2.0):
            assert sp.sobolev_norm(sp.project_modes(f, 2), s) <= sp.sobolev_norm(f, s) + 1e-14


class TestGridTransforms:
    def test_roundtrip_identity(self):
        f = random_field(10, d=2, M=7)
        back = sp.from_grid(sp.to_grid(f), f.M)
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12

    def test_roundtrip_3d(self):
        f = random_field(11, d=3, M=3)
        back = sp.from_grid(sp.to_grid(f), f.M)
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12

    @pytest.mark.parametrize("d,M", [(2, 6), (3, 2)])
    def test_roundtrip_odd_resolution(self, d, M):
        # R = 3M+1 = 19 / 7: odd, not a power of two
        f = random_field(23, d=d, M=M)
        back = sp.from_grid(sp.to_grid(f, resolution=3 * M + 1), f.M)
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12

    def test_grid_is_real_valued(self):
        f = random_field(12)
        g = sp.to_grid(f)
        assert g.values.dtype == np.float64

    def test_product_trig_identity(self):
        # (2cos(2 pi x))^2 = 2 + 2cos(4 pi x)
        f = sp.mode_pair(2, 4, (1, 0))
        prod = sp.multiply(f, f)
        assert prod.mean == pytest.approx(2.0, abs=1e-13)
        assert prod.coeff((2, 0)) == pytest.approx(1.0, abs=1e-13)
        assert prod.coeff((1, 0)) == pytest.approx(0.0, abs=1e-13)

    def test_dealiased_product_drops_high_modes_exactly(self):
        # with M = 1 the k = +-2 content of the square is outside the block;
        # dealiasing must keep the retained modes alias-free
        f = sp.mode_pair(2, 1, (1, 0))
        prod = sp.multiply(f, f)
        assert prod.mean == pytest.approx(2.0, abs=1e-14)
        assert abs(prod.coeff((1, 0))) <= 1e-14
        assert abs(prod.coeff((0, 1))) <= 1e-14

    def test_product_matches_brute_force_convolution(self):
        d, M = 2, 3
        a, b = random_field(13, M=M), random_field(14, M=M)
        prod = sp.multiply(a, b)
        # dense convolution, truncated to the block
        conv = np.zeros_like(prod.coeffs)
        for k1 in np.ndindex(*(2 * M + 1,) * d):
            ka = np.array(k1) - M
            for k2 in np.ndindex(*(2 * M + 1,) * d):
                kb = np.array(k2) - M
                ks = ka + kb
                if np.max(np.abs(ks)) <= M:
                    conv[tuple(ks + M)] += a.coeffs[k1] * b.coeffs[k2]
        assert np.max(np.abs(conv - prod.coeffs)) <= 1e-12

    def test_parseval_after_transform(self):
        f = random_field(15, d=2, M=6)
        g = sp.to_grid(f)
        grid_l2 = math.sqrt(np.mean(g.values**2))
        assert grid_l2 == pytest.approx(sp.sobolev_norm(f, 0.0), rel=1e-10)

    def test_resolution_guard(self):
        f = random_field(16, M=6)
        with pytest.raises(InvalidParameterError):
            sp.to_grid(f, resolution=8)
        g = sp.to_grid(f)
        with pytest.raises(InvalidParameterError):
            sp.from_grid(g, M=20)

    def test_power_of_two_resolution_rule(self):
        assert sp.grid_resolution(8) == 32  # 3M+1 = 25
        assert sp.grid_resolution(1) == 4
        assert sp.grid_resolution(5, dealias=False) == 16


class TestRandomField:
    def test_zero_amplitude(self):
        f = random_field(17, amplitude=0.0)
        assert np.all(f.coeffs == 0.0)

    def test_deterministic_given_seed(self):
        a, b = random_field(18), random_field(18)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_hermitian_and_mean(self):
        f = random_field(19, mean=0.7)
        assert f.is_hermitian(1e-15)
        assert f.mean == pytest.approx(0.7)

    def test_variance_matches_coefficient_sum(self):
        d, M, decay = 2, 8, 2.0
        rng = np.random.default_rng(20)
        acc = 0.0
        n_samples = 1000
        for _ in range(n_samples):
            f = sp.random_field(rng, d, M, decay, 1.0)
            acc += sp.sobolev_norm(f, 1.0) ** 2
        half = sp.canonical_half_modes(d, M)
        ksq = np.sum(half.astype(float) ** 2, axis=1)
        expect = 2.0 * np.sum((1.0 + ksq) ** 1.0 * (1.0 + ksq) ** (-decay))
        assert acc / n_samples == pytest.approx(expect, rel=0.05)

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_interpolation_inequality(self, seed):
        # ||f||_{L2} <= ||f||_{H^1}^(1/2) ||f||_{H^-1}^(1/2)
        f = random_field(seed, d=2, M=5, decay=1.0)
        l2 = sp.sobolev_norm(f, 0.0)
        bound = math.sqrt(sp.sobolev_norm(f, 1.0) * sp.sobolev_norm(f, -1.0))
        assert l2 <= bound * (1.0 + 1e-12)


class TestMultiplierSymmetry:
    @pytest.mark.parametrize("op", [
        lambda f: sp.frac_laplacian_apply(f, 1.0),
        lambda f: sp.frac_laplacian_apply(f, 1.7),
        sp.laplacian_inverse,
        lambda f: sp.project_modes(f, 2),
        lambda f: sp.gradient(f)[0],
        lambda f: sp.multiply(f, f),
    ])
    def test_hermitian_symmetry_preserved(self, op):
        f = random_field(21, d=2, M=5)
        assert op(f).is_hermitian(1e-10)

    def test_grid_imaginary_part_negligible(self):
        f = random_field(22, d=2, M=5)
        R = sp.grid_resolution(f.M)
        dense = np.zeros((R,) * f.d, dtype=complex)
        idx = sp._embed_index(f.M, R)
        dense[np.ix_(idx, idx)] = f.coeffs
        vals = np.fft.ifftn(dense) * R**f.d
        assert np.max(np.abs(vals.imag)) <= 1e-12 * max(1.0, np.max(np.abs(vals.real)))


class TestSerialization:
    def test_bytes_roundtrip(self):
        f = random_field(23, d=2, M=4, mean=0.4)
        back = sp.field_from_bytes(sp.field_to_bytes(f))
        assert back.d == f.d and back.M == f.M
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_bytes_roundtrip_3d(self):
        f = random_field(24, d=3, M=2)
        back = sp.field_from_bytes(sp.field_to_bytes(f))
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_header_is_little_endian_and_flat(self):
        import struct

        f = sp.constant(2, 1, 1.0)
        data = sp.field_to_bytes(f)
        assert struct.unpack("<qq", data[:16]) == (2, 1)
        assert len(data) == 16 + 9 * 2 * 8
        # lexicographic order: the (0,0) mode is row 4 of 9
        body = np.frombuffer(data[16:], dtype="<f8")
        assert body[2 * 4] == 1.0

    def test_csv_layout(self):
        f = sp.mode_pair(2, 1, (1, 0), 0.5 + 0.25j)
        text = sp.field_to_csv(f)
        lines = text.splitlines()
        assert lines[0] == "k1,k2,re,im"
        assert len(lines) == 1 + 9
        row = next(l for l in lines if l.startswith("1,0,"))
        assert row == "1,0,0.5,0.25"

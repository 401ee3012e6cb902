import math

import numpy as np
import pytest

from fracspde import noise as nm
from fracspde import spectral as sp
from fracspde.errors import InvalidParameterError, ShapeError

from _reference import ito_corrector_apply, shift_gradient_apply


class TestThetaSequence:
    def test_cutoff_counts_d2(self):
        th = nm.make_theta_cutoff(1, 2)
        assert 2 * th.n_half == 8
        assert th.linf_norm / th.l2_norm == pytest.approx(1.0 / math.sqrt(8.0))

    def test_cutoff_counts_d3(self):
        th = nm.make_theta_cutoff(2, 3)
        assert 2 * th.n_half == 124  # 5^3 - 1
        assert th.linf_norm / th.l2_norm == pytest.approx(1.0 / math.sqrt(124.0))

    def test_ratio_decreasing_in_radius(self):
        for d in (2, 3):
            ratios = [
                nm.make_theta_cutoff(N, d).linf_norm / nm.make_theta_cutoff(N, d).l2_norm
                for N in (1, 2, 3, 4)
            ]
            assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_prefix_stability_of_half_modes(self):
        small = nm.make_theta_cutoff(2, 2)
        large = nm.make_theta_cutoff(4, 2)
        assert np.array_equal(large.half_modes[: small.n_half], small.half_modes)

    def test_symmetry_is_enforced(self):
        with pytest.raises(InvalidParameterError):
            nm.ThetaSequence.from_support(2, [(1, 0), (-1, 0)], [1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            nm.ThetaSequence.from_support(2, [(1, 0)], [1.0])

    def test_zero_mode_excluded(self):
        with pytest.raises(InvalidParameterError):
            nm.ThetaSequence.from_support(2, [(0, 0)], [1.0])

    def test_value_lookup(self):
        th = nm.make_theta_cutoff(2, 2)
        assert th.value((1, -2)) == 1.0
        assert th.value((5, 5)) == 0.0


class TestOrthonormalComplement:
    def test_d2_canonical_perpendicular(self):
        q = nm.build_orthonormal_complement((1, 0), 2)
        assert np.allclose(q, [[0.0, 1.0]])

    def test_d2_shared_between_signs(self):
        qp = nm.build_orthonormal_complement((2, -1), 2)
        qm = nm.build_orthonormal_complement((-2, 1), 2)
        assert np.array_equal(qp, qm)

    def test_d3_axis_example(self):
        q = nm.build_orthonormal_complement((0, 0, 2), 3)
        assert np.allclose(q, [[1, 0, 0], [0, 1, 0]])

    def test_defining_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            m = rng.integers(-5, 6, size=d)
            if not np.any(m):
                continue
            q = nm.build_orthonormal_complement(m, d)
            assert np.max(np.abs(q @ m.astype(float))) <= 1e-14
            gram = q @ q.T
            assert np.max(np.abs(gram - np.eye(d - 1))) <= 1e-14

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidParameterError):
            nm.build_orthonormal_complement((0, 0), 2)


class TestIsotropy:
    def test_d2_unit_ball(self):
        th = nm.make_theta_cutoff(1, 2)
        mat = nm.isotropy_matrix(th, nm.build_noise_basis(th))
        assert np.max(np.abs(mat - 4.0 * np.eye(2))) <= 1e-12

    def test_d3_axis_support(self):
        modes = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        th = nm.ThetaSequence.from_support(3, modes, np.ones(6))
        mat = nm.isotropy_matrix(th, nm.build_noise_basis(th))
        assert np.max(np.abs(mat - 4.0 * np.eye(3))) <= 1e-12

    def test_single_pair_is_rank_deficient(self):
        th = nm.ThetaSequence.from_support(2, [(1, 0), (-1, 0)], [1.0, 1.0])
        basis = nm.build_noise_basis(th)
        mat = nm.isotropy_matrix(th, basis)
        q = basis.vectors((1, 0))[0]
        assert np.allclose(mat, 2.0 * np.outer(q, q))
        assert np.linalg.matrix_rank(mat) == 1

    def test_mismatched_basis_rejected(self):
        th1 = nm.make_theta_cutoff(1, 2)
        th2 = nm.make_theta_cutoff(2, 2)
        with pytest.raises(ShapeError):
            nm.isotropy_matrix(th2, nm.build_noise_basis(th1))


class TestAmplitude:
    def test_direct_substitution(self):
        modes = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        th = nm.ThetaSequence.from_support(3, modes, np.ones(6))
        assert nm.amplitude_A(4.0, th) == pytest.approx(1.0)

    def test_noise_off(self):
        th = nm.make_theta_cutoff(1, 2)
        assert nm.amplitude_A(0.0, th) == 0.0

    def test_scaling_invariance(self):
        th = nm.make_theta_cutoff(2, 2)
        scaled = nm.ThetaSequence(d=2, half_modes=th.half_modes, half_values=3.0 * th.half_values)
        a1 = nm.amplitude_A(2.0, th)
        a2 = nm.amplitude_A(2.0, scaled)
        assert a2 == pytest.approx(a1 / 3.0)
        assert a1**2 * th.l2_norm**2 == pytest.approx(a2**2 * scaled.l2_norm**2)

    def test_negative_b_rejected(self):
        with pytest.raises(InvalidParameterError):
            nm.amplitude_A(-1.0, nm.make_theta_cutoff(1, 2))


class TestIncrements:
    def test_conjugate_mirror(self):
        th = nm.make_theta_cutoff(1, 2)
        inc = nm.sample_increments(th, 0.25, np.random.default_rng(1))
        for m in th.half_modes:
            v = inc.value(tuple(m), 0)
            w = inc.value(tuple(-m), 0)
            assert w == v.conjugate()

    def test_moments(self):
        th = nm.make_theta_cutoff(1, 2)
        dt = 0.3
        rng = np.random.default_rng(2)
        n = 100_000
        draws = np.empty((n, th.n_half), dtype=complex)
        for i in range(n):
            draws[i] = nm.sample_increments(th, dt, rng).values[:, 0]
        # mean zero within 4 sigma CLT bands
        se = math.sqrt(dt / n)
        assert np.max(np.abs(draws.mean(axis=0).real)) <= 4 * se
        assert np.max(np.abs(draws.mean(axis=0).imag)) <= 4 * se
        # E|dW|^2 = 2 dt within 5%
        second = np.mean(np.abs(draws) ** 2, axis=0)
        assert np.max(np.abs(second - 2 * dt)) <= 0.05 * 2 * dt
        # cross-covariances vanish for distinct pairs m1 != +-m2
        cross = np.mean(draws[:, 0] * np.conj(draws[:, 1]))
        assert abs(cross) <= 5 * 2 * dt / math.sqrt(n)

    def test_prefix_pairing_across_cutoffs(self):
        # a shared generator state yields identical increments on shared modes
        th2, th4 = nm.make_theta_cutoff(2, 2), nm.make_theta_cutoff(4, 2)
        a = nm.sample_increments(th2, 0.1, np.random.default_rng(7))
        b = nm.sample_increments(th4, 0.1, np.random.default_rng(7))
        assert np.array_equal(a.values, b.values[: th2.n_half])

    def test_rejects_bad_dt(self):
        with pytest.raises(InvalidParameterError):
            nm.sample_increments(nm.make_theta_cutoff(1, 2), 0.0, np.random.default_rng(0))


class TestTransport:
    def _setup(self, d=2, M=5, N=1, seed=0):
        th = nm.make_theta_cutoff(N, d)
        basis = nm.build_noise_basis(th)
        rng = np.random.default_rng(seed)
        u = sp.random_field(rng, d, M, 1.0, 1.0, mean=0.3)
        inc = nm.sample_increments(th, 0.01, rng)
        return u, th, basis, inc

    def test_constant_field_gives_zero(self):
        u = sp.constant(2, 4, 2.0)
        th = nm.make_theta_cutoff(1, 2)
        inc = nm.sample_increments(th, 0.1, np.random.default_rng(3))
        t = nm.transport_term(u, th, nm.build_noise_basis(th), inc, 1.5)
        assert np.all(t.coeffs == 0.0)

    def test_single_mode_hand_convolution(self):
        d, M = 2, 4
        u = sp.mode_pair(d, M, (1, 0))
        th = nm.ThetaSequence.from_support(d, [(0, 1), (0, -1)], [1.0, 1.0])
        basis = nm.build_noise_basis(th)
        inc = nm.NoiseIncrements(dt=1.0, half_modes=th.half_modes,
                                 values=np.array([[1.0 + 0.0j]]))
        A = 2.0
        t = nm.transport_term(u, th, basis, inc, A)
        q = basis.vectors((0, 1))[0]
        # output at l = k + m collects 2 pi i (q . k) u_k theta dW A
        expect = A * 2j * math.pi * float(q @ np.array([1, 0]))
        assert t.coeff((1, 1)) == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("d,M,N,seed,A", [
        pytest.param(2, 4, 2, 4, 0.7, id="d2-M4-N2"),
        pytest.param(3, 2, 1, 5, 1.1, id="d3-M2-N1"),
        pytest.param(3, 4, 2, 8, 0.9, id="d3-M4-N2"),
        # N > M: here 2M+N+1 = 9 > 3M+1 = 7 sets the grid
        pytest.param(2, 2, 4, 9, 1.3, id="d2-M2-N4"),
        # M == N: the velocity and channel grids have equal shapes
        pytest.param(2, 2, 2, 10, 0.8, id="d2-M2-N2"),
        pytest.param(3, 2, 2, 11, 1.2, id="d3-M2-N2"),
        # N > M at d = 3: the velocity half block has planes m_last = 0 and m_last > M
        pytest.param(3, 2, 3, 12, 1.0, id="d3-M2-N3"),
    ])
    def test_matches_bruteforce_shift_sum(self, d, M, N, seed, A):
        u, th, basis, inc = self._setup(d=d, M=M, N=N, seed=seed)
        t = nm.transport_term(u, th, basis, inc, A)
        acc = np.zeros_like(u.coeffs)
        for i in range(th.n_half):
            for sign in (1, -1):
                m = sign * th.half_modes[i]
                for j in range(th.d - 1):
                    dw = inc.value(m, j)
                    sg = shift_gradient_apply(u, m, basis.q[i, j], u.M)
                    acc += A * th.half_values[i] * dw * sg.coeffs
        assert np.max(np.abs(acc - t.coeffs)) <= 1e-13

    def test_mean_mode_exactly_zero(self):
        for seed in range(5):
            u, th, basis, inc = self._setup(seed=seed)
            t = nm.transport_term(u, th, basis, inc, 1.0)
            assert t.coeff((0, 0)) == 0.0

    def test_hermitian_symmetry_exact(self):
        for seed in range(5):
            u, th, basis, inc = self._setup(M=6, N=2, seed=seed)
            t = nm.transport_term(u, th, basis, inc, 1.3)
            assert t.is_hermitian(1e-14)

    def test_mismatched_support_rejected(self):
        u, th, basis, _ = self._setup()
        other = nm.make_theta_cutoff(2, 2)
        inc = nm.sample_increments(other, 0.1, np.random.default_rng(6))
        with pytest.raises(ShapeError):
            nm.transport_term(u, th, basis, inc, 1.0)


class TestItoCorrector:
    @pytest.mark.parametrize("d,N,M", [(2, 1, 5), (2, 2, 5), (3, 1, 3)])
    def test_double_shift_equals_b_laplacian(self, d, N, M):
        rng = np.random.default_rng(11)
        th = nm.make_theta_cutoff(N, d)
        basis = nm.build_noise_basis(th)
        b = 2.4
        A = nm.amplitude_A(b, th)
        u = sp.random_field(rng, d, M, 1.0, 1.0, mean=0.1)
        corr = ito_corrector_apply(u, th, basis, A)
        target = b * sp.frac_laplacian_apply(u, 1.0).coeffs
        assert np.max(np.abs(corr.coeffs - target)) <= 1e-10

    def test_energy_neutrality_one_step(self):
        # E||u + T||^2 - ||u||^2 should equal the corrector contribution
        # 2 dt b ||grad u||^2; u is band-limited so truncation is lossless
        d, M, N, b, dt = 2, 6, 2, 1.5, 1e-3
        th = nm.make_theta_cutoff(N, d)
        basis = nm.build_noise_basis(th)
        A = nm.amplitude_A(b, th)
        rng = np.random.default_rng(12)
        inner = sp.random_field(rng, d, M - N, 2.0, 1.0)
        u = sp.SpectralField(d, M, np.pad(inner.coeffs, N))
        grad_sq = sp.homogeneous_seminorm(u, 1.0) ** 2
        expect = 2.0 * dt * b * grad_sq
        n = 4000
        samples = np.empty(n)
        base = sp.sobolev_norm(u, 0.0) ** 2
        for i in range(n):
            inc = nm.sample_increments(th, dt, rng)
            t = nm.transport_term(u, th, basis, inc, A)
            samples[i] = sp.sobolev_norm(
                sp.SpectralField(d, M, u.coeffs + t.coeffs), 0.0
            ) ** 2 - base
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - expect) <= 4.0 * se

    def test_cross_term_is_exactly_antisymmetric(self):
        # <u, sigma.grad u> = 0: the transport never changes ||u||^2 at first
        # order, for every increment realization
        u, th, basis, inc = TestTransport()._setup(M=6, N=1, seed=13)
        t = nm.transport_term(u, th, basis, inc, 1.0)
        cross = sp.l2_inner(u, t)
        assert abs(cross) <= 1e-12 * sp.sobolev_norm(u, 0.0) * sp.sobolev_norm(t, 0.0)

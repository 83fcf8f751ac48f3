"""N-partite sigma-PPT machinery: the bipartite functions on N factors."""

import math

import numpy as np
import pytest

from ewkit import (
    HermitianOp,
    TensorSpace,
    alpha_threshold,
    certify_indecomposable,
    certify_ppt,
    ghz_projector,
    ha_state,
    is_psd,
    lambda_threshold,
    maximally_mixed,
    partial_transpose,
    projector_p,
    tensor_op,
    trace_pair,
    witness_dk,
)

from oracles import kron_chain, random_hermitian


def ancilla_op() -> HermitianOp:
    return HermitianOp(TensorSpace((2,)), np.array([[1, 0], [0, 0]], dtype=complex))


def ancilla_pair() -> tuple[HermitianOp, HermitianOp, tuple[bool, ...]]:
    """A tripartite seed pair (w, rho) and the pattern sigma it is certified against."""
    w = tensor_op(witness_dk(3, 1), ancilla_op())
    rho = tensor_op(ha_state(3, 0.5), ancilla_op())
    return w, rho, (False, True, False)


class TestSigmaPptCheck:
    def test_all_false_is_always_true(self):
        rng = np.random.default_rng(3)
        space = TensorSpace((2, 2, 2))
        m = random_hermitian(rng, 8)
        rho = HermitianOp(space, m @ m.conj().T / np.trace(m @ m.conj().T).real)
        assert certify_ppt(rho, (False, False, False)).verdict

    def test_ghz_fails_single_axis_transpose(self):
        cert = certify_ppt(ghz_projector(3, 2), (False, False, True))
        assert not cert.verdict
        assert cert.evidence["min_eigenvalue"] < -1e-3

    def test_product_state_passes_every_sigma(self):
        rng = np.random.default_rng(5)
        factors = []
        for _ in range(3):
            m = random_hermitian(rng, 2)
            psd = m @ m.conj().T
            factors.append(psd / np.trace(psd).real)
        rho = HermitianOp(
            TensorSpace((2, 2, 2)), np.kron(np.kron(factors[0], factors[1]), factors[2])
        )
        for pattern in range(8):
            sigma = tuple((pattern >> i) & 1 == 1 for i in range(3))
            assert certify_ppt(rho, sigma).verdict, sigma


class TestBipartiteReduction:
    def test_ppt_spectrum_matches_kron_chain(self):
        # the sigma-PPT spectrum of a product operator is the spectrum of the
        # explicit Kronecker product of its factors, flagged ones transposed
        rng = np.random.default_rng(41)
        for dims in ((3, 3), (2, 3), (2, 3, 2), (2, 2, 2)):
            factors = [random_hermitian(rng, d) for d in dims]
            n = len(dims)
            op = HermitianOp(TensorSpace(dims), kron_chain(factors, [False] * n))
            for pattern in range(2**n):
                sigma = [(pattern >> i) & 1 == 1 for i in range(n)]
                expected = np.linalg.eigvalsh(kron_chain(factors, sigma))
                cert = certify_ppt(op, sigma)
                np.testing.assert_allclose(
                    cert.evidence["eigenvalues"], expected, rtol=0, atol=1e-12
                )


class TestAncillaTensoredPair:
    def test_nonnegative_pairing_not_certified(self):
        w = tensor_op(witness_dk(3, 1), ancilla_op())
        rho = tensor_op(ha_state(3, 1.0), ancilla_op())
        cert = certify_indecomposable(w, rho, (False, True, False))
        assert not cert.verdict

    def test_pair_is_certified(self):
        cert = certify_indecomposable(*ancilla_pair())
        assert cert.verdict
        # trace factors: Tr((W x e00)(rho x e00)) = Tr(W rho) * Tr(e00)
        assert cert.evidence["trace"] == pytest.approx(-1 / 15, abs=1e-12)

    def test_alpha_threshold_from_factored_traces(self):
        w, rho, _ = ancilla_pair()
        value = alpha_threshold(w, rho, maximally_mixed(w.space))
        # factored oracle: T0 = Tr(W rho), Ts = Tr(W x e00) / 18
        t0 = trace_pair(witness_dk(3, 1), ha_state(3, 0.5))
        ts = witness_dk(3, 1).trace() * 1.0 / 18.0
        expected = -t0 / (-t0 + ts)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_lambda_threshold_with_tensored_perturbation(self):
        w, rho, _ = ancilla_pair()
        p3 = tensor_op(projector_p(3), ancilla_op())
        value = lambda_threshold(w, p3, rho)
        expected = lambda_threshold(witness_dk(3, 1), projector_p(3), ha_state(3, 0.5))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_p_in_kernel_gives_infinite(self):
        w, rho, _ = ancilla_pair()
        # supported on the ancilla state orthogonal to e00
        other = HermitianOp(TensorSpace((2,)), np.array([[0, 0], [0, 1]], dtype=complex))
        p = tensor_op(projector_p(3), other)
        assert lambda_threshold(w, p, rho) == math.inf

    def test_undetected_gives_none(self):
        w, _, _ = ancilla_pair()
        rho_boundary = tensor_op(ha_state(3, 1.0), ancilla_op())
        assert alpha_threshold(w, rho_boundary, maximally_mixed(w.space)) is None


class TestSigmaInvariances:
    def test_involution_on_tripartite(self):
        rng = np.random.default_rng(31)
        space = TensorSpace((2, 2, 2))
        op = HermitianOp(space, random_hermitian(rng, 8))
        for pattern in range(8):
            sigma = tuple((pattern >> i) & 1 == 1 for i in range(3))
            twice = partial_transpose(partial_transpose(op, sigma), sigma)
            assert np.abs(twice.matrix - op.matrix).max() <= 1e-12

    def test_flip_all_bits_composed_with_global_transpose(self):
        # tau^(not sigma) rho^T = (tau^sigma rho)^T shares the spectrum
        rng = np.random.default_rng(37)
        space = TensorSpace((2, 3))
        m = random_hermitian(rng, 6)
        rho = HermitianOp(space, m @ m.conj().T / np.trace(m @ m.conj().T).real)
        rho_t = HermitianOp(space, rho.matrix.T)
        for sigma in [(False, True), (True, False), (False, False), (True, True)]:
            flipped = tuple(not b for b in sigma)
            a = certify_ppt(rho, sigma)
            b = certify_ppt(rho_t, flipped)
            assert a.verdict == b.verdict
            assert np.allclose(
                a.evidence["eigenvalues"], b.evidence["eigenvalues"], atol=1e-10
            )

    def test_mixing_preserves_sigma_ppt(self):
        w, rho, sigma = ancilla_pair()
        sigma_sep = maximally_mixed(w.space)
        for alpha in np.linspace(0.0, 1.0, 9):
            mixed = HermitianOp(w.space, (1 - alpha) * rho.matrix + alpha * sigma_sep.matrix)
            assert certify_ppt(mixed, sigma).verdict, alpha


class TestMultipartitePairValidation:
    """certify_indecomposable checks the triple (w, rho, sigma) it is given."""

    def test_space_mismatch_rejected(self):
        with pytest.raises(ValueError, match="spaces differ"):
            certify_indecomposable(witness_dk(3, 1), ha_state(4, 0.5), (False, True))

    def test_sigma_length_checked(self):
        message = "sigma has 3 entries but the space has 2 factors"  # core's message
        with pytest.raises(ValueError, match=message):
            certify_indecomposable(witness_dk(3, 1), ha_state(3, 0.5), (False, True, False))

    def test_ghz_projector_shape(self):
        g = ghz_projector(3, 2)
        assert g.space.dims == (2, 2, 2)
        assert g.trace() == pytest.approx(1.0, abs=1e-14)
        ok, _ = is_psd(g)
        assert ok

    def test_ghz_projector_needs_two_factors(self):
        with pytest.raises(ValueError, match="at least two factors"):
            ghz_projector(1)

"""Witness and state constructors against the printed matrices and identities."""

import dataclasses

import numpy as np
import pytest

from ewkit import (
    HermitianOp,
    TensorSpace,
    bipartite,
    choi_map,
    convex_combination,
    dejamiolkowski,
    ha_state,
    is_psd,
    jamiolkowski,
    max_entangled_projector,
    maximally_mixed,
    partial_transpose,
    perturbed_witness,
    projector_p,
    projector_q,
    trace_pair,
    witness_dk,
    witness_from_difference,
)

from oracles import (
    choi_map_formula,
    dejamiolkowski_slices,
    ha_state_blocks,
    ha_weights,
    identity_map,
    identity_map_units,
    jamiolkowski_kron_sum,
    map_apply_loop,
    map_images,
    matrix_unit,
    random_hermitian,
    shift_operator,
    transpose_map,
    transpose_map_units,
    witness_dk_blocks,
)

# The 9x9 witness of the d=3, k=1 family, transcribed digit for digit from
# its published form (dots are zeros).
W0_MATRIX = np.array(
    [
        [1, 0, 0, 0, -1, 0, 0, 0, -1],
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [-1, 0, 0, 0, 1, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [-1, 0, 0, 0, -1, 0, 0, 0, 1],
    ],
    dtype=float,
)

# Support of the lambda and mu perturbations in the printed 9x9 matrices.
P_SUPPORT = (2, 3, 7)
Q_SUPPORT = (1, 5, 6)


def expected_perturbed_matrix(lam: float, mu: float) -> np.ndarray:
    """The printed perturbed-witness matrix with lambda, mu substituted.

    The mu block overlaps the base witness diagonal at (1,1), (5,5) and
    (6,6), so those entries read 1+mu.
    """
    m = W0_MATRIX.copy()
    for r in P_SUPPORT:
        for c in P_SUPPORT:
            m[r, c] += lam
    for r in Q_SUPPORT:
        for c in Q_SUPPORT:
            m[r, c] += mu
    return m


def all_dk_pairs(max_d: int = 5):
    return [(d, k) for d in range(3, max_d + 1) for k in range(1, d)]


class TestWitnessDk:
    def test_matches_printed_matrix_exactly(self):
        w = witness_dk(3, 1)
        assert np.array_equal(w.matrix, W0_MATRIX.astype(complex))
        assert np.array_equal(w.matrix.imag, np.zeros((9, 9)))

    @pytest.mark.parametrize("d,k", all_dk_pairs())
    def test_trace_is_d_times_d_minus_one(self, d, k):
        # each diagonal block has trace (d-k-1) + k = d-1; d blocks in total
        assert witness_dk(d, k).trace() == pytest.approx(d * (d - 1), abs=0)

    def test_k_equals_d_minus_one_has_psd_partial_transpose(self):
        w = witness_dk(3, 2)
        ok, _ = is_psd(partial_transpose(w, (False, True)))
        assert ok

    @pytest.mark.parametrize(
        "d,k", [(2, 1), (3, 0), (3, 3), (4, 5), (3, -1)]
    )
    def test_parameter_range(self, d, k):
        with pytest.raises(ValueError):
            witness_dk(d, k)

    def test_entries_are_integers(self):
        for d, k in all_dk_pairs():
            m = witness_dk(d, k).matrix
            assert np.array_equal(m.real, np.round(m.real))
            assert np.abs(m.imag).max() == 0.0

    @pytest.mark.parametrize("d", range(3, 21))
    def test_matches_block_oracle_bit_for_bit(self, d):
        for k in range(1, d):
            assert np.array_equal(witness_dk(d, k).matrix, witness_dk_blocks(d, k).matrix)


class TestChoiMap:
    def test_d3_k1_images(self):
        table = choi_map(3, 1)
        # phi(e_00) = e_00 + e_11, cyclically; phi(e_ij) = -e_ij off diagonal
        for i in range(3):
            expected = matrix_unit(3, i, i) + matrix_unit(3, (i + 1) % 3, (i + 1) % 3)
            assert np.array_equal(table.image(i, i), expected)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.array_equal(table.image(i, j), -matrix_unit(3, i, j))

    @pytest.mark.parametrize("d,k", all_dk_pairs(20))
    def test_jamiolkowski_reproduces_witness(self, d, k):
        # choi_map is built from the witness, so check it against the map's
        # own formula applied to each matrix unit
        table = choi_map(d, k)
        assert np.array_equal(map_images(table), choi_map_formula(d, k))
        assert np.array_equal(jamiolkowski(table).matrix, witness_dk(d, k).matrix)

    def test_apply_matches_tabulation(self):
        table = choi_map(4, 2)
        rng = np.random.default_rng(3)
        x = random_hermitian(rng, 4)
        d = 4
        s = shift_operator(d)
        expected = (d - 2) * np.diag(np.diag(x)) - x
        for l in (1, 2):
            sl = np.linalg.matrix_power(s, l)
            expected = expected + np.diag(np.diag(sl @ x @ sl.conj().T))
        assert np.allclose(table.apply(x), expected, atol=1e-12)


class TestJamiolkowski:
    def test_identity_map(self):
        w = jamiolkowski(identity_map(3))
        expected = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            for j in range(3):
                expected += np.kron(matrix_unit(3, i, j), matrix_unit(3, i, j))
        assert np.array_equal(w.matrix, expected)
        # unnormalized maximally entangled projector times d
        assert np.allclose(w.matrix, 3 * max_entangled_projector(3).matrix, atol=1e-15)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_identity_and_transpose_match_unit_oracles(self, d):
        assert np.array_equal(map_images(identity_map(d)), identity_map_units(d))
        assert np.array_equal(map_images(transpose_map(d)), transpose_map_units(d))

    def test_transpose_map_is_swap(self):
        w = jamiolkowski(transpose_map(2))
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.array_equal(w.matrix, swap)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_matches_kron_sum_oracle(self, d):
        rng = np.random.default_rng(d)
        random_op = HermitianOp(bipartite(d), random_hermitian(rng, d * d))
        for table in (choi_map(d, 1), dejamiolkowski(random_op)):
            assert np.array_equal(jamiolkowski(table).matrix, jamiolkowski_kron_sum(table))
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            np.testing.assert_allclose(
                table.apply(x), map_apply_loop(table, x), rtol=0, atol=1e-12
            )

    def test_apply_argument_shape_checked(self):
        # a trailing axis of length 1 would otherwise contract to a (1, 2, 2) stack
        with pytest.raises(ValueError, match=r"argument shape \(2, 2, 1\) != \(2, 2\)"):
            identity_map(2).apply(np.eye(2)[:, :, None])

    def test_image_indices_checked(self):
        table = identity_map(3)
        assert np.array_equal(table.image(2, 1), matrix_unit(3, 2, 1))
        for i, j in ((0, 3), (3, 0), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="out of range"):
                table.image(i, j)

    def test_image_indices_must_be_integers(self):
        # numpy would read True as a mask, giving a (1, 3, 3, 3) array, and 0.5 as an IndexError
        table = choi_map(3, 1)
        assert table.image(True, np.int64(0)).shape == (3, 3)
        assert np.array_equal(table.image(True, 0), table.image(1, 0))
        for i, j in ((0.5, 0), (0, 1.0), ("1", 0), (None, 0), (slice(None), 0)):
            with pytest.raises(ValueError, match="needs integer indices"):
                table.image(i, j)


class TestDejamiolkowski:
    def test_table_holds_the_operator_itself(self):
        w = witness_dk(3, 1)
        table = dejamiolkowski(w)
        assert table.choi is w
        assert jamiolkowski(table) is w
        assert [f.name for f in dataclasses.fields(table)] == ["choi"]

    def test_round_trip_exact(self):
        rng = np.random.default_rng(9)
        op = HermitianOp(bipartite(3), random_hermitian(rng, 9))
        back = jamiolkowski(dejamiolkowski(op))
        assert np.array_equal(back.matrix, op.matrix)

    def test_kron_blocks(self):
        rng = np.random.default_rng(10)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        op = HermitianOp(bipartite(3), np.kron(a, b))
        table = dejamiolkowski(op)
        for i in range(3):
            for j in range(3):
                assert np.allclose(table.image(i, j), a[i, j] * b, atol=1e-12)

    @pytest.mark.parametrize("dims", [(3, 3), (5, 5), (8, 8), (3, 4), (4, 3)])
    def test_matches_slice_oracle(self, dims):
        rng = np.random.default_rng(sum(dims))
        space = TensorSpace(dims)
        op = HermitianOp(space, random_hermitian(rng, space.total))
        table = dejamiolkowski(op)
        assert (table.d_in, table.d_out) == dims
        images = [table.image(i, j) for i in range(dims[0]) for j in range(dims[0])]
        for image, expected in zip(images, dejamiolkowski_slices(op), strict=True):
            assert np.array_equal(image, expected)
            # a read-only view of the operator, not a copy
            assert np.shares_memory(image, table.choi.matrix) and not image.flags.writeable

    def test_rejects_non_bipartite(self):
        op = HermitianOp(TensorSpace((2, 2, 2)), np.eye(8, dtype=complex))
        with pytest.raises(ValueError, match="bipartite"):
            dejamiolkowski(op)

    def test_choi_witness_gives_choi_map(self):
        table = dejamiolkowski(witness_dk(3, 1))
        reference = choi_map(3, 1)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(table.image(i, j), reference.image(i, j))


GAMMA_GRID_20 = [0.05 * i for i in range(1, 21)]  # 0.05 .. 1.0


class TestHaState:
    def test_gamma_one_is_uniform_comb(self):
        rho = ha_state(3, 1.0)
        expected = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                if i == j:
                    expected[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] = np.eye(3)
                else:
                    expected[3 * i + i, 3 * j + j] = 1.0
        assert np.allclose(rho.matrix, expected / 9.0, atol=1e-15)

    def test_gamma_half_diagonal_blocks(self):
        # a = (0.25+2)/3 = 0.75, b = (4+2)/3 = 2, N = 7 + 0.25 + 4 = 11.25
        rho = ha_state(3, 0.5)
        n = 11.25
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(
            np.diag(rho.matrix.real),
            np.array([1, 0.75, 2, 2, 1, 0.75, 0.75, 2, 1]) / n,
            atol=1e-15,
        )

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_unit_trace_psd_ppt_on_grid(self, d):
        for gamma in GAMMA_GRID_20:
            rho = ha_state(d, gamma)
            assert abs(rho.trace() - 1.0) <= 1e-12
            ok, spectrum = is_psd(rho)
            assert ok, (d, gamma, spectrum.min)
            ok_pt, spectrum_pt = is_psd(partial_transpose(rho, (False, True)))
            assert ok_pt, (d, gamma, spectrum_pt.min)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_trace_identity(self, d):
        for k in range(1, d - 1):
            w = witness_dk(d, k)
            for gamma in GAMMA_GRID_20:
                expected = (gamma**2 - 1) / ha_weights(d, gamma)[2]
                value = trace_pair(w, ha_state(d, gamma))
                assert abs(value - expected) <= 1e-12, (d, k, gamma)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_diagonal_blocks_are_cyclic_shifts(self, d):
        rho = ha_state(d, 0.7)
        s = shift_operator(d)
        block0 = rho.matrix[:d, :d]
        for i in range(1, d):
            si = np.linalg.matrix_power(s, i)
            expected = si @ block0 @ si.conj().T
            block = rho.matrix[i * d : (i + 1) * d, i * d : (i + 1) * d]
            assert np.allclose(block, expected, atol=1e-15)

    @pytest.mark.parametrize("d", range(3, 21))
    def test_matches_block_oracle_bit_for_bit(self, d):
        for gamma in (0.3, 0.5, 1.0, 1.7):
            assert np.array_equal(ha_state(d, gamma).matrix, ha_state_blocks(d, gamma).matrix)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            ha_state(3, 0.0)
        with pytest.raises(ValueError):
            ha_state(3, -0.5)

    def test_gamma_above_one_allowed_and_undetected(self):
        rho = ha_state(3, 1.3)
        assert trace_pair(witness_dk(3, 1), rho) > 0


class TestProjectors:
    def test_p_support_d3(self):
        p = projector_p(3).matrix.real
        expected = np.zeros((9, 9))
        for r in P_SUPPORT:
            for c in P_SUPPORT:
                expected[r, c] = 1.0
        assert np.array_equal(p, expected)

    def test_q_support_d3(self):
        q = projector_q(3).matrix.real
        expected = np.zeros((9, 9))
        for r in Q_SUPPORT:
            for c in Q_SUPPORT:
                expected[r, c] = 1.0
        assert np.array_equal(q, expected)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_rank_one_trace_d_psd(self, d):
        for proj in (projector_p(d), projector_q(d)):
            ok, spectrum = is_psd(proj)
            assert ok
            assert proj.trace() == pytest.approx(d, abs=1e-12)
            assert np.count_nonzero(spectrum.eigenvalues > 1e-10) == 1

    def test_pairing_with_ha_state(self):
        # P hits the three diagonal entries holding b_gamma, so the pairing
        # is 3 b_gamma / N = (gamma^-2 + 2) / N; direct index sum as oracle.
        for gamma in (0.3, 0.5, 0.9):
            rho = ha_state(3, gamma)
            direct = sum(
                rho.matrix[r, c].real for r in P_SUPPORT for c in P_SUPPORT
            )
            expected = (gamma**-2 + 2) / ha_weights(3, gamma)[2]
            assert trace_pair(projector_p(3), rho) == pytest.approx(direct, abs=1e-14)
            assert direct == pytest.approx(expected, abs=1e-12)


class TestPerturbedWitness:
    def test_zero_parameters_give_base_witness(self):
        assert np.array_equal(
            perturbed_witness(3, 1).matrix, witness_dk(3, 1).matrix
        )

    def test_lambda_block_matches_printed_matrix(self):
        lam = 0.37
        w = perturbed_witness(3, 1, lam, 0.0)
        assert np.allclose(w.matrix.real, expected_perturbed_matrix(lam, 0.0), atol=0)

    @pytest.mark.parametrize("lam,mu", [(0.1, 0.0), (0.0, 0.25), (0.1, 0.05), (1.5, 2.0)])
    def test_matches_printed_matrix(self, lam, mu):
        w = perturbed_witness(3, 1, lam, mu)
        assert np.array_equal(w.matrix.real, expected_perturbed_matrix(lam, mu))
        assert np.abs(w.matrix.imag).max() == 0.0

    def test_affine_in_parameters(self):
        a = perturbed_witness(3, 1, 0.1, 0.2)
        b = perturbed_witness(3, 1, 0.3, 0.05)
        base = witness_dk(3, 1)
        combined = perturbed_witness(3, 1, 0.4, 0.25)
        assert np.allclose((a + b).matrix, (base + combined).matrix, atol=1e-15)

    def test_detects_below_bound_only(self):
        # lambda = 0.1 sits below the bound (1-gamma^2)/(2+gamma^-2) at
        # gamma = 0.605; lambda = 0.2 exceeds its maximum over gamma.
        rho = ha_state(3, 0.605)
        assert trace_pair(perturbed_witness(3, 1, 0.1), rho) < 0
        for gamma in np.arange(0.01, 1.0, 0.01):
            assert trace_pair(perturbed_witness(3, 1, 0.2), ha_state(3, gamma)) >= 0

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            perturbed_witness(3, 1, -0.1, 0.0)
        with pytest.raises(ValueError):
            perturbed_witness(3, 1, 0.0, -0.1)


class TestConvexCombination:
    def test_single_element(self):
        w = witness_dk(3, 1)
        assert np.array_equal(convex_combination([w], [1.0]).matrix, w.matrix)

    def test_equal_mix_keeps_pairing_value(self):
        ops = [witness_dk(5, k) for k in (1, 2, 3)]
        weights = [1 / 3] * 3
        mixed = convex_combination(ops, weights)
        for gamma in (0.4, 0.8):
            rho = ha_state(5, gamma)
            expected = (gamma**2 - 1) / ha_weights(5, gamma)[2]
            assert trace_pair(mixed, rho) == pytest.approx(expected, abs=1e-12)

    def test_mix_of_states_is_ppt(self):
        mixed = convex_combination(
            [ha_state(3, 0.4), ha_state(3, 0.6)], [0.5, 0.5]
        )
        ok, _ = is_psd(partial_transpose(mixed, (False, True)))
        assert ok

    def test_weight_validation(self):
        w = witness_dk(3, 1)
        with pytest.raises(ValueError, match="sum to 1"):
            convex_combination([w, w], [0.5, 0.6])
        with pytest.raises(ValueError, match="nonnegative"):
            convex_combination([w, w], [1.5, -0.5])
        with pytest.raises(ValueError, match="spaces"):
            convex_combination([w, witness_dk(4, 1)], [0.5, 0.5])

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]])
    def test_nan_weight_rejected_as_a_weight(self, weights):
        # NaN < 0 is False: unchecked, it reaches the gate as a non-finite matrix entry
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            convex_combination([maximally_mixed(bipartite(3)), ha_state(3, 1.0)], weights)

    @pytest.mark.parametrize("count, weights", [(2, [1.0]), (0, [1.0]), (0, [])])
    def test_one_weight_per_operator_and_at_least_one(self, count, weights):
        # unchecked, zip would leave the second operator out of [w, w] with [1.0]
        with pytest.raises(ValueError, match="one weight per operator and at least one"):
            convex_combination([witness_dk(3, 1)] * count, weights)


class TestWitnessFromDifference:
    def test_zero_p_returns_q(self):
        q = maximally_mixed(bipartite(3))
        zero = HermitianOp(bipartite(3), np.zeros((9, 9), dtype=complex))
        assert np.array_equal(witness_from_difference(q, zero).matrix, q.matrix)

    def test_candidate_detects_maximally_entangled(self):
        space = bipartite(3)
        q = HermitianOp(space, np.eye(9, dtype=complex) / 3)
        p = max_entangled_projector(3)
        w = witness_from_difference(q, p)
        assert trace_pair(w, p) == pytest.approx(1 / 3 - 1, abs=1e-12)

    def test_diagonal_dominance_gives_psd(self):
        space = bipartite(2)
        q = HermitianOp(space, np.diag([4.0, 3.0, 2.0, 1.0]).astype(complex))
        p = HermitianOp(space, np.diag([1.0, 1.0, 1.0, 1.0]).astype(complex))
        ok, _ = is_psd(witness_from_difference(q, p))
        assert ok

    def test_rejects_non_psd_inputs(self):
        space = bipartite(2)
        good = HermitianOp(space, np.eye(4, dtype=complex))
        bad = HermitianOp(space, np.diag([1.0, -1.0, 1.0, 1.0]).astype(complex))
        with pytest.raises(ValueError, match="PSD"):
            witness_from_difference(bad, good)
        with pytest.raises(ValueError, match="PSD"):
            witness_from_difference(good, bad)


class TestParams:
    def test_state_diagonal_carries_the_printed_weights(self):
        for d in (3, 4, 5):
            for gamma in (0.3, 0.7, 1.0, 1.4):
                a, b, n = ha_weights(d, gamma)
                diagonal = ha_state(d, gamma).matrix.diagonal().real
                # block 0 is diag(1, a_gamma, 1, ..., 1, b_gamma) / n_gamma
                assert abs(diagonal[0] - 1 / n) <= 1e-14
                assert abs(diagonal[1] - a / n) <= 1e-14
                assert abs(diagonal[d - 1] - b / n) <= 1e-14

    def test_d3_reduction(self):
        a, b, n = ha_weights(3, 0.5)
        assert (a, b, n) == ((0.25 + 2) / 3, (4 + 2) / 3, 7 + 0.25 + 4)
        diagonal = ha_state(3, 0.5).matrix.diagonal().real
        assert diagonal[:3].tolist() == [1 / n, a / n, b / n]

    def test_witness_params_validation(self):
        perturbed_witness(3, 2, 0.0, 0.0)  # k = d-1 allowed
        with pytest.raises(ValueError, match="k must satisfy"):
            perturbed_witness(3, 3)
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            perturbed_witness(3, 1, lam=-1.0)
        with pytest.raises(ValueError, match="mu must be finite and >= 0"):
            perturbed_witness(3, 1, mu=float("nan"))

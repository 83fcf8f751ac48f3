"""Thresholds against brute-force sign scans, family samplers, sweeps."""

import math

import numpy as np
import pytest

from ewkit import (
    HermitianOp,
    alpha_threshold,
    bipartite,
    certify_detection,
    chain_pair,
    convex_combination,
    ha_state,
    is_psd,
    lambda_threshold,
    maximally_mixed,
    mixing_family,
    mu_threshold,
    partial_transpose,
    perturbation_family,
    perturbed_witness,
    product_basis_state,
    projector_p,
    projector_q,
    sample_sppt,
    sample_wind,
    separable_catalog,
    sweep,
    trace_pair,
    witness_dk,
)

from oracles import alpha_sign_scan, lambda_sign_scan

GAMMA_STAR = math.sqrt((math.sqrt(3.0) - 1.0) / 2.0)  # ~ 0.604975
LAMBDA_MAX = 1.0 - math.sqrt(3.0) / 2.0  # ~ 0.133975


@pytest.fixture(scope="module")
def w0():
    return witness_dk(3, 1)


@pytest.fixture(scope="module")
def rho_star():
    return ha_state(3, GAMMA_STAR)


class TestAlphaThreshold:
    def test_maximally_mixed_value(self, w0, rho_star):
        # exact closed form of the threshold for this triple: (21 - 8 sqrt 3)/83
        value = alpha_threshold(w0, rho_star, maximally_mixed(w0.space))
        assert value == pytest.approx((21 - 8 * math.sqrt(3)) / 83, abs=1e-12)
        assert value == pytest.approx(0.086067, abs=1e-6)

    def test_agrees_with_sign_scan(self, w0, rho_star):
        sigma = maximally_mixed(w0.space)
        value = alpha_threshold(w0, rho_star, sigma)
        scanned = alpha_sign_scan(w0.matrix, rho_star.matrix, sigma.matrix)
        assert abs(value - scanned) <= 1e-4

    def test_sigma_in_kernel_gives_one(self, w0, rho_star):
        # |e_0 x e_2> sits in the kernel of the witness diagonal
        sigma = product_basis_state(w0.space, [0, 2])
        assert trace_pair(w0, sigma) == 0.0
        assert alpha_threshold(w0, rho_star, sigma) == 1.0

    def test_undetected_state_gives_none(self, w0):
        assert alpha_threshold(w0, ha_state(3, 1.0), maximally_mixed(w0.space)) is None
        assert alpha_threshold(w0, ha_state(3, 1.2), maximally_mixed(w0.space)) is None

    def test_sigma_read_only_once_detected(self, w0, rho_star):
        elsewhere = maximally_mixed(bipartite(4))
        assert alpha_threshold(w0, ha_state(3, 1.0), elsewhere) is None
        with pytest.raises(ValueError, match="spaces differ"):
            alpha_threshold(w0, rho_star, elsewhere)

    def test_detected_sigma_gives_none(self, w0, rho_star):
        # a "separable" sigma that the witness detects is a contradiction
        assert alpha_threshold(w0, rho_star, ha_state(3, 0.5)) is None

    def test_value_in_unit_interval(self, w0):
        for gamma in (0.2, 0.5, 0.8):
            for name, sigma in separable_catalog(w0.space).items():
                value = alpha_threshold(w0, ha_state(3, gamma), sigma)
                if value is not None:
                    assert 0.0 < value <= 1.0, (gamma, name)

    def test_monotone_in_sigma_trace(self, w0, rho_star):
        # larger Tr(W sigma) at fixed T0 shrinks the threshold
        space = w0.space
        eye = maximally_mixed(space)
        kernel = product_basis_state(space, [0, 2])
        previous = 1.0 + 1e-12
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            sigma = convex_combination([kernel, eye], [1.0 - t, t])
            value = alpha_threshold(w0, rho_star, sigma)
            assert value is not None
            assert value < previous or t == 0.0
            previous = value


class TestLambdaThreshold:
    def test_closed_form_matches_bound(self, w0):
        p = projector_p(3)
        for gamma in [0.1 * i for i in range(1, 10)]:
            value = lambda_threshold(w0, p, ha_state(3, gamma))
            expected = (1 - gamma**2) / (2 + gamma**-2)
            assert abs(value - expected) <= 1e-12

    def test_value_at_gamma_star(self, w0, rho_star):
        value = lambda_threshold(w0, projector_p(3), rho_star)
        assert value == pytest.approx(LAMBDA_MAX, abs=1e-12)
        assert value == pytest.approx(0.134, abs=1e-3)

    def test_agrees_with_sign_scan(self, w0, rho_star):
        p = projector_p(3)
        value = lambda_threshold(w0, p, rho_star)
        scanned = lambda_sign_scan(w0.matrix, p.matrix, rho_star.matrix)
        assert abs(value - scanned) <= 1e-4

    def test_p_in_kernel_gives_infinite(self, w0):
        # (|00> - |11>)/sqrt 2 lies in the kernel of the comb block
        vec = np.zeros(9, dtype=complex)
        vec[0] = 1 / math.sqrt(2)
        vec[4] = -1 / math.sqrt(2)
        p = HermitianOp(w0.space, np.outer(vec, vec.conj()))
        rho = ha_state(3, 0.5)
        assert trace_pair(p, rho) == pytest.approx(0.0, abs=1e-15)
        assert lambda_threshold(w0, p, rho) == math.inf

    def test_undetected_gives_none(self, w0):
        assert lambda_threshold(w0, projector_p(3), ha_state(3, 1.0)) is None

    def test_non_psd_p_rejected(self, w0, rho_star):
        bad = HermitianOp(w0.space, np.diag([1.0] * 8 + [-1.0]).astype(complex))
        with pytest.raises(ValueError, match="PSD"):
            lambda_threshold(w0, bad, rho_star)


class TestMuThreshold:
    def test_worked_point(self, w0):
        # gamma = 0.5, lambda = 0.05: (0.75 - 0.05*6)/2.25 = 0.2
        value = mu_threshold(
            w0, projector_p(3), projector_q(3), 0.05, ha_state(3, 0.5)
        )
        assert value == pytest.approx(0.2, abs=1e-12)

    def test_closed_form_on_grid(self, w0):
        p, q = projector_p(3), projector_q(3)
        for gamma in (0.3, 0.5, 0.7):
            bound = (1 - gamma**2) / (2 + gamma**-2)
            for lam in (0.0, bound / 4, bound / 2):
                value = mu_threshold(w0, p, q, lam, ha_state(3, gamma))
                expected = (1 - gamma**2 - lam * (2 + gamma**-2)) / (2 + gamma**2)
                assert abs(value - expected) <= 1e-12

    def test_lambda_zero_specialization(self, w0):
        gamma = 0.6
        value = mu_threshold(w0, projector_p(3), projector_q(3), 0.0, ha_state(3, gamma))
        assert value == pytest.approx((1 - gamma**2) / (2 + gamma**2), abs=1e-12)

    def test_lambda_at_threshold_gives_none(self, w0):
        rho = ha_state(3, 0.5)
        p, q = projector_p(3), projector_q(3)
        lam_max = lambda_threshold(w0, p, rho)
        assert mu_threshold(w0, p, q, lam_max, rho) is None
        assert mu_threshold(w0, p, q, lam_max + 0.1, rho) is None

    @pytest.mark.parametrize("which", ["P", "Q"])
    def test_non_psd_perturbation_rejected(self, w0, which):
        bad = HermitianOp(w0.space, np.diag([1.0] * 8 + [-1.0]).astype(complex))
        p, q = (bad, projector_q(3)) if which == "P" else (projector_p(3), bad)
        with pytest.raises(ValueError, match=f"{which} must be PSD"):
            mu_threshold(w0, p, q, 0.0, ha_state(3, 0.5))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.1])
    def test_rejects_non_finite_or_negative_lambda(self, w0, lam):
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            mu_threshold(w0, projector_p(3), projector_q(3), lam, ha_state(3, 0.5))


class TestAffineInterpolationAgreement:
    """The pairing is affine along each family, so the root of a line fitted
    through two explicitly mixed points is an independent oracle for the
    threshold, accurate to machine precision."""

    @staticmethod
    def _line_root(x1, y1, x2, y2):
        return x1 - y1 * (x2 - x1) / (y2 - y1)

    def test_alpha_threshold_to_1e9(self):
        rng = np.random.default_rng(555)
        w0 = witness_dk(3, 1)
        space = w0.space
        for _ in range(10):
            gamma = float(rng.uniform(0.2, 0.9))
            rho = ha_state(3, gamma)
            sigma = maximally_mixed(space)
            value = alpha_threshold(w0, rho, sigma)
            a1, a2 = 0.2, 0.7
            y1 = trace_pair(w0, HermitianOp(space, (1 - a1) * rho.matrix + a1 * sigma.matrix))
            y2 = trace_pair(w0, HermitianOp(space, (1 - a2) * rho.matrix + a2 * sigma.matrix))
            assert abs(value - self._line_root(a1, y1, a2, y2)) <= 1e-9

    def test_lambda_threshold_to_1e9(self):
        rng = np.random.default_rng(556)
        w0 = witness_dk(3, 1)
        p = projector_p(3)
        for _ in range(10):
            gamma = float(rng.uniform(0.2, 0.9))
            rho = ha_state(3, gamma)
            value = lambda_threshold(w0, p, rho)
            l1, l2 = 0.01, 0.09
            y1 = trace_pair(HermitianOp(w0.space, w0.matrix + l1 * p.matrix), rho)
            y2 = trace_pair(HermitianOp(w0.space, w0.matrix + l2 * p.matrix), rho)
            assert abs(value - self._line_root(l1, y1, l2, y2)) <= 1e-9

    def test_mu_threshold_to_1e9(self):
        w0 = witness_dk(3, 1)
        p, q = projector_p(3), projector_q(3)
        for gamma, lam in [(0.4, 0.02), (0.6, 0.05), (0.8, 0.01)]:
            rho = ha_state(3, gamma)
            value = mu_threshold(w0, p, q, lam, rho)
            base = w0.matrix + lam * p.matrix
            m1, m2 = 0.01, 0.12
            y1 = trace_pair(HermitianOp(w0.space, base + m1 * q.matrix), rho)
            y2 = trace_pair(HermitianOp(w0.space, base + m2 * q.matrix), rho)
            assert abs(value - self._line_root(m1, y1, m2, y2)) <= 1e-9


class TestRandomizedScanAgreement:
    def test_alpha_closed_form_vs_scan(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            d = int(rng.choice([3, 4]))
            k = int(rng.integers(1, d - 1))
            gamma = float(rng.uniform(0.2, 0.9))
            lam = float(rng.uniform(0.0, 0.02))
            w = perturbed_witness(d, k, lam)
            rho = ha_state(d, gamma)
            sigma = maximally_mixed(w.space)
            value = alpha_threshold(w, rho, sigma)
            if value is None:
                continue
            scanned = alpha_sign_scan(w.matrix, rho.matrix, sigma.matrix)
            assert abs(value - scanned) <= 1e-4

    def test_lambda_closed_form_vs_scan(self):
        rng = np.random.default_rng(4048)
        for _ in range(8):
            d = int(rng.choice([3, 4]))
            k = int(rng.integers(1, d - 1))
            gamma = float(rng.uniform(0.2, 0.9))
            w = witness_dk(d, k)
            rho = ha_state(d, gamma)
            p = maximally_mixed(w.space)
            value = lambda_threshold(w, p, rho)
            scanned = lambda_sign_scan(w.matrix, p.matrix, rho.matrix)
            assert scanned is not None
            assert abs(value - scanned) <= 1e-4


class TestMixingFamilyAndSampling:
    def make_family(self):
        w0 = witness_dk(3, 1)
        return mixing_family(
            w0, ha_state(3, GAMMA_STAR), maximally_mixed(w0.space)
        )

    def test_alpha_zero_returns_rho0(self):
        family = self.make_family()
        (state,) = sample_sppt(family, [0.0])
        assert np.array_equal(state.matrix, family.rho0.matrix)

    def test_half_threshold_sample_is_detected_ppt(self):
        family = self.make_family()
        (state,) = sample_sppt(family, [family.alpha_threshold / 2])
        assert abs(state.trace() - 1.0) <= 1e-12
        ok, _ = is_psd(state)
        assert ok
        ok_pt, _ = is_psd(partial_transpose(state, (False, True)))
        assert ok_pt
        assert trace_pair(family.witness, state) < 0

    def test_mixture_of_samples_stays_detected(self):
        family = self.make_family()
        thr = family.alpha_threshold
        a, b = sample_sppt(family, [thr / 4, thr / 2])
        mixed = convex_combination([a, b], [0.5, 0.5])
        assert trace_pair(family.witness, mixed) < 0
        ok_pt, _ = is_psd(partial_transpose(mixed, (False, True)))
        assert ok_pt

    def test_samples_use_shared_detection_predicate(self):
        family = self.make_family()
        thr = family.alpha_threshold
        # inside the open interval, but the trace (-6.3e-13) is round-off
        with pytest.raises(ArithmeticError, match="not detected"):
            sample_sppt(family, [thr * (1 - 1e-11)])
        for state in sample_sppt(family, [0.0, thr / 2, thr * (1 - 1e-9)]):
            assert certify_detection(family.witness, state).verdict

    def test_alpha_at_threshold_rejected(self):
        family = self.make_family()
        with pytest.raises(ValueError, match="open interval"):
            sample_sppt(family, [family.alpha_threshold])
        with pytest.raises(ValueError, match="open interval"):
            sample_sppt(family, [-0.01])

    def test_undetected_family_cannot_be_sampled(self):
        w0 = witness_dk(3, 1)
        family = mixing_family(w0, ha_state(3, 1.0), maximally_mixed(w0.space))
        assert family.alpha_threshold is None
        with pytest.raises(ValueError, match="no detection threshold"):
            sample_sppt(family, [0.0])

    def test_family_requires_unit_traces(self):
        w0 = witness_dk(3, 1)
        with pytest.raises(ValueError, match="unit trace"):
            mixing_family(w0, w0, maximally_mixed(w0.space))

    def test_declared_separable_flag_recorded(self):
        w0 = witness_dk(3, 1)
        family = mixing_family(
            w0,
            ha_state(3, 0.5),
            maximally_mixed(w0.space),
            declared_separable=False,
        )
        assert family.sigma_declared_separable is False


class TestPerturbationFamilyAndSampling:
    def make_family(self):
        w0 = witness_dk(3, 1)
        return perturbation_family(w0, projector_p(3), ha_state(3, GAMMA_STAR))

    def test_lambda_zero_returns_w0(self):
        family = self.make_family()
        (w,) = sample_wind(family, [0.0])
        assert np.array_equal(w.matrix, family.w0.matrix)

    def test_sampled_witness_detects_and_differs_by_psd(self):
        family = self.make_family()
        (w,) = sample_wind(family, [0.1])
        assert trace_pair(w, family.rho0) < 0
        ok, _ = is_psd(w - family.w0)
        assert ok

    def test_mixture_of_sampled_witnesses_detects(self):
        family = self.make_family()
        a, b = sample_wind(family, [0.02, 0.1])
        mixed = convex_combination([a, b], [0.3, 0.7])
        assert trace_pair(mixed, family.rho0) < 0

    def test_samples_use_shared_detection_predicate(self):
        family = self.make_family()
        thr = family.lambda_threshold
        with pytest.raises(ArithmeticError, match="lost detection"):
            sample_wind(family, [thr * (1 - 1e-11)])
        for w in sample_wind(family, [0.0, thr / 2, thr * (1 - 1e-9)]):
            assert certify_detection(w, family.rho0).verdict

    def test_lambda_at_threshold_rejected(self):
        family = self.make_family()
        with pytest.raises(ValueError, match="open interval"):
            sample_wind(family, [family.lambda_threshold])

    def test_undetected_family_cannot_be_sampled(self):
        family = perturbation_family(witness_dk(3, 1), projector_p(3), ha_state(3, 1.0))
        assert family.lambda_threshold is None
        with pytest.raises(ValueError, match="no detection threshold"):
            sample_wind(family, [0.0])


class TestChainPair:
    def test_self_chaining_reproduces_sample(self):
        w0 = witness_dk(3, 1)
        family = mixing_family(w0, ha_state(3, GAMMA_STAR), maximally_mixed(w0.space))
        result = chain_pair(w0, family)
        assert result is not None
        w_next, rho_next = result
        assert w_next is w0
        (expected,) = sample_sppt(family, [family.alpha_threshold / 2])
        assert np.array_equal(rho_next.matrix, expected.matrix)

    def test_perturbed_witness_chains_with_smaller_margin(self):
        w0 = witness_dk(3, 1)
        rho0 = ha_state(3, GAMMA_STAR)
        family = mixing_family(w0, rho0, maximally_mixed(w0.space))
        w_new = perturbed_witness(3, 1, 0.05)
        result = chain_pair(w_new, family)
        assert result is not None
        _, rho_next = result
        assert trace_pair(w_new, rho_next) < 0
        assert abs(trace_pair(w_new, rho_next)) < abs(trace_pair(w_new, rho0))

    def test_non_detecting_witness_gives_none(self):
        w0 = witness_dk(3, 1)
        family = mixing_family(w0, ha_state(3, GAMMA_STAR), maximally_mixed(w0.space))
        ccp = witness_dk(3, 2)  # completely copositive: detects no PPT state
        assert chain_pair(ccp, family) is None


class TestSweep:
    def test_single_point_value(self):
        table = sweep(3, 1, [0.5], [0.0], [0.0])
        assert len(table) == 1
        assert table.trace.shape == (1, 1, 1)
        assert table.trace[0, 0, 0] == pytest.approx(-0.75 / 11.25, abs=1e-12)
        assert table.detected[0, 0, 0]

    def test_row_count_and_order(self):
        gammas = [0.2, 0.4]
        lams = [0.0, 0.01, 0.02]
        mus = [0.0, 0.1]
        table = sweep(3, 1, gammas, lams, mus)
        assert len(table) == len(gammas) * len(lams) * len(mus)
        assert table.trace.shape == table.detected.shape == (2, 3, 2)
        assert (table.gammas, table.lams, table.mus) == (tuple(gammas), tuple(lams), tuple(mus))

    def test_rows_match_explicit_pairings(self):
        for d, k in [(3, 1), (5, 1), (6, 2), (10, 3)]:
            table = sweep(d, k, [0.4, 0.7, 1.0, 1.3], [0.0, 0.002, 0.05], [0.0, 0.03])
            for (gi, li, mi), value in np.ndenumerate(table.trace):
                w = perturbed_witness(d, k, table.lams[li], table.mus[mi])
                rho = ha_state(d, table.gammas[gi])
                assert abs(value - trace_pair(w, rho)) <= 1e-12
                assert table.detected[gi, li, mi] == certify_detection(w, rho).verdict

    def test_separable_gamma_one_never_detected(self):
        # round-off leaves Tr(W0 rho_1) at about -1e-17 for many (d, k)
        for d in range(3, 13):
            for k in range(1, d - 1):
                table = sweep(d, k, [1.0], [0.0, 0.01], [0.0, 0.01])
                assert not table.detected.any(), (d, k, table.trace.min())

    def test_gamma_at_least_one_not_detected(self):
        table = sweep(3, 1, [1.0, 1.1, 1.2], [0.0, 0.05], [0.0, 0.05])
        assert not table.detected.any()

    def test_boundary_matches_closed_form_curve(self):
        # at mu = 0 detection flips where lambda crosses (1-g^2)/(2+g^-2)
        lams = [0.005 * i for i in range(41)]
        for gamma in (0.4, 0.6, 0.8):
            table = sweep(3, 1, [gamma], lams, [0.0])
            bound = (1 - gamma**2) / (2 + gamma**-2)
            for lam, hit in zip(lams, table.detected[0, :, 0]):
                assert hit == (lam < bound), (gamma, lam)

    def test_empty_grid(self):
        assert len(sweep(3, 1, [], [0.0], [0.0])) == 0


class TestSeparableCatalog:
    def test_catalog_members_are_states(self):
        space = bipartite(3)
        catalog = separable_catalog(space)
        assert {"maximally-mixed", "product-basis-0", "product-basis-max",
                "ha-gamma-1"} <= set(catalog)
        for op in catalog.values():
            assert abs(op.trace() - 1.0) <= 1e-12
            ok, _ = is_psd(op)
            assert ok

    def test_multipartite_catalog_has_no_ha_member(self):
        from ewkit import TensorSpace

        catalog = separable_catalog(TensorSpace((2, 2, 2)))
        assert "ha-gamma-1" not in catalog

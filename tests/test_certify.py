"""Certificates: PPT, indecomposability, conditional atomicity, scan."""

import copy
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ewkit import (
    HA_SCHMIDT_ASSUMPTION,
    Certificate,
    HermitianOp,
    ScanConfig,
    TensorSpace,
    bipartite,
    blockpos_scan,
    certify_atomic_conditional,
    certify_detection,
    certify_indecomposable,
    certify_ppt,
    ghz_projector,
    ha_state,
    max_entangled_projector,
    maximally_mixed,
    partial_transpose,
    perturbed_witness,
    projector_p,
    projector_q,
    revalidate,
    schmidt_rank,
    trace_pair,
    witness_dk,
    witness_from_difference,
)
from ewkit.certify import REVALIDATE_TOL, SCAN_CONV_TOL, _haar_product_starts

from oracles import (
    blockpos_scan_serial,
    haar_product_start,
    product_grid_minimum,
    random_hermitian,
)

GAMMA_STAR = math.sqrt((math.sqrt(3.0) - 1.0) / 2.0)
EYE_2X2 = HermitianOp(bipartite(2), np.eye(4))  # every product value is 1


class TestCertifyPpt:
    def test_ha_state_is_ppt(self):
        cert = certify_ppt(ha_state(3, 0.5), (False, True))
        assert cert.verdict
        assert cert.evidence["min_eigenvalue"] >= -1e-10
        assert cert.assumptions == ()

    def test_maximally_entangled_is_npt(self):
        cert = certify_ppt(max_entangled_projector(3), (False, True))
        assert not cert.verdict
        # the partial transpose of the d-dim maximally entangled projector
        # has eigenvalue -1/d
        assert cert.evidence["min_eigenvalue"] == pytest.approx(-1 / 3, abs=1e-12)

    def test_maximally_mixed_is_ppt(self):
        cert = certify_ppt(maximally_mixed(bipartite(3)), (False, True))
        assert cert.verdict

    def test_evidence_holds_spectrum(self):
        cert = certify_ppt(ha_state(3, 0.7), (False, True))
        assert len(cert.evidence["eigenvalues"]) == 9
        assert cert.evidence["sigma"] == [0, 1]

    @pytest.mark.parametrize("sigma, shown", [
        (("0", "1"), "'0'"), ((0, 2), "2"), ((0.5, 0), "0.5"), ((None, 1), "None"),
    ])
    def test_sigma_entries_must_be_bits(self, sigma, shown):
        # read by truth value, ("0", "1") would transpose both factors: a PPT verdict for
        # the maximally entangled state
        rho = max_entangled_projector(3)
        calls = (lambda: partial_transpose(rho, sigma), lambda: certify_ppt(rho, sigma),
                 lambda: certify_indecomposable(witness_dk(3, 1), rho, sigma))
        for call in calls:
            with pytest.raises(ValueError, match=f"^sigma bits must be 0 or 1, got {shown}$"):
                call()

    def test_sigma_bits_may_be_bools_or_integers(self):
        expected = certify_ppt(max_entangled_projector(3), (False, True))
        for sigma in ((0, 1), (np.int64(0), np.int64(1)), np.array([False, True]), [0.0, 1.0]):
            cert = certify_ppt(max_entangled_projector(3), sigma)
            assert cert.verdict is expected.verdict is False
            assert cert.evidence == expected.evidence


class TestCertifyDetection:
    def test_detected_pair(self):
        cert = certify_detection(witness_dk(3, 1), ha_state(3, 0.5))
        assert cert.verdict
        assert cert.evidence["trace"] == pytest.approx(-0.75 / 11.25, abs=1e-12)
        assert cert.assumptions == ()

    def test_boundary_not_detected(self):
        cert = certify_detection(witness_dk(3, 1), ha_state(3, 1.0))
        assert not cert.verdict


class TestCertifyIndecomposable:
    def test_seed_pair_certified(self):
        cert = certify_indecomposable(witness_dk(3, 1), ha_state(3, 0.5), (False, True))
        assert cert.verdict
        assert cert.evidence["trace"] == pytest.approx(-1 / 15, abs=1e-12)
        assert cert.evidence["ppt_min_eigenvalue"] >= -1e-10

    def test_gamma_one_not_certified(self):
        cert = certify_indecomposable(witness_dk(3, 1), ha_state(3, 1.0), (False, True))
        assert not cert.verdict

    def test_npt_state_not_certified_despite_negative_trace(self):
        w0 = witness_dk(3, 1)
        phi = max_entangled_projector(3)
        assert trace_pair(w0, phi) < 0
        cert = certify_indecomposable(w0, phi, (False, True))
        assert not cert.verdict

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_whole_family_certified(self, d):
        for k in range(1, d - 1):
            w = witness_dk(d, k)
            for gamma in [0.1 * i for i in range(1, 10)]:
                cert = certify_indecomposable(w, ha_state(d, gamma), (False, True))
                assert cert.verdict, (d, k, gamma)


class TestCertifyAtomicConditional:
    def test_perturbed_pair_conditionally_certified(self):
        cert = certify_atomic_conditional(
            perturbed_witness(3, 1, 0.1), ha_state(3, GAMMA_STAR), HA_SCHMIDT_ASSUMPTION
        )
        assert cert.verdict
        assert cert.assumptions == (HA_SCHMIDT_ASSUMPTION,)

    def test_base_witness_certified(self):
        cert = certify_atomic_conditional(
            witness_dk(3, 1), ha_state(3, 0.9), HA_SCHMIDT_ASSUMPTION
        )
        assert cert.verdict

    def test_nonnegative_trace_not_certified(self):
        cert = certify_atomic_conditional(
            witness_dk(3, 1), ha_state(3, 1.0), HA_SCHMIDT_ASSUMPTION
        )
        assert not cert.verdict

    def test_assumption_required(self):
        with pytest.raises(ValueError, match="assumption"):
            certify_atomic_conditional(witness_dk(3, 1), ha_state(3, 0.5), "")


class TestSchmidtRank:
    def test_product_vector(self):
        vec = np.zeros(9, dtype=complex)
        vec[0] = 1.0
        assert schmidt_rank(vec, bipartite(3)) == 1

    def test_cyclic_maximally_entangled_vector(self):
        vec = np.zeros(9, dtype=complex)
        for i in range(3):
            vec[i * 3 + (i - 1) % 3] = 1 / math.sqrt(3)
        assert schmidt_rank(vec, bipartite(3)) == 3

    def test_two_term_superposition(self):
        vec = np.zeros(9, dtype=complex)
        vec[0] = vec[4] = 1 / math.sqrt(2)
        assert schmidt_rank(vec, bipartite(3)) == 2

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_uniform_r_term_vector(self, r):
        vec = np.zeros(9, dtype=complex)
        for i in range(r):
            vec[i * 3 + i] = 1 / math.sqrt(r)
        assert schmidt_rank(vec, bipartite(3)) == r

    def test_random_product_vectors(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            vec = np.kron(x / np.linalg.norm(x), y / np.linalg.norm(y))
            assert schmidt_rank(vec, bipartite(3)) == 1

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError, match="unit"):
            schmidt_rank(np.ones(9, dtype=complex), bipartite(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_vector(self, bad):
        # a NaN norm is not within any tolerance of 1; unchecked, the SVD fails to converge
        vec = np.array([bad, 0, 0, 1.0])
        with pytest.raises(ValueError, match="vector must be unit length, got norm"):
            schmidt_rank(vec, bipartite(2))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="vector length 8 != space dimension 9"):
            schmidt_rank(np.ones(8, dtype=complex) / math.sqrt(8), bipartite(3))

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError, match="bipartite"):
            schmidt_rank(np.ones(8, dtype=complex) / math.sqrt(8), TensorSpace((2, 2, 2)))


def violating_candidate():
    space = bipartite(3)
    q = HermitianOp(space, np.eye(9, dtype=complex) / 3)
    p = 2.0 * max_entangled_projector(3)
    return witness_from_difference(q, p)


class TestBlockposScan:
    def test_base_witness_passes(self):
        cert = blockpos_scan(witness_dk(3, 1), ScanConfig(restarts=100, seed=7))
        assert cert.verdict
        assert cert.evidence["minimum"] >= -1e-8
        assert revalidate(cert)

    def test_identity_passes_with_minimum_one(self):
        eye = HermitianOp(bipartite(3), np.eye(9, dtype=complex))
        cert = blockpos_scan(eye, ScanConfig(restarts=10, seed=3))
        assert cert.verdict
        assert cert.evidence["minimum"] == pytest.approx(1.0, abs=1e-10)
        assert revalidate(cert)

    def test_violating_candidate_found(self):
        cert = blockpos_scan(violating_candidate(), ScanConfig(restarts=100, seed=7))
        assert not cert.verdict
        assert revalidate(cert)
        # global product minimum of I/3 - 2|Phi+><Phi+| is 1/3 - 2/3 = -1/3
        assert cert.evidence["minimum"] == pytest.approx(-1 / 3, abs=1e-9)
        x = np.array(cert.evidence["x_re"]) + 1j * np.array(cert.evidence["x_im"])
        y = np.array(cert.evidence["y_re"]) + 1j * np.array(cert.evidence["y_im"])
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-10)
        vec = np.kron(x, y)
        value = (vec.conj() @ violating_candidate().matrix @ vec).real
        assert value == pytest.approx(cert.evidence["minimum"], abs=1e-10)

    def test_violation_agrees_with_dense_grid(self):
        w = violating_candidate()
        grid_min = product_grid_minimum(w.matrix, 3, 3)
        cert = blockpos_scan(w, ScanConfig(restarts=40, seed=11))
        assert revalidate(cert)
        # the scan must do at least as well as the coarse grid
        assert cert.evidence["minimum"] <= grid_min + 1e-8
        assert abs(cert.evidence["minimum"] - grid_min) <= 5e-2

    def test_objective_non_increasing(self):
        for op in (witness_dk(3, 1), violating_candidate()):
            cert = blockpos_scan(op, ScanConfig(restarts=30, seed=5))
            assert revalidate(cert)
            assert cert.evidence["max_step_increase"] <= 1e-10
            for history in cert.evidence["histories"]:
                diffs = np.diff(np.asarray(history))
                assert diffs.max() <= 1e-10

    def test_deterministic_given_seed(self):
        config = ScanConfig(restarts=15, seed=42)
        a = blockpos_scan(witness_dk(3, 1), config)
        b = blockpos_scan(witness_dk(3, 1), config)
        assert a.evidence == b.evidence
        assert revalidate(a)

    def test_psd_operator_passes(self):
        rng = np.random.default_rng(23)
        m = random_hermitian(rng, 9)
        psd = m @ m.conj().T
        cert = blockpos_scan(HermitianOp(bipartite(3), psd), ScanConfig(restarts=20, seed=1))
        assert cert.verdict
        assert revalidate(cert)
        assert cert.evidence["minimum"] >= -1e-8

    def test_rejects_non_bipartite(self):
        op = HermitianOp(TensorSpace((2, 2, 2)), np.eye(8, dtype=complex))
        with pytest.raises(ValueError, match="bipartite"):
            blockpos_scan(op)

    def test_unconverged_restarts_counted(self):
        eye = HermitianOp(bipartite(3), np.eye(9, dtype=complex))
        converged = blockpos_scan(eye, ScanConfig(restarts=10, seed=3))
        assert converged.evidence["unconverged_restarts"] == 0
        capped = blockpos_scan(witness_dk(3, 1), ScanConfig(restarts=10, max_iters=1))
        assert capped.evidence["unconverged_restarts"] > 0
        assert revalidate(converged) and revalidate(capped)

    @pytest.mark.parametrize("max_iters", [1, 2, 30, 500])
    def test_unconverged_count_matches_histories(self, max_iters):
        for op in (witness_dk(3, 1), violating_candidate()):
            config = ScanConfig(restarts=20, max_iters=max_iters, seed=4)
            cert = blockpos_scan(op, config)
            assert revalidate(cert)
            evidence = cert.evidence
            recount = sum(
                (len(h) - 1) // 2 == max_iters
                and abs(h[-3] - h[-1]) > SCAN_CONV_TOL * np.linalg.norm(op.matrix)
                for h in evidence["histories"]
            )
            assert evidence["unconverged_restarts"] == recount

    def test_history_columns_grow_by_steps_taken(self):
        # histories are kept per step taken, never laid out for max_iters steps
        cert = blockpos_scan(EYE_2X2, ScanConfig(restarts=3, max_iters=10**12))
        assert [len(h) for h in cert.evidence["histories"]] == [3, 3, 3]
        assert revalidate(cert)

    def test_histories_are_lists_of_python_floats(self):
        # the JSON writer and bench/tracing.py read them as plain lists
        for op in (EYE_2X2, witness_dk(3, 1), violating_candidate()):
            histories = blockpos_scan(op, ScanConfig(restarts=10, max_iters=30)).evidence[
                "histories"]
            assert type(histories) is list and len(histories) == 10
            for history in histories:
                assert type(history) is list and {type(v) for v in history} == {float}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(restarts=0)
        with pytest.raises(ValueError):
            ScanConfig(seed=-1)

    @pytest.mark.parametrize("value", [2.5, 1e3, "3", None])
    @pytest.mark.parametrize("name", ["restarts", "max_iters", "seed"])
    def test_config_fields_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            ScanConfig(**{name: value})

    def test_config_stores_plain_ints(self):
        config = ScanConfig(restarts=np.int64(4), max_iters=np.int32(5), seed=np.uint8(3))
        assert (config.restarts, config.max_iters, config.seed) == (4, 5, 3)
        assert {type(config.restarts), type(config.max_iters), type(config.seed)} == {int}


class TestHaarProductStarts:
    @pytest.mark.parametrize("restarts", [1, 40])
    @pytest.mark.parametrize("seed", [0, 1, 4242, 2**31 - 1, 2**63])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (3, 4), (4, 3), (8, 8)])
    def test_stacked_starts_equal_serial_draws(self, dims, seed, restarts):
        xs, ys = _haar_product_starts(seed, restarts, *dims)
        assert xs.shape == (restarts, dims[0]) and ys.shape == (restarts, dims[1])
        for r in range(restarts):
            x, y = haar_product_start(seed, r, *dims)
            assert np.array_equal(xs[r], x) and np.array_equal(ys[r], y)


def _scan_equivalence_cases():
    rng = np.random.default_rng(31)
    m = random_hermitian(rng, 9)
    rect = random_hermitian(rng, 12)
    cases = [
        ("witness_3_1", witness_dk(3, 1), ScanConfig(restarts=40, seed=5)),
        ("q_minus_p_candidate", violating_candidate(), ScanConfig(restarts=40, seed=5)),
        ("identity", HermitianOp(bipartite(3), np.eye(9, dtype=complex)),
         ScanConfig(restarts=10, seed=3)),
        ("random_psd", HermitianOp(bipartite(3), m @ m.conj().T),
         ScanConfig(restarts=20, seed=1)),
        ("random_3x4", HermitianOp(TensorSpace((3, 4)), rect), ScanConfig(restarts=20, seed=9)),
        ("random_4x3", HermitianOp(TensorSpace((4, 3)), rect), ScanConfig(restarts=20, seed=9)),
    ]
    for d in range(3, 9):
        config = ScanConfig(restarts=40, max_iters=30, seed=d)
        cases.append((f"witness_{d}_1", witness_dk(d, 1), config))
        cases.append((f"q_minus_p_{d}", projector_q(d) - projector_p(d), config))
    return cases


def _at_round_off_tie(history, w):
    """Whether the convergence test at the end of history is decided by round-off."""
    scale = np.linalg.norm(w.matrix)
    gap = abs(history[-3] - history[-1]) - SCAN_CONV_TOL * scale
    return abs(gap) <= 1e-13 * scale


class TestBlockposScanMatchesSerialOracle:
    @pytest.mark.parametrize(
        "op, config",
        [pytest.param(op, config, id=name) for name, op, config in _scan_equivalence_cases()],
    )
    def test_matches_serial_oracle(self, op, config):
        cert = blockpos_scan(op, config)
        assert revalidate(cert)
        oracle = blockpos_scan_serial(op, config)
        stacked_h = cert.evidence["histories"]
        assert len(stacked_h) == len(oracle["histories"]) == config.restarts
        for ours, theirs in zip(stacked_h, oracle["histories"]):
            # the two paths sum in different orders, so a restart whose step
            # change lands within round-off of SCAN_CONV_TOL may stop one step
            # apart; every other restart takes the same number of steps
            if len(ours) != len(theirs):
                shorter = theirs[: min(len(ours), len(theirs))]
                assert _at_round_off_tie(shorter, op)
            assert ours[-1] == pytest.approx(theirs[-1], abs=1e-10)
        assert cert.verdict == oracle["verdict"]
        assert cert.evidence["minimum"] == pytest.approx(oracle["minimum"], abs=1e-10)
        best = cert.evidence["best_restart"]
        assert oracle["histories"][best][-1] == pytest.approx(oracle["minimum"], abs=1e-10)

    def test_restarts_do_not_depend_on_stack_size(self):
        for op in (witness_dk(3, 1), violating_candidate()):
            small_cert = blockpos_scan(op, ScanConfig(restarts=10, seed=8))
            large_cert = blockpos_scan(op, ScanConfig(restarts=40, seed=8))
            assert revalidate(small_cert) and revalidate(large_cert)
            small, large = small_cert.evidence, large_cert.evidence
            for a, b in zip(small["histories"], large["histories"][:10]):
                assert len(a) == len(b)
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def certify_ccp(w: HermitianOp) -> Certificate:
    """The certificate `ewkit certify ccp` prints: W itself is PPT."""
    return replace(certify_ppt(w, (False, True)), kind="ccp")


class TestCertifyCompletelyCopositive:
    def test_k_d_minus_one_member(self):
        assert certify_ccp(witness_dk(3, 2)).verdict

    def test_base_witness_is_not(self):
        assert not certify_ccp(witness_dk(3, 1)).verdict

    def test_psd_plus_transposed_psd(self):
        rng = np.random.default_rng(29)
        m = random_hermitian(rng, 9)
        psd = HermitianOp(bipartite(3), m @ m.conj().T)
        composed = partial_transpose(psd, (False, True))
        assert certify_ccp(composed).verdict


def _tampered_certificates() -> dict[str, tuple[Certificate, Certificate]]:
    """(certificate, tampered copy) pairs: each producer's certificate with an evidence
    key dropped or added, a sigma of another length, or no assumptions."""
    w0, rho = witness_dk(3, 1), ha_state(3, 0.5)
    certs = {
        "ppt": certify_ppt(rho, (False, True)),
        "ghz-ppt": certify_ppt(ghz_projector(3, 2), (False, False, True)),
        "detection": certify_detection(w0, rho),
        "indecomposable": certify_indecomposable(w0, rho, (False, True)),
        "atomic-conditional": certify_atomic_conditional(w0, rho, HA_SCHMIDT_ASSUMPTION),
        "ccp": certify_ccp(witness_dk(3, 2)),
        "blockpos-scan": blockpos_scan(w0, ScanConfig(restarts=4, seed=2)),
    }
    tampered = {}
    for name, cert in certs.items():
        ev = cert.evidence
        edits = {f"without-{key}": {k: v for k, v in ev.items() if k != key} for key in ev}
        edits["with-added-key"] = {**ev, "note": 0}
        if "sigma" in ev:
            sigma = [0] * (4 - len(ev["sigma"])) + [1]  # 3 bits for 2 parts, 2 for 3
            edits[f"sigma-{len(sigma)}-bits"] = {**ev, "sigma": sigma}
        for edit, evidence in edits.items():
            tampered[f"{name}-{edit}"] = cert, replace(cert, evidence=evidence)
        if cert.assumptions:
            tampered[f"{name}-without-assumptions"] = cert, replace(cert, assumptions=())
    return tampered


TAMPERED = _tampered_certificates()


class TestRevalidate:
    @pytest.mark.parametrize("name", list(TAMPERED))
    def test_tampered_evidence_is_false(self, name):
        cert, tampered = TAMPERED[name]
        assert revalidate(cert) and revalidate(tampered) is False

    def test_all_kinds_revalidate(self):
        w0 = witness_dk(3, 1)
        rho = ha_state(3, 0.5)
        certs = [
            certify_ppt(rho, (False, True)),
            certify_ppt(max_entangled_projector(3), (False, True)),
            certify_ppt(ghz_projector(3, 2), (False, False, True)),
            certify_detection(w0, rho),
            certify_indecomposable(w0, rho, (False, True)),
            certify_indecomposable(w0, ha_state(3, 1.0), (False, True)),
            certify_atomic_conditional(w0, rho, HA_SCHMIDT_ASSUMPTION),
            certify_ccp(witness_dk(3, 2)),
            blockpos_scan(w0, ScanConfig(restarts=10, seed=2)),
            blockpos_scan(violating_candidate(), ScanConfig(restarts=10, seed=2)),
        ]
        for cert in certs:
            assert revalidate(cert), cert.kind

    def test_forged_blockpos_certificate_rejected(self):
        cert = blockpos_scan(violating_candidate(), ScanConfig(restarts=10, seed=2))
        assert revalidate(cert)
        forged = Certificate(
            cert.kind,
            True,
            {**cert.evidence, "minimum": 1.0},
            operators=cert.operators,
        )
        assert not revalidate(forged)

    def test_forged_detection_threshold_rejected(self):
        # gamma = 1 is separable; raising the threshold would call it detected
        cert = certify_detection(witness_dk(3, 1), ha_state(3, 1.0))
        assert not cert.verdict and revalidate(cert)
        forged = replace(
            cert, verdict=True, evidence={**cert.evidence, "trace_threshold": 1.0}
        )
        assert not revalidate(forged)

    def test_forged_ppt_spectrum_rejected(self):
        cert = certify_ppt(ha_state(3, 0.5), (False, True))
        eigenvalues = list(cert.evidence["eigenvalues"])
        eigenvalues[-1] += 1.0
        forged = replace(cert, evidence={**cert.evidence, "eigenvalues": eigenvalues})
        assert not revalidate(forged)

    @pytest.mark.parametrize(
        "edit",
        [
            {"histories": [[5.0, 4.0, 3.0]] * 3, "best_restart": 99},
            {"best_restart": 1},
            {"unconverged_restarts": 3},
            {"max_step_increase": -1.0},
        ],
        ids=["histories", "best_restart", "unconverged", "step_increase"],
    )
    def test_forged_blockpos_histories_rejected(self, edit):
        cert = blockpos_scan(violating_candidate(), ScanConfig(restarts=10, seed=2))
        assert cert.evidence["best_restart"] != 1
        forged = replace(cert, evidence={**cert.evidence, **edit})
        assert not revalidate(forged)

    # Each forgery keeps every value the parent's checks recomputed: the final
    # values, the minimum, the step increases and the product value.
    @pytest.mark.parametrize("forge", [
        lambda ev: ev["histories"][0].append(ev["histories"][0][-1]),
        lambda ev: ev["histories"][0].extend([1.0, 1.0]),
        lambda ev: ev["histories"][0].__setitem__(0, True),
        lambda ev: ev["x_re"].__setitem__(0, True),
    ], ids=["even-length", "steps-after-convergence", "true-in-history", "true-in-x_re"])
    def test_forged_blockpos_history_rejected(self, forge):
        cert = blockpos_scan(EYE_2X2, ScanConfig(restarts=3, max_iters=5))
        assert cert.evidence["histories"][0][0] == cert.evidence["histories"][0][-1] == 1.0
        assert cert.evidence["x_re"][0] == 1.0
        evidence = copy.deepcopy(cert.evidence)
        forge(evidence)
        assert revalidate(cert) and revalidate(replace(cert, evidence=evidence)) is False

    def test_history_cut_before_convergence_rejected(self):
        cert = blockpos_scan(witness_dk(3, 1), ScanConfig(restarts=10, max_iters=30))
        ev = cert.evidence
        # restart 0 stopped on convergence before max_iters steps, and is not the best
        assert ev["best_restart"] != 0 and len(ev["histories"][0]) < 61
        cut = [ev["histories"][0][:-2], *ev["histories"][1:]]
        assert revalidate(cert)
        assert revalidate(replace(cert, evidence={**ev, "histories": cut})) is False

    def test_nan_histories_are_false_without_warnings(self):
        cert = blockpos_scan(EYE_2X2, ScanConfig(restarts=3, max_iters=1))
        forged = replace(cert, evidence={**cert.evidence, "histories": [[math.nan] * 3] * 3})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert revalidate(forged) is False

    def test_forged_blockpos_cutoff_rejected(self):
        # the violating value -1/3 clears a lowered cutoff
        cert = blockpos_scan(violating_candidate(), ScanConfig(restarts=10, seed=2))
        forged = replace(cert, verdict=True, evidence={**cert.evidence, "cutoff": -1.0})
        assert not revalidate(forged)

    def test_forged_blockpos_conv_tol_rejected(self):
        # every restart converged, so a looser tolerance leaves the counts as they are
        cert = blockpos_scan(violating_candidate(), ScanConfig(restarts=10, seed=2))
        assert cert.evidence["conv_tol"] == SCAN_CONV_TOL
        assert cert.evidence["unconverged_restarts"] == 0 and revalidate(cert)
        forged = replace(cert, evidence={**cert.evidence, "conv_tol": 1e-9})
        assert not revalidate(forged)

    @pytest.mark.parametrize("kind, edit", [
        ("ppt", {"sigma": None}),
        ("blockpos-scan", {"x_re": "a"}),
        ("blockpos-scan", {"histories": 5}),
        ("blockpos-scan", {"minimum": "x"}),
    ], ids=["ppt-sigma-none", "scan-x-re-string", "scan-histories-int", "scan-minimum-string"])
    def test_wrong_typed_evidence_is_false(self, kind, edit):
        if kind == "ppt":
            cert = certify_ppt(ha_state(3, 0.5), (False, True))
        else:
            cert = blockpos_scan(violating_candidate(), ScanConfig(restarts=10, seed=2))
        assert revalidate(cert)
        assert revalidate(replace(cert, evidence={**cert.evidence, **edit})) is False

    # Each edit keeps the stored value equal to the true one under ==, in the wrong JSON type:
    # a bool where a float or an int is due, or a float where an int is due.
    @pytest.mark.parametrize("kind, edit", [
        ("ppt", {"min_eigenvalue": False}),
        ("ppt", {"eigenvalues": [False] * 3 + [1 / 9] * 3 + [2 / 9] * 3}),
        ("blockpos-scan", {"restarts": 4.0}),
        ("blockpos-scan", {"max_iters": 5.0}),
        ("blockpos-scan", {"seed": 0.0}),
        ("blockpos-scan", {"seed": False}),
        ("blockpos-scan", {"best_restart": 3.0}),
        ("blockpos-scan", {"unconverged_restarts": 4.0}),
    ], ids=["ppt-min-false", "ppt-eigenvalues-false", "scan-restarts-float",
            "scan-max-iters-float", "scan-seed-float", "scan-seed-false",
            "scan-best-restart-float", "scan-unconverged-float"])
    def test_equal_value_of_the_wrong_type_is_false(self, kind, edit):
        if kind == "ppt":
            cert = certify_ppt(ha_state(3, 1.0), (False, True))
        else:
            cert = blockpos_scan(witness_dk(3, 1), ScanConfig(restarts=4, max_iters=5, seed=0))
        assert revalidate(cert)
        key, value = next(iter(edit.items()))
        assert np.allclose(cert.evidence[key], value, rtol=0, atol=1e-9)
        assert revalidate(replace(cert, evidence={**cert.evidence, **edit})) is False

    def test_scan_configured_with_numpy_ints_stores_ints(self):
        config = ScanConfig(restarts=np.int64(4), max_iters=np.int64(5), seed=np.int64(0))
        cert = blockpos_scan(witness_dk(3, 1), config)
        assert all(type(cert.evidence[key]) is int for key in ("restarts", "max_iters", "seed"))
        assert revalidate(cert)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            revalidate(Certificate("nonsense", True, {}))


def _edited(cert: Certificate, **evidence) -> Certificate:
    return replace(cert, evidence={**cert.evidence, **evidence})


class TestRevalidateIsRelative:
    """revalidate's tolerances scale with the certificate's own operators, not absolute."""

    def test_negated_trace_of_a_tiny_witness_rejected(self):
        cert = certify_detection(1e-12 * witness_dk(3, 1), ha_state(3, 0.5))
        assert revalidate(cert)
        assert not revalidate(_edited(cert, trace=-cert.evidence["trace"]))

    def test_zero_trace_threshold_of_a_tiny_witness_rejected(self):
        cert = certify_detection(1e-12 * witness_dk(3, 1), ha_state(3, 0.5))
        assert not revalidate(_edited(cert, trace_threshold=0.0))

    def test_zero_psd_tolerance_rejected(self):
        cert = certify_ppt(ha_state(20, 0.5), (0, 1))
        assert cert.verdict and revalidate(cert)
        assert not revalidate(_edited(cert, tolerance=0.0))

    def test_min_eigenvalue_below_minus_tolerance_rejected(self):
        # -5e-10 lies below -tolerance, so it contradicts the verdict True
        cert = certify_ppt(ha_state(20, 0.5), (0, 1))
        assert cert.verdict and -5e-10 < -cert.evidence["tolerance"]
        assert not revalidate(_edited(cert, min_eigenvalue=-5e-10))

    def test_negated_product_value_of_a_tiny_witness_rejected(self):
        w = 1e-12 * (maximally_mixed(bipartite(3)) * 3.0 - 2 * max_entangled_projector(3))
        cert = blockpos_scan(w, ScanConfig(5, 50, 1))
        assert not cert.verdict and revalidate(cert)
        assert not revalidate(_edited(cert, product_value=-cert.evidence["product_value"]))

    def test_trace_one_ulp_off_at_a_large_scale_revalidates(self):
        cert = certify_detection(1e6 * witness_dk(3, 1), ha_state(3, 0.5))
        moved = float(np.nextafter(cert.evidence["trace"], np.inf))
        assert moved != cert.evidence["trace"]
        assert revalidate(_edited(cert, trace=moved))


class TestStoredEvidenceGivesItsVerdict:
    """Evidence inside revalidate's slack must still give the verdict it is stored with."""

    def test_min_eigenvalue_below_minus_tolerance_rejected(self):
        cert = certify_ppt(ha_state(20, 0.5), (0, 1))
        low = -5 * cert.evidence["tolerance"]
        eigenvalues = [low, *cert.evidence["eigenvalues"][1:]]
        assert cert.verdict and revalidate(cert)
        assert not revalidate(_edited(cert, min_eigenvalue=low))
        assert not revalidate(_edited(cert, min_eigenvalue=low, eigenvalues=eigenvalues))

    def test_trace_moved_across_its_threshold_rejected(self):
        # shift W_{3,1} by a multiple of I so that Tr(W I/9) is half the threshold
        mix = maximally_mixed(bipartite(3))
        w = witness_dk(3, 1) - 9 * trace_pair(witness_dk(3, 1), mix) * mix
        w = w + 4.5 * certify_detection(w, mix).evidence["trace_threshold"] * mix
        cert = certify_detection(w, mix)
        threshold = cert.evidence["trace_threshold"]
        assert not cert.verdict and threshold < cert.evidence["trace"] < 0 and revalidate(cert)
        assert not revalidate(_edited(cert, trace=1.2 * threshold))

    def test_scan_minimum_off_its_histories_rejected(self):
        w = witness_dk(3, 1)
        cert = blockpos_scan(w, ScanConfig(5, 50, 1))
        assert cert.verdict and revalidate(cert)
        low = -0.5 * REVALIDATE_TOL["minimum"] * w.norm()
        assert low < cert.evidence["cutoff"]
        assert not revalidate(_edited(cert, minimum=low))

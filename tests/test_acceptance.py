"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on stdout.
"""

import math

import numpy as np

from ewkit import (
    HermitianOp,
    ScanConfig,
    StateFamilyParams,
    TensorSpace,
    alpha_threshold,
    bipartite,
    blockpos_scan,
    certify_indecomposable,
    certify_ppt,
    choi_map,
    dejamiolkowski,
    ha_state,
    is_psd,
    jamiolkowski,
    lambda_threshold,
    max_entangled_projector,
    maximally_mixed,
    mu_threshold,
    partial_transpose,
    perturbed_witness,
    product_basis_state,
    projector_p,
    projector_q,
    revalidate,
    trace_pair,
    witness_dk,
    witness_from_difference,
)

from oracles import (
    alpha_sign_scan,
    choi_map_formula,
    kron_chain,
    lambda_sign_scan,
    random_hermitian,
)
from test_construct import W0_MATRIX, expected_perturbed_matrix

GAMMA_GRID = [round(0.1 * i, 10) for i in range(1, 11)]  # 0.1 .. 1.0
GAMMA_STAR = math.sqrt((math.sqrt(3.0) - 1.0) / 2.0)


def _gate(number: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {description}")
        raise
    print(f"[PASS] criterion {number:02d}: {description}")


def test_criterion_01_matrix_reproduction():
    def check():
        w0 = witness_dk(3, 1)
        assert np.array_equal(w0.matrix, W0_MATRIX.astype(complex))
        for lam, mu in [(0.0, 0.0), (0.1, 0.0), (0.0, 0.2), (0.37, 0.11), (2.0, 3.0)]:
            w = perturbed_witness(3, 1, lam, mu)
            assert np.array_equal(w.matrix.real, expected_perturbed_matrix(lam, mu))
            assert np.abs(w.matrix.imag).max() == 0.0

    _gate(1, "witness and perturbed-witness matrices reproduced exactly", check)


def test_criterion_02_trace_identity():
    def check():
        for d in (3, 4, 5):
            for k in range(1, d - 1):
                w = witness_dk(d, k)
                for gamma in GAMMA_GRID:
                    expected = (gamma**2 - 1) / StateFamilyParams(d, gamma).n_gamma
                    value = trace_pair(w, ha_state(d, gamma))
                    assert abs(value - expected) <= 1e-12, (d, k, gamma)

    _gate(2, "pairing identity (gamma^2-1)/N to 1e-12 for d in {3,4,5}", check)


def test_criterion_03_lambda_bound():
    def check():
        w0 = witness_dk(3, 1)
        p = projector_p(3)
        for gamma in GAMMA_GRID[:-1]:  # detection region gamma < 1
            value = lambda_threshold(w0, p, ha_state(3, gamma))
            expected = (1 - gamma**2) / (2 + gamma**-2)
            assert abs(value - expected) <= 1e-12, gamma
        # at gamma = 1 the pairing vanishes: empty supremum
        assert lambda_threshold(w0, p, ha_state(3, 1.0)) is None

        # numeric maximization of the bound over gamma on a 1e-4 grid
        grid = np.arange(1e-4, 1.0, 1e-4)
        values = (1 - grid**2) / (2 + grid**-2.0)
        best = int(values.argmax())
        assert abs(grid[best] - GAMMA_STAR) <= 1e-3
        assert abs(values[best] - 0.133975) <= 1e-4

    _gate(3, "lambda bound formula to 1e-12; maximum 0.133975 at gamma* 0.6050", check)


def test_criterion_04_mu_bound():
    def check():
        w0 = witness_dk(3, 1)
        p, q = projector_p(3), projector_q(3)
        for gamma in (0.2, 0.4, 0.6, 0.8):
            lam_max = (1 - gamma**2) / (2 + gamma**-2)
            for frac in (0.0, 0.25, 0.5, 0.75):
                lam = frac * lam_max
                value = mu_threshold(w0, p, q, lam, ha_state(3, gamma))
                expected = (1 - gamma**2 - lam * (2 + gamma**-2)) / (2 + gamma**2)
                assert abs(value - expected) <= 1e-12, (gamma, lam)

    _gate(4, "mu bound formula to 1e-12 inside the detection region", check)


def test_criterion_05_ppt_suite():
    def check():
        for d in (3, 4, 5):
            for gamma in GAMMA_GRID:
                pt = partial_transpose(ha_state(d, gamma), (False, True))
                _, spectrum = is_psd(pt)
                assert spectrum.min >= -1e-10, (d, gamma, spectrum.min)
        for d, k in ((3, 2), (4, 3)):
            ok, _ = is_psd(partial_transpose(witness_dk(d, k), (False, True)))
            assert ok, (d, k)

    _gate(5, "partial transposes: states PPT on the grid; k=d-1 witnesses PSD", check)


def test_criterion_06_closed_form_vs_scan():
    def check():
        rng = np.random.default_rng(606)
        sigma_choices = {
            d: [
                maximally_mixed(bipartite(d)),
                product_basis_state(bipartite(d), [0, 0]),
                ha_state(d, 1.0),
            ]
            for d in (3, 4)
        }
        for checked in range(20):
            d = int(rng.choice([3, 4]))
            k = int(rng.integers(1, d - 1))
            gamma = float(rng.uniform(0.2, 0.9))
            lam = float(rng.uniform(0.0, 0.03))
            w = perturbed_witness(d, k, lam)
            rho = ha_state(d, gamma)
            if checked % 2 == 0:
                choices = sigma_choices[d]
                sigma = choices[int(rng.integers(0, len(choices)))]
                value = alpha_threshold(w, rho, sigma)
                assert value is not None
                scanned = alpha_sign_scan(w.matrix, rho.matrix, sigma.matrix)
            else:
                p = (projector_p(d), projector_q(d), maximally_mixed(w.space))[
                    int(rng.integers(0, 3))
                ]
                value = lambda_threshold(w, p, rho)
                assert value is not None and math.isfinite(value)
                scanned = lambda_sign_scan(w.matrix, p.matrix, rho.matrix)
                assert scanned is not None
            assert abs(value - scanned) <= 1e-4, (checked, value, scanned)

    _gate(6, "alpha/lambda closed forms match 1e-5 sign scans to 1e-4 (20 pairs)", check)


def test_criterion_07_cj_round_trip():
    def check():
        rng = np.random.default_rng(707)
        for d in (3, 4):
            space = bipartite(d)
            for _ in range(25):
                op = HermitianOp(space, random_hermitian(rng, d * d))
                back = jamiolkowski(dejamiolkowski(op))
                assert np.abs(back.matrix - op.matrix).max() <= 1e-14
        for d in range(3, 21):
            for k in range(1, d):
                table = choi_map(d, k)
                assert np.array_equal(table.images, choi_map_formula(d, k))
                assert np.array_equal(jamiolkowski(table).matrix, witness_dk(d, k).matrix)

    _gate(
        7,
        "CJ round trip exact on 50 random operators; choi_map equals its formula, d = 3..20",
        check,
    )


def test_criterion_08_certificate_soundness():
    def check():
        w0 = witness_dk(3, 1)
        true_certs = []
        for gamma in GAMMA_GRID[:-1]:
            cert = certify_indecomposable(w0, ha_state(3, gamma), (False, True))
            assert cert.verdict, gamma
            true_certs.append(cert)
        boundary = certify_indecomposable(w0, ha_state(3, 1.0), (False, True))
        assert not boundary.verdict
        for cert in true_certs:
            assert revalidate(cert)

    _gate(8, "indecomposability certified for gamma < 1, refused at 1; evidence revalidates", check)


def test_criterion_09_blockpos_scan():
    def check():
        passing = blockpos_scan(witness_dk(3, 1), ScanConfig(restarts=100, seed=2718))
        assert passing.verdict
        assert passing.evidence["minimum"] >= -1e-8

        q = HermitianOp(bipartite(3), np.eye(9, dtype=complex) / 3)
        candidate = witness_from_difference(q, 2.0 * max_entangled_projector(3))
        violated = blockpos_scan(candidate, ScanConfig(restarts=100, seed=2718))
        assert not violated.verdict
        assert violated.evidence["minimum"] < -1e-2

        for cert in (passing, violated):
            assert cert.evidence["max_step_increase"] <= 1e-10
            for history in cert.evidence["histories"]:
                assert np.diff(np.asarray(history)).max() <= 1e-10

    _gate(9, "scan passes the witness, finds the Q-P violation, stays monotone", check)


def test_criterion_10_multipartite_reduction():
    def check():
        # certify_ppt on N = 2 and N = 3 product operators against explicit
        # Kronecker products with the flagged factors transposed
        rng = np.random.default_rng(1010)
        for dims in ((3, 3), (2, 2, 2)):
            n = len(dims)
            for _ in range(5):
                factors = [random_hermitian(rng, d) for d in dims]
                op = HermitianOp(TensorSpace(dims), kron_chain(factors, [False] * n))
                for pattern in range(2**n):
                    bits = [(pattern >> i) & 1 == 1 for i in range(n)]
                    expected = np.linalg.eigvalsh(kron_chain(factors, bits))
                    got = np.asarray(certify_ppt(op, bits).evidence["eigenvalues"])
                    assert np.abs(got - expected).max() <= 1e-12, (dims, bits)

        space = TensorSpace((2, 2, 2))
        for _ in range(10):
            op = HermitianOp(space, random_hermitian(rng, 8))
            for pattern in range(8):
                bits = tuple((pattern >> i) & 1 == 1 for i in range(3))
                twice = partial_transpose(partial_transpose(op, bits), bits)
                assert np.abs(twice.matrix - op.matrix).max() <= 1e-12

    _gate(10, "sigma-PPT spectra match explicit Kronecker products at N=2, 3; "
              "transpose is an involution", check)

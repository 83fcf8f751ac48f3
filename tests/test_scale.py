"""Verdicts that do not depend on the witness's scale.

A witness is only defined up to a positive factor, so every layer decides
detection by the relative rule Tr(W rho) < -DETECTION_RTOL ||W||_F ||rho||_F
(core.detection_threshold), and the PSD, Hermiticity and scan tolerances are
relative too. The repro tests pin inputs an absolute tolerance decided
wrongly; the property tests scale W by c in [1e-6, 1e6].
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewkit import (
    ScanConfig,
    alpha_threshold,
    bipartite,
    blockpos_scan,
    certify_atomic_conditional,
    certify_detection,
    certify_indecomposable,
    certify_ppt,
    chain_pair,
    convex_combination,
    ha_state,
    lambda_threshold,
    maximally_mixed,
    mu_threshold,
    product_basis_state,
    projector_p,
    projector_q,
    revalidate,
    sample_sppt,
    sample_wind,
    separable_catalog,
    sweep,
    trace_pair,
    witness_dk,
    write_operator,
)
from ewkit.certify import HA_SCHMIDT_ASSUMPTION
from ewkit.cli import main
from ewkit.core import HermitianOp, detection_threshold

from oracles import random_hermitian


def q_minus_p(d):
    return projector_q(d) - projector_p(d)


def local_unitary_witness(d, seed):
    """(U x V) W_{d,1} (U x V)^dag for seeded unitaries U, V: a complex witness."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            for _ in range(2))
    uv = np.kron(u, v)
    w = witness_dk(d, 1)
    return HermitianOp(w.space, uv @ w.matrix @ uv.conj().T)


def product_state(cert):
    """|xy><xy| of a blockpos certificate's stored product vector."""
    ev = cert.evidence
    x = np.array(ev["x_re"]) + 1j * np.array(ev["x_im"])
    y = np.array(ev["y_re"]) + 1j * np.array(ev["y_im"])
    v = np.kron(x, y)
    return HermitianOp(cert.operators["witness"].space, np.outer(v, v.conj()))


class TestRepros:
    """Inputs on which an absolute tolerance gave a scale-dependent verdict."""

    def test_separable_state_certifies_nothing_at_large_scale(self):
        # the round-off trace -2.2e-11 of the separable gamma = 1 state
        cert = certify_indecomposable(1e6 * witness_dk(6, 2), ha_state(6, 1.0), (0, 1))
        assert not cert.verdict
        assert revalidate(cert)

    def test_detection_kept_at_small_scale(self):
        assert certify_detection(1e-6 * witness_dk(3, 1), ha_state(3, 0.999999)).verdict

    def test_thresholds_kept_at_small_scale(self):
        w, rho = witness_dk(3, 1), ha_state(3, 0.9999999)
        sigma = maximally_mixed(bipartite(3))
        alpha = alpha_threshold(1e-6 * w, rho, sigma)
        assert alpha == pytest.approx(alpha_threshold(w, rho, sigma), rel=1e-9)
        lam = lambda_threshold(1e-6 * w, projector_p(3), rho)
        assert lam == pytest.approx(1e-6 * lambda_threshold(w, projector_p(3), rho), rel=1e-9)

    def test_scan_finds_violation_at_small_scale(self):
        assert not blockpos_scan(1e-9 * q_minus_p(3), ScanConfig(10, 30)).verdict

    def test_ccp_check_fails_at_small_scale(self):
        assert not certify_ppt(1e-11 * q_minus_p(3), (0, 1)).verdict

    def test_scan_revalidates_at_large_scale(self):
        config = ScanConfig(40, 30, 3)
        cert = blockpos_scan(1e6 * witness_dk(3, 1), config)
        assert revalidate(cert)
        unscaled = blockpos_scan(witness_dk(3, 1), config)
        assert cert.evidence["unconverged_restarts"] == unscaled.evidence["unconverged_restarts"]

    # round-off leaves Tr(W rho) an imaginary part -3.7e-9 at 1e8, far below
    # ||W||_F ||rho||_F but above an absolute 1e-10; at 1e-170 the squares in
    # ||W||_F underflow to 0 unless the norm is scaled
    @pytest.mark.parametrize("scale", [1e8, 1e-170])
    def test_trace_of_complex_operators_kept_at_any_scale(self, scale):
        w = HermitianOp(bipartite(3), random_hermitian(np.random.default_rng(0), 9))
        rng = np.random.default_rng(1)
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = HermitianOp(bipartite(3), g @ g.conj().T / np.trace(g @ g.conj().T).real)
        assert trace_pair(scale * w, rho) == pytest.approx(scale * trace_pair(w, rho),
                                                           rel=1e-12)

    # beyond about 1e154 (or below 1e-154) the squares in ||W||_F overflow to inf
    # (or underflow to 0), and the detection threshold with them
    def test_scan_passes_witness_at_tiny_scale(self):
        assert blockpos_scan(1e-200 * witness_dk(3, 1)).verdict

    def test_scan_finds_violation_at_huge_scale(self):
        assert not blockpos_scan(1e160 * q_minus_p(3)).verdict

    def test_detection_kept_at_huge_scale(self):
        assert certify_detection(1e160 * witness_dk(3, 1), ha_state(3, 0.5)).verdict

    def test_sweep_detects_at_huge_mu(self):
        # the Gram form of (1, lambda, mu) overflowed ||W||_F to inf, the threshold to -inf
        table = sweep(3, 1, [0.5], [0.0], [-1e200])
        assert table.trace[0, 0, 0] == pytest.approx(-2e199, rel=1e-12)
        assert table.detected[0, 0, 0]

    def test_sweep_does_not_detect_at_huge_lambda(self):
        table = sweep(3, 1, [0.5], [1e200], [0.0])
        assert table.trace[0, 0, 0] > 0
        assert not table.detected[0, 0, 0]

    def test_norm_keeps_its_digits_at_tiny_scale(self):
        norm = (1e-160 * witness_dk(3, 1)).norm()
        assert norm == pytest.approx(1e-160 * math.sqrt(12), rel=1e-15, abs=0)

    def test_detected_sigma_makes_mixing_line_inconsistent(self):
        t = 7.5e-10
        product = product_basis_state(bipartite(3), [0, 2])
        sigma = convex_combination([product, ha_state(3, 0.5)], [1 - t, t])
        w = witness_dk(3, 1)
        assert trace_pair(w, sigma) < 0
        assert certify_detection(w, sigma).verdict
        assert alpha_threshold(w, ha_state(3, 0.8), sigma) is None

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
    @pytest.mark.parametrize("make", [lambda d: witness_dk(d, 1), q_minus_p],
                             ids=["witness", "q_minus_p"])
    def test_scan_verdict_is_detection_of_its_product_state(self, make, scale):
        cert = blockpos_scan(scale * make(3), ScanConfig(10, 30))
        w = cert.operators["witness"]
        assert cert.verdict == (not certify_detection(w, product_state(cert)).verdict)
        assert cert.evidence["cutoff"] == detection_threshold(w.norm(), 1.0)


SCALES = st.floats(-6, 6).map(lambda e: 10.0**e)
POWERS_OF_TWO = st.integers(-19, 19).map(lambda e: 2.0**e)
DIMS = st.sampled_from([3, 4])
# detected below 1, not detected above: both sides, away from the boundary
GAMMAS = st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 2.0))
SEPARABLE = st.sampled_from(["maximally-mixed", "product-basis-0", "ha-gamma-1"])


def same_verdict(kind_of, w, c):
    return kind_of(c * w).verdict == kind_of(w).verdict


@settings(max_examples=30, deadline=None)
@given(c=SCALES, d=DIMS, gamma=GAMMAS)
def test_certificates_invariant_and_revalidate(c, d, gamma):
    w, rho = witness_dk(d, 1), ha_state(d, gamma)
    producers = [
        lambda x: certify_detection(x, rho),
        lambda x: certify_indecomposable(x, rho, (0, 1)),
        lambda x: certify_atomic_conditional(x, rho, HA_SCHMIDT_ASSUMPTION),
        lambda x: certify_ppt(x, (0, 1)),  # the ccp check of the witness
    ]
    for produce in producers:
        scaled = produce(c * w)
        assert scaled.verdict == produce(w).verdict
        assert revalidate(scaled)
    # the state's own PPT certificate, the state scaled
    ppt = certify_ppt(c * rho, (0, 1))
    assert ppt.verdict == certify_ppt(rho, (0, 1)).verdict and revalidate(ppt)


@settings(max_examples=30, deadline=None)
@given(c=st.one_of(SCALES, POWERS_OF_TWO), d=DIMS, violating=st.booleans(),
       seed=st.integers(0, 2**16))
def test_scan_invariant_and_revalidates(c, d, violating, seed):
    w = q_minus_p(d) if violating else witness_dk(d, 1)
    config = ScanConfig(restarts=5, max_iters=30, seed=seed)
    cert, scaled = blockpos_scan(w, config), blockpos_scan(c * w, config)
    assert scaled.verdict == cert.verdict == (not violating)
    assert revalidate(scaled)
    if math.frexp(c)[0] == 0.5:  # a power of two scales every float exactly
        assert scaled.evidence["histories"] == [
            [c * v for v in h] for h in cert.evidence["histories"]]
        for key in ("unconverged_restarts", "best_restart"):
            assert scaled.evidence[key] == cert.evidence[key]


def pair_output(w, rho):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / name) for name in ("w.json", "rho.json")]
        write_operator(paths[0], w)
        write_operator(paths[1], rho)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["pair", *paths]) == 0
    return out.getvalue().split("\n")[1]


@settings(max_examples=15, deadline=None)
@given(c=SCALES, d=DIMS, gamma=GAMMAS, rotation=st.one_of(st.none(), st.integers(0, 2**16)))
def test_pair_invariant(c, d, gamma, rotation):
    # rotation seeds a complex witness, whose trace has a round-off imaginary part
    w = witness_dk(d, 1) if rotation is None else local_unitary_witness(d, rotation)
    rho = ha_state(d, gamma)
    assert pair_output(c * w, rho) == pair_output(w, rho)


@settings(max_examples=30, deadline=None)
@given(c=SCALES, d=DIMS, gamma=GAMMAS,
       lams=st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=3),
       mus=st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=3))
def test_sweep_detected_is_detection_of_the_scaled_witness(c, d, gamma, lams, mus):
    table = sweep(d, 1, [gamma], lams, mus)
    w0, p, q, rho = witness_dk(d, 1), projector_p(d), projector_q(d), ha_state(d, gamma)
    for (i, lam), (j, mu) in ((a, b) for a in enumerate(lams) for b in enumerate(mus)):
        if abs(table.trace[0, i, j]) <= 1e-9:  # within round-off of the threshold
            continue
        w = HermitianOp(w0.space, c * (w0.matrix + lam * p.matrix + mu * q.matrix))
        assert table.detected[0, i, j] == certify_detection(w, rho).verdict


@settings(max_examples=30, deadline=None)
@given(c=SCALES, d=DIMS, gamma=GAMMAS, sep=SEPARABLE, frac=st.floats(0.05, 0.95))
def test_thresholds_and_samplers_scale(c, d, gamma, sep, frac):
    w0, p, q, rho = witness_dk(d, 1), projector_p(d), projector_q(d), ha_state(d, gamma)
    sigma = separable_catalog(bipartite(d))[sep]
    alpha = alpha_threshold(w0, rho, sigma)
    assert alpha_threshold(c * w0, rho, sigma) == pytest.approx(alpha, rel=1e-9)
    lam = lambda_threshold(w0, p, rho)
    scaled_lam = lambda_threshold(c * w0, p, rho)
    assert (scaled_lam is None) == (lam is None)
    chained, scaled_chained = chain_pair(w0, rho, sigma), chain_pair(c * w0, rho, sigma)
    assert (scaled_chained is None) == (chained is None)
    if lam is None:
        assert alpha is None
        assert mu_threshold(c * w0, p, q, 0.0, rho) is None
        return
    assert scaled_lam == pytest.approx(c * lam, rel=1e-9)
    at = frac * lam
    mu = mu_threshold(w0, p, q, at, rho)
    assert mu_threshold(c * w0, p, q, c * at, rho) == pytest.approx(c * mu, rel=1e-9)
    (state,) = sample_sppt(w0, rho, sigma, [frac * alpha])
    (scaled_state,) = sample_sppt(c * w0, rho, sigma, [frac * alpha])
    assert np.array_equal(scaled_state.matrix, state.matrix)
    assert np.allclose(scaled_chained[1].matrix, chained[1].matrix, rtol=0, atol=1e-12)
    (witness,) = sample_wind(c * w0, p, rho, [c * at])
    assert np.allclose(witness.matrix, c * (w0.matrix + at * p.matrix), rtol=1e-12, atol=0)

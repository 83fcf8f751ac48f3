"""Detection thresholds of a seed pair, and samplers of the sets they bound.

Given a witness and a state it detects, the trace pairing is affine along
the mixing line rho_alpha = (1-alpha) rho0 + alpha sigma_sep and along the
perturbation line W_lambda = W0 + lambda P, so the suprema keeping the
pairing negative come out in closed form. Scans exist only as test oracles.
The samplers take the pair in the argument order of their threshold
function (sample_sppt of alpha_threshold, sample_wind of lambda_threshold)
and compute the bound themselves.

Thresholds are EXCLUSIVE bounds: the underlying sets are open, and the
samplers reject parameters equal to the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import (
    _ha_parts,
    _ha_weights,
    convex_combination,
    ha_state,
    maximally_mixed,
    product_basis_state,
    projector_p,
    projector_q,
    witness_dk,
)
from .core import (
    HermitianOp,
    TensorSpace,
    _default_sigma,
    _require_psd,
    _scaled_norm,
    detection_threshold,
    is_psd,
    partial_transpose,
    trace_pair,
)

#: How far from one the traces of sample_sppt's rho0 and sigma_sep may be.
UNIT_TRACE_TOL = 1e-10


def _affine_root(t0: float, w_norm: float, x: HermitianOp, rho: HermitianOp) -> float | None:
    """Root -t0 / t1 of t0 + s t1, t1 = Tr(X rho): the supremum of s >= 0 keeping it negative.

    t0 pairs a witness of Frobenius norm w_norm with rho. None when t0 is not
    detected (empty supremum), math.inf when t1 is at most zero by the
    detection rule of (X, rho). t1 is read only once t0 is known to be detected.
    """
    if t0 >= detection_threshold(w_norm, rho.norm()):
        return None
    slope = trace_pair(x, rho)
    if slope <= -detection_threshold(x.norm(), rho.norm()):
        return math.inf
    return -t0 / slope


def alpha_threshold(
    w: HermitianOp, rho0: HermitianOp, sigma_sep: HermitianOp
) -> float | None:
    """Supremum of alpha in [0, 1] keeping Tr(W rho_alpha) < 0.

    Closed form -T0 / (-T0 + Ts) with T0 = Tr(W rho0) and Ts = Tr(W sigma).
    Returns None when W does not detect rho0 (empty supremum) or when the
    declared-separable sigma is itself detected by W, and 1.0 when Ts is
    zero by the detection rule (detection persists on all of [0, 1)).
    """
    t0 = trace_pair(w, rho0)
    if t0 >= detection_threshold(w.norm(), rho0.norm()):
        return None
    ts = trace_pair(w, sigma_sep)
    threshold = detection_threshold(w.norm(), sigma_sep.norm())
    if ts < threshold:
        return None
    return 1.0 if ts <= -threshold else -t0 / (ts - t0)


def lambda_threshold(
    w0: HermitianOp, p: HermitianOp, rho0: HermitianOp
) -> float | None:
    """Supremum of lambda >= 0 keeping Tr((W0 + lambda P) rho0) < 0.

    -Tr(W0 rho0) / Tr(P rho0); math.inf when P is supported in the kernel of
    rho0, None when W0 does not detect rho0. P has to be PSD.
    """
    _require_psd("P", *is_psd(p))
    return _affine_root(trace_pair(w0, rho0), w0.norm(), p, rho0)


def mu_threshold(
    w0: HermitianOp,
    p: HermitianOp,
    q: HermitianOp,
    lam: float,
    rho0: HermitianOp,
) -> float | None:
    """Supremum of mu keeping Tr((W0 + lambda P + mu Q) rho0) < 0.

    Same degenerate-case conventions as lambda_threshold; returns None when
    W0 + lambda P does not detect rho0, lambda at or above its own threshold.
    """
    if not math.isfinite(lam) or lam < 0:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    for name, op in (("P", p), ("Q", q)):
        _require_psd(name, *is_psd(op))
    t_lam = trace_pair(w0, rho0) + lam * trace_pair(p, rho0)
    return _affine_root(t_lam, _scaled_norm(w0.matrix + lam * p.matrix), q, rho0)


def sample_sppt(
    w: HermitianOp, rho0: HermitianOp, sigma_sep: HermitianOp, alphas: list[float]
) -> list[HermitianOp]:
    """States (1-alpha) rho0 + alpha sigma_sep for each alpha below alpha_threshold.

    The caller vouches that sigma_sep is separable by choosing it; the
    library cannot decide separability and only ships known separable states
    (see separable_catalog). rho0 and sigma_sep must have unit trace. Every
    returned state is verified to be detected (by detection_threshold, the
    rule certify_detection uses) and, on every space, PPT under the
    default sigma (the last factor transposed); a failure means the inputs
    were inconsistent and raises rather than returning a bad sample.
    """
    return _sample_sppt(w, rho0, sigma_sep, alphas, alpha_threshold(w, rho0, sigma_sep))


def _sample_sppt(
    w: HermitianOp, rho0: HermitianOp, sigma_sep: HermitianOp, alphas: list[float],
    threshold: float | None,
) -> list[HermitianOp]:
    """sample_sppt given its threshold, alpha_threshold(w, rho0, sigma_sep), solved once."""
    w._require_same_space(rho0)
    w._require_same_space(sigma_sep)
    for name, op in (("rho0", rho0), ("sigma_sep", sigma_sep)):
        if abs(op.trace() - 1.0) > UNIT_TRACE_TOL:
            raise ValueError(f"{name} must have unit trace, got {op.trace()!r}")
    if threshold is None:
        raise ValueError("the pair has no detection threshold; nothing to sample")
    out = []
    bits = _default_sigma(rho0.space)
    for alpha in alphas:
        if not 0.0 <= alpha < threshold:
            raise ValueError(
                f"alpha={alpha!r} outside the open interval [0, {threshold!r})"
            )
        rho = convex_combination([rho0, sigma_sep], [1.0 - alpha, alpha])
        if trace_pair(w, rho) >= detection_threshold(w.norm(), rho.norm()):
            raise ArithmeticError(f"sampled state at alpha={alpha!r} is not detected")
        ok, spectrum = is_psd(partial_transpose(rho, bits))
        if not ok:
            raise ArithmeticError(
                f"sampled state at alpha={alpha!r} is not PPT "
                f"(min eigenvalue {spectrum.min:.3e})"
            )
        out.append(rho)
    return out


def sample_wind(
    w0: HermitianOp, p: HermitianOp, rho0: HermitianOp, lambdas: list[float]
) -> list[HermitianOp]:
    """Witnesses W0 + lambda P for each lambda strictly below lambda_threshold.

    Every returned witness is verified to detect rho0 (by
    detection_threshold); a failure raises rather than returning a bad sample.
    """
    threshold = lambda_threshold(w0, p, rho0)
    if threshold is None:
        raise ValueError("the pair has no detection threshold; nothing to sample")
    out = []
    for lam in lambdas:
        if not (0.0 <= lam and lam < threshold):
            raise ValueError(
                f"lambda={lam!r} outside the open interval [0, {threshold!r})"
            )
        w = HermitianOp(w0.space, w0.matrix + lam * p.matrix)
        if trace_pair(w, rho0) >= detection_threshold(w.norm(), rho0.norm()):
            raise ArithmeticError(f"sampled witness at lambda={lam!r} lost detection")
        out.append(w)
    return out


def chain_pair(
    w_new: HermitianOp, rho0: HermitianOp, sigma_sep: HermitianOp
) -> tuple[HermitianOp, HermitianOp] | None:
    """Next seed pair (w_new, rho_alpha): sample_sppt at half of w_new's mixing bound.

    None when w_new does not detect rho0; raises as sample_sppt does when
    the mixed state is not detected or not PPT under the default sigma.
    """
    threshold = alpha_threshold(w_new, rho0, sigma_sep)
    if threshold is None:
        return None
    (rho,) = _sample_sppt(w_new, rho0, sigma_sep, [threshold / 2.0], threshold)
    return w_new, rho


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A detection sweep as columns over the (gamma, lambda, mu) grids.

    trace[g, l, m] = Tr((W0 + lambda_l P + mu_m Q) rho_gamma_g) and detected
    marks the traces below their detection_threshold. One row per grid point,
    gamma outer, lambda middle, mu inner. Tables compare and hash by identity.
    """

    gammas: tuple[float, ...]
    lams: tuple[float, ...]
    mus: tuple[float, ...]
    trace: np.ndarray
    detected: np.ndarray

    def __len__(self) -> int:
        return self.trace.size


def sweep(
    d: int,
    k: int,
    gamma_grid: list[float],
    lambda_grid: list[float],
    mu_grid: list[float],
) -> SweepTable:
    """Tabulate Tr((W0 + lambda P + mu Q) rho_gamma) over the grids.

    rho_gamma = (R1 + (a_gamma - 1) Ra + (b_gamma - 1) Rb) / n_gamma for three
    fixed operators (construct._ha_parts), so the nine traces of W0, P and Q
    against R1, Ra and Rb give the (G, 3) base traces of every gamma in one
    broadcast, and the pairing, affine in (lambda, mu), is one broadcast of
    t0 + lambda tp + mu tq. The squared Frobenius norms the detection rule
    reads are quadratic forms in the same coefficients, of the Gram matrices
    of (W0, P, Q) and (R1, Ra, Rb); no operator is built per row or gamma.
    Each (lambda, mu) row's coefficients are scaled by max(1, |lambda|, |mu|)
    before the form is taken, so ||W||_F overflows only beyond the float range.
    The nine traces are sums of small integers, hence exact, so every gamma =
    1 row at lambda = mu = 0 is exactly 0.0. Raises ValueError naming the
    first gamma that is not finite and > 0, and FloatingPointError where
    gamma^2 or gamma^-2 overflows.
    """
    ops = [x.matrix for x in (witness_dk(d, k), projector_p(d), projector_q(d))]
    mats = [*ops, *_ha_parts(d)]  # W0, P, Q, R1, Ra, Rb
    gram = np.array([[np.vdot(y, x) for x in mats] for y in mats]).real  # Tr(M_x M_y)
    t1, ta, tb = gram[3:, None, :3]  # Tr(X R), X in (W0, P, Q): a (1, 3) row per R
    with np.errstate(over="raise"):
        a, b, n = (v[:, None] for v in _ha_weights(d, np.array(gamma_grid, dtype=float)))
        base = (t1 + (a - 1) * ta + (b - 1) * tb) / n  # (G, 3)
        rho_coef = np.hstack([np.ones_like(a), a - 1, b - 1]) / n  # (G, 3)
    t0, tp, tq = base.T[:, :, None, None]  # each (G, 1, 1)
    lam = np.array(lambda_grid, dtype=float)[:, None]  # (L, 1)
    mu = np.array(mu_grid, dtype=float)  # (M,)
    # the per-point float operations, in the order the scalar sum takes them
    trace = (t0 + lam * tp) + mu * tq
    # c ||W / c||_F with c = max(1, |lambda|, |mu|) per row, so no square overflows;
    # at c = 1 both the division and the product are exact
    c = np.maximum(1.0, np.maximum(np.abs(lam), np.abs(mu)))  # (L, M)
    w_coef = np.stack(np.broadcast_arrays(1.0, lam, mu), axis=-1) / c[..., None]  # (L, M, 3)
    w_norm = c * np.sqrt(np.einsum("lmx,xy,lmy->lm", w_coef, gram[:3, :3], w_coef))
    rho_norm = np.sqrt(np.einsum("gx,xy,gy->g", rho_coef, gram[3:, 3:], rho_coef))
    detected = trace < detection_threshold(w_norm, rho_norm[:, None, None])
    for column in (trace, detected):
        column.setflags(write=False)
    return SweepTable(tuple(gamma_grid), tuple(lambda_grid), tuple(mu_grid), trace, detected)


def separable_catalog(space: TensorSpace) -> dict[str, HermitianOp]:
    """Known separable states for building mixing families.

    The maximally mixed state, the computational product basis states, and
    (on d x d spaces with d >= 3) the gamma = 1 member of the Ha family,
    which is known to be separable.
    """
    catalog: dict[str, HermitianOp] = {"maximally-mixed": maximally_mixed(space)}
    first = [0] * space.nparts
    catalog["product-basis-0"] = product_basis_state(space, first)
    last = [d - 1 for d in space.dims]
    catalog["product-basis-max"] = product_basis_state(space, last)
    if space.nparts == 2 and space.dims[0] == space.dims[1] and space.dims[0] >= 3:
        catalog["ha-gamma-1"] = ha_state(space.dims[0], 1.0)
    return catalog

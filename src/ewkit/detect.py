"""Detection thresholds and the families they bound.

Given a witness and a state it detects, the trace pairing is affine along
the mixing line rho_alpha = (1-alpha) rho0 + alpha sigma_sep and along the
perturbation line W_lambda = W0 + lambda P, so the suprema keeping the
pairing negative come out in closed form. Scans exist only as test oracles.

Thresholds are EXCLUSIVE bounds: the underlying sets are open, and the
samplers reject parameters equal to the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import (
    ha_state,
    maximally_mixed,
    product_basis_state,
    projector_p,
    projector_q,
    witness_dk,
)
from .core import (
    DETECTION_TOL,
    HermitianOp,
    TensorSpace,
    is_psd,
    partial_transpose,
    trace_pair,
)

#: Absolute floor below which a denominator trace counts as zero.
TOLERANCE_ZERO = 1e-12


def alpha_threshold(
    w: HermitianOp, rho0: HermitianOp, sigma_sep: HermitianOp
) -> float | None:
    """Supremum of alpha in [0, 1] keeping Tr(W rho_alpha) < 0.

    Closed form -T0 / (-T0 + Ts) with T0 = Tr(W rho0) and Ts = Tr(W sigma).
    Returns None when W does not detect rho0 (empty supremum) or when the
    declared-separable sigma is itself detected by W, and 1.0 when sigma is
    supported in the kernel of W (detection persists on all of [0, 1)).
    """
    t0 = trace_pair(w, rho0)
    if t0 >= DETECTION_TOL:
        return None
    ts = trace_pair(w, sigma_sep)
    if ts < -1e-10:
        return None
    if ts <= TOLERANCE_ZERO:
        return 1.0
    return -t0 / (-t0 + ts)


def lambda_threshold(
    w0: HermitianOp, p: HermitianOp, rho0: HermitianOp
) -> float | None:
    """Supremum of lambda >= 0 keeping Tr((W0 + lambda P) rho0) < 0.

    -Tr(W0 rho0) / Tr(P rho0); math.inf when P is supported in the kernel of
    rho0, None when W0 does not detect rho0. P must be PSD.
    """
    ok, spectrum = is_psd(p)
    if not ok:
        raise ValueError(f"P must be PSD; min eigenvalue {spectrum.min:.3e}")
    t0 = trace_pair(w0, rho0)
    if t0 >= DETECTION_TOL:
        return None
    tp = trace_pair(p, rho0)
    if tp <= TOLERANCE_ZERO:
        return math.inf
    return -t0 / tp


def mu_threshold(
    w0: HermitianOp,
    p: HermitianOp,
    q: HermitianOp,
    lam: float,
    rho0: HermitianOp,
) -> float | None:
    """Supremum of mu keeping Tr((W0 + lambda P + mu Q) rho0) < 0.

    Same degenerate-case conventions as lambda_threshold; returns None when
    lambda already sits at or above its own threshold.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    for name, op in (("P", p), ("Q", q)):
        ok, spectrum = is_psd(op)
        if not ok:
            raise ValueError(f"{name} must be PSD; min eigenvalue {spectrum.min:.3e}")
    t_lam = trace_pair(w0, rho0) + lam * trace_pair(p, rho0)
    if t_lam >= DETECTION_TOL:
        return None
    tq = trace_pair(q, rho0)
    if tq <= TOLERANCE_ZERO:
        return math.inf
    return -t_lam / tq


@dataclass(frozen=True)
class MixingFamily:
    """The states (1-alpha) rho0 + alpha sigma_sep below the detection threshold.

    sigma_declared_separable records the caller's claim; the library cannot
    decide separability and only ships pre-flagged defaults (see
    separable_catalog).
    """

    witness: HermitianOp
    rho0: HermitianOp
    sigma_sep: HermitianOp
    sigma_declared_separable: bool
    alpha_threshold: float | None


def mixing_family(
    w: HermitianOp,
    rho0: HermitianOp,
    sigma_sep: HermitianOp,
    *,
    declared_separable: bool = True,
) -> MixingFamily:
    w._require_same_space(rho0)
    w._require_same_space(sigma_sep)
    for name, op in (("rho0", rho0), ("sigma_sep", sigma_sep)):
        if abs(op.trace() - 1.0) > 1e-10:
            raise ValueError(f"{name} must have unit trace, got {op.trace()!r}")
    return MixingFamily(
        witness=w,
        rho0=rho0,
        sigma_sep=sigma_sep,
        sigma_declared_separable=declared_separable,
        alpha_threshold=alpha_threshold(w, rho0, sigma_sep),
    )


@dataclass(frozen=True)
class PerturbationFamily:
    """The witnesses W0 + lambda P below the detection threshold for rho0."""

    w0: HermitianOp
    p: HermitianOp
    rho0: HermitianOp
    lambda_threshold: float | None


def perturbation_family(
    w0: HermitianOp, p: HermitianOp, rho0: HermitianOp
) -> PerturbationFamily:
    w0._require_same_space(p)
    w0._require_same_space(rho0)
    return PerturbationFamily(
        w0=w0, p=p, rho0=rho0, lambda_threshold=lambda_threshold(w0, p, rho0)
    )


def _mix(rho0: HermitianOp, sigma: HermitianOp, alpha: float) -> HermitianOp:
    return HermitianOp(
        rho0.space, (1.0 - alpha) * rho0.matrix + alpha * sigma.matrix
    )


def sample_sppt(family: MixingFamily, alphas: list[float]) -> list[HermitianOp]:
    """States rho_alpha for each alpha strictly below the family threshold.

    Every returned state is verified to be detected (trace < 0) and, on
    bipartite spaces, PPT; a failure means the family inputs were
    inconsistent and raises rather than returning a bad sample.
    """
    threshold = family.alpha_threshold
    if threshold is None:
        raise ValueError("family has no detection threshold; nothing to sample")
    out = []
    bits = _last_factor_sigma(family.rho0.space)
    for alpha in alphas:
        if not 0.0 <= alpha < threshold:
            raise ValueError(
                f"alpha={alpha!r} outside the open interval [0, {threshold!r})"
            )
        rho = _mix(family.rho0, family.sigma_sep, alpha)
        if trace_pair(family.witness, rho) >= 0:
            raise ArithmeticError(f"sampled state at alpha={alpha!r} is not detected")
        if family.rho0.space.nparts == 2:
            ok, spectrum = is_psd(partial_transpose(rho, bits))
            if not ok:
                raise ArithmeticError(
                    f"sampled state at alpha={alpha!r} is not PPT "
                    f"(min eigenvalue {spectrum.min:.3e})"
                )
        out.append(rho)
    return out


def sample_wind(family: PerturbationFamily, lambdas: list[float]) -> list[HermitianOp]:
    """Witnesses W0 + lambda P for each lambda strictly below the threshold."""
    threshold = family.lambda_threshold
    if threshold is None:
        raise ValueError("family has no detection threshold; nothing to sample")
    out = []
    for lam in lambdas:
        if not (0.0 <= lam and lam < threshold):
            raise ValueError(
                f"lambda={lam!r} outside the open interval [0, {threshold!r})"
            )
        w = HermitianOp(family.w0.space, family.w0.matrix + lam * family.p.matrix)
        if trace_pair(w, family.rho0) >= 0:
            raise ArithmeticError(f"sampled witness at lambda={lam!r} lost detection")
        out.append(w)
    return out


def chain_pair(
    w_new: HermitianOp, family: MixingFamily
) -> tuple[HermitianOp, HermitianOp] | None:
    """Next seed pair (w_new, rho_alpha) with alpha at half the mixing bound.

    None when w_new does not detect the family's rho0.
    """
    threshold = alpha_threshold(w_new, family.rho0, family.sigma_sep)
    if threshold is None:
        return None
    rho = _mix(family.rho0, family.sigma_sep, threshold / 2.0)
    return w_new, rho


def _last_factor_sigma(space: TensorSpace) -> tuple[bool, ...]:
    return tuple(i == space.nparts - 1 for i in range(space.nparts))


@dataclass(frozen=True)
class SweepTable:
    """A detection sweep as columns over the (gamma, lambda, mu) grids.

    trace[g, l, m] = Tr((W0 + lambda_l P + mu_m Q) rho_gamma_g) and detected
    marks trace < DETECTION_TOL. One row per grid point, gamma outer, lambda
    middle, mu inner.
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

    The pairing is affine in (lambda, mu), so per gamma only the three base
    traces are computed; the grid is one broadcast of t0 + lambda tp + mu tq.
    """
    w0 = witness_dk(d, k)
    p = projector_p(d)
    q = projector_q(d)
    base = np.empty((len(gamma_grid), 3))
    for i, gamma in enumerate(gamma_grid):
        rho = ha_state(d, gamma)
        base[i] = trace_pair(w0, rho), trace_pair(p, rho), trace_pair(q, rho)
    t0, tp, tq = base.T[:, :, None, None]  # each (G, 1, 1)
    lam = np.array(lambda_grid, dtype=float)[:, None]  # (L, 1)
    mu = np.array(mu_grid, dtype=float)  # (M,)
    # the per-point float operations, in the order the scalar sum takes them
    trace = (t0 + lam * tp) + mu * tq
    detected = trace < DETECTION_TOL
    for column in (trace, detected):
        column.setflags(write=False)
    return SweepTable(tuple(gamma_grid), tuple(lambda_grid), tuple(mu_grid), trace, detected)


def separable_catalog(space: TensorSpace) -> dict[str, HermitianOp]:
    """Pre-flagged separable states for building mixing families.

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

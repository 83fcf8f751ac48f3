"""Independent oracles the library paths are checked against.

These deliberately avoid the code paths under test: partial transposes are
rebuilt from explicit Kronecker products, thresholds come from brute-force
sign scans of traces evaluated on explicitly mixed matrices, product
minima come from a dense grid over real product vectors, and the sweep and
Ha-state kernels are checked against their per-row and per-block loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ewkit import (
    HermitianOp,
    StateFamilyParams,
    bipartite,
    matrix_unit,
    projector_p,
    projector_q,
    trace_pair,
    witness_dk,
)
from ewkit.core import DETECTION_TOL


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


def kron_chain(factors: list[np.ndarray], transpose_flags: list[bool]) -> np.ndarray:
    """Tensor product of the factors, transposing the flagged ones."""
    out = np.array([[1.0 + 0j]])
    for m, flag in zip(factors, transpose_flags):
        out = np.kron(out, m.T if flag else m)
    return out


def pair_trace(w: np.ndarray, rho: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", w, rho).real)


def alpha_sign_scan(
    w: np.ndarray, rho0: np.ndarray, sigma: np.ndarray, step: float = 1e-5
) -> float:
    """Smallest grid alpha where Tr(W rho_alpha) >= 0, to resolution `step`.

    Each probed point mixes the matrices explicitly and takes the full
    matrix trace. The trace is affine in alpha, so a coarse bracket followed
    by a fine scan inside it finds the same grid point as a full sweep.
    """

    def value(alpha: float) -> float:
        mixed = (1.0 - alpha) * rho0 + alpha * sigma
        return pair_trace(w, mixed)

    if value(0.0) >= 0:
        return 0.0
    coarse = 1e-3
    lo = 0.0
    alpha = coarse
    while alpha <= 1.0 + 1e-12:
        if value(alpha) >= 0:
            break
        lo = alpha
        alpha += coarse
    else:
        return 1.0
    fine = np.arange(lo, min(alpha, 1.0) + step, step)
    for a in fine:
        if value(float(a)) >= 0:
            return float(a)
    return 1.0


def lambda_sign_scan(
    w0: np.ndarray,
    p: np.ndarray,
    rho0: np.ndarray,
    step: float = 1e-5,
    cap: float = 1e3,
) -> float | None:
    """Smallest grid lambda where Tr((W0 + lambda P) rho0) >= 0.

    None when the trace stays negative up to the cap (threshold effectively
    infinite for test purposes).
    """

    def value(lam: float) -> float:
        return pair_trace(w0 + lam * p, rho0)

    if value(0.0) >= 0:
        return 0.0
    coarse = max(step * 100, 1e-3)
    lo = 0.0
    lam = coarse
    while lam <= cap:
        if value(lam) >= 0:
            break
        lo = lam
        lam += coarse
    else:
        return None
    fine = np.arange(lo, lam + step, step)
    for x in fine:
        if value(float(x)) >= 0:
            return float(x)
    return None


def product_grid_minimum(w: np.ndarray, d1: int, d2: int, points: int = 24) -> float:
    """Minimum of <x*y|W|x*y> over a dense grid of REAL product vectors.

    Coarse but unbiased: no information from the scan under test is used.
    Only meaningful for operators whose product minimum is attained on real
    vectors (true for the real test matrices this backs up).
    """
    w4 = w.reshape(d1, d2, d1, d2)

    def sphere(d: int) -> np.ndarray:
        if d == 3:
            theta = np.linspace(0.0, np.pi, points)
            phi = np.linspace(0.0, 2 * np.pi, 2 * points, endpoint=False)
            t, p = np.meshgrid(theta, phi, indexing="ij")
            return np.stack(
                [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1
            ).reshape(-1, 3)
        raise ValueError("grid oracle implemented for d = 3 only")

    xs = sphere(d1)
    ys = sphere(d2)
    values = np.einsum("ai,bj,ijkl,ak,bl->ab", xs, ys, w4.real, xs, ys)
    return float(values.min())


def ha_state_blocks(d: int, gamma: float) -> HermitianOp:
    """The Ha state assembled block by block: shifted diagonals and the comb."""
    params = StateFamilyParams(d, gamma)
    a, b, n = params.a_gamma, params.b_gamma, params.n_gamma
    base = np.zeros(d, dtype=complex)
    base[0] = 1.0
    base[1] = a
    base[2 : d - 1] = 1.0
    base[d - 1] = b
    rho = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if i == j:
                block = np.diag(np.roll(base, i))
            else:
                block = matrix_unit(d, i, j)
            rho[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
    return HermitianOp(bipartite(d), rho / n)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a detection sweep."""

    gamma: float | None
    lam: float | None
    mu: float | None
    alpha: float | None
    trace_value: float
    detected: bool


def sweep_rows(
    d: int, k: int, gamma_grid: list[float], lambda_grid: list[float], mu_grid: list[float]
) -> list[SweepRow]:
    """The sweep one row at a time, gamma outer, lambda middle, mu inner."""
    w0 = witness_dk(d, k)
    p = projector_p(d)
    q = projector_q(d)
    rows = []
    for gamma in gamma_grid:
        rho = ha_state_blocks(d, gamma)
        t0 = trace_pair(w0, rho)
        tp = trace_pair(p, rho)
        tq = trace_pair(q, rho)
        for lam in lambda_grid:
            for mu in mu_grid:
                value = t0 + lam * tp + mu * tq
                rows.append(
                    SweepRow(
                        gamma=gamma,
                        lam=lam,
                        mu=mu,
                        alpha=None,
                        trace_value=value,
                        detected=value < DETECTION_TOL,
                    )
                )
    return rows


def _csv_cell(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def sweep_rows_csv(rows: list[SweepRow]) -> str:
    """CSV text of the rows, one cell at a time."""
    lines = ["gamma,lambda,mu,alpha,trace,detected"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    _csv_cell(row.gamma),
                    _csv_cell(row.lam),
                    _csv_cell(row.mu),
                    _csv_cell(row.alpha),
                    _csv_cell(row.trace_value),
                    "true" if row.detected else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"

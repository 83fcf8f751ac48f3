"""Machine-checkable certificates.

A certificate bundles a verdict with the numeric evidence that produced it
and keeps the operators involved so the inequalities can be recomputed at
any time (revalidate). Indecomposability and atomicity are
sufficient-condition certificates: a False verdict means "not certified",
never "decomposable" or "not atomic". Mixed-state Schmidt numbers are never
computed; atomicity certificates carry the relied-upon external bound as a
recorded assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .core import (
    DETECTION_TOL,
    HermitianOp,
    PSD_RTOL,
    TensorSpace,
    is_psd,
    partial_transpose,
    trace_pair,
)

#: Product-state values below this cutoff count as genuine block-positivity
#: violations rather than round-off.
NEGATIVITY_CUTOFF = -1e-8

#: Default external fact recorded by atomicity certificates for the Ha family.
HA_SCHMIDT_ASSUMPTION = (
    "SN(rho_gamma) <= 2 and SN((1 x T) rho_gamma) <= 2, per Ha's analysis of "
    "this state family (cited result; not verified by this toolkit)"
)


@dataclass(frozen=True)
class Certificate:
    """Verdict plus the numbers behind it.

    evidence holds plain JSON-compatible scalars and lists; assumptions list
    the external facts the verdict is conditional on (empty for the purely
    numeric kinds "ppt" and "detection"); operators keeps the inputs so
    revalidate() can recompute every inequality.
    """

    kind: str
    verdict: bool
    evidence: dict[str, Any]
    assumptions: tuple[str, ...] = ()
    operators: dict[str, HermitianOp] = field(default_factory=dict, repr=False)


@dataclass(frozen=True)
class ScanConfig:
    """Knobs of the block-positivity scan."""

    restarts: int = 100
    max_iters: int = 500
    conv_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")
        if self.conv_tol <= 0:
            raise ValueError("conv_tol must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def _sigma_bits(sigma: Sequence[bool]) -> list[int]:
    return [int(bool(b)) for b in sigma]


def certify_ppt(rho: HermitianOp, sigma: Sequence[bool]) -> Certificate:
    """Positivity of the partial transpose, with the spectrum as evidence."""
    pt = partial_transpose(rho, sigma)
    ok, spectrum = is_psd(pt)
    scale = max(1.0, float(np.abs(spectrum.eigenvalues).max()))
    evidence = {
        "min_eigenvalue": spectrum.min,
        "eigenvalues": [float(x) for x in spectrum.eigenvalues],
        "tolerance": PSD_RTOL * scale,
        "sigma": _sigma_bits(sigma),
    }
    return Certificate("ppt", ok, evidence, operators={"rho": rho})


def certify_detection(w: HermitianOp, rho: HermitianOp) -> Certificate:
    """Tr(W rho) < 0 beyond tolerance: rho is detected by W."""
    value = trace_pair(w, rho)
    evidence = {"trace": value, "trace_threshold": DETECTION_TOL}
    return Certificate(
        "detection",
        value < DETECTION_TOL,
        evidence,
        operators={"witness": w, "rho": rho},
    )


def certify_indecomposable(
    w: HermitianOp, rho: HermitianOp, sigma: Sequence[bool]
) -> Certificate:
    """W detects a sigma-PPT state, so W cannot be sigma-decomposable.

    Sufficient condition only: verdict False means the pair fails to certify,
    not that W is decomposable.
    """
    w._require_same_space(rho)
    ppt = certify_ppt(rho, sigma)
    value = trace_pair(w, rho)
    verdict = bool(ppt.verdict) and value < DETECTION_TOL
    evidence = {
        "trace": value,
        "trace_threshold": DETECTION_TOL,
        "ppt_min_eigenvalue": ppt.evidence["min_eigenvalue"],
        "ppt_tolerance": ppt.evidence["tolerance"],
        "sigma": _sigma_bits(sigma),
    }
    return Certificate(
        "indecomposable", verdict, evidence, operators={"witness": w, "rho": rho}
    )


def certify_atomic_conditional(
    w: HermitianOp, rho: HermitianOp, assumption: str
) -> Certificate:
    """Detection certificate plus a recorded Schmidt-number assumption.

    The toolkit never verifies mixed-state Schmidt numbers; the verdict is
    conditional on the stated external fact.
    """
    if not assumption:
        raise ValueError("an explicit assumption string is required")
    value = trace_pair(w, rho)
    evidence = {"trace": value, "trace_threshold": DETECTION_TOL}
    return Certificate(
        "atomic-conditional",
        value < DETECTION_TOL,
        evidence,
        assumptions=(assumption,),
        operators={"witness": w, "rho": rho},
    )


def certify_completely_copositive(w: HermitianOp) -> Certificate:
    """PSD partial transpose on a bipartite space (complete copositivity)."""
    if w.space.nparts != 2:
        raise ValueError(f"expected a bipartite space, got {w.space.dims}")
    pt = partial_transpose(w, (False, True))
    ok, spectrum = is_psd(pt)
    scale = max(1.0, float(np.abs(spectrum.eigenvalues).max()))
    evidence = {
        "min_eigenvalue": spectrum.min,
        "eigenvalues": [float(x) for x in spectrum.eigenvalues],
        "tolerance": PSD_RTOL * scale,
        "sigma": [0, 1],
    }
    return Certificate("ccp", ok, evidence, operators={"witness": w})


def schmidt_rank(vec: np.ndarray, space: TensorSpace, tol: float = 1e-10) -> int:
    """Schmidt rank of a unit vector on a bipartite space.

    Counts the singular values of the d1 x d2 reshaping above
    tol * (largest singular value).
    """
    if space.nparts != 2:
        raise ValueError(f"expected a bipartite space, got {space.dims}")
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.size != space.total:
        raise ValueError(f"vector length {v.size} != space dimension {space.total}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"vector must be unit length, got norm {norm!r}")
    singular = np.linalg.svd(v.reshape(space.dims), compute_uv=False)
    return int(np.count_nonzero(singular > tol * singular[0]))


def _haar_product_start(
    seed: int, restart: int, d1: int, d2: int
) -> tuple[np.ndarray, np.ndarray]:
    # Seeding from (seed, restart) keeps restarts reproducible and
    # order-independent.
    rng = np.random.default_rng([seed, restart])
    x = rng.standard_normal(d1) + 1j * rng.standard_normal(d1)
    y = rng.standard_normal(d2) + 1j * rng.standard_normal(d2)
    return x / np.linalg.norm(x), y / np.linalg.norm(y)


def _min_eigvec(m: np.ndarray) -> tuple[float, np.ndarray]:
    m = (m + m.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(m)
    return float(eigvals[0]), eigvecs[:, 0]


def blockpos_scan(w: HermitianOp, config: ScanConfig = ScanConfig()) -> Certificate:
    """Heuristic minimum of <x * y| W |x * y> over product vectors.

    Alternating minimization: with y fixed, the objective is a Hermitian
    quadratic form in x whose minimizer is the bottom eigenvector of the
    contracted d1 x d1 matrix; symmetrically for y. Each restart begins from
    a Haar-random product vector derived from (seed, restart index).

    Verdict True means no product vector below NEGATIVITY_CUTOFF was found
    (heuristic pass); False exhibits a violating product vector, which
    certifies that W is NOT block positive. The objective is non-increasing
    across alternating steps; per-restart histories are kept as evidence.
    """
    if w.space.nparts != 2:
        raise ValueError(f"expected a bipartite space, got {w.space.dims}")
    d1, d2 = w.space.dims
    w4 = w.matrix.reshape(d1, d2, d1, d2)

    def value(x: np.ndarray, y: np.ndarray) -> float:
        return float(
            np.einsum("i,j,ijkl,k,l->", x.conj(), y.conj(), w4, x, y).real
        )

    best_value = math.inf
    best_vectors: tuple[np.ndarray, np.ndarray] | None = None
    best_restart = -1
    histories: list[list[float]] = []
    for restart in range(config.restarts):
        x, y = _haar_product_start(config.seed, restart, d1, d2)
        history = [value(x, y)]
        for _ in range(config.max_iters):
            contracted_x = np.einsum("j,ijkl,l->ik", y.conj(), w4, y)
            val_x, x = _min_eigvec(contracted_x)
            history.append(val_x)
            contracted_y = np.einsum("i,ijkl,k->jl", x.conj(), w4, x)
            val_y, y = _min_eigvec(contracted_y)
            history.append(val_y)
            if abs(history[-3] - history[-1]) <= config.conv_tol * max(
                1.0, abs(history[-1])
            ):
                break
        histories.append(history)
        if history[-1] < best_value:
            best_value = history[-1]
            best_vectors = (x, y)
            best_restart = restart
    assert best_vectors is not None
    x, y = best_vectors
    max_step_increase = max(
        (h[i + 1] - h[i] for h in histories for i in range(len(h) - 1)),
        default=0.0,
    )
    evidence = {
        "minimum": best_value,
        "product_value": value(x, y),
        "cutoff": NEGATIVITY_CUTOFF,
        "restarts": config.restarts,
        "max_iters": config.max_iters,
        "conv_tol": config.conv_tol,
        "seed": config.seed,
        "best_restart": best_restart,
        "x_re": [float(v) for v in x.real],
        "x_im": [float(v) for v in x.imag],
        "y_re": [float(v) for v in y.real],
        "y_im": [float(v) for v in y.imag],
        "histories": [[float(v) for v in h] for h in histories],
        "max_step_increase": float(max_step_increase),
    }
    return Certificate(
        "blockpos-scan",
        best_value >= NEGATIVITY_CUTOFF,
        evidence,
        operators={"witness": w},
    )


def _recheck_psd_kind(cert: Certificate, op: HermitianOp) -> bool:
    bits = tuple(bool(b) for b in cert.evidence["sigma"])
    ok, spectrum = is_psd(partial_transpose(op, bits))
    return (
        ok == cert.verdict
        and abs(spectrum.min - cert.evidence["min_eigenvalue"]) <= 1e-9
    )


def revalidate(cert: Certificate) -> bool:
    """Recompute every inequality in the certificate from its stored operators."""
    kind = cert.kind
    if kind == "ppt":
        return _recheck_psd_kind(cert, cert.operators["rho"])
    if kind == "ccp":
        return _recheck_psd_kind(cert, cert.operators["witness"])
    if kind in ("detection", "atomic-conditional"):
        value = trace_pair(cert.operators["witness"], cert.operators["rho"])
        return (
            abs(value - cert.evidence["trace"]) <= 1e-12
            and (value < cert.evidence["trace_threshold"]) == cert.verdict
        )
    if kind == "indecomposable":
        w = cert.operators["witness"]
        rho = cert.operators["rho"]
        value = trace_pair(w, rho)
        bits = tuple(bool(b) for b in cert.evidence["sigma"])
        ok, spectrum = is_psd(partial_transpose(rho, bits))
        return (
            abs(value - cert.evidence["trace"]) <= 1e-12
            and abs(spectrum.min - cert.evidence["ppt_min_eigenvalue"]) <= 1e-9
            and (ok and value < cert.evidence["trace_threshold"]) == cert.verdict
        )
    if kind == "blockpos-scan":
        w = cert.operators["witness"]
        d1, d2 = w.space.dims
        x = np.array(cert.evidence["x_re"]) + 1j * np.array(cert.evidence["x_im"])
        y = np.array(cert.evidence["y_re"]) + 1j * np.array(cert.evidence["y_im"])
        vec = np.kron(x, y)
        product_value = float((vec.conj() @ w.matrix @ vec).real)
        return (
            abs(product_value - cert.evidence["product_value"]) <= 1e-10
            and (cert.evidence["minimum"] >= cert.evidence["cutoff"]) == cert.verdict
        )
    raise ValueError(f"unknown certificate kind {kind!r}")

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

from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from .core import (
    HermitianOp,
    TensorSpace,
    detection_threshold,
    is_psd,
    partial_transpose,
    trace_pair,
)

#: A scan restart stops once a step moves its objective by at most this times ||W||_F.
SCAN_CONV_TOL = 1e-12

#: Largest distance revalidate() accepts between a stored evidence float and
#: the value its producer recomputes, by evidence key ("default" for the
#: traces and every key not named). Lists are compared entry by entry, and a
#: blockpos "minimum" with its recomputed product value relative to ||W||_F.
REVALIDATE_TOL: dict[str, float] = {
    "default": 1e-12,
    "min_eigenvalue": 1e-9,
    "ppt_min_eigenvalue": 1e-9,
    "eigenvalues": 1e-9,
    "product_value": 1e-10,
    "minimum": 1e-10,
}

#: schmidt_rank counts singular values above this fraction of the largest.
SCHMIDT_SV_RTOL = 1e-10

#: How far from one the norm of a vector given to schmidt_rank may be.
UNIT_NORM_TOL = 1e-10

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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def _sigma_bits(sigma: Sequence[bool]) -> list[int]:
    return [int(bool(b)) for b in sigma]


def certify_ppt(rho: HermitianOp, sigma: Sequence[bool]) -> Certificate:
    """Positivity of the partial transpose, with the spectrum as evidence."""
    pt = partial_transpose(rho, sigma)
    ok, spectrum = is_psd(pt)
    evidence = {
        "min_eigenvalue": spectrum.min,
        "eigenvalues": [float(x) for x in spectrum.eigenvalues],
        "tolerance": spectrum.psd_tolerance,
        "sigma": _sigma_bits(sigma),
    }
    return Certificate("ppt", ok, evidence, operators={"rho": rho})


def certify_detection(w: HermitianOp, rho: HermitianOp) -> Certificate:
    """Tr(W rho) below detection_threshold(||W||_F, ||rho||_F): rho is detected by W."""
    value = trace_pair(w, rho)
    evidence = {"trace": value, "trace_threshold": detection_threshold(w.norm(), rho.norm())}
    return Certificate(
        "detection",
        value < evidence["trace_threshold"],
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
    detection = certify_detection(w, rho)
    evidence = {
        **detection.evidence,
        "ppt_min_eigenvalue": ppt.evidence["min_eigenvalue"],
        "ppt_tolerance": ppt.evidence["tolerance"],
        "sigma": _sigma_bits(sigma),
    }
    verdict = bool(ppt.verdict) and detection.verdict
    return replace(detection, kind="indecomposable", verdict=verdict, evidence=evidence)


def certify_atomic_conditional(
    w: HermitianOp, rho: HermitianOp, assumption: str
) -> Certificate:
    """Detection certificate plus a recorded Schmidt-number assumption.

    The toolkit never verifies mixed-state Schmidt numbers; the verdict is
    conditional on the stated external fact.
    """
    if not assumption:
        raise ValueError("an explicit assumption string is required")
    return replace(
        certify_detection(w, rho), kind="atomic-conditional", assumptions=(assumption,)
    )


def schmidt_rank(vec: np.ndarray, space: TensorSpace) -> int:
    """Schmidt rank of a unit vector on a bipartite space.

    Counts the singular values of the d1 x d2 reshaping above
    SCHMIDT_SV_RTOL * (largest singular value).
    """
    if space.nparts != 2:
        raise ValueError(f"expected a bipartite space, got {space.dims}")
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.size != space.total:
        raise ValueError(f"vector length {v.size} != space dimension {space.total}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # a NaN norm fails too
        raise ValueError(f"vector must be unit length, got norm {norm!r}")
    singular = np.linalg.svd(v.reshape(space.dims), compute_uv=False)
    return int(np.count_nonzero(singular > SCHMIDT_SV_RTOL * singular[0]))


def _haar_product_start(
    seed: int, restart: int, d1: int, d2: int
) -> tuple[np.ndarray, np.ndarray]:
    # Seeding from (seed, restart) keeps restarts reproducible and
    # order-independent.
    rng = np.random.default_rng([seed, restart])
    x = rng.standard_normal(d1) + 1j * rng.standard_normal(d1)
    y = rng.standard_normal(d2) + 1j * rng.standard_normal(d2)
    return x / np.linalg.norm(x), y / np.linalg.norm(y)


def _product_values(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x_r * y_r| W |x_r * y_r> for each row r of the stacks x and y."""
    v = (x[:, :, None] * y[:, None, :]).reshape(len(x), -1)
    return np.einsum("rn,nm,rm->r", v.conj(), w, v).real


def _half_step(
    fixed: np.ndarray, w_flat: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bottom eigenpair of the d x d contraction of W with each fixed |v><v|."""
    n = len(fixed)
    outer = (fixed.conj()[:, :, None] * fixed[:, None, :]).reshape(n, -1)
    m = (outer @ w_flat).reshape(n, d, d)
    eigvals, eigvecs = np.linalg.eigh((m + m.conj().swapaxes(1, 2)) / 2.0)
    return eigvals[:, 0], eigvecs[:, :, 0]


def _step_converged(previous: Any, value: Any, w_norm: float) -> Any:
    """Whether a step from previous to value stops a restart, for floats or elementwise.

    It does when |previous - value| <= SCAN_CONV_TOL ||W||_F (not |value|, which
    vanishes at a block-positive W's minimum).
    """
    return np.abs(previous - value) <= SCAN_CONV_TOL * w_norm


def blockpos_scan(w: HermitianOp, config: ScanConfig = ScanConfig()) -> Certificate:
    """Heuristic minimum of <x * y| W |x * y> over product vectors.

    Alternating minimization: with y fixed, the objective is a Hermitian
    quadratic form in x whose minimizer is the bottom eigenvector of the
    contracted d1 x d1 matrix; symmetrically for y. Each restart begins from
    a Haar-random product vector derived from (seed, restart index).

    All restarts advance together: each half-step contracts W with the
    stacked outer products of the restarts still running in one matmul and
    solves their eigenproblems in one batched eigh. A restart leaves the
    stack once its last step passed _step_converged; those still running
    after max_iters steps are counted as unconverged.

    Verdict True means no product state |xy><xy| (of Frobenius norm 1) that
    W detects was found (heuristic pass); False exhibits a violating product
    vector, which certifies that W is NOT block positive. The objective is
    non-increasing across alternating steps; histories are kept as evidence.
    """
    if w.space.nparts != 2:
        raise ValueError(f"expected a bipartite space, got {w.space.dims}")
    d1, d2 = w.space.dims
    w_norm = w.norm()
    # the product vectors are complex: cast W once, not in every step's products
    m = np.asarray(w.matrix, dtype=complex)
    w4 = m.reshape(d1, d2, d1, d2)
    # wy[(j, l), (i, k)] = W[i, j, k, l], wx[(i, k), (j, l)] likewise
    wy = w4.transpose(1, 3, 0, 2).reshape(d2 * d2, d1 * d1)
    wx = w4.transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)

    starts = [
        _haar_product_start(config.seed, r, d1, d2) for r in range(config.restarts)
    ]
    xs = np.array([x for x, _ in starts])
    ys = np.array([y for _, y in starts])
    last = _product_values(m, xs, ys)
    histories = [[v] for v in last.tolist()]
    active = np.arange(config.restarts)
    for _ in range(config.max_iters):
        val_x, x = _half_step(ys[active], wy, d1)
        val_y, y = _half_step(x, wx, d2)
        xs[active], ys[active] = x, y
        for r, vx, vy in zip(active.tolist(), val_x.tolist(), val_y.tolist()):
            histories[r] += (vx, vy)
        converged = _step_converged(last[active], val_y, w_norm)
        last[active] = val_y
        active = active[~converged]
        if not active.size:
            break

    summary = _history_summary(histories, config.max_iters, w_norm)
    best_restart = summary["best_restart"]
    x, y = xs[best_restart], ys[best_restart]
    evidence = {
        "minimum": summary["minimum"],
        "product_value": float(_product_values(m, x[None], y[None])[0]),
        "cutoff": summary["cutoff"],
        "restarts": int(config.restarts),  # plain ints, as JSON and revalidate want them
        "max_iters": int(config.max_iters),
        "conv_tol": SCAN_CONV_TOL,
        "seed": int(config.seed),
        "best_restart": best_restart,
        "unconverged_restarts": summary["unconverged_restarts"],
        "x_re": [float(v) for v in x.real],
        "x_im": [float(v) for v in x.imag],
        "y_re": [float(v) for v in y.real],
        "y_im": [float(v) for v in y.imag],
        "histories": histories,
        "max_step_increase": summary["max_step_increase"],
    }
    return Certificate(
        "blockpos-scan",
        summary["minimum"] >= summary["cutoff"],
        evidence,
        operators={"witness": w},
    )


def _history_summary(histories: list[list[float]], max_iters: int, w_norm: float) -> dict:
    """The scan evidence that follows from the per-restart objective histories and ||W||_F.

    The best restart is the first with the lowest final value. A restart is
    unconverged when it took max_iters steps and its last step still failed
    _step_converged. The cutoff is the detection threshold of unit product states.
    """
    finals = [h[-1] for h in histories]
    best = int(np.argmin(finals))
    return {
        "minimum": finals[best],
        "best_restart": best,
        "unconverged_restarts": sum(
            (len(h) - 1) // 2 == max_iters and not _step_converged(h[-3], h[-1], w_norm)
            for h in histories
        ),
        "max_step_increase": float(max(np.diff(h).max() for h in histories)),
        "cutoff": detection_threshold(w_norm, 1.0),
    }


#: The int and the float evidence fields of a blockpos_scan certificate.
_SCAN_INTS = ("restarts", "max_iters", "seed", "best_restart", "unconverged_restarts")
_SCAN_FLOATS = ("minimum", "product_value", "cutoff", "conv_tol", "max_step_increase")

#: The evidence keys of a blockpos_scan certificate.
_SCAN_KEYS = {*_SCAN_INTS, *_SCAN_FLOATS, "x_re", "x_im", "y_re", "y_im", "histories"}


def _is_number(value: Any) -> bool:
    """An int or a float, but not a bool, which Python counts as an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _scan_consistent(cert: Certificate) -> bool:
    """The stored product vector's value and the histories back the scan's claims."""
    ev = cert.evidence
    if not (all(type(ev[key]) is int for key in _SCAN_INTS)
            and all(_is_number(ev[key]) for key in _SCAN_FLOATS)):
        return False
    w = cert.operators["witness"]
    x = np.array(ev["x_re"]) + 1j * np.array(ev["x_im"])
    y = np.array(ev["y_re"]) + 1j * np.array(ev["y_im"])
    value = float(_product_values(w.matrix, x[None], y[None])[0])
    histories = ev["histories"]
    # every restart takes at least one step: its start value, then x and y
    if len(histories) != ev["restarts"] or min(map(len, histories), default=0) < 3:
        return False
    summary = _history_summary(histories, ev["max_iters"], w.norm())
    return (
        abs(value - ev["product_value"]) <= REVALIDATE_TOL["product_value"]
        and abs(ev["minimum"] - value) <= REVALIDATE_TOL["minimum"] * w.norm()
        and ev["conv_tol"] == SCAN_CONV_TOL
        and (value >= summary["cutoff"]) == cert.verdict
        and all(ev[key] == summary[key] for key in summary)
    )


def _matches(stored: Any, fresh: Any, tol: float) -> bool:
    if isinstance(fresh, float):
        return _is_number(stored) and abs(stored - fresh) <= tol
    if isinstance(fresh, list):
        return isinstance(stored, list) and len(stored) == len(fresh) and all(
            _matches(s, f, tol) for s, f in zip(stored, fresh)
        )
    return type(stored) is type(fresh) and stored == fresh


def revalidate(cert: Certificate) -> bool:
    """Re-run the certificate's producer on its stored operators and compare.

    The verdict, the assumptions and the evidence keys must come out the
    same; ints, strings and lists must be equal and floats within
    REVALIDATE_TOL. A blockpos scan is not re-run: the value of its stored
    product vector is recomputed, and its minimum, best restart, convergence
    count and step increase must follow from its histories. Evidence its
    producer or these checks cannot run on (no sigma, a sigma of another
    length, no assumption, a value of the wrong type) gives False; only an
    unknown kind raises.
    """
    ops, ev = cert.operators, cert.evidence
    if cert.kind not in ("ppt", "ccp", "detection", "atomic-conditional", "indecomposable",
                         "blockpos-scan"):
        raise ValueError(f"unknown certificate kind {cert.kind!r}")
    try:
        if cert.kind == "blockpos-scan":
            return ev.keys() == _SCAN_KEYS and _scan_consistent(cert)
        if cert.kind in ("ppt", "ccp"):
            fresh = certify_ppt(ops["rho"], ev["sigma"])
        elif cert.kind == "detection":
            fresh = certify_detection(ops["witness"], ops["rho"])
        elif cert.kind == "atomic-conditional":
            fresh = certify_atomic_conditional(ops["witness"], ops["rho"], cert.assumptions[0])
        else:
            fresh = certify_indecomposable(ops["witness"], ops["rho"], ev["sigma"])
    except (LookupError, TypeError, ValueError):  # evidence missing, or of the wrong type
        return False
    return (
        fresh.verdict == cert.verdict
        and fresh.assumptions == cert.assumptions
        and ev.keys() == fresh.evidence.keys()
        and all(
            _matches(ev[key], value, REVALIDATE_TOL.get(key, REVALIDATE_TOL["default"]))
            for key, value in fresh.evidence.items()
        )
    )

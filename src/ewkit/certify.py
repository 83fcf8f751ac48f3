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

import operator
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from .core import (
    DETECTION_RTOL,
    PSD_RTOL,
    HermitianOp,
    TensorSpace,
    _psd_tolerance,
    detection_threshold,
    is_psd,
    partial_transpose,
    trace_pair,
)

#: A scan restart stops once a step moves its objective by at most this times ||W||_F.
SCAN_CONV_TOL = 1e-12

#: Largest distance revalidate() accepts between a stored evidence float and
#: the value its producer recomputes, by evidence key ("default" for the
#: traces and every key not named), relative to the key's scale (_SCALE_OF).
#: Lists are compared entry by entry.
REVALIDATE_TOL: dict[str, float] = {
    "default": 1e-12,
    "min_eigenvalue": 1e-9,
    "ppt_min_eigenvalue": 1e-9,
    "eigenvalues": 1e-9,
    "product_value": 1e-10,
    "minimum": 1e-10,
}

#: A key's scale is the magnitude of another fresh evidence float over a factor:
#: ||W||_F ||rho||_F for a trace, max|eig| for an eigenvalue, ||W||_F for a scan's
#: values. Every key not named is relative to its own fresh magnitude; a scan's
#: "minimum" must equal its histories' exactly (_scan_recomputed).
_SCALE_OF: dict[str, tuple[str, float]] = {
    "trace": ("trace_threshold", DETECTION_RTOL),
    "min_eigenvalue": ("tolerance", PSD_RTOL),
    "eigenvalues": ("tolerance", PSD_RTOL),
    "ppt_min_eigenvalue": ("ppt_tolerance", PSD_RTOL),
    "product_value": ("cutoff", DETECTION_RTOL),
    "max_step_increase": ("cutoff", DETECTION_RTOL),
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
        for name in ("restarts", "max_iters", "seed"):  # plain ints, as JSON and revalidate want
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError as exc:
                raise ValueError(f"{name} must be an integer, got {value!r}") from exc
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def _sigma_bits(sigma: Sequence[bool]) -> list[int]:
    return [int(bool(b)) for b in sigma]


def certify_ppt(rho: HermitianOp, sigma: Sequence[bool]) -> Certificate:
    """Positivity of the partial transpose, with the spectrum as evidence."""
    pt = partial_transpose(rho, sigma)
    ok, eigenvalues = is_psd(pt)
    evidence = {
        "min_eigenvalue": float(eigenvalues[0]),
        "eigenvalues": eigenvalues.tolist(),
        "tolerance": _psd_tolerance(eigenvalues),
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


def _haar_product_starts(
    seed: int, restarts: int, d1: int, d2: int
) -> tuple[np.ndarray, np.ndarray]:
    """The unit start vectors of every restart, as a (restarts, d1) and a (restarts, d2) stack.

    Restart r takes the first 2(d1 + d2) normals a, b, c, d of
    default_rng([seed, r]) (d1, d1, d2 and d2 of them) and starts from
    x = a + ib and y = c + id, each over its norm. Seeding from (seed, r)
    keeps restarts reproducible and independent of how many there are.
    """
    normals = np.array([
        np.random.default_rng([seed, r]).standard_normal(2 * (d1 + d2)) for r in range(restarts)
    ])
    a, b, c, d = np.split(normals, [d1, 2 * d1, 2 * d1 + d2], axis=1)
    return _unit_rows(a + 1j * b), _unit_rows(c + 1j * d)


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of v over its norm, which is summed as np.linalg.norm sums a complex vector's.

    That is sqrt(re.dot(re) + im.dot(im)): the stacked matmul of a row with a
    column runs the same dot kernel, so each row comes out as it would alone.
    """
    re, im = v.real[:, None, :], v.imag[:, None, :]
    squares = re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)
    return v / np.sqrt(squares[:, 0])


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
    after max_iters steps are counted as unconverged. Each step records its
    x and y values as two columns across all restarts, NaN for those that
    stopped; the histories are cut from these columns once the scan ends.

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

    xs, ys = _haar_product_starts(config.seed, config.restarts, d1, d2)
    # column 2j holds each restart's value after j steps, 2j - 1 its x half-step's; NaN once stopped
    columns = [_product_values(m, xs, ys)]
    steps = np.zeros(config.restarts, dtype=int)
    active = np.arange(config.restarts)
    for _ in range(config.max_iters):
        val_x, x = _half_step(ys[active], wy, d1)
        val_y, y = _half_step(x, wx, d2)
        xs[active], ys[active] = x, y
        converged = _step_converged(columns[-1][active], val_y, w_norm)
        for values in (val_x, val_y):
            columns.append(np.full(config.restarts, np.nan))
            columns[-1][active] = values
        steps[active] += 1
        active = active[~converged]
        if not active.size:
            break

    table = np.array(columns).T
    histories = [row[: 2 * k + 1] for row, k in zip(table.tolist(), steps.tolist())]
    summary = _history_summary(table, steps, config.max_iters, w_norm)
    best_restart = summary["best_restart"]
    x, y = xs[best_restart], ys[best_restart]
    evidence = {
        "minimum": summary["minimum"],
        "product_value": float(_product_values(m, x[None], y[None])[0]),
        "cutoff": summary["cutoff"],
        "restarts": config.restarts,
        "max_iters": config.max_iters,
        "conv_tol": SCAN_CONV_TOL,
        "seed": config.seed,
        "best_restart": best_restart,
        "unconverged_restarts": summary["unconverged_restarts"],
        "x_re": x.real.tolist(),
        "x_im": x.imag.tolist(),
        "y_re": y.real.tolist(),
        "y_im": y.imag.tolist(),
        "histories": histories,
        "max_step_increase": summary["max_step_increase"],
    }
    return Certificate(
        "blockpos-scan",
        summary["minimum"] >= summary["cutoff"],
        evidence,
        operators={"witness": w},
    )


def _history_summary(
    table: np.ndarray, steps: np.ndarray, max_iters: int, w_norm: float
) -> dict:
    """The scan evidence that follows from the objective histories and ||W||_F.

    Row r of table is restart r's history, its start value and then the x
    and y values of each of its steps[r] steps, padded with NaN. The best
    restart is the first with the lowest final value. A restart is
    unconverged when it took max_iters steps and its last step still failed
    _step_converged. The cutoff is the detection threshold of unit product states.
    """
    rows = np.arange(len(table))
    finals = table[rows, 2 * steps]
    best = int(np.argmin(finals))
    last_converged = _step_converged(table[rows, 2 * steps - 2], finals, w_norm)
    increases = np.diff(table, axis=1)[np.arange(table.shape[1] - 1) < 2 * steps[:, None]]
    return {
        "minimum": float(finals[best]),
        "best_restart": best,
        "unconverged_restarts": int(np.count_nonzero((steps == max_iters) & ~last_converged)),
        "max_step_increase": float(increases.max()),
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


def _float_list(value: Any) -> bool:
    return type(value) is list and all(type(v) is float for v in value)


def _scan_recomputed(cert: Certificate) -> Certificate | None:
    """The scan's verdict and evidence as its stored product vector and histories give them.

    None when a value has the wrong type, when the histories are not ones a
    scan records, when the stored minimum is not exactly theirs, or when
    theirs lies farther than REVALIDATE_TOL["minimum"] ||W||_F from the
    stored vector's value.
    """
    ev = cert.evidence
    histories = ev["histories"]
    vectors = [ev[key] for key in ("x_re", "x_im", "y_re", "y_im")]
    if not (all(type(ev[key]) is int for key in _SCAN_INTS)
            and all(_is_number(ev[key]) for key in _SCAN_FLOATS)
            and type(histories) is list and len(histories) == ev["restarts"]
            and all(map(_float_list, [*vectors, *histories]))):
        return None
    w = cert.operators["witness"]
    w_norm = w.norm()
    x = np.array(ev["x_re"]) + 1j * np.array(ev["x_im"])
    y = np.array(ev["y_re"]) + 1j * np.array(ev["y_im"])
    value = float(_product_values(w.matrix, x[None], y[None])[0])
    # each history is the start value, then the x and the y value of 1 to max_iters steps
    lengths = np.array([len(h) for h in histories])
    steps = (lengths - 1) // 2
    if np.any(lengths % 2 == 0) or steps.min() < 1 or steps.max() > ev["max_iters"]:
        return None
    table = np.full((len(histories), lengths.max()), np.nan)
    for row, history in zip(table, histories):
        row[: len(history)] = history
    # a restart stops at its first step that passes _step_converged, or after max_iters steps
    passed = _step_converged(table[:, :-2:2], table[:, 2::2], w_norm)
    last = passed[np.arange(len(table)), steps - 1]
    if not np.all((passed.sum(axis=1) == last) & (last | (steps == ev["max_iters"]))):
        return None
    summary = _history_summary(table, steps, ev["max_iters"], w_norm)
    # the minimum bears the verdict, so no slack: the histories give it exactly
    if (ev["minimum"] != summary["minimum"]
            or not abs(summary["minimum"] - value) <= REVALIDATE_TOL["minimum"] * w_norm):
        return None
    evidence = {**summary, "product_value": value, "conv_tol": SCAN_CONV_TOL}
    return Certificate(cert.kind, value >= summary["cutoff"], evidence)


def _allowed_distance(key: str, fresh: dict[str, Any]) -> float:
    """REVALIDATE_TOL's entry for key times its scale in fresh; 0 for ints and int lists."""
    scale_key, factor = _SCALE_OF.get(key, (key, 1.0))
    scale = fresh[scale_key]
    tol = REVALIDATE_TOL.get(key, REVALIDATE_TOL["default"])
    return tol * abs(scale) / factor if type(scale) is float else 0.0


def _stated_verdict(kind: str, ev: dict[str, Any]) -> bool:
    """The verdict the stored evidence gives by its producer's own rule."""
    if kind in ("ppt", "ccp"):
        return ev["min_eigenvalue"] >= -ev["tolerance"]
    if kind == "blockpos-scan":
        return ev["minimum"] >= ev["cutoff"]
    detected = ev["trace"] < ev["trace_threshold"]
    if kind == "indecomposable":
        return detected and ev["ppt_min_eigenvalue"] >= -ev["ppt_tolerance"]
    return detected


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
    REVALIDATE_TOL times their scale (_SCALE_OF), so that neither scaling
    W nor a last-bit difference in a recomputation changes the outcome.
    The stored evidence must also give the stored verdict by its producer's
    rule (min_eigenvalue >= -tolerance, trace < trace_threshold, a scan's
    minimum >= cutoff), so no float can cross its threshold within that
    slack. A blockpos scan is not re-run: the value of its stored product
    vector is recomputed, and its minimum, best restart, convergence count
    and step increase must follow from its histories, the minimum exactly.
    Each history must hold 2k + 1 floats for some 1 <= k <= max_iters
    steps, and only its last step may pass _step_converged, which it must
    when k < max_iters; the vector entries must be floats too. Evidence its
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
            fresh = _scan_recomputed(cert)
            if fresh is None:
                return False
        elif cert.kind in ("ppt", "ccp"):
            fresh = certify_ppt(ops["rho"], ev["sigma"])
        elif cert.kind == "detection":
            fresh = certify_detection(ops["witness"], ops["rho"])
        elif cert.kind == "atomic-conditional":
            fresh = certify_atomic_conditional(ops["witness"], ops["rho"], cert.assumptions[0])
        else:
            fresh = certify_indecomposable(ops["witness"], ops["rho"], ev["sigma"])
    except (LookupError, TypeError, ValueError):  # evidence missing, or of the wrong type
        return False
    keys = _SCAN_KEYS if cert.kind == "blockpos-scan" else fresh.evidence.keys()
    return (
        fresh.verdict == cert.verdict
        and fresh.assumptions == cert.assumptions
        and ev.keys() == keys
        and all(
            _matches(ev[key], value, _allowed_distance(key, fresh.evidence))
            for key, value in fresh.evidence.items()
        )
        and _stated_verdict(cert.kind, ev) == cert.verdict
    )

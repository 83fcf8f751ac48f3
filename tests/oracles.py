"""Independent oracles the library paths are checked against.

These deliberately avoid the code paths under test: partial transposes are
rebuilt from explicit Kronecker products, the Choi-Jamiolkowski operator
from one Kronecker product per matrix unit and its inverse from one slice
per block, the tabulated maps from their formulas applied to one matrix
unit at a time (the identity and transposition tables from their own Choi
matrices, vec(I) vec(I)^T and the swap), thresholds come from brute-force
sign scans of traces evaluated on explicitly mixed matrices, product
minima come from a dense grid over
real product vectors, the sweep kernel against a per-gamma loop of exactly
summed traces, the witness, Ha-state and block-positivity scan kernels
against their per-block and per-restart loops (the Ha weights from their
printed formulas), the operator, map-table
and sweep writers against per-entry and per-row codecs (the matrix texts
against one cell per entry), and the readers'
re/im conversion against a type check of every entry.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ewkit import (
    HermitianOp,
    LinearMapTable,
    ScanConfig,
    bipartite,
    projector_p,
    projector_q,
    witness_dk,
)
from ewkit.certify import SCAN_CONV_TOL, _haar_product_start
from ewkit.core import DETECTION_RTOL
from ewkit.detect import SweepTable
from ewkit.serialize import MalformedFileError


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


def kron_chain(factors: list[np.ndarray], transpose_flags: list[bool]) -> np.ndarray:
    """Tensor product of the factors, transposing the flagged ones."""
    out = np.array([[1.0 + 0j]])
    for m, flag in zip(factors, transpose_flags):
        out = np.kron(out, m.T if flag else m)
    return out


def matrix_unit(d: int, i: int, j: int) -> np.ndarray:
    """e_ij = |e_i><e_j| on C^d, zero-based."""
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def shift_operator(d: int) -> np.ndarray:
    """Cyclic shift on C^d sending e_i to e_{i+1 mod d} (zero-based)."""
    if d < 2:
        raise ValueError("shift needs dimension >= 2")
    s = np.zeros((d, d), dtype=complex)
    for i in range(d):
        s[(i + 1) % d, i] = 1.0
    return s


def pinch(x: np.ndarray) -> np.ndarray:
    """Diagonal part of a square matrix (the pinching map)."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("pinch expects a square matrix")
    return np.diag(np.diag(x))


@functools.cache
def _choi_formula_terms(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The units e_ij, their pinches, and the sums over l of their pinched shifts.

    The third array holds the diagonals of sum_{l=1..k} pinch(S^l e_ij S^-l)
    at [k, i*d + j] for k < d: one pinched shift per (l, e_ij), computed once
    per d. The entries are small integers, so the prefix sums are exact.
    """
    s = shift_operator(d)
    units = identity_map_units(d)
    sums = np.zeros((d, d * d, d), dtype=complex)
    for l in range(1, d):
        power = np.linalg.matrix_power(s, l)
        shifted = power @ units @ power.conj().T
        sums[l] = sums[l - 1] + [np.diag(pinch(y)) for y in shifted]
    terms = (units, np.array([pinch(x) for x in units]), sums)
    for array in terms:
        array.flags.writeable = False
    return terms


def choi_map_formula(d: int, k: int) -> np.ndarray:
    """Images of x -> (d-k) pinch(x) + sum_{l=1..k} pinch(S^l x S^-l) - x on each e_ij.

    Stacked as (d^2, d, d) with phi(e_ij) at i*d + j, like map_images.
    """
    units, pinched, shift_sums = _choi_formula_terms(d)
    images = (d - k) * pinched - units
    diagonal = np.arange(d)
    images[:, diagonal, diagonal] += shift_sums[k]
    return images


def identity_map_units(d: int) -> np.ndarray:
    """Images e_ij of the identity map, stacked with phi(e_ij) at i*d + j."""
    return np.array([matrix_unit(d, i, j) for i in range(d) for j in range(d)])


def transpose_map_units(d: int) -> np.ndarray:
    """Images e_ji of the transposition map, stacked with phi(e_ij) at i*d + j."""
    return np.array([matrix_unit(d, j, i) for i in range(d) for j in range(d)])


def identity_map(d: int) -> LinearMapTable:
    """The identity map on M_d, from its Choi matrix vec(I) vec(I)^T."""
    vec = np.eye(d).reshape(-1)
    return LinearMapTable(HermitianOp(bipartite(d), np.outer(vec, vec)))


def transpose_map(d: int) -> LinearMapTable:
    """The transposition map on M_d, from its Choi matrix: the swap of the two factors."""
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    return LinearMapTable(HermitianOp(bipartite(d), swap))


def jamiolkowski_kron_sum(table: LinearMapTable) -> np.ndarray:
    """sum_ij e_ij x phi(e_ij), one Kronecker product per matrix unit."""
    n = table.d_in * table.d_out
    w = np.zeros((n, n), dtype=complex)
    for i in range(table.d_in):
        for j in range(table.d_in):
            w += np.kron(matrix_unit(table.d_in, i, j), table.image(i, j))
    return w


def dejamiolkowski_slices(w: HermitianOp) -> list[np.ndarray]:
    """phi(e_ij) cut out of w as block (i, j), one slice per matrix unit."""
    d_in, d_out = w.space.dims
    return [
        w.matrix[i * d_out : (i + 1) * d_out, j * d_out : (j + 1) * d_out]
        for i in range(d_in)
        for j in range(d_in)
    ]


def map_images(table: LinearMapTable) -> np.ndarray:
    """The images phi(e_ij) of a table, stacked at i*d_in + j, one image(i, j) each."""
    return np.array([table.image(i, j) for i in range(table.d_in) for j in range(table.d_in)])


def map_apply_loop(table: LinearMapTable, x: np.ndarray) -> np.ndarray:
    """phi(x) = sum_ij x_ij phi(e_ij), one matrix unit at a time."""
    out = np.zeros((table.d_out, table.d_out), dtype=complex)
    for i in range(table.d_in):
        for j in range(table.d_in):
            out += x[i, j] * table.image(i, j)
    return out


def _num(x: float) -> int | float:
    # Integral entries serialize as JSON integers; 2^53 bounds exact ints.
    if x == int(x) and abs(x) <= 2**53:
        return int(x)
    return float(x)


def _matrix_to_lists(m: np.ndarray) -> tuple[list[list], list[list]]:
    re = [[_num(v) for v in row] for row in m.real.tolist()]
    im = [[_num(v) for v in row] for row in m.imag.tolist()]
    return re, im


def json_texts_per_cell(a: np.ndarray) -> list[str]:
    """The JSON text of each matrix a[i] of a stack, built one cell per entry.

    Each nonzero entry is converted by _num and encoded on its own; zeros
    (-0.0 included) are "0" cells. The cells are then joined one axis at a
    time, innermost first.
    """
    cells = [json.dumps(_num(v)) if v else "0" for v in a.ravel().tolist()]
    for n in reversed(a.shape[1:]):
        cells = ["[" + ", ".join(cells[i:i + n]) + "]" for i in range(0, len(cells), n)]
    return cells


def _write_json_streamed(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def write_operator_per_entry(path: str, op: HermitianOp, meta: dict | None = None) -> None:
    """The operator file, each entry converted by _num, streamed by json.dump."""
    re, im = _matrix_to_lists(op.matrix)
    _write_json_streamed(path, {"dims": list(op.space.dims), "re": re, "im": im,
                                "meta": meta or {}})


def write_map_table_per_entry(path: str, table: LinearMapTable) -> None:
    """The map-table file, one image at a time, each entry converted by _num."""
    images = []
    for img in map_images(table):
        re, im = _matrix_to_lists(img)
        images.append({"re": re, "im": im})
    _write_json_streamed(path, {"d_in": table.d_in, "d_out": table.d_out, "images": images})


_JSON_NUMBERS = {int, float}  # bool is an int subclass, but type(True) is bool


def numeric_parts_per_entry(
    re: object, im: object, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The re and im parts as np.array(dtype=float) arrays, after a per-entry type check.

    Every entry must be a JSON number (int or float, not bool) and finite;
    otherwise MalformedFileError with the reader's message for that case.
    """
    try:
        re_arr = np.array(re, dtype=float)
        im_arr = np.array(im, dtype=float)
    except OverflowError as exc:
        raise MalformedFileError(f"re/im are not finite numbers: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MalformedFileError(f"re/im are not numeric matrices: {exc}") from exc
    if re_arr.shape != shape or im_arr.shape != shape:
        raise MalformedFileError(
            f"re/im shapes {re_arr.shape}/{im_arr.shape} do not match {shape}"
        )
    for part in (re, im):
        for _ in shape[1:]:
            part = itertools.chain.from_iterable(part)
        bad = set(map(type, part)) - _JSON_NUMBERS
        if bad:
            names = ", ".join(sorted(t.__name__ for t in bad))
            raise MalformedFileError(f"re/im are not numeric matrices: {names} entries")
    bad = {json.dumps(v) for arr in (re_arr, im_arr) for v in arr[~np.isfinite(arr)].tolist()}
    if bad:
        raise MalformedFileError(f"re/im are not finite numbers: {', '.join(sorted(bad))} entries")
    return re_arr, im_arr


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


def witness_dk_blocks(d: int, k: int) -> HermitianOp:
    """W_{d,k} assembled block by block: (d-k-1) e_ii + k shifted units, -e_ij off it."""
    w = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if i == j:
                block = (d - k - 1) * matrix_unit(d, i, i)
                for l in range(1, k + 1):
                    m = (i + l) % d
                    block += matrix_unit(d, m, m)
            else:
                block = -matrix_unit(d, i, j)
            w[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
    return HermitianOp(bipartite(d), w)


def ha_weights(d: int, gamma: float) -> tuple[float, float, float]:
    """The Ha state's diagonal weights a_gamma, b_gamma and its normalization n_gamma.

    As printed: a_gamma = (gamma^2 + d - 1)/d, b_gamma = (gamma^-2 + d - 1)/d
    and n_gamma = d^2 - 2 + gamma^2 + gamma^-2, the trace of the unnormalized
    state (d - 2 ones, a_gamma and b_gamma on each of d diagonal blocks).
    """
    return (gamma**2 + d - 1) / d, (gamma**-2 + d - 1) / d, d**2 - 2 + gamma**2 + gamma**-2


def ha_state_blocks(d: int, gamma: float) -> HermitianOp:
    """The Ha state assembled block by block: shifted diagonals and the comb."""
    a, b, n = ha_weights(d, gamma)
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
    """One grid point of a detection sweep.

    scale, when known, is the sum of the magnitudes the row's trace adds up,
    and threshold the detection threshold of the row's pair.
    """

    gamma: float | None
    lam: float | None
    mu: float | None
    alpha: float | None
    trace_value: float
    detected: bool
    scale: float | None = None
    threshold: float | None = None


def exact_pairing(w: np.ndarray, rho: np.ndarray) -> float:
    """Re Tr(W rho) as the correctly rounded sum (math.fsum) of its products."""
    return math.fsum((w * rho.T).real.ravel())


def sweep_rows(
    d: int, k: int, gamma_grid: list[float], lambda_grid: list[float], mu_grid: list[float]
) -> list[SweepRow]:
    """The sweep one row at a time, gamma outer, lambda middle, mu inner.

    Each gamma's state is assembled block by block and its three traces are
    summed exactly, so a row is off the true pairing by a few rounding errors
    of its scale Tr(|W0| rho) + |lambda| Tr(P rho) + |mu| Tr(Q rho). A row is
    detected below -DETECTION_RTOL ||W||_F ||rho||_F, the norms taken of the
    row's witness and state matrices.
    """
    w0 = witness_dk(d, k).matrix
    p = projector_p(d).matrix
    q = projector_q(d).matrix
    rows = []
    for gamma in gamma_grid:
        rho = ha_state_blocks(d, gamma).matrix
        t0, tp, tq = (exact_pairing(x, rho) for x in (w0, p, q))
        s0 = exact_pairing(np.abs(w0), np.abs(rho))  # P, Q and rho are entrywise >= 0
        rho_norm = np.linalg.norm(rho)
        for lam in lambda_grid:
            for mu in mu_grid:
                value = t0 + lam * tp + mu * tq
                threshold = -DETECTION_RTOL * np.linalg.norm(w0 + lam * p + mu * q) * rho_norm
                rows.append(
                    SweepRow(
                        gamma=gamma,
                        lam=lam,
                        mu=mu,
                        alpha=None,
                        trace_value=value,
                        detected=value < threshold,
                        scale=s0 + abs(lam) * tp + abs(mu) * tq,
                        threshold=threshold,
                    )
                )
    return rows


def table_rows(table: SweepTable) -> list[SweepRow]:
    """The rows of a sweep table, gamma outer, lambda middle, mu inner."""
    points = itertools.product(table.gammas, table.lams, table.mus)
    return [
        SweepRow(gamma, lam, mu, None, value, hit)
        for (gamma, lam, mu), value, hit in zip(
            points, table.trace.ravel().tolist(), table.detected.ravel().tolist()
        )
    ]


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


def blockpos_scan_serial(w: HermitianOp, config: ScanConfig) -> dict:
    """The block-positivity seesaw one restart at a time, one einsum per contraction.

    A restart stops once a step moves its value by at most SCAN_CONV_TOL
    ||W||_F; the scan passes unless its minimum is below -DETECTION_RTOL ||W||_F.
    Returns the scan's histories, minimum, best restart and verdict.
    """
    d1, d2 = w.space.dims
    w4 = w.matrix.reshape(d1, d2, d1, d2)
    w_norm = np.linalg.norm(w.matrix)

    def value(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.einsum("i,j,ijkl,k,l->", x.conj(), y.conj(), w4, x, y).real)

    def min_eigvec(m: np.ndarray) -> tuple[float, np.ndarray]:
        eigvals, eigvecs = np.linalg.eigh((m + m.conj().T) / 2.0)
        return float(eigvals[0]), eigvecs[:, 0]

    histories = []
    for restart in range(config.restarts):
        x, y = _haar_product_start(config.seed, restart, d1, d2)
        history = [value(x, y)]
        for _ in range(config.max_iters):
            val_x, x = min_eigvec(np.einsum("j,ijkl,l->ik", y.conj(), w4, y))
            history.append(val_x)
            val_y, y = min_eigvec(np.einsum("i,ijkl,k->jl", x.conj(), w4, x))
            history.append(val_y)
            if abs(history[-3] - history[-1]) <= SCAN_CONV_TOL * w_norm:
                break
        histories.append(history)
    finals = [h[-1] for h in histories]
    best = min(range(len(finals)), key=finals.__getitem__)
    return {
        "histories": histories,
        "minimum": finals[best],
        "best_restart": best,
        "verdict": finals[best] >= -DETECTION_RTOL * w_norm,
    }

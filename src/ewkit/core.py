"""Dense Hermitian operators on composite Hilbert spaces.

Everything downstream (witnesses, states, projectors) is a Hermitian matrix
on a tensor product of small local spaces, so this module fixes the index
conventions once: local indices are zero-based, composite indices are
row-major mixed-radix, and the Kronecker product follows the same layout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Relative gate for accepting a matrix as Hermitian (symmetrized on entry).
HERMITICITY_RTOL = 1e-12

#: Relative floor for positive-semidefiniteness verdicts (_psd_tolerance).
PSD_RTOL = 1e-10

#: Largest tolerated imaginary part of Tr(W rho) for Hermitian W, rho, over ||W||_F ||rho||_F.
TRACE_IMAG_RTOL = 1e-10

#: Tr(W rho) detects rho below -DETECTION_RTOL ||W||_F ||rho||_F (detection_threshold).
DETECTION_RTOL = 1e-12

#: Which local factors to transpose: one boolean per subsystem.
SigmaVector = tuple[bool, ...]


@dataclass(frozen=True)
class TensorSpace:
    """Shape of a composite space: the ordered list of local dimensions.

    The basis vector e_{i1} x ... x e_{iN} (zero-based local indices) sits at
    the row-major composite index sum_k i_k * prod_{m>k} d_m.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError as exc:
            raise ValueError(f"local dimensions must be integers, got {self.dims!r}") from exc
        if len(dims) < 1:
            raise ValueError("a tensor space needs at least one factor")
        if any(d < 2 for d in dims):
            raise ValueError(f"local dimensions must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    @property
    def nparts(self) -> int:
        return len(self.dims)

    def composite_index(self, local_indices: Sequence[int]) -> int:
        """Row-major mixed-radix index of a product basis vector.

        A wrong number of indices, or an index outside [0, d), raises ValueError.
        """
        return int(np.ravel_multi_index(tuple(local_indices), self.dims))


def bipartite(d: int) -> TensorSpace:
    """The two-factor space d x d."""
    return TensorSpace((d, d))


class _NotFiniteError(ValueError):
    """The gate's rejection of a non-finite matrix, or one whose (M + M^dag)/2 overflows."""


def _real_or_complex(a) -> np.ndarray:
    """a as a float64 array when its dtype is bool, integer or real, else as complex128.

    This is how operators are stored. Any other dtype (complex, or object
    holding Python numbers) takes the complex128 cast.
    """
    a = np.asarray(a)
    return np.asarray(a, dtype=float if a.dtype.kind in "biuf" else complex)


def _hermiticity_bound(m: np.ndarray) -> float:
    """HERMITICITY_RTOL * max|m|: the gate rejects m when max|M - M^dag| exceeds it."""
    return HERMITICITY_RTOL * float(np.abs(m).max())


@dataclass(frozen=True, eq=False)
class HermitianOp:
    """A Hermitian matrix tied to a TensorSpace.

    The constructor symmetrizes M <- (M + M^dag)/2 when the deviation is
    within HERMITICITY_RTOL (relative to the largest entry) and rejects the
    matrix otherwise, so drift cannot accumulate through long pipelines.
    The stored dtype follows the input's: float64 for a real input (every
    operator the paper builds), complex128 for a complex one, whatever its
    imaginary part holds; arithmetic mixing the two gives complex128.
    Instances are immutable; the stored array is read-only. They compare
    and hash by identity: compare matrices with np.array_equal.
    """

    space: TensorSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _real_or_complex(self.matrix)  # only read: the stored matrix is new
        n = self.space.total
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {n}")
        h = m.conj().T  # conj() of a real array is the array itself, not a copy
        # a non-finite m, or one whose m + h overflows, stores a non-finite
        # matrix; a NaN or inf bound never rejects, so the check below names it
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.array_equal(m, h):  # an exactly Hermitian m deviates by 0
                bound = _hermiticity_bound(m)
                deviation = float(np.abs(m - h).max())
                if deviation > bound:
                    raise ValueError(
                        f"matrix is not Hermitian: max|M - M^dag| = {deviation:.3e} "
                        f"exceeds {HERMITICITY_RTOL:g} * max|M| = {bound:.3e}"
                    )
            m = (m + h) / 2.0
        if not np.isfinite(m).all():
            raise _NotFiniteError("matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.space.total

    def __add__(self, other: "HermitianOp") -> "HermitianOp":
        self._require_same_space(other)
        return HermitianOp(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "HermitianOp") -> "HermitianOp":
        self._require_same_space(other)
        return HermitianOp(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: float) -> "HermitianOp":
        if np.iscomplexobj(scalar):  # complex, np.complex64 and np.complex128 alike
            if scalar.imag != 0:
                raise ValueError("only real scalars keep the operator Hermitian")
            scalar = scalar.real
        return HermitianOp(self.space, self.matrix * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianOp":
        return HermitianOp(self.space, -self.matrix)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def norm(self) -> float:
        return _scaled_norm(self.matrix)

    def _require_same_space(self, other: "HermitianOp") -> None:
        if self.space != other.space:
            raise ValueError(f"spaces differ: {self.space.dims} vs {other.space.dims}")


def _scaled_norm(m: np.ndarray) -> float:
    """||m||_F with no squares that under- or overflow.

    np.linalg.norm where it lies in [1e-100, 1e100], where squares that
    under- or overflowed cannot have moved it; elsewhere s ||m / s||_F with
    s = max|m|, which costs two more passes over m.
    """
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(m))
    if 1e-100 <= plain <= 1e100:
        return plain
    s = float(np.abs(m).max())
    return s * float(np.linalg.norm(m / s)) if s else 0.0


def tensor_op(a: HermitianOp, b: HermitianOp) -> HermitianOp:
    """Tensor product of two operators on the concatenated space."""
    space = TensorSpace(a.space.dims + b.space.dims)
    return HermitianOp(space, np.kron(a.matrix, b.matrix))


def _default_sigma(space: TensorSpace) -> SigmaVector:
    """The default transposition pattern: the last factor only."""
    return tuple(i == space.nparts - 1 for i in range(space.nparts))


def _validate_sigma(space: TensorSpace, sigma: Sequence[bool]) -> SigmaVector:
    for b in sigma:
        if b not in (0, 1):  # a bit, not a truth value: "0", 2 and 0.5 are refused
            raise ValueError(f"sigma bits must be 0 or 1, got {b!r}")
    bits = tuple(bool(b) for b in sigma)
    if len(bits) != space.nparts:
        raise ValueError(
            f"sigma has {len(bits)} entries but the space has {space.nparts} factors"
        )
    return bits


def partial_transpose(op: HermitianOp, sigma: Sequence[bool]) -> HermitianOp:
    """Transpose the local factors flagged by sigma.

    Entry (i1..iN; j1..jN) moves according to the swap i_k <-> j_k for each
    flagged factor. Hermiticity and trace are preserved; applying the same
    sigma twice restores the operator exactly.
    """
    bits = _validate_sigma(op.space, sigma)
    dims = op.space.dims
    n = len(dims)
    tensor = op.matrix.reshape(dims + dims)
    axes = list(range(2 * n))
    for k, flag in enumerate(bits):
        if flag:
            axes[k], axes[n + k] = axes[n + k], axes[k]
    out = tensor.transpose(axes).reshape(op.space.total, op.space.total)
    return HermitianOp(op.space, out)


#: is_psd solves a matrix smaller than this whole: below it, finding the blocks costs more
#: than solving them apart saves.
_BLOCK_SOLVE_MIN_DIM = 100


def _components(pattern: np.ndarray) -> np.ndarray:
    """Per index, a label shared by exactly the indices of its connected component.

    pattern is a symmetric boolean matrix with a true diagonal. Each round
    gives every index the smallest label among its neighbours, lowers each
    old label to the smallest new label of the indices that held it, and
    follows labels to their labels twice. Labels only fall, and each stays
    the index of a member of its component; they are final once no entry
    of pattern joins two labels.
    """
    n = len(pattern)
    flat = np.flatnonzero(pattern)
    rows, cols = np.divmod(flat, n)
    starts = np.searchsorted(flat, np.arange(0, n * n, n))  # row i's entries begin here
    labels = np.arange(n)
    while True:
        new = np.minimum.reduceat(labels[cols], starts)
        np.minimum.at(new, labels, new.copy())
        new = new[new]
        labels = new[new]
        if np.array_equal(labels[rows], labels[cols]):
            return labels


def _block_eigenvalues(m: np.ndarray) -> np.ndarray | None:
    """m's eigenvalues ascending, solved block by block; None when m is not worth splitting.

    The blocks are the connected components of the nonzero pattern. A
    pattern with more than half its entries nonzero, or one that is
    connected, gives None. Blocks of one size are gathered into one stack
    and solved by one batched eigvalsh; 1 x 1 blocks are read off the
    diagonal.
    """
    pattern = m != 0
    if 2 * np.count_nonzero(pattern) > pattern.size:
        return None
    np.fill_diagonal(pattern, True)
    labels = _components(pattern)
    counts = np.bincount(labels)
    size = counts[labels]  # the size of each index's block
    if size[0] == len(m):
        return None
    order = np.lexsort((labels, size))  # by block size, then block, then index
    eigs, start = [], 0
    for s in np.unique(size).tolist():
        stop = start + s * np.count_nonzero(counts == s)
        idx = order[start:stop].reshape(-1, s)
        start = stop
        if s == 1:
            eigs.append(m[idx[:, 0], idx[:, 0]].real)
        else:
            eigs.append(np.linalg.eigvalsh(m[idx[:, :, None], idx[:, None, :]]).ravel())
    return np.sort(np.concatenate(eigs))


def _psd_tolerance(eigenvalues: np.ndarray) -> float:
    """How far below zero a PSD spectrum may reach: PSD_RTOL * max|eig|."""
    return PSD_RTOL * float(np.abs(eigenvalues).max())


def is_psd(op: HermitianOp) -> tuple[bool, np.ndarray]:
    """Positive-semidefiniteness verdict with the full spectrum as evidence.

    Returns (ok, eigenvalues): eigenvalues is the solver's float64 array,
    ascending and marked read-only (not copied), and ok is True iff its
    first entry is >= -_psd_tolerance(eigenvalues). A real operator (every
    witness and state the paper builds), or a complex one whose imaginary
    part is all zero, is solved in real arithmetic; any other by the
    complex solver. A matrix of dimension 100 or more whose nonzero pattern
    is sparse (at most half the entries nonzero) and splits into blocks, as
    W_{d,k}, the Ha states, P, Q and their partial transposes do, is solved
    block by block: the spectrum is the union of the blocks' spectra,
    sorted ascending, equal to the whole solve's to rounding. Every other
    matrix is solved whole. Eigensolver failures propagate as
    numpy.linalg.LinAlgError rather than being folded into a False verdict.
    """
    m = op.matrix
    if np.iscomplexobj(m) and not m.imag.any():
        m = m.real
    eigs = _block_eigenvalues(m) if len(m) >= _BLOCK_SOLVE_MIN_DIM else None
    if eigs is None:
        eigs = np.linalg.eigvalsh(m)
    eigs.setflags(write=False)
    return float(eigs[0]) >= -_psd_tolerance(eigs), eigs


def _require_psd(name: str, ok: bool, eigenvalues: np.ndarray) -> None:
    """Raise ValueError naming the operator unless ok: _require_psd(name, *is_psd(op))."""
    if not ok:
        raise ValueError(f"{name} must be PSD; min eigenvalue {eigenvalues[0]:.3e}")


def trace_pair(w: HermitianOp, rho: HermitianOp) -> float:
    """Re Tr(W rho) for operators on the same space.

    For Hermitian inputs the trace is real; an imaginary part above
    TRACE_IMAG_RTOL ||W||_F ||rho||_F signals numerical corruption and raises.
    The norms are taken only when the imaginary part is nonzero, scaled so
    that they neither underflow nor overflow, and divided out one at a time.
    """
    w._require_same_space(rho)
    value = complex(np.einsum("ij,ji->", w.matrix, rho.matrix))
    if value.imag and (abs(value.imag) / _scaled_norm(w.matrix) / _scaled_norm(rho.matrix)
                       > TRACE_IMAG_RTOL):
        raise ArithmeticError(
            f"Tr(W rho) has imaginary part {value.imag:.3e}; inputs are corrupted"
        )
    return value.real


def detection_threshold(w_norm, rho_norm):
    """-DETECTION_RTOL ||W||_F ||rho||_F from the two Frobenius norms, elementwise.

    Every layer's rule: t = Tr(W rho) detects rho when t < threshold and is zero
    when |t| <= -threshold; as |t| <= ||W||_F ||rho||_F, scaling W changes neither.
    """
    return -DETECTION_RTOL * w_norm * rho_norm

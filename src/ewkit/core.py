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

#: Relative floor for positive-semidefiniteness verdicts (Spectrum.psd_tolerance).
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


def _hermiticity_bound(m: np.ndarray) -> float:
    """HERMITICITY_RTOL * max|m|: the gate rejects m when max|M - M^dag| exceeds it."""
    return HERMITICITY_RTOL * float(np.abs(m).max())


@dataclass(frozen=True, eq=False)
class HermitianOp:
    """A Hermitian matrix tied to a TensorSpace.

    The constructor symmetrizes M <- (M + M^dag)/2 when the deviation is
    within HERMITICITY_RTOL (relative to the largest entry) and rejects the
    matrix otherwise, so drift cannot accumulate through long pipelines.
    Instances are immutable; the stored array is read-only. They compare
    and hash by identity: compare matrices with np.array_equal.
    """

    space: TensorSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)  # only read: the stored matrix is new
        n = self.space.total
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {n}")
        h = m.conj().T
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
        return float(np.linalg.norm(self.matrix))

    def _require_same_space(self, other: "HermitianOp") -> None:
        if self.space != other.space:
            raise ValueError(f"spaces differ: {self.space.dims} vs {other.space.dims}")


def _scaled_norm(m: np.ndarray) -> float:
    """s ||m / s||_F with s = max|m|: ||m||_F with no squares that under- or overflow."""
    s = float(np.abs(m).max())
    return s * float(np.linalg.norm(m / s)) if s else 0.0


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of a Hermitian operator, ascending; evidence for PSD checks.

    Compares and hashes by identity, like HermitianOp.
    """

    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        eigs = np.array(self.eigenvalues, dtype=float)
        eigs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def psd_tolerance(self) -> float:
        """How far below zero a PSD spectrum may reach: PSD_RTOL * max |eig|."""
        return PSD_RTOL * float(np.abs(self.eigenvalues).max())


def tensor_op(a: HermitianOp, b: HermitianOp) -> HermitianOp:
    """Tensor product of two operators on the concatenated space."""
    space = TensorSpace(a.space.dims + b.space.dims)
    return HermitianOp(space, np.kron(a.matrix, b.matrix))


def _default_sigma(space: TensorSpace) -> SigmaVector:
    """The default transposition pattern: the last factor only."""
    return tuple(i == space.nparts - 1 for i in range(space.nparts))


def _validate_sigma(space: TensorSpace, sigma: Sequence[bool]) -> SigmaVector:
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


def is_psd(op: HermitianOp) -> tuple[bool, Spectrum]:
    """Positive-semidefiniteness verdict with the full spectrum as evidence.

    True iff the smallest eigenvalue is >= -Spectrum.psd_tolerance. A real
    operator (every witness and state the paper builds) is solved in real
    arithmetic, a complex one by the complex solver. Eigensolver failures
    propagate as numpy.linalg.LinAlgError rather than being folded into a
    False verdict.
    """
    m = op.matrix
    spectrum = Spectrum(np.linalg.eigvalsh(m if m.imag.any() else m.real))
    return spectrum.min >= -spectrum.psd_tolerance, spectrum


def _require_psd(name: str, ok: bool, spectrum: Spectrum) -> None:
    """Raise ValueError naming the operator unless ok: _require_psd(name, *is_psd(op))."""
    if not ok:
        raise ValueError(f"{name} must be PSD; min eigenvalue {spectrum.min:.3e}")


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

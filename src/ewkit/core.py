"""Dense Hermitian operators on composite Hilbert spaces.

Everything downstream (witnesses, states, projectors) is a Hermitian matrix
on a tensor product of small local spaces, so this module fixes the index
conventions once: local indices are zero-based, composite indices are
row-major mixed-radix, and the Kronecker product follows the same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Relative gate for accepting a matrix as Hermitian (symmetrized on entry).
HERMITICITY_RTOL = 1e-12

#: Relative floor for positive-semidefiniteness verdicts (Spectrum.psd_tolerance).
PSD_RTOL = 1e-10

#: Largest tolerated imaginary part of Tr(W rho) for Hermitian W, rho.
TRACE_IMAG_TOL = 1e-10

#: Tr(W rho) counts as detection only below this value; every layer uses it.
DETECTION_TOL = -1e-12

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
        dims = tuple(int(d) for d in self.dims)
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
        """Row-major mixed-radix index of a product basis vector."""
        if len(local_indices) != self.nparts:
            raise ValueError("one local index per factor required")
        idx = 0
        for i, d in zip(local_indices, self.dims):
            if not 0 <= i < d:
                raise ValueError(f"local index {i} out of range for dimension {d}")
            idx = idx * d + i
        return idx


def bipartite(d1: int, d2: int | None = None) -> TensorSpace:
    """Two-factor space; a single argument means d x d."""
    return TensorSpace((d1, d2 if d2 is not None else d1))


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
        m = np.array(self.matrix, dtype=complex)
        n = self.space.total
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {n}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.abs(m).max()))
        deviation = float(np.abs(m - m.conj().T).max())
        if deviation > HERMITICITY_RTOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: max|M - M^dag| = {deviation:.3e} "
                f"exceeds {HERMITICITY_RTOL:g} * {scale:g}"
            )
        m = (m + m.conj().T) / 2.0
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
        if isinstance(scalar, complex):
            if scalar.imag != 0:
                raise ValueError("only real scalars keep the operator Hermitian")
            scalar = scalar.real
        return HermitianOp(self.space, self.matrix * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianOp":
        return HermitianOp(self.space, -self.matrix)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def _require_same_space(self, other: "HermitianOp") -> None:
        if self.space != other.space:
            raise ValueError(f"spaces differ: {self.space.dims} vs {other.space.dims}")


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
        """How far below zero a PSD spectrum may reach: PSD_RTOL * max(1, max |eig|)."""
        return PSD_RTOL * max(1.0, float(np.abs(self.eigenvalues).max()))


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

    True iff the smallest eigenvalue is >= -Spectrum.psd_tolerance.
    Eigensolver failures propagate as numpy.linalg.LinAlgError rather than
    being folded into a False verdict.
    """
    spectrum = Spectrum(np.linalg.eigvalsh(op.matrix))
    return spectrum.min >= -spectrum.psd_tolerance, spectrum


def trace_pair(w: HermitianOp, rho: HermitianOp) -> float:
    """Re Tr(W rho) for operators on the same space.

    For Hermitian inputs the trace is real; an imaginary part above
    TRACE_IMAG_TOL signals numerical corruption and raises.
    """
    w._require_same_space(rho)
    value = complex(np.einsum("ij,ji->", w.matrix, rho.matrix))
    if abs(value.imag) > TRACE_IMAG_TOL:
        raise ArithmeticError(
            f"Tr(W rho) has imaginary part {value.imag:.3e}; inputs are corrupted"
        )
    return value.real

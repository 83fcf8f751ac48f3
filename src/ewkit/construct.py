"""Constructors for the witness and state families on C^d x C^d.

The block witness family W_{d,k}, its positive-map counterparts tau_{d,k},
the one-parameter family of PPT states rho_gamma due to Ha, the maximally
entangled projectors P and Q used to perturb witnesses, the GHZ projector on
N factors, and the generic convex/difference constructors. Witnesses are kept
unnormalized with integer entries exactly as usually printed; states carry
unit trace.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    HermitianOp,
    TensorSpace,
    _real_or_complex,
    _require_psd,
    bipartite,
    is_psd,
)

#: How far from one the weights of a convex combination may sum.
WEIGHT_SUM_TOL = 1e-12


def _validate_d(d: int) -> None:
    if d < 3:
        raise ValueError(f"local dimension must satisfy d >= 3, got d={d}")


def _validate_dk(d: int, k: int) -> None:
    _validate_d(d)
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must satisfy 1 <= k <= d-1, got k={k} for d={d}")


def _ha_weights(d: int, gamma):
    """The Ha weights (a_gamma, b_gamma, n_gamma), elementwise.

    a_gamma = (gamma^2 + d - 1)/d, b_gamma = (gamma^-2 + d - 1)/d and the
    normalization n_gamma = d^2 - 2 + gamma^2 + gamma^-2. gamma is a number
    or an array of them. Raises ValueError unless d >= 3 and every gamma is
    finite and > 0, naming the first gamma that is not.
    """
    _validate_d(d)
    ok = np.isfinite(gamma) & (np.asarray(gamma) > 0)
    if not np.all(ok):
        bad = np.asarray(gamma).flat[np.argmin(ok)]
        raise ValueError(f"gamma must be finite and > 0, got {bad}")
    g2, gm2 = gamma**2, gamma**-2
    return (g2 + d - 1) / d, (gm2 + d - 1) / d, d**2 - 2 + g2 + gm2


@dataclass(frozen=True, eq=False)
class LinearMapTable:
    """A linear map M_{d_in} -> M_{d_out}, held as its Choi operator on (d_in, d_out).

    choi = sum_ij e_ij x phi(e_ij) is Hermitian exactly when the map preserves
    Hermiticity, so the HermitianOp gate is the map's gate. The table holds
    nothing else: phi(e_ij) is block (i, j) of choi, read as a view. Tables
    compare and hash by identity.
    """

    choi: HermitianOp

    def __post_init__(self) -> None:
        if self.choi.space.nparts != 2:
            raise ValueError(f"expected a bipartite space, got {self.choi.space.dims}")

    @property
    def d_in(self) -> int:
        return self.choi.space.dims[0]

    @property
    def d_out(self) -> int:
        return self.choi.space.dims[1]

    def image(self, i: int, j: int) -> np.ndarray:
        """phi(e_ij) for 0 <= i, j < d_in: a read-only view of block (i, j) of choi."""
        try:
            i, j = operator.index(i), operator.index(j)  # not a numpy mask or slice
        except TypeError as exc:
            raise ValueError(f"matrix unit ({i},{j}) needs integer indices") from exc
        if not (0 <= i < self.d_in and 0 <= j < self.d_in):
            raise ValueError(f"matrix unit ({i},{j}) out of range for d_in={self.d_in}")
        return self._blocks()[i, :, j, :]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the map on an arbitrary d_in x d_in matrix by linearity.

        The result is float64 when the table and x are real, as operators are
        stored, and complex128 otherwise.
        """
        x = _real_or_complex(x)
        if x.shape != (self.d_in, self.d_in):
            raise ValueError(f"argument shape {x.shape} != ({self.d_in}, {self.d_in})")
        return np.tensordot(x, self._blocks(), axes=([0, 1], [0, 2]))

    def _blocks(self) -> np.ndarray:
        """The read-only view of choi with [i, :, j, :] = phi(e_ij): the one home of the layout."""
        return self.choi.matrix.reshape(self.choi.space.dims * 2)


def _comb_and_cyclic_diagonal(d: int, comb: float, base: np.ndarray) -> np.ndarray:
    """comb times the |ii><jj| comb, with diagonal block i set to S^i diag(base) S^-i.

    The layout shared by witness_dk and ha_state: e_i x e_m on the diagonal
    carries base[(m - i) mod d], so the comb's diagonal entries take base[0].
    """
    m = np.zeros((d * d, d * d))
    ii = np.arange(d) * (d + 1)  # composite index of e_i x e_i
    m[ii[:, None], ii] = comb
    idx = np.arange(d * d)
    m[idx, idx] = base[(idx % d - idx // d) % d]
    return m


def _ha_parts(d: int) -> np.ndarray:
    """(R1, Ra, Rb), stacked: n_gamma rho_gamma = R1 + (a_gamma - 1) Ra + (b_gamma - 1) Rb.

    R1 is the comb with a unit diagonal (n_1 times the gamma = 1 state); Ra
    and Rb mark the diagonal entries ha_state fills with a_gamma and b_gamma,
    the cyclic shifts 1 and d - 1 of its layout.
    """
    units = np.eye(d)
    return np.stack([_comb_and_cyclic_diagonal(d, comb, base) for comb, base in
                     ((1.0, np.ones(d)), (0.0, units[1]), (0.0, units[d - 1]))])


def witness_dk(d: int, k: int) -> HermitianOp:
    """Block entanglement witness on C^d x C^d.

    Diagonal blocks X_ii = (d-k-1) e_ii + sum_{l=1..k} e_{i+l,i+l} (indices
    mod d), off-diagonal blocks X_ij = -e_ij. The trace is d(d-1). For
    (d, k) = (3, 1) this is the witness of the celebrated Choi map; for
    k = d-1 the operator is completely copositive and detects no PPT state.
    """
    _validate_dk(d, k)
    base = np.zeros(d)
    base[0], base[1 : k + 1] = d - k - 1, 1.0
    return HermitianOp(bipartite(d), _comb_and_cyclic_diagonal(d, -1.0, base))


def choi_map(d: int, k: int) -> LinearMapTable:
    """The positive map x -> (d-k) diag(x) + sum_{l=1..k} diag(S^l x S^-l) - x.

    S is the cyclic shift e_i -> e_{i+1 mod d}; (d, k) = (3, 1) is the
    unnormalized Choi map. The table is the inverse Choi-Jamiolkowski image
    of witness_dk(d, k): phi(e_ij) is block (i, j) of the witness.
    """
    return dejamiolkowski(witness_dk(d, k))


def jamiolkowski(table: LinearMapTable) -> HermitianOp:
    """Bipartite operator sum_ij e_ij x phi(e_ij) of a tabulated map: its Choi operator."""
    return table.choi


def dejamiolkowski(w: HermitianOp) -> LinearMapTable:
    """The map whose Choi operator is the bipartite w: phi(e_ij) is block (i, j)."""
    return LinearMapTable(w)


def ha_state(d: int, gamma: float) -> HermitianOp:
    """Unit-trace PPT state of the Ha family on C^d x C^d.

    Diagonal blocks are the cyclic shifts S^i diag(1, a_gamma, 1, ..., 1,
    b_gamma) S^-i; the off-diagonal blocks e_ij produce the |ii><jj| comb.
    Entangled for gamma < 1, separable at gamma = 1, undetected by the
    witness family for gamma >= 1.
    """
    a, b, n = _ha_weights(d, gamma)
    base = np.ones(d)
    base[1], base[d - 1] = a, b
    # times 1/n, not / n: the bits the complex division by n + 0j gave
    return HermitianOp(bipartite(d), _comb_and_cyclic_diagonal(d, 1.0, base) * (1.0 / n))


def _cyclic_vector(d: int, offset: int) -> np.ndarray:
    """The unnormalized vector sum_i e_i x e_{i+offset mod d} on C^d x C^d."""
    vec = np.zeros(d * d)
    i = np.arange(d)
    vec[i * d + (i + offset) % d] = 1.0
    return vec


def _cyclic_projector(d: int, offset: int) -> HermitianOp:
    """d |v><v| for the unit vector v = (1/sqrt d) sum_i e_i x e_{i+offset mod d}."""
    _validate_d(d)
    vec = _cyclic_vector(d, offset)
    return HermitianOp(bipartite(d), np.outer(vec, vec.conj()))


def projector_p(d: int) -> HermitianOp:
    """Rank-1 operator d |psi><psi| with psi = (1/sqrt d) sum_i e_i x e_{i-1 mod d}.

    At d = 3 its support sits at composite indices {2, 3, 7}; adding lambda
    times this operator to witness_dk fills exactly the lambda block of the
    perturbed witness matrix.
    """
    return _cyclic_projector(d, -1)


def projector_q(d: int) -> HermitianOp:
    """Rank-1 operator d |phi><phi| with phi = (1/sqrt d) sum_i e_i x e_{i+1 mod d}.

    At d = 3 its support sits at composite indices {1, 5, 6} (the mu block).
    """
    return _cyclic_projector(d, +1)


def perturbed_witness(d: int, k: int, lam: float = 0.0, mu: float = 0.0) -> HermitianOp:
    """witness_dk(d, k) + lambda * projector_p(d) + mu * projector_q(d).

    k = d-1 is allowed (the completely copositive edge case); lambda and mu
    must be finite and >= 0.
    """
    w = witness_dk(d, k)  # validates (d, k) first
    for name, value in (("lambda", lam), ("mu", mu)):
        if not np.isfinite(value) or value < 0:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    p, q = projector_p(d).matrix, projector_q(d).matrix
    return HermitianOp(w.space, w.matrix + lam * p + mu * q)


def convex_combination(ops: list[HermitianOp], weights: list[float]) -> HermitianOp:
    """sum_i p_i op_i for nonnegative weights summing to one."""
    if len(ops) != len(weights) or not ops:
        raise ValueError("need one weight per operator and at least one operator")
    if not all(w >= 0 for w in weights):  # a NaN weight fails too
        raise ValueError(f"weights must be nonnegative, got {weights}")
    if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(
            f"weights must sum to 1 within {WEIGHT_SUM_TOL:g}, got sum {sum(weights)!r}"
        )
    space = ops[0].space
    for op in ops[1:]:
        if op.space != space:
            raise ValueError("operators live on different spaces")
    acc = np.zeros_like(ops[0].matrix)
    for w, op in zip(weights, ops):
        acc = acc + w * op.matrix
    return HermitianOp(space, acc)


def witness_from_difference(q: HermitianOp, p: HermitianOp) -> HermitianOp:
    """Q - P for PSD Q and P: a witness candidate.

    Block positivity is NOT established here; run a block-positivity scan
    before treating the result as a witness.
    """
    q._require_same_space(p)
    for name, op in (("q", q), ("p", p)):
        _require_psd(name, *is_psd(op))
    return q - p


def maximally_mixed(space: TensorSpace) -> HermitianOp:
    """The unit-trace multiple of the identity (separable)."""
    n = space.total
    return HermitianOp(space, np.eye(n) / n)


def product_basis_state(space: TensorSpace, local_indices: list[int]) -> HermitianOp:
    """Projector onto a computational product basis vector (separable)."""
    idx = space.composite_index(local_indices)
    m = np.zeros((space.total, space.total))
    m[idx, idx] = 1.0
    return HermitianOp(space, m)


def max_entangled_projector(d: int) -> HermitianOp:
    """Unit-trace projector onto (1/sqrt d) sum_i e_i x e_i."""
    vec = _cyclic_vector(d, 0)
    vec /= np.sqrt(d)
    return HermitianOp(bipartite(d), np.outer(vec, vec.conj()))


def ghz_projector(num_parts: int = 3, d: int = 2) -> HermitianOp:
    """Projector onto (|0...0> + |(d-1)...(d-1)>)/sqrt(2) on d^N."""
    if num_parts < 2:
        raise ValueError("need at least two factors")
    space = TensorSpace((d,) * num_parts)
    vec = np.zeros(space.total)
    vec[0] = 1.0 / np.sqrt(2.0)
    vec[-1] = 1.0 / np.sqrt(2.0)
    return HermitianOp(space, np.outer(vec, vec.conj()))

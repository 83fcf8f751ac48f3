"""Constructors for the witness and state families on C^d x C^d.

The block witness family W_{d,k}, its positive-map counterparts tau_{d,k},
the one-parameter family of PPT states rho_gamma due to Ha, the maximally
entangled projectors P and Q used to perturb witnesses, and the generic
convex/difference constructors. Witnesses are kept unnormalized with integer
entries exactly as usually printed; states carry unit trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    HermitianOp,
    TensorSpace,
    bipartite,
    is_psd,
    kron,
    matrix_unit,
    pinch,
    shift_operator,
)

#: Hermiticity-preservation gate for map tables: phi(e_ij)^dag == phi(e_ji).
MAP_HERMITICITY_TOL = 1e-12


def _validate_dk(d: int, k: int) -> None:
    if d < 3:
        raise ValueError(f"local dimension must satisfy d >= 3, got d={d}")
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must satisfy 1 <= k <= d-1, got k={k} for d={d}")


@dataclass(frozen=True)
class WitnessFamilyParams:
    """Member (d, k, lambda, mu) of the perturbed witness family.

    k = d-1 is allowed; it is the completely copositive edge case that no
    longer detects any PPT state.
    """

    d: int
    k: int
    lam: float = 0.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        _validate_dk(self.d, self.k)
        for name, value in (("lambda", self.lam), ("mu", self.mu)):
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class StateFamilyParams:
    """Parameters (d, gamma) of the Ha state family with derived weights.

    a_gamma = (gamma^2 + d - 1)/d, b_gamma = (gamma^-2 + d - 1)/d and the
    normalization n_gamma = d^2 - 2 + gamma^2 + gamma^-2.
    """

    d: int
    gamma: float

    def __post_init__(self) -> None:
        if self.d < 3:
            raise ValueError(f"local dimension must satisfy d >= 3, got d={self.d}")
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")

    @property
    def a_gamma(self) -> float:
        return (self.gamma**2 + self.d - 1) / self.d

    @property
    def b_gamma(self) -> float:
        return (self.gamma**-2 + self.d - 1) / self.d

    @property
    def n_gamma(self) -> float:
        return self.d**2 - 2 + self.gamma**2 + self.gamma**-2


@dataclass(frozen=True)
class LinearMapTable:
    """A linear map M_{d_in} -> M_{d_out} tabulated on the matrix units.

    images[i*d_in + j] holds phi(e_ij). The table must be Hermiticity
    preserving: phi(e_ij)^dag == phi(e_ji) entrywise.
    """

    d_in: int
    d_out: int
    images: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.d_in**2:
            raise ValueError(
                f"expected {self.d_in ** 2} images, got {len(self.images)}"
            )
        frozen = []
        for img in self.images:
            m = np.array(img, dtype=complex)
            if m.shape != (self.d_out, self.d_out):
                raise ValueError(f"image shape {m.shape} != ({self.d_out}, {self.d_out})")
            m.setflags(write=False)
            frozen.append(m)
        object.__setattr__(self, "images", tuple(frozen))
        for i in range(self.d_in):
            for j in range(self.d_in):
                dev = np.abs(self.image(i, j).conj().T - self.image(j, i)).max()
                if dev > MAP_HERMITICITY_TOL:
                    raise ValueError(
                        f"map is not Hermiticity preserving at ({i},{j}): "
                        f"deviation {dev:.3e}"
                    )

    def image(self, i: int, j: int) -> np.ndarray:
        return self.images[i * self.d_in + j]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the map on an arbitrary d_in x d_in matrix by linearity."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.d_in, self.d_in):
            raise ValueError(f"argument shape {x.shape} != ({self.d_in}, {self.d_in})")
        out = np.zeros((self.d_out, self.d_out), dtype=complex)
        for i in range(self.d_in):
            for j in range(self.d_in):
                out += x[i, j] * self.image(i, j)
        return out


def witness_dk(d: int, k: int) -> HermitianOp:
    """Block entanglement witness on C^d x C^d.

    Diagonal blocks X_ii = (d-k-1) e_ii + sum_{l=1..k} e_{i+l,i+l} (indices
    mod d), off-diagonal blocks X_ij = -e_ij. The trace is d(d-1). For
    (d, k) = (3, 1) this is the witness of the celebrated Choi map; for
    k = d-1 the operator is completely copositive and detects no PPT state.
    """
    _validate_dk(d, k)
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


def choi_map(d: int, k: int) -> LinearMapTable:
    """The positive map x -> (d-k) pinch(x) + sum_{l=1..k} pinch(S^l x S^-l) - x.

    Tabulated on the matrix units of M_d; (d, k) = (3, 1) is the unnormalized
    Choi map. Its witness under the Choi-Jamiolkowski correspondence equals
    witness_dk(d, k).
    """
    _validate_dk(d, k)
    s = shift_operator(d)
    powers = [np.linalg.matrix_power(s, l) for l in range(k + 1)]
    images = []
    for i in range(d):
        for j in range(d):
            x = matrix_unit(d, i, j)
            out = (d - k) * pinch(x) - x
            for l in range(1, k + 1):
                out = out + pinch(powers[l] @ x @ powers[l].conj().T)
            images.append(out)
    return LinearMapTable(d_in=d, d_out=d, images=tuple(images))


def identity_map(d: int) -> LinearMapTable:
    """Tabulated identity map on M_d."""
    images = tuple(matrix_unit(d, i, j) for i in range(d) for j in range(d))
    return LinearMapTable(d_in=d, d_out=d, images=images)


def transpose_map(d: int) -> LinearMapTable:
    """Tabulated transposition map on M_d."""
    images = tuple(matrix_unit(d, j, i) for i in range(d) for j in range(d))
    return LinearMapTable(d_in=d, d_out=d, images=images)


def jamiolkowski(table: LinearMapTable) -> HermitianOp:
    """Bipartite operator sum_ij e_ij x phi(e_ij) of a tabulated map."""
    d_in, d_out = table.d_in, table.d_out
    w = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            w += kron(matrix_unit(d_in, i, j), table.image(i, j))
    return HermitianOp(TensorSpace((d_in, d_out)), w)


def dejamiolkowski(w: HermitianOp) -> LinearMapTable:
    """Invert the block assembly: phi(e_ij) is block (i, j) of w.

    Requires a bipartite space; jamiolkowski(dejamiolkowski(w)) == w exactly.
    """
    if w.space.nparts != 2:
        raise ValueError(f"expected a bipartite space, got {w.space.dims}")
    d_in, d_out = w.space.dims
    images = tuple(
        w.matrix[i * d_out : (i + 1) * d_out, j * d_out : (j + 1) * d_out]
        for i in range(d_in)
        for j in range(d_in)
    )
    return LinearMapTable(d_in=d_in, d_out=d_out, images=images)


def ha_state(d: int, gamma: float) -> HermitianOp:
    """Unit-trace PPT state of the Ha family on C^d x C^d.

    Diagonal blocks are the cyclic shifts S^i diag(1, a_gamma, 1, ..., 1,
    b_gamma) S^-i; the off-diagonal blocks e_ij produce the |ii><jj| comb.
    Entangled for gamma < 1, separable at gamma = 1, undetected by the
    witness family for gamma >= 1.
    """
    params = StateFamilyParams(d, gamma)
    a, b, n = params.a_gamma, params.b_gamma, params.n_gamma
    base = np.ones(d, dtype=complex)
    base[1], base[d - 1] = a, b
    rho = np.zeros((d * d, d * d), dtype=complex)
    comb = np.arange(d) * (d + 1)  # composite index of e_i x e_i
    rho[comb[:, None], comb] = 1.0
    idx = np.arange(d * d)  # e_i x e_m on the diagonal carries base[(m - i) mod d]
    rho[idx, idx] = base[(idx % d - idx // d) % d]
    return HermitianOp(bipartite(d), rho / n)


def _cyclic_projector(d: int, offset: int) -> HermitianOp:
    """d |v><v| for the unit vector v = (1/sqrt d) sum_i e_i x e_{i+offset mod d}."""
    vec = np.zeros(d * d, dtype=complex)
    for i in range(d):
        vec[i * d + (i + offset) % d] = 1.0
    return HermitianOp(bipartite(d), np.outer(vec, vec.conj()))


def projector_p(d: int) -> HermitianOp:
    """Rank-1 operator d |psi><psi| with psi = (1/sqrt d) sum_i e_i x e_{i-1 mod d}.

    At d = 3 its support sits at composite indices {2, 3, 7}; adding lambda
    times this operator to witness_dk fills exactly the lambda block of the
    perturbed witness matrix.
    """
    if d < 3:
        raise ValueError(f"local dimension must satisfy d >= 3, got d={d}")
    return _cyclic_projector(d, -1)


def projector_q(d: int) -> HermitianOp:
    """Rank-1 operator d |phi><phi| with phi = (1/sqrt d) sum_i e_i x e_{i+1 mod d}.

    At d = 3 its support sits at composite indices {1, 5, 6} (the mu block).
    """
    if d < 3:
        raise ValueError(f"local dimension must satisfy d >= 3, got d={d}")
    return _cyclic_projector(d, +1)


def perturbed_witness(d: int, k: int, lam: float = 0.0, mu: float = 0.0) -> HermitianOp:
    """witness_dk(d, k) + lambda * projector_p(d) + mu * projector_q(d)."""
    params = WitnessFamilyParams(d, k, lam, mu)
    w = witness_dk(params.d, params.k)
    if params.lam:
        w = w + params.lam * projector_p(d)
    if params.mu:
        w = w + params.mu * projector_q(d)
    return w


def convex_combination(ops: list[HermitianOp], weights: list[float]) -> HermitianOp:
    """sum_i p_i op_i for nonnegative weights summing to one."""
    if len(ops) != len(weights) or not ops:
        raise ValueError("need one weight per operator and at least one operator")
    if any(w < 0 for w in weights):
        raise ValueError(f"weights must be nonnegative, got {weights}")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1 within 1e-12, got sum {sum(weights)!r}")
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
        ok, spectrum = is_psd(op)
        if not ok:
            raise ValueError(
                f"{name} must be PSD; min eigenvalue {spectrum.min:.3e}"
            )
    return q - p


def maximally_mixed(space: TensorSpace) -> HermitianOp:
    """The unit-trace multiple of the identity (separable)."""
    n = space.total
    return HermitianOp(space, np.eye(n, dtype=complex) / n)


def product_basis_state(space: TensorSpace, local_indices: list[int]) -> HermitianOp:
    """Projector onto a computational product basis vector (separable)."""
    idx = space.composite_index(local_indices)
    m = np.zeros((space.total, space.total), dtype=complex)
    m[idx, idx] = 1.0
    return HermitianOp(space, m)


def max_entangled_projector(d: int) -> HermitianOp:
    """Unit-trace projector onto (1/sqrt d) sum_i e_i x e_i."""
    vec = np.zeros(d * d, dtype=complex)
    for i in range(d):
        vec[i * d + i] = 1.0
    vec /= np.sqrt(d)
    return HermitianOp(bipartite(d), np.outer(vec, vec.conj()))

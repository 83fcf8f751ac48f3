"""Index conventions, partial transposition, and spectral primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewkit import (
    HermitianOp,
    Spectrum,
    TensorSpace,
    bipartite,
    choi_map,
    is_psd,
    partial_transpose,
    ha_state,
    tensor_op,
    trace_pair,
    witness_dk,
)
from ewkit import core
from ewkit.certify import REVALIDATE_TOL
from ewkit.core import PSD_RTOL
from ewkit.detect import sweep

from oracles import kron_chain, matrix_unit, pinch, random_hermitian, shift_operator

DIM_CHOICES = [(2, 2), (2, 3), (3, 3), (2, 2, 2)]


def _hermitian_with_signed_zeros() -> np.ndarray:
    """An exactly Hermitian 9 x 9 matrix with -0.0 planted in both parts."""
    m = random_hermitian(np.random.default_rng(7), 9)
    m[0, 1] = m[1, 0] = complex(-0.0, 0.0)
    m[0, 1] = complex(m[0, 1].real, -0.0)  # m[1, 0] keeps +0.0, its conjugate
    m[2, 2] = complex(1.5, -0.0)  # conj gives +0.0: equal, but not bit-equal
    m[3, 4], m[4, 3] = complex(-0.0, 2.0), complex(-0.0, -2.0)
    return m


class TestTensorSpace:
    def test_total_and_index(self):
        space = TensorSpace((3, 3))
        assert space.total == 9
        # e_0 x e_2 sits at row-major index 0*3 + 2
        assert space.composite_index([0, 2]) == 2
        assert space.composite_index([2, 1]) == 7

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            TensorSpace((1, 3))
        with pytest.raises(ValueError):
            TensorSpace(())
        for dims in [(2.5, 3), ("3", "3"), (3.0, 3)]:
            with pytest.raises(ValueError, match="must be integers"):
                TensorSpace(dims)
        with pytest.raises(ValueError, match="must be integers"):
            HermitianOp(bipartite(2.5), np.eye(4))
        assert TensorSpace((np.int64(3), 4)).dims == (3, 4)

    def test_index_range_checked(self):
        for local_indices in ([0, 2], [-1, 0], [0], [0, 0, 0]):
            with pytest.raises(ValueError):
                TensorSpace((2, 2)).composite_index(local_indices)


class TestHermitianOp:
    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOp(bipartite(2), m)

    def test_symmetrizes_small_drift(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-14
        op = HermitianOp(bipartite(2), m)
        assert abs(op.matrix[0, 1] - op.matrix[1, 0].conjugate()) == 0.0

    @pytest.mark.parametrize("make", [
        _hermitian_with_signed_zeros,
        lambda: witness_dk(3, 1).matrix,
        lambda: ha_state(3, 0.37).matrix,
        lambda: np.eye(9, dtype=complex),
    ])
    def test_exactly_hermitian_input_is_stored_symmetrized_bit_for_bit(self, make):
        m = make()
        assert np.array_equal(m, m.conj().T)
        stored = HermitianOp(bipartite(3), m).matrix
        assert stored.tobytes() == ((m + m.conj().T) / 2).tobytes()

    def test_shape_must_match_space(self):
        with pytest.raises(ValueError, match="shape"):
            HermitianOp(bipartite(2), np.eye(5, dtype=complex))

    @pytest.mark.filterwarnings("error")
    # 1e308 is finite, but the stored (M + M^dag) / 2 overflows
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.nan), 1e308])
    def test_rejects_non_finite_entry(self, value):
        m = np.eye(4, dtype=complex)
        m[2, 2] = value
        with pytest.raises(ValueError, match="finite"):
            HermitianOp(bipartite(2), m)

    def test_stored_matrix_does_not_share_the_input(self):
        m = np.eye(4, dtype=complex)
        op = HermitianOp(bipartite(2), m)
        m[0, 0] = 5.0
        assert op.matrix[0, 0] == 1.0

    def test_matrix_is_read_only(self):
        op = HermitianOp(bipartite(2), np.eye(4, dtype=complex))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0

    def test_arithmetic(self):
        a = HermitianOp(bipartite(2), np.eye(4, dtype=complex))
        b = HermitianOp(bipartite(2), 2 * np.eye(4, dtype=complex))
        assert np.array_equal((a + b).matrix, 3 * np.eye(4))
        assert np.array_equal((b - a).matrix, np.eye(4))
        assert np.array_equal((2.0 * a).matrix, 2 * np.eye(4))
        assert np.array_equal((-a).matrix, -np.eye(4))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", [complex, np.complex64, np.complex128])
    def test_complex_scalars_need_a_zero_imaginary_part(self, kind):
        w = witness_dk(3, 1)
        for product in (lambda c: w * c, lambda c: c * w):
            with pytest.raises(ValueError, match="only real scalars"):
                product(kind(2 + 1j))
            assert np.array_equal(product(kind(2)).matrix, 2 * w.matrix)


def _local(m: np.ndarray) -> HermitianOp:
    return HermitianOp(TensorSpace((len(m),)), m)


class TestIdentitySemantics:
    """The array-holding dataclasses compare and hash by identity."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: witness_dk(3, 1),
            lambda: is_psd(witness_dk(3, 1))[1],
            lambda: choi_map(3, 1),
            lambda: sweep(3, 1, [0.5], [0.0], [0.0]),
        ],
        ids=["HermitianOp", "Spectrum", "LinearMapTable", "SweepTable"],
    )
    def test_eq_and_hash_by_identity(self, make):
        a, b = make(), make()
        assert (a == b) is False
        assert (a != b) is True
        assert a == a
        assert len({a, b, a}) == 2


class TestKron:
    """tensor_op is the library's Kronecker product."""

    def test_identity(self):
        eye2 = _local(np.eye(2, dtype=complex))
        assert np.array_equal(tensor_op(eye2, eye2).matrix, np.eye(4))

    def test_basis_bookkeeping(self):
        # e_00 x e_11 on 3 x 3: the single entry lands at (0*3+1, 0*3+1)
        out = tensor_op(_local(matrix_unit(3, 0, 0)), _local(matrix_unit(3, 1, 1)))
        expected = np.zeros((9, 9), dtype=complex)
        expected[1, 1] = 1.0
        assert np.array_equal(out.matrix, expected)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(11)
        a, b, c, d = (random_hermitian(rng, 3) for _ in range(4))
        ab, cd = tensor_op(_local(a), _local(b)), tensor_op(_local(c), _local(d))
        left = ab.matrix @ cd.matrix
        right = np.kron(a @ c, b @ d)
        assert np.allclose(left, right, atol=1e-12)

    def test_tensor_op_concatenates_spaces(self):
        a = HermitianOp(TensorSpace((2,)), np.array([[1, 0], [0, 0]], dtype=complex))
        b = HermitianOp(bipartite(3), np.eye(9, dtype=complex))
        out = tensor_op(a, b)
        assert out.space.dims == (2, 3, 3)
        assert np.array_equal(out.matrix, np.kron(a.matrix, b.matrix))


class TestShiftOperator:
    """The shift of the choi_map formula oracle."""

    def test_d2_matrix(self):
        assert np.array_equal(shift_operator(2), np.array([[0, 1], [1, 0]]))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_cyclicity(self, d):
        s = shift_operator(d)
        assert np.array_equal(np.linalg.matrix_power(s, d), np.eye(d))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_shifts_basis_vectors(self, d):
        s = shift_operator(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            out = s @ e
            assert out[(i + 1) % d] == 1.0
            assert np.count_nonzero(out) == 1


class TestPinch:
    """The pinching of the choi_map formula oracle."""

    def test_diagonal_unchanged(self):
        m = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert np.array_equal(pinch(m), m)

    def test_all_ones(self):
        assert np.array_equal(pinch(np.ones((3, 3))), np.eye(3))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(pinch(pinch(m)), pinch(m))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            pinch(np.ones((2, 3)))


def _random_op(space: TensorSpace, seed: int) -> HermitianOp:
    rng = np.random.default_rng(seed)
    return HermitianOp(space, random_hermitian(rng, space.total))


class TestPartialTranspose:
    def test_all_false_is_identity(self):
        op = _random_op(bipartite(3), 0)
        out = partial_transpose(op, (False, False))
        assert np.array_equal(out.matrix, op.matrix)

    def test_all_true_is_full_transpose(self):
        op = _random_op(bipartite(3), 1)
        out = partial_transpose(op, (True, True))
        assert np.allclose(out.matrix, op.matrix.T, atol=0)

    @pytest.mark.parametrize("dims", DIM_CHOICES)
    def test_product_factorization(self, dims):
        # tau^sigma on A_1 x ... x A_N equals the kron of (A_k or A_k^T)
        rng = np.random.default_rng(sum(dims))
        factors = [random_hermitian(rng, d) for d in dims]
        op = HermitianOp(TensorSpace(dims), kron_chain(factors, [False] * len(dims)))
        for pattern in range(2 ** len(dims)):
            flags = [(pattern >> i) & 1 == 1 for i in range(len(dims))]
            expected = kron_chain(factors, flags)
            out = partial_transpose(op, flags)
            assert np.allclose(out.matrix, expected, atol=1e-12)

    def test_length_mismatch(self):
        op = _random_op(bipartite(2), 2)
        with pytest.raises(ValueError, match="factors"):
            partial_transpose(op, (True,))

    @pytest.mark.parametrize("dims", DIM_CHOICES)
    def test_pairing_invariance(self, dims):
        # Tr(W rho) is unchanged when both sides are transposed the same way.
        space = TensorSpace(dims)
        w = _random_op(space, 7)
        rho = _random_op(space, 8)
        base = trace_pair(w, rho)
        for pattern in range(2 ** len(dims)):
            flags = tuple((pattern >> i) & 1 == 1 for i in range(len(dims)))
            moved = trace_pair(
                partial_transpose(w, flags), partial_transpose(rho, flags)
            )
            assert abs(moved - base) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from(DIM_CHOICES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    pattern=st.integers(min_value=0, max_value=7),
)
def test_partial_transpose_involution_and_trace(dims, seed, pattern):
    space = TensorSpace(dims)
    rng = np.random.default_rng(seed)
    op = HermitianOp(space, random_hermitian(rng, space.total))
    flags = tuple((pattern >> i) & 1 == 1 for i in range(len(dims)))
    moved = partial_transpose(op, flags)
    assert abs(moved.trace() - op.trace()) <= 1e-12
    assert np.abs(moved.matrix - moved.matrix.conj().T).max() <= 1e-12
    back = partial_transpose(moved, flags)
    assert np.array_equal(back.matrix, op.matrix)


class TestIsPsd:
    def test_identity(self):
        ok, spectrum = is_psd(HermitianOp(bipartite(2), np.eye(4, dtype=complex)))
        assert ok
        assert np.allclose(spectrum.eigenvalues, np.ones(4))

    def test_negative_diagonal(self):
        m = np.diag([1.0, -0.5, 1.0, 1.0]).astype(complex)
        ok, spectrum = is_psd(HermitianOp(bipartite(2), m))
        assert not ok
        assert spectrum.min == pytest.approx(-0.5, abs=1e-14)

    def test_matches_diagonal_sign_test(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            diag = rng.standard_normal(9)
            op = HermitianOp(bipartite(3), np.diag(diag).astype(complex))
            ok, _ = is_psd(op)
            floor = -1e-10 * np.abs(diag).max()
            assert ok == bool(diag.min() >= floor)

    def test_spectrum_sorted(self):
        op = _random_op(bipartite(3), 33)
        _, spectrum = is_psd(op)
        assert np.all(np.diff(spectrum.eigenvalues) >= 0)
        assert isinstance(spectrum, Spectrum)


#: Every W_{d,k} with d <= 8, and Ha states on both sides of gamma = 1.
REAL_OPERATORS = [("witness", d, k) for d in range(3, 9) for k in range(1, d)] + [
    ("ha", d, gamma) for d in range(3, 9) for gamma in (0.3, 0.7, 1.0, 2.5)
]


class TestRealSpectrum:
    """is_psd solves real operators in real arithmetic, complex ones as before."""

    @pytest.mark.parametrize("flags", [None, (False, True), (True, False)])
    @pytest.mark.parametrize("kind, d, x", REAL_OPERATORS)
    def test_verdict_and_spectrum_match_the_complex_solver(self, kind, d, x, flags):
        op = witness_dk(d, x) if kind == "witness" else ha_state(d, x)
        if flags:
            op = partial_transpose(op, flags)
        assert op.matrix.dtype == np.float64
        ok, spectrum = is_psd(op)
        eigs = np.linalg.eigvalsh(op.matrix.astype(complex))
        assert ok == bool(eigs[0] >= -PSD_RTOL * np.abs(eigs).max())
        assert np.abs(spectrum.eigenvalues - eigs).max() <= REVALIDATE_TOL["eigenvalues"]

    @pytest.mark.parametrize("d", [3, 4])
    def test_solver_follows_the_imaginary_part(self, d, monkeypatch):
        solve = np.linalg.eigvalsh
        dtypes = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: dtypes.append(a.dtype) or solve(a))
        op = _random_op(bipartite(d), 5)
        assert op.matrix.imag.any()
        _, spectrum = is_psd(op)
        assert spectrum.eigenvalues.tobytes() == solve(op.matrix).tobytes()
        is_psd(witness_dk(3, 1))
        assert dtypes == [np.dtype(complex), np.dtype(float)]


def _block(rng: np.random.Generator, s: int, kind: str, complex_: bool) -> np.ndarray:
    """An s x s Hermitian block: indefinite, PSD, or PSD of rank s - 1 (at the boundary)."""
    g = rng.standard_normal((s, s)) + (1j * rng.standard_normal((s, s)) if complex_ else 0)
    if kind == "indefinite":
        return (g + g.conj().T) / 2
    if kind == "boundary":
        g[:, -1] = 0  # one zero eigenvalue; a 1 x 1 block becomes an exact 0
    return g @ g.conj().T


def _drawn_matrix(data, n: int) -> np.ndarray:
    """A Hermitian n x n matrix: permuted blocks, dense, or a permuted tridiagonal."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    complex_ = data.draw(st.booleans())
    kind = data.draw(st.sampled_from(["blocks", "dense", "tridiagonal"]))
    if kind == "dense":
        m = _block(rng, n, data.draw(st.sampled_from(["indefinite", "psd", "boundary"])), complex_)
    elif kind == "tridiagonal":
        off = rng.standard_normal(n - 1) + (1j * rng.standard_normal(n - 1) if complex_ else 0)
        m = np.diag(rng.uniform(2.5, 3.0, n)) + np.diag(off, 1) + np.diag(off.conj(), -1)
    else:
        m = np.zeros((n, n), dtype=complex if complex_ else float)
        start = 0
        while start < n:
            s = min(n - start, data.draw(st.integers(1, 12)))
            block = data.draw(st.sampled_from(["indefinite", "psd", "psd", "boundary", "boundary"]))
            m[start:start + s, start:start + s] = _block(rng, s, block, complex_)
            start += s
    order = rng.permutation(n)
    return m[order][:, order]


class TestBlockSpectrum:
    """is_psd solves a large sparse matrix block by block, with the whole solve's verdict."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_verdict_and_spectrum_match_the_whole_solve(self, data):
        n = data.draw(st.integers(core._BLOCK_SOLVE_MIN_DIM, core._BLOCK_SOLVE_MIN_DIM + 60))
        op = HermitianOp(TensorSpace((n,)), _drawn_matrix(data, n))
        ok, spectrum = is_psd(op)
        eigs = np.linalg.eigvalsh(op.matrix)
        assert ok == bool(eigs[0] >= -PSD_RTOL * np.abs(eigs).max())
        assert np.all(np.diff(spectrum.eigenvalues) >= 0)
        bound = n * np.finfo(float).eps * np.abs(eigs).max()
        assert np.abs(spectrum.eigenvalues - eigs).max() <= bound

    @pytest.mark.parametrize("flags", [None, (False, True)])
    def test_witness_at_d_20_is_solved_in_small_blocks(self, flags, monkeypatch):
        solve = np.linalg.eigvalsh
        shapes = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or solve(a))
        op = witness_dk(20, 1)
        if flags:
            op = partial_transpose(op, flags)
        _, spectrum = is_psd(op)
        assert shapes and max(shape[-1] for shape in shapes) <= (20 if flags is None else 2)
        eigs = solve(op.matrix)
        bound = 400 * np.finfo(float).eps * np.abs(eigs).max()
        assert np.abs(spectrum.eigenvalues - eigs).max() <= bound


class TestTracePair:
    def test_identity_pair(self):
        space = bipartite(3)
        eye = HermitianOp(space, np.eye(9, dtype=complex))
        mixed = HermitianOp(space, np.eye(9, dtype=complex) / 9)
        assert trace_pair(eye, mixed) == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        a = HermitianOp(bipartite(2), np.eye(4, dtype=complex))
        b = HermitianOp(bipartite(3), np.eye(9, dtype=complex))
        with pytest.raises(ValueError, match="spaces differ"):
            trace_pair(a, b)

    def test_imaginary_trace_raises(self):
        # the gate keeps a non-Hermitian matrix out, so one is planted past it
        space = bipartite(3)
        w = HermitianOp(space, np.eye(9, dtype=complex))
        object.__setattr__(w, "matrix", 1j * np.eye(9))
        mixed = HermitianOp(space, np.eye(9) / 9)
        with pytest.raises(ArithmeticError, match=r"imaginary part 1\.000e\+00"):
            trace_pair(w, mixed)

    def test_matches_matmul_trace(self):
        space = bipartite(3)
        w = _random_op(space, 40)
        rho = _random_op(space, 41)
        direct = np.trace(w.matrix @ rho.matrix).real
        assert trace_pair(w, rho) == pytest.approx(direct, abs=1e-12)

"""The storage rule: a real operator is held as float64, a complex one as complex128.

Every operator the builders make is real; a complex input (nonzero
imaginary part) keeps complex128 and the complex formulas, bit for bit,
through the gate, the readers and writers, partial transposition, the
eigensolver and the trace pairing.
"""

import numpy as np
import pytest

from ewkit import (
    HermitianOp,
    LinearMapTable,
    ScanConfig,
    TensorSpace,
    bipartite,
    blockpos_scan,
    choi_map,
    dejamiolkowski,
    ghz_projector,
    ha_state,
    identity_map,
    maximally_mixed,
    partial_transpose,
    perturbed_witness,
    product_basis_state,
    projector_p,
    projector_q,
    read_map_table,
    read_operator,
    tensor_op,
    trace_pair,
    transpose_map,
    witness_dk,
    write_map_table,
    write_operator,
)
from ewkit.construct import max_entangled_projector

from oracles import random_hermitian

BUILDERS = {
    "witness_dk": lambda: witness_dk(4, 2),
    "ha_state": lambda: ha_state(4, 0.5),
    "projector_p": lambda: projector_p(4),
    "projector_q": lambda: projector_q(4),
    "perturbed_witness": lambda: perturbed_witness(3, 1, 0.5, 0.25),
    "maximally_mixed": lambda: maximally_mixed(bipartite(3)),
    "product_basis_state": lambda: product_basis_state(bipartite(3), [1, 2]),
    "max_entangled_projector": lambda: max_entangled_projector(3),
    "ghz_projector": lambda: ghz_projector(3, 2),
    "choi_map": lambda: choi_map(3, 1).choi,
    "identity_map": lambda: identity_map(3).choi,
    "transpose_map": lambda: transpose_map(3).choi,
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_builders_store_float64(build):
    assert build().matrix.dtype == np.float64


@pytest.mark.parametrize("dtype, stored", [(np.int64, float), (np.float32, float), (bool, float),
                                           (np.complex64, complex), (complex, complex),
                                           (object, complex)])
def test_stored_dtype_follows_the_input_dtype_not_its_values(dtype, stored):
    # np.eye has a zero imaginary part: a complex input stays complex all the same
    assert HermitianOp(bipartite(2), np.eye(4, dtype=dtype)).matrix.dtype == stored


def test_object_array_of_python_complex_values_is_stored_complex():
    m = np.array([[1, 2j], [-2j, 3]], dtype=object)
    op = HermitianOp(TensorSpace((2,)), m)
    assert op.matrix.dtype == complex
    assert np.array_equal(op.matrix, m.astype(complex))


def test_writer_file_with_zero_im_reads_back_float64(tmp_path):
    path = str(tmp_path / "w.json")
    as_complex = HermitianOp(bipartite(3), witness_dk(3, 1).matrix.astype(complex))
    for op in (witness_dk(3, 1), ha_state(4, 0.3), as_complex):
        write_operator(path, op)
        back, _ = read_operator(path)
        assert back.matrix.dtype == np.float64
        assert back.matrix.tobytes() == op.matrix.real.tobytes()


def test_real_operators_stay_real_through_the_operations():
    w, rho = witness_dk(3, 1), ha_state(3, 0.5)
    for op in (partial_transpose(w, (False, True)), w + rho, w - rho, 2.5 * w, -w,
               tensor_op(projector_p(3), maximally_mixed(bipartite(2)))):
        assert op.matrix.dtype == np.float64


def test_scan_certificate_does_not_depend_on_storage():
    for w in (witness_dk(3, 1), projector_q(4) - projector_p(4)):
        as_complex = HermitianOp(w.space, w.matrix.astype(complex))
        config = ScanConfig(20, 30, 7)
        assert blockpos_scan(w, config).evidence == blockpos_scan(as_complex, config).evidence


def test_real_and_complex_operators_give_complex_results():
    w, c = witness_dk(3, 1), _complex_op(3)
    for op in (w + c, c + w, w - c, c - w):
        assert op.matrix.dtype == complex
    assert (w + c).matrix.tobytes() == ((w.matrix + c.matrix + (w.matrix + c.matrix).conj().T)
                                        / 2.0).tobytes()
    table = identity_map(3)
    assert dejamiolkowski(table.choi + c).choi.matrix.dtype == complex


def _complex_op(d: int, seed: int = 0) -> HermitianOp:
    m = random_hermitian(np.random.default_rng([d, seed]), d * d)
    assert m.imag.any()
    return HermitianOp(bipartite(d), m)


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """The complex gate's formula."""
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("d", [3, 4])
class TestComplexKeepsComplexPath:
    """A complex operator gives the bits the complex128 formulas give."""

    def test_gate(self, d):
        rng = np.random.default_rng(d)
        n = d * d
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = m + m.conj().T + 1e-14 * rng.standard_normal((n, n))  # not exactly Hermitian
        op = HermitianOp(bipartite(d), m)
        assert op.matrix.dtype == complex
        assert op.matrix.tobytes() == _symmetrized(m).tobytes()

    def test_operator_file_round_trip(self, d, tmp_path):
        op, path = _complex_op(d), str(tmp_path / "c.json")
        write_operator(path, op)
        back, _ = read_operator(path)
        assert back.matrix.dtype == complex
        assert back.matrix.tobytes() == op.matrix.tobytes()

    def test_partial_transpose(self, d):
        op = _complex_op(d)
        n = d * d
        moved = op.matrix.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(n, n)
        pt = partial_transpose(op, (False, True))
        assert pt.matrix.dtype == complex
        assert pt.matrix.tobytes() == _symmetrized(moved).tobytes()

    def test_trace_pair(self, d):
        w, rho = _complex_op(d, 1), _complex_op(d, 2)
        expected = complex(np.einsum("ij,ji->", w.matrix, rho.matrix)).real
        assert trace_pair(w, rho) == expected

    def test_map_table_round_trip(self, d, tmp_path):
        op, path = _complex_op(d), str(tmp_path / "map.json")
        write_map_table(path, dejamiolkowski(op))
        back = read_map_table(path)
        assert back.choi.matrix.dtype == complex
        assert back.choi.matrix.tobytes() == op.matrix.tobytes()


def test_map_table_of_real_images_round_trips_real(tmp_path):
    path = str(tmp_path / "map.json")
    table = choi_map(4, 1)
    write_map_table(path, table)
    back = read_map_table(path)
    assert back.choi.matrix.dtype == np.float64
    assert back.choi.matrix.tobytes() == table.choi.matrix.tobytes()


def _complex_path_apply(table: LinearMapTable, x: np.ndarray) -> np.ndarray:
    """phi(x) with x cast to complex: the one formula apply had for every table."""
    blocks = table.choi.matrix.reshape(table.choi.space.dims * 2)
    return np.tensordot(np.asarray(x, dtype=complex), blocks, axes=([0, 1], [0, 2]))


def _real_table(d_in: int, d_out: int, seed: int = 0) -> LinearMapTable:
    m = np.random.default_rng([d_in, d_out, seed]).standard_normal((d_in * d_out,) * 2)
    return LinearMapTable(HermitianOp(TensorSpace((d_in, d_out)), m + m.T))


REAL_TABLES = {
    "identity_map": lambda: identity_map(3),
    "transpose_map": lambda: transpose_map(4),
    "choi_map": lambda: choi_map(5, 2),
    "dense_3_to_2": lambda: _real_table(3, 2),
    "dense_4_to_6": lambda: _real_table(4, 6),
}


class TestApplyKeepsARealMapReal:
    """LinearMapTable.apply chooses its dtype as the gate does."""

    def test_identity_map_of_the_identity_is_float64(self):
        out = identity_map(3).apply(np.eye(3))
        assert out.dtype == np.float64
        assert np.array_equal(out, np.eye(3))

    @pytest.mark.parametrize("make", REAL_TABLES.values(), ids=REAL_TABLES.keys())
    def test_real_table_and_argument_give_the_complex_path_values(self, make):
        table = make()
        rng = np.random.default_rng(table.d_out)
        integral = rng.integers(-3, 4, (table.d_in, table.d_in))
        for x in (integral, integral.astype(bool), rng.standard_normal((table.d_in,) * 2)):
            got, expected = table.apply(x), _complex_path_apply(table, x)
            assert got.dtype == np.float64 and not expected.imag.any()
            # the same d_in**2 products, summed in real rather than complex
            # arithmetic: within the dot product's rounding bound
            bound = table.d_in**2 * np.finfo(float).eps * np.tensordot(
                np.abs(x), np.abs(table.choi.matrix).reshape(table.choi.space.dims * 2),
                axes=([0, 1], [0, 2]))
            assert (np.abs(got - expected.real) <= bound).all()

    @pytest.mark.parametrize("name", ["identity_map", "transpose_map", "choi_map"])
    def test_integral_table_and_argument_give_the_complex_path_bits(self, name):
        # every product and partial sum is an exact small integer
        table = REAL_TABLES[name]()
        x = np.random.default_rng(1).integers(-3, 4, (table.d_in, table.d_in))
        assert table.apply(x).tobytes() == _complex_path_apply(table, x).real.tobytes()

    @pytest.mark.parametrize("case", ["complex_table", "complex_argument", "both_complex"])
    def test_complex_table_or_argument_gives_complex128(self, case):
        rng = np.random.default_rng(7)
        table = _real_table(3, 2) if case == "complex_argument" else dejamiolkowski(
            HermitianOp(TensorSpace((3, 2)), random_hermitian(rng, 6)))
        x = rng.standard_normal((3, 3))
        if case != "complex_table":
            x = x + 1j * rng.standard_normal((3, 3))
        got = table.apply(x)
        assert got.dtype == complex
        assert got.tobytes() == _complex_path_apply(table, x).tobytes()

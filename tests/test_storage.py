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

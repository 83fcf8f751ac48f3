"""File formats: bit-exact operator round trips, map tables, CSV, certificates."""

import functools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ewkit import (
    HA_SCHMIDT_ASSUMPTION,
    Certificate,
    HermitianOp,
    LinearMapTable,
    MalformedFileError,
    ScanConfig,
    TensorSpace,
    bipartite,
    blockpos_scan,
    certificate_to_json_dict,
    certify_atomic_conditional,
    certify_detection,
    certify_indecomposable,
    certify_ppt,
    choi_map,
    dejamiolkowski,
    ha_state,
    jamiolkowski,
    perturbed_witness,
    projector_p,
    projector_q,
    read_map_table,
    read_operator,
    sweep,
    witness_dk,
    write_map_table,
    write_operator,
    write_sweep_csv,
)
from ewkit import serialize
from ewkit.serialize import certificate_text
from ewkit.cli import main

from oracles import (
    identity_map,
    json_texts_per_cell,
    map_images,
    numeric_parts_per_entry,
    random_hermitian,
    sweep_rows,
    sweep_rows_csv,
    table_rows,
    write_map_table_per_entry,
    write_operator_per_entry,
)

EYE_4 = np.eye(4).tolist()
ZERO_4 = np.zeros((4, 4)).tolist()
ZERO_2 = [[0, 0], [0, 0]]
# The identity map on 2 x 2 matrices: image i*2 + j is e_ij.
UNITS_2 = [[[int((r, c) == (i, j)) for c in range(2)] for r in range(2)]
           for i in range(2) for j in range(2)]

# Operator documents that are not operators, each with what its error names.
BAD_OPERATOR_DOCS = {
    "not_an_object": ([1, 2], "JSON object"),
    "no_dims": ({"re": EYE_4, "im": ZERO_4}, "dims"),
    "dims_not_a_list": ({"dims": 4, "re": EYE_4, "im": ZERO_4}, "dims"),
    "dims_not_numbers": ({"dims": ["a", "b"], "re": EYE_4, "im": ZERO_4}, "dims"),
    "dim_below_two": ({"dims": [1, 4], "re": EYE_4, "im": ZERO_4}, ">= 2"),
    "re_not_numeric": ({"dims": [2, 2], "re": [["x"] * 4] * 4, "im": ZERO_4}, "numeric"),
    "im_not_numeric": ({"dims": [2, 2], "re": EYE_4, "im": "none"}, "numeric"),
    "meta_not_an_object": ({"dims": [2, 2], "re": EYE_4, "im": ZERO_4, "meta": [1]},
                           "meta"),
    # falsy non-objects are not an absent meta
    "meta_empty_list": ({"dims": [2, 2], "re": EYE_4, "im": ZERO_4, "meta": []}, "meta"),
    "meta_zero": ({"dims": [2, 2], "re": EYE_4, "im": ZERO_4, "meta": 0}, "meta"),
    # dims are JSON integers: a string is not iterated digit by digit, nothing is truncated
    "dims_digit_string": ({"dims": "22", "re": EYE_4, "im": ZERO_4}, "dims"),
    "dims_numeric_strings": ({"dims": ["2", "2"], "re": EYE_4, "im": ZERO_4}, "dims"),
    "dims_fractional": ({"dims": [2.9, 2], "re": EYE_4, "im": ZERO_4}, "dims"),
    "dims_integral_float": ({"dims": [2.0, 2], "re": EYE_4, "im": ZERO_4}, "dims"),
    "dims_boolean": ({"dims": [2, True], "re": np.eye(2).tolist(), "im": ZERO_2}, "dims"),
    # np.array(..., dtype=float) parses these, and turns null into nan
    "re_numeric_strings": ({"dims": [2], "re": [["1", "0"], ["0", "1"]], "im": ZERO_2},
                           "numeric"),
    "re_booleans": ({"dims": [2], "re": [[True, False], [False, True]], "im": ZERO_2},
                    "numeric"),
    # a dtype-less np.array takes this re for an int64 matrix
    "re_boolean_among_ints": ({"dims": [2], "re": [[1, 0], [0, True]], "im": ZERO_2},
                              "not numeric matrices: bool entries"),
    "re_null_entry": ({"dims": [2], "re": [[1, None], [None, 1]], "im": ZERO_2}, "numeric"),
    "im_booleans": ({"dims": [2, 2], "re": EYE_4, "im": [[False] * 4] * 4}, "numeric"),
    "im_numeric_string": ({"dims": [2], "re": [[1, 0], [0, 1]], "im": [[0, "0"], [0, 0]]},
                          "numeric"),
    # json.load takes the NaN and Infinity literals json.dumps writes for these
    "re_nan_literal": ({"dims": [2], "re": [[1, math.nan], [math.nan, 1]], "im": ZERO_2},
                       "not finite numbers: NaN entries"),
    "im_infinity_literals": ({"dims": [2], "re": [[1, 0], [0, 1]],
                              "im": [[0, math.inf], [-math.inf, 0]]},
                             "not finite numbers: -Infinity, Infinity entries"),
}

# Map-table documents that are not map tables, each with what its error names.
BAD_MAP_DOCS = {
    "not_an_object": ("images", "JSON object"),
    "no_d_in": ({"d_out": 2, "images": []}, "d_in"),
    "no_d_out": ({"d_in": 2, "images": []}, "d_out"),
    "no_images": ({"d_in": 2, "d_out": 2}, "images"),
    # d_in and d_out are JSON integers
    "d_in_string": ({"d_in": "2", "d_out": 2, "images": [
        {"re": unit, "im": ZERO_2} for unit in UNITS_2]}, "d_in"),
    "d_in_fractional": ({"d_in": 2.7, "d_out": 2, "images": [
        {"re": unit, "im": ZERO_2} for unit in UNITS_2]}, "d_in"),
    "d_out_fractional": ({"d_in": 2, "d_out": 2.2, "images": [
        {"re": unit, "im": ZERO_2} for unit in UNITS_2]}, "d_out"),
    "d_out_boolean": ({"d_in": 2, "d_out": True, "images": [{"re": [[1]], "im": [[0]]}] * 4},
                      "d_out"),
    "image_without_im": ({"d_in": 2, "d_out": 2, "images": [{"re": ZERO_2}] * 4},
                         "re and im"),
    "image_not_an_object": ({"d_in": 2, "d_out": 2, "images": [ZERO_2] * 4}, "re and im"),
    "image_numeric_strings": ({"d_in": 2, "d_out": 2, "images": [
        {"re": [[str(v) for v in row] for row in unit], "im": ZERO_2} for unit in UNITS_2]},
        "numeric"),
    "image_booleans": ({"d_in": 2, "d_out": 2, "images": [
        {"re": unit, "im": [[False, False], [False, False]]} for unit in UNITS_2]},
        "numeric"),
    "image_boolean_among_ints": ({"d_in": 2, "d_out": 2, "images": [
        {"re": unit, "im": ZERO_2} for unit in UNITS_2[:3]] + [
        {"re": [[0, 0], [0, True]], "im": ZERO_2}]}, "not numeric matrices: bool entries"),
    "image_null_entry": ({"d_in": 2, "d_out": 2, "images": [
        {"re": unit, "im": ZERO_2} for unit in UNITS_2[:3]] + [
        {"re": [[0, 0], [0, None]], "im": ZERO_2}]}, "numeric"),
    "image_nan_literal": ({"d_in": 2, "d_out": 2, "images": [
        {"re": unit, "im": ZERO_2} for unit in UNITS_2[:3]] + [
        {"re": [[0, 0], [0, math.nan]], "im": ZERO_2}]}, "not finite numbers: NaN entries"),
    "image_infinity_literal": ({"d_in": 2, "d_out": 2, "images": [
        {"re": unit, "im": [[0, 0], [0, -math.inf]]} for unit in UNITS_2]},
        "not finite numbers: -Infinity entries"),
    # finite and Hermiticity preserving, but the Choi matrix's (M + M^dag) / 2
    # overflows: the map file fails as the operator file of that matrix does
    "image_overflows_the_gate": ({"d_in": 2, "d_out": 2, "images": [
        {"re": [[1e308, 0], [0, 0]], "im": ZERO_2}] + [{"re": ZERO_2, "im": ZERO_2}] * 3},
        "matrix fails the Hermiticity gate: matrix entries must be finite"),
}

# Files json cannot parse into a document, each with what its error names.
UNREADABLE_FILES = {
    "not_utf8": (b'{"dims": [2], "re": [[1, 0], [0, 1]], "im": "\xff"}', "not UTF-8 text"),
    "nested_too_deeply": (b"[" * 200_000, "nested too deeply"),
}


def _write_doc(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _json_doc(path: str):
    """The json.loads path's document of the file."""
    return serialize._parse_json(path, serialize._read_text(path))


def _accepts(read, path: str) -> bool:
    try:
        read(path)
    except ValueError:
        return False
    return True


def _nearly_preserving_images(scale: float, nudge: float) -> np.ndarray:
    """The Choi map's images times scale, phi(e_01)[0, 1] moved by scale * nudge."""
    images = map_images(dejamiolkowski(witness_dk(3, 1))) * scale
    images[1, 0, 1] += scale * nudge
    return images


def _map_doc(images: np.ndarray) -> dict:
    d_out = images.shape[1]
    d_in = math.isqrt(len(images))
    entries = [{"re": img.real.tolist(), "im": img.imag.tolist()} for img in images]
    return {"d_in": d_in, "d_out": d_out, "images": entries}


def _choi_doc(images: np.ndarray) -> dict:
    """The operator document of sum_ij e_ij x images[i*d + j], blocks laid out by hand."""
    d_in, d_out = math.isqrt(len(images)), images.shape[1]
    choi = np.block([[images[i * d_in + j] for j in range(d_in)] for i in range(d_in)])
    return {"dims": [d_in, d_out], "re": choi.real.tolist(), "im": choi.imag.tolist()}


class TestOperatorRoundTrip:
    def test_random_hermitian_bit_exact(self, tmp_path):
        rng = np.random.default_rng(101)
        op = HermitianOp(bipartite(3), random_hermitian(rng, 9))
        path = tmp_path / "op.json"
        write_operator(str(path), op, {"note": "round trip"})
        loaded, meta = read_operator(str(path))
        assert np.array_equal(loaded.matrix, op.matrix)
        assert loaded.space == op.space
        assert meta == {"note": "round trip"}

    def test_state_round_trip_bit_exact(self, tmp_path):
        op = ha_state(3, 0.37)
        path = tmp_path / "rho.json"
        write_operator(str(path), op)
        loaded, _ = read_operator(str(path))
        assert np.array_equal(loaded.matrix, op.matrix)

    def test_integer_witness_serializes_as_integers(self, tmp_path):
        path = tmp_path / "w.json"
        write_operator(str(path), witness_dk(3, 1))
        doc = json.loads(path.read_text())
        flat = [v for row in doc["re"] for v in row]
        assert all(isinstance(v, int) for v in flat)
        assert sorted(set(flat)) == [-1, 0, 1]

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json at all")
        with pytest.raises(MalformedFileError):
            read_operator(str(path))

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [2, 2]}))
        with pytest.raises(MalformedFileError, match="re and im"):
            read_operator(str(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"dims": [2, 2], "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError, match="shape"):
            read_operator(str(path))

    def test_non_hermitian_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        re = np.zeros((4, 4))
        re[0, 1] = 1.0
        doc = {"dims": [2, 2], "re": re.tolist(), "im": np.zeros((4, 4)).tolist()}
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError, match="Hermiticity"):
            read_operator(str(path))

    def test_overflowing_number_is_rejected_as_not_finite(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2], "re": [[1e999, 0], [0, 1]], "im": [[0, 0], [0, 0]]}')
        with pytest.raises(MalformedFileError, match="not finite numbers: Infinity entries"):
            read_operator(str(path))

    def test_failed_write_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "w.json"
        write_operator(str(path), witness_dk(3, 1))
        before = path.read_bytes()
        with pytest.raises(TypeError, match="int64"):
            write_operator(str(path), ha_state(3, 0.37), {"d": np.int64(3)})
        assert path.read_bytes() == before

    @pytest.mark.parametrize("meta, message", [
        ([1], "meta must be a JSON object"),
        ("note", "meta must be a JSON object"),
        ({"x": float("nan")}, "not JSON compliant"),
        ({"x": [float("inf")]}, "not JSON compliant"),
    ])
    def test_writer_refuses_meta_the_reader_refuses(self, tmp_path, meta, message):
        path = tmp_path / "w.json"
        write_operator(str(path), witness_dk(3, 1))
        before = path.read_bytes()
        with pytest.raises(ValueError, match=message):
            write_operator(str(path), ha_state(3, 0.37), meta)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("name", BAD_OPERATOR_DOCS)
    def test_bad_document_rejected_and_pair_exits_3(self, tmp_path, capsys, name):
        doc, message = BAD_OPERATOR_DOCS[name]
        path = _write_doc(tmp_path / "bad.json", doc)
        with pytest.raises(MalformedFileError, match=message):
            read_operator(path)
        good = tmp_path / "w.json"
        write_operator(str(good), HermitianOp(bipartite(2), np.eye(4, dtype=complex)))
        assert main(["pair", str(good), path]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("name", UNREADABLE_FILES)
    def test_unreadable_file_rejected_and_pair_exits_3(self, tmp_path, capsys, name):
        content, message = UNREADABLE_FILES[name]
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(MalformedFileError, match=message):
            read_operator(str(path))
        assert main(["pair", str(path), str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def _planted_hermitian(n: int, seed: int) -> np.ndarray:
    """A random exactly Hermitian matrix with edge-case entries in both parts."""
    m = random_hermitian(np.random.default_rng(seed), n)
    edge = [-0.0, 2.0**53, -(2.0**53), 2.0**53 + 2, 2.0**60, 1e16, 5e-324, 0.1, -3.0]
    for i, value in enumerate(edge):  # n >= 9
        j = (i + 1) % n
        m[i, j] = complex(value, value)
        m[j, i] = complex(value, -value)
        m[i, i] = value  # the diagonal of a Hermitian matrix is real
    # signed zeros the gate's (m + m^dag) / 2 keeps, at (1, 3) and (2, 4)
    m[1, 3], m[3, 1] = complex(-0.0, -3.0), complex(-0.0, 3.0)
    m[2, 4], m[4, 2] = complex(2.0, -0.0), complex(2.0, 0.0)
    return m


#: Entries the writers print in each of their forms: signed zeros, integral
#: floats at and beyond 2**53 (integers up to it), subnormals and ordinary floats.
STACK_VALUES = [-0.0, 1.0, -3.0, 2.0**53, -(2.0**53), 2.0**53 + 2, 2.0**60, -(2.0**64),
                2.5, -1e-300, 5e-324, 1e300, 0.1]

OPERATORS = {
    "witness": lambda d: witness_dk(d, 1),
    "state": lambda d: ha_state(d, 0.37),
    "perturbed": lambda d: perturbed_witness(d, 1, 0.013, 0.021),
    "projector_p": projector_p,
    "projector_q": projector_q,
}


#: The operators the benchmark's pair pipeline writes and reads at its two largest d.
BENCH_OPERATORS = [functools.partial(make, d) for d in (12, 20) for make in OPERATORS.values()]
BENCH_OPERATOR_IDS = [f"{name}_d{d}" for d in (12, 20) for name in OPERATORS]


class TestWritersMatchPerEntryCodec:
    """write_operator / write_map_table give the per-entry codec's bytes exactly."""

    @staticmethod
    def _same_bytes(tmp_path, write, oracle, *args) -> bool:
        ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
        write(str(ours), *args)
        oracle(str(theirs), *args)
        return ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("d", range(3, 21))
    @pytest.mark.parametrize("kind", OPERATORS)
    def test_constructed_operators(self, tmp_path, kind, d):
        op = OPERATORS[kind](d)
        meta = {"construction": kind, "d": d, "gamma": 0.37}
        assert self._same_bytes(tmp_path, write_operator, write_operator_per_entry, op, meta)

    @pytest.mark.parametrize("d, k", [(3, 1), (4, 1), (5, 2), (6, 4), (8, 3), (10, 1)])
    def test_choi_map_tables(self, tmp_path, d, k):
        table = choi_map(d, k)
        assert self._same_bytes(tmp_path, write_map_table, write_map_table_per_entry, table)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_edge_values(self, tmp_path, seed):
        op = HermitianOp(bipartite(3), _planted_hermitian(9, seed))
        kept = op.matrix[1, 3].real, op.matrix[2, 4].imag, op.matrix[6, 7].imag
        assert [np.signbit(kept[0]), np.signbit(kept[1]), kept[2]] == [True, True, 5e-324]
        assert self._same_bytes(tmp_path, write_operator, write_operator_per_entry, op)
        table = dejamiolkowski(op)
        assert self._same_bytes(tmp_path, write_map_table, write_map_table_per_entry, table)

    def test_all_zero_operator_with_negative_zeros(self, tmp_path):
        m = np.zeros((4, 4), dtype=complex)
        # zeros whose sign survives the gate's complex (m + m^dag) / 2
        m[0, 1], m[1, 0] = complex(-0.0, -0.0), complex(-0.0, 0.0)
        m[2, 3] = complex(0.0, -0.0)
        op = HermitianOp(bipartite(2), m)
        assert np.signbit([op.matrix[0, 1].real, op.matrix[2, 3].imag]).all()
        assert not op.matrix.any()
        assert self._same_bytes(tmp_path, write_operator, write_operator_per_entry, op)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 2, 2)])
    def test_operators_on_other_spaces(self, tmp_path, dims):
        space = TensorSpace(dims)
        m = random_hermitian(np.random.default_rng(sum(dims)), space.total)
        for matrix in (m, np.round(4 * m)):  # floats, then integers and zeros
            op = HermitianOp(space, matrix)
            assert self._same_bytes(tmp_path, write_operator, write_operator_per_entry, op)

    @pytest.mark.parametrize("d_in, d_out", [(2, 3), (3, 2), (2, 5)])
    def test_map_tables_with_unequal_dimensions(self, tmp_path, d_in, d_out):
        m = random_hermitian(np.random.default_rng(10 * d_in + d_out), d_in * d_out)
        for matrix in (m, np.round(4 * m)):
            table = dejamiolkowski(HermitianOp(TensorSpace((d_in, d_out)), matrix))
            assert (table.d_in, table.d_out) == (d_in, d_out)
            assert self._same_bytes(tmp_path, write_map_table, write_map_table_per_entry, table)

    def test_dense_random_operator(self, tmp_path):
        op = HermitianOp(bipartite(20), random_hermitian(np.random.default_rng(400), 400))
        assert np.count_nonzero(op.matrix.real) == 400 * 400
        assert self._same_bytes(tmp_path, write_operator, write_operator_per_entry, op)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_matrix_texts_match_the_per_cell_writer(self, tmp_path, data):
        if data.draw(st.booleans()):  # a map table, d_in and d_out unequal or not
            d_in, d_out = data.draw(st.sampled_from(MAP_DIMS))
            table = LinearMapTable(_drawn_operator(data, [d_in, d_out]))
            assert self._same_bytes(tmp_path, write_map_table, write_map_table_per_entry, table)
            stack = map_images(table)
        else:  # a stack of matrices, each entry zero with the drawn probability
            count, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
            zero = data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))  # the share of zeros
            values = st.one_of(st.sampled_from(STACK_VALUES),
                               st.floats(allow_nan=False, allow_infinity=False))
            entry = st.tuples(st.floats(0, 1), values).map(
                lambda pair: 0.0 if pair[0] < zero else pair[1])
            parts = [np.array(data.draw(st.lists(entry, min_size=count * n * n,
                                                 max_size=count * n * n))).reshape(count, n, n)
                     for _ in range(2)]
            stack = parts[0] + 1j * parts[1] if data.draw(st.booleans()) else parts[0]
        assert serialize._json_texts(stack.real) == json_texts_per_cell(stack.real)
        assert [im for _, im in serialize._pair_texts(stack)] == json_texts_per_cell(stack.imag)

    def test_meta_with_nested_values_and_non_ascii_text(self, tmp_path):
        meta = {"note": "\u03c1\u2080 \u2014 \u0126a \u2713 caf\u00e9", "emoji": "\U0001f642",
                "nested": {"values": [1, 2.5, None, True, "\u00fc", [-0.0, 1e-300]], "empty": {}},
                "\u00e4 key": "quote \" and backslash \\"}
        op = witness_dk(3, 1)
        assert self._same_bytes(tmp_path, write_operator, write_operator_per_entry, op, meta)
        assert "\\ud83d\\ude42" in (tmp_path / "ours.json").read_text()  # ensure_ascii escapes


class TestMapTableRoundTrip:
    def test_choi_map_round_trip(self, tmp_path):
        table = choi_map(3, 1)
        path = tmp_path / "map.json"
        write_map_table(str(path), table)
        loaded = read_map_table(str(path))
        assert loaded.d_in == 3 and loaded.d_out == 3
        for i in range(3):
            for j in range(3):
                assert np.array_equal(loaded.image(i, j), table.image(i, j))

    def test_bad_image_count_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"d_in": 2, "d_out": 2, "images": []}))
        with pytest.raises(MalformedFileError, match="images"):
            read_map_table(str(path))

    def test_zero_input_dimension_is_an_invalid_map_not_a_malformed_file(self, tmp_path):
        path = _write_doc(tmp_path / "map.json", {"d_in": 0, "d_out": 2, "images": []})
        with pytest.raises(ValueError, match=">= 2") as info:
            read_map_table(path)
        assert not isinstance(info.value, MalformedFileError)
        assert main(["cj", "to-witness", "-m", path, "--out", str(tmp_path / "w.json")]) == 2

    @pytest.mark.parametrize("d_in, d_out", [(1, 2), (2, 1)])
    def test_unit_local_dimension_is_an_invalid_map_checked_before_the_gate(self, tmp_path,
                                                                           d_in, d_out):
        images = np.zeros((d_in * d_in, d_out, d_out))
        images[d_in - 1, 0, -1] = 1.0  # not Hermiticity preserving: the gate would reject it
        path = _write_doc(tmp_path / "map.json", _map_doc(images))
        with pytest.raises(ValueError, match=rf"must be >= 2, got \({d_in}, {d_out}\)") as info:
            read_map_table(path)
        assert not isinstance(info.value, MalformedFileError)
        assert main(["cj", "to-witness", "-m", path, "--out", str(tmp_path / "w.json")]) == 2

    @pytest.mark.parametrize("unit", [1.0, 1j])
    def test_non_preserving_map_names_its_first_unit_and_exits_2(self, tmp_path, capsys, unit):
        images = np.eye(9).reshape(9, 3, 3) + 0j
        # phi(e_01) = unit e_01 and phi(e_10) = conj(unit) e_10: Hermiticity preserving
        images[1] *= unit
        images[3] *= np.conj(unit)
        images[5] *= 2  # phi(e_12)^dag != phi(e_21), and the reverse
        path = _write_doc(tmp_path / "map.json", _map_doc(images))
        message = "map is not Hermiticity preserving at (1,2): deviation 1.000e+00"
        with pytest.raises(ValueError) as info:
            read_map_table(path)
        assert str(info.value) == message and not isinstance(info.value, MalformedFileError)
        out = tmp_path / "w.json"
        assert main(["cj", "to-witness", "-m", path, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    # the overflow of 1e308 in the Choi gate's (M + M^dag) / 2 raises no warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", BAD_MAP_DOCS)
    def test_bad_document_rejected_and_to_witness_exits_3(self, tmp_path, capsys, name):
        doc, message = BAD_MAP_DOCS[name]
        path = _write_doc(tmp_path / "map.json", doc)
        with pytest.raises(MalformedFileError, match=message):
            read_map_table(path)
        out = tmp_path / "w.json"
        assert main(["cj", "to-witness", "-m", path, "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("name", UNREADABLE_FILES)
    def test_unreadable_file_rejected_and_to_witness_exits_3(self, tmp_path, capsys, name):
        content, message = UNREADABLE_FILES[name]
        path = tmp_path / "map.json"
        path.write_bytes(content)
        with pytest.raises(MalformedFileError, match=message):
            read_map_table(str(path))
        out = tmp_path / "w.json"
        assert main(["cj", "to-witness", "-m", str(path), "--out", str(out)]) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("nudge, accepted", [(1e-14, True), (1e-6, False)])
    def test_map_gate_is_the_operator_gate_at_every_scale(self, tmp_path, scale, nudge,
                                                          accepted):
        images = _nearly_preserving_images(scale, nudge)
        map_path = _write_doc(tmp_path / "map.json", _map_doc(images))
        op_path = _write_doc(tmp_path / "choi.json", _choi_doc(images))
        verdicts = (_accepts(read_operator, op_path), _accepts(read_map_table, map_path))
        assert verdicts == (accepted, accepted)

    def test_images_are_the_choi_blocks_bit_for_bit(self, tmp_path):
        images = _nearly_preserving_images(1.0, 1e-14)
        table = read_map_table(_write_doc(tmp_path / "map.json", _map_doc(images)))
        choi = jamiolkowski(table).matrix
        assert not np.array_equal(map_images(table), images)  # the gate symmetrized
        for i in range(3):
            for j in range(3):
                block = choi[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
                assert table.image(i, j).tobytes() == block.tobytes()


#: re/im entries np.array converts to int or float arrays.
NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, -0.0, 2**53 + 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64,
                     2**70]),
)
#: Entries the readers reject; "@1e999" is written as the literal 1e999, read as inf.
ODD_ENTRIES = st.sampled_from([True, False, None, "1", "x", [1], math.nan, math.inf,
                               -math.inf, "@1e999", 10**400])


def _draw_part(data, count: int | None, n: int, odd: bool) -> list:
    """An n x n matrix of nested lists (count of them when count is not None)."""
    entries = st.one_of(NUMBERS, ODD_ENTRIES) if odd else NUMBERS
    matrices = []
    for _ in range(1 if count is None else count):
        rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        if odd and data.draw(st.booleans()):  # a ragged row, or a number for a row
            i = data.draw(st.integers(0, n - 1))
            rows[i] = data.draw(st.sampled_from([rows[i][:-1], rows[i] + [0], 0]))
        matrices.append(rows)
    return matrices[0] if count is None else matrices


class TestParsedParts:
    """The re/im parts of a parsed document are checked entry by entry."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_same_bits_or_same_error_as_the_per_entry_reader(self, tmp_path, data):
        count = data.draw(st.sampled_from([None, 1, 3]))
        n = data.draw(st.integers(2, 3))
        odd = data.draw(st.booleans())
        re, im = (_draw_part(data, count, n, odd) for _ in range(2))
        text = json.dumps({"re": re, "im": im})
        path = tmp_path / "parts.json"
        path.write_text(text.replace('"@1e999"', "1e999"))
        doc = _json_doc(str(path))
        shape = (n, n) if count is None else (count, n, n)
        try:
            expected = numeric_parts_per_entry(doc["re"], doc["im"], shape)
        except MalformedFileError as exc:
            with pytest.raises(MalformedFileError) as info:
                serialize._numeric_array(doc["re"], doc["im"], shape)
            assert str(info.value) == str(exc)
        else:
            got = serialize._numeric_array(doc["re"], doc["im"], shape)
            # float64 exactly when im is all zero (a -0.0 there loses its sign)
            assert got.dtype == (complex if expected[1].any() else float)
            assert got.real.tobytes() == expected[0].tobytes()
            if got.dtype == complex:
                assert got.imag.tobytes() == expected[1].tobytes()
            else:
                assert not expected[1].any()

    def test_true_in_meta_with_valid_parts_is_read_by_pair(self, tmp_path, capsys):
        w_path, rho_path = str(tmp_path / "w.json"), str(tmp_path / "rho.json")
        write_operator(w_path, witness_dk(3, 1), {"checked": True, "draft": False})
        write_operator(rho_path, ha_state(3, 0.5))
        assert main(["pair", w_path, rho_path]) == 0
        assert "detected: true" in capsys.readouterr().out

    def test_true_in_re_next_to_ints_exits_3(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        write_operator(str(path), witness_dk(3, 1))
        path.write_text(path.read_text().replace('"re": [[1,', '"re": [[true,', 1))
        with pytest.raises(MalformedFileError, match="bool entries"):
            read_operator(str(path))
        assert main(["pair", str(path), str(path)]) == 3
        assert capsys.readouterr().out == ""


#: Entry texts the writer's layout may hold, some written only by hand: "-0" and
#: "1e-400" read as zero, "1E5" as a float, 2**64 only into an object array.
ENTRY_TEXTS = ["0"] * 8 + ["-0", "-0.0", "0.0", "1", "-1", "0.5", "-2.5e-07", "1E5", "1e-400",
                           "5e-324", "-2.225073858507201e-308", "9007199254740993",
                           "9223372036854775808", "18446744073709551616", "1e+300"]
#: Texts that are not finite JSON numbers, each put in place of one entry.
BAD_ENTRY_TEXTS = ["", "01", "00", "1.", ".5", "+1", "-", "1e5e5", "true", "NaN", "1e999",
                   "1" * 5001]
#: Floats the writer prints in every form it has: -0.0, subnormals, integral
#: floats above 2**53, and ordinary ones.
WRITER_VALUES = [-0.0, 5e-324, 2.5e-310, 2.0**53 + 2, 2.0**63, 2.0**64, 1e300, -1.5, 1e-5, 3.0]
METAS = ["{}", '{"note": true}', '{"note": "false"}', '{"x": [1.5, null]}']
#: Entry texts planted in a sparse part: the writer's forms (one or more runs of digits
#: 1-9, up to its longest entry), then texts it never writes, some not one JSON number.
WRITER_FORMS = ["1", "-1", "0.5", "-0.0001", "-2.5e-07", "1e+300", "9007199254740993",
                "1.0000000000000002", "-2.2250738585072014e-308", "5e-324", "1000000000000000"]
PLANTED_TEXTS = WRITER_FORMS + ["-0", "0.0", "0e5", "1e-400", "00", "", "1 ", "1" * 40, "2,5"]
#: Where entries are planted in a sparse n x n part: first and last entry, a row's
#: start and end, the rows before and after it, and one inside.
SPARSE_N = 64
PLANTED_SPOTS = [(0, 0), (SPARSE_N - 1, SPARSE_N - 1), (5, 0), (5, SPARSE_N - 1),
                 (4, SPARSE_N - 1), (6, 0), (40, 17)]


def _matrix_text(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


def _layout_text(dims, re_rows, im_rows, meta: str) -> str:
    """An operator file's text in the writer's layout, from the texts of its entries."""
    return (f'{{"dims": {json.dumps(dims)}, "re": {_matrix_text(re_rows)}, '
            f'"im": {_matrix_text(im_rows)}, "meta": {meta}}}\n')


def _drawn_operator(data, dims) -> HermitianOp:
    """A sparse Hermitian operator on dims of WRITER_VALUES, real or complex."""
    n = math.prod(dims)
    values = st.sampled_from([0.0] * 10 + WRITER_VALUES)
    upper = np.array(data.draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    if data.draw(st.booleans()):
        upper = upper + 1j * np.array(data.draw(st.lists(values, min_size=n * n,
                                                         max_size=n * n))).reshape(n, n)
    m = np.triu(upper, 1) + np.triu(upper, 1).conj().T + np.diag(upper.real.diagonal())
    return HermitianOp(TensorSpace(tuple(dims)), m)


def _writer_text(data, tmp_path, dims, n) -> str:
    """write_operator's text for a sparse Hermitian matrix of WRITER_VALUES."""
    path = tmp_path / "writer.json"
    write_operator(str(path), _drawn_operator(data, dims),
                   json.loads(data.draw(st.sampled_from(METAS))))
    return path.read_text()


def _mutated(data, text: str) -> str:
    """text with one byte replaced, a space inserted, its end cut, or a key duplicated or added."""
    kind = data.draw(st.sampled_from(["byte", "space", "cut", "key"]))
    i = data.draw(st.integers(0, len(text) - 1))
    if kind == "cut":
        return text[:-data.draw(st.integers(1, 3))]
    if kind == "byte":
        return text[:i] + data.draw(st.sampled_from(list('01 ,[]"x}-e.\n'))) + text[i + 1:]
    if kind == "space":
        return text[:i] + " " + text[i:]
    key = data.draw(st.sampled_from([', "meta": {}', ', "im": [[0]]', ', "x": 1']))
    close = text.rindex("}")
    return text[:close] + key + text[close:]


def _planted_rows(data, spots) -> tuple[list, bool]:
    """SPARSE_N x SPARSE_N entry texts, "0" but at spots, and whether those are all writer forms."""
    rows = [["0"] * SPARSE_N for _ in range(SPARSE_N)]
    planted = [data.draw(st.sampled_from(PLANTED_TEXTS)) for _ in spots]
    for (r, c), entry in zip(spots, planted):
        rows[r][c] = entry
    return rows, all(entry in WRITER_FORMS for entry in planted)


def _read_by_json(path: str):
    """The json.loads path's operator and meta for the file, or its error."""
    try:
        return serialize.operator_from_json_dict(_json_doc(path))
    except MalformedFileError as exc:
        return exc


def _assert_layout_agrees(path, text: str):
    """The writer-layout reader gives json.loads's bits or None; read_operator is unchanged.

    Returns what _writer_layout gave.
    """
    path.write_text(text)
    layout = serialize._writer_layout(text)
    if layout is not None:
        doc = _json_doc(str(path))
        dims, matrix, meta = layout
        n = math.prod(dims)
        parts = serialize._numeric_array(doc["re"], doc["im"], (n, n))
        assert dims == doc["dims"] and set(doc) == {"dims", "re", "im", "meta"}
        assert matrix.real.tobytes() == parts.real.tobytes()
        assert matrix.imag.tobytes() == parts.imag.tobytes()
        assert json.dumps(meta) == json.dumps(doc["meta"])
    expected = _read_by_json(str(path))
    try:
        op, meta = read_operator(str(path))
    except MalformedFileError as exc:
        assert isinstance(expected, MalformedFileError) and str(exc) == str(expected)
    else:
        assert not isinstance(expected, MalformedFileError), expected
        assert op.matrix.tobytes() == expected[0].matrix.tobytes() and meta == expected[1]
    return layout


def _eye_2_text(re: str = "[[1, 0], [0, 1]]", tail: str = "}\n") -> str:
    return f'{{"dims": [2], "re": {re}, "im": [[0, 0], [0, 0]], "meta": {{}}{tail}'


#: Texts of the 2 x 2 identity, or of files that are not operators, that the
#: writer-layout reader leaves to json.loads, each with what the error names.
OUTSIDE_THE_LAYOUT = {
    # the brackets and separators of a 2 x 2 matrix and four entries, one out of
    # place: after "]" or ",", or before "[", or missing
    "entry_after_bracket": (_eye_2_text("[[1, 0]5, [, 1]]"), "not valid JSON"),
    "entry_after_comma": (_eye_2_text("[[1,5 , ], [0, 1]]"), "not valid JSON"),
    "entry_before_bracket": (_eye_2_text("[[1, 0], 5[, 1]]"), "not valid JSON"),
    "zero_before_bracket": (_eye_2_text("[[1, 0], 0[, 1]]"), "not valid JSON"),
    "empty_entry": (_eye_2_text("[[1, ], [0, 1]]"), "not valid JSON"),
    "infinite_entry": (_eye_2_text("[[1e999, 0], [0, 1]]"), "not finite numbers: Infinity"),
    "integer_beyond_float": (_eye_2_text(f"[[{10**400}, 0], [0, 1]]"),
                             "not finite numbers: int too large"),
    # Python 3.11 caps int parsing at 4300 digits; earlier versions reach np.array
    "integer_beyond_digit_limit": (_eye_2_text(f"[[{'1' * 5001}, 0], [0, 1]]"),
                                   "not valid JSON|not finite numbers"),
    # a number before a part's "[[": its brackets, separators and entries are in place
    "number_before_re": (_eye_2_text("5[[1, 0], [0, 1]]"), "not valid JSON"),
    "number_before_im": (_eye_2_text(tail="}\n").replace('"im": [[', '"im": 7[['),
                         "not valid JSON"),
    "no_closing_brace": (_eye_2_text(tail="\n"), "not valid JSON"),
    "trailing_key": (_eye_2_text(tail=', "x": 1}'), None),
    "duplicate_meta": (_eye_2_text(tail=', "meta": {}}'), None),
    "indented": (json.dumps(json.loads(_eye_2_text()), indent=1), None),
}


class TestWriterLayout:
    """Operator files in the writer's layout are read without parsing their zero entries."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_same_bits_as_json_or_none(self, tmp_path, data):
        dims = data.draw(st.sampled_from([[2], [3], [2, 2]]))
        n = math.prod(dims)
        source = data.draw(st.sampled_from(["write_operator", "json.dumps", "texts"]))
        if source == "write_operator":
            text = _writer_text(data, tmp_path, dims, n)
        elif source == "json.dumps":
            re, im = (_draw_part(data, None, n, False) for _ in range(2))
            meta = json.loads(data.draw(st.sampled_from(METAS)))
            text = json.dumps({"dims": dims, "re": re, "im": im, "meta": meta})
        else:
            entries = st.lists(st.lists(st.sampled_from(ENTRY_TEXTS), min_size=n, max_size=n),
                               min_size=n, max_size=n)
            re_rows, im_rows = data.draw(entries), data.draw(entries)
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            change = data.draw(st.sampled_from(["none", "bad entry", "dropped entry"]))
            if change == "bad entry":
                re_rows[i][j] = data.draw(st.sampled_from(BAD_ENTRY_TEXTS))
            elif change == "dropped entry":
                del re_rows[i][j]
            text = _layout_text(dims, re_rows, im_rows, data.draw(st.sampled_from(METAS)))
        mutate = data.draw(st.booleans())
        if mutate:
            text = _mutated(data, text)
        layout = _assert_layout_agrees(tmp_path / "op.json", text)
        if source == "write_operator" and not mutate:
            assert layout is not None

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_sparse_part_same_bits_as_json_or_none(self, tmp_path, data):
        spots = data.draw(st.lists(st.sampled_from(PLANTED_SPOTS), min_size=1, unique=True))
        re_rows, writer = _planted_rows(data, spots)
        im_rows, im_writer = (_planted_rows(data, spots[:1]) if data.draw(st.booleans())
                              else ([["0"] * SPARSE_N] * SPARSE_N, True))
        text = _layout_text([8, 8], re_rows, im_rows, data.draw(st.sampled_from(METAS)))
        mutate = data.draw(st.booleans())
        if mutate:
            text = _mutated(data, text)
        layout = _assert_layout_agrees(tmp_path / "op.json", text)
        if writer and im_writer and not mutate:
            assert layout is not None

    @pytest.mark.parametrize("make", [
        lambda: witness_dk(6, 2), lambda: ha_state(5, 0.5), lambda: projector_q(4),
        lambda: HermitianOp(bipartite(3), random_hermitian(np.random.default_rng(3), 9)),
    ] + BENCH_OPERATORS, ids=["witness", "state", "projector", "complex"] + BENCH_OPERATOR_IDS)
    def test_writer_files_skip_json_loads(self, tmp_path, monkeypatch, make):
        path, op = str(tmp_path / "op.json"), make()
        write_operator(path, op, {"checked": True, "draft": False})
        expected = _read_by_json(path)
        monkeypatch.setattr(serialize, "_parse_json", None)  # a call would raise
        got, meta = read_operator(path)
        assert got.matrix.tobytes() == expected[0].matrix.tobytes() == op.matrix.tobytes()
        assert meta == expected[1] == {"checked": True, "draft": False}

    @pytest.mark.parametrize("text, error", list(OUTSIDE_THE_LAYOUT.values()),
                             ids=list(OUTSIDE_THE_LAYOUT))
    def test_text_outside_the_layout_is_read_by_json(self, tmp_path, text, error):
        assert _assert_layout_agrees(tmp_path / "op.json", text) is None
        if error is None:
            assert np.array_equal(read_operator(str(tmp_path / "op.json"))[0].matrix, np.eye(2))
        else:
            with pytest.raises(MalformedFileError, match=error):
                read_operator(str(tmp_path / "op.json"))

    def test_header_claiming_a_huge_matrix_exits_3_at_once(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"dims": [65536, 65536], "re": [[0]], "im": [[0]], "meta": {}}')
        assert len(path.read_bytes()) <= 64
        built = []
        monkeypatch.setattr(serialize, "_zero_text", lambda n: built.append(n) or "")
        assert serialize._writer_layout(path.read_text()) is None
        assert main(["pair", str(path), str(path)]) == 3
        assert not built
        assert "do not match" in capsys.readouterr().err

    def test_non_ascii_character_in_a_part_exits_3(self, tmp_path, capsys):
        # encoding the part as ASCII would raise UnicodeEncodeError, a ValueError (exit 2)
        path = tmp_path / "w.json"
        write_operator(str(path), witness_dk(3, 1))
        text = path.read_text()
        assert text.count('"re": [[1, ') == 1
        path.write_text(text.replace('"re": [[1, ', '"re": [[¹, '), encoding="utf-8")
        assert main(["pair", str(path), str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "not valid JSON" in captured.err


def _map_text(d_in: int, d_out: int, images: list, mutation: str | None = None, k: int = 0,
              bad: str = "01") -> str:
    """A map table's text in the writer's layout, with a mutation made at image k.

    images is a list of (re rows, im rows) of entry texts; "bad entry" puts
    bad in place of entry [0][-1] of image k's re, "dropped entry" drops it.
    """
    images = [([row[:] for row in re], [row[:] for row in im]) for re, im in images]
    if mutation == "bad entry":
        images[k][0][0][-1] = bad
    elif mutation == "dropped entry":
        del images[k][0][0][-1]
    parts = [[_matrix_text(rows) for rows in image] for image in images]
    texts = [f'{{"re": {re}, "im": {im}}}' for re, im in parts]
    re, im = parts[k]
    texts[k] = {"swapped re and im": f'{{"im": {re}, "re": {im}}}', "no im": f'{{"re": {re}}}',
                "number before re": f'{{"re": 5{re}, "im": {im}}}',
                "duplicate re": f'{{"re": {re}, "re": {re}, "im": {im}}}',
                "duplicate im": f'{{"re": {re}, "im": {im}, "im": {im}}}'}.get(mutation, texts[k])
    if mutation == "extra image":
        texts.insert(k, texts[k])
    elif mutation == "missing image":
        del texts[k]
    tail = {"trailing key": ', "x": 1}\n', "trailing text": "}}\n"}.get(mutation, "}\n")
    text = (f'{{"d_in": {d_in + (mutation == "d_in")}, "d_out": {d_out}, '
            f'"images": [{", ".join(texts)}]{tail}')
    return json.dumps(json.loads(text), indent=1) if mutation == "indented" else text


def _entry_rows(part: list) -> list:
    return [[json.dumps(v) for v in row] for row in part]


#: Changes to a map table file in the writer's layout; each leaves it out of the layout.
MAP_MUTATIONS = ["bad entry", "dropped entry", "number before re", "swapped re and im", "no im",
                 "duplicate re", "duplicate im", "extra image", "missing image", "d_in",
                 "trailing key", "trailing text", "indented"]


def _read_map_by_json(path: str):
    """The json.loads path's map table for the file, or its error."""
    try:
        return serialize.map_table_from_json_dict(_json_doc(path))
    except ValueError as exc:  # a malformed file, or not a Hermiticity-preserving map
        return exc


def _assert_map_layout_agrees(path, text: str):
    """The writer's map layout gives json.loads's bits or None; read_map_table is unchanged.

    Returns what _writer_map_layout gave.
    """
    path.write_text(text)
    layout = serialize._writer_map_layout(text)
    if layout is not None:
        doc = _json_doc(str(path))
        d_in, d_out, images = layout
        assert set(doc) == {"d_in", "d_out", "images"} and (d_in, d_out) == (doc["d_in"],
                                                                             doc["d_out"])
        assert all(set(image) == {"re", "im"} for image in doc["images"])
        expected = serialize._numeric_array([image["re"] for image in doc["images"]],
                                            [image["im"] for image in doc["images"]],
                                            (d_in * d_in, d_out, d_out))
        assert images.dtype == expected.dtype and images.tobytes() == expected.tobytes()
    expected = _read_map_by_json(str(path))
    try:
        table = read_map_table(str(path))
    except ValueError as exc:
        assert type(exc) is type(expected) and str(exc) == str(expected)
    else:
        assert not isinstance(expected, ValueError), expected
        assert table.choi.matrix.dtype == expected.choi.matrix.dtype
        assert table.choi.matrix.tobytes() == expected.choi.matrix.tobytes()
    return layout


#: (d_in, d_out) of the drawn tables, unequal ones included.
MAP_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]


def _table_with_some_zero_im_images():
    """A complex 3 -> 8 table: im images 0-3 and 5-8 are all zero, and re images 1-3 and 5-7."""
    choi = np.diag(np.arange(1.0, 25.0)).astype(complex)
    choi[9, 10], choi[10, 9] = 2j, -2j  # in block (1, 1), image 4
    return LinearMapTable(HermitianOp(TensorSpace((3, 8)), choi))


class TestWriterMapLayout:
    """Map-table files in the writer's layout are read by the operator files' part scan."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_same_bits_as_json_or_none(self, tmp_path, data):
        d_in, d_out = data.draw(st.sampled_from(MAP_DIMS))
        written = data.draw(st.booleans())
        if written:  # write_map_table's file of a real or complex table
            path = tmp_path / "writer.json"
            write_map_table(str(path), LinearMapTable(_drawn_operator(data, [d_in, d_out])))
            text = path.read_text()
            images = [(_entry_rows(image["re"]), _entry_rows(image["im"]))
                      for image in json.loads(text)["images"]]
            assert _map_text(d_in, d_out, images) == text
        else:  # entry texts the writer may not write, in its layout
            rows = st.lists(st.lists(st.sampled_from(ENTRY_TEXTS), min_size=d_out,
                                     max_size=d_out), min_size=d_out, max_size=d_out)
            images = [(data.draw(rows), data.draw(rows)) for _ in range(d_in * d_in)]
            text = _map_text(d_in, d_out, images)
        mutation = data.draw(st.sampled_from([None] + MAP_MUTATIONS))
        if mutation is not None:
            k = data.draw(st.integers(0, d_in * d_in - 1))
            text = _map_text(d_in, d_out, images, mutation, k,
                             data.draw(st.sampled_from(BAD_ENTRY_TEXTS)))
        mutate = data.draw(st.booleans())
        if mutate:  # a flipped byte, a space, a cut end or an added key
            text = _mutated(data, text)
        layout = _assert_map_layout_agrees(tmp_path / "map.json", text)
        if not mutate and mutation is not None:
            assert layout is None
        if not mutate and mutation is None and written:
            assert layout is not None

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_sparse_images_same_bits_as_json_or_none(self, tmp_path, data):
        zero = [["0"] * SPARSE_N] * SPARSE_N
        images, writer = [], True
        for _ in range(4):  # each image all zero or sparse, as drawn
            spots = data.draw(st.lists(st.sampled_from(PLANTED_SPOTS), unique=True))
            re_rows, ok = _planted_rows(data, spots)
            images.append((re_rows, zero))
            writer &= ok
        text = _map_text(2, SPARSE_N, images)
        mutate = data.draw(st.booleans())
        if mutate:
            text = _mutated(data, text)
        layout = _assert_map_layout_agrees(tmp_path / "map.json", text)
        if writer and not mutate:
            assert layout is not None

    @pytest.mark.parametrize("mutation", MAP_MUTATIONS)
    @pytest.mark.parametrize("make", [lambda: choi_map(3, 1), lambda: LinearMapTable(
        HermitianOp(TensorSpace((2, 3)), random_hermitian(np.random.default_rng(5), 6)))],
        ids=["real", "complex"])
    def test_each_mutation_is_read_by_json(self, tmp_path, make, mutation):
        path = tmp_path / "writer.json"
        write_map_table(str(path), make())
        doc = json.loads(path.read_text())
        images = [(_entry_rows(image["re"]), _entry_rows(image["im"])) for image in doc["images"]]
        for k in (0, len(images) - 1):
            text = _map_text(doc["d_in"], doc["d_out"], images, mutation, k)
            assert _assert_map_layout_agrees(tmp_path / "map.json", text) is None

    @pytest.mark.parametrize("make", [
        lambda: choi_map(6, 2), lambda: identity_map(3),
        lambda: dejamiolkowski(HermitianOp(bipartite(3), random_hermitian(
            np.random.default_rng(3), 9))),
        lambda: LinearMapTable(HermitianOp(TensorSpace((2, 3)), random_hermitian(
            np.random.default_rng(4), 6))),
        lambda: LinearMapTable(HermitianOp(TensorSpace((3, 2)), np.arange(36.0).reshape(6, 6)
                                           + np.arange(36.0).reshape(6, 6).T)),
        lambda: choi_map(12, 1), lambda: choi_map(20, 1),
        # images 1-3 and 5-7 all zero, between nonzero ones
        lambda: LinearMapTable(HermitianOp(bipartite(3), np.diag(np.arange(1.0, 10.0)))),
        _table_with_some_zero_im_images,
    ], ids=["choi", "identity", "complex", "complex_2_to_3", "real_3_to_2", "choi_d12",
            "choi_d20", "zero_images_between", "zero_im_images_first_and_last"])
    def test_writer_map_files_skip_json_loads(self, tmp_path, monkeypatch, make):
        path, table = str(tmp_path / "map.json"), make()
        write_map_table(path, table)
        expected = _read_map_by_json(path)
        monkeypatch.setattr(serialize, "_parse_json", None)  # a call would raise
        got = read_map_table(path)
        assert got.choi.matrix.dtype == expected.choi.matrix.dtype == table.choi.matrix.dtype
        assert got.choi.matrix.tobytes() == expected.choi.matrix.tobytes()
        assert got.choi.matrix.tobytes() == table.choi.matrix.tobytes()

    def test_header_claiming_a_huge_table_exits_3_at_once(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"d_in": 65536, "d_out": 65536, "images": [{"re": [[0]], "im": [[0]]}]}')
        assert len(path.read_bytes()) <= 80
        built = []
        monkeypatch.setattr(serialize, "_zero_text", lambda n: built.append(n) or "")
        assert serialize._writer_map_layout(path.read_text()) is None
        out = tmp_path / "w.json"
        assert main(["cj", "to-witness", "-m", str(path), "--out", str(out)]) == 3
        assert not built and not out.exists()
        assert "images must be a list of" in capsys.readouterr().err


SWEEP_GRIDS = [
    (3, 1, [0.1 * i for i in range(1, 12)], [0.0, 0.05, 0.1], [0.0, 0.03]),
    (5, 1, [0.25 * i for i in range(1, 7)], [0.0, 0.01], [0.0, 0.02, 0.04]),
    (6, 2, [0.5, 0.75, 1.0, 1.5], [0.0, 0.003, 0.007], [0.0, 0.004]),
    (10, 3, [1.0 - 8 / 64 + i / 64 for i in range(16)], [0.0, 0.004], [0.0, 0.006]),
    (3, 1, [0.1 + 2 * 0.1], [0.1 + 2 * 0.1], [0.1 + 2 * 0.1]),
    (4, 1, [0.7], [0.0], [0.0]),
    (5, 2, [0.6, 1.0], [-0.05, -0.025, 0.0, 0.025], [0.0]),
    (3, 1, [], [0.0, 0.1], [0.0]),
    (3, 1, [0.5, 0.7], [], [0.0]),
]

#: How many rounding errors of a row's scale the closed-form sweep may sit
#: from the oracle's exactly summed trace (at most 2 seen for d <= 20).
SWEEP_ULPS = 4


def assert_sweep_matches_oracle(d, k, gammas, lams, mus):
    """Each trace within SWEEP_ULPS * eps * scale of the oracle's.

    Verdicts are equal wherever the oracle's trace is farther than that
    from the oracle's detection threshold.
    """
    table = sweep(d, k, gammas, lams, mus)
    rows = sweep_rows(d, k, gammas, lams, mus)
    assert len(table) == len(rows)
    for row, value, hit in zip(rows, table.trace.ravel(), table.detected.ravel()):
        bound = SWEEP_ULPS * np.finfo(float).eps * row.scale
        assert abs(value - row.trace_value) <= bound, (row, value)
        if abs(row.trace_value - row.threshold) > bound:
            assert hit == row.detected, (row, value)


def _csv_text(tmp_path, table) -> str:
    """The text write_sweep_csv writes for the table."""
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), table)
    return path.read_bytes().decode("utf-8")


class TestSweepCsv:
    def test_header_and_shape(self, tmp_path):
        text = _csv_text(tmp_path, sweep(3, 1, [0.5], [0.0], [0.0]))
        lines = text.strip().split("\n")
        assert lines[0] == "gamma,lambda,mu,alpha,trace,detected"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "0.5"
        assert cells[3] == ""  # alpha absent
        assert cells[5] == "true"

    def test_floats_round_trip_through_repr(self, tmp_path):
        table = sweep(3, 1, [0.1 + 2 * 0.1], [0.0], [0.0])  # a noisy double
        gamma_cell = _csv_text(tmp_path, table).strip().split("\n")[1].split(",")[0]
        assert float(gamma_cell) == 0.1 + 2 * 0.1

    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), sweep(3, 1, [], [0.0], [0.0]))
        assert path.read_text() == "gamma,lambda,mu,alpha,trace,detected\n"

    def test_rewrite_is_byte_identical(self, tmp_path):
        table = sweep(3, 1, [0.1 * i for i in range(1, 10)], [0.0, 0.05], [0.0])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_sweep_csv(str(a), table)
        write_sweep_csv(str(b), sweep(3, 1, [0.1 * i for i in range(1, 10)], [0.0, 0.05], [0.0]))
        assert a.read_bytes() == b.read_bytes()

    def test_alpha_column_always_empty(self, tmp_path):
        text = _csv_text(tmp_path, sweep(3, 1, [0.3, 1.0], [0.0, 0.1], [0.0, 0.2]))
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert len(rows) == 8
        assert all(len(cells) == 6 and cells[3] == "" for cells in rows)

    @pytest.mark.parametrize("d, k, gammas, lams, mus", SWEEP_GRIDS)
    def test_writer_matches_row_by_row_csv(self, tmp_path, d, k, gammas, lams, mus):
        table = sweep(d, k, gammas, lams, mus)
        assert _csv_text(tmp_path, table) == sweep_rows_csv(table_rows(table))

    @pytest.mark.parametrize("d, k, gammas, lams, mus", SWEEP_GRIDS)
    def test_matches_row_by_row_oracle(self, d, k, gammas, lams, mus):
        assert_sweep_matches_oracle(d, k, gammas, lams, mus)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_row_by_row_oracle_on_drawn_grids(self, data):
        d = data.draw(st.integers(3, 12), label="d")
        k = data.draw(st.integers(1, d - 1), label="k")
        gamma = st.one_of(st.just(1.0), st.floats(1e-3, 1e3))
        value = st.floats(-1.0, 1.0)
        gammas = data.draw(st.lists(gamma, max_size=5), label="gammas")
        lams = data.draw(st.lists(value, min_size=1, max_size=3), label="lams")
        mus = data.draw(st.lists(value, min_size=1, max_size=3), label="mus")
        assert_sweep_matches_oracle(d, k, gammas, lams, mus)


# numbers the C encoder writes in every form: signed zero, subnormal, non-finite,
# integral floats, ints beyond 2**53 and 2**64
_NUMBERS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf, 1e16, 2**53 + 1, 2**64]),
)
# non-ASCII text (outside the BMP too), control characters, quotes, backslashes, and
# the ", " the number lists' separators are found by
_TEXTS = st.text(max_size=8) | st.sampled_from(["1, 2", "\u00e9\U0001f642", "\x00\n\"\\"])
_KEYS = st.one_of(_TEXTS, st.integers(-5, 5), st.floats(), st.booleans(), st.none())
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, _TEXTS,
              st.lists(_NUMBERS, max_size=6),  # the lists encoded in one call
              st.lists(st.one_of(_NUMBERS, st.booleans()), max_size=6)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),  # written as lists
                               st.dictionaries(_KEYS, children, max_size=4)),
    max_leaves=20,
)


class TestCertificateJson:
    def test_envelope_keys(self):
        cert = certify_ppt(ha_state(3, 0.5), (False, True))
        doc = certificate_to_json_dict(cert)
        assert set(doc) == {"kind", "verdict", "evidence", "assumptions", "seed"}
        assert doc["kind"] == "ppt"
        assert doc["verdict"] is True
        assert doc["seed"] is None
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_scan_certificate_carries_seed(self):
        cert = blockpos_scan(witness_dk(3, 1), ScanConfig(restarts=5, seed=99))
        doc = certificate_to_json_dict(cert)
        assert doc["seed"] == 99
        text = json.dumps(doc)
        assert "histories" in text

    def test_nan_free_evidence(self):
        cert = blockpos_scan(witness_dk(3, 1), ScanConfig(restarts=5, seed=1))
        doc = certificate_to_json_dict(cert)
        parsed = json.loads(json.dumps(doc))
        assert not any(
            isinstance(v, float) and math.isnan(v) for v in parsed["evidence"].values()
            if not isinstance(v, list)
        )

    @settings(max_examples=100, deadline=None)
    @given(kind=_TEXTS, verdict=st.booleans(), evidence=st.dictionaries(_KEYS, _JSON_VALUES),
           assumptions=st.lists(_TEXTS, max_size=2))
    def test_text_is_indented_json_dumps(self, kind, verdict, evidence, assumptions):
        cert = Certificate(kind, verdict, evidence, tuple(assumptions))
        assert certificate_text(cert) == json.dumps(certificate_to_json_dict(cert), indent=2)

    def test_text_of_each_kind_is_indented_json_dumps(self):
        w0, rho = witness_dk(3, 1), ha_state(3, 0.5)
        certs = [
            certify_ppt(rho, (False, True)),
            replace(certify_ppt(witness_dk(3, 2), (False, True)), kind="ccp"),
            certify_detection(w0, rho),
            certify_indecomposable(w0, rho, (False, True)),
            certify_atomic_conditional(w0, rho, HA_SCHMIDT_ASSUMPTION),
            blockpos_scan(w0, ScanConfig(restarts=6, max_iters=30, seed=3)),
        ]
        for cert in certs:
            assert certificate_text(cert) == json.dumps(certificate_to_json_dict(cert), indent=2)

    def test_key_json_cannot_write_raises_like_json_dumps(self):
        cert = Certificate("ppt", True, {(1, 2): 0.5})
        message = "keys must be str, int, float, bool or None, not tuple"
        with pytest.raises(TypeError, match=message):
            json.dumps(certificate_to_json_dict(cert), indent=2)
        with pytest.raises(TypeError, match=message):
            certificate_text(cert)

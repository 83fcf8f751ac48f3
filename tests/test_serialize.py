"""File formats: bit-exact operator round trips, map tables, CSV, certificates."""

import json
import math

import numpy as np
import pytest

from ewkit import (
    HermitianOp,
    MalformedFileError,
    ScanConfig,
    bipartite,
    blockpos_scan,
    certificate_to_json_dict,
    certify_ppt,
    choi_map,
    dejamiolkowski,
    ha_state,
    jamiolkowski,
    read_map_table,
    read_operator,
    sweep,
    sweep_to_csv,
    witness_dk,
    write_map_table,
    write_operator,
    write_sweep_csv,
)
from ewkit.cli import main

from oracles import random_hermitian, sweep_rows, sweep_rows_csv

EYE_4 = np.eye(4).tolist()
ZERO_4 = np.zeros((4, 4)).tolist()
ZERO_2 = [[0, 0], [0, 0]]

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
}

# Map-table documents that are not map tables, each with what its error names.
BAD_MAP_DOCS = {
    "not_an_object": ("images", "JSON object"),
    "no_d_in": ({"d_out": 2, "images": []}, "d_in"),
    "no_d_out": ({"d_in": 2, "images": []}, "d_out"),
    "no_images": ({"d_in": 2, "d_out": 2}, "images"),
    "image_without_im": ({"d_in": 2, "d_out": 2, "images": [{"re": ZERO_2}] * 4},
                         "re and im"),
    "image_not_an_object": ({"d_in": 2, "d_out": 2, "images": [ZERO_2] * 4}, "re and im"),
}


def _write_doc(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _accepts(read, path: str) -> bool:
    try:
        read(path)
    except ValueError:
        return False
    return True


def _nearly_preserving_images(scale: float, nudge: float) -> np.ndarray:
    """The Choi map's images times scale, phi(e_01)[0, 1] moved by scale * nudge."""
    images = dejamiolkowski(witness_dk(3, 1)).images * scale
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
        assert not np.array_equal(table.images, images)  # the gate symmetrized
        for i in range(3):
            for j in range(3):
                block = choi[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
                assert table.image(i, j).tobytes() == block.tobytes()


class TestSweepCsv:
    def test_header_and_shape(self):
        text = sweep_to_csv(sweep(3, 1, [0.5], [0.0], [0.0]))
        lines = text.strip().split("\n")
        assert lines[0] == "gamma,lambda,mu,alpha,trace,detected"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "0.5"
        assert cells[3] == ""  # alpha absent
        assert cells[5] == "true"

    def test_floats_round_trip_through_repr(self):
        table = sweep(3, 1, [0.1 + 2 * 0.1], [0.0], [0.0])  # a noisy double
        gamma_cell = sweep_to_csv(table).strip().split("\n")[1].split(",")[0]
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
        assert a.read_text() == sweep_to_csv(table)

    def test_alpha_column_always_empty(self):
        text = sweep_to_csv(sweep(3, 1, [0.3, 1.0], [0.0, 0.1], [0.0, 0.2]))
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert len(rows) == 8
        assert all(len(cells) == 6 and cells[3] == "" for cells in rows)

    @pytest.mark.parametrize(
        "d, k, gammas, lams, mus",
        [
            (3, 1, [0.1 * i for i in range(1, 12)], [0.0, 0.05, 0.1], [0.0, 0.03]),
            (5, 1, [0.25 * i for i in range(1, 7)], [0.0, 0.01], [0.0, 0.02, 0.04]),
            (6, 2, [0.5, 0.75, 1.0, 1.5], [0.0, 0.003, 0.007], [0.0, 0.004]),
            (10, 3, [1.0 - 8 / 64 + i / 64 for i in range(16)], [0.0, 0.004], [0.0, 0.006]),
            (3, 1, [0.1 + 2 * 0.1], [0.1 + 2 * 0.1], [0.1 + 2 * 0.1]),
            (4, 1, [0.7], [0.0], [0.0]),
            (5, 2, [0.6, 1.0], [-0.05, -0.025, 0.0, 0.025], [0.0]),
            (3, 1, [], [0.0, 0.1], [0.0]),
            (3, 1, [0.5, 0.7], [], [0.0]),
        ],
    )
    def test_matches_row_by_row_oracle(self, d, k, gammas, lams, mus):
        expected = sweep_rows_csv(sweep_rows(d, k, gammas, lams, mus))
        assert sweep_to_csv(sweep(d, k, gammas, lams, mus)) == expected


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

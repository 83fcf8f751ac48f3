"""Stable file formats: operator JSON, map-table JSON, certificate JSON, sweep CSV.

Floats are written in Python's shortest round-trip decimal form, so a
write-then-read cycle reproduces every operator bit-exactly; entries that
are exact integers (all the unnormalized witnesses) are written as JSON
integers.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

import numpy as np

from .certify import Certificate
from .construct import LinearMapTable
from .core import HermitianOp, TensorSpace
from .detect import SweepTable


class MalformedFileError(ValueError):
    """The file is not a valid operator / map-table document."""


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedFileError(f"{path}: not valid JSON: {exc}") from exc


def _write_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _num(x: float) -> int | float:
    # Integral entries serialize as JSON integers; 2^53 bounds exact ints.
    if x == int(x) and abs(x) <= 2**53:
        return int(x)
    return float(x)


def _matrix_to_lists(m: np.ndarray) -> tuple[list[list[Any]], list[list[Any]]]:
    re = [[_num(v) for v in row] for row in m.real.tolist()]
    im = [[_num(v) for v in row] for row in m.imag.tolist()]
    return re, im


def _matrix_from_lists(re: Any, im: Any, n: int) -> np.ndarray:
    try:
        re_arr = np.array(re, dtype=float)
        im_arr = np.array(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedFileError(f"re/im are not numeric matrices: {exc}") from exc
    if re_arr.shape != (n, n) or im_arr.shape != (n, n):
        raise MalformedFileError(
            f"re/im shapes {re_arr.shape}/{im_arr.shape} do not match dims ({n}x{n})"
        )
    return re_arr + 1j * im_arr


def operator_to_json_dict(op: HermitianOp, meta: dict | None = None) -> dict:
    re, im = _matrix_to_lists(op.matrix)
    return {"dims": list(op.space.dims), "re": re, "im": im, "meta": meta or {}}


def operator_from_json_dict(doc: Any) -> tuple[HermitianOp, dict]:
    if not isinstance(doc, dict):
        raise MalformedFileError("operator document must be a JSON object")
    try:
        dims = [int(d) for d in doc["dims"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"bad or missing dims: {exc}") from exc
    try:
        space = TensorSpace(tuple(dims))
    except ValueError as exc:
        raise MalformedFileError(str(exc)) from exc
    if "re" not in doc or "im" not in doc:
        raise MalformedFileError("operator document must carry re and im matrices")
    matrix = _matrix_from_lists(doc["re"], doc["im"], space.total)
    try:
        op = HermitianOp(space, matrix)
    except ValueError as exc:
        raise MalformedFileError(f"matrix fails the Hermiticity gate: {exc}") from exc
    meta = doc.get("meta") or {}
    if not isinstance(meta, dict):
        raise MalformedFileError("meta must be a JSON object")
    return op, meta


def write_operator(path: str, op: HermitianOp, meta: dict | None = None) -> None:
    _write_json(path, operator_to_json_dict(op, meta))


def read_operator(path: str) -> tuple[HermitianOp, dict]:
    return operator_from_json_dict(_read_json(path))


def map_table_to_json_dict(table: LinearMapTable) -> dict:
    images = []
    for img in table.images:
        re, im = _matrix_to_lists(img)
        images.append({"re": re, "im": im})
    return {"d_in": table.d_in, "d_out": table.d_out, "images": images}


def map_table_from_json_dict(doc: Any) -> LinearMapTable:
    if not isinstance(doc, dict):
        raise MalformedFileError("map-table document must be a JSON object")
    try:
        d_in = int(doc["d_in"])
        d_out = int(doc["d_out"])
        raw_images = doc["images"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"bad or missing map-table fields: {exc}") from exc
    if not isinstance(raw_images, list) or len(raw_images) != d_in * d_in:
        raise MalformedFileError(
            f"images must be a list of {d_in * d_in} matrices"
        )
    images = []
    for entry in raw_images:
        if not isinstance(entry, dict) or "re" not in entry or "im" not in entry:
            raise MalformedFileError("each image needs re and im matrices")
        images.append(_matrix_from_lists(entry["re"], entry["im"], d_out))
    # a Hermiticity-preservation violation is an invalid map, not a malformed
    # file; let LinearMapTable's ValueError propagate
    return LinearMapTable(d_in=d_in, d_out=d_out, images=tuple(images))


def write_map_table(path: str, table: LinearMapTable) -> None:
    _write_json(path, map_table_to_json_dict(table))


def read_map_table(path: str) -> LinearMapTable:
    return map_table_from_json_dict(_read_json(path))


def certificate_to_json_dict(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "verdict": cert.verdict,
        "evidence": cert.evidence,
        "assumptions": list(cert.assumptions),
        "seed": cert.evidence.get("seed"),
    }


def _sweep_csv_chunks(table: SweepTable) -> Iterator[str]:
    """The header line, then the rows of each gamma as one chunk."""
    lams, mus = ([repr(float(v)) for v in grid] for grid in (table.lams, table.mus))
    tails = [f",{lam},{mu},," for lam in lams for mu in mus]
    shape = (len(table.gammas), len(tails))
    traces, hits = table.trace.reshape(shape).tolist(), table.detected.reshape(shape).tolist()
    yield "gamma,lambda,mu,alpha,trace,detected\n"
    for gamma, row_traces, row_hits in zip(table.gammas, traces, hits):
        head = repr(float(gamma))
        yield "".join([f"{head}{tail}{value!r},{'true' if hit else 'false'}\n"
                       for tail, value, hit in zip(tails, row_traces, row_hits)])


def sweep_to_csv(table: SweepTable) -> str:
    """CSV text: header gamma,lambda,mu,alpha,trace,detected; alpha is always empty.

    One row per grid point, gamma outer, lambda middle, mu inner; every
    number in shortest round-trip form.
    """
    return "".join(_sweep_csv_chunks(table))


def write_sweep_csv(path: str, table: SweepTable) -> None:
    """Write sweep_to_csv(table) one gamma at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_sweep_csv_chunks(table))

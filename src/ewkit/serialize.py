"""Stable file formats: operator JSON, map-table JSON, certificate JSON, sweep CSV.

Floats are written in Python's shortest round-trip decimal form, so a
write-then-read cycle reproduces every operator bit-exactly; integral
entries of magnitude up to 2**53 (all the unnormalized witnesses) are
written as JSON integers. Only the nonzero entries of a real or imaginary
part (a map table's images as one stack) are converted and encoded; the
zeros are written as "0" with no per-entry conversion. An operator or map
table is encoded before its file is opened, so a failed write leaves the
file as it was.

On reading, every re/im entry must be a finite JSON number. A file's text is
read once and parsed by json.loads; a file that is not UTF-8, not JSON or
nested too deeply to parse is malformed. The re and im parts are converted
by a dtype-less np.array, which leaves only one kind of bad entry unseen: a
true or false among numbers. So a document whose text holds neither literal
is accepted when both parts come out as finite int or float arrays of the
right shape; every other document goes through the per-entry type scan,
which gives each rejection its message.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, Iterator

import numpy as np

from .certify import Certificate
from .construct import LinearMapTable
from .core import HermitianOp, TensorSpace, _NotFiniteError
from .detect import SweepTable


class MalformedFileError(ValueError):
    """The file is not a valid operator / map-table document."""


def _read_json(path: str) -> tuple[Any, bool]:
    """The document in the file, and whether its text holds a true or false literal."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedFileError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedFileError(f"{path}: JSON nested too deeply to parse") from exc
    return doc, "true" in text or "false" in text


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _to_lists(a: np.ndarray) -> list:
    """Nested lists of a real array: integral entries up to 2**53 as ints, others as floats."""
    out = a.astype(object)
    exact = (a == np.trunc(a)) & (np.abs(a) <= 2**53)
    out[exact] = a[exact].astype(np.int64).astype(object)
    return out.tolist()


def _json_texts(a: np.ndarray) -> list[str]:
    """json.dumps(_to_lists(a[i])) for each i, converting only the nonzero entries.

    Zeros (-0.0 included, as _to_lists makes it int 0) stay "0" cells; the
    nonzeros are encoded by one json.dumps, whose ", " separator no JSON
    number contains. The cells are then joined one axis at a time,
    innermost first.
    """
    flat = a.ravel()
    cells = ["0"] * flat.size
    nonzero = np.flatnonzero(flat)
    if nonzero.size:
        texts = json.dumps(_to_lists(flat[nonzero]))[1:-1].split(", ")
        for i, text in zip(nonzero.tolist(), texts):
            cells[i] = text
    for n in reversed(a.shape[1:]):
        cells = ["[" + ", ".join(cells[i:i + n]) + "]" for i in range(0, len(cells), n)]
    return cells


_JSON_NUMBERS = {int, float}  # bool is an int subclass, but type(True) is bool


def _numeric_array(re: Any, im: Any, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array re + 1j*im of the given shape; every entry a finite JSON number."""
    try:
        re_arr = np.array(re, dtype=float)
        im_arr = np.array(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedFileError(f"re/im are not numeric matrices: {exc}") from exc
    if re_arr.shape != shape or im_arr.shape != shape:
        raise MalformedFileError(
            f"re/im shapes {re_arr.shape}/{im_arr.shape} do not match {shape}"
        )
    # np.array parses "1" and takes true/false/null, so check the entry types
    for part in (re, im):
        for _ in shape[1:]:
            part = chain.from_iterable(part)
        bad = set(map(type, part)) - _JSON_NUMBERS
        if bad:
            names = ", ".join(sorted(t.__name__ for t in bad))
            raise MalformedFileError(f"re/im are not numeric matrices: {names} entries")
    # json.load takes the NaN, Infinity and -Infinity literals (and 1e999) as floats
    bad = {json.dumps(v) for arr in (re_arr, im_arr) for v in arr[~np.isfinite(arr)].tolist()}
    if bad:
        raise MalformedFileError(f"re/im are not finite numbers: {', '.join(sorted(bad))} entries")
    return _complex(re_arr, im_arr)


def _complex(re_arr: np.ndarray, im_arr: np.ndarray) -> np.ndarray:
    """re_arr + 1j*im_arr built in place, keeping every bit of both parts (-0.0 too)."""
    m = np.empty(re_arr.shape, dtype=complex)
    m.real, m.imag = re_arr, im_arr
    return m


def _parts_array(re: Any, im: Any, shape: tuple[int, ...], booleans: bool) -> np.ndarray:
    """_numeric_array(re, im, shape), skipping its type scan when booleans is False.

    booleans=False promises that no entry is a JSON true or false; the only
    bad entries a dtype-less np.array then turns into int or float arrays
    are the non-finite ones (strings give kind U, null and integers beyond
    64 bits object, ragged rows raise), so finite int or float parts of the
    right shape are the parts _numeric_array accepts, with the same values.
    """
    if not booleans:
        try:
            parts = np.array(re), np.array(im)
        except ValueError:
            parts = ()
        if parts and all(arr.dtype.kind in "iuf" and arr.shape == shape
                         and np.isfinite(arr).all() for arr in parts):
            return _complex(*parts)
    return _numeric_array(re, im, shape)


def operator_from_json_dict(doc: Any, booleans: bool = True) -> tuple[HermitianOp, dict]:
    """The operator and meta of a document; see _parts_array for booleans."""
    if not isinstance(doc, dict):
        raise MalformedFileError("operator document must be a JSON object")
    dims = doc.get("dims")
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise MalformedFileError(f"dims must be a list of JSON integers, got {dims!r}")
    try:
        space = TensorSpace(tuple(dims))
    except ValueError as exc:
        raise MalformedFileError(str(exc)) from exc
    if "re" not in doc or "im" not in doc:
        raise MalformedFileError("operator document must carry re and im matrices")
    n = space.total
    matrix = _parts_array(doc["re"], doc["im"], (n, n), booleans)
    try:
        op = HermitianOp(space, matrix)
    except ValueError as exc:
        raise MalformedFileError(f"matrix fails the Hermiticity gate: {exc}") from exc
    meta = {} if doc.get("meta") is None else doc["meta"]
    if not isinstance(meta, dict):
        raise MalformedFileError("meta must be a JSON object")
    return op, meta


def write_operator(path: str, op: HermitianOp, meta: dict | None = None) -> None:
    """Write json.dumps of {"dims", "re", "im", "meta"} and a newline.

    meta must be a dict (or None for {}) of JSON values: NaN and the
    infinities are refused, as read_operator refuses them.
    """
    if meta is not None and not isinstance(meta, dict):
        raise ValueError("meta must be a JSON object")
    dims = json.dumps(list(op.space.dims))
    meta_text = json.dumps(meta or {}, allow_nan=False)
    (re,), (im,) = _json_texts(op.matrix.real[None]), _json_texts(op.matrix.imag[None])
    _write_text(path, f'{{"dims": {dims}, "re": {re}, "im": {im}, "meta": {meta_text}}}\n')


def read_operator(path: str) -> tuple[HermitianOp, dict]:
    return operator_from_json_dict(*_read_json(path))


def map_table_from_json_dict(doc: Any, booleans: bool = True) -> LinearMapTable:
    """The map table of a document; see _parts_array for booleans."""
    if not isinstance(doc, dict):
        raise MalformedFileError("map-table document must be a JSON object")
    try:
        d_in, d_out, raw_images = doc["d_in"], doc["d_out"], doc["images"]
    except KeyError as exc:
        raise MalformedFileError(f"missing map-table field: {exc}") from exc
    for name, value in (("d_in", d_in), ("d_out", d_out)):
        if type(value) is not int:
            raise MalformedFileError(f"{name} must be a JSON integer, got {value!r}")
    if not isinstance(raw_images, list) or len(raw_images) != d_in * d_in:
        raise MalformedFileError(
            f"images must be a list of {d_in * d_in} matrices"
        )
    if not all(isinstance(entry, dict) and "re" in entry and "im" in entry
               for entry in raw_images):
        raise MalformedFileError("each image needs re and im matrices")
    shape = (d_in * d_in, d_out, d_out)
    if raw_images:
        images = _parts_array([entry["re"] for entry in raw_images],
                              [entry["im"] for entry in raw_images], shape, booleans)
    else:  # d_in = 0: no entries to check; LinearMapTable rejects the dims
        images = np.zeros(shape, dtype=complex)
    # a Hermiticity-preservation violation is an invalid map, not a malformed
    # file; let LinearMapTable's ValueError propagate. A Choi matrix that is
    # not finite fails as the operator file of that matrix fails.
    try:
        return LinearMapTable.from_images(d_in, d_out, images)
    except _NotFiniteError as exc:
        raise MalformedFileError(f"matrix fails the Hermiticity gate: {exc}") from exc


def write_map_table(path: str, table: LinearMapTable) -> None:
    """Write json.dumps of {"d_in", "d_out", "images": [{"re", "im"}, ...]} and a newline.

    images[i*d_in + j] is phi(e_ij), block (i, j) of the table's Choi matrix.
    """
    d_in, d_out = table.d_in, table.d_out
    blocks = table._blocks().transpose(0, 2, 1, 3)  # [i, j] = phi(e_ij)
    res, ims = (_json_texts(part.reshape(-1, d_out, d_out)) for part in (blocks.real, blocks.imag))
    images = ", ".join(f'{{"re": {re}, "im": {im}}}' for re, im in zip(res, ims))
    _write_text(path, f'{{"d_in": {d_in}, "d_out": {d_out}, "images": [{images}]}}\n')


def read_map_table(path: str) -> LinearMapTable:
    return map_table_from_json_dict(*_read_json(path))


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


def write_sweep_csv(path: str, table: SweepTable) -> None:
    """Write the sweep as CSV, one gamma at a time.

    The header is gamma,lambda,mu,alpha,trace,detected, and alpha is always
    empty. There is one row per grid point, gamma outer, lambda middle, mu
    inner, with every number in shortest round-trip form.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_sweep_csv_chunks(table))

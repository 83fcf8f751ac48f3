"""Stable file formats: operator JSON, map-table JSON, certificate JSON, sweep CSV.

Floats are written in Python's shortest round-trip decimal form, so a
write-then-read cycle reproduces every operator bit-exactly; integral
entries of magnitude up to 2**53 (all the unnormalized witnesses) are
written as JSON integers. Only the nonzero entries of a real or imaginary
part (a map table's images as one stack) are converted and encoded, and
their texts are spliced into the text of an all-zero matrix at their byte
offsets, so the zeros cost no per-entry work; the im part of a real
(float64) operator or table is written as zeros with no pass over it. An
operator or map table is encoded before its file is opened, so a failed
write leaves the file as it was.

On reading, every re/im entry must be a finite JSON number, and a file's
text is read once. Text in the writer's own layout (what write_operator,
write_map_table and json.dumps write, with ", " and "], [" between entries
and rows) is read as _pair_texts writes it: the re parts, and the im parts
unless all are zero, are read as one stack each, whose nonzero entries are
found by their digits 1-9 and taken if cutting them out leaves the zero
texts, so a sparse stack's zeros are never parsed. Other text (and
layout text not taken: that check raises nothing, so each error has one
message) is parsed by json.loads and its parts go through the per-entry type
scan; a file that is not UTF-8, not JSON or nested too deeply to parse is
malformed. Parts whose im is all zero are read as float64 (an im -0.0 loses
its sign, as the writer prints it 0), others as complex128.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain, repeat
from typing import Any, Iterator

import numpy as np

from .certify import Certificate
from .construct import LinearMapTable
from .core import HermitianOp, TensorSpace, _NotFiniteError, _hermiticity_bound
from .detect import SweepTable


class MalformedFileError(ValueError):
    """The file is not a valid operator / map-table document."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"{path}: not UTF-8 text: {exc}") from exc


def _parse_json(path: str, text: str) -> Any:
    """The document in a file's text."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer beyond int's digit limit
        raise MalformedFileError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedFileError(f"{path}: JSON nested too deeply to parse") from exc


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
    """json.dumps(_to_lists(a[i])) for each n x n matrix a[i]; only nonzero entries are converted.

    Each text is _zero_text(n) with its matrix's nonzero entries' texts in
    place of their "0"s (at _entry_offsets). Zeros (-0.0 included, as
    _to_lists makes it int 0) stay "0". The nonzeros are encoded by one
    json.dumps, whose ", " separator no JSON number contains, and the stack
    is spliced by one join, with a newline after each matrix to split it at.
    """
    count, n = len(a), a.shape[-1]
    zeros = _zero_text(n)
    flat = a.reshape(-1)
    nonzero = np.flatnonzero(flat)
    if not nonzero.size:
        return [zeros] * count
    texts = json.dumps(_to_lists(flat[nonzero]))[1:-1].split(", ")
    stack = "\n".join([zeros] * count)
    starts = (_entry_offsets(nonzero, n) + nonzero // (n * n)).tolist()  # and the newlines
    pieces = [""] * (2 * len(texts) + 1)
    pieces[0::2] = [stack[i + 1:j] for i, j in zip([-1, *starts], [*starts, len(stack)])]
    pieces[1::2] = texts
    return "".join(pieces).split("\n")


def _pair_texts(a: np.ndarray) -> list[tuple[str, str]]:
    """The (re, im) texts of each matrix of a stack a; a real one's im texts are _zero_text(n)."""
    ims = _json_texts(a.imag) if np.iscomplexobj(a) else [_zero_text(a.shape[-1])] * len(a)
    return list(zip(_json_texts(a.real), ims))


_JSON_NUMBERS = {int, float}  # bool is an int subclass, but type(True) is bool


def _numeric_array(re: Any, im: Any, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array re + 1j*im of the given shape; every entry a finite JSON number."""
    try:
        re_arr = np.array(re, dtype=float)
        im_arr = np.array(im, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range is not finite, as 1e999
        raise MalformedFileError(f"re/im are not finite numbers: {exc}") from exc
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
    return _matrix(re_arr, im_arr)


def _matrix(re_arr: np.ndarray, im_arr: np.ndarray) -> np.ndarray:
    """re_arr as float64 when im_arr is all zero, else re_arr + 1j*im_arr built in place.

    The complex array keeps every bit of both parts; a real one drops only
    the sign of an all-zero im part's -0.0 entries, which the writer prints as 0.
    """
    if not im_arr.any():
        return np.asarray(re_arr, dtype=float)
    m = np.empty(re_arr.shape, dtype=complex)
    m.real, m.imag = re_arr, im_arr
    return m


def _space(dims: list[int]) -> TensorSpace:
    try:
        return TensorSpace(tuple(dims))
    except ValueError as exc:
        raise MalformedFileError(str(exc)) from exc


def _operator(space: TensorSpace, matrix: np.ndarray, meta: Any) -> tuple[HermitianOp, dict]:
    """The gated operator of a document's parts, and its meta ({} for null or absent)."""
    try:
        op = HermitianOp(space, matrix)
    except ValueError as exc:
        raise MalformedFileError(f"matrix fails the Hermiticity gate: {exc}") from exc
    meta = {} if meta is None else meta
    if not isinstance(meta, dict):
        raise MalformedFileError("meta must be a JSON object")
    return op, meta


def operator_from_json_dict(doc: Any) -> tuple[HermitianOp, dict]:
    """The operator and meta of a document."""
    if not isinstance(doc, dict):
        raise MalformedFileError("operator document must be a JSON object")
    dims = doc.get("dims")
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise MalformedFileError(f"dims must be a list of JSON integers, got {dims!r}")
    space = _space(dims)
    if "re" not in doc or "im" not in doc:
        raise MalformedFileError("operator document must carry re and im matrices")
    n = space.total
    return _operator(space, _numeric_array(doc["re"], doc["im"], (n, n)), doc.get("meta"))


# The writer's layouts: an operator file {"dims": [..], "re": P, "im": P, "meta": M} and a
# map table {"d_in": D, "d_out": E, "images": [{"re": P, "im": P}, ...]}, each P a matrix
# in json.dumps's separators.
_WRITER_HEAD = re.compile(r'\{"dims": \[([1-9][0-9]{0,8}(?:, [1-9][0-9]{0,8})*)\], "re": ')
_MAP_HEAD = re.compile(r'\{"d_in": ([1-9][0-9]{0,8}), "d_out": ([1-9][0-9]{0,8}), '
                       r'"images": \[\{"re": ')
_IM_KEY, _NEXT_PAIR = ', "im": ', '}, {"re": '  # the keys of a pair, and between pairs
_NUMBER_BYTES = b"0123456789+-.eE"  # the bytes a JSON number is written with
_ENTRY_MAX = 24  # the bytes searched for an entry's ends: the writer's longest entry


def _zero_text(n: int) -> str:
    """The text json.dumps gives an n x n matrix of int zeros."""
    return "[" + ", ".join(["[" + ", ".join("0" * n) + "]"] * n) + "]"


def _entry_offsets(index: np.ndarray, n: int) -> np.ndarray:
    """Where each flat entry index has its "0" in a stack of _zero_text(n), one after another.

    Entry c of row r is 3c + 1 bytes after the row's "[", at r (3n + 2) + 1.
    """
    r, c = np.divmod(index, n)
    return r * (3 * n + 2) + 3 * c + 2


def _writer_pairs(text: str, start: int, n: int, count: int,
                  end: str) -> tuple[np.ndarray, int] | None:
    """_matrix(re, im) of count (re, im) pairs of n x n matrices at text[start:], else None.

    A pair is re, _IM_KEY, im; pairs are joined by _NEXT_PAIR, and end follows the last.
    Returns the (count, n, n) stack with where end ends. An all-zero matrix's part is zeros
    itself, not a copy; if every im part is zeros, the float64 re stack is returned, no im built.
    """
    if len(text) < 2 * count * (3 * n * n + 2 * n):  # too short for the matrices
        return None
    zeros, parts = _zero_text(n), []
    pairs = chain.from_iterable(repeat((_IM_KEY, _NEXT_PAIR), count - 1))
    for key in chain(pairs, (_IM_KEY, end)):  # the key after each matrix, made as it goes
        # the shortest n x n matrix is as long as zeros; a shorter one is not in the layout
        stop = text.find("]]", start + len(zeros) - 2) + 2
        if stop < 2:
            return None
        parts.append(zeros if text.startswith(zeros, start) else text[start:stop])
        if not text.startswith(key, stop):
            return None
        start = stop + len(key)
    re = _writer_matrices(parts[0::2], n, zeros)
    if re is not None and any(part != zeros for part in parts[1::2]):  # else no im stack
        im = _writer_matrices(parts[1::2], n, zeros)
        re = None if im is None else _matrix(re, im)
    return None if re is None else (re.reshape(count, n, n), start)


def _writer_matrices(parts: list[str], n: int, zeros: str) -> np.ndarray | None:
    """The entries of the n x n matrices written as parts, one matrix after another, else None.

    zeros is _zero_text(n). Each run of digits 1-9 (every nonzero number holds
    one) is widened to the separators around it: the stack is taken if cutting
    those entries out leaves the zero texts, a "0" for each, and json.loads reads
    the entries as finite ints or floats; with no run, if every part is zeros. A
    stack with few zeros is taken if its bytes other than numbers' are the zero
    texts', and json.loads reads all of it.
    """
    entries = np.zeros(len(parts) * n * n)
    w = _ENTRY_MAX
    text = "".join(["]" * w, *parts, "]" * w])  # so every window fits
    if not text.isascii():
        return None
    b = np.frombuffer(buf := text.encode("ascii"), dtype=np.uint8)
    # runs of digits 1-9 over 1-byte gaps (entries are 3+ apart): edges[2i] + 1 .. edges[2i + 1]
    digit = b - ord("1") < 9
    digit[1:-1] |= digit[:-2] & digit[2:]
    edges = (digit[1:] != digit[:-1]).nonzero()[0]
    if not edges.size:  # no nonzero entry: all zero, or a zero spelled otherwise
        return entries if all(part == zeros for part in parts) else None
    if len(parts) * n * n < 3 * len(edges) + 128:  # parsing the zeros costs less
        skeleton = zeros.replace("0", "").encode() * len(parts)
        if buf[w:-w].translate(None, _NUMBER_BYTES) != skeleton:  # bytes other than numbers'
            return None
        joined, index = ",".join(parts), np.arange(len(parts) * n * n)
    else:  # an entry runs from the last separator before a run to the first one after it
        near = np.ndarray((len(b) - 2 * w + 1, 2 * w), np.uint8, buf, 0, (1, 1))[edges + (1 - w)]
        near = (near & 51) + 239 < 16  # b & 51 is in 17 .. 32 for " ,[]", not for numbers
        cuts = edges + 1
        cuts[0::2] -= near[0::2, w - 1::-1].argmax(1)
        cuts[1::2] += near[1::2, w:].argmax(1)
        last = np.concatenate((cuts[3::2] != cuts[1:-1:2], [True]))  # the last run of each entry
        cuts = cuts.reshape(-1, 2)[last]
        # invert _entry_offsets at entry j's "0": end - w - 1 - sum of (length - 1) over 0 .. j
        r, c = np.divmod(cuts[:, 1] - (cuts[:, 1] - cuts[:, 0] - 1).cumsum() - (w + 3), 3 * n + 2)
        index = r * n + c // 3
        bounds = [w, *cuts.ravel().tolist(), len(buf) - w]
        pieces = [text[i:j] for i, j in zip(bounds, bounds[1:])]  # around, entry, around, ...
        joined = ",".join(pieces[1::2])
        if ("0".join(pieces[0::2]) != zeros * len(parts)
                or joined.encode().translate(None, _NUMBER_BYTES) != b"," * (len(index) - 1)):
            return None
    try:
        values = np.array(json.loads(f"[{joined}]")).reshape(-1)
    except (ValueError, OverflowError):  # not JSON numbers, or an integer out of range
        return None
    kind = values.dtype.kind
    if kind not in "iuf" or kind == "f" and not np.isfinite(values).all():
        return None
    entries[index] = values
    return entries


def _writer_layout(text: str) -> tuple[list[int], np.ndarray, Any] | None:
    """(dims, _matrix(re, im), meta) of an operator file's text in the writer's layout, else None.

    Any text this returns parts of is a document that json.loads and
    _numeric_array read to the same dims, the same bits of re and im, and the
    same meta; it raises nothing, so every error keeps its one message.
    """
    head = _WRITER_HEAD.match(text)
    if head is None:
        return None
    dims = [int(d) for d in head.group(1).split(", ")]
    found = _writer_pairs(text, head.end(), math.prod(dims), 1, ', "meta": ')
    if found is None:
        return None
    try:
        meta, end = json.JSONDecoder().raw_decode(text, found[1])
    except (ValueError, RecursionError):
        return None
    if text[end:end + 1] != "}" or text[end + 1:].strip(" \t\n\r"):
        return None
    return dims, found[0][0], meta


def _writer_map_layout(text: str) -> tuple[int, int, np.ndarray] | None:
    """(d_in, d_out, images) of a map table's text in the writer's layout, else None.

    Any text this returns images of is a document that json.loads and
    map_table_from_json_dict read to the same d_in, d_out and bits of the
    image stack; like _writer_layout, it raises nothing.
    """
    head = _MAP_HEAD.match(text)
    if head is None:
        return None
    d_in, d_out = int(head.group(1)), int(head.group(2))
    found = _writer_pairs(text, head.end(), d_out, d_in * d_in, "}]}")
    if found is None or text[found[1]:].strip(" \t\n\r"):
        return None
    return d_in, d_out, found[0]


def write_operator(path: str, op: HermitianOp, meta: dict | None = None) -> None:
    """Write json.dumps of {"dims", "re", "im", "meta"} and a newline.

    meta must be a dict (or None for {}) of JSON values: NaN and the
    infinities are refused, as read_operator refuses them.
    """
    if meta is not None and not isinstance(meta, dict):
        raise ValueError("meta must be a JSON object")
    dims = json.dumps(list(op.space.dims))
    meta_text = json.dumps(meta or {}, allow_nan=False)
    ((re, im),) = _pair_texts(op.matrix[None])
    _write_text(path, f'{{"dims": {dims}, "re": {re}{_IM_KEY}{im}, "meta": {meta_text}}}\n')


def read_operator(path: str) -> tuple[HermitianOp, dict]:
    text = _read_text(path)
    layout = _writer_layout(text)
    if layout is None:
        return operator_from_json_dict(_parse_json(path, text))
    del text  # not held through the gate's copies
    dims, matrix, meta = layout
    return _operator(_space(dims), matrix, meta)


def map_table_from_json_dict(doc: Any) -> LinearMapTable:
    """The map table of a document."""
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
        images = _numeric_array([entry["re"] for entry in raw_images],
                                [entry["im"] for entry in raw_images], shape)
    else:  # d_in = 0: no entries to check; _map_table rejects the dims
        images = np.zeros(shape, dtype=complex)
    return _map_table(d_in, d_out, images)


def _map_table(d_in: int, d_out: int, images: np.ndarray) -> LinearMapTable:
    """The gated table with phi(e_ij) = images[i*d_in + j], a float64 or complex128 stack.

    The images go into the Choi matrix, gated once. A map that does not
    preserve Hermiticity is an invalid map, not a malformed file: its
    ValueError names the first (i, j) with phi(e_ij)^dag != phi(e_ji). A Choi
    matrix that is not finite fails as the operator file of that matrix fails.
    """
    space = TensorSpace((d_in, d_out))  # first: d_in of 0 or 1 is an invalid map
    blocks = images.reshape(d_in, d_in, d_out, d_out)
    try:
        choi = HermitianOp(space, blocks.transpose(0, 2, 1, 3).reshape(space.total, -1))
    except _NotFiniteError as exc:  # an entry, or (M + M^dag)/2, is not finite
        raise MalformedFileError(f"matrix fails the Hermiticity gate: {exc}") from exc
    except ValueError:
        # not Hermitian: some dev[i, j] = max |phi(e_ij)^dag - phi(e_ji)| exceeds the bound
        dev = np.abs(blocks.conj().transpose(1, 0, 3, 2) - blocks).max(axis=(2, 3))
        i, j = np.argwhere(dev > _hermiticity_bound(images))[0]
        raise ValueError(f"map is not Hermiticity preserving at ({i},{j}): "
                         f"deviation {dev[i, j]:.3e}") from None
    return LinearMapTable(choi)


def write_map_table(path: str, table: LinearMapTable) -> None:
    """Write json.dumps of {"d_in", "d_out", "images": [{"re", "im"}, ...]} and a newline.

    images[i*d_in + j] is phi(e_ij), block (i, j) of the table's Choi matrix.
    """
    d_in, d_out = table.d_in, table.d_out
    blocks = table._blocks().transpose(0, 2, 1, 3)  # [i, j] = phi(e_ij)
    stack = blocks.reshape(-1, d_out, d_out)
    images = _NEXT_PAIR.join(re + _IM_KEY + im for re, im in _pair_texts(stack))
    _write_text(path, f'{{"d_in": {d_in}, "d_out": {d_out}, "images": [{{"re": {images}}}]}}\n')


def read_map_table(path: str) -> LinearMapTable:
    text = _read_text(path)
    layout = _writer_map_layout(text)
    if layout is None:
        return map_table_from_json_dict(_parse_json(path, text))
    del text  # not held through the gate's copies
    return _map_table(*layout)


def certificate_to_json_dict(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "verdict": cert.verdict,
        "evidence": cert.evidence,
        "assumptions": list(cert.assumptions),
        "seed": cert.evidence.get("seed"),
    }


def certificate_text(cert: Certificate) -> str:
    """The printed certificate: json.dumps(certificate_to_json_dict(cert), indent=2), exactly."""
    return _indented(certificate_to_json_dict(cert), "")


def _indented(value: Any, indent: str) -> str:
    """json.dumps(value, indent=2) of a value nested at indent, which starts its later lines.

    json's indented encoder is pure Python, so a list whose items are all
    exactly int or float (a history, a vector, a spectrum) is encoded by one
    C-encoder json.dumps instead, and its ", " separators, which no JSON
    number contains, become the indented line breaks.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{_key_text(key)}: {_indented(item, inner)}" for key, item in value.items()]
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) <= _JSON_NUMBERS:
            items = [json.dumps(value)[1:-1].replace(", ", ",\n" + inner)]
        else:
            items = [_indented(item, inner) for item in value]
    else:  # a scalar, {} or []
        return json.dumps(value)
    ends = "{}" if isinstance(value, dict) else "[]"
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"


def _key_text(key: Any) -> str:
    """A dict key as json.dumps writes it: a str quoted; an int, float, bool or None as its
    JSON text, quoted; any other key raises TypeError."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)
    return json.dumps(key)


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

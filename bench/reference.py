"""A fixed job that gauges how fast the host runs, in a process of its own.

run.py starts this script once per run. For every line it reads on stdin it
runs the job once and answers with the job's time in seconds; it exits at the
end of its input. The job is a small mix of the work ewkit's ops do: plain
Python objects and float formatting, JSON text of a float list, and small
Hermitian eigensolves. It imports nothing from ewkit and shares no state with
the process that runs ewkit, so no change to ewkit moves its time, and its
time moves only with the host's speed.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROWS = 1500
FLOATS = [i / 7 for i in range(1500)]
_rng = np.random.default_rng(0)
MATRICES = [m + m.conj().T for m in
            (_rng.standard_normal((9, 9)) + 1j * _rng.standard_normal((9, 9)) for _ in range(30))]


def job() -> float:
    start = time.perf_counter()
    rows = [(i * 0.1, -i / 3, i % 3 == 0) for i in range(ROWS)]
    text = "\n".join(f"{a!r},{b!r},{'true' if c else 'false'}" for a, b, c in rows)
    doc = json.loads(json.dumps({"re": FLOATS, "text": text}))
    for m in MATRICES:
        np.linalg.eigh(m)
    elapsed = time.perf_counter() - start
    if len(doc["re"]) != len(FLOATS):
        raise AssertionError("reference job lost data")
    return elapsed


def main() -> int:
    job()  # warm-up
    for _ in sys.stdin:
        print(repr(job()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: their inputs, op lists and output checks.

A workload is a list of ops (one pass) built from the seed. Every op is one
``ewkit.cli.main(argv)`` call with an expected exit code and a check that
reads the op's output with plain numpy, never through the code being timed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ewkit.certify import certify_detection
from ewkit.core import HermitianOp, bipartite

# Mirrors of the CLI's documented conventions: the detection tolerance of
# `pair`, the zero floor of the threshold formulas and the scan's cutoff.
DETECTION_TOL = -1e-12
ZERO_TOL = 1e-12
SCAN_CUTOFF = -1e-8

PAIR_DIMS = (3, 5, 8, 12, 20)
SCAN_DIMS = (3, 4, 5, 6, 8)
SWEEP_DK = ((3, 1), (5, 1), (6, 2), (10, 3))

SCAN_RESTARTS = 40
# Caps each restart's alternating steps. Nearly every witness restart reaches
# the cap while Q-P restarts exit early, so the work of an op hardly depends
# on the seed. At the CLI default of 500 the few witness restarts that never
# converge take half of the scan time and the seed moves it by ten per cent.
SCAN_MAX_ITERS = 30
SCAN_WITNESS_SEEDS = 4  # per d; the Q-P candidate gets twice as many
SWEEP_SHAPE = (64, 16, 20)  # gamma, lambda and mu grid lengths: 20480 rows
SWEEP_GRIDS = 5  # per (d, k)


class CheckFailed(Exception):
    """An op's output disagrees with the independent reference."""


class KnownDefect(CheckFailed):
    """A sweep reports the separable gamma = 1 state as detected.

    This is ROADMAP item 3, Bug 1, a defect the program currently has. The op
    counts as failed, but the run stays correct, so the defect remains
    measurable until it is fixed.
    """

    def __init__(self, rows: int):
        super().__init__(f"{rows} gamma = 1 row(s) disagree with certify_detection")
        self.rows = rows


@dataclass(frozen=True)
class Op:
    argv: list[str]
    exit_code: int
    check: Callable[[str], None]  # receives the op's stdout


@dataclass(frozen=True)
class Workload:
    ops: list[Op]  # one pass
    warmup: list[Op]  # run once during set-up


# ---------------------------------------------------------------- references


def load_matrix(path: str | Path) -> tuple[list[int], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["dims"], np.array(doc["re"], dtype=float) + 1j * np.array(doc["im"], dtype=float)


def write_operator_file(path: Path, dims: list[int], m: np.ndarray) -> None:
    """A real matrix in the operator file format, integral entries as integers."""
    rows = [[int(x) if x.is_integer() else x for x in row] for row in m.tolist()]
    zeros = [[0] * len(rows)] * len(rows)
    doc = {"dims": dims, "re": rows, "im": zeros, "meta": {}}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def ref_witness(d: int, k: int) -> np.ndarray:
    w = np.zeros((d * d, d * d))
    for i in range(d):
        w[i * d + i, i * d + i] += d - k - 1
        for step in range(1, k + 1):
            m = i * d + (i + step) % d
            w[m, m] += 1
        for j in range(d):
            if j != i:
                w[i * d + i, j * d + j] = -1
    return w


def state_weights(d: int, g: float) -> tuple[float, float, float]:
    """a_gamma, b_gamma and N_gamma of the Ha state family."""
    return (g * g + d - 1) / d, (g**-2 + d - 1) / d, d * d - 2 + g * g + g**-2


def ref_state(d: int, g: float) -> np.ndarray:
    a, b, n = state_weights(d, g)
    base = np.ones(d)
    base[1], base[d - 1] = a, b
    rho = np.zeros((d * d, d * d))
    for i in range(d):
        for m in range(d):
            rho[i * d + m, i * d + m] = base[(m - i) % d]
        for j in range(d):
            if j != i:
                rho[i * d + i, j * d + j] = 1.0
    return rho / n


def ref_cyclic(d: int, offset: int) -> np.ndarray:
    v = np.zeros(d * d)
    for i in range(d):
        v[i * d + (i + offset) % d] = 1.0
    return np.outer(v, v)


def closed_traces(d: int, g: float) -> tuple[float, float, float]:
    """Tr(W rho), Tr(P rho) and Tr(Q rho) for k <= d-2, in closed form."""
    a, b, n = state_weights(d, g)
    return (g * g - 1) / n, d * b / n, d * a / n


def pt_min_eig(m: np.ndarray, dims: list[int], bits: list[int]) -> float:
    n = len(dims)
    axes = list(range(2 * n))
    for i, flag in enumerate(bits):
        if flag:
            axes[i], axes[n + i] = axes[n + i], axes[i]
    pt = m.reshape(dims + dims).transpose(axes).reshape(m.shape)
    return float(np.linalg.eigvalsh(pt)[0])


def tr(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", a, b).real)


def grid(start: float, step: float, count: int) -> tuple[str, list[float]]:
    """A CLI grid string and the values the CLI derives from it."""
    stop = start + (count - 0.5) * step
    return f"{start!r}:{stop!r}:{step!r}", [start + i * step for i in range(count)]


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def printed(stdout: str) -> float | None:
    text = stdout.strip()
    return None if text == "none" else float(text)


def close(value: float | None, expected: float | None, tol: float = 1e-6) -> bool:
    if value is None or expected is None:
        return value is expected
    return abs(value - expected) <= tol


# ------------------------------------------------------------- pair-pipeline


def _chain(d: int, gamma: float, rng: random.Random, work: Path, ghz: Path, sigma: str,
           ghz_p: float) -> list[Op]:
    """The README flow at local dimension d with k = 1."""
    t0, tp, tq = closed_traces(d, gamma)
    lam = rng.uniform(0.1, 0.8) * (-t0 / tp)
    mu = rng.uniform(0.1, 0.8) * (-(t0 + lam * tp) / tq)
    f = {name: str(work / f"{name}{d}.json")
         for name in ("w", "rho", "sep", "p", "q", "wlm", "map", "wback")}

    def matrix(name: str) -> np.ndarray:
        dims, m = load_matrix(f[name])
        require(dims == [d, d], f"{f[name]}: dims {dims}")
        return m

    def exact(name: str, ref: np.ndarray) -> Callable[[str], None]:
        def check(_: str) -> None:
            require(np.array_equal(matrix(name), ref), f"{f[name]} differs from the reference")
        return check

    def near(name: str, ref: Callable[[], np.ndarray], tol: float) -> Callable[[str], None]:
        def check(_: str) -> None:
            require(np.abs(matrix(name) - ref()).max() <= tol, f"{f[name]} differs from the reference")
        return check

    def check_pair(out: str) -> None:
        value, verdict = out.split("\n")[:2]
        require(close(float(value), t0), f"pair printed {value}, expected {t0:.6f}")
        require(verdict == "detected: true", f"pair printed {verdict!r}")

    def traces(*names: str) -> list[float]:
        rho = matrix("rho")
        return [tr(matrix(n), rho) for n in names]

    def check_alpha(out: str) -> None:
        t_w, = traces("w")
        t_s = tr(matrix("w"), matrix("sep"))
        expected = 1.0 if abs(t_s) <= ZERO_TOL else -t_w / (t_s - t_w)
        require(close(printed(out), expected), f"alpha printed {out!r}, expected {expected}")

    def check_lambda(out: str) -> None:
        t_w, t_p = traces("w", "p")
        require(close(printed(out), -t_w / t_p), f"lambda printed {out!r}, expected {-t_w / t_p}")

    def check_mu(out: str) -> None:
        t_w, t_p, t_q = traces("w", "p", "q")
        t_lam = t_w + lam * t_p
        expected = None if t_lam >= DETECTION_TOL else -t_lam / t_q
        require(close(printed(out), expected), f"mu printed {out!r}, expected {expected}")

    def cert(out: str, kind: str, verdict: bool) -> dict:
        doc = json.loads(out)
        require(doc["kind"] == kind and doc["verdict"] is verdict, f"{kind}: verdict {doc['verdict']}")
        return doc["evidence"]

    def check_ppt(out: str) -> None:
        ev = cert(out, "ppt", True)
        require(abs(ev["min_eigenvalue"] - pt_min_eig(matrix("rho"), [d, d], [0, 1])) <= 1e-9,
                "ppt minimum eigenvalue differs from numpy")

    def check_pairing(kind: str) -> Callable[[str], None]:
        def check(out: str) -> None:
            ev = cert(out, kind, True)
            require(abs(ev["trace"] - traces("w")[0]) <= 1e-12, f"{kind}: trace differs from numpy")
        return check

    def check_ccp(out: str) -> None:
        ev = cert(out, "ccp", False)
        require(abs(ev["min_eigenvalue"] - pt_min_eig(matrix("w"), [d, d], [0, 1])) <= 1e-9,
                "ccp minimum eigenvalue differs from numpy")

    def check_map(_: str) -> None:
        with open(f["map"], encoding="utf-8") as fh:
            doc = json.load(fh)
        w = matrix("w")
        require(doc["d_in"] == d and doc["d_out"] == d and len(doc["images"]) == d * d,
                "map table has the wrong shape")
        for idx, img in enumerate(doc["images"]):
            i, j = divmod(idx, d)
            block = np.array(img["re"], dtype=float) + 1j * np.array(img["im"], dtype=float)
            require(np.array_equal(block, w[i * d:(i + 1) * d, j * d:(j + 1) * d]),
                    f"map image ({i},{j}) is not block ({i},{j}) of the witness")

    def check_round_trip(_: str) -> None:
        require(np.array_equal(matrix("wback"), matrix("w")), "cj round trip changed the witness")

    def check_ghz(out: str) -> None:
        ev = cert(out, "ppt", ghz_p <= 0.2)
        require(abs(ev["min_eigenvalue"] - ((1 - ghz_p) / 8 - ghz_p / 2)) <= 1e-12,
                "sigma-PPT minimum eigenvalue differs from the closed form")

    ds = str(d)
    return [
        Op(["construct", "witness", "--d", ds, "--k", "1", "--out", f["w"]], 0,
           exact("w", ref_witness(d, 1))),
        Op(["construct", "state", "--d", ds, "--gamma", repr(gamma), "--out", f["rho"]], 0,
           near("rho", lambda: ref_state(d, gamma), 1e-15)),
        Op(["construct", "state", "--d", ds, "--gamma", "1.0", "--out", f["sep"]], 0,
           near("sep", lambda: ref_state(d, 1.0), 1e-15)),
        Op(["construct", "projector-p", "--d", ds, "--out", f["p"]], 0, exact("p", ref_cyclic(d, -1))),
        Op(["construct", "projector-q", "--d", ds, "--out", f["q"]], 0, exact("q", ref_cyclic(d, 1))),
        Op(["construct", "perturbed", "--d", ds, "--k", "1", "--lambda", repr(lam),
            "--mu", repr(mu), "--out", f["wlm"]], 0,
           near("wlm", lambda: matrix("w") + lam * matrix("p") + mu * matrix("q"), 1e-12)),
        Op(["pair", f["w"], f["rho"]], 0, check_pair),
        Op(["bounds", "alpha", "-w", f["w"], "-r", f["rho"], "-s", f["sep"]], 0, check_alpha),
        Op(["bounds", "lambda", "-w", f["w"], "-p", f["p"], "-r", f["rho"]], 0, check_lambda),
        Op(["bounds", "mu", "-w", f["w"], "-p", f["p"], "-q", f["q"], "--lambda", repr(lam),
            "-r", f["rho"]], 0, check_mu),
        Op(["certify", "ppt", "-s", f["rho"]], 0, check_ppt),
        Op(["certify", "indecomposable", "-w", f["w"], "-s", f["rho"]], 0,
           check_pairing("indecomposable")),
        Op(["certify", "atomic", "-w", f["w"], "-s", f["rho"]], 0, check_pairing("atomic-conditional")),
        Op(["certify", "ccp", "-w", f["w"]], 1, check_ccp),
        Op(["cj", "to-map", "-w", f["w"], "--out", f["map"]], 0, check_map),
        Op(["cj", "to-witness", "-m", f["map"], "--out", f["wback"]], 0, check_round_trip),
        Op(["certify", "ppt", "-s", str(ghz), "--sigma", sigma], 0 if ghz_p <= 0.2 else 1, check_ghz),
    ]


def ghz_mixture(p: float) -> np.ndarray:
    """p |GHZ><GHZ| + (1-p) I/8 on three qubits."""
    v = np.zeros(8)
    v[0] = v[7] = 2**-0.5
    return p * np.outer(v, v) + (1 - p) * np.eye(8) / 8


def pair_pipeline(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    chains = []
    for d in PAIR_DIMS:
        gamma = rng.uniform(0.3, 0.9)
        # the noisy GHZ state is sigma-PPT exactly when p <= 1/5
        ghz_p = rng.choice((rng.uniform(0.05, 0.15), rng.uniform(0.25, 0.35)))
        sigma = rng.choice(("0,0,1", "0,1,0", "1,0,0", "0,1,1", "1,0,1", "1,1,0"))
        ghz = work / f"ghz{d}.json"
        write_operator_file(ghz, [2, 2, 2], ghz_mixture(ghz_p))
        chains.append(_chain(d, gamma, rng, work, ghz, sigma, ghz_p))
    return Workload([op for chain in chains for op in chain], chains[0])


# ------------------------------------------------------------- blockpos-scan


def blockpos_scan(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    for d in SCAN_DIMS:
        candidates = (
            ("witness", ref_witness(d, 1), SCAN_WITNESS_SEEDS, True),
            ("qp", ref_cyclic(d, 1) - ref_cyclic(d, -1), 2 * SCAN_WITNESS_SEEDS, False),
        )
        for name, matrix, count, passes in candidates:
            path = work / f"{name}{d}.json"
            write_operator_file(path, [d, d], matrix)
            for _ in range(count):
                ops.append(Op(
                    ["certify", "blockpos", "-w", str(path), "--restarts", str(SCAN_RESTARTS),
                     "--max-iters", str(SCAN_MAX_ITERS), "--seed", str(rng.randrange(2**31))],
                    0 if passes else 1,
                    _scan_check(matrix, passes),
                ))
    return Workload(ops, [ops[0], ops[SCAN_WITNESS_SEEDS]])


def _scan_check(w: np.ndarray, passes: bool) -> Callable[[str], None]:
    def check(out: str) -> None:
        doc = json.loads(out)
        ev = doc["evidence"]
        require(doc["kind"] == "blockpos-scan" and doc["verdict"] is passes,
                f"blockpos verdict {doc['verdict']}, expected {passes}")
        require(len(ev["histories"]) == SCAN_RESTARTS, "one history per restart expected")
        x = np.array(ev["x_re"]) + 1j * np.array(ev["x_im"])
        y = np.array(ev["y_re"]) + 1j * np.array(ev["y_im"])
        v = np.kron(x, y)
        value = float((v.conj() @ w @ v).real)
        require(abs(value - ev["product_value"]) <= 1e-9, "product vector does not recompute")
        require((value >= SCAN_CUTOFF) is passes,
                f"product value {value} on the wrong side of the cutoff")
    return check


# ----------------------------------------------------------------- sweep-csv


def sweep_csv(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    n_gamma, n_lam, n_mu = SWEEP_SHAPE
    ops = []
    for (d, k), i in itertools.product(SWEEP_DK, range(SWEEP_GRIDS)):
        # dyadic steps, so that gamma = 1 is hit exactly at index `one`
        step = rng.choice((1 / 64, 1 / 128))
        one = rng.randrange(n_gamma // 4, 3 * n_gamma // 4)
        g_text, gammas = grid(1.0 - one * step, step, n_gamma)
        assert gammas[one] == 1.0
        # lambda and mu grids start at 0, where the gamma = 1 trace is round-off
        l_text, lams = grid(0.0, rng.uniform(0.002, 0.01), n_lam)
        m_text, mus = grid(0.0, rng.uniform(0.002, 0.01), n_mu)
        out = work / f"sweep{d}_{k}_{i}.csv"
        ops.append(Op(
            ["sweep", "--d", str(d), "--k", str(k), "--gamma-grid", g_text,
             "--lambda-grid", l_text, "--mu-grid", m_text, "--out", str(out)],
            0,
            SweepCheck(d, k, gammas, lams, mus, one, out),
        ))
    return Workload(ops, ops[:1])


class SweepCheck:
    """Row count, sampled traces, and every gamma = 1 verdict of one sweep op."""

    SAMPLE_EVERY = 37

    def __init__(self, d, k, gammas, lams, mus, one, path):
        self.d, self.k = d, k
        self.gammas, self.lams, self.mus, self.one, self.path = gammas, lams, mus, one, path
        self._expected_at_one: list[bool] | None = None

    def expected_at_one(self) -> list[bool]:
        """certify_detection on every (lambda, mu) witness against the gamma = 1 state."""
        if self._expected_at_one is None:
            d = self.d
            rho = HermitianOp(bipartite(d), ref_state(d, 1.0))
            w, p, q = ref_witness(d, self.k), ref_cyclic(d, -1), ref_cyclic(d, 1)
            self._expected_at_one = [
                certify_detection(HermitianOp(bipartite(d), w + lam * p + mu * q), rho).verdict
                for lam in self.lams for mu in self.mus
            ]
        return self._expected_at_one

    def __call__(self, _: str) -> None:
        n_lam, n_mu = len(self.lams), len(self.mus)
        block = n_lam * n_mu
        expected_at_one = self.expected_at_one()
        mismatched = rows = 0
        with open(self.path, encoding="utf-8") as fh:
            require(fh.readline() == "gamma,lambda,mu,alpha,trace,detected\n", "bad CSV header")
            for r, line in enumerate(fh):
                rows += 1
                gi, rest = divmod(r, block)
                if gi != self.one and r % self.SAMPLE_EVERY:
                    continue
                li, mi = divmod(rest, n_mu)
                g, lam, mu, alpha, trace, detected = line.rstrip("\n").split(",")
                gamma = self.gammas[gi]
                require(float(g) == gamma and float(lam) == self.lams[li]
                        and float(mu) == self.mus[mi] and alpha == "",
                        f"row {r}: unexpected grid values {line!r}")
                t0, tp, tq = closed_traces(self.d, gamma)
                require(abs(float(trace) - (t0 + self.lams[li] * tp + self.mus[mi] * tq)) <= 1e-12,
                        f"row {r}: trace differs from the closed form")
                require(detected in ("true", "false"), f"row {r}: bad detected cell")
                if gi == self.one and (detected == "true") != expected_at_one[rest]:
                    mismatched += 1
        require(rows == len(self.gammas) * block, f"{rows} rows, expected {len(self.gammas) * block}")
        if mismatched:
            raise KnownDefect(mismatched)


WORKLOADS = {
    "pair-pipeline": pair_pipeline,
    "blockpos-scan": blockpos_scan,
    "sweep-csv": sweep_csv,
}

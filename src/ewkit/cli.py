"""Command-line front end.

Subcommands: construct, pair, bounds, sweep, certify, cj. Exit codes are a
total contract: 0 success (or certified), 1 not-certified / violation found,
2 parameter violation or dimension mismatch, 3 unreadable or malformed file.
The environment variable EWKIT_SEED supplies the default scan seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .certify import (
    HA_SCHMIDT_ASSUMPTION,
    ScanConfig,
    blockpos_scan,
    certify_atomic_conditional,
    certify_completely_copositive,
    certify_indecomposable,
    certify_ppt,
)
from .construct import (
    dejamiolkowski,
    ha_state,
    jamiolkowski,
    perturbed_witness,
    projector_p,
    projector_q,
    witness_dk,
)
from .core import DETECTION_TOL, HermitianOp, trace_pair
from .detect import (
    alpha_threshold,
    lambda_threshold,
    mu_threshold,
    sweep,
)
from .serialize import (
    MalformedFileError,
    certificate_to_json_dict,
    read_map_table,
    read_operator,
    write_map_table,
    write_operator,
    write_sweep_csv,
)


def parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive start, exclusive stop) or a bare number."""
    if ":" not in text:
        return [float(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be 'start:stop:step', got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"grid step must be finite and > 0, got {text!r}")
    count = max(0, math.ceil((stop - start) / step - 1e-9))
    return [start + i * step for i in range(count)]


def parse_sigma(text: str) -> tuple[bool, ...]:
    """Parse comma-separated transposition bits, e.g. '0,1'."""
    bits = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece not in ("0", "1"):
            raise ValueError(f"sigma bits must be 0 or 1, got {piece!r}")
        bits.append(piece == "1")
    return tuple(bits)


def _default_seed() -> int:
    raw = os.environ.get("EWKIT_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"EWKIT_SEED must be an integer, got {raw!r}") from exc


def _sigma_or_default(op: HermitianOp, text: str | None) -> tuple[bool, ...]:
    if text is None:
        n = op.space.nparts
        return tuple(i == n - 1 for i in range(n))
    return parse_sigma(text)


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required option {flag}")
    return value


def _cmd_construct(args: argparse.Namespace) -> int:
    kind = args.kind
    d = args.d
    if kind == "witness":
        op = witness_dk(d, _require(args.k, "--k"))
        meta = {"construction": "witness-dk", "d": d, "k": args.k}
    elif kind == "state":
        gamma = _require(args.gamma, "--gamma")
        op = ha_state(d, gamma)
        meta = {"construction": "ha-state", "d": d, "gamma": gamma}
        if gamma == 1.0:
            meta["separable"] = True
    elif kind == "projector-p":
        op = projector_p(d)
        meta = {"construction": "projector-p", "d": d}
    elif kind == "projector-q":
        op = projector_q(d)
        meta = {"construction": "projector-q", "d": d}
    else:  # perturbed
        op = perturbed_witness(d, _require(args.k, "--k"), args.lam, args.mu)
        meta = {
            "construction": "perturbed-witness",
            "d": d,
            "k": args.k,
            "lambda": args.lam,
            "mu": args.mu,
        }
    write_operator(args.out, op, meta)
    return 0


def _cmd_pair(args: argparse.Namespace) -> int:
    w, _ = read_operator(args.witness)
    rho, _ = read_operator(args.state)
    value = trace_pair(w, rho)
    print(f"{value:.6f}")
    print(f"detected: {'true' if value < DETECTION_TOL else 'false'}")
    return 0


def _print_threshold(value: float | None) -> None:
    if value is None:
        print("none")
    elif math.isinf(value):
        print("infinite")
    else:
        print(f"{value:.6f}")


def _cmd_bounds(args: argparse.Namespace) -> int:
    w, _ = read_operator(_require(args.witness, "-w"))
    rho, _ = read_operator(_require(args.rho, "-r"))
    if args.kind == "alpha":
        sigma, _ = read_operator(_require(args.sigma_sep, "-s"))
        value = alpha_threshold(w, rho, sigma)
    elif args.kind == "lambda":
        p, _ = read_operator(_require(args.p, "-p"))
        value = lambda_threshold(w, p, rho)
    else:  # mu
        p, _ = read_operator(_require(args.p, "-p"))
        q, _ = read_operator(_require(args.q, "-q"))
        value = mu_threshold(w, p, q, args.lam, rho)
    _print_threshold(value)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    table = sweep(
        args.d,
        args.k,
        parse_grid(args.gamma_grid),
        parse_grid(args.lambda_grid),
        parse_grid(args.mu_grid),
    )
    write_sweep_csv(args.out, table)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "ppt":
        rho, _ = read_operator(_require(args.state, "-s"))
        cert = certify_ppt(rho, _sigma_or_default(rho, args.sigma))
    elif kind == "indecomposable":
        w, _ = read_operator(_require(args.witness, "-w"))
        rho, _ = read_operator(_require(args.state, "-s"))
        cert = certify_indecomposable(w, rho, _sigma_or_default(rho, args.sigma))
    elif kind == "atomic":
        w, _ = read_operator(_require(args.witness, "-w"))
        rho, _ = read_operator(_require(args.state, "-s"))
        cert = certify_atomic_conditional(w, rho, args.assumption)
    elif kind == "blockpos":
        w, _ = read_operator(_require(args.witness, "-w"))
        config = ScanConfig(
            restarts=args.restarts,
            max_iters=args.max_iters,
            conv_tol=args.conv_tol,
            seed=args.seed if args.seed is not None else _default_seed(),
        )
        cert = blockpos_scan(w, config)
    else:  # ccp
        w, _ = read_operator(_require(args.witness, "-w"))
        cert = certify_completely_copositive(w)
    doc = certificate_to_json_dict(cert)
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if cert.verdict else 1


def _cmd_cj(args: argparse.Namespace) -> int:
    if args.direction == "to-map":
        w, _ = read_operator(_require(args.witness, "-w"))
        write_map_table(args.out, dejamiolkowski(w))
    else:  # to-witness
        table = read_map_table(_require(args.map, "-m"))
        write_operator(args.out, jamiolkowski(table), {"construction": "cj-witness"})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewkit",
        description=(
            "Construct entanglement witnesses and PPT entangled states, compute "
            "detection thresholds, run sweeps, and emit certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build an operator and write it")
    p_construct.add_argument(
        "kind",
        choices=["witness", "state", "projector-p", "projector-q", "perturbed"],
    )
    p_construct.add_argument("--d", type=int, required=True, help="local dimension")
    p_construct.add_argument("--k", type=int, default=None)
    p_construct.add_argument("--gamma", type=float, default=None)
    p_construct.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_construct.add_argument("--mu", type=float, default=0.0)
    p_construct.add_argument("--out", required=True, help="output operator file")
    p_construct.set_defaults(func=_cmd_construct)

    p_pair = sub.add_parser("pair", help="trace pairing of a witness and a state")
    p_pair.add_argument("witness", help="witness operator file")
    p_pair.add_argument("state", help="state operator file")
    p_pair.set_defaults(func=_cmd_pair)

    p_bounds = sub.add_parser("bounds", help="detection thresholds in closed form")
    p_bounds.add_argument("kind", choices=["alpha", "lambda", "mu"])
    p_bounds.add_argument("-w", "--witness", required=True)
    p_bounds.add_argument("-r", "--rho", required=True, help="detected state file")
    p_bounds.add_argument("-s", "--sigma-sep", dest="sigma_sep", default=None,
                          help="declared-separable state file (alpha)")
    p_bounds.add_argument("-p", default=None, help="PSD perturbation file (lambda/mu)")
    p_bounds.add_argument("-q", default=None, help="second PSD perturbation file (mu)")
    p_bounds.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="tabulate pairings over parameter grids")
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument("--k", type=int, required=True)
    p_sweep.add_argument("--gamma-grid", required=True,
                         help="start:stop:step (stop exclusive) or a single value")
    p_sweep.add_argument("--lambda-grid", default="0")
    p_sweep.add_argument("--mu-grid", default="0")
    p_sweep.add_argument("--out", required=True, help="output CSV file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_certify = sub.add_parser("certify", help="emit a certificate as JSON")
    p_certify.add_argument(
        "kind", choices=["ppt", "indecomposable", "atomic", "blockpos", "ccp"]
    )
    p_certify.add_argument("-w", "--witness", default=None)
    p_certify.add_argument("-s", "--state", default=None)
    p_certify.add_argument("--sigma", default=None,
                           help="comma-separated transposition bits, e.g. 0,1")
    p_certify.add_argument("--restarts", type=int, default=100)
    p_certify.add_argument("--max-iters", type=int, default=500)
    p_certify.add_argument("--conv-tol", type=float, default=1e-12)
    p_certify.add_argument("--seed", type=int, default=None,
                           help="scan seed (default: EWKIT_SEED or 0)")
    p_certify.add_argument("--assumption", default=HA_SCHMIDT_ASSUMPTION,
                           help="external fact recorded by 'atomic'")
    p_certify.add_argument("--out", default=None, help="also write the JSON here")
    p_certify.set_defaults(func=_cmd_certify)

    p_cj = sub.add_parser("cj", help="Choi-Jamiolkowski transforms")
    p_cj.add_argument("direction", choices=["to-witness", "to-map"])
    p_cj.add_argument("-w", "--witness", default=None)
    p_cj.add_argument("-m", "--map", default=None)
    p_cj.add_argument("--out", required=True)
    p_cj.set_defaults(func=_cmd_cj)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

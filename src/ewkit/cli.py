"""Command-line front end.

Subcommands: construct, pair, bounds, sweep, certify, cj. Exit codes are a
total contract: 0 success (or certified), 1 not-certified / violation found,
2 parameter violation, dimension mismatch or failed allocation (an operator
too large for memory), 3 unreadable or malformed file.
Each kind of construct, bounds, certify and cj accepts only the options it
reads; any other option, like a missing required one, exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import replace

from .certify import (
    HA_SCHMIDT_ASSUMPTION,
    ScanConfig,
    blockpos_scan,
    certify_atomic_conditional,
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
from .core import HermitianOp, _default_sigma, detection_threshold, trace_pair
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


#: Most points a grid, and most rows a sweep, may hold.
MAX_SWEEP_ROWS = 10**7

#: A range grid ends before stop: its point count (stop - start) / step is
#: rounded up only past this many steps above an integer, so that round-off
#: in the division adds no point at stop.
GRID_STOP_SLACK = 1e-9


def _grid_count(text: str) -> tuple[list[float], int]:
    """The numbers of a grid text and its point count; raises as parse_grid documents."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"grid must be 'start:stop:step', got {text!r}")
    numbers = [float(p) for p in parts]
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if len(numbers) == 1:
        return numbers, 1
    start, stop, step = numbers
    if step <= 0:
        raise ValueError(f"grid step must be > 0, got {text!r}")
    points = (stop - start) / step - GRID_STOP_SLACK
    if points > MAX_SWEEP_ROWS:
        raise ValueError(f"grid has more than {MAX_SWEEP_ROWS} points, got {text!r}")
    return numbers, max(0, math.ceil(points))


def parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive start, exclusive stop) or a bare number.

    Every number must be finite, the step > 0, and the range at most
    MAX_SWEEP_ROWS points long; the bound is checked before the list is built.
    """
    numbers, count = _grid_count(text)
    if len(numbers) == 1:
        return numbers
    return [numbers[0] + i * numbers[2] for i in range(count)]  # start + i * step


def parse_sigma(text: str) -> tuple[bool, ...]:
    """Parse comma-separated transposition bits, e.g. '0,1'."""
    bits = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece not in ("0", "1"):
            raise ValueError(f"sigma bits must be 0 or 1, got {piece!r}")
        bits.append(piece == "1")
    return tuple(bits)


def _sigma_or_default(op: HermitianOp, text: str | None) -> tuple[bool, ...]:
    if text is None:
        return _default_sigma(op.space)
    return parse_sigma(text)


def _cmd_construct(args: argparse.Namespace) -> int:
    kind = args.kind
    d = args.d
    if kind == "witness":
        op = witness_dk(d, args.k)
        meta = {"construction": "witness-dk", "d": d, "k": args.k}
    elif kind == "state":
        op = ha_state(d, args.gamma)
        meta = {"construction": "ha-state", "d": d, "gamma": args.gamma}
        if args.gamma == 1.0:
            meta["separable"] = True
    elif kind == "projector-p":
        op = projector_p(d)
        meta = {"construction": "projector-p", "d": d}
    elif kind == "projector-q":
        op = projector_q(d)
        meta = {"construction": "projector-q", "d": d}
    else:  # perturbed
        op = perturbed_witness(d, args.k, args.lam, args.mu)
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
    print(f"detected: {'true' if value < detection_threshold(w.norm(), rho.norm()) else 'false'}")
    return 0


def _print_threshold(value: float | None) -> None:
    if value is None:
        print("none")
    elif math.isinf(value):
        print("infinite")
    else:
        print(f"{value:.6f}")


def _cmd_bounds(args: argparse.Namespace) -> int:
    w, _ = read_operator(args.witness)
    rho, _ = read_operator(args.rho)
    if args.kind == "alpha":
        sigma, _ = read_operator(args.sigma_sep)
        value = alpha_threshold(w, rho, sigma)
    elif args.kind == "lambda":
        p, _ = read_operator(args.p)
        value = lambda_threshold(w, p, rho)
    else:  # mu
        p, _ = read_operator(args.p)
        q, _ = read_operator(args.q)
        value = mu_threshold(w, p, q, args.lam, rho)
    _print_threshold(value)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    texts = (args.gamma_grid, args.lambda_grid, args.mu_grid)
    rows = math.prod([_grid_count(text)[1] for text in texts])
    if rows > MAX_SWEEP_ROWS:  # checked before any grid is built
        raise ValueError(f"sweep has {rows} rows, more than {MAX_SWEEP_ROWS}")
    write_sweep_csv(args.out, sweep(args.d, args.k, *map(parse_grid, texts)))
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "ppt":
        rho, _ = read_operator(args.state)
        cert = certify_ppt(rho, _sigma_or_default(rho, args.sigma))
    elif kind == "indecomposable":
        w, _ = read_operator(args.witness)
        rho, _ = read_operator(args.state)
        cert = certify_indecomposable(w, rho, _sigma_or_default(rho, args.sigma))
    elif kind == "atomic":
        w, _ = read_operator(args.witness)
        rho, _ = read_operator(args.state)
        cert = certify_atomic_conditional(w, rho, args.assumption)
    elif kind == "blockpos":
        w, _ = read_operator(args.witness)
        config = ScanConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)
        cert = blockpos_scan(w, config)
        unconverged = cert.evidence["unconverged_restarts"]
        if unconverged:
            print(
                f"warning: {unconverged} of {config.restarts} restarts reached "
                "--max-iters without converging",
                file=sys.stderr,
            )
    else:  # ccp: W is completely copositive when W itself is PPT
        w, _ = read_operator(args.witness)
        cert = replace(certify_ppt(w, (False, True)), kind="ccp")
    doc = certificate_to_json_dict(cert)
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if cert.verdict else 1


def _cmd_cj(args: argparse.Namespace) -> int:
    if args.direction == "to-map":
        w, _ = read_operator(args.witness)
        write_map_table(args.out, dejamiolkowski(w))
    else:  # to-witness
        table = read_map_table(args.map)
        write_operator(args.out, jamiolkowski(table), {"construction": "cj-witness"})
    return 0


def _option(*flags: str, **keywords) -> tuple:
    return flags, keywords


def _add_kind(kinds, name: str, *options: tuple) -> None:
    """A sub-parser for one kind that declares exactly the options it reads."""
    parser = kinds.add_parser(name)
    for flags, keywords in options:
        parser.add_argument(*flags, **keywords)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ewkit parser, built once per process: a parse leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ewkit",
        description=(
            "Construct entanglement witnesses and PPT entangled states, compute "
            "detection thresholds, run sweeps, and emit certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, func, dest: str = "kind"):
        command_parser = sub.add_parser(name, help=help)
        command_parser.set_defaults(func=func)
        return command_parser.add_subparsers(dest=dest, required=True)

    w = _option("-w", "--witness", required=True)
    lam = _option("--lambda", dest="lam", type=float, default=0.0)

    construct = command("construct", "build an operator and write it", _cmd_construct)
    d = _option("--d", type=int, required=True, help="local dimension")
    k = _option("--k", type=int, required=True)
    out = _option("--out", required=True, help="output operator file")
    _add_kind(construct, "witness", d, k, out)
    _add_kind(construct, "state", d, _option("--gamma", type=float, required=True), out)
    _add_kind(construct, "projector-p", d, out)
    _add_kind(construct, "projector-q", d, out)
    _add_kind(construct, "perturbed", d, k, lam,
              _option("--mu", type=float, default=0.0), out)

    p_pair = sub.add_parser("pair", help="trace pairing of a witness and a state")
    p_pair.add_argument("witness", help="witness operator file")
    p_pair.add_argument("state", help="state operator file")
    p_pair.set_defaults(func=_cmd_pair)

    bounds = command("bounds", "detection thresholds in closed form", _cmd_bounds)
    rho = _option("-r", "--rho", required=True, help="detected state file")
    p = _option("-p", required=True, help="PSD perturbation file")
    _add_kind(bounds, "alpha", w, rho, _option(
        "-s", "--sigma-sep", dest="sigma_sep", required=True,
        help="declared-separable state file"))
    _add_kind(bounds, "lambda", w, rho, p)
    _add_kind(bounds, "mu", w, rho, p,
              _option("-q", required=True, help="second PSD perturbation file"), lam)

    p_sweep = sub.add_parser("sweep", help="tabulate pairings over parameter grids")
    # "-" then a digit is a value, as in argparse >= 3.13: a grid "-0.05:0.05:0.01"
    p_sweep._negative_number_matcher = re.compile(r"-\.?\d")
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument("--k", type=int, required=True)
    p_sweep.add_argument("--gamma-grid", required=True,
                         help="start:stop:step (stop exclusive) or a single value")
    p_sweep.add_argument("--lambda-grid", default="0")
    p_sweep.add_argument("--mu-grid", default="0")
    p_sweep.add_argument("--out", required=True, help="output CSV file")
    p_sweep.set_defaults(func=_cmd_sweep)

    certify = command("certify", "emit a certificate as JSON", _cmd_certify)
    state = _option("-s", "--state", required=True)
    sigma = _option("--sigma", help="comma-separated transposition bits, e.g. 0,1")
    cert_out = _option("--out", help="also write the JSON here")
    _add_kind(certify, "ppt", state, sigma, cert_out)
    _add_kind(certify, "indecomposable", w, state, sigma, cert_out)
    _add_kind(certify, "atomic", w, state, _option(
        "--assumption", default=HA_SCHMIDT_ASSUMPTION,
        help="external fact the certificate records"), cert_out)
    _add_kind(certify, "blockpos", w,
              _option("--restarts", type=int, default=ScanConfig.restarts),
              _option("--max-iters", type=int, default=ScanConfig.max_iters),
              _option("--seed", type=int, default=ScanConfig.seed, help="scan seed"),
              cert_out)
    _add_kind(certify, "ccp", w, cert_out)

    cj = command("cj", "Choi-Jamiolkowski transforms", _cmd_cj, dest="direction")
    cj_out = _option("--out", required=True)
    _add_kind(cj, "to-witness", _option("-m", "--map", required=True), cj_out)
    _add_kind(cj, "to-map", w, cj_out)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MalformedFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, MemoryError) as exc:  # a refused allocation too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

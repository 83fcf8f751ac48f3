"""Command-line front end.

Subcommands: construct, pair, bounds, sweep, certify, cj. Exit codes are a
total contract: 0 success (or certified), 1 not-certified / violation found,
2 parameter violation, dimension mismatch or failed allocation (an operator
too large for memory), 3 malformed file or any OSError, an unwritable --out too.
Each kind of construct, bounds, certify and cj accepts only the options it
reads; any other option, like a missing required one, exits 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import replace

from .certify import (
    HA_SCHMIDT_ASSUMPTION,
    Certificate,
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
from .core import _default_sigma, detection_threshold, trace_pair
from .detect import (
    alpha_threshold,
    lambda_threshold,
    mu_threshold,
    sweep,
)
from .serialize import (
    MalformedFileError,
    certificate_text,
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

#: The operator-file options main reads, in this order, before the command runs.
_OPERATOR_FILES = ("witness", "state", "rho", "sigma_sep", "p", "q")


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


def _sigma(args: argparse.Namespace) -> tuple[bool, ...]:
    """The --sigma bits, by default those of the state's space."""
    return _default_sigma(args.state.space) if args.sigma is None else parse_sigma(args.sigma)


def _cmd_construct(args: argparse.Namespace) -> int:
    op, meta = args.build(args)
    write_operator(args.out, op, meta)
    return 0


def _cmd_pair(args: argparse.Namespace) -> int:
    w, rho = args.witness, args.state
    value = trace_pair(w, rho)
    print(f"{value:.6f}")
    print(f"detected: {'true' if value < detection_threshold(w.norm(), rho.norm()) else 'false'}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    value = args.threshold(args)
    if value is None:
        print("none")
    elif math.isinf(value):
        print("infinite")
    else:
        print(f"{value:.6f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    texts = (args.gamma_grid, args.lambda_grid, args.mu_grid)
    rows = math.prod([_grid_count(text)[1] for text in texts])
    if rows > MAX_SWEEP_ROWS:  # checked before any grid is built
        raise ValueError(f"sweep has {rows} rows, more than {MAX_SWEEP_ROWS}")
    write_sweep_csv(args.out, sweep(args.d, args.k, *map(parse_grid, texts)))
    return 0


def _scan(args: argparse.Namespace) -> Certificate:
    config = ScanConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)
    cert = blockpos_scan(args.witness, config)
    unconverged = cert.evidence["unconverged_restarts"]
    if unconverged:
        print(
            f"warning: {unconverged} of {config.restarts} restarts reached "
            "--max-iters without converging",
            file=sys.stderr,
        )
    return cert


def _cmd_certify(args: argparse.Namespace) -> int:
    cert = args.certify(args)
    text = certificate_text(cert)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if cert.verdict else 1


def _cmd_to_map(args: argparse.Namespace) -> int:
    write_map_table(args.out, dejamiolkowski(args.witness))
    return 0


def _cmd_to_witness(args: argparse.Namespace) -> int:
    table = read_map_table(args.map)
    write_operator(args.out, jamiolkowski(table), {"construction": "cj-witness"})
    return 0


def _option(*flags: str, **keywords) -> tuple:
    return flags, keywords


def _add_kind(kinds, name: str, *options: tuple, **defaults) -> None:
    """A sub-parser for one kind that declares exactly the options it reads, and its action."""
    parser = kinds.add_parser(name)
    for flags, keywords in options:
        parser.add_argument(*flags, **keywords)
    parser.set_defaults(**defaults)


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

    def command(name: str, help: str, dest: str = "kind", **defaults):
        # a dest is set by the command's parser or by its kinds', never both: which
        # of the two defaults wins has changed between Python 3.10 releases
        command_parser = sub.add_parser(name, help=help)
        command_parser.set_defaults(**defaults)
        return command_parser.add_subparsers(dest=dest, required=True)

    w = _option("-w", "--witness", required=True)
    lam = _option("--lambda", dest="lam", type=float, default=0.0)

    construct = command("construct", "build an operator and write it", func=_cmd_construct)
    d = _option("--d", type=int, required=True, help="local dimension")
    k = _option("--k", type=int, required=True)
    out = _option("--out", required=True, help="output operator file")
    # an action looks its functions up when it runs, so a replaced module global takes effect
    _add_kind(construct, "witness", d, k, out, build=lambda a: (
        witness_dk(a.d, a.k), {"construction": "witness-dk", "d": a.d, "k": a.k}))
    _add_kind(construct, "state", d, _option("--gamma", type=float, required=True), out,
              build=lambda a: (ha_state(a.d, a.gamma), {
                  "construction": "ha-state", "d": a.d, "gamma": a.gamma,
                  **({"separable": True} if a.gamma == 1.0 else {})}))
    _add_kind(construct, "projector-p", d, out,
              build=lambda a: (projector_p(a.d), {"construction": "projector-p", "d": a.d}))
    _add_kind(construct, "projector-q", d, out,
              build=lambda a: (projector_q(a.d), {"construction": "projector-q", "d": a.d}))
    _add_kind(construct, "perturbed", d, k, lam, _option("--mu", type=float, default=0.0), out,
              build=lambda a: (perturbed_witness(a.d, a.k, a.lam, a.mu), {
                  "construction": "perturbed-witness", "d": a.d, "k": a.k,
                  "lambda": a.lam, "mu": a.mu}))

    p_pair = sub.add_parser("pair", help="trace pairing of a witness and a state")
    p_pair.add_argument("witness", help="witness operator file")
    p_pair.add_argument("state", help="state operator file")
    p_pair.set_defaults(func=_cmd_pair)

    bounds = command("bounds", "detection thresholds in closed form", func=_cmd_bounds)
    rho = _option("-r", "--rho", required=True, help="detected state file")
    p = _option("-p", required=True, help="PSD perturbation file")
    _add_kind(bounds, "alpha", w, rho, _option(
        "-s", "--sigma-sep", dest="sigma_sep", required=True,
        help="declared-separable state file"),
        threshold=lambda a: alpha_threshold(a.witness, a.rho, a.sigma_sep))
    _add_kind(bounds, "lambda", w, rho, p,
              threshold=lambda a: lambda_threshold(a.witness, a.p, a.rho))
    _add_kind(bounds, "mu", w, rho, p,
              _option("-q", required=True, help="second PSD perturbation file"), lam,
              threshold=lambda a: mu_threshold(a.witness, a.p, a.q, a.lam, a.rho))

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

    certify = command("certify", "emit a certificate as JSON", func=_cmd_certify)
    state = _option("-s", "--state", required=True)
    sigma = _option("--sigma", help="comma-separated transposition bits, e.g. 0,1")
    cert_out = _option("--out", help="also write the JSON here")
    _add_kind(certify, "ppt", state, sigma, cert_out,
              certify=lambda a: certify_ppt(a.state, _sigma(a)))
    _add_kind(certify, "indecomposable", w, state, sigma, cert_out,
              certify=lambda a: certify_indecomposable(a.witness, a.state, _sigma(a)))
    _add_kind(certify, "atomic", w, state, _option(
        "--assumption", default=HA_SCHMIDT_ASSUMPTION,
        help="external fact the certificate records"), cert_out,
        certify=lambda a: certify_atomic_conditional(a.witness, a.state, a.assumption))
    _add_kind(certify, "blockpos", w,
              _option("--restarts", type=int, default=ScanConfig.restarts),
              _option("--max-iters", type=int, default=ScanConfig.max_iters),
              _option("--seed", type=int, default=ScanConfig.seed, help="scan seed"),
              cert_out, certify=_scan)
    # W is completely copositive when W itself is PPT
    _add_kind(certify, "ccp", w, cert_out,
              certify=lambda a: replace(certify_ppt(a.witness, (False, True)), kind="ccp"))

    cj = command("cj", "Choi-Jamiolkowski transforms", dest="direction")
    cj_out = _option("--out", required=True)
    _add_kind(cj, "to-witness", _option("-m", "--map", required=True), cj_out,
              func=_cmd_to_witness)
    _add_kind(cj, "to-map", w, cj_out, func=_cmd_to_map)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in _OPERATOR_FILES:  # each such option's path is replaced by its operator
            if hasattr(args, name):
                setattr(args, name, read_operator(getattr(args, name))[0])
        return args.func(args)
    except (MalformedFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, MemoryError) as exc:  # a refused allocation too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

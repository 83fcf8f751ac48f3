"""The command-line surface: subcommands, formats, and the exit-code contract."""

import json
import tracemalloc

import numpy as np
import pytest

from ewkit import ScanConfig, read_operator, witness_dk
from ewkit import cli
from ewkit.cli import MAX_SWEEP_ROWS, build_parser, main, parse_grid, parse_sigma


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def w0_path(tmp_path, capsys):
    path = tmp_path / "w0.json"
    code, _, _ = run(capsys, "construct", "witness", "--d", "3", "--k", "1",
                     "--out", str(path))
    assert code == 0
    return str(path)


def state_path(tmp_path, capsys, gamma: float) -> str:
    path = tmp_path / f"rho_{gamma}.json"
    code, _, _ = run(capsys, "construct", "state", "--d", "3", "--gamma",
                     str(gamma), "--out", str(path))
    assert code == 0
    return str(path)


class TestParseHelpers:
    def test_grid_start_stop_step(self):
        grid = parse_grid("0.1:1.0:0.1")
        assert len(grid) == 9
        assert grid[0] == 0.1
        assert grid[-1] == pytest.approx(0.9, abs=1e-12)

    def test_grid_single_value(self):
        assert parse_grid("0.605") == [0.605]

    def test_grid_empty_when_start_reaches_stop(self):
        assert parse_grid("0.5:0.5:0.1") == []

    def test_grid_malformed(self):
        with pytest.raises(ValueError):
            parse_grid("0.1:1.0")
        with pytest.raises(ValueError):
            parse_grid("0.1:1.0:-0.1")
        with pytest.raises(ValueError):
            parse_grid("a:b:c")
        for text in ("nan", "inf", "-inf", "0:inf:0.1", "0:1:nan"):
            with pytest.raises(ValueError, match="finite"):
                parse_grid(text)

    def test_grid_longer_than_bound_rejected(self):
        assert MAX_SWEEP_ROWS == 10**7
        for text in ("0:1:1e-9", "0:1e300:1e-300"):
            with pytest.raises(ValueError, match=f"more than {MAX_SWEEP_ROWS} points"):
                parse_grid(text)

    def test_grid_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 10)
        assert len(parse_grid("0:1:0.1")) == 10
        with pytest.raises(ValueError, match="more than 10 points"):
            parse_grid("0:1.1:0.1")

    def test_scan_defaults_come_from_scan_config(self):
        args = build_parser().parse_args(["certify", "blockpos", "-w", "w.json"])
        config = ScanConfig()
        assert (args.restarts, args.max_iters, args.seed) == (
            config.restarts, config.max_iters, config.seed
        )

    def test_sigma_bits(self):
        assert parse_sigma("0,1") == (False, True)
        assert parse_sigma("1,0,1") == (True, False, True)
        with pytest.raises(ValueError):
            parse_sigma("0,2")


class TestConstruct:
    def test_witness_file_matches_library(self, tmp_path, capsys, w0_path):
        op, meta = read_operator(w0_path)
        assert np.array_equal(op.matrix, witness_dk(3, 1).matrix)
        assert meta["construction"] == "witness-dk"

    def test_state_gamma_one_entries(self, tmp_path, capsys):
        path = state_path(tmp_path, capsys, 1.0)
        op, meta = read_operator(path)
        nonzero = op.matrix[np.abs(op.matrix) > 0]
        assert np.allclose(nonzero, 1 / 9, atol=1e-15)
        assert meta.get("separable") is True

    def test_state_below_one_not_flagged(self, tmp_path, capsys):
        path = state_path(tmp_path, capsys, 0.5)
        _, meta = read_operator(path)
        assert "separable" not in meta

    def test_out_of_range_k_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "construct", "witness", "--d", "3", "--k", "5",
                           "--out", str(tmp_path / "w.json"))
        assert code == 2
        assert "k must satisfy" in err

    def test_refused_allocation_exits_2(self, tmp_path, capsys, monkeypatch):
        # --d 3000 asks numpy for a 589 TiB matrix; the refusal is simulated here
        def refuse(d, k):
            raise MemoryError(f"Unable to allocate 589. TiB for an array with d = {d}")

        monkeypatch.setattr(cli, "witness_dk", refuse)
        out_path = tmp_path / "big.json"
        code, _, err = run(capsys, "construct", "witness", "--d", "3000", "--k", "1",
                           "--out", str(out_path))
        assert code == 2
        assert err == "error: Unable to allocate 589. TiB for an array with d = 3000\n"
        assert not out_path.exists()

    def test_perturbed(self, tmp_path, capsys):
        path = tmp_path / "wp.json"
        code, _, _ = run(capsys, "construct", "perturbed", "--d", "3", "--k", "1",
                         "--lambda", "0.1", "--mu", "0.05", "--out", str(path))
        assert code == 0
        op, meta = read_operator(str(path))
        assert meta["lambda"] == 0.1
        assert op.matrix.real[2, 2] == pytest.approx(0.1, abs=0)
        assert op.matrix.real[6, 6] == pytest.approx(1.05, abs=0)


class TestPair:
    def test_detected_pair(self, tmp_path, capsys, w0_path):
        rho = state_path(tmp_path, capsys, 0.5)
        code, out, _ = run(capsys, "pair", w0_path, rho)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "-0.066667"
        assert lines[1] == "detected: true"

    def test_boundary_not_detected(self, tmp_path, capsys, w0_path):
        rho = state_path(tmp_path, capsys, 1.0)
        code, out, _ = run(capsys, "pair", w0_path, rho)
        assert code == 0
        assert "detected: false" in out

    def test_maximally_mixed_value(self, tmp_path, capsys, w0_path):
        from ewkit import bipartite, maximally_mixed, write_operator

        path = tmp_path / "mix.json"
        write_operator(str(path), maximally_mixed(bipartite(3)))
        code, out, _ = run(capsys, "pair", w0_path, str(path))
        assert code == 0
        assert out.startswith("0.666667")

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys, w0_path):
        from ewkit import bipartite, maximally_mixed, write_operator

        path = tmp_path / "mix4.json"
        write_operator(str(path), maximally_mixed(bipartite(4)))
        code, _, err = run(capsys, "pair", w0_path, str(path))
        assert code == 2
        assert "spaces differ" in err

    def test_malformed_file_exits_3(self, tmp_path, capsys, w0_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, _ = run(capsys, "pair", w0_path, str(bad))
        assert code == 3

    def test_missing_file_exits_3(self, tmp_path, capsys, w0_path):
        code, _, _ = run(capsys, "pair", w0_path, str(tmp_path / "nope.json"))
        assert code == 3

    def test_entry_that_overflows_the_gate_exits_3(self, tmp_path, capsys):
        # finite, but (M + M^dag) / 2 overflows
        re = np.eye(4).tolist()
        re[0][0] = 1e308
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"dims": [2, 2], "re": re, "im": np.zeros((4, 4)).tolist()}))
        mixed = tmp_path / "mm.json"
        mixed.write_text(json.dumps({"dims": [2, 2], "re": (np.eye(4) / 4).tolist(),
                                     "im": np.zeros((4, 4)).tolist()}))
        for argv in (("pair", str(big), str(mixed)), ("certify", "blockpos", "-w", str(big))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert "matrix entries must be finite" in err

    def test_integer_entry_beyond_float_or_digit_limit_exits_3(self, tmp_path, capsys):
        # 10**400 overflows float conversion; 5001 digits pass Python's int-parsing limit
        for digits in (str(10**400), "1" * 5001):
            path = tmp_path / "big.json"
            path.write_text(f'{{"dims": [2], "re": [[{digits}, 0], [0, 1]], '
                            f'"im": [[0, 0], [0, 0]], "meta": {{}}}}\n')
            code, out, err = run(capsys, "pair", str(path), str(path))
            assert (code, out) == (3, "")
            assert "not finite numbers" in err or "not valid JSON" in err


class TestBounds:
    def test_lambda_value(self, tmp_path, capsys, w0_path):
        rho = state_path(tmp_path, capsys, 0.605)
        p = tmp_path / "p.json"
        run(capsys, "construct", "projector-p", "--d", "3", "--out", str(p))
        code, out, _ = run(capsys, "bounds", "lambda", "-w", w0_path, "-p", str(p),
                           "-r", rho)
        assert code == 0
        assert out.strip() == "0.133975"

    def test_lambda_infinite_when_p_in_kernel(self, tmp_path, capsys, w0_path):
        from ewkit import HermitianOp, bipartite, write_operator

        # (|00> - |11>)/sqrt 2 lies in the kernel of the Ha state's comb block
        vec = np.zeros(9, dtype=complex)
        vec[0], vec[4] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        p = tmp_path / "p.json"
        write_operator(str(p), HermitianOp(bipartite(3), np.outer(vec, vec.conj())))
        rho = state_path(tmp_path, capsys, 0.5)
        code, out, _ = run(capsys, "bounds", "lambda", "-w", w0_path, "-p", str(p),
                           "-r", rho)
        assert code == 0
        assert out == "infinite\n"

    def test_alpha_value(self, tmp_path, capsys, w0_path):
        from ewkit import bipartite, maximally_mixed, write_operator

        gamma_star = float(np.sqrt((np.sqrt(3) - 1) / 2))
        rho = state_path(tmp_path, capsys, gamma_star)
        mix = tmp_path / "mix.json"
        write_operator(str(mix), maximally_mixed(bipartite(3)))
        code, out, _ = run(capsys, "bounds", "alpha", "-w", w0_path, "-r", rho,
                           "-s", str(mix))
        assert code == 0
        # exact value (21 - 8 sqrt 3)/83 printed to six decimals
        assert out.strip() == "0.086067"

    def test_mu_value(self, tmp_path, capsys, w0_path):
        rho = state_path(tmp_path, capsys, 0.5)
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        run(capsys, "construct", "projector-p", "--d", "3", "--out", str(p))
        run(capsys, "construct", "projector-q", "--d", "3", "--out", str(q))
        code, out, _ = run(capsys, "bounds", "mu", "-w", w0_path, "-p", str(p),
                           "-q", str(q), "--lambda", "0.05", "-r", rho)
        assert code == 0
        assert out.strip() == "0.200000"

    def test_mu_non_finite_lambda_exits_2(self, tmp_path, capsys, w0_path):
        rho = state_path(tmp_path, capsys, 0.5)
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        run(capsys, "construct", "projector-p", "--d", "3", "--out", str(p))
        run(capsys, "construct", "projector-q", "--d", "3", "--out", str(q))
        code, out, err = run(capsys, "bounds", "mu", "-w", w0_path, "-p", str(p),
                             "-q", str(q), "--lambda", "nan", "-r", rho)
        assert code == 2
        assert out == ""
        assert "lambda must be finite" in err

    def test_none_when_precondition_fails(self, tmp_path, capsys, w0_path):
        from ewkit import bipartite, maximally_mixed, write_operator

        rho = state_path(tmp_path, capsys, 1.0)
        mix = tmp_path / "mix.json"
        write_operator(str(mix), maximally_mixed(bipartite(3)))
        code, out, _ = run(capsys, "bounds", "alpha", "-w", w0_path, "-r", rho,
                           "-s", str(mix))
        assert code == 0
        assert out.strip() == "none"


class TestSweep:
    def test_nine_gamma_rows(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--d", "3", "--k", "1",
                         "--gamma-grid", "0.1:1.0:0.1", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 10  # header + 9 rows
        assert all(line.endswith("true") for line in lines[1:])

    def test_lambda_flip_brackets_threshold(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--d", "3", "--k", "1",
                         "--gamma-grid", "0.605", "--lambda-grid", "0:0.2:0.01",
                         "--out", str(out_path))
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().strip().split("\n")[1:]]
        detected = {float(r[1]): r[5] == "true" for r in rows}
        assert detected[0.13]
        assert not detected[0.14]

    def test_empty_grid_header_only(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--d", "3", "--k", "1",
                         "--gamma-grid", "0.5:0.5:0.1", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == "gamma,lambda,mu,alpha,trace,detected\n"

    def test_oversized_product_exits_2_before_sweeping(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("sweep called on an oversized grid")

        monkeypatch.setattr(cli, "sweep", must_not_run)
        out_path = tmp_path / "s.csv"
        code, _, err = run(capsys, "sweep", "--d", "3", "--k", "1",
                           "--gamma-grid", "0:1:1e-3", "--lambda-grid", "0:1:1e-3",
                           "--mu-grid", "0:1:1e-3", "--out", str(out_path))
        assert code == 2
        assert f"sweep has 1000000000 rows, more than {MAX_SWEEP_ROWS}" in err
        assert not out_path.exists()

    def test_oversized_product_builds_no_grid(self, tmp_path, capsys):
        # each grid is within the bound, their product is not: no grid list is built
        argv = ["sweep", "--d", "3", "--k", "1", "--gamma-grid", "0.5:1e7:1",
                "--lambda-grid", "0:2:1", "--out", str(tmp_path / "s.csv")]
        build_parser()  # its one-time cost is not the sweep's
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"sweep has 20000000 rows, more than {MAX_SWEEP_ROWS}" in err
        assert peak < 2**20

    def test_malformed_grid_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sweep", "--d", "3", "--k", "1",
                         "--gamma-grid", "0.1:0.9", "--out", str(tmp_path / "s.csv"))
        assert code == 2

    def test_non_finite_bare_grid_value_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "s.csv"
        code, _, err = run(capsys, "sweep", "--d", "3", "--k", "1",
                           "--gamma-grid", "0.5", "--lambda-grid", "nan",
                           "--mu-grid", "inf", "--out", str(out_path))
        assert code == 2
        assert "finite" in err
        assert not out_path.exists()

    def test_non_positive_gamma_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "s.csv"
        code, _, err = run(capsys, "sweep", "--d", "5", "--k", "1",
                           "--gamma-grid=-0.5:1:0.5", "--out", str(out_path))
        assert code == 2
        assert "gamma must be finite and > 0, got -0.5" in err
        assert not out_path.exists()

    def test_negative_grids_as_separate_arguments(self, tmp_path, capsys):
        out_path = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sweep", "--d", "5", "--k", "1", "--gamma-grid", "1",
                         "--lambda-grid", "-0.05:0.05:0.01", "--mu-grid", "-.5",
                         "--out", str(out_path))
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().strip().split("\n")[1:]]
        assert [float(r[1]) for r in rows] == parse_grid("-0.05:0.05:0.01")
        assert {r[2] for r in rows} == {"-0.5"}
        # and a separate non-positive gamma grid reaches the gamma check
        code, _, err = run(capsys, "sweep", "--d", "5", "--k", "1", "--gamma-grid",
                           "-0.5:1:0.5", "--out", str(tmp_path / "bad.csv"))
        assert code == 2
        assert "gamma must be finite and > 0, got -0.5" in err

    def test_gamma_one_row_is_exactly_zero(self, tmp_path, capsys):
        out_path = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sweep", "--d", "5", "--k", "1",
                         "--gamma-grid", "1", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().split("\n")[1] == "1.0,0.0,0.0,,0.0,false"

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "sweep", "--d", "3", "--k", "1",
                             "--gamma-grid", "0.1:1.0:0.1",
                             "--lambda-grid", "0:0.1:0.05", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestCertify:
    def test_indecomposable_exit_0(self, tmp_path, capsys, w0_path):
        rho = state_path(tmp_path, capsys, 0.5)
        code, out, _ = run(capsys, "certify", "indecomposable", "-w", w0_path,
                           "-s", rho, "--sigma", "0,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "indecomposable"
        assert doc["verdict"] is True

    def test_boundary_state_exit_1(self, tmp_path, capsys, w0_path):
        rho = state_path(tmp_path, capsys, 1.0)
        code, out, _ = run(capsys, "certify", "indecomposable", "-w", w0_path,
                           "-s", rho)
        assert code == 1
        assert json.loads(out)["verdict"] is False

    def test_ppt_on_entangled_projector_exit_1(self, tmp_path, capsys):
        from ewkit import max_entangled_projector, write_operator

        path = tmp_path / "phi.json"
        write_operator(str(path), max_entangled_projector(3))
        code, out, _ = run(capsys, "certify", "ppt", "-s", str(path))
        assert code == 1
        doc = json.loads(out)
        assert doc["evidence"]["min_eigenvalue"] == pytest.approx(-1 / 3, abs=1e-12)

    def test_blockpos_violation_exit_1(self, tmp_path, capsys):
        from ewkit import (
            HermitianOp,
            bipartite,
            max_entangled_projector,
            witness_from_difference,
            write_operator,
        )

        q = HermitianOp(bipartite(3), np.eye(9, dtype=complex) / 3)
        candidate = witness_from_difference(q, 2.0 * max_entangled_projector(3))
        path = tmp_path / "qmp.json"
        write_operator(str(path), candidate)
        code, out, _ = run(capsys, "certify", "blockpos", "-w", str(path),
                           "--restarts", "100", "--seed", "7")
        assert code == 1
        doc = json.loads(out)
        assert doc["seed"] == 7
        assert doc["evidence"]["minimum"] < -1e-2
        assert len(doc["evidence"]["x_re"]) == 3

    def test_blockpos_on_witness_exit_0(self, tmp_path, capsys, w0_path):
        code, out, _ = run(capsys, "certify", "blockpos", "-w", w0_path,
                           "--restarts", "25", "--seed", "3")
        assert code == 0

    def test_blockpos_warns_on_capped_restarts(self, capsys, w0_path):
        code, out, err = run(capsys, "certify", "blockpos", "-w", w0_path,
                             "--restarts", "6", "--max-iters", "1", "--seed", "3")
        assert code == 0
        unconverged = json.loads(out)["evidence"]["unconverged_restarts"]
        assert unconverged > 0
        assert err == (f"warning: {unconverged} of 6 restarts reached --max-iters "
                       "without converging\n")

    def test_blockpos_silent_when_all_converge(self, tmp_path, capsys):
        from ewkit import HermitianOp, bipartite, write_operator

        path = tmp_path / "eye.json"
        write_operator(str(path), HermitianOp(bipartite(3), np.eye(9, dtype=complex)))
        code, out, err = run(capsys, "certify", "blockpos", "-w", str(path),
                             "--restarts", "6")
        assert code == 0
        assert json.loads(out)["evidence"]["unconverged_restarts"] == 0
        assert err == ""

    def test_ccp_pair(self, tmp_path, capsys):
        from ewkit import write_operator

        w32 = tmp_path / "w32.json"
        write_operator(str(w32), witness_dk(3, 2))
        code, out, _ = run(capsys, "certify", "ccp", "-w", str(w32))
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "ccp" and doc["evidence"]["sigma"] == [0, 1]

    def test_ccp_rejects_non_bipartite(self, tmp_path, capsys):
        from ewkit import ghz_projector, write_operator

        path = tmp_path / "ghz.json"
        write_operator(str(path), ghz_projector(3, 2))
        code, out, err = run(capsys, "certify", "ccp", "-w", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_atomic_records_assumption(self, tmp_path, capsys, w0_path):
        rho = state_path(tmp_path, capsys, 0.5)
        code, out, _ = run(capsys, "certify", "atomic", "-w", w0_path, "-s", rho,
                           "--assumption", "Schmidt number bound per Ha")
        assert code == 0
        doc = json.loads(out)
        assert doc["assumptions"] == ["Schmidt number bound per Ha"]

    def test_out_file_written(self, tmp_path, capsys, w0_path):
        rho = state_path(tmp_path, capsys, 0.5)
        out_path = tmp_path / "cert.json"
        code, out, _ = run(capsys, "certify", "indecomposable", "-w", w0_path,
                           "-s", rho, "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text()) == json.loads(out)


# A valid argv tail for each kind: the options it requires, plus a short scan
# for blockpos. Values in braces name the files of the `operands` fixture.
REQUIRED = {
    ("construct", "witness"): [("--d", "3"), ("--k", "1"), ("--out", "{out}")],
    ("construct", "state"): [("--d", "3"), ("--gamma", "0.5"), ("--out", "{out}")],
    ("construct", "projector-p"): [("--d", "3"), ("--out", "{out}")],
    ("construct", "projector-q"): [("--d", "3"), ("--out", "{out}")],
    ("construct", "perturbed"): [("--d", "3"), ("--k", "1"), ("--out", "{out}")],
    ("bounds", "alpha"): [("-w", "{w}"), ("-r", "{rho}"), ("-s", "{sep}")],
    ("bounds", "lambda"): [("-w", "{w}"), ("-r", "{rho}"), ("-p", "{p}")],
    ("bounds", "mu"): [("-w", "{w}"), ("-r", "{rho}"), ("-p", "{p}"), ("-q", "{q}")],
    ("certify", "ppt"): [("-s", "{rho}")],
    ("certify", "indecomposable"): [("-w", "{w}"), ("-s", "{rho}")],
    ("certify", "atomic"): [("-w", "{w}"), ("-s", "{rho}")],
    ("certify", "blockpos"): [("-w", "{w}"), ("--restarts", "2"), ("--max-iters", "2")],
    ("certify", "ccp"): [("-w", "{w}")],
    ("cj", "to-map"): [("-w", "{w}"), ("--out", "{out}")],
    ("cj", "to-witness"): [("-m", "{map}"), ("--out", "{out}")],
}

# Every option the command declares for some kind, and the removed --conv-tol,
# with a value to pass it.
STRAY_VALUES = {
    "--k": "1", "--gamma": "0.5", "--lambda": "0.1", "--mu": "0.05",
    "-w": "{w}", "-s": "{rho}", "-p": "{p}", "-q": "{q}", "-m": "{map}",
    "--sigma": "1,0", "--restarts": "5", "--max-iters": "5", "--conv-tol": "1e-9",
    "--seed": "7", "--assumption": "x",
}

# The 51 (command, kind, option) triples whose option the kind does not read.
IGNORED = [
    *[("construct", "witness", o) for o in ("--gamma", "--lambda", "--mu")],
    *[("construct", "state", o) for o in ("--k", "--lambda", "--mu")],
    *[("construct", "projector-p", o) for o in ("--k", "--gamma", "--lambda", "--mu")],
    *[("construct", "projector-q", o) for o in ("--k", "--gamma", "--lambda", "--mu")],
    ("construct", "perturbed", "--gamma"),
    *[("bounds", "alpha", o) for o in ("-p", "-q", "--lambda")],
    *[("bounds", "lambda", o) for o in ("-s", "-q", "--lambda")],
    ("bounds", "mu", "-s"),
    *[("certify", "ppt", o) for o in ("-w", "--restarts", "--max-iters", "--conv-tol",
                                      "--seed", "--assumption")],
    *[("certify", "indecomposable", o) for o in ("--restarts", "--max-iters",
                                                 "--conv-tol", "--seed", "--assumption")],
    *[("certify", "atomic", o) for o in ("--sigma", "--restarts", "--max-iters",
                                         "--conv-tol", "--seed")],
    *[("certify", "blockpos", o) for o in ("-s", "--sigma", "--assumption", "--conv-tol")],
    *[("certify", "ccp", o) for o in ("-s", "--sigma", "--restarts", "--max-iters",
                                      "--conv-tol", "--seed", "--assumption")],
    ("cj", "to-map", "-m"),
    ("cj", "to-witness", "-w"),
]

# The options a kind needs, each as argparse names it when it is left out.
MISSING = [
    ("construct", "witness", "--k", "--k"),
    ("construct", "state", "--gamma", "--gamma"),
    ("construct", "perturbed", "--k", "--k"),
    ("bounds", "alpha", "-s", "-s/--sigma-sep"),
    ("bounds", "lambda", "-p", "-p"),
    ("bounds", "mu", "-p", "-p"),
    ("bounds", "mu", "-q", "-q"),
    ("certify", "ppt", "-s", "-s/--state"),
    ("certify", "indecomposable", "-w", "-w/--witness"),
    ("certify", "indecomposable", "-s", "-s/--state"),
    ("certify", "atomic", "-w", "-w/--witness"),
    ("certify", "atomic", "-s", "-s/--state"),
    ("certify", "blockpos", "-w", "-w/--witness"),
    ("certify", "ccp", "-w", "-w/--witness"),
    ("cj", "to-map", "-w", "-w/--witness"),
    ("cj", "to-witness", "-m", "-m/--map"),
]


@pytest.fixture(scope="module")
def operands(tmp_path_factory):
    from ewkit import (
        bipartite,
        dejamiolkowski,
        ha_state,
        maximally_mixed,
        projector_p,
        projector_q,
        write_map_table,
        write_operator,
    )

    root = tmp_path_factory.mktemp("operands")
    files = {name: str(root / f"{name}.json") for name in ("w", "rho", "sep", "p", "q", "map")}
    write_operator(files["w"], witness_dk(3, 1))
    write_operator(files["rho"], ha_state(3, 0.5))
    write_operator(files["sep"], maximally_mixed(bipartite(3)))
    write_operator(files["p"], projector_p(3))
    write_operator(files["q"], projector_q(3))
    write_map_table(files["map"], dejamiolkowski(witness_dk(3, 1)))
    return files


def exit_status(capsys, argv):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    captured = capsys.readouterr()
    return raised.value.code, captured.out, captured.err


class TestOptionsPerKind:
    """Each kind accepts exactly the options it reads; argparse enforces both ways."""

    def test_tables_cover_every_kind(self):
        assert len(REQUIRED) == 15
        assert len(IGNORED) == 51
        assert {case[:2] for case in IGNORED} == set(REQUIRED)
        assert {case[:2] for case in MISSING} <= set(REQUIRED)

    @pytest.mark.parametrize("command, kind, option", IGNORED,
                             ids=["-".join(case) for case in IGNORED])
    def test_unread_option_exits_2(self, tmp_path, capsys, operands, command, kind, option):
        files = {**operands, "out": str(tmp_path / "out.json")}
        pairs = [*REQUIRED[command, kind], (option, STRAY_VALUES[option])]
        argv = [command, kind, *(part.format(**files) for pair in pairs for part in pair)]
        code, out, err = exit_status(capsys, argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command, kind, option, name", MISSING,
                             ids=["-".join(case[:3]) for case in MISSING])
    def test_missing_required_option_exits_2(self, tmp_path, capsys, operands,
                                             command, kind, option, name):
        files = {**operands, "out": str(tmp_path / "out.json")}
        pairs = [pair for pair in REQUIRED[command, kind] if pair[0] != option]
        argv = [command, kind, *(part.format(**files) for pair in pairs for part in pair)]
        code, out, err = exit_status(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"the following arguments are required: {name}" in err
        assert not (tmp_path / "out.json").exists()


# The operands each kind reads, in the order it reads them: map tables through
# read_map_table, every other file through read_operator.
READS = {
    **{("construct", kind): [] for kind in
       ("witness", "state", "projector-p", "projector-q", "perturbed")},
    ("bounds", "alpha"): ["w", "rho", "sep"],
    ("bounds", "lambda"): ["w", "rho", "p"],
    ("bounds", "mu"): ["w", "rho", "p", "q"],
    ("certify", "ppt"): ["rho"],
    ("certify", "indecomposable"): ["w", "rho"],
    ("certify", "atomic"): ["w", "rho"],
    ("certify", "blockpos"): ["w"],
    ("certify", "ccp"): ["w"],
    ("cj", "to-map"): ["w"],
    ("cj", "to-witness"): ["map"],
}


class TestReads:
    """Each command reads exactly its operand files, once each, in a fixed order."""

    @pytest.fixture()
    def reads(self, monkeypatch):
        calls = []
        for reader in ("read_operator", "read_map_table"):
            original = getattr(cli, reader)
            monkeypatch.setattr(cli, reader, lambda path, reader=reader, original=original: (
                calls.append((reader, path)) or original(path)))
        return calls

    def expected(self, operands, names):
        return [("read_map_table" if name == "map" else "read_operator", operands[name])
                for name in names]

    def test_table_covers_every_kind(self):
        assert set(READS) == set(REQUIRED)

    @pytest.mark.parametrize("reverse", [False, True], ids=["as-declared", "reversed"])
    @pytest.mark.parametrize("command, kind", list(REQUIRED), ids=["-".join(c) for c in REQUIRED])
    def test_kind_reads_its_files_in_order(self, tmp_path, capsys, operands, reads,
                                           command, kind, reverse):
        files = {**operands, "out": str(tmp_path / "out.json")}
        pairs = REQUIRED[command, kind][::-1] if reverse else REQUIRED[command, kind]
        argv = [command, kind, *(part.format(**files) for pair in pairs for part in pair)]
        code, _, err = run(capsys, *argv)
        assert code in (0, 1), err
        assert reads == self.expected(operands, READS[command, kind])

    def test_pair_reads_witness_then_state(self, capsys, operands, reads):
        code, _, _ = run(capsys, "pair", operands["w"], operands["rho"])
        assert code == 0
        assert reads == self.expected(operands, ["w", "rho"])


# One command per writer, each with its --out under a directory that does not exist.
UNWRITABLE = {
    "construct": ["construct", "witness", "--d", "3", "--k", "1", "--out", "{out}"],
    "sweep": ["sweep", "--d", "3", "--k", "1", "--gamma-grid", "0.5", "--out", "{out}"],
    "certify": ["certify", "ppt", "-s", "{rho}", "--out", "{out}"],
    "cj-to-map": ["cj", "to-map", "-w", "{w}", "--out", "{out}"],
    "cj-to-witness": ["cj", "to-witness", "-m", "{map}", "--out", "{out}"],
}


@pytest.mark.parametrize("name", list(UNWRITABLE))
def test_unwritable_out_exits_3(tmp_path, capsys, operands, name):
    out = tmp_path / "missing" / "out"
    code, stdout, err = run(capsys, *(part.format(**operands, out=out)
                                      for part in UNWRITABLE[name]))
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
    if name == "certify":  # the certificate is printed before the file is written
        assert json.loads(stdout)["kind"] == "ppt"
    else:
        assert stdout == ""
    assert not out.parent.exists()


class TestParserReuse:
    """The parser is built once per process; no parse leaks into the next."""

    def test_main_does_not_rebuild_the_parser(self, capsys, w0_path):
        run(capsys, "pair", w0_path, w0_path)
        misses = build_parser.cache_info().misses
        run(capsys, "pair", w0_path, w0_path)
        assert build_parser.cache_info().misses == misses
        assert build_parser() is build_parser()

    def test_no_default_is_set_by_both_a_command_and_its_kind(self):
        # which of the two would win has changed between Python 3.10 releases
        (commands,) = build_parser()._subparsers._group_actions
        for name, command in commands.choices.items():
            for action in command._subparsers._group_actions if command._subparsers else ():
                for kind in action.choices.values():
                    assert not command._defaults.keys() & kind._defaults.keys(), name
                    assert "func" in {*command._defaults, *kind._defaults}, name

    def test_seed_reverts_to_default(self, capsys, w0_path):
        seeds = []
        for extra in (["--seed", "7"], []):
            code, out, _ = run(capsys, "certify", "blockpos", "-w", w0_path,
                               "--restarts", "2", "--max-iters", "2", *extra)
            assert code == 0
            seeds.append(json.loads(out)["seed"])
        assert seeds == [7, 0]

    def test_lambda_reverts_to_default(self, tmp_path, capsys):
        lambdas = []
        for extra in (["--lambda", "0.1"], []):
            path = tmp_path / "wp.json"
            code, _, _ = run(capsys, "construct", "perturbed", "--d", "3", "--k", "1",
                             *extra, "--out", str(path))
            assert code == 0
            lambdas.append(read_operator(str(path))[1]["lambda"])
        assert lambdas == [0.1, 0.0]


class TestCj:
    def test_witness_to_map_matches_library_table(self, tmp_path, capsys, w0_path):
        from ewkit import choi_map, read_map_table

        map_path = tmp_path / "map.json"
        code, _, _ = run(capsys, "cj", "to-map", "-w", w0_path, "--out", str(map_path))
        assert code == 0
        table = read_map_table(str(map_path))
        reference = choi_map(3, 1)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(table.image(i, j), reference.image(i, j))

    def test_round_trip(self, tmp_path, capsys, w0_path):
        map_path = tmp_path / "map.json"
        back_path = tmp_path / "w_back.json"
        run(capsys, "cj", "to-map", "-w", w0_path, "--out", str(map_path))
        code, _, _ = run(capsys, "cj", "to-witness", "-m", str(map_path),
                         "--out", str(back_path))
        assert code == 0
        original, _ = read_operator(w0_path)
        back, _ = read_operator(str(back_path))
        assert np.array_equal(original.matrix, back.matrix)

    def test_random_hermitian_round_trip(self, tmp_path, capsys):
        from ewkit import HermitianOp, bipartite, write_operator
        from oracles import random_hermitian

        rng = np.random.default_rng(7)
        op = HermitianOp(bipartite(3), random_hermitian(rng, 9))
        w_path = tmp_path / "w.json"
        map_path = tmp_path / "m.json"
        back_path = tmp_path / "b.json"
        write_operator(str(w_path), op)
        run(capsys, "cj", "to-map", "-w", str(w_path), "--out", str(map_path))
        run(capsys, "cj", "to-witness", "-m", str(map_path), "--out", str(back_path))
        back, _ = read_operator(str(back_path))
        assert np.array_equal(back.matrix, op.matrix)

    def test_hermiticity_violation_exits_2(self, tmp_path, capsys):
        # a map table that is not Hermiticity preserving
        bad = {
            "d_in": 2,
            "d_out": 2,
            "images": [
                {"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
                {"re": [[0, 2], [0, 0]], "im": [[0, 0], [0, 0]]},
                {"re": [[0, 0], [1, 0]], "im": [[0, 0], [0, 0]]},
                {"re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
            ],
        }
        path = tmp_path / "bad_map.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "cj", "to-witness", "-m", str(path),
                           "--out", str(tmp_path / "w.json"))
        assert code == 2
        assert "Hermiticity" in err

    def test_integer_image_entry_beyond_float_or_digit_limit_exits_3(self, tmp_path, capsys):
        for digits in (str(10**400), "1" * 5001):
            images = [f'{{"re": [[{digits if i == 0 else 0}, 0], [0, 0]], "im": [[0, 0], [0, 0]]}}'
                      for i in range(4)]
            path = tmp_path / "big_map.json"
            path.write_text(f'{{"d_in": 2, "d_out": 2, "images": [{", ".join(images)}]}}\n')
            code, out, err = run(capsys, "cj", "to-witness", "-m", str(path),
                                 "--out", str(tmp_path / "w.json"))
            assert (code, out) == (3, "")
            assert "not finite numbers" in err or "not valid JSON" in err

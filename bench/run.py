"""Benchmark of the ewkit command line, run in-process through ewkit.cli.main.

Usage, from the repository root:

    python3 bench/run.py --workload pair-pipeline --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1

One closed-loop caller in one process sends each op only after the previous
one returned. The workload's op list (a pass) repeats until --seconds of
wall time, output checks included, have passed, at least MIN_OPS ops ran and
at least MIN_PASSES passes ran. Every op's exit code and output are checked
against plain-numpy references. With --trace 0 the last stdout line carries
the end-to-end metrics; with --trace 1 untraced and traced passes alternate
and it carries the per-layer metrics and the tracing overhead. bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported: on two cores an unpinned eigensolver
# runs an order of magnitude slower on these sizes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pair-pipeline", "blockpos-scan", "sweep-csv")
MIN_OPS = 100  # so that at least ten samples lie beyond op_ms_p90
MIN_PASSES = 3  # so that each op's latency is a mean over passes
SETUP_REPS = 9
# Host-speed gauge (reference.py): one sample after every REF_EVERY_S of op
# time. Timings are scaled to a host on which the job takes REF_SECONDS, its
# median on the 2-core Xeon KVM guest the benchmark was tuned on.
REF_EVERY_S = 0.2
REF_SECONDS = 0.0055

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ok_ops_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args: argparse.Namespace) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_text = "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "ewkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "ewkit_source_sha256": source.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the repository at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def call(main, argv: list[str]) -> tuple[int | None, str, float]:
    """One op: exit code (None if it raised), captured stdout, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the op failed; the run goes on and reports it
            rc = None
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    if err.getvalue():
        sys.stderr.write(f"op {argv}: {err.getvalue()}")
    return rc, out.getvalue(), elapsed


class Runner:
    """Runs passes of one workload and keeps the tallies."""

    def __init__(self, workload, main):
        self.workload = workload
        self.main = main
        self.attempted = self.failed = self.unexpected = 0
        self.latencies: list[float] = []  # untraced ops only, scaled to REF_SECONDS
        self.raw_latencies: list[float] = []
        self.scales: list[float] = []  # one per untraced pass

    def run_pass(self, tracer=None, gauge=None) -> tuple[float, Counter]:
        """Returns the summed op time and, if traced, the per-layer totals.

        An untraced pass samples the gauge between ops and keeps its
        latencies scaled by the host's speed during the pass. Outputs are
        checked after the pass, so that the checks' file reads do not run
        between timed ops.
        """
        from tracing import add_op

        main = tracer.root(self.main) if tracer else self.main
        stats: Counter = Counter()
        total = since_sample = 0.0
        results = []
        latencies = []
        samples = [gauge.sample()] if gauge else []
        gc.collect()
        for op in self.workload.ops:
            rc, out, elapsed = call(main, op.argv)
            total += elapsed
            results.append((op, rc, out))
            if tracer is None:
                latencies.append(elapsed)
                since_sample += elapsed
                if gauge and since_sample >= REF_EVERY_S:
                    samples.append(gauge.sample())
                    since_sample = 0.0
                continue
            if op.argv[0] == "certify":
                stats["serialize.cert.bytes"] += len(out)
            add_op(tracer.spans, stats)
            tracer.spans.clear()
        if gauge:
            scale = REF_SECONDS / statistics.median(samples)
            self.scales.append(scale)
            self.raw_latencies += latencies
            self.latencies += [x * scale for x in latencies]
        for op, rc, out in results:
            self.check(op, rc, out, stats)
        return total, stats

    def check(self, op, rc: int | None, out: str, stats: Counter) -> None:
        from workloads import CheckFailed, KnownDefect

        self.attempted += 1
        problem = None
        if rc != op.exit_code:
            problem = f"exit code {rc}, expected {op.exit_code}"
        else:
            try:
                op.check(out)
            except KnownDefect as exc:
                stats["detect.sweep.verdict_mismatch"] += exc.rows
                self.failed += 1
            except (CheckFailed, ValueError, TypeError, KeyError, IndexError, OSError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.unexpected += 1
            sys.stderr.write(f"FAILED {' '.join(op.argv)}: {problem}\n")


def current_cpu() -> int | None:
    """The CPU this process last ran on, or None where /proc does not say."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class Gauge:
    """The reference job of reference.py, run in its own process on request.

    Each sample runs on the CPU the benchmark's process last ran on: the two
    virtual CPUs of a shared host can differ in speed by a third at the same
    moment, and a job timed on the other one tracked the ops worse than none.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples: list[float] = []
        self.cpu: int | None = None

    def sample(self) -> float:
        """Seconds the job took once, now, on this process's CPU."""
        cpu = current_cpu()
        if cpu is not None and cpu != self.cpu:
            os.sched_setaffinity(self.proc.pid, {cpu})
            self.cpu = cpu
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference job exited with code {self.proc.wait()}")
        self.samples.append(float(line))
        return self.samples[-1]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def set_up(name: str, seed: int, work_root: Path, main, gauge: Gauge) -> tuple[object, float]:
    """Builds the workload SETUP_REPS times; returns the last and the set-up time.

    The set-up time is the median time a fresh interpreter takes to import
    numpy and ewkit.cli, plus the median time of input generation and
    warm-up, scaled by the host's speed sampled after each repetition.
    """
    from workloads import WORKLOADS

    code = ("import time; start = time.perf_counter(); import numpy, ewkit.cli; "
            "print(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    builds, imports, samples = [], [], []
    for rep in range(SETUP_REPS):
        work = work_root / f"setup{rep}"
        work.mkdir()
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, work)
        for op in workload.warmup:
            call(main, op.argv)
        builds.append(time.perf_counter() - start)
        imports.append(float(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=120,
            stdout=subprocess.PIPE, text=True).stdout))
        samples.append(gauge.sample())
    raw = statistics.median(builds) + statistics.median(imports)
    return workload, raw * REF_SECONDS / statistics.median(samples)


def run_workload(args: argparse.Namespace) -> dict:
    import ewkit.cli

    if Path(ewkit.__file__).resolve().parent != SRC / "ewkit":
        raise SystemExit(f"imported ewkit from {ewkit.__file__}, not from {SRC}")
    from tracing import PER_LAYER

    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    gauge = Gauge()
    try:
        workload, setup_s = set_up(args.workload, args.seed, work_root, ewkit.cli.main, gauge)
        runner = Runner(workload, ewkit.cli.main)
        if args.trace:
            metrics, exact = measure_traced(runner, args)
        else:
            metrics, exact = measure(runner, args, gauge), True
    finally:
        gauge.close()
        shutil.rmtree(work_root)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    if not args.trace:
        metrics["setup_s"] = setup_s
        metrics["ok_ops_frac"] = 1.0 - runner.failed / runner.attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = dict(PER_LAYER if args.trace else END_TO_END)
    return {
        "correct": runner.unexpected == 0 and exact,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def measure(runner: Runner, args: argparse.Namespace, gauge: Gauge) -> dict:
    """Rates and percentiles over each op's mean latency across passes.

    The host's speed drifts by ten to twenty per cent over tens of seconds.
    The mean over all passes weighs fast and slow stretches by their length,
    where a median follows whichever stretch held most passes and so jumps
    between runs; averaging over passes also keeps one slow moment from
    reordering neighbouring ops in the percentiles.
    """
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while time.perf_counter() < deadline or len(runner.latencies) < MIN_OPS or passes < MIN_PASSES:
        runner.run_pass(gauge=gauge)
        passes += 1
    print(f"{args.workload:>14} latency samples {len(runner.latencies)}: "
          f"{len(runner.workload.ops)} ops x {passes} passes")
    print(f"{args.workload:>14} host speed: reference job median "
          f"{statistics.median(gauge.samples) * 1e3:.3f} ms over {len(gauge.samples)} samples, "
          f"times scaled to {REF_SECONDS * 1e3:g} ms by {statistics.fmean(runner.scales):.4f} "
          "on average")
    for name, value in latency_metrics(runner.raw_latencies, len(runner.workload.ops)).items():
        print(f"{args.workload:>14} unscaled {name:<25} {value:>16.6g}")
    return latency_metrics(runner.latencies, len(runner.workload.ops))


def latency_metrics(latencies: list[float], n: int) -> dict:
    per_op = [statistics.fmean(latencies[i::n]) for i in range(n)]
    per_op_ms = [x * 1e3 for x in per_op]
    return {
        "ops_per_s": n / sum(per_op),
        "op_ms_p50": statistics.median(per_op_ms),
        "op_ms_p90": statistics.quantiles(per_op_ms, n=10)[8],
    }


def measure_traced(runner: Runner, args: argparse.Namespace) -> tuple[dict, bool]:
    """Alternates untraced and traced passes; counts must repeat in each traced pass."""
    from tracing import EXACT, Tracer, layer_metrics

    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    passes = {False: 0, True: 0}
    totals: Counter = Counter()
    exact_counts = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or passes[True] < 2:
        traced = passes[False] > passes[True]
        if traced and (missing := tracer.install()) and passes[True] == 0:
            sys.stderr.write(f"not traced, no longer present: {', '.join(missing)}\n")
        try:
            op_s, stats = runner.run_pass(tracer if traced else None)
        finally:
            tracer.uninstall()
        seconds[traced] += op_s
        passes[traced] += 1
        if traced:
            totals.update(stats)
            per_pass = layer_metrics(stats, 1)
            exact_counts.append({name: per_pass[name] for name in EXACT})
    exact = all(counts == exact_counts[0] for counts in exact_counts)
    if not exact:
        sys.stderr.write(f"counts differ between traced passes: {exact_counts}\n")
    metrics = layer_metrics(totals, passes[True])
    n_ops = len(runner.workload.ops)
    plain = passes[False] * n_ops / seconds[False]
    traced_rate = passes[True] * n_ops / seconds[True]
    metrics["trace.overhead.ops_per_s"] = plain - traced_rate
    metrics["trace.overhead.frac"] = (plain - traced_rate) / plain
    return metrics, exact


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, so set-up and peak memory stay separate."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ewkit" / "__init__.py").is_file():
        print(f"error: no ewkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        print(json.dumps({"env": environment(args)}))
        for name, metric in result["metrics"].items():
            print(f"{args.workload:>14} {name:<34} {metric['value']:>16.6g} {metric['unit']}")
        print(f"{args.workload:>14} attempted {result['attempted']} failed {result['failed']} "
              f"correct {str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
